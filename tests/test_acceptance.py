"""End-to-end acceptance checks, one test per stated criterion.

Each test pins an externally checkable property of the whole pipeline:
golden rule sets, the two reference circuit scenarios, compiler
verification with rule-deletion sensitivity, oracle equivalence of the
engine fixpoint, dynamic and randomized-order equivalences, diagnosis
completeness, and desk-scale performance.
"""

import random
import time
import tracemalloc
from itertools import combinations, permutations, product

from dyncsp import (
    ExtensionalConstraint,
    GateDecl,
    Network,
    NetworkSpec,
    Observation,
    VariableDecl,
    assert_observation,
    build_network,
    diagnose,
    dump_rules,
    extract_conflict,
    gate_table,
    generate,
    relax,
    restore,
    retract_observation,
    run_script,
    verify_rules,
)
from dyncsp import compiler, diagnosis, engine, runner
from dyncsp.core import FiniteDomain, PropagationRule, RuleTemplate

from generators import (
    faulty_layered_circuit,
    oracle_structures,
    random_network,
    random_observations,
    random_sequence,
    random_table,
)
from oracles import (
    BOOL,
    gac_fixpoint,
    minimal_restoring_sets,
    oracle_consistent,
    pinned_domains,
)

DECL3 = {"V1": BOOL, "V2": BOOL, "V3": BOOL}

AND_DUMP = """\
R1: IF V1=false THEN V3 in {false}
R2: IF V2=false THEN V3 in {false}
R3: IF V3=true THEN V1 in {true}; V2 in {true}
R4: IF V1=true AND V2=true THEN V3 in {true}
R5: IF V1=true AND V3=false THEN V2 in {false}
R6: IF V2=true AND V3=false THEN V1 in {false}"""

OR_DUMP = """\
R1: IF V1=true THEN V3 in {true}
R2: IF V2=true THEN V3 in {true}
R3: IF V3=false THEN V1 in {false}; V2 in {false}
R4: IF V1=false AND V2=false THEN V3 in {false}
R5: IF V1=false AND V3=true THEN V2 in {true}
R6: IF V2=false AND V3=true THEN V1 in {true}"""

OR_GROUND_RULES = (
    "R1: IF V1=true THEN V3 in {true}",
    "R2: IF V2=true THEN V3 in {true}",
    "R4: IF V1=false AND V2=false THEN V3 in {false}",
    "R5: IF V1=false AND V3=true THEN V2 in {true}",
    "R6: IF V2=false AND V3=true THEN V1 in {true}",
)

CIRC0_OBSERVATIONS = (
    ("M1", "E1", "false"),
    ("M2", "E2", "false"),
    ("M3", "E3", "false"),
    ("M4", "S1", "false"),
    ("M5", "E4", "true"),
)


def test_criterion_1_golden_gate_rule_sets():
    """and/or compile to exactly the six canonical rules, byte for byte."""
    for kind, golden in (("and", AND_DUMP), ("or", OR_DUMP)):
        constraint = ExtensionalConstraint(
            f"C_{kind}", kind, ("V1", "V2", "V3"), gate_table(kind, 2)
        )
        start = time.perf_counter()
        rules = generate(constraint, DECL3)
        elapsed = time.perf_counter() - start
        assert dump_rules(rules.rules) == golden
        assert elapsed < 0.010
    or_lines = OR_DUMP.splitlines()
    for line in OR_GROUND_RULES:
        assert line in or_lines


def test_criterion_2_single_fault_conflict_in_any_order(circuit0):
    """The reference single-fault scenario blames {O3} under all 120 orders."""
    spec, _ = circuit0
    start = time.perf_counter()
    net = build_network(spec, assert_observations=False)
    fired_per_assert = []
    outcome = None
    for oid, var, value in CIRC0_OBSERVATIONS:
        outcome = assert_observation(net, Observation(oid, var, value))
        fired_per_assert.append([net.firings[f].rule for f in outcome.fired])
    conflict = extract_conflict(net, net.first_empty())
    elapsed = time.perf_counter() - start
    assert fired_per_assert == [[], [("O1", 4), ("A1", 1)], [("O2", 4)], [("O3", 3)], []]
    assert outcome.status == "conflict"
    assert outcome.conflict[0] == "E4"
    assert conflict.constraints == frozenset({"O3"})
    assert conflict.observations == frozenset({"M4", "M5"})
    assert elapsed < 0.010

    for order in permutations(CIRC0_OBSERVATIONS):
        net = build_network(spec, assert_observations=False)
        for oid, var, value in order:
            assert_observation(net, Observation(oid, var, value))
        empty = net.first_empty()
        assert empty is not None
        assert extract_conflict(net, empty).constraints == frozenset({"O3"})


def test_criterion_3_two_candidate_diagnosis_scenario(circuit1):
    """The two-fault-candidate scenario: conflict {O2, O3}, repairs {O2}, {O3}."""
    spec, script = circuit1
    start = time.perf_counter()
    report = run_script(spec, script)
    elapsed = time.perf_counter() - start
    assert report.conflicts == [
        {"variable": "E2", "constraints": ["O2", "O3"], "observations": ["M1", "M3"]}
    ]
    assert report.diagnoses == [["O2"], ["O3"]]
    assert elapsed < 0.050


def test_criterion_4_rule_sets_verify_and_are_deletion_minimal():
    """Every compiled set passes cr1-cr4; dropping any one rule breaks cr1 or cr4."""
    start = time.perf_counter()
    subjects = []
    for kind, n in (("and", 2), ("or", 2), ("not", 1), ("xor", 2), ("nand", 2), ("nor", 2)):
        scope = tuple(f"V{i + 1}" for i in range(n + 1))
        subjects.append(
            ExtensionalConstraint(f"C_{kind}", kind, scope, gate_table(kind, n))
        )
    for seed in range(100):
        scope, rows = random_table(seed, max_arity=4)
        subjects.append(ExtensionalConstraint(f"T{seed}", "table", scope, frozenset(rows)))
    for constraint in subjects:
        declared = {v: BOOL for v in constraint.scope}
        rules = generate(constraint, declared).rules
        report = verify_rules(rules, constraint, declared)
        assert report.passed, (constraint.id, report)
        for drop in range(len(rules)):
            reduced = [r for i, r in enumerate(rules) if i != drop]
            damaged = verify_rules(reduced, constraint, declared)
            assert not (damaged.cr1.passed and damaged.cr4.passed), (
                constraint.id,
                rules[drop].id,
            )
    assert time.perf_counter() - start < 5.0


def test_criterion_5_fixpoints_equal_the_arc_consistency_oracle():
    """Engine fixpoints match brute-force support filtering, both firing modes."""
    start = time.perf_counter()
    for seed in range(200):
        spec = random_network(seed)
        obs = random_observations(seed ^ 0x5EED, spec)
        domains, constraints = oracle_structures(spec)
        oracle = gac_fixpoint(
            pinned_domains(domains, [(o.variable, o.value) for o in obs]),
            list(constraints.values()),
        )
        oracle_ok = all(oracle.values())
        for short_circuit in (False, True):
            net = build_network(spec, short_circuit=short_circuit, assert_observations=False)
            conflicted = False
            for o in obs:
                out = assert_observation(net, Observation(o.id, o.variable, o.value))
                if out.status == "conflict":
                    conflicted = True
                    break
            assert conflicted == (not oracle_ok), (seed, short_circuit)
            if not conflicted:
                got = {v: set(net.domains[v].visible()) for v in net.domains}
                assert got == oracle, (seed, short_circuit)
    assert time.perf_counter() - start < 10.0


def _apply(net, step):
    op, args = step[0], step[1:]
    if op == "assert":
        assert_observation(net, Observation(*args))
    elif op == "retract":
        retract_observation(net, args[0])
    elif op == "relax":
        relax(net, args[0])
    else:
        restore(net, args[0])


def _verdict_domains(net):
    if net.first_empty() is not None:
        return None
    return {v: net.domains[v].visible() for v in net.domains}


def test_criterion_6_dynamic_sequences_are_equivalent_to_scratch():
    """Sequences of assert/retract/relax/restore match scratch propagation,
    and each relax->restore pair round-trips the state."""
    start = time.perf_counter()
    round_trips = 0
    for seed in range(100):
        spec = random_network(seed)
        steps = random_sequence(seed ^ 0xFADE, spec)
        net = build_network(spec, assert_observations=False)
        active_obs = {}
        relaxed = set()
        i = 0
        while i < len(steps):
            step = steps[i]
            is_pair = (
                step[0] == "relax"
                and i + 1 < len(steps)
                and steps[i + 1] == ("restore", step[1])
            )
            before = _verdict_domains(net) if is_pair else None
            _apply(net, step)
            if step[0] == "assert":
                active_obs[step[1]] = step[2:]
            elif step[0] == "retract":
                del active_obs[step[1]]
            elif step[0] == "relax":
                relaxed.add(step[1])
            else:
                relaxed.discard(step[1])
            if is_pair:
                _apply(net, steps[i + 1])
                relaxed.discard(step[1])
                round_trips += 1
                after = _verdict_domains(net)
                if before is None:
                    assert after is None, (seed, i)
                else:
                    assert after == before, (seed, i)
                i += 2
            else:
                i += 1
        fresh = build_network(spec, assert_observations=False)
        for cid in sorted(relaxed):
            relax(fresh, cid)
        for oid in sorted(active_obs):
            var, value = active_obs[oid]
            assert_observation(fresh, Observation(oid, var, value))
        live, scratch = _verdict_domains(net), _verdict_domains(fresh)
        assert (live is None) == (scratch is None), seed
        if live is not None:
            assert live == scratch, seed
    assert round_trips >= 100
    assert time.perf_counter() - start < 10.0


def _run_orders(spec, observations, shuffles):
    """(verdict, domains-or-conflict) per shuffled firing order."""
    results = []
    for k in range(shuffles):
        net = build_network(spec, seed=k, assert_observations=False)
        conflict = None
        for o in observations:
            out = assert_observation(net, Observation(*o))
            if out.status == "conflict":
                conflict = out.conflict[1]
                break
        if conflict is None:
            results.append(("ok", tuple(sorted((v, net.domains[v].visible()) for v in net.domains))))
        else:
            results.append(("conflict", (frozenset(conflict.constraints), frozenset(conflict.observations))))
    return results


def test_criterion_7_shuffled_orders_are_confluent(circuit0, circuit1):
    """Shuffled firing orders agree on verdicts and consistent fixpoints,
    every extracted conflict is sound, and the reference scenarios yield
    identical conflict sets under every order."""
    start = time.perf_counter()
    for seed in range(50):
        spec = random_network(seed)
        obs = [(o.id, o.variable, o.value) for o in random_observations(seed ^ 0x0DD, spec)]
        domains, constraints = oracle_structures(spec)
        results = _run_orders(spec, obs, shuffles=10)
        verdicts = {r[0] for r in results}
        assert len(verdicts) == 1, seed
        if verdicts == {"ok"}:
            assert len({r[1] for r in results}) == 1, seed
        else:
            for _, (culprits, blamed_obs) in results:
                sub = [constraints[c] for c in culprits]
                pins = [(var, value) for oid, var, value in obs if oid in blamed_obs]
                reduced = gac_fixpoint(pinned_domains(domains, pins), sub)
                assert any(not values for values in reduced.values()), (seed, culprits)

    spec0, _ = circuit0
    results = _run_orders(spec0, CIRC0_OBSERVATIONS, shuffles=10)
    assert set(results) == {("conflict", (frozenset({"O3"}), frozenset({"M4", "M5"})))}

    spec1, script1 = circuit1
    obs1 = [c.args for c in script1.commands if c.op == "assert"]
    results = _run_orders(spec1, obs1, shuffles=10)
    assert set(results) == {("conflict", (frozenset({"O2", "O3"}), frozenset({"M1", "M3"})))}
    assert time.perf_counter() - start < 5.0


def test_criterion_8_diagnoses_equal_brute_force_enumeration():
    """On 50 inconsistent networks, diagnose returns exactly the
    subset-minimal restoring sets found by exhaustive search."""
    start = time.perf_counter()
    found = 0
    seed = 0
    while found < 50:
        spec = random_network(seed)
        obs = random_observations(seed ^ 0xBAD, spec)
        seed += 1
        domains, constraints = oracle_structures(spec)
        pins = [(o.variable, o.value) for o in obs]
        if not obs or oracle_consistent(domains, list(constraints.values()), pins):
            continue
        found += 1
        net = build_network(spec, assert_observations=False)
        for o in obs:
            assert_observation(net, Observation(o.id, o.variable, o.value))
        assert net.first_empty() is not None
        relaxable = sorted(constraints)
        assert len(relaxable) <= 6
        expected = minimal_restoring_sets(domains, constraints, relaxable, pins)
        got = diagnose(net, max_cardinality=len(relaxable))
        assert [set(d.constraints) for d in got] == [set(s) for s in expected], seed - 1
    assert time.perf_counter() - start < 20.0


def test_criterion_9_chain_performance():
    """A 1000-gate chain propagates in <100 ms; mid-chain relax and
    restore each complete in <50 ms."""
    net = Network()
    net.add_variable("V0")
    declared = {"V0": BOOL}
    for i in range(1, 1001):
        net.add_variable(f"V{i}")
        declared[f"V{i}"] = BOOL
        scope = (f"V{i - 1}", f"V{i}")
        constraint = ExtensionalConstraint(f"N{i}", "not", scope, gate_table("not", 1))
        net.add_constraint(constraint, generate(constraint, {v: declared[v] for v in scope}))

    start = time.perf_counter()
    out = assert_observation(net, Observation("M1", "V0", "true"))
    propagate_time = time.perf_counter() - start
    assert out.status == "fixpoint"
    assert len(out.fired) == 1000
    assert propagate_time < 0.100

    start = time.perf_counter()
    relax(net, "N500")
    relax_time = time.perf_counter() - start
    assert net.domains["V1000"].visible_count() == 2
    assert relax_time < 0.050

    start = time.perf_counter()
    out = restore(net, "N500")
    restore_time = time.perf_counter() - start
    assert len(out.fired) == 501
    assert net.domains["V1000"].visible_count() == 1
    assert restore_time < 0.050


def _not_template():
    gate = ExtensionalConstraint("N", "not", ("A", "B"), gate_table("not", 1))
    return RuleTemplate(gate, (BOOL, BOOL), generate(gate, {"A": BOOL, "B": BOOL}).rules)


def _inverter_chain(length, template=None):
    """V0 -> V1 -> ... -> V<length> through ``not`` gates N1..N<length>.

    One gate is compiled into a rule template that every gate shares,
    which keeps a 10 000-gate chain cheap to build.
    """
    table = gate_table("not", 1)
    template = template or _not_template()
    net = Network()
    net.add_variable("V0")
    for i in range(1, length + 1):
        net.add_variable(f"V{i}")
        cid, scope = f"N{i}", (f"V{i - 1}", f"V{i}")
        net.add_constraint(ExtensionalConstraint(cid, "not", scope, table), template)
    return net


def test_criterion_9_rollback_costs_what_changed():
    """On a 10 000-gate chain with V0 asserted, a mark, ``relax N9990`` and
    the rollback to the mark peak at under 256 KB of traced allocations.
    Copying the whole network into the mark peaked at 12.4 MB; unwinding
    the 23 events logged since the mark peaks at about 8 KB."""
    net = _inverter_chain(10_000)
    assert assert_observation(net, Observation("M1", "V0", "true")).status == "fixpoint"
    logged = len(net.events)
    tracemalloc.start()
    try:
        mark = net.snapshot()
        relax(net, "N9990")
        net.rollback(mark)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(net.events) == logged
    assert net.domains["V10000"].visible_count() == 1
    assert peak < 256 * 1024


def test_criterion_9_assert_retract_cycles_retain_one_record_per_firing():
    """An assert/retract cycle on a 1000-gate chain, after one warm-up
    cycle, retains under 950 KB of traced allocations: its 1000 firings,
    each recorded once, and the events that log them. A watcher index and
    a second, re-sorted copy of every firing's supports in its ``fire``
    event retained 1132 KB per cycle."""
    net = _inverter_chain(1000)

    def cycle(i):
        assert_observation(net, Observation(f"M{i}", "V0", "true"))
        retract_observation(net, f"M{i}")

    cycle(0)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for i in range(1, 6):
            cycle(i)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(net.firings) == 6 * 1000
    assert (after - before) / 5 < 950_000


def _identical_and_gates():
    """1000 ``and`` gates, G<i> driving V<2i+2> from V<2i> and V<2i+1>."""
    names = [f"V{i}" for i in range(2001)]
    return NetworkSpec(
        variables=tuple(VariableDecl(name, BOOL) for name in names),
        gates=tuple(
            GateDecl(f"G{i}", "and", (names[2 * i], names[2 * i + 1]), names[2 * i + 2])
            for i in range(1000)
        ),
    )


def test_criterion_9_identical_gates_compile_once(monkeypatch):
    """Building 1000 identical ``and`` gates runs the compiler once."""
    calls = 0
    original = runner.generate

    def counted(constraint, declared):
        nonlocal calls
        calls += 1
        return original(constraint, declared)

    monkeypatch.setattr(runner, "generate", counted)
    net = build_network(_identical_and_gates())
    assert calls == 1
    assert sum(len(rules) for rules in net.rules.values()) == 6000


def test_criterion_9_a_build_queues_only_rules_that_can_fire():
    """A fresh network queues only its unconditional rules, and gates have
    none: building 1000 ``and`` gates or a 10 000-gate ``not`` chain leaves
    the agenda empty. Queuing every new constraint's rules left 6000 and
    40 000 entries, which the first assert then had to check."""
    net = build_network(_identical_and_gates(), assert_observations=False)
    assert len(net.agenda) == 0
    net = _inverter_chain(10_000)
    assert len(net.agenda) == 0


def test_criterion_9_building_binds_no_rules(monkeypatch):
    """Building the 10 000-gate ``not`` chain through ``add_constraint``
    makes at most one ``PropagationRule`` per rule of the shared template;
    binding each gate's rules as it was added made 40 000. Reading a
    gate's rules makes none until a rule is read; the first rule read
    makes that gate's rules, once."""
    template = _not_template()
    made = []
    init = PropagationRule.__init__

    def counted(rule, *args, **kwargs):
        made.append(args[0] if args else kwargs["id"])
        init(rule, *args, **kwargs)

    monkeypatch.setattr(PropagationRule, "__init__", counted)
    net = _inverter_chain(10_000, template)
    assert len(made) <= len(template.rules)
    made.clear()
    assert net.rules["N7"] is net.rules["N7"]
    assert made == []
    assert net.rules["N7"][0].id == "N7.R1"
    assert made == [f"N7.R{rule.index}" for rule in template.rules]
    assert list(net.rules["N7"]) == list(net.rules["N7"])
    assert made == [f"N7.R{rule.index}" for rule in template.rules]


def test_criterion_9_first_assert_checks_few_rules_per_firing(monkeypatch):
    """The first assert on a 10 000-gate chain fires 10 000 rules and checks
    at most 3 rules per firing: each pin queues the rules that test the
    pinned literal. Draining rules queued at build time checked 59 922."""
    net = _inverter_chain(10_000)
    checks = 0
    original = engine.rule_applicable

    def counted(network, rule):
        nonlocal checks
        checks += 1
        return original(network, rule)

    monkeypatch.setattr(engine, "rule_applicable", counted)
    out = assert_observation(net, Observation("M1", "V0", "true"))
    assert out.status == "fixpoint"
    assert len(out.fired) == 10_000
    assert checks <= 3 * len(out.fired)


def test_criterion_9_first_assert_reads_no_visible_tuples(monkeypatch):
    """The first assert on a 10 000-gate chain checks and fires its rules on
    each domain's int of visible values and builds no tuple of them.
    Reading domains by name and value, it called ``visible`` 40 001 times."""
    net = _inverter_chain(10_000)
    calls = 0
    original = FiniteDomain.visible

    def counted(dom):
        nonlocal calls
        calls += 1
        return original(dom)

    monkeypatch.setattr(FiniteDomain, "visible", counted)
    out = assert_observation(net, Observation("M1", "V0", "true"))
    assert out.status == "fixpoint"
    assert len(out.fired) == 10_000
    assert calls == 0


def test_criterion_9_chain_work_is_proportional_to_the_change(monkeypatch):
    """On a 10 000-gate chain, relax and restore check at most 8 rules per
    value they release or firing they make, wherever the chain is cut;
    a pass over every rule would check 40 000."""
    net = _inverter_chain(10_000)
    assert assert_observation(net, Observation("M1", "V0", "true")).status == "fixpoint"
    checks = 0
    original = engine.rule_applicable

    def counted(network, rule):
        nonlocal checks
        checks += 1
        return original(network, rule)

    monkeypatch.setattr(engine, "rule_applicable", counted)
    for cut in (5000, 9900):
        checks = 0
        out = relax(net, f"N{cut}")
        released = sum(dom.visible_count() == 2 for dom in net.domains.values())
        assert released == 10_001 - cut
        assert checks <= 8 * (released + len(out.fired))
        checks = 0
        out = restore(net, f"N{cut}")
        assert len(out.fired) == released
        assert checks <= 8 * len(out.fired)


def test_criterion_9_observations_check_few_rules_per_firing(monkeypatch):
    """Asserting, in order, the observations of a fault-free 300-gate layered
    circuit fires 300 rules and checks at most 3 rules per firing. A watch
    queues a rule only when all its conditions hold; queuing every rule
    that tests the literal that came to hold checked 1690 (5.63 per
    firing), most of them because another condition did not hold."""
    spec, inverted = faulty_layered_circuit(0, 10, 300, 30, 0)
    assert not inverted
    net = build_network(spec, assert_observations=False)
    checks = 0
    original = engine.rule_applicable

    def counted(network, rule):
        nonlocal checks
        checks += 1
        return original(network, rule)

    monkeypatch.setattr(engine, "rule_applicable", counted)
    fired = 0
    for obs in spec.observations:
        out = assert_observation(net, Observation(obs.id, obs.variable, obs.value))
        assert out.status == "fixpoint", obs.id
        fired += len(out.fired)
    assert fired == 300
    assert checks <= 3 * fired


def test_criterion_9_diagnosis_probes_only_where_no_known_conflict_decides(monkeypatch):
    """On a 60-gate layered circuit with two inverted gates, ``diagnose``
    with bound 2 probes (calls ``check_consistent``) at most 16 times.
    The depth-first search that derived a fresh conflict at every node
    probed 84 times; the hitting-set tree that reuses known conflicts
    probes 8 times."""
    spec, _ = faulty_layered_circuit(0, 10, 60, 12, 2)
    net = build_network(spec)
    probes = 0
    original = diagnosis.check_consistent

    def counted(network):
        nonlocal probes
        probes += 1
        return original(network)

    monkeypatch.setattr(diagnosis, "check_consistent", counted)
    result = diagnose(net, max_cardinality=2)
    # G32 and G38 are the inverted gates
    assert [sorted(d.constraints) for d in result] == [["G28", "G38"], ["G32", "G38"]]
    assert probes <= 16


def test_criterion_9_diagnosis_probes_in_level_order_under_smallest_labels(monkeypatch):
    """The same search probes exactly these relaxed sets, in this order:
    levels by cardinality and nodes sorted within a level; a level taken
    in hash order probes in another order. Which unhit conflict labels a
    node does not show here: every ancestor's label is a known conflict
    that a probed node hits, so some child on its path relaxes a member
    of it, and the node is reached under any labelling. The label only
    decides how many other nodes a level holds."""
    spec, _ = faulty_layered_circuit(0, 10, 60, 12, 2)
    net = build_network(spec)
    probed = []
    original = diagnosis.check_consistent

    def recorded(network):
        probed.append(tuple(sorted(c for c, con in network.constraints.items() if not con.active)))
        return original(network)

    monkeypatch.setattr(diagnosis, "check_consistent", recorded)
    diagnose(net, max_cardinality=2)
    assert probed == [
        (),
        ("G1",),
        ("G13",),
        ("G28",),
        ("G28", "G38"),
        ("G28", "G48"),
        ("G32", "G38"),
        ("G33", "G38"),
    ]


def test_criterion_9_verify_chains_once_per_start(monkeypatch):
    """Verifying the rules of a random arity-5 table over three values runs
    the chaining kernel at most once per consistent start, once per
    forbidden full assignment and once per rule (cr4): 854 + 122 + 256
    here. Sampling ten firing orders per start for cr3, and chaining
    separately for cr1 and cr2, ran it 11 480 times."""
    domain = ("a", "b", "c")
    scope = tuple(f"V{i}" for i in range(1, 6))
    universe = list(product(domain, repeat=5))
    rows = frozenset(random.Random(5).sample(universe, len(universe) // 2))
    constraint = ExtensionalConstraint("T", "table", scope, rows)
    declared = dict.fromkeys(scope, domain)
    rules = generate(constraint, declared).rules
    consistent = {
        frozenset(zip(positions, (row[p] for p in positions)))
        for row in rows
        for size in range(6)
        for positions in combinations(range(5), size)
    }
    chains = 0
    original = compiler._chain

    def counted(*args, **kwargs):
        nonlocal chains
        chains += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(compiler, "_chain", counted)
    assert verify_rules(rules, constraint, declared).passed
    assert chains <= len(consistent) + len(universe) - len(rows) + len(rules)
