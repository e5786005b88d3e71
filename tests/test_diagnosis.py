import random
from dataclasses import replace

import pytest

from dyncsp import (
    Diagnosis,
    ExtensionalConstraint,
    Network,
    Observation,
    assert_observation,
    build_network,
    diagnose,
    gate_table,
    generate,
    propagate,
    relax,
    restore,
    retract_observation,
    run_script,
)
from dyncsp.diagnosis import check_consistent
from dyncsp.dynamics import set_active

from generators import (
    faulty_layered_circuit,
    oracle_structures,
    random_network,
    random_observations,
    random_sequence,
)
from oracles import BOOL, minimal_restoring_sets, oracle_consistent


def gate_net(*decls, norelax=()):
    net = Network()
    seen = set()
    for decl in decls:
        for var in decl[2:]:
            if var not in seen:
                net.add_variable(var)
                seen.add(var)
    for decl in decls:
        cid, kind = decl[0], decl[1]
        scope = tuple(decl[2:])
        c = ExtensionalConstraint(
            cid, cid, scope, gate_table(kind, len(scope) - 1), relaxable=cid not in norelax
        )
        net.add_constraint(c, generate(c, {v: BOOL for v in scope}))
    return net


def twin_inverter_net(norelax=()):
    net = gate_net(("N1", "not", "A", "B"), ("N2", "not", "C", "D"), norelax=norelax)
    for oid, var, value in (
        ("M1", "A", "true"),
        ("M2", "B", "true"),
        ("M3", "C", "true"),
        ("M4", "D", "true"),
    ):
        assert_observation(net, Observation(oid, var, value))
    return net


def test_diagnose_rejects_a_non_positive_bound():
    net = gate_net(("N1", "not", "A", "B"))
    with pytest.raises(ValueError):
        diagnose(net, max_cardinality=0)


def test_consistent_network_diagnoses_to_the_empty_repair():
    net = gate_net(("N1", "not", "A", "B"))
    assert_observation(net, Observation("M1", "A", "true"))
    assert check_consistent(net) == (True, None)
    assert diagnose(net, max_cardinality=2) == [Diagnosis(frozenset(), 0)]


def test_check_consistent_reports_the_conflict():
    net = gate_net(("N1", "not", "A", "B"))
    assert_observation(net, Observation("M1", "A", "true"))
    assert_observation(net, Observation("M2", "B", "true"))
    ok, conflict = check_consistent(net)
    assert not ok
    assert conflict.constraints == frozenset({"N1"})
    assert conflict.observations == frozenset({"M1", "M2"})


def test_single_fault_circuit_diagnosis(circuit0):
    spec, script = circuit0
    net = build_network(spec)
    report = run_script(spec, script)
    assert [sorted(d) for d in report.diagnoses] == [["O3"]]


def test_two_candidate_diagnosis_is_sorted(circuit1):
    spec, script = circuit1
    report = run_script(spec, script)
    assert [sorted(d) for d in report.diagnoses] == [["O2"], ["O3"]]


def test_independent_conflicts_need_a_joint_repair():
    net = twin_inverter_net()
    assert diagnose(net, max_cardinality=1) == []
    result = diagnose(net, max_cardinality=2)
    assert result == [Diagnosis(frozenset({"N1", "N2"}), 2)]


def test_norelax_constraints_never_enter_a_diagnosis():
    net = twin_inverter_net(norelax=("N1",))
    assert diagnose(net, max_cardinality=4) == []


def network_state(net):
    """Everything a diagnosis may touch and must leave as it found it."""
    return (
        {
            var: {value: set(causes) for value, causes in dom.mask.items()}
            for var, dom in net.domains.items()
        },
        dict(net.firings),
        dict(net.active_firing),
        (list(net.agenda.heap), set(net.agenda.queued)),
        list(net.empty_order),
        {oid: obs.active for oid, obs in net.observations.items()},
        list(net.events),
        net.next_firing_id,
        {cid: c.active for cid, c in net.constraints.items()},
        None if net.rng is None else net.rng.getstate(),
    )


def two_fault_circuit(seed=None):
    """60 gates with G32 and G38 inverted; 8 probes, most nodes reuse a known conflict."""
    spec, inverted = faulty_layered_circuit(0, 10, 60, 12, 2)
    assert inverted == {"G32", "G38"}
    return build_network(spec, seed=seed)


def test_diagnosis_restores_the_network_afterwards():
    """Pure also where the search relaxes and restores constraints between
    probes without propagating, and labels nodes by conflicts it reuses."""
    for net in (twin_inverter_net(), two_fault_circuit(), two_fault_circuit(seed=3)):
        before = network_state(net)
        assert diagnose(net, max_cardinality=2)
        assert network_state(net) == before


def test_diagnosis_leaves_a_shuffled_network_on_its_random_stream():
    """Probes of a seeded network draw agenda entries from its rng, and the
    rollback restores the rng, so a later relax fires exactly what it fires
    without the diagnosis."""
    probed, plain = two_fault_circuit(seed=3), two_fault_circuit(seed=3)
    diagnose(probed, max_cardinality=1)
    start = len(plain.events)
    for net in (probed, plain):
        relax(net, "G17")
    fires = [event for event in plain.events[start:] if event[0] == "fire"]
    assert fires
    assert [event for event in probed.events[start:] if event[0] == "fire"] == fires
    assert probed.rng.getstate() == plain.rng.getstate()


def _apply_with_deferred_propagation(net, step, rng):
    """Apply one ``random_sequence`` step; a relax or restore may only toggle."""
    op, args = step[0], step[1:]
    if op == "assert":
        assert_observation(net, Observation(*args))
    elif op == "retract":
        retract_observation(net, args[0])
    elif rng.random() < 0.5:
        set_active(net, args[0], op == "restore")
    else:
        (relax if op == "relax" else restore)(net, args[0])
    if rng.random() < 0.3:
        propagate(net)


def test_rollback_unwinds_random_operation_sequences_exactly():
    """After a mark, random asserts, retracts, relaxes, restores and
    propagation passes roll back to the marked state, the event log
    included, and replaying the same steps logs the same events again,
    on plain and on shuffled networks alike."""
    for seed in range(100):
        spec = random_network(seed)
        steps = random_sequence(seed ^ 0xFADE, spec)
        net = build_network(spec, seed=seed if seed % 2 else None, assert_observations=False)
        rng = random.Random(seed)
        cut = rng.randrange(len(steps))
        for step in steps[:cut]:
            _apply_with_deferred_propagation(net, step, rng)
        marked = network_state(net)
        mark = net.snapshot()
        runs = []
        for _ in range(2):
            rng = random.Random(seed + 1)
            for step in steps[cut:]:
                _apply_with_deferred_propagation(net, step, rng)
            runs.append(network_state(net))
            net.rollback(mark)
            assert network_state(net) == marked, seed
        assert runs[0] == runs[1], seed


def test_larger_diagnoses_are_pruned_by_found_subsets(circuit1):
    spec, script = circuit1
    net = build_network(spec)
    for cmd in script.commands:
        if cmd.op == "assert":
            oid, var, value = cmd.args
            assert_observation(net, Observation(oid, var, value))
    result = diagnose(net, max_cardinality=3)
    assert [sorted(d.constraints) for d in result] == [["O2"], ["O3"]]
    assert all(d.cardinality == 1 for d in result)


def _first_conflicting_seed(start):
    seed = start
    while True:
        spec = random_network(seed)
        obs = random_observations(seed ^ 0xBAD, spec)
        domains, constraints = oracle_structures(spec)
        pins = [(o.variable, o.value) for o in obs]
        if obs and not oracle_consistent(domains, list(constraints.values()), pins):
            return spec, obs
        seed += 1


def test_diagnoses_match_the_brute_force_oracle():
    for start in (0, 40, 80, 120):
        spec, obs = _first_conflicting_seed(start)
        net = build_network(spec, assert_observations=False)
        for o in obs:
            assert_observation(net, Observation(o.id, o.variable, o.value))
        assert net.first_empty() is not None
        domains, constraints = oracle_structures(spec)
        relaxable = sorted(constraints)
        expected = minimal_restoring_sets(
            domains, constraints, relaxable, [(o.variable, o.value) for o in obs]
        )
        got = diagnose(net, max_cardinality=len(relaxable))
        assert [set(d.constraints) for d in got] == [set(s) for s in expected]


@pytest.mark.parametrize("norelax_every", [None, 3])
def test_bounded_diagnoses_match_the_brute_force_oracle(norelax_every):
    """For every bound k, ``diagnose(net, k)`` returns the oracle's minimal
    restoring sets of size at most k.

    Below the number of relaxable constraints a node at the bound can be
    closed by a known conflict without probing; criterion 8 always bounds
    by that number. Seeds 0-599 give 895 (network, k) pairs, 668 of them
    below it; with every third gate not relaxable, 598 and 371.
    """
    pairs = 0
    for seed in range(600):
        spec = random_network(seed, max_vars=10, max_gates=8)
        if norelax_every:
            gates = tuple(
                replace(g, relaxable=i % norelax_every != 1) for i, g in enumerate(spec.gates)
            )
            spec = replace(spec, gates=gates)
        obs = random_observations(seed ^ 0xBAD, spec)
        domains, constraints = oracle_structures(spec)
        pins = [(o.variable, o.value) for o in obs]
        if not obs or oracle_consistent(domains, list(constraints.values()), pins):
            continue
        net = build_network(spec, assert_observations=False)
        for o in obs:
            assert_observation(net, Observation(o.id, o.variable, o.value))
        relaxable = sorted(g.id for g in spec.gates if g.relaxable)
        expected = minimal_restoring_sets(domains, constraints, relaxable, pins)
        for k in range(1, len(relaxable) + 1):
            got = diagnose(net, max_cardinality=k)
            assert [set(d.constraints) for d in got] == [set(s) for s in expected if len(s) <= k], (
                seed,
                k,
            )
            pairs += 1
    assert pairs == (598 if norelax_every else 895)
