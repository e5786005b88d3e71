import hashlib
import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncsp import (
    ExtensionalConstraint,
    Network,
    Observation,
    assert_observation,
    build_network,
    diagnose,
    extract_conflict,
    gate_table,
    generate,
    propagate,
    relax,
    restore,
    retract_observation,
)
from dyncsp.dynamics import cancel_firing
from dyncsp.engine import rule_applicable

from generators import (
    oracle_structures,
    random_network,
    random_sequence,
    random_table_network,
    shared_shape_spec,
)
from oracles import (
    BOOL,
    gac_fixpoint,
    pinned_domains,
    replay_events,
    singleton_support_fixpoint,
)


def gate_net(*decls):
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
        c = ExtensionalConstraint(cid, cid, scope, gate_table(kind, len(scope) - 1))
        net.add_constraint(c, generate(c, {v: BOOL for v in scope}))
    return net


def inverter_chain(length):
    decls = []
    for i in range(length):
        decls.append((f"N{i + 1}", "not", f"V{i}", f"V{i + 1}"))
    return gate_net(*decls)


def visible(net):
    return {v: net.domains[v].visible() for v in net.domains}


def test_cancel_firing_rejects_unknown_ids():
    """An unknown id anywhere in the call changes nothing."""
    net = inverter_chain(3)
    with pytest.raises(ValueError):
        cancel_firing(net, 7)
    assert_observation(net, Observation("M1", "V0", "true"))
    events, active = list(net.events), dict(net.active_firing)
    for ids in ((99, 1), (1, 99), (2, 1, 99, 3)):
        with pytest.raises(ValueError, match="unknown firing 99"):
            cancel_firing(net, *ids)
        assert net.events == events and net.active_firing == active


def test_cancel_firing_is_idempotent():
    net = inverter_chain(2)
    assert_observation(net, Observation("M1", "V0", "true"))
    record = cancel_firing(net, 1)
    assert record.cancelled
    again = cancel_firing(net, 1)
    assert again.cancelled == []


def test_cancel_cascades_through_dependent_firings():
    net = inverter_chain(4)
    assert_observation(net, Observation("M1", "V0", "true"))
    assert len(net.firings) == 4
    record = cancel_firing(net, 1)
    assert record.cancelled == [1, 2, 3, 4]
    assert all(net.active_firing.get(net.firings[f].rule) != f for f in record.cancelled)
    assert all(net.domains[f"V{i}"].visible() == ("false", "true") for i in range(1, 5))
    assert net.active_firing == {}
    # the observation pin on V0 is untouched
    assert net.domains["V0"].visible() == ("true",)


def test_cancel_spares_watchers_still_supported_by_an_observation():
    net = gate_net(("N1", "not", "X", "B"), ("N2", "not", "B", "C"))
    assert_observation(net, Observation("M1", "X", "false"))
    b_firing = net.active_firing["N1", 1]
    assert_observation(net, Observation("M2", "B", "true"))
    c_firing = net.active_firing["N2", 2]
    assert "M2" in net.domains["B"].mask["false"]
    record = cancel_firing(net, b_firing)
    # B stays instantiated through M2, so the downstream firing survives
    assert record.cancelled == [b_firing]
    assert net.active_firing["N2", 2] == c_firing
    assert net.domains["B"].visible() == ("true",)
    assert net.domains["C"].visible() == ("false",)


def test_cancel_firing_takes_several_ids_as_one_call_per_id():
    """One call with several ids logs what one call per id logs, in order:
    an id that an earlier id's cascade cancelled, or that repeats, is
    skipped. Chains pin the order; random networks cover the rest."""
    net, twin = inverter_chain(4), inverter_chain(4)
    for n in (net, twin):
        assert_observation(n, Observation("M1", "V0", "true"))
    assert cancel_firing(net, 3, 1, 4, 3).cancelled == [3, 4, 1, 2]
    assert [cancel_firing(twin, fid).cancelled for fid in (3, 1, 4, 3)] == [[3, 4], [1, 2], [], []]
    assert net.events == twin.events
    calls = 0
    for seed in range(60):
        spec = random_network(seed)
        net, twin = (build_network(spec, assert_observations=False) for _ in range(2))
        rng = random.Random(seed)
        for step in random_sequence(seed ^ 0xCA11, spec):
            run_op(net, step)
            run_op(twin, step)
            ids = list(net.active_firing.values())
            if len(ids) < 2:
                continue
            rng.shuffle(ids)
            ids.append(ids[0])
            calls += 1
            marks = net.snapshot(), twin.snapshot()
            cancelled = cancel_firing(net, *ids).cancelled
            assert cancelled == [f for i in ids for f in cancel_firing(twin, i).cancelled], seed
            assert net.events == twin.events and net.active_firing == twin.active_firing == {}
            net.rollback(marks[0])
            twin.rollback(marks[1])
        assert net.events == twin.events, seed
    assert calls > 100, calls


def test_a_younger_claim_withdrawn_spares_a_firing_between_it_and_the_first_hider():
    """N1's firing (1) hides B=false, N2's (2) relies on that, and A1's
    rule "IF Y=true THEN B in {true}; D in {true}" (firing 3) hides
    D=false and claims B=false. Relaxing A1 leaves B=false hidden by
    firing 1 alone, which is older than firing 2, so firing 2 stays
    founded: the relax cancels firing 3 and nothing else. A release that
    skipped the age test would cancel firing 2 and refire N2."""
    net = gate_net(("N1", "not", "X", "B"), ("N2", "not", "B", "C"), ("A1", "and", "B", "D", "Y"))
    assert_observation(net, Observation("M1", "X", "false"))
    assert_observation(net, Observation("M2", "Y", "true"))
    assert [net.firings[fid].rule[0] for fid in (1, 2, 3)] == ["N1", "N2", "A1"]
    assert net.firings[3].effects == (("D", "false"), ("B", "false"))
    assert net.domains["B"].mask["false"] == {1, 3}
    n2 = net.firings[2].rule
    mark = len(net.events)
    out = relax(net, "A1")
    assert out.fired == []
    assert [event for event in net.events[mark:] if event[0] == "cancel"] == [("cancel", 3)]
    assert net.active_firing == {net.firings[1].rule: 1, n2: 2}
    assert visible(net) == {
        "X": ("false",), "B": ("true",), "C": ("false",), "D": BOOL, "Y": ("true",)
    }


def test_relax_validates_its_target():
    spec_net = gate_net(("N1", "not", "A", "B"))
    with pytest.raises(ValueError):
        relax(spec_net, "N9")
    relax(spec_net, "N1")
    with pytest.raises(ValueError):
        relax(spec_net, "N1")


def test_relax_refuses_non_relaxable_constraints():
    net = Network()
    net.add_variable("A")
    net.add_variable("B")
    c = ExtensionalConstraint("N1", "not", ("A", "B"), gate_table("not", 1), relaxable=False)
    net.add_constraint(c, generate(c, {"A": BOOL, "B": BOOL}))
    with pytest.raises(ValueError):
        relax(net, "N1")


def test_relax_releases_and_repropagates_parallel_support():
    net = gate_net(("N1", "not", "X", "C"), ("N2", "not", "Y", "C"))
    assert_observation(net, Observation("M1", "X", "true"))
    assert_observation(net, Observation("M2", "Y", "true"))
    # N2 only fired backward (C=false forced Y=true); its forward rule was subsumed
    assert net.active_firing.keys() == {("N1", 2), ("N2", 3)}
    out = relax(net, "N1")
    assert out.status == "fixpoint"
    assert [net.firings[f].rule for f in out.fired] == [("N2", 2)]
    assert net.domains["C"].visible() == ("false",)
    assert net.active_firing.keys() == {("N2", 2)}


def test_cancel_spares_exclusions_claimed_by_a_later_firing():
    net = gate_net(("N1", "not", "A", "V3"), ("G1", "or", "V1", "V3", "V4"))
    assert_observation(net, Observation("M1", "A", "true"))
    assert_observation(net, Observation("M2", "V4", "false"))
    # G1.R3 concludes on V1 and V3; V3=true was already hidden by N1's firing
    assert net.firings[2].rule == ("G1", 3)
    assert net.firings[2].effects == (("V1", "true"), ("V3", "true"))
    assert net.domains["V3"].mask["true"] == {1, 2}
    relax(net, "N1")
    # the claim keeps V3 pruned after its first justification is withdrawn
    assert net.domains["V3"].visible() == ("false",)
    assert net.domains["V3"].mask["true"] == {2}
    assert net.active_firing == {("G1", 3): 2}


def test_claims_survive_a_relax_restore_retract_cascade():
    decls = (("G1", "or", "V1", "V3", "V4"), ("G2", "nor", "V3", "V4", "V6"))
    net = gate_net(*decls)
    assert_observation(net, Observation("S1", "V6", "true"))
    assert_observation(net, Observation("S2", "V4", "false"))
    relax(net, "G2")
    restore(net, "G2")
    retract_observation(net, "S1")
    fresh = gate_net(*decls)
    assert_observation(fresh, Observation("S2", "V4", "false"))
    assert visible(net) == visible(fresh)
    assert net.domains["V3"].visible() == ("false",)
    assert net.domains["V6"].visible() == ("true",)


def test_relax_then_restore_round_trips_a_consistent_state():
    net = inverter_chain(6)
    assert_observation(net, Observation("M1", "V0", "true"))
    before = visible(net)
    relax(net, "N3")
    assert net.domains["V3"].visible() == ("false", "true")
    assert net.domains["V6"].visible() == ("false", "true")
    out = restore(net, "N3")
    assert out.status == "fixpoint"
    assert visible(net) == before


def test_restore_requires_a_relaxed_constraint():
    net = inverter_chain(2)
    with pytest.raises(ValueError):
        restore(net, "N1")
    with pytest.raises(ValueError):
        restore(net, "N9")


def test_relax_clears_a_standing_conflict():
    net = gate_net(
        ("O1", "or", "E1", "E2", "X"),
        ("O2", "or", "E2", "E3", "Y"),
        ("A1", "and", "X", "Y", "Z"),
        ("O3", "or", "Z", "E4", "S1"),
    )
    for oid, var, value in (
        ("M1", "E1", "false"),
        ("M2", "E2", "false"),
        ("M3", "E3", "false"),
        ("M4", "S1", "false"),
        ("M5", "E4", "true"),
    ):
        assert_observation(net, Observation(oid, var, value))
    assert net.first_empty() == "E4"
    out = relax(net, "O3")
    assert out.status == "fixpoint"
    assert net.first_empty() is None
    assert net.domains["E4"].visible() == ("true",)


def test_retract_validates_its_target():
    net = inverter_chain(2)
    with pytest.raises(ValueError):
        retract_observation(net, "M1")
    assert_observation(net, Observation("M1", "V0", "true"))
    retract_observation(net, "M1")
    with pytest.raises(ValueError):
        retract_observation(net, "M1")


def test_retract_releases_pins_and_cancels_dependents():
    net = inverter_chain(3)
    assert_observation(net, Observation("M1", "V0", "true"))
    out = retract_observation(net, "M1")
    assert out.status == "fixpoint"
    assert out.fired == []
    assert visible(net) == {v: ("false", "true") for v in net.domains}
    assert net.firings and net.active_firing == {}


def test_retract_cancels_firings_that_only_hide_each_others_values():
    # A=true gives X=false (C1), B=true (C2), then C3 claims X=false again.
    # Once M1 goes, only C3's younger firing hides X=true: C2's firing is
    # unfounded, and with it C3's.
    net = gate_net(("C1", "not", "A", "X"), ("C2", "not", "X", "B"))
    net.add_variable("Y")
    scope = ("B", "X", "Y")
    rows = frozenset(
        t for t in product(BOOL, repeat=3) if not (t[0] == "true" and "true" in t[1:])
    )
    c3 = ExtensionalConstraint("C3", "C3", scope, rows)
    net.add_constraint(c3, generate(c3, {v: BOOL for v in scope}))
    assert_observation(net, Observation("M1", "A", "true"))
    assert visible(net) == {"A": ("true",), "X": ("false",), "B": ("true",), "Y": ("false",)}
    assert retract_observation(net, "M1").status == "fixpoint"
    assert visible(net) == {v: BOOL for v in "AXBY"}
    assert net.firings and net.active_firing == {}


def test_releasing_a_value_of_an_emptied_variable_spares_the_firings_testing_it():
    """N1 fires on A=true; a second pin hides A=true too and empties A.
    Retracting that pin releases A=true, so A is {true} again and N1's
    firing is still founded: no cancellation, nothing to fire again.
    Taking the rules that test the released value for unfounded ones
    would cancel the firing and fire the rule anew."""
    net = gate_net(("N1", "not", "A", "B"))
    assert_observation(net, Observation("M1", "A", "true"))
    ((rule, fid),) = net.active_firing.items()
    assert net.firings[fid].supports == (("A", "true", ("M1",)),)
    assert assert_observation(net, Observation("M2", "A", "false")).status == "conflict"
    assert net.first_empty() == "A"
    mark = len(net.events)
    out = retract_observation(net, "M2")
    assert out.status == "fixpoint" and out.fired == []
    assert [event for event in net.events[mark:] if event[0] == "cancel"] == []
    assert net.active_firing == {rule: fid}
    assert visible(net) == {"A": ("true",), "B": ("false",)}


def test_retract_clears_a_standing_conflict():
    net = gate_net(("N1", "not", "A", "B"))
    assert_observation(net, Observation("M1", "A", "true"))
    assert_observation(net, Observation("M2", "B", "true"))
    assert net.first_empty() == "B"
    out = retract_observation(net, "M1")
    assert out.status == "fixpoint"
    assert net.first_empty() is None
    assert net.domains["A"].visible() == ("false",)
    assert [net.firings[f].rule for f in out.fired] == [("N1", 4)]


def test_deep_cancellation_avoids_recursion_limits():
    net = inverter_chain(1500)
    assert_observation(net, Observation("M1", "V0", "true"))
    assert len(net.firings) == 1500
    record = cancel_firing(net, 1)
    assert len(record.cancelled) == 1500
    assert net.first_empty() is None


def run_op(net, step):
    op, args = step[0], step[1:]
    if op == "assert":
        oid, var, value = args
        assert_observation(net, Observation(oid, var, value))
    elif op == "retract":
        retract_observation(net, args[0])
    elif op == "relax":
        relax(net, args[0])
    elif op == "restore":
        restore(net, args[0])
    else:
        raise AssertionError(op)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6))
def test_event_log_replay_tracks_dynamic_sequences(seed):
    spec = random_network(seed)
    net = build_network(spec, assert_observations=False)
    for step in random_sequence(seed ^ 0xD1CE, spec):
        run_op(net, step)
    declared = {v: net.domains[v].declared for v in net.domains}
    replay_visible, replay_empty = replay_events(declared, net.events)
    assert replay_visible == visible(net)
    assert replay_empty == {v for v in net.domains if net.domains[v].visible_count() == 0}


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10**6))
def test_dynamic_sequences_match_a_scratch_rebuild(seed):
    spec = random_network(seed)
    net = build_network(spec, assert_observations=False)
    active_obs = {}
    relaxed = set()
    for step in random_sequence(seed ^ 0xFADE, spec):
        run_op(net, step)
        op, args = step[0], step[1:]
        if op == "assert":
            active_obs[args[0]] = (args[1], args[2])
        elif op == "retract":
            del active_obs[args[0]]
        elif op == "relax":
            relaxed.add(args[0])
        elif op == "restore":
            relaxed.discard(args[0])

    fresh = build_network(spec, assert_observations=False)
    for cid in sorted(relaxed):
        relax(fresh, cid)
    for oid in sorted(active_obs):
        var, value = active_obs[oid]
        assert_observation(fresh, Observation(oid, var, value))

    live_empty = net.first_empty() is None
    fresh_empty = fresh.first_empty() is None
    assert live_empty == fresh_empty
    if live_empty:
        assert visible(net) == visible(fresh)


EVENT_LOG_DIGEST = Path(__file__).parent / "fixtures" / "event_logs.sha256"


def event_log_digest():
    """SHA-256 of ``repr(net.events)`` after a 20-step random sequence on
    100 random gate networks, in rule order and shuffled, and on 20
    random table networks."""
    runs = [(random_network(seed), seed, shuffle) for seed in range(100) for shuffle in (None, 3)]
    runs += [(random_table_network(seed), seed, None) for seed in range(20)]
    digest = hashlib.sha256()
    for spec, seed, shuffle in runs:
        net = build_network(spec, seed=shuffle, assert_observations=False)
        for step in random_sequence(seed, spec, length=20):
            run_op(net, step)
        digest.update(repr(net.events).encode())
    return digest.hexdigest()


def test_event_logs_match_the_committed_digest():
    """Whole event logs, every mask, release, firing and cancellation in
    order, are pinned by one digest. The digest does not depend on the
    hash seed; it changes only in a change that says why in CHANGES.md,
    which rewrites the fixture with ``event_log_digest()``."""
    assert event_log_digest() == EVENT_LOG_DIGEST.read_text().strip()


def assert_active_firings_are_founded(net):
    """Every value an active firing's condition excludes is hidden by an
    observation or by an older firing (read from the masks alone)."""
    for (cid, index), fid in net.active_firing.items():
        for var, value in net.rules[cid][index - 1].conditions:
            dom = net.domains[var]
            for other in dom.declared:
                if other != value:
                    causes = dom.mask.get(other, ())
                    assert any(isinstance(c, str) or c < fid for c in causes), (fid, var, other)


def test_dynamic_sequences_keep_the_arc_consistency_fixpoint():
    """After every step the visible domains are the oracle's GAC fixpoint of
    the active gates and pins, or both report an empty domain, and every
    active firing is founded."""
    for seed in range(300):
        spec = random_network(seed, max_vars=10, max_gates=10)
        domains, constraints = oracle_structures(spec)
        net = build_network(spec, assert_observations=False)
        pins, relaxed = {}, set()
        for step in random_sequence(seed ^ 0xC1C1E, spec, length=30):
            run_op(net, step)
            assert_active_firings_are_founded(net)
            if step[0] == "assert":
                pins[step[1]] = step[2:]
            elif step[0] == "retract":
                del pins[step[1]]
            elif step[0] == "relax":
                relaxed.add(step[1])
            else:
                relaxed.discard(step[1])
            active = [body for cid, body in constraints.items() if cid not in relaxed]
            expected = gac_fixpoint(pinned_domains(domains, pins.values()), active)
            if all(expected.values()):
                assert {v: set(vals) for v, vals in visible(net).items()} == expected, (seed, step)
            else:
                assert net.first_empty() is not None, (seed, step)


def test_singleton_support_equals_arc_consistency_on_boolean_domains():
    """The oracle for mixed domains agrees with GAC wherever every domain
    is boolean, here on random gates under random pins: both empty a
    domain or neither does, and then they keep the same values."""
    for seed in range(200):
        spec = random_network(seed, max_vars=10, max_gates=10)
        domains, constraints = oracle_structures(spec)
        rng = random.Random(seed)
        pins = [(v, rng.choice(BOOL)) for v in rng.sample(sorted(domains), rng.randint(0, 3))]
        start = pinned_domains(domains, pins)
        bodies = list(constraints.values())
        single, gac = singleton_support_fixpoint(start, bodies), gac_fixpoint(start, bodies)
        assert all(single.values()) == all(gac.values()), seed
        if all(gac.values()):
            assert single == gac, seed


def assert_bits_mirror_masks(net):
    """Each domain's int has bit i set iff ``declared[i]`` is visible."""
    for dom in net.domains.values():
        shown = dom.visible()
        expected = sum(1 << i for i, value in enumerate(dom.declared) if value in shown)
        assert dom.visible_bits == expected, (dom.variable, shown, bin(dom.visible_bits))


def test_mixed_domains_keep_the_rule_fixpoint_through_pins_relaxes_and_rollbacks():
    """Tables over two- and three-valued domains in several declared orders,
    through random pins, retracts, relax/restore and snapshot/rollback.

    After every step each domain's int mirrors its masks, and while no
    domain is empty the visible domains are the singleton-support fixpoint
    of the active tables and pins, which GAC never undercuts. The rules
    test instantiated variables only, so on these domains GAC can remove
    more than they do and is checked as a lower bound."""
    for seed in range(60):
        spec = shared_shape_spec(seed)
        domains, constraints = oracle_structures(spec)
        net = build_network(spec)
        propagate(net)  # unconditional rules drop values no allowed row has
        rng = random.Random(seed ^ 0x3A1)
        pins, relaxed, marks = {}, set(), []
        for step in range(40):
            roll = rng.random()
            if roll < 0.35 or not pins and roll < 0.5:
                var = rng.choice(sorted(domains))
                oid, value = f"S{step}", rng.choice(domains[var])
                assert_observation(net, Observation(oid, var, value))
                pins[oid] = (var, value)
            elif roll < 0.5:
                oid = rng.choice(sorted(pins))
                retract_observation(net, oid)
                del pins[oid]
            elif roll < 0.8 and constraints:
                cid = rng.choice(sorted(constraints))
                (restore if cid in relaxed else relax)(net, cid)
                relaxed ^= {cid}
            elif roll < 0.9 or not marks:
                marks.append((net.snapshot(), dict(pins), set(relaxed)))
            else:
                mark, pins, relaxed = marks.pop()
                net.rollback(mark)
            assert_bits_mirror_masks(net)
            if net.first_empty() is not None:
                continue
            start = pinned_domains(domains, pins.values())
            active = [body for cid, body in constraints.items() if cid not in relaxed]
            got = {v: set(vals) for v, vals in visible(net).items()}
            assert got == singleton_support_fixpoint(start, active), (seed, step)
            gac = gac_fixpoint(start, active)
            assert all(gac[v] <= got[v] for v in got), (seed, step)


def assert_agenda_covers_applicable_rules(net):
    """Every rule that could fire right now is queued on the agenda."""
    for cid, constraint in net.constraints.items():
        if constraint.active:
            for rule in net.rules[cid]:
                if rule_applicable(net, (cid, rule.index)):
                    assert (cid, rule.index) in net.agenda.queued, rule.id


def test_agenda_holds_every_applicable_rule_through_dynamic_sequences():
    """Gate networks, and random tables of arity 3-5 over three values whose
    rules test up to four variables: a watch triggers on one literal and
    queues the rule only if its other conditions hold, so the rule must
    be queued again when its last condition comes to hold, whichever it
    is."""
    specs = [(seed, random_network(seed)) for seed in range(100)]
    specs += [(seed, random_table_network(seed)) for seed in range(40)]
    for short_circuit in (False, True):
        for seed, spec in specs:
            net = build_network(spec, short_circuit=short_circuit, assert_observations=False)
            for step in random_sequence(seed ^ 0xFADE, spec):
                run_op(net, step)
                assert_agenda_covers_applicable_rules(net)
                if not short_circuit and net.first_empty() is None:
                    assert not net.agenda, (seed, step)


def test_shared_templates_and_per_constraint_rule_sets_run_alike():
    """``build_network`` binds one template per shape; registering a fresh
    compile of each constraint must log the same events, reach the same
    domains and diagnose the same, shuffled (odd seeds) or not."""
    for seed in range(100):
        spec = random_network(seed)
        shuffle = seed if seed % 2 else None
        shared = build_network(spec, seed=shuffle, assert_observations=False)
        single = Network(rng=None if shuffle is None else random.Random(shuffle))
        for v in spec.variables:
            single.add_variable(v.name, v.domain)
        for g in spec.gates:
            scope = (*g.inputs, g.output)
            c = ExtensionalConstraint(g.id, g.kind, scope, gate_table(g.kind, len(g.inputs)))
            single.add_constraint(c, generate(c, {v: BOOL for v in scope}))
        assert single.rules == shared.rules, seed
        for step in random_sequence(seed ^ 0xD1FF, spec):
            run_op(shared, step)
            run_op(single, step)
            assert single.events == shared.events, (seed, step)
            assert single.visible_state() == shared.visible_state(), (seed, step)
        assert diagnose(single, 2) == diagnose(shared, 2), seed


class Unreadable:
    """Stands in for ``network.rules``: any read of it fails."""

    def _read(self, *args):
        raise AssertionError("network.rules was read")

    __getitem__ = __iter__ = __len__ = __contains__ = __bool__ = __eq__ = _read

    def __getattribute__(self, name):
        raise AssertionError(f"network.rules.{name} was read")


def test_the_engine_never_reads_bound_rules():
    """Propagation, cancellation, conflict extraction and diagnosis work on
    rule keys and packed templates alone: on a network whose bound rules
    cannot be read they log the same events, extract the same conflicts
    and find the same diagnoses as on an untouched twin."""
    specs = [(seed, random_network(seed)) for seed in range(60)]
    specs += [(seed, random_table_network(seed)) for seed in range(20)]
    conflicts = 0
    for seed, spec in specs:
        net, twin = (build_network(spec, assert_observations=False) for _ in range(2))
        net.rules = Unreadable()
        for step in random_sequence(seed ^ 0xB0B, spec, length=20):
            run_op(net, step)
            run_op(twin, step)
            assert net.events == twin.events, (seed, step)
            empty = net.first_empty()
            if empty is not None:
                conflicts += 1
                assert extract_conflict(net, empty) == extract_conflict(twin, empty), (seed, step)
        assert diagnose(net, 2) == diagnose(twin, 2), seed
        assert net.events == twin.events, seed
    assert conflicts > 0


def test_release_that_instantiates_an_emptied_domain_queues_its_rules():
    net = inverter_chain(1)
    assert_observation(net, Observation("M1", "V0", "true"))
    assert assert_observation(net, Observation("M2", "V0", "false")).status == "conflict"
    # V0 goes from empty to {false}: the rule conditioned on V0=false must fire
    out = retract_observation(net, "M1")
    assert out.status == "fixpoint"
    assert len(out.fired) == 1
    assert visible(net) == {"V0": ("false",), "V1": ("true",)}


def test_restore_during_a_standing_conflict_stays_pending():
    net = inverter_chain(1)
    net.add_variable("Z")
    relax(net, "N1")
    assert_observation(net, Observation("M1", "V0", "true"))
    assert_observation(net, Observation("M2", "Z", "true"))
    assert_observation(net, Observation("M3", "Z", "false"))
    out = restore(net, "N1")
    assert out.status == "conflict" and out.fired == []
    assert net.domains["V1"].visible() == ("false", "true")
    out = retract_observation(net, "M3")
    assert out.status == "fixpoint"
    assert net.domains["V1"].visible() == ("false",)


def test_propagate_after_diagnose_finds_rules_its_probes_consumed():
    net = gate_net(("N1", "not", "X", "Y"), ("N2", "not", "A", "B"))
    assert_observation(net, Observation("M1", "X", "true"))
    assert assert_observation(net, Observation("M2", "Y", "true")).status == "conflict"
    # frozen by the conflict: the N2 rule this pin enables stays queued
    assert_observation(net, Observation("M3", "A", "true"))
    # the relax N1 probe fires that rule; the rollback discards the firing
    assert [d.constraints for d in diagnose(net, 1)] == [frozenset({"N1"})]
    assert net.domains["B"].visible() == ("false", "true")
    out = retract_observation(net, "M2")
    assert out.status == "fixpoint"
    assert visible(net) == {"X": ("true",), "Y": ("false",), "A": ("true",), "B": ("false",)}


def test_diagnose_leaves_the_agenda_as_it_found_it():
    net = gate_net(("N1", "not", "X", "Y"), ("N2", "not", "A", "B"), ("N3", "not", "B", "C"))
    assert_observation(net, Observation("M1", "X", "true"))
    assert assert_observation(net, Observation("M2", "Y", "true")).status == "conflict"
    assert_observation(net, Observation("M3", "A", "true"))
    heap, queued = list(net.agenda.heap), set(net.agenda.queued)
    assert queued  # the conflict froze the rules M3 enables
    assert [d.constraints for d in diagnose(net, 1)] == [frozenset({"N1"})]
    assert (net.agenda.heap, net.agenda.queued) == (heap, queued)
    assert_agenda_covers_applicable_rules(net)
