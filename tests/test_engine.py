import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncsp import (
    ExtensionalConstraint,
    Network,
    Observation,
    assert_observation,
    build_network,
    extract_conflict,
    gate_table,
    generate,
    propagate,
)
from dyncsp.core import mask_value
from dyncsp.dynamics import set_active
from dyncsp.engine import fire_rule, rule_applicable

from generators import oracle_structures, random_network, random_observations
from oracles import BOOL, gac_fixpoint, pinned_domains, replay_events
from test_diagnosis import network_state


def gate_net(*decls):
    """decls: (cid, kind, inputs..., output). Variables are created on demand."""
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


def circuit0_net():
    return gate_net(
        ("O1", "or", "E1", "E2", "X"),
        ("O2", "or", "E2", "E3", "Y"),
        ("A1", "and", "X", "Y", "Z"),
        ("O3", "or", "Z", "E4", "S1"),
    )


def assert_all(net, pairs):
    out = None
    for i, (var, value) in enumerate(pairs, start=1):
        out = assert_observation(net, Observation(f"M{i}", var, value))
    return out


def test_fire_rule_records_supports_and_effects():
    net = circuit0_net()
    assert_observation(net, Observation("M1", "S1", "false"))
    firing = net.firings[1]
    assert firing.rule == ("O3", 3)
    assert firing.effects == (("Z", "true"), ("E4", "true"))
    assert firing.supports == (("S1", "false", ("M1",)),)
    assert net.active_firing["O3", 3] == 1
    assert net.events[-1] == ("fire", 1, ("O3", 3), firing.supports, firing.effects)
    assert net.events[-1] is firing


def test_fire_rule_rejects_unmet_conditions_and_double_firing():
    net = circuit0_net()
    rule = ("O3", 3)
    with pytest.raises(ValueError, match="condition S1=false of 'O3.R3' does not hold"):
        fire_rule(net, rule)
    assert_observation(net, Observation("M1", "S1", "false"))
    with pytest.raises(ValueError, match="'O3.R3' already has an active firing"):
        fire_rule(net, rule)


def test_rules_the_network_did_not_register_are_rejected():
    """A rule is its (constraint, index) key, and a key that names no rule
    of the network must not reach a packed form: index 0 would silently
    read the constraint's last rule."""
    net = circuit0_net()
    mask_value(net, "S1", "true", "M1")  # pins S1 to false, not yet propagated
    assert rule_applicable(net, ("O3", 3))
    last = len(net.rules["O3"])
    events = len(net.events)
    for cid, index in (("O9", 1), ("O3", 0), ("O3", last + 1)):
        for call in (fire_rule, rule_applicable):
            with pytest.raises(ValueError, match=f"unknown rule '{cid}.R{index}'"):
                call(net, (cid, index))
    assert len(net.events) == events and net.active_firing == {}
    assert fire_rule(net, ("O3", 3)) is not None


def test_fire_rule_without_shrink_leaves_no_trace():
    net = gate_net(("N1", "not", "X", "C"), ("N2", "not", "Y", "C"))
    assert_observation(net, Observation("M1", "X", "true"))
    assert_observation(net, Observation("M2", "Y", "true"))
    # N1 already emptied C of "true"; the parallel N2 rule has nothing left
    rule = ("N2", 2)
    ((var, value),) = net.rules["N2"][1].conditions
    assert net.domains[var].visible() == (value,)
    assert not rule_applicable(net, rule)
    events = len(net.events)
    record = fire_rule(net, rule)
    assert not record
    assert len(net.events) == events
    assert rule not in net.active_firing


def test_propagation_is_deterministic_and_ordered():
    net = circuit0_net()
    outs = []
    for oid, var, value in (
        ("M1", "E1", "false"),
        ("M2", "E2", "false"),
        ("M3", "E3", "false"),
        ("M4", "S1", "false"),
    ):
        outs.append(assert_observation(net, Observation(oid, var, value)))
    fired_rules = [[net.firings[f].rule for f in out.fired] for out in outs]
    assert fired_rules == [[], [("O1", 4), ("A1", 1)], [("O2", 4)], [("O3", 3)]]
    assert all(out.status == "fixpoint" for out in outs)


def test_rules_of_a_new_constraint_are_queued():
    # an unconditional rule fires on the first pass, a pinned condition on a later one
    net = Network()
    for var in ("A", "B", "C"):
        net.add_variable(var)
    forced = ExtensionalConstraint("F", "table", ("A", "B"), frozenset({("false", "true"), ("true", "true")}))
    net.add_constraint(forced, generate(forced, {"A": BOOL, "B": BOOL}))
    assert propagate(net).status == "fixpoint"
    assert net.domains["B"].visible() == ("true",)
    inverter = ExtensionalConstraint("N", "not", ("B", "C"), gate_table("not", 1))
    net.add_constraint(inverter, generate(inverter, {"B": BOOL, "C": BOOL}))
    assert propagate(net).status == "fixpoint"
    assert net.domains["C"].visible() == ("false",)


def test_conflict_at_pin_names_both_observations_and_culprit():
    net = circuit0_net()
    out = assert_all(
        net,
        [("E1", "false"), ("E2", "false"), ("E3", "false"), ("S1", "false"), ("E4", "true")],
    )
    assert out.status == "conflict"
    assert out.fired == []
    variable, conflict = out.conflict
    assert variable == "E4"
    assert conflict.constraints == frozenset({"O3"})
    assert conflict.observations == frozenset({"M4", "M5"})


def test_propagate_is_frozen_while_a_domain_is_empty():
    net = circuit0_net()
    assert_all(
        net,
        [("E1", "false"), ("E2", "false"), ("E3", "false"), ("S1", "false"), ("E4", "true")],
    )
    before = len(net.firings)
    out = propagate(net)
    assert out.status == "conflict"
    assert out.fired == []
    assert out.conflict[0] == "E4"
    assert len(net.firings) == before


def test_asserting_while_frozen_still_pins_and_reports_standing_conflict():
    net = circuit0_net()
    assert_all(
        net,
        [("E1", "false"), ("E2", "false"), ("E3", "false"), ("S1", "false"), ("E4", "true")],
    )
    out = assert_observation(net, Observation("M9", "E1", "true"))
    assert out.status == "conflict"
    assert out.conflict[0] == "E4"
    assert "M9" in net.observations
    assert "false" not in net.domains["E1"].visible()


def test_duplicate_observation_id_raises():
    net = circuit0_net()
    assert_observation(net, Observation("M1", "E1", "false"))
    with pytest.raises(ValueError):
        assert_observation(net, Observation("M1", "E2", "false"))


def test_an_observation_id_must_be_a_string():
    """Conflicts tell observation causes from firing ids by their type, so an
    int observation id used to be taken for a firing and fail inside
    propagation with its pin applied."""
    net = gate_net(("A1", "and", "A", "B", "C"))
    state = network_state(net)
    with pytest.raises(ValueError, match="observation id 1 is not a string"):
        assert_observation(net, Observation(1, "A", "true"))
    assert network_state(net) == state and net.observations == {}
    assert assert_all(net, [("A", "true"), ("C", "true")]).status == "fixpoint"
    assert net.domains["B"].visible() == ("true",)


def test_rules_of_a_relaxed_constraint_are_not_applicable():
    net = gate_net(("N1", "not", "A", "B"))
    mask_value(net, "A", "false", "M1")
    applicable = [i for i in (1, 2, 3, 4) if rule_applicable(net, ("N1", i))]
    assert applicable
    set_active(net, "N1", False)
    assert not any(rule_applicable(net, ("N1", i)) for i in applicable)


def test_rejected_observation_leaves_no_trace():
    net = circuit0_net()
    observations, events = dict(net.observations), list(net.events)
    for bad, match in ((("A", "true"), "unknown variable"), (("E1", "maybe"), "outside")):
        with pytest.raises(ValueError, match=match):
            assert_observation(net, Observation("M1", *bad))
        assert net.observations == observations
        assert net.events == events
    out = assert_observation(net, Observation("M1", "E1", "false"))
    assert out.status == "fixpoint"
    assert net.observations["M1"].value == "false"


def test_contradicting_observations_conflict_without_rules():
    net = gate_net(("N1", "not", "A", "B"))
    assert_observation(net, Observation("M1", "A", "true"))
    out = assert_observation(net, Observation("M2", "A", "false"))
    assert out.status == "conflict"
    variable, conflict = out.conflict
    assert variable == "A"
    assert conflict.observations == frozenset({"M1", "M2"})
    assert conflict.constraints == frozenset()


def test_extract_conflict_requires_an_empty_domain():
    net = circuit0_net()
    with pytest.raises(ValueError):
        extract_conflict(net, "E1")


def test_extract_conflict_skips_unrelated_justifications():
    net = circuit0_net()
    assert_all(
        net,
        [("E1", "false"), ("E2", "false"), ("E3", "false"), ("S1", "false"), ("E4", "true")],
    )
    conflict = extract_conflict(net, "E4")
    # A1 and O1/O2 masked values on Z/X/Y but none of those hold up the
    # justifications of the empty variable
    assert conflict.constraints == frozenset({"O3"})


def test_fixpoint_matches_gac_oracle_on_consistent_circuit():
    net = circuit0_net()
    assert_all(net, [("E1", "true"), ("E3", "false"), ("S1", "true")])
    domains = {v: BOOL for v in net.domains}
    constraints = [
        (net.constraints[cid].scope, set(net.constraints[cid].allowed))
        for cid in net.constraints
    ]
    expected = gac_fixpoint(
        pinned_domains(domains, [("E1", "true"), ("E3", "false"), ("S1", "true")]),
        constraints,
    )
    assert {v: set(net.domains[v].visible()) for v in net.domains} == expected


def test_shuffled_propagation_reaches_the_same_fixpoint():
    import random

    baseline = None
    for seed in range(6):
        net = circuit0_net()
        net.rng = random.Random(seed)
        assert_all(net, [("E1", "true"), ("E3", "false"), ("S1", "true")])
        state = {v: net.domains[v].visible() for v in net.domains}
        if baseline is None:
            baseline = state
        assert state == baseline


SHORT_CIRCUIT_TABLE = {
    ("false", "true", "false", "true"),
    ("false", "false", "true", "true"),
    ("true", "true", "true", "false"),
    ("true", "false", "false", "false"),
}


def staged_table_net(short_circuit):
    # one pass instantiates P then Q; CB needs a second firing to prune R
    net = Network(short_circuit=short_circuit)
    for var in ("X", "W", "P", "Q", "R", "S"):
        net.add_variable(var)
    decls = {v: BOOL for v in net.domains}
    n1 = ExtensionalConstraint("A1", "not", ("X", "P"), gate_table("not", 1))
    net.add_constraint(n1, generate(n1, decls))
    cb = ExtensionalConstraint("CB", "table", ("P", "Q", "R", "S"), frozenset(SHORT_CIRCUIT_TABLE))
    net.add_constraint(cb, generate(cb, decls))
    o9 = ExtensionalConstraint("O9", "or", ("X", "W", "Q"), gate_table("or", 2))
    net.add_constraint(o9, generate(o9, decls))
    return net


def test_short_circuit_limits_one_firing_per_constraint_per_pass():
    full = staged_table_net(short_circuit=False)
    assert_observation(full, Observation("M1", "X", "true"))
    assert full.domains["R"].visible() == ("false",)

    limited = staged_table_net(short_circuit=True)
    out = assert_observation(limited, Observation("M1", "X", "true"))
    assert out.status == "fixpoint"
    assert limited.domains["S"].visible() == ("true",)
    # the second CB firing was suppressed in this pass
    assert limited.domains["R"].visible() == ("false", "true")
    # the limit is per pass: a fresh pass completes the pruning
    propagate(limited)
    assert limited.domains["R"].visible() == ("false",)


def test_short_circuit_keeps_held_back_rules_queued_for_the_next_pass():
    net = staged_table_net(short_circuit=True)
    assert_observation(net, Observation("M1", "X", "true"))
    assert any(cid == "CB" for cid, _ in net.agenda.queued)
    out = propagate(net)
    assert [net.firings[fid].rule[0] for fid in out.fired] == ["CB"]
    assert net.domains["R"].visible() == ("false",)
    # CB fired again, so its other rules are held back once more
    assert propagate(net).fired == []
    assert not net.agenda


def test_short_circuit_preserves_gate_fixpoints():
    for seed in range(10):
        spec = random_network(seed)
        obs = random_observations(seed + 1000, spec)
        states = []
        for flag in (False, True):
            net = build_network(spec, short_circuit=flag, assert_observations=False)
            conflicted = False
            for o in obs:
                out = assert_observation(net, Observation(o.id, o.variable, o.value))
                if out.status == "conflict":
                    conflicted = True
                    break
            states.append((conflicted, None if conflicted else {v: net.domains[v].visible() for v in net.domains}))
        assert states[0] == states[1]


def test_event_log_replays_to_the_live_state():
    net = circuit0_net()
    assert_all(
        net,
        [("E1", "false"), ("E2", "false"), ("E3", "false"), ("S1", "false"), ("E4", "true")],
    )
    declared = {v: net.domains[v].declared for v in net.domains}
    visible, empties = replay_events(declared, net.events)
    assert visible == {v: net.domains[v].visible() for v in net.domains}
    assert empties == {"E4"}


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**6))
def test_random_networks_match_gac_oracle(seed):
    spec = random_network(seed)
    obs = random_observations(seed ^ 0x5EED, spec)
    net = build_network(spec, assert_observations=False)
    conflicted = False
    for o in obs:
        out = assert_observation(net, Observation(o.id, o.variable, o.value))
        if out.status == "conflict":
            conflicted = True
            break
    domains, constraints = oracle_structures(spec)
    oracle = gac_fixpoint(
        pinned_domains(domains, [(o.variable, o.value) for o in obs]),
        list(constraints.values()),
    )
    if conflicted:
        assert any(not values for values in oracle.values())
    else:
        assert all(oracle.values())
        assert {v: set(net.domains[v].visible()) for v in net.domains} == oracle
