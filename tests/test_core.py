import random
from copy import deepcopy
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncsp import (
    BOOL_DOMAIN,
    ExtensionalConstraint,
    Network,
    Observation,
    assert_observation,
    gate_table,
    generate,
    propagate,
)
from dyncsp.core import (
    ConditionLiteral,
    PropagationRule,
    RuleSet,
    RuleTemplate,
    exclude,
    is_instantiated,
    mask_value,
    release,
)


def bool_net(*names):
    net = Network()
    for name in names:
        net.add_variable(name)
    return net


def test_declared_domain_is_immutable_under_masking():
    net = bool_net("A")
    mask_value(net, "A", "true", "M1")
    assert net.domains["A"].declared == BOOL_DOMAIN
    assert net.domains["A"].visible() == ("false",)


def test_add_variable_rejects_duplicates_and_bad_domains():
    net = bool_net("A")
    with pytest.raises(ValueError):
        net.add_variable("A")
    with pytest.raises(ValueError):
        net.add_variable("B", ())
    with pytest.raises(ValueError):
        net.add_variable("B", ("x", "x"))


def test_add_constraint_validates_scope_and_tuples():
    net = bool_net("A", "B")
    good = ExtensionalConstraint("C1", "c", ("A", "B"), frozenset({("true", "true")}))
    net.add_constraint(good, RuleSet("C1", ()))
    with pytest.raises(ValueError):
        net.add_constraint(good, RuleSet("C1", ()))
    bad_scope = ExtensionalConstraint("C2", "c", ("A", "A"), frozenset({("true", "true")}))
    with pytest.raises(ValueError):
        net.add_constraint(bad_scope, RuleSet("C2", ()))
    bad_var = ExtensionalConstraint("C3", "c", ("A", "Z"), frozenset({("true", "true")}))
    with pytest.raises(ValueError):
        net.add_constraint(bad_var, RuleSet("C3", ()))
    bad_value = ExtensionalConstraint("C4", "c", ("A", "B"), frozenset({("true", "maybe")}))
    with pytest.raises(ValueError):
        net.add_constraint(bad_value, RuleSet("C4", ()))
    empty = ExtensionalConstraint("C5", "c", ("A", "B"), frozenset())
    with pytest.raises(ValueError):
        net.add_constraint(empty, RuleSet("C5", ()))
    short = ExtensionalConstraint("C6", "c", ("A", "B"), frozenset({("true",)}))
    with pytest.raises(ValueError, match="tuple of wrong arity"):
        net.add_constraint(short, RuleSet("C6", ()))
    other = ExtensionalConstraint("C7", "c", ("A", "B"), frozenset({("true", "true")}))
    with pytest.raises(ValueError, match="rule set for 'C1' attached to 'C7'"):
        net.add_constraint(other, RuleSet("C1", ()))
    assert set(net.constraints) == {"C1"}


def indexes(net):
    """Every index a registration writes: constraint and rule tables, each
    variable's watch list of (constraint, position) entries, the templates
    with their tables, and the agenda."""
    return (
        dict(net.constraints),
        dict(net.rules),
        {var: list(dom.occurrences) for var, dom in net.domains.items()},
        {
            cid: (t, deepcopy((t.rules, t.conditioned, t.excluding, t.unconditional)))
            for cid, t in net.templates.items()
        },
        list(net.agenda.heap),
        set(net.agenda.queued),
    )


def test_rejected_rule_set_leaves_no_trace():
    net = bool_net("A", "B", "C")
    n1 = ExtensionalConstraint("N1", "not", ("A", "B"), gate_table("not", 1))
    n2 = ExtensionalConstraint("N2", "not", ("B", "C"), gate_table("not", 1))
    net.add_constraint(n1, generate(n1, {"A": BOOL_DOMAIN, "B": BOOL_DOMAIN}))
    rules = generate(n2, {"B": BOOL_DOMAIN, "C": BOOL_DOMAIN}).rules

    before = indexes(net)
    # filed under N1, N2's rules would stop propagating once N1 is relaxed
    misfiled = tuple(replace(rule, owner="N1") for rule in rules)
    # a repeated or foreign rule sits at an index its own does not match
    for bad, message in (
        (rules + (net.rules["N1"][0],), "'N1.R1' has index 1, not 5"),
        (rules + (rules[0],), "'N2.R1' has index 1, not 5"),
        (misfiled, "of 'N1' attached to 'N2'"),
    ):
        with pytest.raises(ValueError, match=message):
            net.add_constraint(n2, RuleSet("N2", bad))
        assert set(net.constraints) == set(net.rules) == {"N1"}
        assert indexes(net) == before
    net.add_constraint(n2, RuleSet("N2", rules))
    assert net.rules["N2"] == rules


def test_rule_indices_must_follow_their_positions():
    net = bool_net("A", "B")
    n1 = ExtensionalConstraint("N1", "not", ("A", "B"), gate_table("not", 1))
    rules = generate(n1, {"A": BOOL_DOMAIN, "B": BOOL_DOMAIN}).rules
    shifted = tuple(replace(rule, index=rule.index + 1) for rule in rules)
    with pytest.raises(ValueError, match="has index 2, not 1"):
        net.add_constraint(n1, RuleSet("N1", shifted))
    assert net.constraints == net.rules == {}
    assert net.templates == {}
    assert net.domains["A"].occurrences == net.domains["B"].occurrences == []
    assert len(net.agenda) == 0
    net.add_constraint(n1, RuleSet("N1", rules))
    assert net.rules["N1"] == rules
    assert net.rules["N1"][0] is rules[0]


def test_rules_naming_values_outside_the_declared_domain_are_rejected():
    """Such a rule used to be accepted and then fail partway through its
    firing, leaving a mask whose cause was never recorded as a firing."""
    net = bool_net("A", "B", "C")
    scope = ("A", "B", "C")
    c = ExtensionalConstraint("C", "c", scope, frozenset(product(BOOL_DOMAIN, repeat=3)))
    lit = ConditionLiteral
    for conditions, conclusions, value, var in (
        ((lit("A", "true"),), (("B", ("true",)), ("C", ("maybe",))), "maybe", "C"),
        ((lit("A", "yes"),), (("B", ("true",)),), "yes", "A"),
    ):
        bad = (PropagationRule("C.R1", "C", 1, conditions, conclusions),)
        before = indexes(net)
        message = f"names value '{value}' outside the domain of '{var}'"
        with pytest.raises(ValueError, match=message):
            net.add_constraint(c, RuleSet("C", bad))
        with pytest.raises(ValueError, match=message):
            RuleTemplate(c, (BOOL_DOMAIN,) * 3, bad)
        assert indexes(net) == before
    stray = (PropagationRule("C.R1", "C", 1, (), (("Z", ("true",)),)),)
    net.add_variable("Z")
    with pytest.raises(ValueError, match="outside the scope of 'C'"):
        net.add_constraint(c, RuleSet("C", stray))
    assert net.constraints == {}
    # the assert that used to raise partway now runs on an empty network
    assert assert_observation(net, Observation("M1", "A", "true")).status == "fixpoint"
    assert net.firings == {} and net.next_firing_id == 1


def test_a_template_binds_only_constraints_of_its_shape():
    net = Network()
    for name, domain in (("A", BOOL_DOMAIN), ("B", BOOL_DOMAIN), ("C", BOOL_DOMAIN), ("T", ("a", "b"))):
        net.add_variable(name, domain)
    table = gate_table("not", 1)
    n0 = ExtensionalConstraint("N0", "not", ("X", "Y"), table)
    template = RuleTemplate(n0, (BOOL_DOMAIN, BOOL_DOMAIN), generate(n0, dict.fromkeys("XY", BOOL_DOMAIN)).rules)
    n1 = ExtensionalConstraint("N1", "not", ("A", "B"), table)
    net.add_constraint(n1, template)
    assert net.rules["N1"] == generate(n1, dict.fromkeys("AB", BOOL_DOMAIN)).rules
    assert net.templates["N1"] is template
    assert indexes(net)[2] == {"A": [("N1", 0)], "B": [("N1", 1)], "C": [], "T": []}
    before = indexes(net)
    for bad, message in (
        (ExtensionalConstraint("N1", "not", ("B", "C"), table), "already declared"),
        (ExtensionalConstraint("N2", "not", ("B", "B"), table), "repeats a scope variable"),
        (ExtensionalConstraint("N2", "not", ("B", "Q"), table), "undeclared variable 'Q'"),
        (ExtensionalConstraint("N2", "not", ("B", "T"), table), "does not have the shape"),
        (ExtensionalConstraint("N2", "buf", ("B", "C"), gate_table("and", 2)), "does not have the shape"),
    ):
        with pytest.raises(ValueError, match=message):
            net.add_constraint(bad, template)
        assert indexes(net) == before
    # an equal table that is another object binds too
    n2 = ExtensionalConstraint("N2", "not", ("B", "C"), frozenset(table))
    net.add_constraint(n2, template)
    assert net.rules["N2"] == generate(n2, dict.fromkeys("BC", BOOL_DOMAIN)).rules
    assert net.domains["B"].occurrences == [("N1", 1), ("N2", 0)]
    # a rule set names rule i of K "K.R<i>", so no bound id can collide
    k = ExtensionalConstraint("K", "not", ("A", "C"), table)
    named = tuple(
        replace(rule, id=f"N3.R{rule.index}")
        for rule in generate(k, dict.fromkeys("AC", BOOL_DOMAIN)).rules
    )
    before = indexes(net)
    with pytest.raises(ValueError, match="rule 'N3.R1' is not named 'K.R1'"):
        net.add_constraint(k, RuleSet("K", named))
    assert indexes(net) == before


def test_a_new_constraint_queues_only_rules_whose_conditions_hold():
    net = bool_net("A", "B", "C")
    n1 = ExtensionalConstraint("N1", "not", ("A", "B"), gate_table("not", 1))
    net.add_constraint(n1, generate(n1, dict.fromkeys("AB", BOOL_DOMAIN)))
    assert len(net.agenda) == 0  # a not gate has no unconditional rule
    assert_observation(net, Observation("M1", "B", "true"))
    n2 = ExtensionalConstraint("N2", "not", ("B", "C"), gate_table("not", 1))
    rules = generate(n2, dict.fromkeys("BC", BOOL_DOMAIN)).rules
    net.add_constraint(n2, RuleSet("N2", rules))
    (held,) = [rule for rule in rules if rule.conditions == (("B", "true"),)]
    assert net.agenda.queued == {("N2", held.index)}
    forced = ExtensionalConstraint("F", "c", ("C",), frozenset({("false",)}))
    net.add_constraint(forced, generate(forced, {"C": BOOL_DOMAIN}))
    assert net.agenda.queued == {("N2", held.index), ("F", 1)}


def test_a_cause_masks_a_value_at_most_once():
    """The causes hiding a value form a set: repeating a (variable, value,
    cause) that already hides it raises before anything is logged, so
    each release undoes exactly one mask."""
    net = bool_net("A")
    dom = net.domain("A")
    assert mask_value(net, "A", "true", "M1") is True
    assert mask_value(net, "A", "true", "M2") is False
    events, bits = list(net.events), dom.visible_bits
    with pytest.raises(ValueError, match="'M1' already hides A=true"):
        mask_value(net, "A", "true", "M1")
    assert net.events == events and dom.visible_bits == bits
    assert dom.mask == {"true": {"M1", "M2"}}
    release(net, "A", "true", "M1")
    assert dom.visible() == ("false",)
    release(net, "A", "true", "M2")
    assert dom.visible() == ("false", "true")
    # a released cause may hide the value again
    assert mask_value(net, "A", "true", "M1") is True
    assert dom.mask == {"true": {"M1"}}


def test_release_returns_the_firings_it_leaves_unfounded_sorted():
    """V0 feeds N2 (registered first) and N1, and N1's output feeds N3.
    N1 fires first, so V0's watch list meets firing 2 before firing 1.
    Releasing the pin's mask on V0=false returns both, sorted, and leaves
    N3's firing, which rests on V1, to the caller's cascade; releasing a
    value that an observation still hides returns nothing."""
    net = bool_net("V0", "V1", "V2", "V3")
    for cid, scope in (("N2", ("V0", "V2")), ("N1", ("V0", "V1")), ("N3", ("V1", "V3"))):
        c = ExtensionalConstraint(cid, "not", scope, gate_table("not", 1))
        net.add_constraint(c, generate(c, dict.fromkeys(scope, BOOL_DOMAIN)))
    assert_observation(net, Observation("M1", "V0", "true"))
    assert [net.firings[fid].rule[0] for fid in (1, 2, 3)] == ["N1", "N2", "N3"]
    mask_value(net, "V0", "false", "M2")
    assert release(net, "V0", "false", "M1") == []
    assert release(net, "V0", "false", "M2") == [1, 2]
    assert net.domain("V0").visible() == BOOL_DOMAIN
    assert sorted(net.active_firing.values()) == [1, 2, 3]


def test_release_without_matching_justification_raises():
    net = bool_net("A")
    with pytest.raises(ValueError):
        release(net, "A", "true", "M1")
    mask_value(net, "A", "true", "M1")
    with pytest.raises(ValueError):
        release(net, "A", "true", "M2")


def test_empty_order_tracks_first_emptied_variable():
    net = bool_net("A", "B")
    mask_value(net, "A", "true", 1)
    mask_value(net, "A", "false", 2)
    mask_value(net, "B", "true", 3)
    mask_value(net, "B", "false", 4)
    assert net.empty_order == ["A", "B"]
    assert net.first_empty() == "A"
    release(net, "A", "false", 2)
    assert net.empty_order == ["B"]
    assert ("conflict", "A") in net.events


def test_exclude_masks_only_visible_values():
    net = bool_net("A")
    mask_value(net, "A", "true", "M1")
    hidden, claimed = exclude(net, net.domains["A"], 0b01, 7)
    assert hidden == [("A", "false")]
    assert claimed == []
    assert net.empty_order == ["A"]
    # the earlier mask is untouched; only the new one carries cause 7
    assert net.domains["A"].mask["true"] == {"M1"}
    assert net.domains["A"].mask["false"] == {7}


def test_exclude_can_claim_already_masked_values():
    net = bool_net("A")
    mask_value(net, "A", "true", "M1")
    hidden, claimed = exclude(net, net.domains["A"], 0b11, 7)
    assert hidden == [("A", "false")]
    assert claimed == [("A", "true")]
    assert net.domains["A"].mask["true"] == {"M1", 7}
    # the claim holds the exclusion once the original cause is gone
    release(net, "A", "true", "M1")
    assert not net.domains["A"].is_visible("true")


def test_mask_value_rejects_foreign_values():
    """``exclude`` names values by their bits, so it cannot name a foreign
    one; the pin checks its value before it excludes the others."""
    net = bool_net("A")
    with pytest.raises(ValueError, match="'maybe' is outside the domain of 'A'"):
        mask_value(net, "A", "maybe", 1)
    with pytest.raises(ValueError, match="'maybe' is outside the domain of 'A'"):
        assert_observation(net, Observation("M1", "A", "maybe"))
    assert net.observations == {}
    assert net.domains["A"].mask == {} and net.domain("A").visible() == BOOL_DOMAIN
    assert net.events == [] and net.empty_order == []


def test_observation_pin_masks_even_masked_values():
    net = bool_net("A")
    mask_value(net, "A", "false", 9)
    hidden, claimed = exclude(net, net.domains["A"], ~net.domains["A"].bit("true"), "M1")
    assert hidden == []
    assert claimed == [("A", "false")]
    assert net.domains["A"].mask["false"] == {9, "M1"}
    release(net, "A", "false", 9)
    # the pin keeps holding the value hidden
    assert net.domain("A").visible() == ("true",)
    release(net, "A", "false", "M1")
    assert net.domain("A").visible() == ("false", "true")


def test_is_instantiated():
    net = bool_net("A")
    assert not is_instantiated(net, "A", "true")
    mask_value(net, "A", "false", 1)
    assert is_instantiated(net, "A", "true")
    assert not is_instantiated(net, "A", "false")
    with pytest.raises(ValueError):
        is_instantiated(net, "Z", "true")


def test_values_outside_the_declared_domain_are_never_visible_or_instantiated():
    """A pinned variable is instantiated to its one visible value only; a
    value it never declared is neither visible nor its instantiation."""
    net = bool_net("A")
    dom = net.domains["A"]
    assert not dom.is_visible("bogus") and not is_instantiated(net, "A", "bogus")
    mask_value(net, "A", "false", "M1")
    assert is_instantiated(net, "A", "true")
    assert not dom.is_visible("bogus") and not is_instantiated(net, "A", "bogus")
    mask_value(net, "A", "true", "M2")
    assert not dom.is_visible("bogus") and not is_instantiated(net, "A", "bogus")
    with pytest.raises(ValueError, match="unknown variable"):
        is_instantiated(net, "Z", "bogus")


def test_snapshot_rollback_restores_everything():
    net = bool_net("A", "B")
    mask_value(net, "A", "true", "M1")
    snap = net.snapshot()
    mask_value(net, "A", "false", "M2")
    mask_value(net, "B", "true", 5)
    net.constraints = {}
    events_before = len(net.events)
    net.rollback(snap)
    assert net.domain("A").visible() == ("false",)
    assert net.domain("B").visible() == ("false", "true")
    assert net.empty_order == []
    assert len(net.events) < events_before
    assert net.domains["A"].mask["true"] == {"M1"}


def test_rollback_unregisters_the_constraints_added_since_the_mark():
    """No event records a registration, so the mark counts constraints. A
    constraint kept past the rollback of its queued rule would stay
    unpropagated: C = {false, true} at a fixpoint, although B = {false}."""
    net = bool_net("A", "B", "C")
    n1 = ExtensionalConstraint("N1", "not", ("A", "B"), gate_table("not", 1))
    n2 = ExtensionalConstraint("N2", "not", ("B", "C"), gate_table("not", 1))
    net.add_constraint(n1, generate(n1, dict.fromkeys("AB", BOOL_DOMAIN)))
    assert_observation(net, Observation("M1", "A", "true"))
    snap, before = net.snapshot(), indexes(net)
    n2_rules = generate(n2, dict.fromkeys("BC", BOOL_DOMAIN))
    net.add_constraint(n2, n2_rules)
    net.rollback(snap)
    assert indexes(net) == before
    net.add_constraint(n2, n2_rules)
    assert propagate(net).status == "fixpoint"
    assert net.domain("C").visible() == ("true",)


def test_rollback_forgets_the_variables_declared_since_the_mark():
    """No event records a declaration either, so the mark counts variables.
    The constraints on a new variable go first, and its domain takes its
    watch list with it; the old variables' watch lists lose their entries."""
    net = bool_net("A")
    snap = net.snapshot()
    net.add_variable("B")
    n1 = ExtensionalConstraint("N1", "not", ("A", "B"), gate_table("not", 1))
    net.add_constraint(n1, generate(n1, dict.fromkeys("AB", BOOL_DOMAIN)))
    assert_observation(net, Observation("M1", "B", "true"))
    net.rollback(snap)
    assert list(net.domains) == ["A"]
    assert net.constraints == net.templates == net.scope_domains == net.rules == {}
    assert net.events == [] and net.observations == {} and net.firings == {}
    net.add_variable("B", ("x", "y"))
    assert indexes(net)[2] == {"A": [], "B": []}
    assert net.domain("A").visible() == BOOL_DOMAIN


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6))
def test_mask_release_conservation(seed):
    rng = random.Random(seed)
    net = bool_net("A", "B", "C")
    live = []
    for _ in range(40):
        if live and rng.random() < 0.4:
            var, value, cause = live.pop(rng.randrange(len(live)))
            release(net, var, value, cause)
        else:
            var = rng.choice(("A", "B", "C"))
            value = rng.choice(BOOL_DOMAIN)
            cause = rng.randrange(5)
            if (var, value, cause) not in live:
                mask_value(net, var, value, cause)
                live.append((var, value, cause))
                continue
            # a cause hides a value at most once; the repeat changes nothing
            dom = net.domains[var]
            state = (list(net.events), list(net.empty_order), dom.visible_bits)
            masks = {v: set(causes) for v, causes in dom.mask.items()}
            with pytest.raises(ValueError, match="already hides"):
                mask_value(net, var, value, cause)
            assert (list(net.events), list(net.empty_order), dom.visible_bits) == state
            assert dom.mask == masks
    masked = {(d.variable, v, c) for d in net.domains.values() for v, cs in d.mask.items() for c in cs}
    assert masked == set(live)
    for name in ("A", "B", "C"):
        dom = net.domains[name]
        # visible and masked partition the declared values
        assert set(dom.visible()) | set(dom.mask) == set(dom.declared)
        assert set(dom.visible()) & set(dom.mask) == set()
        assert all(dom.mask.values())
        assert (dom.visible_count() == 0) == (name in net.empty_order)
