import gc
import random
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyncsp import (
    ExtensionalConstraint,
    NetworkSpec,
    TableDecl,
    build_network,
    compiler,
    dump_rules,
    gate_table,
    generate,
    parse_network,
    verify_rules,
)
from dyncsp.compiler import (
    _candidate_assignments,
    _check_confluence,
    _Layout,
    closure,
    format_rule,
    projection,
    supporting_tuples,
)
from dyncsp.core import ConditionLiteral, Network, PropagationRule, RuleSet

from generators import faulty_layered_circuit, random_table, shared_shape_spec
from oracles import BOOL, brute_projection, chained_fixpoint

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


def and_constraint():
    return ExtensionalConstraint("C_and", "and", ("V1", "V2", "V3"), gate_table("and", 2))


def or_constraint():
    return ExtensionalConstraint("C_or", "or", ("V1", "V2", "V3"), gate_table("or", 2))


def table_constraint(cid, scope, rows):
    return ExtensionalConstraint(cid, cid, scope, frozenset(rows))


def test_and_gate_rules_are_the_canonical_six():
    rules = generate(and_constraint(), DECL3).rules
    assert dump_rules(rules) == AND_DUMP
    assert [r.id for r in rules] == [f"C_and.R{i}" for i in range(1, 7)]
    assert [r.index for r in rules] == list(range(1, 7))


def test_or_gate_rules_are_the_canonical_six():
    rules = generate(or_constraint(), DECL3).rules
    assert dump_rules(rules) == OR_DUMP


def test_gate_rule_counts():
    decl2 = {"V1": BOOL, "V3": BOOL}
    c_not = ExtensionalConstraint("C_not", "not", ("V1", "V3"), gate_table("not", 1))
    assert len(generate(c_not, decl2).rules) == 4
    c_xor = ExtensionalConstraint("C_xor", "xor", ("V1", "V2", "V3"), gate_table("xor", 2))
    xor_rules = generate(c_xor, DECL3).rules
    assert len(xor_rules) == 12
    assert all(len(r.conditions) == 2 for r in xor_rules)


def test_gate_table_rejects_unknown_kinds_and_arities():
    with pytest.raises(ValueError, match="unknown gate kind 'buf'"):
        gate_table("buf", 1)
    with pytest.raises(ValueError, match="gate kind 'and' takes 2 inputs, not 3"):
        gate_table("and", 3)


def test_universal_constraint_compiles_to_no_rules():
    c = table_constraint("U", ("V1", "V2"), set(product(BOOL, repeat=2)))
    assert generate(c, {"V1": BOOL, "V2": BOOL}).rules == ()


def test_forced_column_yields_unconditional_rule():
    c = table_constraint("F", ("A", "B"), {("false", "true"), ("true", "true")})
    rules = generate(c, {"A": BOOL, "B": BOOL}).rules
    assert len(rules) == 1
    assert rules[0].conditions == ()
    assert format_rule(rules[0]) == "R1: ALWAYS B in {true}"
    result = closure(rules, {}, {"A": BOOL, "B": BOOL})
    assert result["B"] == frozenset({"true"})
    assert verify_rules(rules, c, {"A": BOOL, "B": BOOL}).passed


def test_projection_matches_brute_force():
    c = or_constraint()
    for assignment in ({}, {"V1": "true"}, {"V3": "false"}, {"V1": "false", "V2": "false"}):
        for target in ("V1", "V2", "V3"):
            if target in assignment:
                continue
            expected = brute_projection(c.scope, c.allowed, assignment, target)
            assert projection(c, assignment, target) == expected


def test_projection_rejects_bad_targets():
    c = or_constraint()
    with pytest.raises(ValueError):
        projection(c, {"V1": "true"}, "V1")
    with pytest.raises(ValueError):
        projection(c, {}, "Z")
    with pytest.raises(ValueError):
        projection(c, {"Z": "true"}, "V1")


def test_closure_drives_forbidden_assignment_empty():
    rules = generate(and_constraint(), DECL3).rules
    result = closure(rules, {"V1": "false", "V2": "false", "V3": "true"}, DECL3)
    assert any(not values for values in result.values())


VALUES = ("a", "b", "c", "x", "y", "z", "q")


@st.composite
def chaining_cases(draw):
    """Random rules over declared domains, with starts inside them.

    Condition and conclusion values are drawn from the variable's own
    domain or from any domain or none, so rules may hold out-of-domain or
    contradictory conditions and conclude on one variable several times;
    starts may empty a domain.
    """
    names = ("V1", "V2", "V3", "V4")[: draw(st.integers(1, 4))]
    declared = {
        var: draw(st.sampled_from((("a", "b"), ("a", "b", "c"), ("x", "y", "z"))))
        for var in names
    }

    def variable():
        return draw(st.sampled_from(names))

    def value(var):
        return draw(st.sampled_from(declared[var] + VALUES))

    def condition():
        var = variable()
        return var, value(var)

    def conclusion():
        var = variable()
        return var, tuple(value(var) for _ in range(draw(st.integers(0, 3))))

    raw = [
        (
            [condition() for _ in range(draw(st.integers(0, 3)))],
            [conclusion() for _ in range(draw(st.integers(1, 3)))],
        )
        for _ in range(draw(st.integers(0, 8)))
    ]
    start = {}
    for var in names:
        if draw(st.booleans()):
            start[var] = draw(st.sampled_from(declared[var]))
    return declared, raw, start


@settings(deadline=None, max_examples=200)
@given(chaining_cases())
@example(  # V1 empties after R1 was passed over, so R1 never strips V2
    (
        {"V1": ("a", "b"), "V2": ("a", "b")},
        [([("V1", "a")], [("V2", ())]), ([], [("V1", ("a",))]), ([], [("V1", ())])],
        {},
    )
)
@example(  # two values for V1 never hold, even while V1 keeps exactly both
    ({"V1": ("a", "b"), "V2": ("a", "b")}, [([("V1", "a"), ("V1", "b")], [("V2", ())])], {})
)
@example(  # values outside the domain: a condition never holds, a conclusion keeps nothing
    (
        {"V1": ("a", "b"), "V2": ("x", "y", "z")},
        [([("V2", "q")], [("V1", ())]), ([], [("V1", ("q",))])],
        {},
    )
)
def test_closure_matches_a_plain_set_fixpoint(case):
    declared, raw, start = case
    rules = [
        PropagationRule(
            f"T.R{i}",
            "T",
            i,
            tuple(ConditionLiteral(var, value) for var, value in conditions),
            tuple(conclusions),
        )
        for i, (conditions, conclusions) in enumerate(raw, start=1)
    ]
    expected = chained_fixpoint(declared, raw, start)
    assert closure(rules, start, declared) == {
        var: frozenset(vals) for var, vals in expected.items()
    }


def test_closure_rejects_input_outside_the_declared_domains():
    rules = generate(and_constraint(), DECL3).rules
    with pytest.raises(ValueError, match="outside the declared domain"):
        closure(rules, {"V1": "maybe"}, DECL3)
    stray = PropagationRule("T.R1", "T", 1, (ConditionLiteral("Z", "true"),), ())
    with pytest.raises(ValueError, match="uses an undeclared variable"):
        closure([stray], {}, DECL3)


def test_verify_passes_for_all_generated_gates():
    for kind, arity in (("and", 2), ("or", 2), ("xor", 2), ("nand", 2), ("nor", 2), ("not", 1)):
        scope = tuple(f"V{i}" for i in range(1, arity + 2))
        decl = {v: BOOL for v in scope}
        c = ExtensionalConstraint(f"C_{kind}", kind, scope, gate_table(kind, arity))
        report = verify_rules(generate(c, decl).rules, c, decl)
        assert report.passed, (kind, report)


def test_deleting_a_rule_breaks_exactness_with_frozen_witness():
    rules = list(generate(and_constraint(), DECL3).rules)
    pruned = [r for r in rules if r.index != 5]
    report = verify_rules(pruned, and_constraint(), DECL3)
    assert not report.cr1.passed
    assert report.cr1.witness["start"] == {"V1": "true", "V3": "false"}
    assert report.cr1.witness["variable"] == "V2"
    assert report.cr1.witness["expected"] == ["false"]
    assert report.cr1.witness["actual"] == ["false", "true"]


def test_unsound_rule_fails_soundness_with_support_witness():
    rules = list(generate(and_constraint(), DECL3).rules)
    bogus = PropagationRule(
        id="C_and.X1",
        owner="C_and",
        index=len(rules) + 1,
        conditions=(ConditionLiteral("V1", "true"),),
        conclusions=(("V3", ("false",)),),
    )
    report = verify_rules(rules + [bogus], and_constraint(), DECL3)
    assert not report.cr2.passed
    assert report.cr2.witness["start"] == {"V1": "true"}
    assert report.cr2.witness["tuple"] == ["true", "true", "true"]
    # attribution names the proximate remover: the bogus rule pins V3=false,
    # after which the sound R5 is the one that strips the supported V2=true
    assert report.cr2.witness["variable"] == "V2"
    assert report.cr2.witness["rule"] == "C_and.R5"


def test_duplicated_rule_fails_irredundancy():
    """A copy under a new id, or the very same rule object listed twice."""
    rules = list(generate(and_constraint(), DECL3).rules)
    copy = PropagationRule(
        id="C_and.X1",
        owner="C_and",
        index=len(rules) + 1,
        conditions=rules[0].conditions,
        conclusions=rules[0].conclusions,
    )
    for duplicate in (copy, rules[0]):
        report = verify_rules(rules + [duplicate], and_constraint(), DECL3)
        assert not report.cr4.passed
        assert report.cr4.witness["rule"] in ("C_and.R1", "C_and.X1")


@pytest.mark.parametrize(
    "conditions",
    [
        [("A", "false"), ("A", "true")],  # two values for one variable
        [("A", "maybe")],  # a value outside the declared domain
    ],
)
def test_rule_that_can_never_fire_fails_irredundancy(conditions):
    c = ExtensionalConstraint("N", "not", ("A", "B"), gate_table("not", 1))
    decl = {"A": BOOL, "B": BOOL}
    literals = tuple(ConditionLiteral(var, value) for var, value in conditions)
    dead = PropagationRule("N.R5", "N", 5, literals, (("B", ("true",)),))
    rules = generate(c, decl).rules + (dead,)
    report = verify_rules(rules, c, decl)
    assert report.cr1.passed and report.cr2.passed and report.cr3.passed
    assert report.cr4.witness == {
        "rule": "N.R5",
        "conditions": [list(literal) for literal in conditions],
        "reason": "the conditions can never hold together",
    }


def test_order_dependent_rule_set_fails_confluence():
    # racing pair: emptying B first disables the rule that would prune C
    c = table_constraint("C", ("A", "B", "C"), {("true", "true", "true")})
    decl = {"A": BOOL, "B": BOOL, "C": BOOL}
    racing = [
        PropagationRule(
            "C.R1", "C", 1,
            (ConditionLiteral("A", "true"),),
            (("B", ("false",)),),
        ),
        PropagationRule(
            "C.R2", "C", 2,
            (ConditionLiteral("B", "true"),),
            (("C", ("false",)),),
        ),
    ]
    report = verify_rules(racing, c, decl)
    assert not report.cr3.passed
    # frozen: pins the seeded order stream
    assert report.cr3.witness == {
        "start": {"A": "true", "B": "true"},
        "order": ["C.R2", "C.R1"],
        "variable": "C",
        "expected": ["false", "true"],
        "actual": ["false"],
    }


def test_confluence_orders_restart_at_the_first_rule_after_each_firing():
    c = table_constraint("C", ("A", "B", "C"), {("false", "true", "true")})
    decl = {"A": BOOL, "B": BOOL, "C": BOOL}
    rules = [
        PropagationRule("C.R1", "C", 1, (), (("A", ()),)),
        PropagationRule("C.R2", "C", 2, (ConditionLiteral("A", "true"),), (("C", ()),)),
        PropagationRule("C.R3", "C", 3, (), (("A", ("true",)),)),
    ]
    # after R3 fires, the restart tries R2 while A is still {true}; a sweep
    # that went on to R1 first would empty A and agree with the reference
    assert verify_rules(rules, c, decl).cr3.witness == {
        "start": {},
        "order": ["C.R2", "C.R3", "C.R1"],
        "variable": "C",
        "expected": ["false", "true"],
        "actual": [],
    }


def test_one_firing_removing_several_values_is_attributed_to_it():
    rules = list(generate(and_constraint(), DECL3).rules)
    bogus = PropagationRule(
        id="C_and.X1",
        owner="C_and",
        index=len(rules) + 1,
        conditions=(ConditionLiteral("V3", "true"),),
        conclusions=(("V1", ("false",)), ("V2", ("false",))),
    )
    report = verify_rules(rules + [bogus], and_constraint(), DECL3)
    # R3 first strips V1=false and V2=false; one firing of X1 then strips
    # both supported values, so X1 is the remover of V1=true
    assert report.cr2.witness == {
        "start": {"V3": "true"},
        "tuple": ["true", "true", "true"],
        "variable": "V1",
        "value": "true",
        "rule": "C_and.X1",
    }
    # frozen: a seven-rule order pins the seeded permutation stream
    assert report.cr3.witness == {
        "start": {"V3": "true"},
        "order": [
            "C_and.X1", "C_and.R1", "C_and.R5", "C_and.R6", "C_and.R4", "C_and.R3", "C_and.R2"
        ],
        "variable": "V1",
        "expected": [],
        "actual": ["false"],
    }


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6))
def test_generate_is_deterministic_and_verified(seed):
    scope, rows = random_table(seed)
    decl = {v: BOOL for v in scope}
    c = table_constraint("T", scope, rows)
    first = generate(c, decl).rules
    second = generate(c, decl).rules
    assert first == second
    assert verify_rules(first, c, decl).passed


def test_rule_dump_round_trips_values_in_declared_order():
    decl = {"A": ("red", "green", "blue"), "B": ("red", "green", "blue")}
    c = table_constraint(
        "T",
        ("A", "B"),
        {("red", "green"), ("red", "blue"), ("green", "red")},
    )
    rules = generate(c, decl).rules
    assert verify_rules(rules, c, decl).passed
    text = dump_rules(rules)
    # multi-value conclusions list values in declared domain order
    assert "in {green,blue}" in text or "in {red,green}" in text or "in {red,blue}" in text


def test_tuple_values_outside_the_declared_domain_stay_visible():
    """The parser rejects such tables, but ``generate`` and ``verify_rules``
    take them: ``maybe`` is part of the projection, so cr1 and cr2 fail."""
    rows = {("true", "true"), ("maybe", "false"), ("false", "false")}
    c = table_constraint("T", ("A", "B"), rows)
    decl = {"A": BOOL, "B": BOOL}
    rules = generate(c, decl).rules
    assert dump_rules(rules) == """\
R1: IF A=false THEN B in {false}
R2: IF A=true THEN B in {true}
R3: IF B=false THEN A in {false}
R4: IF B=true THEN A in {true}"""
    report = verify_rules(rules, c, decl)
    assert report.cr1.witness == {
        "start": {},
        "variable": "A",
        "expected": ["false", "maybe", "true"],
        "actual": ["false", "true"],
    }
    assert report.cr2.witness == {
        "start": {},
        "tuple": ["maybe", "false"],
        "variable": "A",
        "value": "maybe",
        "rule": None,
    }
    assert report.cr3.passed and report.cr4.passed


def test_a_scope_that_repeats_a_variable_is_rejected():
    """Its support table would merge two positions into one variable."""
    c = table_constraint("T", ("A", "A"), {("a", "b"), ("b", "b")})
    decl = {"A": ("a", "b")}
    with pytest.raises(ValueError, match="repeats a scope variable"):
        generate(c, decl)
    with pytest.raises(ValueError, match="repeats a scope variable"):
        verify_rules([], c, decl)


def test_a_scope_variable_without_a_declared_domain_is_rejected():
    c = table_constraint("T", ("A", "B"), {("a", "b")})
    decl = {"A": ("a", "b")}
    with pytest.raises(ValueError, match="no declared domain for scope variable 'B'"):
        generate(c, decl)
    with pytest.raises(ValueError, match="no declared domain for scope variable 'B'"):
        verify_rules([], c, decl)


def test_an_empty_relation_is_rejected():
    """The chaining lemma that stands in for a pass over the forbidden full
    assignments needs one allowed tuple."""
    c = table_constraint("T", ("A", "B"), set())
    decl = {"A": ("a", "b"), "B": ("a", "b")}
    with pytest.raises(ValueError, match="allows no tuples"):
        generate(c, decl)
    with pytest.raises(ValueError, match="allows no tuples"):
        verify_rules([], c, decl)


def test_tables_over_three_values_verify_and_exercise_minimization(monkeypatch):
    """Arity 3-5 over a, b, c: every generated set passes, and some table
    has a rule that the final pass drops."""
    dropped = []
    minimize = compiler._minimize

    def counting(packed, layout):
        kept = minimize(packed, layout)
        dropped.append(len(packed) - len(kept))
        return kept

    monkeypatch.setattr(compiler, "_minimize", counting)
    for seed in range(40):
        scope, rows = random_table(seed, max_arity=5, min_arity=3, values=("a", "b", "c"))
        decl = {v: ("a", "b", "c") for v in scope}
        c = table_constraint("T", scope, rows)
        report = verify_rules(generate(c, decl).rules, c, decl)
        assert report.passed, (seed, report)
    assert any(dropped)


def damaged_rule_set(choose):
    """A random table with its generated rules, some dropped and some random ones added.

    Arity 1-4, each domain of 2 or 3 values; added rules condition and
    conclude on declared values only. ``choose`` picks one item of a
    sequence, so Hypothesis and a seeded ``random.Random`` drive one build.
    """
    booleans = (False, True)
    scope = ("V1", "V2", "V3", "V4")[: choose(range(1, 5))]
    declared = {var: choose((("a", "b"), ("a", "b", "c"), ("x", "y", "z"))) for var in scope}
    universe = list(product(*(declared[var] for var in scope)))
    rows = {row for row in universe if choose(booleans)} or {universe[0]}
    c = table_constraint("T", scope, rows)
    rules = list(generate(c, declared).rules)
    dropped = {choose(range(len(rules))) for _ in range(choose(range(3)))} if rules else set()
    rules = [rule for i, rule in enumerate(rules) if i not in dropped]
    for k in range(choose(range(3))):
        conditions = {choose(scope) for _ in range(choose(range(len(scope))))}
        concluded = {choose(scope) for _ in range(choose(range(1, len(scope) + 1)))}
        rule = PropagationRule(
            f"T.X{k}",
            "T",
            100 + k,
            tuple(ConditionLiteral(var, choose(declared[var])) for var in sorted(conditions)),
            tuple(
                (var, tuple(v for v in declared[var] if choose(booleans)))
                for var in sorted(concluded)
            ),
        )
        rules.insert(choose(range(len(rules) + 1)), rule)
    return c, declared, rules


@st.composite
def mutated_rule_sets(draw):
    return damaged_rule_set(lambda options: draw(st.sampled_from(options)))


def brute_cr1_cr2(c, declared, rules):
    """cr1 and cr2 by plain set chaining from every partial assignment."""
    raw = [(list(rule.conditions), list(rule.conclusions)) for rule in rules]
    pos = {var: i for i, var in enumerate(c.scope)}
    exact = sound = True
    for size in range(len(c.scope) + 1):
        for variables in combinations(c.scope, size):
            for values in product(*(declared[var] for var in variables)):
                start = dict(zip(variables, values))
                supports = [
                    row for row in c.allowed if all(row[pos[v]] == val for v, val in start.items())
                ]
                doms = chained_fixpoint(declared, raw, start)
                if not supports:
                    if size == len(c.scope) and all(doms.values()):
                        exact = False
                    continue
                for var in c.scope:
                    if var not in start and doms[var] != brute_projection(
                        c.scope, c.allowed, start, var
                    ):
                        exact = False
                sound &= all(row[pos[var]] in doms[var] for row in supports for var in c.scope)
    return exact, sound


def check_against_brute_force(c, declared, rules):
    """cr1 and cr2 agree with ``brute_cr1_cr2``; a failing sampled order comes with either failing."""
    report = verify_rules(rules, c, declared)
    assert (report.cr1.passed, report.cr2.passed) == brute_cr1_cr2(c, declared, rules)
    layout = _Layout(declared)
    consistent = [
        assignment
        for assignment, _, _ in _candidate_assignments(layout, len(c.scope))
        if supporting_tuples(c, assignment)
    ]
    sampled = _check_confluence(layout.pack(rules), layout, consistent)
    if not sampled.passed:
        assert not (report.cr1.passed and report.cr2.passed)
        assert report.cr3 == sampled


@settings(deadline=None, max_examples=80)
@given(mutated_rule_sets())
@example(
    (
        table_constraint("C", ("A", "B", "C"), {("true", "true", "true")}),
        {"A": BOOL, "B": BOOL, "C": BOOL},
        [  # the racing pair of test_order_dependent_rule_set_fails_confluence
            PropagationRule("C.R1", "C", 1, (ConditionLiteral("A", "true"),), (("B", ("false",)),)),
            PropagationRule("C.R2", "C", 2, (ConditionLiteral("B", "true"),), (("C", ("false",)),)),
        ],
    )
)
def test_sampled_confluence_fails_only_where_cr1_or_cr2_fails(case):
    """cr3 is decided by the chaotic-iteration theorem once cr1 and cr2 hold,
    so a failing sampled order must come with a cr1 or cr2 failure."""
    check_against_brute_force(*case)


def test_seeded_damaged_rule_sets_match_the_brute_force_oracle():
    """The same corpus on every run, whatever Hypothesis draws. The oracle
    chains from the forbidden full assignments too, which cr1 leaves to
    the chaining lemma."""
    for seed in range(300):
        check_against_brute_force(*damaged_rule_set(random.Random(seed).choice))


def layered_circuit_with_tables(seed):
    """A 30-gate layered circuit plus tables over its signals: three tables
    share one random ternary relation, and one is an ``and`` truth table,
    so tables share templates with each other and with gates."""
    rng = random.Random(seed)
    spec, _ = faulty_layered_circuit(seed, 5, 30, 8, 0)
    names = [v.name for v in spec.variables]
    _, rows = random_table(rng.randrange(2**32), max_arity=3, min_arity=3)
    tables = [TableDecl(f"T{k}", tuple(rng.sample(names, 3)), tuple(sorted(rows))) for k in range(3)]
    tables.append(TableDecl("TA", tuple(rng.sample(names, 3)), tuple(sorted(gate_table("and", 2)))))
    return NetworkSpec(variables=spec.variables, gates=spec.gates, tables=tuple(tables))


def declared_for(network, constraint):
    return {var: network.domains[var].declared for var in constraint.scope}


def test_bound_rules_verify_as_their_plain_tuple():
    """Bound rules are checked once per template; a plain tuple of the same
    rules takes the full path, and both give the same report."""
    fixtures = Path(__file__).parent / "fixtures"
    specs = [parse_network((fixtures / name).read_text()) for name in ("circuit0.net", "circuit1.net")]
    specs += [layered_circuit_with_tables(seed) for seed in range(3)]
    specs += [shared_shape_spec(seed) for seed in range(10)]
    shared = 0
    for spec in specs:
        net = build_network(spec, assert_observations=False)
        reports = {}
        for cid, constraint in net.constraints.items():
            declared = declared_for(net, constraint)
            report = verify_rules(net.rules[cid], constraint, declared)
            assert report.passed, cid
            assert report == verify_rules(tuple(net.rules[cid]), constraint, declared), cid
            template = net.templates[cid]
            if template in reports:
                assert report is reports[template]  # the template's one check
                shared += 1
            reports[template] = report
    assert shared > 0


def test_a_damaged_shared_template_fails_with_each_constraints_own_witnesses():
    """A failing template check does not stand for its constraints: each is
    checked in full, so every witness names its own variables and rules."""
    net = Network()
    for var in "ABCDEF":
        net.add_variable(var)
    x = ExtensionalConstraint("X", "and", ("A", "B", "C"), gate_table("and", 2))
    y = ExtensionalConstraint("Y", "and", ("D", "E", "F"), gate_table("and", 2))
    rules = generate(x, dict.fromkeys("ABC", BOOL)).rules
    # R4 reads A=true AND B=true THEN C in {true}; make it remove the supported value
    damaged = rules[:3] + (PropagationRule("X.R4", "X", 4, rules[3].conditions, (("C", ("false",)),)),) + rules[4:]
    net.add_constraint(x, RuleSet("X", damaged))
    net.add_constraint(y, net.templates["X"])
    for cid, constraint in net.constraints.items():
        declared = declared_for(net, constraint)
        report = verify_rules(net.rules[cid], constraint, declared)
        assert not report.cr2.passed, cid
        assert report == verify_rules(tuple(net.rules[cid]), constraint, declared), cid
        for name in ("cr1", "cr2", "cr3", "cr4"):
            witness = getattr(report, name).witness
            if witness is None:
                continue
            named = set(witness.get("start", ())) | {witness.get("variable", constraint.scope[0])}
            assert named <= set(constraint.scope), (cid, name, witness)
            for rule in [witness.get("rule", f"{cid}.R1"), *witness.get("order", ())]:
                assert rule.startswith(f"{cid}.R"), (cid, name, witness)
    assert net.templates["X"].report is not None and not net.templates["X"].report.passed


def count_rule_constructions(monkeypatch):
    """The ids of the ``PropagationRule`` objects constructed from now on."""
    made = []
    init = PropagationRule.__init__

    def counted(rule, *args, **kwargs):
        made.append(args[0] if args else kwargs["id"])
        init(rule, *args, **kwargs)

    monkeypatch.setattr(PropagationRule, "__init__", counted)
    return made


def test_verifying_passing_shapes_constructs_no_rule(monkeypatch):
    """Verifying every constraint of a 300-gate circuit, as ``dyncsp verify``
    does, constructs no ``PropagationRule``: each shape passes its template's
    one check, so no constraint's bound rules are read. Renaming a
    template's rules on each first read made one per rule of every gate
    but the template's owner."""
    spec, _ = faulty_layered_circuit(0, 10, 300, 30, 2)
    net = build_network(spec, assert_observations=False)
    made = count_rule_constructions(monkeypatch)
    for cid, constraint in net.constraints.items():
        assert verify_rules(net.rules[cid], constraint, declared_for(net, constraint)).passed, cid
    assert made == []


def test_bound_rules_read_as_the_tuple_generate_makes(monkeypatch):
    """Bound rules are a read-only sequence equal to what ``generate`` makes
    for their constraint. Their length builds nothing; the first rule read
    renames the template's rules once, and the owner's binding reads the
    template's own rules."""
    net = Network()
    for var in "ABCDEF":
        net.add_variable(var)
    x = ExtensionalConstraint("X", "and", ("A", "B", "C"), gate_table("and", 2))
    y = ExtensionalConstraint("Y", "and", ("D", "E", "F"), gate_table("and", 2))
    net.add_constraint(x, generate(x, dict.fromkeys("ABC", BOOL)))
    net.add_constraint(y, net.templates["X"])
    expected = generate(y, dict.fromkeys("DEF", BOOL)).rules
    template = net.templates["Y"]
    made = count_rule_constructions(monkeypatch)
    bound = net.rules["Y"]
    assert len(bound) == len(expected) == 6 and bound
    assert made == []
    assert bound[0] == expected[0]
    assert made == [f"Y.R{i}" for i in range(1, 7)]
    assert bound == tuple(bound) and tuple(bound) == bound
    assert bound == expected and expected == bound
    assert bound != expected[:5] and expected[:5] != bound
    assert list(bound) == list(expected) and bound[-1] == expected[-1] and bound[1:3] == expected[1:3]
    assert bound + ("x",) == expected + ("x",)
    assert repr(bound) == repr(expected)
    assert expected[2] in bound and bound.index(expected[2]) == 2
    with pytest.raises(IndexError):
        bound[6]
    assert made == [f"Y.R{i}" for i in range(1, 7)]
    own = net.rules["X"]
    assert len(own) == len(template.rules) and all(a is b for a, b in zip(own, template.rules))
    assert made == [f"Y.R{i}" for i in range(1, 7)]


def test_generate_and_verify_leave_no_garbage_cycles():
    """The candidate walk is not a closure that names itself, so a
    compile and a check leave nothing for the cyclic garbage collector."""
    c = ExtensionalConstraint("X", "and", ("A", "B", "C"), gate_table("and", 2))
    declared = dict.fromkeys("ABC", BOOL)
    gc.collect()
    gc.disable()
    try:
        verify_rules(generate(c, declared).rules, c, declared)
        assert gc.collect() == 0
    finally:
        gc.enable()
