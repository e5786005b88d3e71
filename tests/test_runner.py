import dataclasses
import gc
import json
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncsp import (
    BOOL_DOMAIN,
    ExtensionalConstraint,
    GateDecl,
    NetworkSpec,
    TableDecl,
    VariableDecl,
    build_network,
    diagnose,
    gate_table,
    generate,
    parse_network,
    parse_script,
    run_script,
)
from dyncsp import runner
from dyncsp.core import FiniteDomain, Network, PropagationRule, RuleTemplate
from dyncsp.textio import Command, ParseError, Script

from generators import (
    faulty_layered_circuit,
    random_network,
    random_observations,
    shared_shape_spec,
)

NETWORK = """\
var A bool
var B bool
var C bool
gate N1 not A -> B
gate N2 not B -> C
obs M1 A = true
"""


def run(script_text, **kwargs):
    spec = parse_network(NETWORK)
    return run_script(spec, parse_script(script_text, spec), **kwargs)


def test_declared_observations_run_as_implicit_asserts():
    report = run("")
    assert report.events[0] == {
        "op": "assert",
        "observation": "M1",
        "variable": "A",
        "value": "true",
        "masks": [["A", "false"]],
    }
    fires = [e for e in report.events if e["op"] == "fire"]
    assert [f["rule"] for f in fires] == ["N1.R2", "N2.R1"]
    assert report.domains == {"A": ["true"], "B": ["false"], "C": ["true"]}
    assert report.final_consistent


def test_an_unknown_command_fails_with_its_line():
    spec = parse_network(NETWORK)
    with pytest.raises(ParseError) as raised:
        run_script(spec, Script((Command("bogus", (), 7),)))
    assert str(raised.value) == "line 7: unknown command 'bogus'"


def test_fire_events_carry_supports_and_masks():
    report = run("")
    fire = next(e for e in report.events if e.get("rule") == "N1.R2")
    assert fire["constraint"] == "N1"
    assert fire["supports"] == [["A", "true", ["M1"]]]
    assert fire["masks"] == [["B", "true"]]
    assert isinstance(fire["firing"], int)


def test_retract_event_lists_releases_and_cancellations():
    report = run("retract M1\n")
    retract = next(e for e in report.events if e["op"] == "retract")
    assert retract["observation"] == "M1"
    assert ["A", "false"] in retract["released"]
    assert len(retract["cancelled"]) == 2
    assert report.domains == {"A": ["false", "true"], "B": ["false", "true"], "C": ["false", "true"]}


def test_conflict_events_feed_the_conflict_list():
    report = run("assert M2 C = false\n")
    conflict = next(e for e in report.events if e["op"] == "conflict")
    assert conflict["variable"] == "C"
    assert conflict["constraints"] == ["N1", "N2"]
    assert conflict["observations"] == ["M1", "M2"]
    assert report.conflicts == [
        {"variable": "C", "constraints": ["N1", "N2"], "observations": ["M1", "M2"]}
    ]
    assert not report.final_consistent


def test_conflicts_command_reports_none_when_consistent():
    report = run("conflicts\n")
    assert report.events[-1] == {
        "op": "conflicts",
        "variable": None,
        "constraints": [],
        "observations": [],
    }


def test_diagnose_command_rolls_back_before_later_commands():
    report = run("assert M2 C = false\ndiagnose max=2\ndump domains\n")
    assert report.diagnoses == [["N1"], ["N2"]]
    assert report.diagnose_ran
    dump = report.events[-1]
    # the probe relaxations left no trace: C is still empty
    assert dump["domains"]["C"] == []
    assert not report.final_consistent


def test_dump_commands_capture_rules_and_domains():
    report = run("dump rules N1\ndump domains\n")
    rules_event, domains_event = report.events[-2:]
    assert rules_event["constraint"] == "N1"
    assert "R1: IF A=false THEN B in {true}" in rules_event["lines"]
    assert domains_event["domains"]["A"] == ["true"]


def test_relax_and_restore_events():
    report = run("relax N1\nrestore N1\n")
    relax_event = next(e for e in report.events if e["op"] == "relax")
    assert relax_event["constraint"] == "N1"
    assert ["B", "true"] in relax_event["released"]
    assert len(relax_event["cancelled"]) == 2
    restore_event = next(e for e in report.events if e["op"] == "restore")
    assert restore_event["constraint"] == "N1"
    assert report.domains["C"] == ["true"]


def test_json_payload_shape_and_stability():
    report = run("assert M2 C = false\nconflicts\ndiagnose max=1\n")
    payload = json.loads(report.to_json())
    assert list(payload) == ["events", "conflicts", "diagnoses", "domains"]
    assert payload == json.loads(report.to_json())
    stamped = json.loads(report.to_json(timestamp=True))
    assert set(stamped) == {"events", "conflicts", "diagnoses", "domains", "timestamp"}


# Strings that json escapes: quotes, backslashes, control characters, U+2028
# and non-ASCII text, mixed with arbitrary characters.
JSON_TEXT = st.text(st.sampled_from('"\\\n\t\x00\x1f\x7f\u2028é€\U0001f600') | st.characters())
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | JSON_TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(JSON_TEXT, children, max_size=4),
    max_leaves=25,
)


@settings(deadline=None, max_examples=300)
@given(JSON_VALUES)
def test_the_json_writer_equals_json_dumps_with_an_indent(value):
    assert runner._json(value, "") == json.dumps(value, indent=2)


def test_run_json_reports_of_random_networks_equal_json_dumps():
    for seed in range(50):
        spec = random_network(seed)
        spec = dataclasses.replace(spec, observations=random_observations(seed, spec))
        report = run_script(spec, parse_script("conflicts\ndiagnose max=2\n", spec))
        assert report.to_json() == json.dumps(report.to_payload(), indent=2)


@pytest.mark.parametrize("key", [1, None, True, 1.5, ("a",)])
def test_the_json_writer_rejects_a_key_that_is_not_a_string(key):
    with pytest.raises(TypeError):
        runner._json({"events": [{key: "x"}]}, "")


def test_text_rendering_covers_every_event_kind():
    report = run(
        "assert M2 C = true\n"
        "propagate\n"
        "conflicts\n"
        "relax N1\n"
        "restore N1\n"
        "retract M2\n"
        "diagnose max=1\n"
        "dump rules N2\n"
        "dump domains\n"
    )
    text = report.to_text()
    for fragment in (
        "assert M1: A = true",
        "  mask A=false",
        "fire N1.R2",
        "propagate",
        "conflicts: none",
        "relax N1",
        "restore N1",
        "retract M2",
        "diagnose max=1:",
        "rules of N2:",
        "domains:",
        "final domains:",
        "consistent: yes",
    ):
        assert fragment in text


def test_text_reports_an_empty_bound_and_a_table_without_rules():
    """Two independent faults need two relaxations; a table allowing
    every tuple compiles to no rule."""
    spec = parse_network(
        "var A bool\nvar B bool\nvar C bool\nvar D bool\n"
        "gate N1 not A -> B\ngate N2 not C -> D\n"
        "table U ( A C ) : (false, false) (false, true) (true, false) (true, true)\n"
        "obs M1 A = true\nobs M2 B = true\nobs M3 C = true\nobs M4 D = true\n"
    )
    text = run_script(spec, parse_script("diagnose max=1\ndump rules U\n", spec)).to_text()
    assert "diagnose max=1:\n  none within bound\n" in text
    assert "rules of U:\n  (none)\n" in text


def test_include_observations_merges_ids_into_constraints():
    report = run("assert M2 C = false\nconflicts\n", include_observations=True)
    conflicts_event = next(e for e in report.events if e["op"] == "conflicts")
    assert conflicts_event["constraints"] == ["M1", "M2", "N1", "N2"]
    assert report.conflicts[0]["constraints"] == ["M1", "M2", "N1", "N2"]


def test_seeded_runs_are_reproducible():
    spec = parse_network(NETWORK)
    script = parse_script("assert M2 C = false\nconflicts\n", spec)
    first = run_script(spec, script, seed=7).to_json()
    second = run_script(spec, script, seed=7).to_json()
    assert first == second


def test_build_network_compiles_every_declaration():
    spec = parse_network(NETWORK)
    net = build_network(spec)
    assert set(net.constraints) == {"N1", "N2"}
    assert net.constraints["N1"].label == "not(A) -> B"
    assert "M1" in net.observations
    assert net.domains["C"].visible() == ("true",)


def count_compiles(monkeypatch):
    """Count the calls ``build_network`` makes to ``generate``, per constraint id."""
    calls = Counter()

    def counted(constraint, declared):
        calls[constraint.id] += 1
        return generate(constraint, declared)

    monkeypatch.setattr(runner, "generate", counted)
    return calls


def test_build_network_rules_equal_a_fresh_compile_of_each_constraint(monkeypatch):
    calls = count_compiles(monkeypatch)
    constraints = shapes = 0
    for seed in range(60):
        spec = shared_shape_spec(seed)
        declared = spec.domain_of()
        net = build_network(spec)
        shapes += len(
            {(frozenset(t.tuples), tuple(declared[v] for v in t.scope)) for t in spec.tables}
        )
        for t in spec.tables:
            constraint = ExtensionalConstraint(t.id, "", t.scope, frozenset(t.tuples))
            expected = generate(constraint, {v: declared[v] for v in t.scope})
            assert net.rules[t.id] == expected.rules, (seed, t.id)
            constraints += 1
    assert sum(calls.values()) == shapes < constraints  # one compile per shape and network


def test_a_scope_that_repeats_a_variable_is_rejected_before_it_is_bound(monkeypatch):
    calls = count_compiles(monkeypatch)
    made = []
    init = PropagationRule.__init__

    def counted(rule, *args, **kwargs):
        made.append(args[0] if args else kwargs["id"])
        init(rule, *args, **kwargs)

    monkeypatch.setattr(PropagationRule, "__init__", counted)
    spec = NetworkSpec(
        variables=(VariableDecl("A", ("a", "b")), VariableDecl("B", ("a", "b"))),
        tables=(
            TableDecl("T1", ("A", "B"), (("a", "b"), ("b", "b"))),
            TableDecl("T2", ("A", "A"), (("a", "b"), ("b", "b"))),
        ),
    )
    with pytest.raises(ValueError, match="repeats a scope variable"):
        build_network(spec)
    assert calls == {"T1": 1}  # T2 has T1's shape, so it reuses T1's template
    # only T1's compile makes rule objects: registering renames none, and T2's scope is rejected
    assert [rid for rid in made if not rid.startswith("T1.")] == []


def test_a_gate_and_a_table_of_its_truth_table_share_one_compile(monkeypatch):
    calls = count_compiles(monkeypatch)
    spec = NetworkSpec(
        variables=tuple(VariableDecl(name, BOOL_DOMAIN) for name in "ABCDEF"),
        gates=(GateDecl("G1", "and", ("A", "B"), "C"),),
        tables=(TableDecl("T1", ("D", "E", "F"), tuple(sorted(gate_table("and", 2)))),),
    )
    net = build_network(spec)
    assert calls == {"G1": 1}
    assert net.constraints["G1"].label == "and(A, B) -> C"
    assert net.constraints["T1"].label == "table(D, E, F)"
    renamed = dict(zip("ABC", "DEF"))
    assert len(net.rules["T1"]) == len(net.rules["G1"]) == 6
    for gate_rule, table_rule in zip(net.rules["G1"], net.rules["T1"]):
        assert table_rule.id == f"T1.R{gate_rule.index}"
        assert table_rule.conditions == tuple(
            (renamed[var], value) for var, value in gate_rule.conditions
        )
        assert table_rule.conclusions == tuple(
            (renamed[var], vals) for var, vals in gate_rule.conclusions
        )


def test_a_network_is_freed_without_the_cycle_collector():
    """A network whose rules were all read and which ran a diagnosis forms
    no reference cycle, so dropping it frees it at once, with every
    variable and constraint record and every template. A constraint refers
    to its template and scope domains, but a watch list names constraints
    by id; were it to hold the records, every network would be a cycle
    left for the collector. The records are slotted dataclasses, which
    take no weak reference, so the objects the collector tracks are
    counted by type instead."""
    kinds = (Network, ExtensionalConstraint, FiniteDomain, RuleTemplate)

    def live():
        counts = Counter(type(obj) for obj in gc.get_objects() if isinstance(obj, kinds))
        return {kind.__name__: counts[kind] for kind in kinds}

    spec, _ = faulty_layered_circuit(3, 5, 40, 8, 2)
    gc.collect()
    gc.disable()
    try:
        before = live()
        net = build_network(spec)
        assert net.first_empty() is not None
        assert all(len(net.rules[cid]) == len(c.template.rules) for cid, c in net.constraints.items())
        assert diagnose(net, 2)
        assert live()["FiniteDomain"] == before["FiniteDomain"] + len(net.domains)
        ref = weakref.ref(net)
        del net
        assert ref() is None
        assert live() == before
    finally:
        gc.enable()
