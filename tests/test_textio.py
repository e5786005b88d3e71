import pytest

from dyncsp import (
    GateDecl,
    NetworkSpec,
    ObservationDecl,
    ParseError,
    TableDecl,
    VariableDecl,
    parse_network,
    parse_script,
    serialize_network,
)
from dyncsp.textio import _TOKEN, Command

NETWORK = """\
# a small mixed network
var A bool
var B bool
var C bool

var MODE { low mid high }
gate N1 not A -> B
gate O1 or A B -> C norelax
table T1 ( A MODE ) : (false,low) (true,high)
obs M1 A = true
"""


def test_parse_network_reads_every_declaration():
    spec = parse_network(NETWORK)
    assert spec.variables == (
        VariableDecl("A", ("false", "true")),
        VariableDecl("B", ("false", "true")),
        VariableDecl("C", ("false", "true")),
        VariableDecl("MODE", ("low", "mid", "high")),
    )
    assert spec.gates == (
        GateDecl("N1", "not", ("A",), "B"),
        GateDecl("O1", "or", ("A", "B"), "C", relaxable=False),
    )
    assert spec.tables == (
        TableDecl("T1", ("A", "MODE"), (("false", "low"), ("true", "high"))),
    )
    assert spec.observations == (ObservationDecl("M1", "A", "true"),)


def test_network_serialization_round_trips():
    spec = parse_network(NETWORK)
    assert parse_network(serialize_network(spec)) == spec


def test_table_norelax_round_trips():
    text = "var A bool\nvar B bool\ntable T1 ( A B ) : (true,true) norelax\n"
    spec = parse_network(text)
    assert spec.tables[0].relaxable is False
    assert parse_network(serialize_network(spec)) == spec


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("var A bool\nvar A bool", 2, "already declared"),
        ("wire A bool", 1, "unknown declaration 'wire'"),
        ("var A int", 1, "expected 'bool' or '{'"),
        ("var A { }", 1, "empty domain"),
        ("var A { x x }", 1, "duplicate domain value"),
        ("var A bool extra", 1, "unexpected trailing"),
        ("var A bool\ngate G1 nope A -> A", 2, "unknown gate kind"),
        ("var A bool\ngate G1 not Q -> A", 2, "undeclared variable 'Q'"),
        ("var A bool\ngate G1 not A -> A", 2, "uses a variable twice"),
        (
            "var A bool\nvar M { a b }\ngate G1 not A -> M",
            3,
            "needs boolean variables",
        ),
        ("var A bool\nvar B bool\ngate G1 not A", 3, "found end of line"),
        (
            "var A bool\nvar B bool\ngate G1 not A -> B\ntable G1 ( A ) : (true)",
            4,
            "already used",
        ),
        ("var A bool\ntable T1 ( ) : (true)", 2, "empty scope"),
        ("var A bool\ntable T1 ( A A ) : (true)", 2, "repeats variable"),
        ("var A bool\ntable T1 ( A Q ) : (true, true)", 2, "undeclared variable 'Q'"),
        ("var A bool\ntable T1 ( A ) : (yes)", 2, "outside the domain"),
        ("var A bool\ntable T1 ( A ) :", 2, "allows no tuples"),
        (
            "var A bool\ntable T1 ( A ) : (true) (true)",
            2,
            "repeats tuple",
        ),
        (
            "var A bool\nvar B bool\ntable T1 ( A B ) : (true true)",
            3,
            "expected ','",
        ),
        ("var A bool\nobs M1 A = yes", 2, "outside the domain"),
        ("var A bool\nobs M1 Q = true", 2, "undeclared variable"),
        ("var A bool\nobs M1 A = true\nobs M1 A = false", 3, "already used"),
    ],
)
def test_network_errors_carry_their_line(text, line, fragment):
    with pytest.raises(ParseError) as exc:
        parse_network(text)
    assert exc.value.line == line
    assert fragment in str(exc.value)
    assert f"line {line}" in str(exc.value)


def test_parse_error_records_the_column():
    for text, column in (
        ("var A bool\nvar A bool", 5),
        ("var A bool\ntable T1 ( A Q ) : (true, true)", 14),
    ):
        with pytest.raises(ParseError) as exc:
            parse_network(text)
        assert exc.value.column == column


# (source, "network" or "script", error line, index of the offending token on
# that line, message): each offending token's text also occurs earlier on its
# line, so a column found by searching for the text would be wrong.
ERROR_POSITIONS = [
    ("var var bool\nvar var bool", "network", 2, 1, "variable 'var' already declared"),
    ("var X { a b a }", "network", 1, 5, "duplicate domain value 'a'"),
    ("\t\tvar X { a b a }", "network", 1, 5, "duplicate domain value 'a'"),
    ("var int int", "network", 1, 2, "expected 'bool' or '{', found 'int'"),
    ("var A bool bool", "network", 1, 3, "unexpected trailing 'bool'"),
    ("var A bool\ngate G1 and A G1 -> A", "network", 2, 4, "undeclared variable 'G1'"),
    ("var A bool\n  gate nope nope A -> A", "network", 2, 2, "unknown gate kind 'nope'"),
    ("var A bool\ngate G1 not A -> A -> A", "network", 2, 6, "unexpected trailing '->'"),
    ("var A bool\ntable T1 ( A A ) : (true)", "network", 2, 4, "table 'T1' repeats variable 'A'"),
    ("var A bool\ntable A ( A ) : (A)", "network", 2, 7, "value 'A' is outside the domain of 'A'"),
    ("var A bool\ntable T1 ( A ) : (true) true", "network", 2, 9, "expected '(', found 'true'"),
    ("var A bool\n\t obs A A = A", "network", 2, 4, "value 'A' is outside the domain of 'A'"),
    ("var A bool\nobs M1 M1 = true", "network", 2, 2, "undeclared variable 'M1'"),
    ("var A bool\nobs M1 A = true true", "network", 2, 5, "unexpected trailing 'true'"),
    ("retract M1 M1", "script", 1, 2, "unexpected trailing 'M1'"),
    ("relax relax", "script", 1, 1, "unknown constraint 'relax'"),
    ("dump dump", "script", 1, 1, "expected 'rules' or 'domains', found 'dump'"),
    ("dump rules rules", "script", 1, 2, "unknown constraint 'rules'"),
    ("diagnose diagnose", "script", 1, 1, "expected 'max=<positive int>', found 'diagnose'"),
    ("propagate\n  assert M2 M2 = true", "script", 2, 2, "undeclared variable 'M2'"),
    ("\tassert M2 A = true true", "script", 1, 5, "unexpected trailing 'true'"),
]


@pytest.mark.parametrize("text, kind, line, index, message", ERROR_POSITIONS)
def test_parse_errors_point_at_the_offending_token(text, kind, line, index, message):
    matches = list(_TOKEN.finditer(text.splitlines()[line - 1]))
    tokens = [m.group() for m in matches]
    assert tokens[index] in tokens[:index]
    column = matches[index].start() + 1
    with pytest.raises(ParseError) as exc:
        if kind == "network":
            parse_network(text)
        else:
            parse_script(text, parse_network(NETWORK))
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value) == f"line {line}, column {column}: {message}"


SCRIPT = """\
# drive the network
assert M2 B = false
propagate
conflicts
relax N1
restore N1
retract M2
diagnose max=2
dump rules N1
dump domains
"""


def test_parse_script_reads_every_command():
    spec = parse_network(NETWORK)
    script = parse_script(SCRIPT, spec)
    assert [c.op for c in script.commands] == [
        "assert",
        "propagate",
        "conflicts",
        "relax",
        "restore",
        "retract",
        "diagnose",
        "dump_rules",
        "dump_domains",
    ]
    assert script.commands[0] == Command("assert", ("M2", "B", "false"), 2)
    assert script.commands[6].args == (2,)
    assert script.commands[7].args == ("N1",)


def test_parse_script_without_a_spec_skips_reference_checks():
    script = parse_script("assert M9 Qz = maybe\nrelax NOPE")
    assert script.commands[0].args == ("M9", "Qz", "maybe")
    assert script.commands[1].args == ("NOPE",)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("jump", "unknown command"),
        ("assert M1 B = false", "already used"),
        pytest.param(
            "assert M2 Q = false",
            "column 11: undeclared variable",
            id="assert M2 Q = false-undeclared variable",
        ),
        pytest.param(
            "assert M2 B = maybe",
            "column 15: value 'maybe' is outside the domain",
            id="assert M2 B = maybe-outside the domain",
        ),
        ("assert M2 B = false\nassert M2 C = true", "already used"),
        ("retract M7", "unknown observation"),
        ("relax Z9", "unknown constraint"),
        ("restore Z9", "unknown constraint"),
        ("diagnose", "found end of line"),
        ("diagnose max=0", "positive int"),
        ("diagnose hard", "positive int"),
        ("dump rules Z9", "unknown constraint"),
        ("dump everything", "expected 'rules' or 'domains'"),
        ("propagate now", "unexpected trailing"),
    ],
)
def test_script_errors_against_the_network_spec(text, fragment):
    spec = parse_network(NETWORK)
    with pytest.raises(ParseError) as exc:
        parse_script(text, spec)
    assert fragment in str(exc.value)


def test_duplicate_script_assert_ids_fail_even_without_a_spec():
    with pytest.raises(ParseError):
        parse_script("assert S1 A = true\nassert S1 B = false")


def test_empty_sources_parse_to_empty_structures():
    assert parse_network("") == NetworkSpec()
    assert parse_network("# only a comment\n\n") == NetworkSpec()
    assert parse_script("").commands == ()
