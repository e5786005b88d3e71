import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import dyncsp
from dyncsp.cli import main
from dyncsp.core import RuleTemplate

from conftest import FIXTURES

CIRCUIT0 = str(FIXTURES / "circuit0.net")
CIRCUIT0_SCRIPT = str(FIXTURES / "circuit0.script")
CIRCUIT1 = str(FIXTURES / "circuit1.net")
CIRCUIT1_SCRIPT = str(FIXTURES / "circuit1.script")
SESSION_SCRIPT = str(FIXTURES / "circuit1_session.script")


def test_compile_reports_constraint_and_rule_counts(capsys):
    assert main(["compile", CIRCUIT0]) == 0
    out = capsys.readouterr().out
    assert out == "compiled 4 constraints, 24 rules\n"


def test_compile_can_dump_every_rule(capsys):
    assert main(["compile", CIRCUIT0, "--dump-rules"]) == 0
    out = capsys.readouterr().out
    assert "A1 [and(X, Y) -> Z]" in out
    assert "R1: IF X=false THEN Z in {false}" in out
    assert "O3 [or(Z, E4) -> S1]" in out


def test_run_json_report_structure(capsys):
    assert main(["run", CIRCUIT0, CIRCUIT0_SCRIPT, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["events", "conflicts", "diagnoses", "domains"]
    assert payload["conflicts"] == [
        {"variable": "E4", "constraints": ["O3"], "observations": ["M4", "M5"]}
    ]
    assert payload["diagnoses"] == [["O3"]]
    assert payload["domains"]["E4"] == []
    ops = [e["op"] for e in payload["events"]]
    assert ops.count("assert") == 5
    assert "conflict" in ops
    assert "diagnose" in ops


def test_run_json_output_is_stable(capsys):
    main(["run", CIRCUIT0, CIRCUIT0_SCRIPT, "--json"])
    first = capsys.readouterr().out
    main(["run", CIRCUIT0, CIRCUIT0_SCRIPT, "--json"])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize(
    "name, network, script, code",
    [
        ("circuit0", CIRCUIT0, CIRCUIT0_SCRIPT, 0),
        ("circuit1", CIRCUIT1, CIRCUIT1_SCRIPT, 0),
        ("circuit1_session", CIRCUIT1, SESSION_SCRIPT, 1),
    ],
)
def test_run_reports_match_the_golden_bytes(name, network, script, code, capsys):
    """The whole JSON and text reports, firing supports and cancel order included.

    The session relaxes O2 while three of its firings stand, which cancels
    them in one cascade, then retracts, re-asserts and restores into a
    standing conflict.
    """
    for fmt, suffix in (("json", "json"), ("text", "txt")):
        assert main(["run", network, script, f"--{fmt}"]) == code
        expected = (FIXTURES / "reports" / f"{name}.{suffix}").read_bytes().decode("utf-8")
        assert capsys.readouterr().out == expected, (name, fmt)


@pytest.mark.parametrize("name", ["circuit0", "circuit1", "tables"])
def test_rule_dumps_and_verify_lines_match_the_golden_bytes(name, capsys):
    """``compile --dump-rules`` and ``verify`` print exactly the committed
    bytes, including the rules renamed onto gates that share a template;
    ``tables`` pins the rule order of tables of arity 3-5 over two- and
    three-valued domains."""
    network = str(FIXTURES / f"{name}.net")
    for argv, suffix in ((["compile", network, "--dump-rules"], "rules"), (["verify", network], "verify")):
        assert main(argv) == 0
        expected = (FIXTURES / "reports" / f"{name}.{suffix}").read_bytes().decode("utf-8")
        assert capsys.readouterr().out == expected, (name, suffix)


def test_run_timestamp_is_opt_in(capsys):
    main(["run", CIRCUIT0, CIRCUIT0_SCRIPT, "--json", "--timestamp"])
    payload = json.loads(capsys.readouterr().out)
    assert "timestamp" in payload


def test_run_text_log(capsys):
    assert main(["run", CIRCUIT0, CIRCUIT0_SCRIPT]) == 0
    out = capsys.readouterr().out
    assert "assert M1: E1 = false" in out
    assert "fire O3.R3" in out
    assert "conflict at E4: constraints {O3} observations {M4, M5}" in out
    assert "diagnose max=3:" in out
    assert "  {O3}" in out
    assert out.endswith("consistent: no\n")


def test_run_without_diagnose_exits_nonzero_when_inconsistent(tmp_path, capsys):
    script = tmp_path / "obs.script"
    script.write_text(
        "assert M1 E1 = false\n"
        "assert M2 E2 = false\n"
        "assert M3 E3 = false\n"
        "assert M4 S1 = false\n"
        "assert M5 E4 = true\n"
    )
    assert main(["run", CIRCUIT0, str(script)]) == 1
    assert "consistent: no" in capsys.readouterr().out


def test_run_merges_observations_on_request(capsys):
    assert main(["run", CIRCUIT0, CIRCUIT0_SCRIPT, "--json", "--include-observations"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["conflicts"][0]["constraints"] == ["M4", "M5", "O3"]


def test_shuffled_runs_reach_the_same_domains(tmp_path, capsys):
    script = tmp_path / "one.script"
    script.write_text("assert M1 E1 = true\nassert M2 S1 = true\n")
    assert main(["run", CIRCUIT0, str(script), "--json"]) == 0
    plain = json.loads(capsys.readouterr().out)
    for seed in ("1", "2", "3"):
        assert main(["run", CIRCUIT0, str(script), "--json", "--shuffle", "--seed", seed]) == 0
        shuffled = json.loads(capsys.readouterr().out)
        assert shuffled["domains"] == plain["domains"]


def test_diagnose_of_a_consistent_network(capsys):
    assert main(["diagnose", CIRCUIT0]) == 0
    assert capsys.readouterr().out == "consistent\n"


def test_diagnose_prints_each_repair(tmp_path, capsys):
    net = tmp_path / "bad.net"
    net.write_text(
        "var A bool\nvar B bool\n"
        "gate N1 not A -> B\n"
        "obs M1 A = true\nobs M2 B = true\n"
    )
    assert main(["diagnose", str(net)]) == 0
    assert capsys.readouterr().out == "{N1}\n"


def test_diagnose_respects_the_bound(tmp_path, capsys):
    net = tmp_path / "fixed.net"
    net.write_text(
        "var A bool\nvar B bool\n"
        "gate N1 not A -> B norelax\n"
        "obs M1 A = true\nobs M2 B = true\n"
    )
    assert main(["diagnose", str(net), "--max-card", "2"]) == 1
    assert capsys.readouterr().out == "no diagnosis within cardinality 2\n"


def test_verify_reports_every_criterion(capsys):
    assert main(["verify", CIRCUIT0]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    for cid, line in zip(("O1", "O2", "A1", "O3"), lines):
        assert line == f"{cid}: cr1=pass cr2=pass cr3=pass cr4=pass"


def test_verify_fails_and_prints_each_witness_when_rules_are_missing(monkeypatch, capsys):
    """Dropping the last rule of every shape leaves each circuit0 constraint
    incomplete: verify prints its cr1 witness and exits 1."""
    generate = dyncsp.runner.generate

    def short(constraint, declared):
        template = generate(constraint, declared)
        return RuleTemplate(constraint, template.domains, template.rules[:-1])

    monkeypatch.setattr(dyncsp.runner, "generate", short)
    assert main(["verify", CIRCUIT0]) == 1
    lines = capsys.readouterr().out.splitlines()
    # the start's keys come in scope order
    witnesses = {
        "O1": "{'start': {'E2': 'false', 'X': 'true'}, 'variable': 'E1', 'expected': ['true'], 'actual': ['false', 'true']}",
        "O2": "{'start': {'E3': 'false', 'Y': 'true'}, 'variable': 'E2', 'expected': ['true'], 'actual': ['false', 'true']}",
        "A1": "{'start': {'Y': 'true', 'Z': 'false'}, 'variable': 'X', 'expected': ['false'], 'actual': ['false', 'true']}",
        "O3": "{'start': {'E4': 'false', 'S1': 'true'}, 'variable': 'Z', 'expected': ['true'], 'actual': ['false', 'true']}",
    }
    assert lines == [
        line
        for cid, witness in witnesses.items()
        for line in (f"{cid}: cr1=FAIL cr2=pass cr3=pass cr4=pass", f"  cr1 witness: {witness}")
    ]


def test_missing_file_exits_with_a_usage_error(capsys):
    assert main(["compile", "/nonexistent/net"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_parse_errors_exit_with_a_usage_error(tmp_path, capsys):
    net = tmp_path / "broken.net"
    for text, where in (
        ("var A bool\nvar A bool\n", "line 2, column 5"),
        ("var A bool\ntable T1 ( A Q ) : (true, true)\n", "line 2, column 14"),
    ):
        net.write_text(text)
        assert main(["compile", str(net)]) == 2
        assert where in capsys.readouterr().err


def test_script_errors_exit_with_a_usage_error(tmp_path, capsys):
    script = tmp_path / "broken.script"
    script.write_text("explode\n")
    assert main(["run", CIRCUIT0, str(script)]) == 2
    assert "unknown command" in capsys.readouterr().err


def test_invalid_runtime_commands_exit_with_a_usage_error(tmp_path, capsys):
    script = tmp_path / "tricky.script"
    # parses clean without network context, fails when applied
    script.write_text("restore O1\n")
    spec_free = tmp_path / "lone.net"
    spec_free.write_text("var A bool\nvar B bool\nvar C bool\ngate O1 or A B -> C\n")
    assert main(["run", str(spec_free), str(script)]) == 2
    err = capsys.readouterr().err
    assert "O1" in err
    assert "line 1" in err


def test_a_closed_stdout_exits_141_without_an_error_line(tmp_path):
    # About 1 MB of report, far more than a pipe holds: the writer is still
    # writing when the reader closes its end after the first line.
    network = tmp_path / "wide.net"
    network.write_text("".join(f"var V{i} bool\n" for i in range(20000)))
    script = tmp_path / "empty.script"
    script.write_text("")
    src = str(Path(dyncsp.__file__).resolve().parent.parent)
    with subprocess.Popen(
        [sys.executable, "-m", "dyncsp.cli", "run", str(network), str(script), "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    ) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 141


def mutate(text, rng):
    """Drop, duplicate or swap one to three lines, or tokens within a line, of ``text``."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        line = rng.randrange(len(lines))
        tokens = lines[line].split()
        items = lines if rng.random() < 0.5 or not tokens else tokens
        i, j = rng.randrange(len(items)), rng.randrange(len(items))
        op = rng.choice(("drop", "duplicate", "swap"))
        if op == "drop":
            del items[i]
        elif op == "duplicate":
            items.insert(j, items[i])
        else:
            items[i], items[j] = items[j], items[i]
        if items is tokens:
            lines[line] = " ".join(tokens)
    return "".join(line + "\n" for line in lines)


# Each network with its scripts; every script also dumps the rules of A1,
# so runs read network.rules as compile --dump-rules and verify do.
FUZZ_INPUTS = (
    ("circuit0.net", "circuit0.script"),
    ("circuit1.net", "circuit1.script"),
    ("circuit1.net", "circuit1_session.script"),
)


def test_mutated_inputs_exit_cleanly(tmp_path, capsys):
    """300 seeded mutations of a network or script, each run through five
    commands, never escape with an exception: exit 0 or 1 writes nothing
    to stderr, and exit 2 writes one ``error:`` line."""
    network, script = tmp_path / "fuzz.net", tmp_path / "fuzz.script"
    codes = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        network_name, script_name = rng.choice(FUZZ_INPUTS)
        texts = [
            (FIXTURES / network_name).read_text(),
            (FIXTURES / script_name).read_text() + "dump rules A1\n",
        ]
        for k in rng.choice(((0,), (1,), (0, 1))):
            texts[k] = mutate(texts[k], rng)
        network.write_text(texts[0])
        script.write_text(texts[1])
        for argv in (
            ["compile", str(network), "--dump-rules"],
            ["verify", str(network)],
            ["diagnose", str(network), "--max-card", "2"],
            ["run", str(network), str(script), "--json"],
            ["run", str(network), str(script)],
        ):
            code = main(argv)
            err = capsys.readouterr().err
            codes[code] += 1
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, (seed, argv, err)
            else:
                assert code in (0, 1) and err == "", (seed, argv, code, err)
    assert all(codes[code] for code in (0, 1, 2)), codes  # the mutations reach every exit
