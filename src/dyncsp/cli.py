"""Command line entry points.

Exit codes: 0 on success, 1 when a run ends inconsistent (without a
diagnose command), when no diagnosis exists within the bound, or when
rule verification fails; 2 on unreadable or invalid input; 141 (128 +
SIGPIPE) when standard output closes early, as in ``dyncsp run ... | head``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .compiler import dump_rules, verify_rules
from .diagnosis import diagnose
from .runner import build_network, run_script
from .textio import ParseError, parse_network, parse_script

CRITERIA = ("cr1", "cr2", "cr3", "cr4")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyncsp",
        description="Compile, run, verify, and diagnose dynamic constraint networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile a network file into rules")
    p_compile.add_argument("network", help="network file")
    p_compile.add_argument("--dump-rules", action="store_true", help="print every rule")

    p_run = sub.add_parser("run", help="run a script against a network")
    p_run.add_argument("network", help="network file")
    p_run.add_argument("script", help="script file")
    fmt = p_run.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit the JSON report")
    fmt.add_argument("--text", action="store_true", help="emit the text log (default)")
    p_run.add_argument("--shuffle", action="store_true", help="randomize rule selection")
    p_run.add_argument("--seed", type=int, default=0, help="seed for --shuffle")
    p_run.add_argument(
        "--short-circuit",
        action="store_true",
        help="fire at most one rule per constraint per propagation pass",
    )
    p_run.add_argument(
        "--include-observations",
        action="store_true",
        help="merge observation ids into reported conflict constraint sets",
    )
    p_run.add_argument("--timestamp", action="store_true", help="stamp the JSON report")

    p_diagnose = sub.add_parser("diagnose", help="diagnose a network with observations")
    p_diagnose.add_argument("network", help="network file")
    p_diagnose.add_argument("--max-card", type=int, default=3, help="largest diagnosis size")

    p_verify = sub.add_parser("verify", help="check compiled rules against each constraint")
    p_verify.add_argument("network", help="network file")
    return parser


def _cmd_compile(args) -> int:
    spec = parse_network(_read(args.network))
    network = build_network(spec, assert_observations=False)
    total = sum(len(c.template.rules) for c in network.constraints.values())
    print(f"compiled {len(network.constraints)} constraints, {total} rules")
    if args.dump_rules:
        for cid, constraint in network.constraints.items():
            print()
            print(f"{cid} [{constraint.label}]")
            rules = network.rules[cid]
            print(dump_rules(rules) if rules else "(no rules)")
    return 0


def _cmd_run(args) -> int:
    spec = parse_network(_read(args.network))
    script = parse_script(_read(args.script), spec)
    report = run_script(
        spec,
        script,
        short_circuit=args.short_circuit,
        seed=args.seed if args.shuffle else None,
        include_observations=args.include_observations,
    )
    if args.json:
        print(report.to_json(timestamp=args.timestamp))
    else:
        print(report.to_text(), end="")
    if report.final_consistent or report.diagnose_ran:
        return 0
    return 1


def _cmd_diagnose(args) -> int:
    spec = parse_network(_read(args.network))
    network = build_network(spec)
    results = diagnose(network, args.max_card)
    if results and results[0].cardinality == 0:
        print("consistent")
        return 0
    if not results:
        print(f"no diagnosis within cardinality {args.max_card}")
        return 1
    for result in results:
        print("{" + ", ".join(sorted(result.constraints)) + "}")
    return 0


def _cmd_verify(args) -> int:
    spec = parse_network(_read(args.network))
    network = build_network(spec, assert_observations=False)
    all_passed = True
    for cid, constraint in network.constraints.items():
        declared = {v: network.domains[v].declared for v in constraint.scope}
        report = verify_rules(network.rules[cid], constraint, declared)
        results = [(name, getattr(report, name)) for name in CRITERIA]
        summary = " ".join(
            f"{name}={'pass' if result.passed else 'FAIL'}" for name, result in results
        )
        print(f"{cid}: {summary}")
        for name, result in results:
            if not result.passed:
                print(f"  {name} witness: {result.witness}")
                all_passed = False
    return 0 if all_passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "compile": _cmd_compile,
        "run": _cmd_run,
        "diagnose": _cmd_diagnose,
        "verify": _cmd_verify,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # flush at exit: no error
        return 141
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
