"""Check that the traced per-layer counts equal the committed ones.

Usage, from the root of a checkout:

    python3 tests/check_traced_counts.py
    python3 tests/check_traced_counts.py --write   # after a deliberate change

Runs ``perfbench/run.py --workload W --seed 1 --seconds 1 --trace 1`` for
each workload and compares every per-layer metric whose unit is a count
or a ratio of counts with ``tests/fixtures/traced_counts_seed1.json``.
Prints each one that differs and exits 1 if any does. A traced run whose
report says ``"correct": false`` also fails the check, since counts taken
from wrong outputs show nothing; ``run.py`` on one workload exits 0 either
way, so the script reads the flag itself. The counts do not
depend on the machine or the hash seed (``perfbench/check_counts.py``),
so a difference means the program does different work. A change that
means to do so rewrites the fixture with ``--write``, which prints each
count it changes (workload, name, old -> new), and says why.

A traced run rewrites the span files under ``perfbench/traces/``; the
script puts back the bytes they had before it ran, so a check leaves the
checkout as it found it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "traced_counts_seed1.json"
TRACES = ROOT / "perfbench" / "traces"
WORKLOADS = ("session", "diagnose", "compile")


def traced_counts(workload: str) -> dict[str, float]:
    child = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    report = json.loads(child.stdout.splitlines()[-1])
    if not report["correct"]:
        raise SystemExit(f"{workload}: {report['failed']} operations of the traced run failed their checks")
    metrics = report["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] in ("count", "ratio")}


def differences(expected: dict, counts: dict) -> list[tuple[str, str, object, object]]:
    """(workload, name, old, new) for each count that is not as ``expected``."""
    changed = []
    for workload, got in counts.items():
        want = expected.get(workload, {})
        for name in sorted(want.keys() | got.keys()):
            if want.get(name) != got.get(name):
                changed.append((workload, name, want.get(name), got.get(name)))
    return changed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the fixture from this checkout")
    args = parser.parse_args()
    kept = {path: path.read_bytes() for path in TRACES.glob("*.jsonl")}
    try:
        counts = {workload: traced_counts(workload) for workload in WORKLOADS}
    finally:
        for path in set(TRACES.glob("*.jsonl")) - kept.keys():
            path.unlink()
        for path, data in kept.items():
            path.write_bytes(data)
    expected = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    changed = differences(expected, counts)
    if args.write:
        for workload, name, old, new in changed:
            print(f"{workload}: {name} {old} -> {new}")
        FIXTURE.write_text(json.dumps(counts, indent=2, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE.relative_to(ROOT)}, {len(changed)} counts changed")
        return 0
    for workload, name, old, new in changed:
        print(f"{workload}: {name} is {new}, expected {old}")
    for workload in WORKLOADS:
        print(f"{workload}: {len(expected.get(workload, {}))} counts compared")
    print("counts equal the fixture" if not changed else f"{len(changed)} counts differ")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
