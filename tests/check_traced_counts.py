"""Check that the traced per-layer counts equal the committed ones.

Usage, from the root of a checkout:

    python3 tests/check_traced_counts.py
    python3 tests/check_traced_counts.py --write   # after a deliberate change

Runs ``perfbench/run.py --workload W --seed 1 --seconds 1 --trace 1`` for
each workload and compares every per-layer metric whose unit is a count
or a ratio of counts with ``tests/fixtures/traced_counts_seed1.json``.
Prints each one that differs and exits 1 if any does. The counts do not
depend on the machine or the hash seed (``perfbench/check_counts.py``),
so a difference means the program does different work. A change that
means to do so rewrites the fixture with ``--write`` and says why.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "traced_counts_seed1.json"
WORKLOADS = ("session", "diagnose", "compile")


def traced_counts(workload: str) -> dict[str, float]:
    child = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    metrics = json.loads(child.stdout.splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] in ("count", "ratio")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the fixture from this checkout")
    args = parser.parse_args()
    counts = {workload: traced_counts(workload) for workload in WORKLOADS}
    if args.write:
        FIXTURE.write_text(json.dumps(counts, indent=2, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE.relative_to(ROOT)}")
        return 0
    expected = json.loads(FIXTURE.read_text())
    differing = 0
    for workload in WORKLOADS:
        want, got = expected[workload], counts[workload]
        for name in sorted(want.keys() | got.keys()):
            if want.get(name) != got.get(name):
                differing += 1
                print(f"{workload}: {name} is {got.get(name)}, expected {want.get(name)}")
        print(f"{workload}: {len(want)} counts compared")
    print("counts equal the fixture" if not differing else f"{differing} counts differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
