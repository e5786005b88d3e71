"""Check that the per-layer counts of a traced run do not depend on the hash seed.

Usage, from the root of a checkout:

    python3 perfbench/check_counts.py --seed 1

Runs the traced run of every workload twice, under PYTHONHASHSEED=1 and
PYTHONHASHSEED=2, and compares each per-layer metric whose unit is a
count or a ratio of counts. Prints the ones that differ and exits 1 if
any does: such a metric is not a count and must be reported with the
timings.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def traced_counts(workload: str, seed: int, hash_seed: int) -> dict[str, float]:
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
    child = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, env=env, check=True,
    )
    metrics = json.loads(child.stdout.splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] in ("count", "ratio")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    differing = 0
    for workload in ("session", "diagnose", "compile"):
        first, second = (traced_counts(workload, args.seed, h) for h in (1, 2))
        for name in sorted(first):
            same = first[name] == second[name]
            differing += not same
            if not same:
                print(f"{workload}: {name} differs: {first[name]} vs {second[name]}")
        print(f"{workload}: {len(first)} counts compared")
    print("counts repeat exactly" if not differing else f"{differing} counts differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
