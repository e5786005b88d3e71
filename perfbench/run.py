"""Benchmark of dyncsp: three single-client workloads, plus a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload session --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates plain and traced passes over the same inputs
and reports the per-layer metrics of the traced passes. The last line of
standard output is one JSON object: correct, attempted, failed, metrics;
a failed check is reported there and on standard error, and a traced run
also writes its first traced pass's spans to ``perfbench/traces/``.
``--workload all`` runs every workload in its own process (so each peak
RSS is its own), prints one row per workload, and exits 1 if any check
failed. Any run exits non-zero when the package or its oracles are
missing. ``pass_s`` is the ``run_s`` of ``diagnose`` and the ``verify_s``
of ``compile``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("session", "diagnose", "compile")
MIN_PASSES = 3

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}
# Per-layer metrics in the JSON of a traced run. Timings of layers that do
# not run on every workload (engine.propagate.self_s, diagnosis.diagnose.self_s,
# compiler.verify_rules.s, ...) are printed in the traced table only: in the
# JSON they would read a constant 0 on the workloads that skip the layer.
PER_LAYER = {
    "engine.rule_applicable.calls": "count",
    "engine.rule_applicable.per_op": "ratio",
    "engine.fire_rule.calls": "count",
    "engine.fire_ratio": "ratio",
    "engine.propagate.calls": "count",
    "engine.extract_conflict.calls": "count",
    "dynamics.cancelled": "count",
    "dynamics.relax.calls": "count",
    "core.release.calls": "count",
    "core.mask_value.calls": "count",
    "core.mask_value.per_op": "ratio",
    "core.Network.snapshot.calls": "count",
    "core.Network.rollback.calls": "count",
    "core.events_retained": "count",
    "core.firings_retained": "count",
    "diagnosis.probes": "count",
    "diagnosis.probes_per_diagnosis": "ratio",
    "compiler.generate.calls": "count",
    "compiler.rules_emitted": "count",
    "textio.parse_network.s": "s",
    "compiler.generate.s": "s",
    "runner.build_network.s": "s",
    "trace.overhead_s": "s",
}
TIMED = ("_s", ".s", "_ms")


def _load_package() -> None:
    """Put the checkout's package and the test oracles on the path."""
    for needed in ("src/dyncsp/__init__.py", "tests/oracles.py", "tests/generators.py"):
        if not (ROOT / needed).is_file():
            sys.exit(f"perfbench: {needed} is missing; run from a full checkout")
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer, ops: int, retained: tuple[int, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass of ``ops`` operations."""
    metrics = {f"{name}.{key}": value for name, stats in tracer.summary().items() for key, value in stats.items()}
    metrics.update(tracer.counts)
    count = tracer.counts
    examined = count["engine.rule_applicable.calls"]
    metrics["diagnosis.probes"] = metrics.get("diagnosis.check_consistent.calls", 0)
    metrics.update({
        "engine.fire_ratio": _ratio(count["engine.fire_rule.calls"], examined),
        "engine.rule_applicable.per_op": _ratio(examined, ops),
        "core.mask_value.per_op": _ratio(count["core.mask_value.calls"], ops),
        "diagnosis.probes_per_diagnosis": _ratio(metrics["diagnosis.probes"], count["diagnosis.diagnoses"]),
        "core.events_retained": retained[0],
        "core.firings_retained": retained[1],
    })
    return metrics


def write_spans(spans: list[tuple], workload: str, seed: int) -> None:
    """One JSON line per span: id, parent, request, name, start and end (s), self (s)."""
    out = ROOT / "perfbench" / "traces"
    out.mkdir(exist_ok=True)
    origin = min((span[4] for span in spans), default=0.0)
    with open(out / f"{workload}-seed{seed}.jsonl", "w", encoding="utf-8") as handle:
        for sid, parent, request, name, start, end, own in sorted(spans):
            handle.write(json.dumps([sid, parent, request, name, start - origin, end - origin, own]) + "\n")


def _best_pass(tally, work) -> float:
    """The fastest pass, set-up included once."""
    if work.setup_in_ops:
        return min(sum(ops) for ops in tally.op_s)
    return min(setup + sum(ops) for setup, ops in zip(tally.setup_s, tally.op_s))


def run_pass(work, tally, tracer=None, cut=False) -> None:
    """One pass of ``work``: traced by ``tracer``, or its operations cut into segments if ``cut``.

    The passes a traced pass is compared with are not cut, so that
    ``trace.overhead_s`` holds the tracer's cost alone.
    """
    laps = tracing.Laps()
    patch = tracer or (laps if cut else None)
    if patch is not None:
        patch.install()
    try:
        work.run_pass(tally, laps, tracer)
    finally:
        if patch is not None:
            patch.remove()
    tally.op_s.append([sum(op) for op in laps.ops])
    if not tally.segments:
        tally.segments = laps.ops
        return
    for i, (best, op) in enumerate(zip(tally.segments, laps.ops)):
        same = best is not None and len(best) == len(op)
        tally.segments[i] = list(map(min, best, op)) if same else None


def best_pass_s(tally) -> float:
    """Each operation's best time over the passes, summed.

    An operation cut into the same segments in every pass counts the sum
    of its segments' best times: each segment is far shorter than the
    operation, so it has more chances to run in a quiet moment of the
    host. An operation whose call sequence differs between passes (a
    cache filled in the first pass, say) counts its best whole time.
    """
    whole = [min(times) for times in zip(*tally.op_s)]
    return sum(best if segments is None else sum(segments) for best, segments in zip(whole, tally.segments))


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Replay the seed's input in passes for about ``seconds`` (at least ``MIN_PASSES``).

    Returns the tally whose checks count, the metrics, and the workload.
    """
    _load_package()
    from workloads import WORKLOADS, Tally

    work = WORKLOADS[workload](seed)
    plain, traced = Tally(), Tally()
    layers: list[dict] = []
    start = time.perf_counter()
    took = 0.0  # the last round of passes; no round starts that would end after ``seconds``
    while len(plain.op_s) < (1 if trace else MIN_PASSES) or time.perf_counter() - start + took < seconds:
        began = time.perf_counter()
        run_pass(work, plain, cut=not trace)
        if not trace:
            took = time.perf_counter() - began
            continue
        tracer = tracing.Tracer()
        before = traced.attempted
        run_pass(work, traced, tracer)
        layers.append(layer_metrics(tracer, traced.attempted - before, traced.retained))
        if len(layers) == 1:
            write_spans(tracer.spans, workload, seed)
        took = time.perf_counter() - began
    if trace:
        # Counts from the first traced pass (every pass replays the same input); timings as medians.
        metrics = {name: 0 for name in PER_LAYER} | layers[0]
        for key in metrics:
            if key.endswith(TIMED):
                metrics[key] = statistics.median(layer.get(key, 0) for layer in layers)
        metrics["trace.overhead_s"] = _best_pass(traced, work) - _best_pass(plain, work)
        traced.attempted += plain.attempted
        traced.failed += plain.failed
        traced.failures += plain.failures
        return traced, metrics, work
    # Best times over the passes: interference from the rest of the
    # machine only ever adds time, and it differs per pass.
    best = [min(times) for times in zip(*plain.op_s)]
    metrics = {
        "setup_s": statistics.median(plain.setup_s),
        "op_p50_ms": 1000 * statistics.median(best),
        "op_tail_ms": 1000 * percentile(best, work.tail) if work.tail else None,
        "pass_s": best_pass_s(plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return plain, metrics, work


def row(workload: str, tally, metrics: dict, tail: float) -> str:
    ops = len(tally.op_s[0])
    cells = [f"{name}={metrics[name]:.4g} {unit}" for name, unit in END_TO_END.items()]
    cells.append(f"op_p50_ms={metrics['op_p50_ms']:.4g} ms")
    if tail:
        cells.append(f"op_tail_ms={metrics['op_tail_ms']:.4g} ms (p{100 * tail:g} of {ops} ops, best of {len(tally.op_s)} passes)")
    cells.append(f"ops_per_s={ops / metrics['pass_s']:.4g} 1/s")
    if workload == "diagnose":
        cells.append(f"diagnose_s={statistics.median(tally.diagnose_s):.4g} s")
    cells.append(f"failed_ratio={tally.failed / tally.attempted:.4g} ({tally.failed}/{tally.attempted})")
    return f"{workload:<9} " + "  ".join(cells)


def layer_table(metrics: dict) -> str:
    return "\n".join(f"  {name:<40} {value:.6g}" for name, value in sorted(metrics.items()))


def run_all(args) -> int:
    """Each workload in its own process; one row per workload."""
    status = 0
    for workload in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(child.stderr)
        if child.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    tally, metrics, work = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        print(f"{args.workload} traced ({len(tally.setup_s)} plain + traced pass pairs):")
        print(layer_table(metrics))
        reported = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        print(row(args.workload, tally, metrics, work.tail))
        reported = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    for failure in tally.failures[:10]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
