"""Per-layer tracing, patched into the package from outside it.

Each traced function is replaced by a wrapper under every name a caller
looks it up by: ``dyncsp.dynamics.propagate`` and ``dyncsp.engine.propagate``
are the same function bound in two module namespaces, and both get the
same wrapper. Coarse calls record a span (start, end, parent, request);
the four hot functions are only counted, so a diagnosis pass with
millions of rule checks keeps a small trace. A span's self time is its
duration minus the durations of the spans directly inside it, so the
time of the counted functions lands in the self time of their caller.

Everything runs in one thread with no queue between layers, so no layer
ever waits for another and there is no "waited" time to report.

``stopwatch`` uses the same rebinding to time one function during a
plain pass.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("textio", "compiler", "runner", "engine", "core", "dynamics", "diagnosis")

SPANNED = (
    "textio.parse_network",
    "textio.parse_script",
    "compiler.generate",
    "compiler.verify_rules",
    "runner.build_network",
    "runner.run_script",
    "runner.Report.to_json",
    "engine.propagate",
    "engine.assert_observation",
    "engine.extract_conflict",
    "dynamics.retract_observation",
    "dynamics.relax",
    "dynamics.restore",
    "dynamics.cancel_firing",
    "diagnosis.diagnose",
    "diagnosis.check_consistent",
    "core.Network.snapshot",
    "core.Network.rollback",
)
COUNTED = ("engine.rule_applicable", "engine.fire_rule", "core.mask_value", "core.release")

# Work counters derived from a traced call's result.
_RESULT_COUNTERS = {
    "compiler.generate": ("compiler.rules_emitted", lambda ruleset: len(ruleset.rules)),
    "dynamics.cancel_firing": ("dynamics.cancelled", lambda record: len(record.cancelled)),
    "diagnosis.diagnose": ("diagnosis.diagnoses", len),
}


def rebind(target, attr: str, value, undo: list) -> None:
    """Set ``target.attr`` to ``value``, remembering in ``undo`` what it was."""
    undo.append((target, attr, vars(target)[attr]))
    setattr(target, attr, value)


def unbind(undo: list) -> None:
    """Undo every ``rebind`` recorded in ``undo``, last first."""
    for target, attr, original in reversed(undo):
        setattr(target, attr, original)
    undo.clear()


@contextmanager
def stopwatch(module, name: str):
    """Time every call of ``module.name`` while the block runs; yields {"s": seconds}."""
    original = getattr(module, name)
    watch = {"s": 0.0}
    undo: list = []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            watch["s"] += time.perf_counter() - start

    rebind(module, name, timed, undo)
    try:
        yield watch
    finally:
        unbind(undo)


def rebind_everywhere(modules, original, wrapper, undo: list) -> None:
    """Replace ``original`` by ``wrapper`` under every name it has in ``modules``."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                rebind(module, attr, wrapper, undo)


class Laps:
    """Cuts each timed operation into segments at every call and return of ``CUTS``.

    ``start`` and ``stop`` bracket one operation. While it runs, every call
    into and out of a cut function ends one segment and starts the next.
    Every pass of a run replays the same input, so the i-th segment of an
    operation in one pass is the same work as in any other pass, and the
    passes can be compared segment by segment. Segments are far shorter
    than operations: a diagnosis run of seconds splits into probes of
    milliseconds, a ``verify_rules`` call into one closure per start
    assignment. ``ops`` holds the segment durations of each operation.
    """

    CUTS = ("engine.propagate", "compiler.generate", "compiler.closure")

    def __init__(self):
        self.ops: list[list[float]] = []
        self._last: float | None = None
        self._undo: list = []

    def start(self) -> float:
        self.ops.append([])
        self._last = time.perf_counter()
        return self._last

    def stop(self) -> None:
        self.cut()
        self._last = None

    def cut(self) -> None:
        if self._last is not None:
            now = time.perf_counter()
            self.ops[-1].append(now - self._last)
            self._last = now

    def install(self) -> None:
        modules = _modules()
        for qualified in self.CUTS:
            layer, name = qualified.split(".")
            original = getattr(importlib.import_module(f"dyncsp.{layer}"), name, None)
            if original is not None:  # a renamed cut only makes the segments coarser
                rebind_everywhere(modules, original, self._wrap(original), self._undo)

    def remove(self) -> None:
        unbind(self._undo)

    def _wrap(self, fn):
        cut = self.cut

        def cutting(*args, **kwargs):
            cut()
            try:
                return fn(*args, **kwargs)
            finally:
                cut()

        return cutting


def _modules():
    return [importlib.import_module("dyncsp")] + [
        importlib.import_module(f"dyncsp.{name}") for name in (*LAYERS, "cli", "gates")
    ]


class Tracer:
    """Spans and counts of one traced pass; ``install`` patches, ``remove`` undoes."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, request, name, start, end, self)
        self.counts: Counter = Counter()
        self.request = 0
        self._stack: list[list] = []  # [span id, time covered by child spans]
        self._undo: list[tuple] = []

    def install(self) -> None:
        modules = _modules()
        for qualified in SPANNED + COUNTED:
            layer, *path = qualified.split(".")
            owner = importlib.import_module(f"dyncsp.{layer}")
            if len(path) == 2:
                cls = getattr(owner, path[0])
                rebind(cls, path[1], self._wrap(qualified, vars(cls)[path[1]]), self._undo)
                continue
            original = getattr(owner, path[0])
            rebind_everywhere(modules, original, self._wrap(qualified, original), self._undo)

    def remove(self) -> None:
        unbind(self._undo)

    def _wrap(self, name: str, fn):
        counts = self.counts
        if name in COUNTED:
            key = f"{name}.calls"

            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        derived = _RESULT_COUNTERS.get(name)

        def spanned(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((sid, parent, self.request, name, start, end, end - start - frame[1]))
            if derived is not None:
                counts[derived[0]] += derived[1](result)
            return result

        return spanned

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds, p50 milliseconds."""
        durations = defaultdict(list)
        selfs = defaultdict(float)
        for _, _, _, name, start, end, own in self.spans:
            durations[name].append(end - start)
            selfs[name] += own
        return {
            name: {
                "calls": len(values),
                "s": sum(values),
                "self_s": selfs[name],
                "p50_ms": 1000 * statistics.median(values),
            }
            for name, values in durations.items()
        }
