"""The benchmark in ``perfbench/`` patches package functions by name.

``perfbench/tracing.py`` wraps every name in ``SPANNED``, ``COUNTED`` and
``Laps.CUTS``, and its ``stopwatch`` times ``runner.build_network`` and
``runner.diagnose``. A traced run fails on a name that no longer resolves,
and a missing cut only coarsens the timing segments, so both would go
unnoticed without this check.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
STOPWATCHED = ("runner.build_network", "runner.diagnose")


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(qualified):
    layer, *path = qualified.split(".")
    target = importlib.import_module(f"dyncsp.{layer}")
    for name in path:
        target = getattr(target, name, None)
    return callable(target)


def test_every_function_the_benchmark_patches_resolves(monkeypatch):
    tracing = load_tracing(monkeypatch)
    names = {*tracing.SPANNED, *tracing.COUNTED, *tracing.Laps.CUTS, *STOPWATCHED}
    assert len(names) > 20
    assert sorted(name for name in names if not resolves(name)) == []
