"""The three workloads, one pass at a time.

Each workload is a closed loop with a single client: the next operation
starts only when the previous one returned. The seed fixes one input per
run, and every pass of the run replays it: it sets the input up (network
text to a ready network, timed as set-up), runs its operations (each
timed, and cut into segments by ``tracing.Laps``), and checks the
results outside every timed region. Because the
passes are identical, each operation is timed once per pass. The package
is always called through its module attributes, so the wrappers of a
traced pass are the functions that run.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from dyncsp import compiler, dynamics, engine, runner, textio
from dyncsp.core import Observation

import checks
import gen
from tracing import stopwatch

clock = time.perf_counter

# Both circuit families are the ROADMAP diagnosis baseline's: 10 inputs,
# 300 two-input gates, each reading from the last 30 signals.
SESSION = {"circuits": 1, "inputs": 10, "gates": 300, "window": 30, "ops": 120, "contradictions": 3, "checkpoint": 40}
DIAGNOSE = {"circuits": range(2), "inputs": 10, "gates": 300, "window": 30, "faults": 2}
DIAGNOSE_SCRIPT = "conflicts\ndiagnose max=2\n"
COMPILE = {"gates": 40, "shape_tables": 20, "shapes": 4, "unique_per_class": 1}


@dataclass
class Tally:
    """What the passes of one run measured and checked."""

    setup_s: list[float] = field(default_factory=list)
    op_s: list[list[float]] = field(default_factory=list)  # per pass, per operation
    # Per operation, each segment's best time so far (see tracing.Laps), or
    # None once the operation's segments differed between passes.
    segments: list[list[float] | None] = field(default_factory=list)
    diagnose_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    retained: tuple[int, int] = (0, 0)

    def check(self, where: str, messages: list[str]) -> None:
        if messages:
            self.failed += 1
            self.failures.extend(f"{where}: {m}" for m in messages)


def _session_op(network, op):
    kind = op[0]
    if kind in ("assert", "contradict"):
        return engine.assert_observation(network, Observation(op[1], op[2], op[3]))
    if kind == "retract":
        return dynamics.retract_observation(network, op[1])
    if kind == "relax":
        return dynamics.relax(network, op[1])
    return dynamics.restore(network, op[1])


def _expect(op, outcome) -> list[str]:
    if isinstance(outcome, Exception):
        return [f"raised {outcome!r}"]
    if op[0] != "contradict":
        return [] if outcome.status == engine.FIXPOINT else [f"unexpected {outcome.status}"]
    if outcome.status != engine.CONFLICT:
        return ["contradiction not reported"]
    blamed = outcome.conflict[1].observations
    return [] if {op[1], op[4]} <= blamed else [f"conflict blames {sorted(blamed)}"]


class Session:
    """Interactive library sessions, one per fault-free circuit of the seed."""

    name = "session"
    tail = 0.9
    setup_in_ops = False

    def __init__(self, seed: int):
        cfg = SESSION
        rng = random.Random(seed)
        self.sessions = []
        for _ in range(cfg["circuits"]):
            circuit_seed = rng.randrange(2**32)
            spec = gen.layered_circuit(circuit_seed, cfg["inputs"], cfg["gates"], cfg["window"])
            ops = gen.session_ops(circuit_seed, spec, cfg["ops"], cfg["contradictions"])
            self.sessions.append((spec, textio.serialize_network(spec), ops))
        self.visible: dict[tuple[int, int], dict] = {}  # checkpoint -> state the oracle passed

    def run_pass(self, tally: Tally, laps, tracer=None) -> None:
        setup = 0.0
        events = firings = 0
        for k, (spec, text, ops) in enumerate(self.sessions):
            start = clock()
            network = runner.build_network(textio.parse_network(text))
            setup += clock() - start
            self._session(k, spec, ops, network, tally, laps, tracer)
            events += len(network.events)
            firings += len(network.firings)
        tally.setup_s.append(setup)
        tally.retained = (events, firings)

    def _session(self, k, spec, ops, network, tally, laps, tracer) -> None:
        active = {g.id for g in spec.gates}
        pins: dict[str, tuple[str, str]] = {}
        due = False
        for i, op in enumerate(ops, 1):
            if tracer is not None:
                tracer.request = (k, i)
            laps.start()
            try:
                outcome = _session_op(network, op)
            except Exception as exc:  # a raising op is a failed op; the session goes on
                outcome = exc
            laps.stop()
            tally.attempted += 1
            failures = _expect(op, outcome)
            if op[0] == "assert":
                pins[op[1]] = (op[2], op[3])
            elif op[0] == "retract":
                pins.pop(op[1], None)
            elif op[0] == "relax":
                active.discard(op[1])
            elif op[0] == "restore":
                active.add(op[1])
            due = due or i % SESSION["checkpoint"] == 0 or i == len(ops)
            if due and network.first_empty() is None:
                due = False
                failures += self._check(k, i, network, spec, active, pins)
            tally.check(f"session {k} op {i} {op[:2]}", failures)


    def _check(self, k, i, network, spec, active, pins) -> list[str]:
        """The oracle checks the first pass; later passes must match it."""
        visible = network.visible_state()
        if (k, i) in self.visible:
            return [] if visible == self.visible[(k, i)] else ["state differs from the first pass"]
        self.visible[(k, i)] = visible
        return checks.session_state(network, spec, active, list(pins.values()))


class Diagnose:
    """The ``dyncsp run --json`` path over a fixed list of faulty circuits, in seeded order."""

    name = "diagnose"
    tail = None  # two circuits are too few for a tail
    setup_in_ops = True  # parse and build run inside each circuit's timed run

    def __init__(self, seed: int):
        cfg = DIAGNOSE
        self.circuits = [
            gen.faulty_circuit(c, cfg["inputs"], cfg["gates"], cfg["window"], cfg["faults"])
            for c in cfg["circuits"]
        ]
        random.Random(seed).shuffle(self.circuits)
        self.reports: dict[int, str] = {}

    def run_pass(self, tally: Tally, laps, tracer=None) -> None:
        setup = 0.0
        with stopwatch(runner, "build_network") as build, stopwatch(runner, "diagnose") as inside:
            for k, (text, spec, injected) in enumerate(self.circuits):
                if tracer is not None:
                    tracer.request = k
                built = build["s"]
                start = laps.start()
                try:
                    parsed = textio.parse_network(text)
                    parse = clock() - start
                    report = runner.run_script(parsed, textio.parse_script(DIAGNOSE_SCRIPT, parsed))
                    out = report.to_json()
                except Exception as exc:  # a raising run is a failed op; the pass goes on
                    parse, out = 0.0, exc
                laps.stop()
                setup += parse + build["s"] - built
                tally.attempted += 1
                tally.check(f"diagnose circuit {k}", self._check(k, spec, injected, out))
        tally.setup_s.append(setup)
        tally.diagnose_s.append(inside["s"])

    def _check(self, k, spec, injected, out) -> list[str]:
        if isinstance(out, Exception):
            return [f"raised {out!r}"]
        if k in self.reports:
            return [] if out == self.reports[k] else ["report differs from the first pass"]
        self.reports[k] = out
        found = [frozenset(d) for d in json.loads(out)["diagnoses"]]
        return checks.diagnoses(spec, found, injected)


class Compile:
    """The ``dyncsp compile`` + ``dyncsp verify`` path on one netlist."""

    name = "compile"
    tail = 0.8
    setup_in_ops = False

    def __init__(self, seed: int):
        cfg = COMPILE
        self.text, spec, unique = gen.compile_netlist(
            seed, cfg["gates"], cfg["shape_tables"], cfg["shapes"], cfg["unique_per_class"]
        )
        self.unique = {t.id: t for t in spec.tables if t.id in unique}
        self.rules: dict[str, tuple] = {}  # unique table -> rules the oracle passed

    def run_pass(self, tally: Tally, laps, tracer=None) -> None:
        start = clock()
        network = runner.build_network(textio.parse_network(self.text), assert_observations=False)
        tally.setup_s.append(clock() - start)
        for i, (cid, constraint) in enumerate(network.constraints.items()):
            if tracer is not None:
                tracer.request = i
            declared = {v: network.domains[v].declared for v in constraint.scope}
            laps.start()
            try:
                passed = compiler.verify_rules(network.rules[cid], constraint, declared).passed
            except Exception as exc:  # a raising verification is a failed op; the pass goes on
                passed = exc
            laps.stop()
            tally.attempted += 1
            failures = [] if passed is True else [f"verify_rules: {passed}"]
            table = self.unique.get(cid)
            if table is not None:
                failures += self._check(cid, network.rules[cid], table, declared)
            tally.check(f"compile constraint {cid}", failures)


    def _check(self, cid, rules, table, declared) -> list[str]:
        """The oracle checks the first pass; later passes must compile the same rules."""
        if cid in self.rules:
            return [] if tuple(rules) == self.rules[cid] else ["rules differ from the first pass"]
        self.rules[cid] = tuple(rules)
        return checks.table_rules(rules, table.scope, set(table.tuples), declared)


WORKLOADS = {w.name: w for w in (Session, Diagnose, Compile)}
