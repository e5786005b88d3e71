"""Seeded input generators for the benchmark.

Everything here is a pure function of its seed. Networks are returned as
``NetworkSpec`` values and handed to the program as text through
``serialize_network``; the program never sees the seed.
"""

from __future__ import annotations

import random
from itertools import accumulate, product

from dyncsp.textio import (
    GateDecl,
    NetworkSpec,
    ObservationDecl,
    TableDecl,
    VariableDecl,
    serialize_network,
)
from oracles import BOOL, GATE_FN

KINDS = ("and", "or", "xor", "nand", "nor")
# Share of each op kind in a session. No recorded user sessions exist to
# fit these to. Asserts outnumber retracts so the observations build up
# over a session, as measurements do in a diagnosis; relax and restore
# are equal so few gates stay relaxed at once. Narrowing ops
# (assert, restore) make 55 %, widening ones (retract, relax) 45 %.
SESSION_MIX = {"assert": 0.40, "retract": 0.30, "relax": 0.15, "restore": 0.15}


def layered_circuit(seed: int, n_inputs: int, n_gates: int, window: int) -> NetworkSpec:
    """Two-input gates, each reading two distinct signals among the last ``window``.

    Every kind appears equally often (shuffled), so the rule count of the
    network does not drift with the seed.
    """
    rng = random.Random(seed)
    kinds = [KINDS[i % len(KINDS)] for i in range(n_gates)]
    rng.shuffle(kinds)
    signals = [f"I{i}" for i in range(1, n_inputs + 1)]
    gates = []
    for i, kind in enumerate(kinds, start=1):
        a, b = rng.sample(signals[-window:], 2)
        out = f"W{i}"
        gates.append(GateDecl(f"G{i}", kind, (a, b), out))
        signals.append(out)
    variables = tuple(VariableDecl(name, BOOL) for name in signals)
    return NetworkSpec(variables=variables, gates=tuple(gates))


def simulate(spec: NetworkSpec, inputs: dict[str, bool], inverted=frozenset()) -> dict[str, str]:
    """Signal values of a layered circuit; gates in ``inverted`` flip their output."""
    values = dict(inputs)
    for g in spec.gates:
        out = GATE_FN[g.kind](values[g.inputs[0]], values[g.inputs[1]])
        values[g.output] = out != (g.id in inverted)
    return {name: BOOL[bit] for name, bit in values.items()}


def faulty_circuit(seed: int, n_inputs: int, n_gates: int, window: int, faults: int):
    """A circuit with ``faults`` inverted gates, observed on its inputs and every third gate.

    Returns (network text, spec, injected fault ids). The observations come from
    simulating the faulty circuit, so the network text is inconsistent
    unless a fault is masked by the observations chosen.
    """
    rng = random.Random(seed)
    spec = layered_circuit(rng.randrange(2**32), n_inputs, n_gates, window)
    injected = frozenset(rng.sample([g.id for g in spec.gates], faults))
    inputs = {f"I{i}": rng.random() < 0.5 for i in range(1, n_inputs + 1)}
    values = simulate(spec, inputs, injected)
    observed = [f"I{i}" for i in range(1, n_inputs + 1)]
    observed += [g.output for g in spec.gates[2::3]]
    obs = tuple(ObservationDecl(f"M{i}", var, values[var]) for i, var in enumerate(observed, 1))
    spec = NetworkSpec(variables=spec.variables, gates=spec.gates, observations=obs)
    return serialize_network(spec), spec, injected


def session_ops(seed: int, spec: NetworkSpec, n_ops: int, contradictions: int):
    """A valid interactive op sequence over a fault-free circuit.

    Op kinds are drawn with the weights of ``SESSION_MIX``.
    Ops are ("assert", oid, var, value), ("retract", oid), ("relax", gid),
    ("restore", gid) and ("contradict", oid, var, value, clashing oid).
    Asserted values come from simulating one seeded input vector, so only
    a "contradict" conflicts: it asserts the opposite of an active
    observation and is retracted by the very next op.
    """
    rng = random.Random(seed)
    mix = dict(zip(SESSION_MIX, accumulate(SESSION_MIX.values())))  # cumulative thresholds
    n_inputs = sum(1 for v in spec.variables if v.name.startswith("I"))
    truth = simulate(spec, {f"I{i}": rng.random() < 0.5 for i in range(1, n_inputs + 1)})
    names = [v.name for v in spec.variables]
    gids = [g.id for g in spec.gates]
    bad_at = sorted(rng.sample(range(n_ops // 10, n_ops - 1), contradictions))
    ops = []
    observed: dict[str, str] = {}
    relaxed: list[str] = []
    while len(ops) < n_ops:
        oid = f"S{len(ops) + 1}"
        if bad_at and bad_at[0] <= len(ops) < n_ops - 1 and observed:
            bad_at.pop(0)
            clash = rng.choice(sorted(observed))
            var = observed[clash]
            ops.append(("contradict", oid, var, BOOL[truth[var] == "false"], clash))
            ops.append(("retract", oid))
            continue
        roll = rng.random()
        if roll < mix["assert"] or not observed:
            var = rng.choice([n for n in names if n not in observed.values()])
            observed[oid] = var
            ops.append(("assert", oid, var, truth[var]))
        elif roll < mix["retract"]:
            gone = rng.choice(sorted(observed))
            del observed[gone]
            ops.append(("retract", gone))
        elif roll < mix["relax"] or not relaxed:
            gid = rng.choice([g for g in gids if g not in relaxed])
            relaxed.append(gid)
            ops.append(("relax", gid))
        else:
            ops.append(("restore", relaxed.pop(rng.randrange(len(relaxed)))))
    return ops[:n_ops]


def _random_rows(rng: random.Random, domains: list[tuple[str, ...]]) -> tuple[tuple[str, ...], ...]:
    """Half of the tuples, drawn at random: tables of one class cost about the same whatever the seed."""
    universe = list(product(*domains))
    return tuple(sorted(rng.sample(universe, len(universe) // 2)))


# Domain sizes of the scope of each unique random table class (arity 3-5).
UNIQUE_CLASSES = ((2, 3, 3), (3, 3, 3), (2, 2, 2, 2), (2, 2, 3, 3), (2, 2, 2, 2, 2))
TERNARY = ("lo", "mid", "hi")


def _domain(size: int) -> tuple[str, ...]:
    return BOOL if size == 2 else TERNARY[:size]


def compile_netlist(seed: int, n_gates: int, n_shape_tables: int, n_shapes: int, unique_per_class: int):
    """A netlist of repeated gate and table shapes plus unique random tables.

    Returns (network text, spec, ids of the unique tables). Repeated shapes
    are the five gate kinds and ``n_shapes`` ternary relations of a fixed
    cell library, each reused over fresh variables. Unique tables each
    have a relation of their own, ``unique_per_class`` for each class in
    ``UNIQUE_CLASSES``. The constraints are fixed, like the circuit list
    of the diagnose workload: the cost of verifying one arity-5 table
    varies twofold with its random relation. The seed only orders the
    declarations.
    """
    library = random.Random(0)
    variables: list[VariableDecl] = []

    def fresh(size: int) -> str:
        name = f"X{len(variables) + 1}"
        variables.append(VariableDecl(name, _domain(size)))
        return name

    gates = []
    for i in range(1, n_gates + 1):
        a, b, out = fresh(2), fresh(2), fresh(2)
        gates.append(GateDecl(f"G{i}", KINDS[i % len(KINDS)], (a, b), out))
    tables = []
    shapes = []
    for j in range(n_shapes):
        sizes = UNIQUE_CLASSES[j % 2]
        shapes.append((sizes, _random_rows(library, [_domain(s) for s in sizes])))
    for i in range(n_shape_tables):
        sizes, rows = shapes[i % n_shapes]
        tables.append(TableDecl(f"S{i + 1}", tuple(fresh(s) for s in sizes), rows))
    unique = []
    for sizes in UNIQUE_CLASSES:
        for _ in range(unique_per_class):
            tid = f"U{len(unique) + 1}"
            scope = tuple(fresh(s) for s in sizes)
            tables.append(TableDecl(tid, scope, _random_rows(library, [_domain(s) for s in sizes])))
            unique.append(tid)
    rng = random.Random(seed)
    rng.shuffle(gates)
    rng.shuffle(tables)
    spec = NetworkSpec(variables=tuple(variables), gates=tuple(gates), tables=tuple(tables))
    return serialize_network(spec), spec, unique
