"""Seeded random problem generators shared by the test modules.

Networks are combinational circuits: every gate's output is a distinct
variable driven by strictly earlier variables, so the structure is
acyclic and every generated network is satisfiable before observations.
"""

import random
from itertools import product

from dyncsp import GateDecl, NetworkSpec, ObservationDecl, TableDecl, VariableDecl

from oracles import BOOL, GATE_FN, gate_rows

GATE_ARITY = {"and": 2, "or": 2, "not": 1, "xor": 2, "nand": 2, "nor": 2}
LAYERED_KINDS = ("and", "or", "xor", "nand", "nor")


def random_network(seed, max_vars=8, max_gates=6, kinds=None):
    rng = random.Random(seed)
    kinds = list(kinds or GATE_ARITY)
    n_vars = rng.randint(3, max_vars)
    names = [f"V{i}" for i in range(1, n_vars + 1)]
    variables = tuple(VariableDecl(name, BOOL) for name in names)
    gates = []
    driven = set()
    for g in range(rng.randint(1, max_gates)):
        kind = rng.choice(kinds)
        arity = GATE_ARITY[kind]
        candidates = [i for i in range(arity, n_vars) if names[i] not in driven]
        if not candidates:
            break
        out = rng.choice(candidates)
        inputs = rng.sample(range(out), arity)
        driven.add(names[out])
        gates.append(
            GateDecl(
                f"G{g + 1}",
                kind,
                tuple(names[i] for i in inputs),
                names[out],
            )
        )
    return NetworkSpec(variables=variables, gates=tuple(gates))


def faulty_layered_circuit(seed, n_inputs, n_gates, window, faults):
    """A layered circuit with ``faults`` inverted gates, observed where it shows.

    Gate ``G<g>`` drives ``S<g>`` from two of the last ``window`` signals,
    cycling through the two-input kinds. The observations, on every input
    and every third gate output, come from simulating the circuit with
    the inverted gates. Returns (spec, inverted gate ids).
    """
    rng = random.Random(seed)
    signals = [f"I{i}" for i in range(1, n_inputs + 1)]
    values = {name: rng.random() < 0.5 for name in signals}
    gates = []
    for g in range(1, n_gates + 1):
        inputs = tuple(rng.sample(signals[-window:], 2))
        gates.append(GateDecl(f"G{g}", LAYERED_KINDS[g % 5], inputs, f"S{g}"))
        signals.append(f"S{g}")
    inverted = frozenset(rng.sample([gate.id for gate in gates], faults))
    for gate in gates:
        out = GATE_FN[gate.kind](*(values[name] for name in gate.inputs))
        values[gate.output] = out != (gate.id in inverted)
    observed = signals[:n_inputs] + [gate.output for gate in gates[2::3]]
    spec = NetworkSpec(
        variables=tuple(VariableDecl(name, BOOL) for name in signals),
        gates=tuple(gates),
        observations=tuple(
            ObservationDecl(f"M{i}", name, BOOL[values[name]])
            for i, name in enumerate(observed, 1)
        ),
    )
    return spec, inverted


def random_observations(seed, spec, max_count=None):
    rng = random.Random(seed)
    names = [v.name for v in spec.variables]
    limit = len(names) if max_count is None else min(max_count, len(names))
    count = rng.randint(0, limit)
    chosen = rng.sample(names, count)
    return tuple(
        ObservationDecl(f"M{i + 1}", var, rng.choice(BOOL))
        for i, var in enumerate(chosen)
    )


def random_table(seed, max_arity=4, min_arity=1, values=BOOL):
    """A random non-empty relation over ``values`` as (scope, rows)."""
    rng = random.Random(seed)
    arity = rng.randint(min_arity, max_arity)
    scope = tuple(f"V{i}" for i in range(1, arity + 1))
    universe = list(product(values, repeat=arity))
    count = rng.randint(1, len(universe))
    rows = frozenset(rng.sample(universe, count))
    return scope, rows


def random_table_network(seed):
    """Three random tables of arity 3-5 over seven variables with domain a, b, c.

    A rule of an arity-5 table tests up to four variables. The tables need
    not agree, so pins and even the tables alone can empty a domain.
    """
    rng = random.Random(seed)
    values = ("a", "b", "c")
    variables = tuple(VariableDecl(f"V{i}", values) for i in range(1, 8))
    tables = []
    for t in range(1, 4):
        _, rows = random_table(rng.randrange(2**32), max_arity=5, min_arity=3, values=values)
        scope = tuple(rng.sample([v.name for v in variables], len(next(iter(rows)))))
        tables.append(TableDecl(f"T{t}", scope, tuple(sorted(rows))))
    return NetworkSpec(variables=variables, tables=tuple(tables))


def random_sequence(seed, spec, length=12):
    """A valid dynamic op sequence over ``spec`` with relax/restore pairs.

    Returns steps among ("assert", oid, var, value), ("retract", oid),
    ("relax", cid), ("restore", cid). After a relax the next step often
    restores the same constraint, so round trips are exercised.
    """
    rng = random.Random(seed)
    domains = {v.name: v.domain for v in spec.variables}
    names = list(domains)
    cids = [g.id for g in spec.gates] + [t.id for t in spec.tables]
    active_obs = []
    relaxed = []
    steps = []
    next_obs = 1
    pending_restore = None
    while len(steps) < length:
        if pending_restore is not None:
            steps.append(("restore", pending_restore))
            relaxed.remove(pending_restore)
            pending_restore = None
            continue
        ops = ["assert"]
        if active_obs:
            ops.append("retract")
        if [c for c in cids if c not in relaxed]:
            ops.append("relax")
        if relaxed:
            ops.append("restore")
        op = rng.choice(ops)
        if op == "assert":
            oid = f"S{next_obs}"
            next_obs += 1
            var = rng.choice(names)
            steps.append(("assert", oid, var, rng.choice(domains[var])))
            active_obs.append(oid)
        elif op == "retract":
            oid = rng.choice(active_obs)
            active_obs.remove(oid)
            steps.append(("retract", oid))
        elif op == "relax":
            cid = rng.choice([c for c in cids if c not in relaxed])
            relaxed.append(cid)
            steps.append(("relax", cid))
            if rng.random() < 0.5:
                pending_restore = cid
        else:
            cid = rng.choice(relaxed)
            relaxed.remove(cid)
            steps.append(("restore", cid))
    return steps


# Declared orders of the same values: a relation over "a" and "b" fits all
# four, one over "a", "b" and "c" only the last two.
ORDERS = (("a", "b"), ("b", "a"), ("a", "b", "c"), ("c", "a", "b"))


def shared_shape_spec(seed):
    """Tables reusing three relations over a pool of variables with mixed domains."""
    rng = random.Random(seed)
    variables = tuple(VariableDecl(f"V{i}", rng.choice(ORDERS)) for i in range(8))
    tables = []
    for r in range(3):
        arity = rng.randint(2, 3)
        values = "abc"[: rng.randint(2, 3)]
        universe = list(product(values, repeat=arity))
        rows = tuple(rng.sample(universe, rng.randint(1, len(universe))))
        fits = [v.name for v in variables if set(values) <= set(v.domain)]
        for k in range(4):
            if len(fits) >= arity:
                tables.append(TableDecl(f"T{r}{k}", tuple(rng.sample(fits, arity)), rows))
    rng.shuffle(tables)
    return NetworkSpec(variables=variables, tables=tuple(tables))


def oracle_structures(spec):
    """(domains, constraints_by_id) for the oracle, no package involvement."""
    domains = {v.name: v.domain for v in spec.variables}
    constraints = {}
    for g in spec.gates:
        scope = (*g.inputs, g.output)
        constraints[g.id] = (scope, gate_rows(g.kind, len(g.inputs)))
    for t in spec.tables:
        constraints[t.id] = (t.scope, set(t.tuples))
    return domains, constraints
