"""Truth tables for the built-in boolean gate vocabulary."""

from __future__ import annotations

from functools import cache
from itertools import product

from .core import BOOL_DOMAIN, Value

# gate kind -> number of inputs
GATES: dict[str, int] = {
    "and": 2,
    "or": 2,
    "not": 1,
    "xor": 2,
    "nand": 2,
    "nor": 2,
}

_EVAL = {
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
    "xor": lambda a, b: a != b,
    "nand": lambda a, b: not (a and b),
    "nor": lambda a, b: not (a or b),
    "not": lambda a: not a,
}


@cache
def gate_table(kind: str, arity: int) -> frozenset[tuple[Value, ...]]:
    """Allowed (inputs..., output) tuples of a gate; one shared frozenset per kind."""
    if kind not in GATES:
        raise ValueError(f"unknown gate kind {kind!r}")
    if arity != GATES[kind]:
        raise ValueError(f"gate kind {kind!r} takes {GATES[kind]} inputs, not {arity}")
    fn = _EVAL[kind]
    rows = []
    for bits in product((False, True), repeat=arity):
        out = fn(*bits)
        rows.append(tuple(BOOL_DOMAIN[b] for b in (*bits, out)))
    return frozenset(rows)
