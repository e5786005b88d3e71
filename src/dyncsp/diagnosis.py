"""Diagnosis of inconsistent networks by relaxing constraints.

A diagnosis is a minimal set of relaxable constraints whose removal
makes the network consistent with all active observations. The search
walks the tree of conflict sets depth first: every conflict must lose at
least one member, so branching on the relaxable constraints of the
current conflict reaches every minimal diagnosis within the cardinality
bound. Each probe reuses the incremental relax/restore machinery; the
network is snapshotted first and rolled back afterwards, so diagnosis is
observationally pure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ConstraintId, Network
from .dynamics import relax, restore
from .engine import CONFLICT, ConflictSet, propagate


@dataclass(frozen=True)
class Diagnosis:
    constraints: frozenset[ConstraintId]
    cardinality: int


def check_consistent(network: Network) -> tuple[bool, ConflictSet | None]:
    """Propagate and report whether the network reached a fixpoint."""
    outcome = propagate(network)
    if outcome.status == CONFLICT:
        return False, outcome.conflict[1]
    return True, None


def diagnose(network: Network, max_cardinality: int) -> list[Diagnosis]:
    """All minimal diagnoses of cardinality up to ``max_cardinality``.

    A consistent network has the single empty diagnosis. Results are
    sorted by cardinality, then by constraint ids.
    """
    if max_cardinality < 1:
        raise ValueError("max_cardinality must be at least 1")
    snapshot = network.snapshot()
    found: list[frozenset[ConstraintId]] = []
    try:
        consistent, _ = check_consistent(network)
        if consistent:
            return [Diagnosis(frozenset(), 0)]
        _explore(network, frozenset(), max_cardinality, found, set())
    finally:
        network.rollback(snapshot)
    minimal = [s for s in found if not any(o < s for o in found)]
    minimal.sort(key=lambda s: (len(s), sorted(s)))
    return [Diagnosis(s, len(s)) for s in minimal]


def _explore(
    network: Network,
    relaxed: frozenset[ConstraintId],
    max_cardinality: int,
    found: list[frozenset[ConstraintId]],
    visited: set[frozenset[ConstraintId]],
) -> None:
    """Depth-first search below the node that has ``relaxed`` relaxed.

    A module-level function rather than a closure: a recursive closure
    references itself through its cell, and that cycle would keep the
    network alive until the cyclic garbage collector ran.
    """
    if relaxed in visited:
        return
    visited.add(relaxed)
    if any(d <= relaxed for d in found):
        return
    consistent, conflict = check_consistent(network)
    if consistent:
        found.append(relaxed)
        return
    if len(relaxed) >= max_cardinality:
        return
    candidates = sorted(
        cid
        for cid in conflict.constraints
        if network.constraints[cid].relaxable and cid not in relaxed
    )
    for cid in candidates:
        relax(network, cid)
        _explore(network, relaxed | {cid}, max_cardinality, found, visited)
        restore(network, cid)
