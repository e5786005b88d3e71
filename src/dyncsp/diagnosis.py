"""Diagnosis of inconsistent networks by relaxing constraints.

A diagnosis is a minimal set of relaxable constraints whose removal
makes the network consistent with all active observations: a minimal
set that hits the relaxable members of every conflict. ``diagnose``
grows Reiter's hitting-set tree one level per cardinality. A node is a
set of relaxed constraints, shared by every path that reaches it, and
is labelled by the smallest known conflict it does not hit, ties going
by discovery; its children relax one more member of that conflict.
Only a node that hits every known conflict probes: it toggles the
network to its relaxed set and propagates once, which yields either a
diagnosis or a new conflict for later nodes to reuse. A node that
contains a found diagnosis is closed, and so is a node at the
cardinality bound that a known conflict labels. Levels run in order of
cardinality, so every diagnosis found is minimal. ``diagnose`` marks the
network's event trail first and unwinds every event since the mark
afterwards, restoring the rng as well, so diagnosis is observationally
pure.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

from .core import ConstraintId, Network
from .dynamics import set_active
from .engine import CONFLICT, ConflictSet, propagate

Node = frozenset[ConstraintId]


@dataclass(frozen=True)
class Diagnosis:
    constraints: frozenset[ConstraintId]
    cardinality: int


def check_consistent(network: Network) -> tuple[bool, ConflictSet | None]:
    """Propagate and report whether the network reached a fixpoint.

    Under ``short_circuit`` a pass can end with held-back rules still
    queued, so passes repeat until a conflict or an empty agenda.
    """
    outcome = propagate(network)
    while outcome.status != CONFLICT and network.agenda:
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
    mark = network.snapshot()
    try:
        consistent, conflict = check_consistent(network)
        if consistent:
            return [Diagnosis(frozenset(), 0)]
        found = _search(network, conflict, max_cardinality)
    finally:
        network.rollback(mark)
    return [Diagnosis(s, len(s)) for s in found]


def _search(network: Network, root_conflict: ConflictSet, max_cardinality: int) -> list[Node]:
    """Minimal diagnoses up to the bound, level by level, in result order.

    ``conflicts`` holds the relaxable members of every conflict found,
    smallest first, ties in order of discovery; a node is labelled by the
    first one it does not hit, which gives it the fewest children.
    ``relaxed`` is what the network has relaxed right now; a probe
    toggles only the difference to its node.
    """
    conflicts: list[Node] = []

    def add(conflict: ConflictSet) -> Node:
        members = frozenset(c for c in conflict.constraints if network.constraints[c].relaxable)
        insort(conflicts, members, key=len)
        return members

    add(root_conflict)
    found: list[Node] = []
    relaxed: set[ConstraintId] = set()
    level: list[Node] = [frozenset()]
    while level:
        children: set[Node] = set()
        for node in level:
            if any(d <= node for d in found):
                continue
            label = next((c for c in conflicts if node.isdisjoint(c)), None)
            if label is None:
                for cid in sorted(relaxed - node):
                    set_active(network, cid, True)
                for cid in sorted(node - relaxed):
                    set_active(network, cid, False)
                relaxed = set(node)
                consistent, conflict = check_consistent(network)
                if consistent:
                    found.append(node)
                    continue
                label = add(conflict)
            if len(node) < max_cardinality:
                children.update(node | {cid} for cid in label)
        level = sorted(children, key=sorted)
    return found
