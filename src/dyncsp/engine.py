"""Forward chaining of compiled rules with a justification trace.

Every rule application is recorded as a firing that remembers which
justifications held its conditions and which masks it created, so any
narrowing can later be undone or explained. Propagation stops at the
first variable that loses its last value and reports the conflict as the
set of constraints and observations reachable through the justification
graph of that variable. A rule is named by its key (constraint id, rule
index) and read in the packed form of its constraint's template; the
engine never reads a bound rule object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    Cause,
    ConstraintId,
    FiniteDomain,
    Firing,
    FiringId,
    Network,
    Observation,
    ObservationId,
    RuleKey,
    VariableId,
    cause_key,
    conditions_hold,
    exclude,
)

FIXPOINT = "fixpoint"
CONFLICT = "conflict"


@dataclass(frozen=True)
class ConflictSet:
    """Constraints and observations that jointly support an empty domain."""

    constraints: frozenset[ConstraintId]
    observations: frozenset[ObservationId]


@dataclass
class PropagationOutcome:
    """What one propagation pass did."""

    status: str
    fired: list[FiringId] = field(default_factory=list)
    conflict: tuple[VariableId, ConflictSet] | None = None


def _would_shrink(doms: tuple[FiniteDomain, ...], exclusions) -> bool:
    """True iff some packed (position, bits) exclusion meets a visible value."""
    for position, bits in exclusions:
        if doms[position].visible_bits & bits:
            return True
    return False


def _packed(network: Network, rule: RuleKey):
    """``rule``'s constraint, its scope domains and the rule's packed form.

    Raises ``ValueError`` for a key that names no rule of the network.
    """
    cid, index = rule
    constraint = network.constraints.get(cid)
    if constraint is None or not 1 <= index <= len(constraint.template.packed):
        raise ValueError(f"unknown rule '{cid}.R{index}'")
    return constraint, constraint.domains, constraint.template.packed[index - 1]


def rule_applicable(network: Network, rule: RuleKey) -> bool:
    """True iff firing the rule keyed ``rule`` right now would be legal and useful."""
    constraint, doms, (conditions, exclusions) = _packed(network, rule)
    if not constraint.active:
        return False
    if rule in network.active_firing:
        return False
    return conditions_hold(doms, conditions) and _would_shrink(doms, exclusions)


def fire_rule(network: Network, rule: RuleKey) -> FiringId | None:
    """Apply the rule keyed ``rule``, recording the firing and its justifications.

    Returns the new firing id. A call whose conclusions would not remove
    anything visible is a no-op: it returns ``None`` and leaves no trace.
    A firing that does shrink something claims a justification on every
    value its conclusions exclude, even values another cause already
    hides, so its exclusions stay in force if that other cause is later
    released. Supports and masks come from the template's packed
    conditions and exclusions over the constraint's scope domains. The
    firing is its own ``fire`` event and keeps ``rule`` itself as its
    key, so a firing popped from the agenda makes no new key.
    """
    _, doms, (conditions, exclusions) = _packed(network, rule)
    cid, index = rule
    if rule in network.active_firing:
        raise ValueError(f"rule '{cid}.R{index}' already has an active firing")
    for position, bit in conditions:
        dom = doms[position]
        if dom.visible_bits != bit:
            raise ValueError(
                f"condition {dom.variable}={dom.value(bit)} of '{cid}.R{index}' does not hold"
            )
    if not _would_shrink(doms, exclusions):
        return None
    supports = []
    for position, bit in conditions:
        dom = doms[position]
        causes = set().union(*dom.mask.values())
        supports.append((dom.variable, dom.value(bit), tuple(sorted(causes, key=cause_key))))
    fid = network.next_firing_id
    network.next_firing_id += 1
    hidden, claimed = [], []
    for position, bits in exclusions:
        newly_hidden, also_claimed = exclude(network, doms[position], bits, fid)
        hidden += newly_hidden
        claimed += also_claimed
    firing = Firing("fire", fid, rule, tuple(supports), tuple(hidden + claimed))
    network.firings[fid] = firing
    network.active_firing[rule] = fid
    network.events.append(firing)
    return fid


def extract_conflict(network: Network, variable: VariableId) -> ConflictSet:
    """Constraints and observations behind the emptiness of ``variable``.

    Walks the current justifications of the masks on ``variable`` and,
    through each firing, of the masks holding that firing's conditions.
    """
    dom = network.domain(variable)
    if dom.visible_count() != 0:
        raise ValueError(f"variable {variable!r} is not empty")
    constraints: set[ConstraintId] = set()
    observations: set[ObservationId] = set()
    seen: set[FiringId] = set()
    stack: list[Cause] = []
    for value in dom.declared:
        stack.extend(dom.mask.get(value, ()))
    while stack:
        cause = stack.pop()
        if isinstance(cause, str):
            observations.add(cause)
            continue
        if cause in seen:
            continue
        seen.add(cause)
        cid, index = network.firings[cause].rule
        constraints.add(cid)
        constraint = network.constraints[cid]
        for position, bit in constraint.template.packed[index - 1][0]:
            cdom = constraint.domains[position]
            held = cdom.value(bit)
            for value, causes in cdom.mask.items():
                if value != held:
                    stack.extend(causes)
    return ConflictSet(frozenset(constraints), frozenset(observations))


def _conflict_outcome(
    network: Network, variable: VariableId, fired: list[FiringId]
) -> PropagationOutcome:
    return PropagationOutcome(CONFLICT, fired, (variable, extract_conflict(network, variable)))


def propagate(network: Network) -> PropagationOutcome:
    """Fire applicable rules to a fixpoint or to the first new empty domain.

    While some variable is already empty the network is frozen: the pass
    fires nothing, reports the standing conflict and leaves the agenda
    as it is. Otherwise the pass drains ``network.agenda``, which holds
    every rule that may be applicable, taking entries in (constraint id,
    rule index) order so runs are reproducible; a network built with an
    rng draws entries at random instead. A new conflict ends the pass and
    leaves the remaining entries queued. Under ``short_circuit`` the
    entries of a constraint that already fired in this pass are held
    back and queued again for the next pass.
    """
    standing = network.first_empty()
    if standing is not None:
        return _conflict_outcome(network, standing, [])
    agenda = network.agenda
    fired: list[FiringId] = []
    exhausted: set[ConstraintId] = set()
    held: list[RuleKey] = []
    try:
        while agenda:
            rule = agenda.pop(network.rng)
            cid = rule[0]
            if not network.constraints[cid].active:
                continue  # restore queues the constraint's rules again
            if cid in exhausted:
                held.append(rule)
                continue
            if not rule_applicable(network, rule):
                continue
            fired.append(fire_rule(network, rule))
            if network.short_circuit:
                exhausted.add(cid)
            emptied = network.first_empty()
            if emptied is not None:
                return _conflict_outcome(network, emptied, fired)
        return PropagationOutcome(FIXPOINT, fired)
    finally:
        for cid, index in held:
            agenda.push(cid, (index,))


def assert_observation(network: Network, observation: Observation) -> PropagationOutcome:
    """Register an active copy of ``observation``, pin its variable, and propagate.

    The pin masks every other declared value, even values other causes
    already hide, so it stays in force if those causes are withdrawn. A pin
    that contradicts the current domain is itself the conflict; it is
    reported, not raised, and names every justification involved. A
    rejected observation raises ``ValueError`` and leaves the network as it
    was. The caller's ``observation`` is never written to.
    """
    oid, variable, value = observation.id, observation.variable, observation.value
    if not isinstance(oid, str):
        raise ValueError(f"observation id {oid!r} is not a string")
    if oid in network.observations:
        raise ValueError(f"observation id {oid!r} already used")
    if value not in network.domain(variable).declared:
        raise ValueError(f"value {value!r} is outside the domain of {variable!r}")
    network.observations[oid] = Observation(oid, variable, value)
    network.events.append(("observe", oid, variable, value))
    dom = network.domains[variable]
    exclude(network, dom, ~dom.bit(value), oid)  # every other declared value
    standing = network.first_empty()
    if standing is not None:
        return _conflict_outcome(network, standing, [])
    return propagate(network)
