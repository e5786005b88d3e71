"""Core vocabulary for dynamic constraint networks.

A network owns variables with immutable declared domains, extensional
constraints with their compiled propagation rules, observations, and a
firing trace. Runtime narrowing never deletes a value: it masks the value
under one or more justifications (firing ids or observation ids), so every
removal is reversible and attributable. Every mutation appends to an event
log; replaying the log against a fresh structural copy reproduces the
state exactly.

Each network also keeps an agenda that holds every rule that may be
applicable. Every mutation that can make a rule applicable queues it: a
mask or release that leaves a condition variable instantiated, the
release of a value that a rule's conclusion excludes, a new or restored
constraint. Propagation drains the agenda instead of rescanning every
rule.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

Value = str
VariableId = str
ConstraintId = str
RuleId = str
ObservationId = str
FiringId = int

# A justification is either a firing id (int) or an observation id (str).
Cause = int | str

BOOL_DOMAIN: tuple[Value, Value] = ("false", "true")

ACTIVE = "active"
CANCELLED = "cancelled"


def cause_key(cause: Cause) -> tuple[bool, Cause]:
    """Sort key that keeps mixed firing/observation causes orderable."""
    return (isinstance(cause, str), cause)


class ConditionLiteral(NamedTuple):
    """An instantiation test: holds iff the visible domain is exactly {value}."""

    variable: VariableId
    value: Value


@dataclass
class FiniteDomain:
    """Declared values of one variable plus the masks hiding some of them.

    A value is visible iff it has no entry in ``mask``. The declared tuple
    never changes; all narrowing happens through masks, each counted per
    justification so independent causes can hide the same value.
    """

    variable: VariableId
    declared: tuple[Value, ...]
    mask: dict[Value, Counter] = field(default_factory=dict)

    def visible(self) -> tuple[Value, ...]:
        return tuple(v for v in self.declared if v not in self.mask)

    def is_visible(self, value: Value) -> bool:
        return value not in self.mask

    def visible_count(self) -> int:
        return len(self.declared) - len(self.mask)


@dataclass
class ExtensionalConstraint:
    """An n-ary relation listed by its allowed tuples."""

    id: ConstraintId
    label: str
    scope: tuple[VariableId, ...]
    allowed: frozenset[tuple[Value, ...]]
    active: bool = True
    relaxable: bool = True


@dataclass(frozen=True)
class PropagationRule:
    """A ground rule compiled from one constraint.

    When every condition variable is instantiated to its condition value,
    each conclusion variable may keep only the listed values. ``index`` is
    the 1-based position in the owner's canonical rule order.
    """

    id: RuleId
    owner: ConstraintId
    index: int
    conditions: tuple[ConditionLiteral, ...]
    conclusions: tuple[tuple[VariableId, tuple[Value, ...]], ...]


@dataclass(frozen=True)
class RuleSet:
    """The canonically ordered rules compiled for one constraint."""

    owner: ConstraintId
    rules: tuple[PropagationRule, ...]


@dataclass
class Observation:
    """A measured instantiation of one variable."""

    id: ObservationId
    variable: VariableId
    value: Value
    active: bool = True


@dataclass
class Firing:
    """The trace record of one rule application.

    ``supports`` snapshots, per condition literal, the justifications that
    held the instantiation at firing time. ``effects`` lists every
    (variable, value) exclusion this firing justifies, including values
    that were already hidden by another cause when it fired; cancelling
    the firing releases them all.
    """

    id: FiringId
    rule: RuleId
    supports: tuple[tuple[ConditionLiteral, frozenset[Cause]], ...]
    effects: tuple[tuple[VariableId, Value], ...]
    status: str = ACTIVE


@dataclass
class ChangeRecord:
    """Accumulated effects of one mutating operation."""

    masked: list[tuple[VariableId, Value]] = field(default_factory=list)
    claimed: list[tuple[VariableId, Value]] = field(default_factory=list)
    released: list[tuple[VariableId, Value]] = field(default_factory=list)
    cancelled: list[FiringId] = field(default_factory=list)
    emptied: VariableId | None = None

    def merge(self, other: "ChangeRecord") -> "ChangeRecord":
        self.masked.extend(other.masked)
        self.claimed.extend(other.claimed)
        self.released.extend(other.released)
        self.cancelled.extend(other.cancelled)
        if self.emptied is None:
            self.emptied = other.emptied
        return self

    def __bool__(self) -> bool:
        return bool(self.masked or self.released or self.cancelled)


AgendaEntry = tuple[ConstraintId, int]  # (constraint id, 1-based rule index)


class Agenda:
    """Rules that may be applicable, each queued at most once.

    Entries pop smallest first, or uniformly at random given an rng. A
    random pop swaps the entry out and leaves the heap unordered until
    the next ordered pop, so both are cheap.
    """

    def __init__(self) -> None:
        self.heap: list[AgendaEntry] = []
        self.queued: set[AgendaEntry] = set()
        self.ordered = True

    def __len__(self) -> int:
        return len(self.heap)

    def push(self, entries: Iterable[AgendaEntry]) -> None:
        for entry in entries:
            if entry not in self.queued:
                self.queued.add(entry)
                heapq.heappush(self.heap, entry)

    def pop(self, rng=None) -> AgendaEntry:
        heap = self.heap
        if rng is None:
            if not self.ordered:
                heapq.heapify(heap)
                self.ordered = True
            entry = heapq.heappop(heap)
        else:
            i = rng.randrange(len(heap))
            heap[i], heap[-1] = heap[-1], heap[i]
            entry = heap.pop()
            self.ordered = False
        self.queued.discard(entry)
        return entry

    def copy(self) -> "Agenda":
        twin = Agenda()
        twin.heap = list(self.heap)
        twin.queued = set(self.queued)
        twin.ordered = self.ordered
        return twin


@dataclass
class _Snapshot:
    masks: dict
    firing_status: dict
    active_firing: dict
    watchers: dict
    empty_order: list
    observation_ids: set
    observation_active: dict
    constraint_active: dict
    agenda: Agenda
    event_count: int
    next_firing_id: int


class Network:
    """A constraint network under single-writer mutation.

    ``short_circuit`` makes one propagation pass fire at most one rule per
    constraint; ``rng`` switches rule selection to a randomized order (a
    test mode for exercising confluence).

    ``rule_watch`` maps a condition literal to the rules that test it;
    ``conclusion_watch`` maps a (variable, value) pair to the rules whose
    conclusions exclude that value. Together with the constraint's own
    rule list they say which rules a mutation can make applicable, and
    ``agenda`` holds every rule that may be applicable right now.
    """

    def __init__(self, *, short_circuit: bool = False, rng=None):
        self.domains: dict[VariableId, FiniteDomain] = {}
        self.constraints: dict[ConstraintId, ExtensionalConstraint] = {}
        self.rules: dict[ConstraintId, tuple[PropagationRule, ...]] = {}
        self.rule_index: dict[RuleId, PropagationRule] = {}
        self.rule_watch: dict[ConditionLiteral, list[AgendaEntry]] = {}
        self.conclusion_watch: dict[tuple[VariableId, Value], list[AgendaEntry]] = {}
        self.agenda = Agenda()
        self.observations: dict[ObservationId, Observation] = {}
        self.firings: dict[FiringId, Firing] = {}
        self.active_firing: dict[RuleId, FiringId] = {}
        self.watchers: dict[VariableId, set[FiringId]] = {}
        self.empty_order: list[VariableId] = []
        self.events: list[tuple] = []
        self.next_firing_id: FiringId = 1
        self.short_circuit = short_circuit
        self.rng = rng

    def add_variable(self, name: VariableId, declared: Iterable[Value] = BOOL_DOMAIN) -> FiniteDomain:
        if name in self.domains:
            raise ValueError(f"variable {name!r} already declared")
        values = tuple(declared)
        if not values:
            raise ValueError(f"variable {name!r} needs a non-empty domain")
        if len(set(values)) != len(values):
            raise ValueError(f"variable {name!r} has duplicate domain values")
        dom = FiniteDomain(name, values)
        self.domains[name] = dom
        return dom

    def add_constraint(self, constraint: ExtensionalConstraint, ruleset: RuleSet) -> None:
        """Register a constraint and its rules, checking everything first.

        A rejected call raises ``ValueError`` and leaves the network as it was.
        """
        cid = constraint.id
        if cid in self.constraints:
            raise ValueError(f"constraint {cid!r} already declared")
        if ruleset.owner != cid:
            raise ValueError(f"rule set for {ruleset.owner!r} attached to {cid!r}")
        scope = constraint.scope
        if len(set(scope)) != len(scope):
            raise ValueError(f"constraint {cid!r} repeats a scope variable")
        for var in scope:
            if var not in self.domains:
                raise ValueError(f"constraint {cid!r} uses undeclared variable {var!r}")
        if not constraint.allowed:
            raise ValueError(f"constraint {cid!r} allows no tuples")
        for tup in constraint.allowed:
            if len(tup) != len(scope):
                raise ValueError(f"constraint {cid!r} has a tuple of wrong arity: {tup!r}")
            for var, value in zip(scope, tup):
                if value not in self.domains[var].declared:
                    raise ValueError(
                        f"constraint {cid!r} tuple value {value!r} is outside the domain of {var!r}"
                    )
        seen: set[RuleId] = set()
        for position, rule in enumerate(ruleset.rules, start=1):
            if rule.id in self.rule_index or rule.id in seen:
                raise ValueError(f"rule id {rule.id!r} already registered")
            if rule.index != position:
                raise ValueError(f"rule {rule.id!r} has index {rule.index}, not {position}")
            if rule.owner != cid:
                raise ValueError(f"rule {rule.id!r} of {rule.owner!r} attached to {cid!r}")
            seen.add(rule.id)
            used = {lit.variable for lit in rule.conditions} | {var for var, _ in rule.conclusions}
            if not used <= self.domains.keys():
                raise ValueError(f"rule {rule.id!r} uses an undeclared variable")
        self.constraints[cid] = constraint
        self.rules[cid] = ruleset.rules
        for rule in ruleset.rules:
            self.rule_index[rule.id] = rule
            entry = (cid, rule.index)
            for lit in rule.conditions:
                self.rule_watch.setdefault(lit, []).append(entry)
            for var, vals in rule.conclusions:
                for value in self.domains[var].declared:
                    if value not in vals:
                        self.conclusion_watch.setdefault((var, value), []).append(entry)
        self.queue_rules(cid)

    def domain(self, variable: VariableId) -> FiniteDomain:
        dom = self.domains.get(variable)
        if dom is None:
            raise ValueError(f"unknown variable {variable!r}")
        return dom

    def constraint(self, constraint_id: ConstraintId) -> ExtensionalConstraint:
        constraint = self.constraints.get(constraint_id)
        if constraint is None:
            raise ValueError(f"unknown constraint {constraint_id!r}")
        return constraint

    def rule(self, rule_id: RuleId) -> PropagationRule:
        rule = self.rule_index.get(rule_id)
        if rule is None:
            raise ValueError(f"unknown rule {rule_id!r}")
        return rule

    def queue_rules(self, constraint_id: ConstraintId) -> None:
        """Put every rule of one constraint on the agenda."""
        self.agenda.push((constraint_id, rule.index) for rule in self.rules[constraint_id])

    def first_empty(self) -> VariableId | None:
        return self.empty_order[0] if self.empty_order else None

    def visible_state(self) -> dict[VariableId, tuple[Value, ...]]:
        return {name: dom.visible() for name, dom in self.domains.items()}

    def snapshot(self) -> _Snapshot:
        """Capture everything mutable so a later rollback is exact."""
        return _Snapshot(
            masks={
                name: {value: ctr.copy() for value, ctr in dom.mask.items()}
                for name, dom in self.domains.items()
            },
            firing_status={fid: f.status for fid, f in self.firings.items()},
            active_firing=dict(self.active_firing),
            watchers={var: set(fids) for var, fids in self.watchers.items()},
            empty_order=list(self.empty_order),
            observation_ids=set(self.observations),
            observation_active={oid: obs.active for oid, obs in self.observations.items()},
            constraint_active={cid: c.active for cid, c in self.constraints.items()},
            agenda=self.agenda.copy(),
            event_count=len(self.events),
            next_firing_id=self.next_firing_id,
        )

    def rollback(self, snap: _Snapshot) -> None:
        """Restore the state captured by :meth:`snapshot`."""
        for name, dom in self.domains.items():
            dom.mask = {value: ctr.copy() for value, ctr in snap.masks[name].items()}
        for fid in [f for f in self.firings if f >= snap.next_firing_id]:
            del self.firings[fid]
        for fid, status in snap.firing_status.items():
            self.firings[fid].status = status
        self.active_firing = dict(snap.active_firing)
        self.watchers = {var: set(fids) for var, fids in snap.watchers.items()}
        self.empty_order = list(snap.empty_order)
        for oid in [o for o in self.observations if o not in snap.observation_ids]:
            del self.observations[oid]
        for oid, flag in snap.observation_active.items():
            self.observations[oid].active = flag
        for cid, flag in snap.constraint_active.items():
            self.constraints[cid].active = flag
        del self.events[snap.event_count:]
        self.next_firing_id = snap.next_firing_id
        self.agenda = snap.agenda.copy()


def mask_value(network: Network, variable: VariableId, value: Value, cause: Cause) -> bool:
    """Add one justification hiding ``value``; True if it was visible before."""
    dom = network.domain(variable)
    if value not in dom.declared:
        raise ValueError(f"value {value!r} is outside the domain of {variable!r}")
    newly = value not in dom.mask
    dom.mask.setdefault(value, Counter())[cause] += 1
    network.events.append(("mask", variable, value, cause))
    if newly:
        remaining = dom.visible_count()
        if remaining == 1:
            _queue_instantiated(network, dom)
        elif remaining == 0:
            network.empty_order.append(variable)
            network.events.append(("conflict", variable))
    return newly


def release(network: Network, variable: VariableId, value: Value, cause: Cause) -> bool:
    """Remove one justification added by ``cause``; True if the value became visible."""
    dom = network.domain(variable)
    ctr = dom.mask.get(value)
    if ctr is None or ctr[cause] <= 0:
        raise ValueError(f"no mask on {variable}={value} is justified by {cause!r}")
    network.events.append(("release", variable, value, cause))
    ctr[cause] -= 1
    if ctr[cause] == 0:
        del ctr[cause]
    if ctr:
        return False
    del dom.mask[value]
    if dom.visible_count() == 1:
        if variable in network.empty_order:
            network.empty_order.remove(variable)
        _queue_instantiated(network, dom)
    network.agenda.push(network.conclusion_watch.get((variable, value), ()))
    return True


def _queue_instantiated(network: Network, dom: FiniteDomain) -> None:
    """Queue the rules whose condition on ``dom`` holds now that one value is left."""
    (value,) = dom.visible()
    network.agenda.push(network.rule_watch.get(ConditionLiteral(dom.variable, value), ()))


def restrict(
    network: Network,
    variable: VariableId,
    allowed: Iterable[Value],
    cause: Cause,
    *,
    claim_masked: bool = False,
) -> ChangeRecord:
    """Mask every visible value of ``variable`` outside ``allowed``.

    Returns the masks added; ``emptied`` is set when the visible domain
    became empty (a signal for the caller, never an exception). A call
    that changes nothing produces an empty record and no event.

    With ``claim_masked`` the cause is also added to excluded values that
    are already hidden (reported in ``claimed``), so the exclusion
    survives the release of whichever cause hid them first.
    """
    dom = network.domain(variable)
    keep = frozenset(allowed)
    for value in keep:
        if value not in dom.declared:
            raise ValueError(f"value {value!r} is outside the domain of {variable!r}")
    record = ChangeRecord()
    for value in dom.declared:
        if value in keep:
            continue
        if dom.is_visible(value):
            mask_value(network, variable, value, cause)
            record.masked.append((variable, value))
        elif claim_masked:
            mask_value(network, variable, value, cause)
            record.claimed.append((variable, value))
    if record.masked and dom.visible_count() == 0:
        record.emptied = variable
    return record


def is_instantiated(network: Network, variable: VariableId, value: Value) -> bool:
    dom = network.domain(variable)
    return dom.visible_count() == 1 and dom.is_visible(value)

