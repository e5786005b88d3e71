"""Core vocabulary for dynamic constraint networks.

A network owns variables, each one record of its immutable declared
values, masks and watch list; extensional constraints, each one record
of its relation, compiled rule template and scope domains; observations;
and a firing trace that keeps one record per rule application, which is also
its ``fire`` event. Inside the network a rule is its key, the pair
(constraint id, 1-based rule index), read in the packed form of its
constraint's template. Only rule dumps and verification read rule
objects, through the plain dict ``Network.rules``, whose entries rename
the template's rules onto the constraint on first read. Runtime
narrowing never deletes a value: it masks the value under a set of
justifications (firing ids or observation ids), so every removal is
reversible and attributable. Every mutation appends to an event log;
replaying the log against a fresh structural copy reproduces the state
exactly. The log is also the undo trail: ``Network.rollback`` inverts
the events logged since a mark, newest first, and unregisters the
constraints and variables added since, so undo costs what changed, not
the size of the network.

Each network also keeps an agenda under one invariant: every applicable
rule is queued, and a rule is queued only when its conditions hold.
Every mutation that can make a rule applicable queues it once its
conditions hold: a mask or release that leaves a condition variable
instantiated, the release of a value that a rule's conclusion excludes,
a new or restored constraint. Propagation drains the agenda instead of
rescanning every rule. The walk in which a release queues rules also
finds the active firings it leaves unfounded, which the release
returns for ``dyncsp.dynamics.cancel_firing`` to withdraw.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
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

# A rule is its key inside a network: (constraint id, 1-based rule index).
RuleKey = tuple[ConstraintId, int]

BOOL_DOMAIN: tuple[Value, Value] = ("false", "true")


def cause_key(cause: Cause) -> tuple[bool, Cause]:
    """Sort key that keeps mixed firing/observation causes orderable."""
    return (isinstance(cause, str), cause)


@dataclass(slots=True)
class FiniteDomain:
    """One variable's whole record: declared values, masks and watch list.

    The declared tuple never changes; all narrowing happens through
    ``mask``, which maps each hidden value to the set of causes hiding it.
    ``visible_bits`` mirrors the mask as one int: bit i is set iff
    ``declared[i]`` is visible, as in :class:`RuleTemplate`; the
    compiler's ``_Layout`` orders a variable's bits the other way round.
    ``hide`` and ``unhide`` are the only writers of both, so the variable
    is instantiated to a value exactly when ``visible_bits`` equals that
    value's :meth:`bit`. ``occurrences`` is the watch list: the
    variable's (constraint, scope position) pairs.
    """

    variable: VariableId
    declared: tuple[Value, ...]
    mask: dict[Value, set[Cause]] = field(default_factory=dict)
    occurrences: list[tuple[ConstraintId, int]] = field(
        default_factory=list, repr=False, compare=False
    )
    visible_bits: int = field(init=False)

    def __post_init__(self) -> None:
        self.visible_bits = sum(1 << i for i, v in enumerate(self.declared) if v not in self.mask)

    def value(self, bit: int) -> Value:
        """The declared value whose bit is ``bit``."""
        return self.declared[bit.bit_length() - 1]

    def bit(self, value: Value) -> int:
        """The bit of a declared ``value``; 0 for any other value."""
        return 1 << self.declared.index(value) if value in self.declared else 0

    def visible(self) -> tuple[Value, ...]:
        return tuple(v for v in self.declared if v not in self.mask)

    def visible_count(self) -> int:
        return len(self.declared) - len(self.mask)

    def hide(self, value: Value, cause: Cause) -> bool:
        """Add ``cause`` to the causes hiding ``value``; True if it was visible."""
        newly = value not in self.mask
        self.mask.setdefault(value, set()).add(cause)
        self.visible_bits &= ~(1 << self.declared.index(value))
        return newly

    def unhide(self, value: Value, cause: Cause) -> bool:
        """Remove ``cause`` from the causes hiding ``value``; True if it became visible."""
        causes = self.mask[value]
        causes.remove(cause)
        if not causes:
            del self.mask[value]
            self.visible_bits |= 1 << self.declared.index(value)
        return not causes


@dataclass(slots=True)
class ExtensionalConstraint:
    """An n-ary relation listed by its allowed tuples, and its record in a network.

    ``Network.add_constraint`` registers its own copy, whose ``template``
    and ``domains`` (the scope's domains in scope order) it sets.
    """

    id: ConstraintId
    label: str
    scope: tuple[VariableId, ...]
    allowed: frozenset[tuple[Value, ...]]
    active: bool = True
    relaxable: bool = True
    template: RuleTemplate | None = field(default=None, init=False, repr=False, compare=False)
    domains: tuple[FiniteDomain, ...] = field(default=(), init=False, repr=False, compare=False)


@dataclass(frozen=True)
class PropagationRule:
    """A ground rule compiled from one constraint.

    Each condition is a ``(variable, value)`` pair that holds when the
    variable's visible domain is exactly ``{value}``. When every condition
    holds, each conclusion variable may keep only the listed values.
    ``index`` is the 1-based position in the owner's canonical rule order.
    """

    id: RuleId
    owner: ConstraintId
    index: int
    conditions: tuple[tuple[VariableId, Value], ...]
    conclusions: tuple[tuple[VariableId, tuple[Value, ...]], ...]


class RuleTemplate:
    """The rules compiled for ``owner``, validated once, for every constraint of its shape.

    A shape is the allowed tuples plus the declared values at each scope
    position, and compiling depends on nothing else, so the template's
    rules renamed onto another constraint of the shape are exactly the
    rules ``generate`` would give it. ``generate`` returns one; built by
    hand, it checks hand-written rules against the constraint and
    ``domains``, the declared values at each scope position.
    A value at scope position p is named by its bit in the declared
    values there, as in :class:`FiniteDomain`. ``packed[i - 1]`` is rule
    i as ``(conditions, exclusions)``: its (position, bit) conditions in
    order, and per concluded position the bits its conclusions exclude.
    ``conditioned[p][b]`` and ``excluding[p][b]`` list the indices of the
    rules that test bit b at position p and whose conclusions exclude it
    there; ``unconditional`` those that test nothing. Rule i of ``owner``
    must be named ``"{owner}.R{i}"``, so ids are unique by construction.
    ``report`` is where ``verify_rules`` keeps its one check of the
    template's own rules, which holds for every constraint of the shape.
    """

    def __init__(self, constraint: ExtensionalConstraint, domains: tuple, rules: tuple):
        cid, scope, allowed = constraint.id, tuple(constraint.scope), frozenset(constraint.allowed)
        domains = tuple(map(tuple, domains))
        check_table(constraint, domains)
        self.owner, self.scope, self.allowed = cid, scope, allowed
        self.domains, self.rules = domains, rules
        self.report = None
        self.packed: list[tuple[list[tuple[int, int]], list[tuple[int, int]]]] = []
        self.conditioned: list[dict[int, list[int]]] = [{} for _ in scope]
        self.excluding: list[dict[int, list[int]]] = [{} for _ in scope]
        self.unconditional = [rule.index for rule in rules if not rule.conditions]
        position = {var: p for p, var in enumerate(scope)}
        bits = [{value: 1 << i for i, value in enumerate(declared)} for declared in domains]
        for index, rule in enumerate(rules, start=1):
            if rule.index != index:
                raise ValueError(f"rule {rule.id!r} has index {rule.index}, not {index}")
            if rule.owner != cid:
                raise ValueError(f"rule {rule.id!r} of {rule.owner!r} attached to {cid!r}")
            if rule.id != f"{cid}.R{index}":
                raise ValueError(f"rule {rule.id!r} is not named '{cid}.R{index}'")
            for var, value in (*rule.conditions, *((v, x) for v, xs in rule.conclusions for x in xs)):
                if var not in position:
                    raise ValueError(f"rule {rule.id!r} uses {var!r}, outside the scope of {cid!r}")
                if value not in bits[position[var]]:
                    raise ValueError(
                        f"rule {rule.id!r} names value {value!r} outside the domain of {var!r}"
                    )
            conditions = [(position[var], bits[position[var]][value]) for var, value in rule.conditions]
            exclusions = []
            for p, bit in conditions:
                self.conditioned[p].setdefault(bit, []).append(index)
            for var, vals in rule.conclusions:
                p = position[var]
                excluded = 0
                for value, bit in bits[p].items():
                    if value not in vals:
                        excluded |= bit
                        self.excluding[p].setdefault(bit, []).append(index)
                exclusions.append((p, excluded))
            self.packed.append((conditions, exclusions))

    def fits(self, allowed, domains: tuple) -> bool:
        """Whether a table of ``allowed`` tuples over ``domains``, the declared
        values at each scope position, has this template's shape."""
        return self.domains == domains and self.allowed == frozenset(allowed)


def check_table(constraint: ExtensionalConstraint, domains: tuple) -> None:
    """Reject a table that is no relation over ``domains``, the declared values per scope position.

    ``generate``, ``verify_rules`` and ``RuleTemplate`` all check a table
    here, so they reject the same tables with the same messages. Of
    several bad tuples the message names the first by ``repr``, not by
    the hash order of ``allowed``, so it is the same on every run.
    """
    cid, scope = constraint.id, tuple(constraint.scope)
    if len(set(scope)) != len(scope):
        raise ValueError(f"constraint {cid!r} repeats a scope variable")
    if len(domains) != len(scope):
        raise ValueError(f"constraint {cid!r} needs {len(scope)} domains, not {len(domains)}")
    if not constraint.allowed:
        raise ValueError(f"constraint {cid!r} allows no tuples")

    def fault(tup) -> str | None:
        if len(tup) != len(scope):
            return f"has a tuple of wrong arity: {tup!r}"
        for var, value, declared in zip(scope, tup, domains):
            if value not in declared:
                return f"tuple value {value!r} is outside the domain of {var!r}"
        return None

    if any(map(fault, constraint.allowed)):
        # repr orders tuples of any value types, where plain sorting may raise
        first = next(filter(None, map(fault, sorted(constraint.allowed, key=repr))))
        raise ValueError(f"constraint {cid!r} {first}")


class BoundRules(Sequence):
    """A template's rules bound onto ``scope`` for ``owner``, renamed only when a rule is read.

    ``Network.add_constraint`` makes one per constraint, which only keeps
    its three references. ``len`` builds nothing, so ``verify_rules`` can
    return a passing shape's kept report without a rule object. Indexing,
    iteration, ``==`` and ``repr`` build the renamed rules once and
    keep them; the template's owner reads ``template.rules`` themselves.
    """

    __slots__ = ("template", "owner", "scope", "_rules")

    def __init__(self, template: RuleTemplate, owner: ConstraintId, scope: tuple[VariableId, ...]):
        self.template, self.owner, self.scope, self._rules = template, owner, scope, None

    def _renamed(self) -> tuple[PropagationRule, ...]:
        template, owner = self.template, self.owner
        if self._rules is None and (owner, self.scope) == (template.owner, template.scope):
            self._rules = template.rules
        elif self._rules is None:
            rename = dict(zip(template.scope, self.scope))
            self._rules = tuple([
                PropagationRule(
                    f"{owner}.R{rule.index}",
                    owner,
                    rule.index,
                    tuple([(rename[var], value) for var, value in rule.conditions]),
                    tuple([(rename[var], vals) for var, vals in rule.conclusions]),
                )
                for rule in template.rules
            ])
        return self._rules

    def __len__(self) -> int:
        return len(self.template.rules)

    def __getitem__(self, i):
        return self._renamed()[i]

    def __iter__(self):
        return iter(self._renamed())

    def __eq__(self, other):
        return self._renamed() == (other._renamed() if isinstance(other, BoundRules) else other)

    def __repr__(self) -> str:
        return repr(self._renamed())


@dataclass
class Observation:
    """A measured instantiation of one variable."""

    id: ObservationId
    variable: VariableId
    value: Value
    active: bool = True


class Firing(NamedTuple):
    """The trace record of one rule application, which is also its ``fire`` event.

    As an event it reads ``("fire", id, rule, supports, effects)``, so
    ``network.events`` holds the firing itself and no copy. ``rule`` is
    the key of the rule that fired. ``supports`` snapshots, per condition
    literal, the justifications that held the instantiation at firing
    time, as ``(variable, value, causes)`` with the causes sorted by
    :func:`cause_key`. ``effects`` lists every (variable, value) exclusion
    this firing justifies, including values that were already hidden by
    another cause when it fired; cancelling the firing releases them all.
    The firing is active iff ``network.active_firing[rule]`` is its id.
    """

    kind: str  # always "fire"
    id: FiringId
    rule: RuleKey
    supports: tuple[tuple[VariableId, Value, tuple[Cause, ...]], ...]
    effects: tuple[tuple[VariableId, Value], ...]


@dataclass
class ChangeRecord:
    """The firings one cancellation withdrew, in cancellation order."""

    cancelled: list[FiringId] = field(default_factory=list)


class Agenda:
    """Rules that may be applicable, each queued at most once.

    Every applicable rule is queued, and a rule is queued only when its
    conditions hold: mutations push rules through
    :meth:`Network.push_holding`, and a propagation pass only returns the
    entries it held back. A rule may still be inapplicable when it pops,
    since a later release can widen a condition.

    Entries pop smallest first, or uniformly at random given the
    network's rng. A network keeps its rng for life, so an agenda pops
    only one way; a random pop swaps the entry out and leaves the list
    unordered, which no later pop reads.
    """

    def __init__(self) -> None:
        self.heap: list[RuleKey] = []
        self.queued: set[RuleKey] = set()

    def __len__(self) -> int:
        return len(self.heap)

    def __bool__(self) -> bool:
        return bool(self.heap)

    def push(self, constraint: ConstraintId, indices: Iterable[int]) -> None:
        """Queue the rules of ``constraint`` at ``indices``, in that order."""
        heap, queued = self.heap, self.queued
        for index in indices:
            entry = (constraint, index)
            if entry not in queued:
                queued.add(entry)
                heapq.heappush(heap, entry)

    def pop(self, rng=None) -> RuleKey:
        heap = self.heap
        if rng is None:
            entry = heapq.heappop(heap)
        else:
            i = rng.randrange(len(heap))
            heap[i], heap[-1] = heap[-1], heap[i]
            entry = heap.pop()
        self.queued.discard(entry)
        return entry

    def copy(self) -> "Agenda":
        twin = Agenda()
        twin.heap = list(self.heap)
        twin.queued = set(self.queued)
        return twin


class Network:
    """A constraint network under single-writer mutation.

    ``short_circuit`` makes one propagation pass fire at most one rule per
    constraint; ``rng`` switches rule selection to a randomized order (a
    test mode for exercising confluence).

    ``domains`` and ``constraints`` map names to the variable and
    constraint records. A constraint carries its scope domains and the
    rule template that constraints of its shape share; a watch list holds
    (constraint id, position) pairs, so no domain refers back to its
    constraints, which would make every network a reference cycle. They
    say which rules a mutation can make applicable, and let rule checks
    read packed positions and bits, not names. ``agenda`` holds every
    applicable rule, and a rule enters it only when all its conditions
    hold (:meth:`push_holding`).

    ``rules`` maps a constraint to its :class:`BoundRules`, which only
    rule dumps and verification read. ``firings``
    keeps every firing, cancelled or not, and ``active_firing`` maps a
    rule's key to its one active firing; the watch lists and
    ``active_firing`` together say which active firings test a
    variable. ``events`` is the trail: every change to masks, firings,
    observations and constraint flags appends one event, and
    :meth:`rollback` undoes them.
    """

    def __init__(self, *, short_circuit: bool = False, rng=None):
        self.domains: dict[VariableId, FiniteDomain] = {}
        self.constraints: dict[ConstraintId, ExtensionalConstraint] = {}
        self.rules: dict[ConstraintId, BoundRules] = {}
        self.agenda = Agenda()
        self.observations: dict[ObservationId, Observation] = {}
        self.firings: dict[FiringId, Firing] = {}
        self.active_firing: dict[RuleKey, FiringId] = {}
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

    def add_constraint(self, constraint: ExtensionalConstraint, template: RuleTemplate):
        """Register a constraint with the rule template of its shape, checking everything first.

        The template was validated when ``generate`` or a caller made it. The
        network keeps its own copy of ``constraint``, scope and table frozen;
        a rejected call raises ``ValueError`` and changes nothing.
        """
        cid, scope = constraint.id, tuple(constraint.scope)
        if not isinstance(cid, str):
            raise ValueError(f"constraint id {cid!r} is not a string")
        if cid in self.constraints:
            raise ValueError(f"constraint {cid!r} already declared")
        if len(set(scope)) != len(scope):
            raise ValueError(f"constraint {cid!r} repeats a scope variable")
        for var in scope:
            if var not in self.domains:
                raise ValueError(f"constraint {cid!r} uses undeclared variable {var!r}")
        doms = tuple(self.domains[var] for var in scope)
        if not template.fits(constraint.allowed, tuple(dom.declared for dom in doms)):
            raise ValueError(f"constraint {cid!r} does not have the shape of {template.owner!r}")
        record = ExtensionalConstraint(
            cid, constraint.label, scope, template.allowed, constraint.active, constraint.relaxable
        )
        record.template, record.domains = template, doms
        self.constraints[cid] = record
        self.rules[cid] = BoundRules(template, cid, scope)
        for position, dom in enumerate(doms):
            dom.occurrences.append((cid, position))
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

    def queue_rules(self, constraint_id: ConstraintId) -> None:
        """Queue the rules of one constraint whose conditions all hold now.

        Any other rule is queued by its watches when its last condition
        comes to hold, so the agenda keeps its invariant: every applicable
        rule is queued, and only rules whose conditions hold are. A fresh
        constraint queues only its unconditional rules.
        """
        constraint = self.constraints[constraint_id]
        ready = list(constraint.template.unconditional)
        for position, dom in enumerate(constraint.domains):
            ready += constraint.template.conditioned[position].get(dom.visible_bits, ())
        self.push_holding(constraint, ready)

    def push_holding(self, constraint: ExtensionalConstraint, indices: Iterable[int]) -> None:
        """Queue the rules of ``constraint`` at ``indices`` whose conditions all hold.

        The one way a mutation queues rules. A watch triggers on one
        literal, and the rule joins the queue only if the rest of it holds
        too; it is queued again when its last condition comes to hold.
        """
        doms, packed = constraint.domains, constraint.template.packed
        self.agenda.push(
            constraint.id, [i for i in indices if conditions_hold(doms, packed[i - 1][0])]
        )

    def first_empty(self) -> VariableId | None:
        return self.empty_order[0] if self.empty_order else None

    def visible_state(self) -> dict[VariableId, tuple[Value, ...]]:
        return {name: dom.visible() for name, dom in self.domains.items()}

    def snapshot(self) -> tuple:
        """Mark the trail, keeping what no event records.

        That is the constraint and variable counts, the agenda,
        ``empty_order``, the next firing id and the rng state.
        """
        return (
            len(self.events),
            len(self.constraints),
            len(self.domains),
            self.agenda.copy(),
            list(self.empty_order),
            self.next_firing_id,
            None if self.rng is None else self.rng.getstate(),
        )

    def rollback(self, mark: tuple) -> None:
        """Return to ``mark`` by inverting each event logged since, newest first.

        Then the constraints and variables added since are unregistered,
        newest first; no event records a registration.
        """
        count, constraint_count, domain_count, agenda, empty_order, next_firing_id, rng_state = mark
        for event in reversed(self.events[count:]):
            kind = event[0]
            if kind == "mask":
                self.domains[event[1]].unhide(event[2], event[3])
            elif kind == "release":
                self.domains[event[1]].hide(event[2], event[3])
            elif kind == "fire":
                del self.firings[event[1]]
                del self.active_firing[event[2]]
            elif kind == "cancel":
                self.active_firing[self.firings[event[1]].rule] = event[1]
            elif kind == "observe":
                del self.observations[event[1]]
            elif kind == "retract":
                self.observations[event[1]].active = True
            elif kind in ("relax", "restore"):
                self.constraints[event[1]].active = kind == "relax"
        del self.events[count:]
        while len(self.constraints) > constraint_count:
            cid, constraint = self.constraints.popitem()
            del self.rules[cid]
            for dom in constraint.domains:
                dom.occurrences.pop()
        while len(self.domains) > domain_count:
            self.domains.popitem()
        self.agenda = agenda.copy()
        self.empty_order = list(empty_order)
        self.next_firing_id = next_firing_id
        if rng_state is not None:
            self.rng.setstate(rng_state)


def mask_value(network: Network, variable: VariableId, value: Value, cause: Cause) -> bool:
    """Hide ``value`` under a ``cause`` that does not hide it yet; True if it was visible."""
    dom = network.domain(variable)
    if value not in dom.declared:
        raise ValueError(f"value {value!r} is outside the domain of {variable!r}")
    if cause in dom.mask.get(value, ()):
        raise ValueError(f"{cause!r} already hides {variable}={value}")
    newly = dom.hide(value, cause)
    network.events.append(("mask", variable, value, cause))
    if newly:
        remaining = dom.visible_count()
        if remaining == 1:
            _queue_instantiated(network, dom)
        elif remaining == 0:
            network.empty_order.append(variable)
            network.events.append(("conflict", variable))
    return newly


def release(network: Network, variable: VariableId, value: Value, cause: Cause) -> list[FiringId]:
    """Withdraw a ``cause`` that hides ``value``; return the firings it leaves unfounded.

    A firing relies on every value its condition on ``variable`` excludes,
    and stays founded while each such value is hidden by an observation
    or by a firing older than itself. Firing ids grow, so while every
    active firing is founded, every mask rests on observations: firings
    that only hide each other's values form a cycle of self-support, and
    its oldest member is unfounded. A release checks this in the walk
    over the variable's watch list that queues rules: if the value
    became visible, the walk queues the rules whose conclusions exclude
    it, and unless an observation still hides it, the walk collects the
    active firings of the rules that the template's ``conditioned``
    lists test on the variable's other values and that are no younger
    than the value's oldest remaining cause. The caller cancels them;
    rollback hides and unhides directly, so undo never cascades.
    """
    dom = network.domain(variable)
    if cause not in dom.mask.get(value, ()):
        raise ValueError(f"no mask on {variable}={value} is justified by {cause!r}")
    network.events.append(("release", variable, value, cause))
    shown = dom.unhide(value, cause)
    causes = dom.mask.get(value, ())
    if any(isinstance(c, str) for c in causes):
        return []
    oldest = min(causes, default=math.inf)
    if shown and dom.visible_count() == 1:
        if variable in network.empty_order:
            network.empty_order.remove(variable)
        _queue_instantiated(network, dom)
    bit = dom.bit(value)
    unfounded = []
    for cid, position in dom.occurrences:
        constraint = network.constraints[cid]
        if shown:
            network.push_holding(constraint, constraint.template.excluding[position].get(bit, ()))
        for tested, indices in constraint.template.conditioned[position].items():
            if tested != bit:
                for i in indices:
                    fid = network.active_firing.get((cid, i))
                    if fid is not None and fid <= oldest:
                        unfounded.append(fid)
    return sorted(unfounded)


def _queue_instantiated(network: Network, dom: FiniteDomain) -> None:
    """Queue the rules conditioned on ``dom``'s one value left whose other conditions hold."""
    bit = dom.visible_bits
    for cid, position in dom.occurrences:
        constraint = network.constraints[cid]
        network.push_holding(constraint, constraint.template.conditioned[position].get(bit, ()))


def exclude(
    network: Network, dom: FiniteDomain, bits: int, cause: Cause
) -> tuple[list[tuple[VariableId, Value]], list[tuple[VariableId, Value]]]:
    """Hide every value of ``dom`` whose bit is in ``bits`` under ``cause``.

    Returns the pairs it hid and the pairs it claimed: an excluded value
    that another cause already hides gets ``cause`` as well, so the
    exclusion survives the release of whichever cause hid it first. A
    domain left empty is recorded in ``network.empty_order`` (a signal for
    the caller, never an exception).
    """
    hidden, claimed = [], []
    for i, value in enumerate(dom.declared):
        if bits >> i & 1:
            newly = mask_value(network, dom.variable, value, cause)
            (hidden if newly else claimed).append((dom.variable, value))
    return hidden, claimed


def conditions_hold(doms: tuple[FiniteDomain, ...], conditions) -> bool:
    """True iff each packed (position, bit) condition holds over the scope ``doms``."""
    for position, bit in conditions:
        if doms[position].visible_bits != bit:
            return False
    return True

