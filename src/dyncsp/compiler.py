"""Compilation of extensional constraints into ground propagation rules.

``generate`` walks the consistent partial assignments of a constraint in a
fixed canonical order and emits a rule wherever the projections onto the
unassigned variables are not already entailed by the rules emitted so far.
A final reverse pass removes any rule whose conclusions the remaining
rules re-derive, so the published rule set, returned as the
``RuleTemplate`` of the constraint's shape, is irredundant.

``verify_rules`` checks a rule set against its constraint on four
criteria: the chained fixpoint from every consistent partial assignment
equals the exact projections (cr1), no rule ever removes a supported
value (cr2), the fixpoint is independent of firing order (cr3), and no
rule is redundant or can never fire (cr4). Failures carry concrete
witnesses.

Both chain rules on a bit layout: one int holds every domain, with one
bit per (variable, declared value), and each rule is packed once per
``generate`` or ``verify_rules`` call into masks, so a condition test, a
firing and a shrink test are each one or two integer operations.

Both check the table with ``core.check_table``, as ``RuleTemplate``
does, so they reject the same tables with the same messages, and every
tuple value has a bit. Both also read a support table, built once per
call from the allowed tuples: it maps every consistent partial
assignment to the OR of the bits of its supporting tuples. That union is
the exact projection of each unassigned variable, so ``generate`` reads
its conclusions from it, and ``verify_rules`` decides cr1 and cr2, and
reads a cr1 witness's expected values, by comparing it with one closure
per consistent start. Where cr2 holds at every start, cr3 follows (see
``_verify``), so firing orders are sampled only where cr2 fails. The
table's keys are the candidates: both walk them in canonical order
(``_walk``), so no inconsistent assignment is ever tried, and an
assignment is decoded into a dict only for a published rule's
conditions or a witness.

Two shortcuts rest on one chaining lemma: a state that no rule can
shrink and that lies inside a chain's start stays inside every state of
that chain, unless one of its domains is empty (induction over the
firings). So cr1 needs no pass over the forbidden full assignments:
where cr1 holds at a maximal consistent part S of a forbidden full
assignment t, the chain from S removes t's value of each variable
outside S, so the chain from t empties a domain. This needs one allowed
tuple, so an empty relation is rejected. And minimization is one
reverse pass: no chain from a sound rule's conditions empties a domain,
so dropping rules never makes a kept rule redundant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import (
    BoundRules,
    ExtensionalConstraint,
    PropagationRule,
    RuleTemplate,
    Value,
    VariableId,
    check_table,
)

DomainMap = dict[VariableId, tuple[Value, ...]]
# (condition field mask, condition bits, keep mask, rule); see _Layout. ``generate``
# packs a candidate's (key, conclusions) and builds only the rules it keeps.
_Packed = tuple[int, int, int, object]
# cr3 tries this many seeded firing orders per start when cr2 fails
_ORDERS = 10
_SEED = 0


def closure(
    rules: tuple[PropagationRule, ...] | list[PropagationRule],
    start: dict[VariableId, Value],
    declared: DomainMap,
) -> dict[VariableId, frozenset[Value]]:
    """Fixpoint of chaining ``rules`` from ``start`` over fresh domains.

    Sweeps fire the rules in list order until no rule shrinks anything.
    Every rule application is an intersection, so the result is order
    independent while no domain empties; an emptied domain satisfies no
    condition, so once one empties the sweep order decides the rest.
    """
    layout = _Layout(declared)
    state = _chain(layout.pack(rules), layout.pin(start))
    return {var: layout.values(state, var) for var in declared}


class _Layout:
    """One bit per (variable, declared value), so one int holds every domain.

    A bit is set while its value is still possible. The first declared
    (variable, value) pair has the highest bit, so ``_walk`` can order
    assignments by their keys. A variable's field is the mask of its bits.
    A rule packs into ``(cm, cb, keep, rule)``: it fires on ``state`` when
    ``state & cm == cb``, that is when each condition variable keeps
    exactly its condition value, and a firing leaves ``state & keep``.
    """

    def __init__(self, declared: DomainMap):
        self.declared = declared
        pairs = dict.fromkeys((var, value) for var, vals in declared.items() for value in vals)
        top = len(pairs) - 1
        self.bits = {pair: 1 << (top - i) for i, pair in enumerate(pairs)}
        self.fields = dict.fromkeys(declared, 0)
        for (var, _), bit in self.bits.items():
            self.fields[var] |= bit
        self.full = (1 << len(self.bits)) - 1

    def pin(self, start: dict[VariableId, Value]) -> int:
        state = self.full
        for var, value in start.items():
            bit = self.bits.get((var, value))
            if bit is None:
                raise ValueError(f"start value {var}={value} is outside the declared domain")
            state &= ~self.fields[var] | bit
        return state

    def keep(self, conclusions) -> int:
        """Mask of what survives ``conclusions``; values outside the domains drop out."""
        keep = self.full
        for var, vals in conclusions:
            allowed = 0
            for value in vals:
                allowed |= self.bits.get((var, value), 0)
            keep &= ~self.fields[var] | allowed
        return keep

    def pack(self, rules) -> list[_Packed]:
        packed = []
        for rule in rules:
            used = {var for var, _ in (*rule.conditions, *rule.conclusions)}
            if not used <= self.fields.keys():
                raise ValueError(f"rule {rule.id!r} uses an undeclared variable")
            cm = cb = 0
            for var, value in rule.conditions:
                bit = self.bits.get((var, value), 0)
                if not bit or cb & self.fields[var] & ~bit:
                    # outside the domain, or a second value for one variable:
                    # no state has cm == 0 and cb == 1, so the rule never fires
                    cm, cb = 0, 1
                    break
                cm |= self.fields[var]
                cb |= bit
            packed.append((cm, cb, self.keep(rule.conclusions), rule))
        return packed

    def values(self, state: int, var: VariableId) -> frozenset[Value]:
        return frozenset(v for v in self.declared[var] if state & self.bits[(var, v)])

    def assignment(self, key: int) -> dict[VariableId, Value]:
        """The assignment whose value bits OR to ``key``, in declared order."""
        return {var: value for (var, value), bit in self.bits.items() if key & bit}


def _chain(
    packed: list[_Packed],
    state: int,
    *,
    first_only: bool = False,
    removed_by: dict[int, str] | None = None,
) -> int:
    """Fire ``packed`` rules on ``state``, sweeping until none shrinks anything.

    With ``first_only`` every firing restarts the sweep at the first rule,
    so ``packed`` is a firing priority. ``removed_by`` maps the bit of each
    removed value to the id of the rule that removed it.
    """
    changed = True
    while changed:
        changed = False
        for cm, cb, keep, rule in packed:
            if state & cm != cb or state & keep == state:
                continue
            if removed_by is not None:
                gone = state & ~keep
                while gone:
                    bit = gone & -gone
                    removed_by[bit] = rule.id
                    gone ^= bit
            state &= keep
            changed = True
            if first_only:
                break
    return state


def _walk(layout: _Layout, table: dict[int, int], max_size: int) -> list[tuple[int, int]]:
    """The consistent partial assignments of up to ``max_size`` variables, canonically ordered.

    Each comes as ``(key, start)``: ``key`` indexes the support table and
    ``start`` is the state that pins it. Sizes ascend, and within one size
    assignments come in the order of their interleaved sequences of
    (scope position, declared value index) pairs, so the emitted rule
    order is reproducible across runs and platforms. The layout gives the
    first pair the highest bit, so within one size that order is
    descending key order; the table's own order follows the hash order of
    the allowed tuples and is never read.
    """
    keys = sorted(table, reverse=True)
    keys.sort(key=int.bit_count)
    fields = tuple(layout.fields.values())
    walk = []
    for key in keys:
        if key.bit_count() > max_size:
            break
        assigned = 0
        for field in fields:
            if key & field:
                assigned |= field
        walk.append((key, layout.full & ~assigned | key))
    return walk


def _prepare(
    constraint: ExtensionalConstraint, declared: DomainMap
) -> tuple[_Layout, dict[int, int]]:
    """The layout over the scope and the support table.

    Rejects a scope variable without a declared domain, and every table
    that ``check_table`` rejects. The table maps every consistent partial
    assignment, keyed by the OR of its value bits, to the OR of the bits
    of all its supporting tuples. That union holds the exact projection
    of each unassigned variable and every value a sound rule set must
    keep.
    """
    scope = constraint.scope
    for var in scope:
        if var not in declared:
            raise ValueError(f"no declared domain for scope variable {var!r}")
    domains = tuple(tuple(declared[var]) for var in scope)
    check_table(constraint, domains)
    layout = _Layout(dict(zip(scope, domains)))
    table: dict[int, int] = {}
    for row in constraint.allowed:
        keys = [0]
        for var, value in zip(scope, row):
            bit = layout.bits[(var, value)]
            keys += [key | bit for key in keys]
        union = keys[-1]  # every bit of the row
        for key in keys:
            table[key] = table.get(key, 0) | union
    return layout, table


def _rederived(packed: list[_Packed], item: _Packed, layout: _Layout) -> bool:
    """Whether the other rules of ``packed`` re-derive ``item``'s conclusions from its conditions.

    Only ``item`` itself is left out, by identity, so a second copy of
    its rule counts among the others.
    """
    cm, cb, keep, _ = item
    rest = [other for other in packed if other is not item]
    return not _chain(rest, layout.full & ~cm | cb) & ~keep


def generate(constraint: ExtensionalConstraint, declared: DomainMap) -> RuleTemplate:
    """Compile ``constraint`` into its validated template of minimal canonical rules."""
    scope, cid = constraint.scope, constraint.id
    layout, table = _prepare(constraint, declared)
    packed: list[_Packed] = []
    for key, start in _walk(layout, table, len(scope) - 1):
        union = table[key]
        assigned = layout.full & ~start | key  # the fields of the assigned variables
        # the projections that actually restrict an unassigned variable
        conclusions = tuple(
            (var, tuple(v for v in layout.declared[var] if union & layout.bits[(var, v)]))
            for var, field in layout.fields.items()
            if not field & assigned and field & ~union
        )
        if not conclusions:
            continue
        keep = layout.keep(conclusions)
        if not _chain(packed, start) & ~keep:
            continue  # the rules so far establish it
        packed.append((assigned, key, keep, (key, conclusions)))
    rules = tuple(
        PropagationRule(
            id=f"{cid}.R{i}",
            owner=cid,
            index=i,
            conditions=tuple(layout.assignment(key).items()),
            conclusions=conclusions,
        )
        for i, (key, conclusions) in enumerate(_minimize(packed, layout), start=1)
    )
    return RuleTemplate(constraint, tuple(layout.declared.values()), rules)


def _minimize(packed: list[_Packed], layout: _Layout) -> list:
    """Drop rules whose conclusions the remaining rules re-derive.

    One pass in reverse emission order, so later, more specific rules go
    before the earlier rules they were emitted under. The rules are sound,
    so by the chaining lemma (see the module docstring) a drop never makes
    a kept rule redundant, and the pass needs no restart.
    """
    kept = list(packed)
    for item in reversed(packed):
        if _rederived(kept, item, layout):
            kept = [other for other in kept if other is not item]
    return [payload for _, _, _, payload in kept]


@dataclass(frozen=True)
class CriterionResult:
    passed: bool
    witness: dict | None = None


@dataclass(frozen=True)
class VerificationReport:
    cr1: CriterionResult
    cr2: CriterionResult
    cr3: CriterionResult
    cr4: CriterionResult

    @property
    def passed(self) -> bool:
        return self.cr1.passed and self.cr2.passed and self.cr3.passed and self.cr4.passed


def verify_rules(
    rules: tuple[PropagationRule, ...] | list[PropagationRule],
    constraint: ExtensionalConstraint,
    declared: DomainMap,
) -> VerificationReport:
    """Check a rule set against its constraint; failures carry witnesses.

    Rules that a template bound onto the constraint's scope, where the
    constraint has the template's allowed tuples and declared domains,
    are the template's own rules with the scope variables renamed, and
    renaming changes no criterion. So the template's own rules are
    checked once, the report is kept on the template, and a passing
    report stands for every such constraint without reading, and so
    renaming, its bound rules. A failing one does not: the constraint's
    own rules are then checked, so the witnesses name its variables.
    """
    if isinstance(rules, BoundRules) and rules.scope == constraint.scope:
        template = rules.template
        # an undeclared variable's () fits no template, and _verify rejects it
        domains = tuple(tuple(declared.get(var, ())) for var in rules.scope)
        if template.fits(constraint.allowed, domains):
            if template.report is None:
                own = ExtensionalConstraint(template.owner, "", template.scope, template.allowed)
                own_declared = dict(zip(template.scope, template.domains))
                template.report = _verify(template.rules, own, own_declared)
            if template.report.passed:
                return template.report
    return _verify(rules, constraint, declared)


def _verify(rules, constraint: ExtensionalConstraint, declared: DomainMap) -> VerificationReport:
    """The four criteria for ``rules`` against ``constraint``, checked in full.

    One closure per consistent start decides cr1 and cr2 against the
    support table. If cr2 holds at every consistent start S, every state
    that a firing order reaches from S keeps each value of S's supporting
    tuples, by induction over the firings: a rule fires only where its
    conditions C name values that all those tuples have, so S with C is a
    consistent start with the same supports, and its closure keeps those
    values, satisfies C and is a fixpoint, so it lies inside the rule's
    keep mask. So no domain empties, every firing order reaches the same
    fixpoint (Apt, "The essence of constraint propagation", 1999) and cr3
    holds without sampling. Only where cr2 fails does cr3 try 10 firing
    orders per start, drawn from seed 0. By the chaining lemma (see the
    module docstring) the forbidden full assignments need no pass of
    their own.
    """
    scope = constraint.scope
    layout, table = _prepare(constraint, declared)
    packed = layout.pack(rules)
    cr1 = cr2 = None
    walk = _walk(layout, table, len(scope))
    for key, start in walk:
        union = table[key]
        state = _chain(packed, start)
        if state == union:
            continue
        assigned = layout.full & ~start | key  # the fields of the assigned variables
        moved = (state ^ union) & ~assigned
        if not cr1 and moved:
            var = next(var for var in scope if moved & layout.fields[var])
            cr1 = CriterionResult(
                False,
                {
                    "start": layout.assignment(key),
                    "variable": var,
                    "expected": sorted(layout.values(union, var)),
                    "actual": sorted(layout.values(state, var)),
                },
            )
        if not cr2 and union & ~state:
            cr2 = _unsound(packed, constraint, layout, key, start)
        if cr1 and cr2:
            break
    if cr2:
        cr3 = _check_confluence(packed, layout, walk)
    else:
        cr3 = CriterionResult(True)
    return VerificationReport(
        cr1=cr1 or CriterionResult(True),
        cr2=cr2 or CriterionResult(True),
        cr3=cr3,
        cr4=_check_irredundancy(packed, layout),
    )


def _unsound(packed, constraint, layout, key, start) -> CriterionResult:
    """The cr2 witness at a start whose closure removes a supported value.

    It names the first supporting tuple, in sorted order, and its first
    removed value in scope order, with the rule whose firing removed it.
    A tuple supports the start when the start keeps each of its values.
    """
    removed_by: dict[int, str] = {}
    state = _chain(packed, start, removed_by=removed_by)
    bits = layout.bits
    support, var, value = next(
        (support, var, value)
        for support in sorted(constraint.allowed)
        if all(start & bits[pair] for pair in zip(constraint.scope, support))
        for var, value in zip(constraint.scope, support)
        if not state & bits[(var, value)]
    )
    return CriterionResult(
        False,
        {
            "start": layout.assignment(key),
            "tuple": list(support),
            "variable": var,
            "value": value,
            "rule": removed_by[bits[(var, value)]],
        },
    )


def _check_confluence(packed, layout, starts) -> CriterionResult:
    """cr3 by seeded firing orders from each ``(key, start)`` of ``starts``."""
    rng = random.Random(_SEED)
    for key, start in starts:
        reference = _chain(packed, start, first_only=True)
        for _ in range(_ORDERS):
            order = rng.sample(packed, len(packed))
            result = _chain(order, start, first_only=True)
            if result != reference:
                moved = result ^ reference
                diff = next(var for var, field in layout.fields.items() if moved & field)
                return CriterionResult(
                    False,
                    {
                        "start": layout.assignment(key),
                        "order": [rule.id for _, _, _, rule in order],
                        "variable": diff,
                        "expected": sorted(layout.values(reference, diff)),
                        "actual": sorted(layout.values(result, diff)),
                    },
                )
    return CriterionResult(True)


def _check_irredundancy(packed, layout) -> CriterionResult:
    for item in packed:
        cm, cb, _, rule = item
        if cb & ~cm:  # packed as never firing; see _Layout.pack
            return CriterionResult(
                False,
                {
                    "rule": rule.id,
                    "conditions": [[var, value] for var, value in rule.conditions],
                    "reason": "the conditions can never hold together",
                },
            )
        if _rederived(packed, item, layout):
            return CriterionResult(
                False,
                {
                    "rule": rule.id,
                    "conditions": dict(rule.conditions),
                    "conclusions": [[var, list(vals)] for var, vals in rule.conclusions],
                },
            )
    return CriterionResult(True)


def format_rule(rule: PropagationRule) -> str:
    """One-line rendering, e.g. ``R2: IF A=true AND B=false THEN C in {false}``."""
    conclusions = "; ".join(
        f"{var} in {{{','.join(vals)}}}" for var, vals in rule.conclusions
    )
    if not rule.conditions:
        return f"R{rule.index}: ALWAYS {conclusions}"
    conditions = " AND ".join(f"{var}={value}" for var, value in rule.conditions)
    return f"R{rule.index}: IF {conditions} THEN {conclusions}"


def dump_rules(rules: tuple[PropagationRule, ...] | list[PropagationRule]) -> str:
    return "\n".join(format_rule(rule) for rule in rules)
