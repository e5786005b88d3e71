"""Compilation of extensional constraints into ground propagation rules.

``generate`` walks the consistent partial assignments of a constraint in a
fixed canonical order and emits a rule wherever the projections onto the
unassigned variables are not already entailed by the rules emitted so far.
A final minimization pass removes any rule whose conclusions the remaining
rules re-derive, so the published rule set is irredundant.

``verify_rules`` checks a rule set against its constraint on four
criteria: the chained fixpoint from every consistent partial assignment
equals the exact projections (cr1), no rule ever removes a supported
value (cr2), the fixpoint is independent of firing order (cr3), and no
rule is redundant (cr4). Failures carry concrete witnesses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, combinations, product

from .core import (
    ConditionLiteral,
    ConstraintId,
    ExtensionalConstraint,
    PropagationRule,
    RuleSet,
    Value,
    VariableId,
)

DomainMap = dict[VariableId, tuple[Value, ...]]


def supporting_tuples(
    constraint: ExtensionalConstraint, assignment: dict[VariableId, Value]
) -> list[tuple[Value, ...]]:
    """Allowed tuples that agree with ``assignment``, sorted."""
    pos = {var: i for i, var in enumerate(constraint.scope)}
    for var in assignment:
        if var not in pos:
            raise ValueError(f"variable {var!r} is not in the scope of {constraint.id!r}")
    return sorted(
        t
        for t in constraint.allowed
        if all(t[pos[var]] == value for var, value in assignment.items())
    )


def projection(
    constraint: ExtensionalConstraint,
    assignment: dict[VariableId, Value],
    target: VariableId,
) -> frozenset[Value]:
    """Values of ``target`` in allowed tuples agreeing with ``assignment``."""
    if target in assignment:
        raise ValueError(f"target {target!r} is already assigned")
    pos = {var: i for i, var in enumerate(constraint.scope)}
    if target not in pos:
        raise ValueError(f"target {target!r} is not in the scope of {constraint.id!r}")
    return frozenset(t[pos[target]] for t in supporting_tuples(constraint, assignment))


def closure(
    rules: tuple[PropagationRule, ...] | list[PropagationRule],
    start: dict[VariableId, Value],
    declared: DomainMap,
) -> dict[VariableId, frozenset[Value]]:
    """Fixpoint of chaining ``rules`` from ``start`` over fresh domains.

    The result is order independent because every rule application is an
    intersection; the sweep repeats until no rule shrinks anything.
    """
    doms = _chain(rules, _pinned(start, declared))
    return {var: frozenset(vals) for var, vals in doms.items()}


def _pinned(start: dict[VariableId, Value], declared: DomainMap) -> dict[VariableId, set[Value]]:
    doms = {var: set(vals) for var, vals in declared.items()}
    for var, value in start.items():
        if value not in doms.get(var, ()):
            raise ValueError(f"start value {var}={value} is outside the declared domain")
        doms[var] = {value}
    return doms


def _chain(
    rules: tuple[PropagationRule, ...] | list[PropagationRule],
    doms: dict[VariableId, set[Value]],
    *,
    first_only: bool = False,
    removed_by: dict[tuple[VariableId, Value], str] | None = None,
) -> dict[VariableId, set[Value]]:
    """Fire ``rules`` on ``doms`` in place, sweeping until none shrinks anything.

    A rule fires when every condition variable is pinned to its condition
    value and some conclusion removes a value. With ``first_only`` every
    firing restarts the sweep at the first rule, so ``rules`` is a firing
    priority. ``removed_by`` records the first rule that removed each value.
    """
    changed = True
    while changed:
        changed = False
        for rule in rules:
            if not all(doms[var] == {value} for var, value in rule.conditions):
                continue
            for var, vals in rule.conclusions:
                gone = doms[var].difference(vals)
                if gone:
                    doms[var] -= gone
                    changed = True
                    if removed_by is not None:
                        for value in gone:
                            removed_by.setdefault((var, value), rule.id)
            if changed and first_only:
                break
    return doms


def _candidate_assignments(
    scope: tuple[VariableId, ...], declared: DomainMap, max_size: int
):
    """Partial assignments over ``scope``, sizes ascending, canonically ordered.

    Within one size, candidates sort by the interleaved sequence of
    (scope position, declared value index) pairs, so the emitted rule
    order is reproducible across runs and platforms.
    """
    n = len(scope)
    for size in range(max_size + 1):
        batch = []
        for positions in combinations(range(n), size):
            for values in product(*(declared[scope[p]] for p in positions)):
                key = tuple(
                    chain.from_iterable(
                        (p, declared[scope[p]].index(v))
                        for p, v in zip(positions, values)
                    )
                )
                batch.append((key, {scope[p]: v for p, v in zip(positions, values)}))
        batch.sort(key=lambda item: item[0])
        for _, assignment in batch:
            yield assignment


def _proper_projections(
    constraint: ExtensionalConstraint,
    assignment: dict[VariableId, Value],
    declared: DomainMap,
) -> tuple[tuple[VariableId, tuple[Value, ...]], ...]:
    """Projection entries that actually restrict an unassigned variable."""
    entries = []
    for var in constraint.scope:
        if var in assignment:
            continue
        proj = projection(constraint, assignment, var)
        if proj and proj != frozenset(declared[var]):
            entries.append((var, tuple(v for v in declared[var] if v in proj)))
    return tuple(entries)


def _establishes(
    rules: list[PropagationRule],
    start: dict[VariableId, Value],
    conclusions: tuple[tuple[VariableId, tuple[Value, ...]], ...],
    declared: DomainMap,
) -> bool:
    result = closure(rules, start, declared)
    return all(result[var] <= frozenset(vals) for var, vals in conclusions)


def generate(constraint: ExtensionalConstraint, declared: DomainMap) -> RuleSet:
    """Compile ``constraint`` into its minimal canonical rule set."""
    scope = constraint.scope
    for var in scope:
        if var not in declared:
            raise ValueError(f"no declared domain for scope variable {var!r}")
    emitted: list[PropagationRule] = []
    for assignment in _candidate_assignments(scope, declared, len(scope) - 1):
        if not supporting_tuples(constraint, assignment):
            continue
        conclusions = _proper_projections(constraint, assignment, declared)
        if not conclusions:
            continue
        if _establishes(emitted, assignment, conclusions, declared):
            continue
        index = len(emitted) + 1
        emitted.append(
            PropagationRule(
                id=f"{constraint.id}.R{index}",
                owner=constraint.id,
                index=index,
                conditions=tuple(
                    ConditionLiteral(var, assignment[var])
                    for var in scope
                    if var in assignment
                ),
                conclusions=conclusions,
            )
        )
    emitted = _minimize(emitted, declared)
    final = tuple(
        PropagationRule(
            id=f"{constraint.id}.R{i}",
            owner=constraint.id,
            index=i,
            conditions=rule.conditions,
            conclusions=rule.conclusions,
        )
        for i, rule in enumerate(emitted, start=1)
    )
    return RuleSet(owner=constraint.id, rules=final)


def rename_rules(
    ruleset: RuleSet, renaming: dict[VariableId, VariableId], owner: ConstraintId
) -> RuleSet:
    """``ruleset`` with its variables renamed and its rules given to ``owner``.

    ``generate`` depends only on scope positions and declared value order,
    so renaming the rules of one constraint, position by position, gives
    exactly what ``generate`` would emit for another constraint with the
    same allowed tuples and the same declared domains at each position.
    """
    return RuleSet(
        owner=owner,
        rules=tuple(
            PropagationRule(
                id=f"{owner}.R{rule.index}",
                owner=owner,
                index=rule.index,
                conditions=tuple(
                    ConditionLiteral(renaming[lit.variable], lit.value)
                    for lit in rule.conditions
                ),
                conclusions=tuple((renaming[var], vals) for var, vals in rule.conclusions),
            )
            for rule in ruleset.rules
        ),
    )


def _minimize(
    rules: list[PropagationRule], declared: DomainMap
) -> list[PropagationRule]:
    """Drop rules whose conclusions the remaining rules re-derive.

    Scans in reverse emission order and repeats until stable, so later,
    more specific rules are removed before the earlier rules they were
    emitted under.
    """
    kept = list(rules)
    changed = True
    while changed:
        changed = False
        for rule in reversed(list(kept)):
            rest = [r for r in kept if r is not rule]
            if _establishes(rest, dict(rule.conditions), rule.conclusions, declared):
                kept = rest
                changed = True
                break
    return kept


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
    *,
    orders: int = 10,
    seed: int = 0,
) -> VerificationReport:
    """Check a rule set against its constraint; failures carry witnesses."""
    rules = list(rules)
    scope = constraint.scope
    scoped = {var: tuple(declared[var]) for var in scope}
    consistent = [
        a
        for a in _candidate_assignments(scope, scoped, len(scope))
        if supporting_tuples(constraint, a)
    ]
    return VerificationReport(
        cr1=_check_exactness(rules, constraint, scoped, consistent),
        cr2=_check_soundness(rules, constraint, scoped, consistent),
        cr3=_check_confluence(rules, scoped, consistent, orders, seed),
        cr4=_check_irredundancy(rules, scoped),
    )


def _check_exactness(rules, constraint, declared, consistent) -> CriterionResult:
    for assignment in consistent:
        result = closure(rules, assignment, declared)
        for var in constraint.scope:
            if var in assignment:
                continue
            expected = projection(constraint, assignment, var)
            if result[var] != expected:
                return CriterionResult(
                    False,
                    {
                        "start": dict(assignment),
                        "variable": var,
                        "expected": sorted(expected),
                        "actual": sorted(result[var]),
                    },
                )
    for values in product(*(declared[var] for var in constraint.scope)):
        if values in constraint.allowed:
            continue
        full = dict(zip(constraint.scope, values))
        result = closure(rules, full, declared)
        if all(result[var] for var in constraint.scope):
            return CriterionResult(
                False,
                {
                    "start": full,
                    "reason": "no variable emptied on a forbidden full assignment",
                },
            )
    return CriterionResult(True)


def _check_soundness(rules, constraint, declared, consistent) -> CriterionResult:
    pos = {var: i for i, var in enumerate(constraint.scope)}
    for assignment in consistent:
        removed_by: dict[tuple[VariableId, Value], str] = {}
        result = _chain(rules, _pinned(assignment, declared), removed_by=removed_by)
        for support in supporting_tuples(constraint, assignment):
            for var in constraint.scope:
                value = support[pos[var]]
                if value not in result[var]:
                    return CriterionResult(
                        False,
                        {
                            "start": dict(assignment),
                            "tuple": list(support),
                            "variable": var,
                            "value": value,
                            "rule": removed_by.get((var, value)),
                        },
                    )
    return CriterionResult(True)


def _check_confluence(rules, declared, consistent, orders, seed) -> CriterionResult:
    rng = random.Random(seed)
    for assignment in consistent:
        reference = _chain(rules, _pinned(assignment, declared), first_only=True)
        for _ in range(orders):
            order = rng.sample(rules, len(rules))
            result = _chain(order, _pinned(assignment, declared), first_only=True)
            if result != reference:
                diff = next(var for var in reference if reference[var] != result[var])
                return CriterionResult(
                    False,
                    {
                        "start": dict(assignment),
                        "order": [rule.id for rule in order],
                        "variable": diff,
                        "expected": sorted(reference[diff]),
                        "actual": sorted(result[diff]),
                    },
                )
    return CriterionResult(True)


def _check_irredundancy(rules, declared) -> CriterionResult:
    for rule in rules:
        rest = [r for r in rules if r is not rule]
        start = dict(rule.conditions)
        if _establishes(rest, start, rule.conclusions, declared):
            return CriterionResult(
                False,
                {
                    "rule": rule.id,
                    "conditions": start,
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
    conditions = " AND ".join(f"{lit.variable}={lit.value}" for lit in rule.conditions)
    return f"R{rule.index}: IF {conditions} THEN {conclusions}"


def dump_rules(rules: tuple[PropagationRule, ...] | list[PropagationRule]) -> str:
    return "\n".join(format_rule(rule) for rule in rules)
