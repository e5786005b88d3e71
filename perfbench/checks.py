"""Correctness checks against the independent oracles in ``tests/oracles.py``
(and ``oracle_structures`` from ``tests/generators.py``).

Each check returns a list of failure messages (empty when it passes). The
checks run outside every timed region. Rule chaining for the compile
check is re-implemented here from the rule data alone, so a bug in the
package's own closure cannot hide in its check.
"""

from __future__ import annotations

from itertools import combinations, product

import oracles
from generators import oracle_structures


def session_state(network, spec, active_gates, pins) -> list[str]:
    """Visible domains equal GAC over the active gates plus the active pins."""
    domains = {v.name: v.domain for v in spec.variables}
    constraints = [
        ((*g.inputs, g.output), oracles.gate_rows(g.kind, len(g.inputs)))
        for g in spec.gates
        if g.id in active_gates
    ]
    expected = oracles.gac_fixpoint(oracles.pinned_domains(domains, pins), constraints)
    visible = network.visible_state()
    return [
        f"{var}: visible {sorted(visible[var])}, oracle {sorted(values)}"
        for var, values in expected.items()
        if set(visible[var]) != values
    ][:3]


def diagnoses(spec, found: list[frozenset], injected: frozenset) -> list[str]:
    """Each diagnosis restores consistency, minimally; one lies inside the injected faults."""
    domains, constraints = oracle_structures(spec)
    observations = [(o.variable, o.value) for o in spec.observations]

    def consistent_without(removed):
        kept = [body for cid, body in constraints.items() if cid not in removed]
        return oracles.oracle_consistent(domains, kept, observations)

    failures = []
    if not any(d <= injected for d in found):
        failures.append(f"no diagnosis inside the injected faults {sorted(injected)}: {found}")
    for d in found:
        if not consistent_without(d):
            failures.append(f"{sorted(d)} does not restore consistency")
        for size in range(len(d)):
            for subset in combinations(sorted(d), size):
                if consistent_without(frozenset(subset)):
                    failures.append(f"{sorted(d)} is not minimal: {list(subset)} suffices")
    return failures


def _chain(rules, start, declared):
    doms = {var: set(values) for var, values in declared.items()}
    for var, value in start.items():
        doms[var] = {value}
    changed = True
    while changed:
        changed = False
        for rule in rules:
            if all(doms[var] == {value} for var, value in rule.conditions):
                for var, values in rule.conclusions:
                    narrowed = doms[var] & set(values)
                    if narrowed != doms[var]:
                        doms[var] = narrowed
                        changed = True
    return doms


def table_rules(rules, scope, allowed, declared) -> list[str]:
    """Chaining the rules from every consistent partial assignment gives the exact projections."""
    for choice in product(*((None, *declared[var]) for var in scope)):
        start = {var: value for var, value in zip(scope, choice) if value is not None}
        if not any(all(row[i] == choice[i] for i in range(len(scope)) if choice[i] is not None) for row in allowed):
            continue
        result = _chain(rules, start, declared)
        for var in scope:
            if var in start:
                continue
            expected = oracles.brute_projection(scope, allowed, start, var)
            if result[var] != expected:
                return [f"from {start}: {var} chains to {sorted(result[var])}, oracle {sorted(expected)}"]
    return []
