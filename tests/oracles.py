"""Independent brute-force oracles the tests compare the package against.

Nothing here imports from dyncsp except plain data (specs are passed in as
primitive structures), so an engine bug cannot hide in its own oracle.
"""

from itertools import combinations, product

TRUE = "true"
FALSE = "false"
BOOL = (FALSE, TRUE)

# gate kind -> python evaluator over bools, independent of the package's table builder
GATE_FN = {
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
    "xor": lambda a, b: a is not b,
    "nand": lambda a, b: not (a and b),
    "nor": lambda a, b: not (a or b),
    "not": lambda a: not a,
}


def gate_rows(kind, n_inputs):
    rows = set()
    for bits in product((False, True), repeat=n_inputs):
        out = GATE_FN[kind](*bits)
        rows.add(tuple(BOOL[b] for b in (*bits, out)))
    return rows


def brute_projection(scope, allowed, assignment, target):
    """Values of target appearing in allowed tuples that agree with assignment."""
    pos = {v: i for i, v in enumerate(scope)}
    values = set()
    for row in allowed:
        if all(row[pos[v]] == val for v, val in assignment.items()):
            values.add(row[pos[target]])
    return values


def gac_fixpoint(domains, constraints):
    """Generalized arc consistency by naive support filtering to stability.

    domains: {var: iterable of values}; constraints: [(scope, allowed rows)].
    Returns {var: set of surviving values}; empties propagate freely.
    """
    doms = {v: set(vals) for v, vals in domains.items()}
    changed = True
    while changed:
        changed = False
        for scope, allowed in constraints:
            for i, var in enumerate(scope):
                supported = set()
                for row in allowed:
                    if all(row[j] in doms[scope[j]] for j in range(len(scope))):
                        supported.add(row[i])
                new = doms[var] & supported
                if new != doms[var]:
                    doms[var] = new
                    changed = True
    return doms


def singleton_support_fixpoint(domains, constraints):
    """Filtering by the tuples that agree with the instantiated variables, to stability.

    A compiled rule tests only instantiated variables, so this is the
    fixpoint the rules reach: each constraint keeps a value at one scope
    position iff some allowed row has it there and agrees with every other
    position whose domain is a singleton. A narrowed domain of two or more
    values supports everything. On boolean domains that domain is full,
    so the result equals :func:`gac_fixpoint`; on larger domains it can
    keep values that generalized arc consistency removes. Same arguments
    and result as :func:`gac_fixpoint`.
    """
    doms = {v: set(vals) for v, vals in domains.items()}
    changed = True
    while changed:
        changed = False
        for scope, allowed in constraints:
            fixed = {j: next(iter(doms[v])) for j, v in enumerate(scope) if len(doms[v]) == 1}
            for i, var in enumerate(scope):
                supported = {
                    row[i]
                    for row in allowed
                    if all(row[j] == value for j, value in fixed.items() if j != i)
                }
                new = doms[var] & supported
                if new != doms[var]:
                    doms[var] = new
                    changed = True
    return doms


def pinned_domains(domains, observations):
    """Apply observations (var, value) as domain pre-restrictions."""
    doms = {v: set(vals) for v, vals in domains.items()}
    for var, value in observations:
        doms[var] &= {value}
    return doms


def oracle_consistent(domains, constraints, observations):
    """Propagation-consistency: GAC from the pinned domains empties nothing."""
    result = gac_fixpoint(pinned_domains(domains, observations), constraints)
    return all(result.values())


def minimal_restoring_sets(domains, constraints_by_id, relaxable, observations):
    """All subset-minimal relaxable sets whose removal restores consistency.

    constraints_by_id: {cid: (scope, allowed rows)}; relaxable: iterable of
    cids allowed in a restoring set. Enumerates subsets by ascending size,
    pruning supersets of sets already found.
    """
    relaxable = sorted(relaxable)
    found = []
    for size in range(len(relaxable) + 1):
        for subset in combinations(relaxable, size):
            chosen = frozenset(subset)
            if any(prior <= chosen for prior in found):
                continue
            remaining = [
                body for cid, body in constraints_by_id.items() if cid not in chosen
            ]
            if oracle_consistent(domains, remaining, observations):
                found.append(chosen)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def replay_events(declared, events):
    """Re-derive visible domains and empty variables from a mask/release log.

    declared: {var: tuple of values}. Only mask/release entries move state;
    everything else in the log is bookkeeping. Returns (visible, empties)
    where visible is {var: tuple} and empties the set of empty variables.
    """
    counts = {var: {} for var in declared}
    for entry in events:
        if entry[0] == "mask":
            _, var, value, cause = entry
            per_value = counts[var].setdefault(value, {})
            per_value[cause] = per_value.get(cause, 0) + 1
        elif entry[0] == "release":
            _, var, value, cause = entry
            per_value = counts[var][value]
            per_value[cause] -= 1
            if per_value[cause] == 0:
                del per_value[cause]
            if not per_value:
                del counts[var][value]
    visible = {
        var: tuple(v for v in values if v not in counts[var])
        for var, values in declared.items()
    }
    empties = {var for var, values in visible.items() if not values}
    return visible, empties


def chained_fixpoint(domains, rules, start):
    """Domains left by sweeping ground rules from ``start`` until none shrinks anything.

    domains: {var: iterable of values}; rules: [(conditions, conclusions)]
    with conditions [(var, value)] and conclusions [(var, allowed values)];
    start: {var: value}, each value inside its domain. A rule applies when
    every condition variable holds exactly its condition value, and then
    intersects each concluded domain with the allowed values. Sweeps try
    the rules in list order until one changes nothing; an emptied domain
    satisfies no condition, so after one empties the order matters.
    Returns {var: set of values}.
    """
    doms = {v: set(vals) for v, vals in domains.items()}
    for var, value in start.items():
        doms[var] = {value}
    changed = True
    while changed:
        changed = False
        for conditions, conclusions in rules:
            if all(doms[var] == {value} for var, value in conditions):
                for var, vals in conclusions:
                    kept = doms[var] & set(vals)
                    if kept != doms[var]:
                        doms[var] = kept
                        changed = True
    return doms
