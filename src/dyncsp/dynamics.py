"""Incremental retraction: cancelling firings and toggling constraints.

Cancelling a firing releases exactly the masks it justified, then
cascades to any active firing left unfounded: a value its condition
needs hidden became visible again, or is now hidden only by firings
younger than itself. Relaxing a constraint cancels the firings of its
rules; restoring it reactivates the rules and queues those whose
conditions hold, so propagation re-derives their consequences from the
current state. No operation ever recomputes the network from scratch.
"""

from __future__ import annotations

import math

from .core import (
    ChangeRecord,
    ConstraintId,
    FiringId,
    Network,
    ObservationId,
    Value,
    VariableId,
    release,
)
from .engine import PropagationOutcome, propagate


def _unfounded_firings(network: Network, variable: VariableId, value: Value) -> list[FiringId]:
    """Active firings that ``variable=value`` leaves unfounded, sorted by id.

    A firing relies on every value its condition on ``variable`` excludes,
    and stays founded while each such value is hidden by an observation
    or by a firing older than itself. Firing ids grow, so while every
    active firing is founded, every mask rests on observations: firings
    that only hide each other's values form a cycle of self-support, and
    its oldest member is unfounded. The firings that test ``variable`` at
    another value are found as queuing finds rules: through its
    occurrences, the template's ``conditioned`` lists (keyed by the
    value's bit), and ``active_firing``.
    """
    dom = network.domains[variable]
    causes = dom.mask.get(value, ())
    if any(isinstance(cause, str) for cause in causes):
        return []
    oldest = min(causes, default=math.inf)
    bit = dom.bit(value)
    unfounded = []
    for cid, position in network.occurrences.get(variable, ()):
        for tested, indices in network.templates[cid].conditioned[position].items():
            if tested == bit:
                continue
            for i in indices:
                fid = network.active_firing.get((cid, i))
                if fid is not None and fid <= oldest:
                    unfounded.append(fid)
    return sorted(unfounded)


def cancel_firing(network: Network, firing_id: FiringId) -> ChangeRecord:
    """Withdraw a firing and every firing its masks were holding up.

    The cascade is iterative: a released value can re-widen a domain,
    breaking the instantiation another firing depended on, or stay
    hidden only by firings younger than one that relies on it; either
    firing is then cancelled the same way. A firing is active iff
    ``network.active_firing`` maps its rule to its id, so cancelling one
    that is not is a no-op. The rule needs no agenda entry of its own:
    its firing masked every value the rule excludes, so the rule becomes
    useful again only when one of those values is released, which
    queues it once its conditions hold.
    """
    if firing_id not in network.firings:
        raise ValueError(f"unknown firing {firing_id!r}")
    record = ChangeRecord()
    stack = [firing_id]
    while stack:
        fid = stack.pop()
        firing = network.firings[fid]
        if network.active_firing.get(firing.rule) != fid:
            continue
        del network.active_firing[firing.rule]
        record.cancelled.append(fid)
        network.events.append(("cancel", fid))
        for var, value in firing.effects:
            release(network, var, value, fid)
            stack.extend(_unfounded_firings(network, var, value))
    return record


def set_active(network: Network, constraint_id: ConstraintId, active: bool) -> None:
    """Relax or restore a constraint without propagating.

    Relaxing deactivates the constraint and cancels the firings of its
    rules; restoring reactivates it and queues its rules whose conditions
    hold (the others wait for their watches).
    The next propagation pass re-derives what either change allows, so a
    caller that toggles several constraints propagates once.
    """
    constraint = network.constraint(constraint_id)
    if constraint.active == active:
        state = "active" if active else "relaxed"
        raise ValueError(f"constraint {constraint_id!r} is already {state}")
    if not (active or constraint.relaxable):
        raise ValueError(f"constraint {constraint_id!r} is not relaxable")
    constraint.active = active
    network.events.append(("restore" if active else "relax", constraint_id))
    if active:
        network.queue_rules(constraint_id)
        return
    for index in range(1, len(network.templates[constraint_id].packed) + 1):
        fid = network.active_firing.get((constraint_id, index))
        if fid is not None:
            cancel_firing(network, fid)


def relax(network: Network, constraint_id: ConstraintId) -> PropagationOutcome:
    """Deactivate a constraint, withdraw its inferences, and re-propagate.

    Re-propagation matters: releasing a mask can make a rule of another
    constraint useful again (its conclusion was redundant while the mask
    stood).
    """
    set_active(network, constraint_id, False)
    return propagate(network)


def restore(network: Network, constraint_id: ConstraintId) -> PropagationOutcome:
    """Reactivate a relaxed constraint and re-derive its consequences."""
    set_active(network, constraint_id, True)
    return propagate(network)


def retract_observation(network: Network, observation_id: ObservationId) -> PropagationOutcome:
    """Withdraw an observation, unpin its variable, and re-propagate.

    Firings whose conditions the pin held up, alone or together with
    younger firings only, are cancelled before propagating.
    """
    observation = network.observations.get(observation_id)
    if observation is None:
        raise ValueError(f"unknown observation {observation_id!r}")
    if not observation.active:
        raise ValueError(f"observation {observation_id!r} is already retracted")
    observation.active = False
    network.events.append(("retract", observation_id))
    var = observation.variable
    unfounded: list[FiringId] = []
    for value in network.domains[var].declared:
        if value != observation.value:
            release(network, var, value, observation_id)
            unfounded.extend(_unfounded_firings(network, var, value))
    for fid in unfounded:
        cancel_firing(network, fid)
    return propagate(network)
