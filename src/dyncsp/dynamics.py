"""Incremental retraction: cancelling firings and toggling constraints.

Cancelling a firing releases exactly the masks it justified, then
cascades to any active firing whose condition no longer holds on the
values that became visible again. Relaxing a constraint cancels the
firings of its rules; restoring it reactivates the rules and queues them
on the agenda, so propagation re-derives their consequences from the
current state. No operation ever recomputes the network from scratch.
"""

from __future__ import annotations

from .core import (
    ACTIVE,
    CANCELLED,
    ChangeRecord,
    ConstraintId,
    FiringId,
    Network,
    ObservationId,
    VariableId,
    release,
    release_observation_masks,
)
from .engine import PropagationOutcome, condition_holds, propagate


def _broken_watchers(network: Network, variable: VariableId) -> list[FiringId]:
    """Active firings watching ``variable`` whose condition on it broke."""
    broken = []
    for fid in sorted(network.watchers.get(variable, ())):
        firing = network.firings[fid]
        if firing.status != ACTIVE:
            continue
        rule = network.rule(firing.rule)
        for lit in rule.conditions:
            if lit.variable == variable and not condition_holds(network, lit):
                broken.append(fid)
                break
    return broken


def cancel_firing(network: Network, firing_id: FiringId) -> ChangeRecord:
    """Withdraw a firing and every firing its masks were holding up.

    The cascade is iterative: a released value can re-widen a domain,
    breaking the instantiation another firing depended on, which is then
    cancelled the same way. Cancelling an already cancelled firing is a
    no-op. The rule needs no agenda entry of its own: its firing masked
    every value the rule excludes, so the rule becomes useful again only
    when one of those values is released, which queues it.
    """
    if firing_id not in network.firings:
        raise ValueError(f"unknown firing {firing_id!r}")
    record = ChangeRecord()
    stack = [firing_id]
    while stack:
        fid = stack.pop()
        firing = network.firings[fid]
        if firing.status == CANCELLED:
            continue
        firing.status = CANCELLED
        record.cancelled.append(fid)
        if network.active_firing.get(firing.rule) == fid:
            del network.active_firing[firing.rule]
        rule = network.rule(firing.rule)
        for lit in rule.conditions:
            network.watchers.get(lit.variable, set()).discard(fid)
        network.events.append(("cancel", fid))
        regrown = []
        for var, value in firing.effects:
            if release(network, var, value, fid):
                record.released.append((var, value))
                regrown.append(var)
        for var in regrown:
            stack.extend(_broken_watchers(network, var))
    return record


def relax(network: Network, constraint_id: ConstraintId) -> PropagationOutcome:
    """Deactivate a constraint, withdraw its inferences, and re-propagate.

    Re-propagation matters: releasing a mask can make a rule of another
    constraint useful again (its conclusion was redundant while the mask
    stood).
    """
    constraint = network.constraint(constraint_id)
    if not constraint.active:
        raise ValueError(f"constraint {constraint_id!r} is already relaxed")
    if not constraint.relaxable:
        raise ValueError(f"constraint {constraint_id!r} is not relaxable")
    constraint.active = False
    network.events.append(("relax", constraint_id))
    for rule in network.rules[constraint_id]:
        fid = network.active_firing.get(rule.id)
        if fid is not None:
            cancel_firing(network, fid)
    return propagate(network)


def restore(network: Network, constraint_id: ConstraintId) -> PropagationOutcome:
    """Reactivate a relaxed constraint and re-derive its consequences."""
    constraint = network.constraint(constraint_id)
    if constraint.active:
        raise ValueError(f"constraint {constraint_id!r} is already active")
    constraint.active = True
    network.events.append(("restore", constraint_id))
    network.queue_rules(constraint_id)
    return propagate(network)


def retract_observation(network: Network, observation_id: ObservationId) -> PropagationOutcome:
    """Withdraw an observation, unpin its variable, and re-propagate."""
    observation = network.observations.get(observation_id)
    if observation is None:
        raise ValueError(f"unknown observation {observation_id!r}")
    if not observation.active:
        raise ValueError(f"observation {observation_id!r} is already retracted")
    observation.active = False
    network.events.append(("retract", observation_id))
    record = release_observation_masks(network, observation)
    for var in {var for var, _ in record.released}:
        for fid in _broken_watchers(network, var):
            cancel_firing(network, fid)
    return propagate(network)
