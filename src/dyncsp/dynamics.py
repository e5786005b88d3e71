"""Incremental retraction: cancelling firings and toggling constraints.

Withdrawal has one path. A retract releases its pin's masks and a relax
takes its constraint's active firings; either then makes one
:func:`cancel_firing` call, which releases exactly the masks each
firing justified and cascades to whatever each release leaves
unfounded: a value a firing's condition needs hidden became visible
again, or is now hidden only by firings younger than itself
(:func:`dyncsp.core.release` finds them). Restoring a constraint
reactivates its rules and queues those whose conditions hold, so
propagation re-derives their consequences from the current state. No
operation ever recomputes the network from scratch.
"""

from __future__ import annotations

from .core import (
    ChangeRecord,
    ConstraintId,
    FiringId,
    Network,
    ObservationId,
    release,
)
from .engine import PropagationOutcome, propagate


def cancel_firing(network: Network, *firing_ids: FiringId) -> ChangeRecord:
    """Withdraw firings, in order, and every firing their masks were holding up.

    Every id is checked before anything changes. The cascade is one
    depth-first stack, seeded with the ids in reverse so that each one's
    cascade runs before the next id, and fed by what each release of a
    cancelled firing's masks leaves unfounded (:func:`release`). A firing
    is active iff ``network.active_firing`` maps its rule to its id, so
    one that is not by the time it is popped is skipped. The rule needs
    no agenda entry of its own: its firing masked every value the rule
    excludes, so the rule becomes useful again only when one of those
    values is released, which queues it once its conditions hold.
    """
    for firing_id in firing_ids:
        if firing_id not in network.firings:
            raise ValueError(f"unknown firing {firing_id!r}")
    record = ChangeRecord()
    stack = list(reversed(firing_ids))
    while stack:
        fid = stack.pop()
        firing = network.firings[fid]
        if network.active_firing.get(firing.rule) != fid:
            continue
        del network.active_firing[firing.rule]
        record.cancelled.append(fid)
        network.events.append(("cancel", fid))
        for var, value in firing.effects:
            stack += release(network, var, value, fid)
    return record


def set_active(network: Network, constraint_id: ConstraintId, active: bool) -> None:
    """Relax or restore a constraint without propagating.

    Relaxing deactivates the constraint and cancels the active firings of
    its rules, in rule-index order, in one :func:`cancel_firing` call;
    restoring reactivates it and queues its rules whose conditions
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
    firings, count = network.active_firing, len(constraint.template.packed)
    keys = [(constraint_id, i) for i in range(1, count + 1)]
    cancel_firing(network, *(firings[key] for key in keys if key in firings))


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
    younger firings only, are what releasing its masks leaves unfounded;
    one :func:`cancel_firing` call withdraws them before propagating.
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
            unfounded += release(network, var, value, observation_id)
    cancel_firing(network, *unfounded)
    return propagate(network)
