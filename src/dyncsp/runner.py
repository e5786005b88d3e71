"""Building networks from parsed declarations and executing scripts.

``run_script`` applies the observations declared in the network file,
then each script command, and collects a report: a flat event list
(operations, rule firings, conflicts), every conflict encountered, the
diagnoses of the last ``diagnose`` command, and the final visible
domains. The report serializes to stable JSON or to a plain text log.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _quote

from .compiler import dump_rules, generate
from .core import ExtensionalConstraint, Network, Observation
from .diagnosis import diagnose
from .dynamics import relax, restore, retract_observation
from .engine import (
    CONFLICT,
    ConflictSet,
    PropagationOutcome,
    assert_observation,
    extract_conflict,
    propagate,
)
from .gates import gate_table
from .textio import Command, NetworkSpec, ParseError, Script


def build_network(
    spec: NetworkSpec,
    *,
    short_circuit: bool = False,
    seed: int | None = None,
    assert_observations: bool = True,
) -> Network:
    """Compile every declared constraint into a ready-to-run network.

    Gates and tables take one path: each is an extensional constraint,
    and constraints of one shape (the allowed tuples plus the declared
    values at each scope position) are compiled once per call into a rule
    template that each of them shares. With ``assert_observations`` the
    observations declared in ``spec`` are asserted (and propagated) in
    declaration order. A ``seed`` switches propagation to randomized rule
    selection.
    """
    rng = random.Random(seed) if seed is not None else None
    network = Network(short_circuit=short_circuit, rng=rng)
    for v in spec.variables:
        network.add_variable(v.name, v.domain)
    shapes: dict = {}  # shape -> its rule template
    for constraint in _constraints(spec):
        scope = constraint.scope
        domains = tuple(network.domains[v].declared for v in scope)
        shape = constraint.allowed, domains
        if shape not in shapes:
            shapes[shape] = generate(constraint, dict(zip(scope, domains)))
        network.add_constraint(constraint, shapes[shape])
    if assert_observations:
        for o in spec.observations:
            assert_observation(network, Observation(o.id, o.variable, o.value))
    return network


def _constraints(spec: NetworkSpec):
    """Every declared constraint as an allowed-tuple table, gates first.

    A gate is its truth table over ``(*inputs, output)``.
    """
    for g in spec.gates:
        yield ExtensionalConstraint(
            id=g.id,
            label=f"{g.kind}({', '.join(g.inputs)}) -> {g.output}",
            scope=(*g.inputs, g.output),
            allowed=gate_table(g.kind, len(g.inputs)),
            relaxable=g.relaxable,
        )
    for t in spec.tables:
        yield ExtensionalConstraint(
            id=t.id,
            label=f"table({', '.join(t.scope)})",
            scope=t.scope,
            allowed=frozenset(t.tuples),
            relaxable=t.relaxable,
        )


@dataclass
class Report:
    """Everything a script run produced, ready for serialization."""

    events: list[dict] = field(default_factory=list)
    conflicts: list[dict] = field(default_factory=list)
    diagnoses: list[list[str]] = field(default_factory=list)
    domains: dict[str, list[str]] = field(default_factory=dict)
    final_consistent: bool = True
    diagnose_ran: bool = False

    def to_payload(self, *, timestamp: bool = False) -> dict:
        payload = {
            "events": self.events,
            "conflicts": self.conflicts,
            "diagnoses": self.diagnoses,
            "domains": self.domains,
        }
        if timestamp:
            payload["timestamp"] = datetime.now(timezone.utc).isoformat()
        return payload

    def to_json(self, *, timestamp: bool = False) -> str:
        return _json(self.to_payload(timestamp=timestamp), "")

    def to_text(self) -> str:
        lines: list[str] = []
        for event in self.events:
            lines.extend(_text_lines(event))
        lines.append("final domains:")
        for var, values in self.domains.items():
            lines.append(f"  {var} = {{{', '.join(values)}}}")
        lines.append(f"consistent: {'yes' if self.final_consistent else 'no'}")
        return "\n".join(lines) + "\n"


def _json(value, indent: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, keys str only."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    if not isinstance(value, (list, tuple, dict)) or not value:
        return json.dumps(value)  # true, false, null, floats, [] and {}
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):  # _quote raises TypeError on a key that is not a str
        items = sep.join([_quote(key) + ": " + _json(item, inner) for key, item in value.items()])
        return "{\n" + inner + items + "\n" + indent + "}"
    return "[\n" + inner + sep.join([_json(item, inner) for item in value]) + "\n" + indent + "]"


def _set_text(ids: list[str]) -> str:
    return "{" + ", ".join(ids) + "}"


def _conflict_text(event: dict) -> str:
    return (
        f"constraints {_set_text(event['constraints'])} "
        f"observations {_set_text(event['observations'])}"
    )


def _text_lines(event: dict) -> list[str]:
    op = event["op"]
    if op == "assert":
        lines = [f"assert {event['observation']}: {event['variable']} = {event['value']}"]
        lines.extend(f"  mask {var}={value}" for var, value in event["masks"])
        return lines
    if op == "fire":
        masks = ", ".join(f"{var}={value}" for var, value in event["masks"])
        return [f"  fire {event['rule']} [{event['firing']}] masks {masks}"]
    if op == "conflict":
        return [f"conflict at {event['variable']}: {_conflict_text(event)}"]
    if op == "conflicts":
        if event["variable"] is None:
            return ["conflicts: none"]
        return [f"conflicts at {event['variable']}: {_conflict_text(event)}"]
    if op == "retract":
        lines = [f"retract {event['observation']}"]
        lines.extend(f"  release {var}={value}" for var, value in event["released"])
        lines.extend(f"  cancel firing {fid}" for fid in event["cancelled"])
        return lines
    if op == "relax":
        lines = [f"relax {event['constraint']}"]
        lines.extend(f"  cancel firing {fid}" for fid in event["cancelled"])
        lines.extend(f"  release {var}={value}" for var, value in event["released"])
        return lines
    if op == "restore":
        return [f"restore {event['constraint']}"]
    if op == "propagate":
        return ["propagate"]
    if op == "diagnose":
        lines = [f"diagnose max={event['max']}:"]
        if event["diagnoses"]:
            lines.extend(f"  {_set_text(d)}" for d in event["diagnoses"])
        else:
            lines.append("  none within bound")
        return lines
    if op == "dump" and event["what"] == "rules":
        lines = [f"rules of {event['constraint']}:"]
        if event["lines"]:
            lines.extend(f"  {line}" for line in event["lines"])
        else:
            lines.append("  (none)")
        return lines
    if op == "dump" and event["what"] == "domains":
        lines = ["domains:"]
        lines.extend(
            f"  {var} = {{{', '.join(values)}}}" for var, values in event["domains"].items()
        )
        return lines
    return [str(event)]


def _translate_delta(delta: list[tuple]) -> tuple[dict, list[dict]]:
    """Split an event-log slice into an op summary and rule-firing events."""
    summary = {"masks": [], "released": [], "cancelled": []}
    fires: list[dict] = []
    for entry in delta:
        kind = entry[0]
        if kind == "mask":
            _, var, value, cause = entry
            if isinstance(cause, str):
                summary["masks"].append([var, value])
        elif kind == "release":
            _, var, value, _cause = entry
            summary["released"].append([var, value])
        elif kind == "cancel":
            summary["cancelled"].append(entry[1])
        elif kind == "fire":
            _, fid, (cid, index), supports, effects = entry
            fires.append(
                {
                    "op": "fire",
                    "firing": fid,
                    "rule": f"{cid}.R{index}",
                    "constraint": cid,
                    "supports": [
                        [var, value, list(causes)] for var, value, causes in supports
                    ],
                    "masks": [[var, value] for var, value in effects],
                }
            )
    return summary, fires


def _conflict_fields(variable, conflict: ConflictSet, include_observations: bool) -> dict:
    listed = sorted(conflict.constraints)
    observed = sorted(conflict.observations)
    if include_observations:
        listed = sorted({*listed, *observed})
    return {"variable": variable, "constraints": listed, "observations": observed}


def run_script(
    spec: NetworkSpec,
    script: Script,
    *,
    short_circuit: bool = False,
    seed: int | None = None,
    include_observations: bool = False,
) -> Report:
    """Execute a script against a freshly built network and report.

    Observations declared in the network file run first, as implicit
    assert commands. A command that fails when applied (retracting an
    observation twice, relaxing a fixed constraint) raises a
    ``ParseError`` that names its script line.
    """
    network = build_network(
        spec, short_circuit=short_circuit, seed=seed, assert_observations=False
    )
    report = Report()
    steps = [Command("assert", (o.id, o.variable, o.value)) for o in spec.observations]
    steps.extend(script.commands)
    for command in steps:
        try:
            _apply(network, command, report, include_observations)
        except ValueError as exc:
            raise ParseError(str(exc), command.line or None) from exc
    report.domains = {name: list(dom.visible()) for name, dom in network.domains.items()}
    report.final_consistent = network.first_empty() is None
    return report


def _apply(network: Network, command: Command, report: Report, include_observations: bool) -> None:
    """Run one command and append what it did to ``report``."""
    start = len(network.events)
    outcome: PropagationOutcome | None = None
    header: dict | None = None
    if command.op == "assert":
        oid, variable, value = command.args
        outcome = assert_observation(network, Observation(oid, variable, value))
        header = {"op": "assert", "observation": oid, "variable": variable, "value": value}
    elif command.op == "retract":
        outcome = retract_observation(network, command.args[0])
        header = {"op": "retract", "observation": command.args[0]}
    elif command.op == "relax":
        outcome = relax(network, command.args[0])
        header = {"op": "relax", "constraint": command.args[0]}
    elif command.op == "restore":
        outcome = restore(network, command.args[0])
        header = {"op": "restore", "constraint": command.args[0]}
    elif command.op == "propagate":
        outcome = propagate(network)
        header = {"op": "propagate"}
    elif command.op == "conflicts":
        variable = network.first_empty()
        if variable is None:
            report.events.append(
                {"op": "conflicts", "variable": None, "constraints": [], "observations": []}
            )
        else:
            fields = _conflict_fields(
                variable, extract_conflict(network, variable), include_observations
            )
            report.events.append({"op": "conflicts", **fields})
    elif command.op == "diagnose":
        results = diagnose(network, command.args[0])
        listed = [sorted(d.constraints) for d in results]
        report.events.append(
            {"op": "diagnose", "max": command.args[0], "diagnoses": listed}
        )
        report.diagnoses = listed
        report.diagnose_ran = True
    elif command.op == "dump_rules":
        cid = command.args[0]
        network.constraint(cid)
        report.events.append(
            {
                "op": "dump",
                "what": "rules",
                "constraint": cid,
                "lines": dump_rules(network.rules[cid]).splitlines(),
            }
        )
    elif command.op == "dump_domains":
        report.events.append(
            {
                "op": "dump",
                "what": "domains",
                "domains": {v: list(d.visible()) for v, d in network.domains.items()},
            }
        )
    else:
        raise ValueError(f"unknown command {command.op!r}")
    if header is not None:
        summary, fires = _translate_delta(network.events[start:])
        if command.op == "assert":
            header["masks"] = summary["masks"]
        elif command.op in ("retract", "relax"):
            header["released"] = summary["released"]
            header["cancelled"] = summary["cancelled"]
        report.events.append(header)
        report.events.extend(fires)
        if outcome is not None and outcome.status == CONFLICT:
            record = _conflict_fields(*outcome.conflict, include_observations)
            report.events.append({"op": "conflict", **record})
            report.conflicts.append(record)
