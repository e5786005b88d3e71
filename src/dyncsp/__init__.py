"""Dynamic finite-domain constraint propagation with justifications.

Extensional constraints are compiled into minimal ground rules, forward
chained under a full justification trace, and can be relaxed or restored
incrementally. Inconsistent networks are explained by conflict sets and
repaired by minimal diagnoses.

The package root exports the documented API; internals such as
``mask_value``, ``fire_rule`` or ``closure`` live in their modules.
"""

from .compiler import dump_rules, generate, verify_rules
from .core import BOOL_DOMAIN, ExtensionalConstraint, Network, Observation
from .diagnosis import Diagnosis, diagnose
from .dynamics import relax, restore, retract_observation
from .engine import (
    ConflictSet,
    PropagationOutcome,
    assert_observation,
    extract_conflict,
    propagate,
)
from .gates import GATES, gate_table
from .runner import Report, build_network, run_script
from .textio import (
    GateDecl,
    NetworkSpec,
    ObservationDecl,
    ParseError,
    TableDecl,
    VariableDecl,
    parse_network,
    parse_script,
    serialize_network,
)

__all__ = [
    "BOOL_DOMAIN",
    "GATES",
    "gate_table",
    "Network",
    "ExtensionalConstraint",
    "Observation",
    "NetworkSpec",
    "VariableDecl",
    "GateDecl",
    "TableDecl",
    "ObservationDecl",
    "ParseError",
    "parse_network",
    "parse_script",
    "serialize_network",
    "build_network",
    "run_script",
    "Report",
    "generate",
    "verify_rules",
    "dump_rules",
    "assert_observation",
    "retract_observation",
    "relax",
    "restore",
    "propagate",
    "extract_conflict",
    "diagnose",
    "Diagnosis",
    "ConflictSet",
    "PropagationOutcome",
]
