"""Text formats for networks and interaction scripts.

A network file declares variables, gates, tables, and observations, one
per line; ``#`` starts a full-line comment. A script file is a sequence
of commands applied to a network in order. Both parsers validate every
reference and report errors with line and column.

Network lines::

    var X bool
    var MODE { low mid high }
    gate O1 or E1 E2 -> X [norelax]
    table T1 ( A B C ) : (false,false,true) (true,true,true) [norelax]
    obs M1 X = true

Script lines::

    assert M2 Y = false
    retract M2
    relax O1
    restore O1
    propagate
    conflicts
    diagnose max=3
    dump rules O1
    dump domains
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import BOOL_DOMAIN
from .gates import GATES

_TOKEN = re.compile(r"[(){},:]|[^\s(){},:]+")

NORELAX = "norelax"


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class VariableDecl:
    name: str
    domain: tuple[str, ...]


@dataclass(frozen=True)
class GateDecl:
    id: str
    kind: str
    inputs: tuple[str, ...]
    output: str
    relaxable: bool = True


@dataclass(frozen=True)
class TableDecl:
    id: str
    scope: tuple[str, ...]
    tuples: tuple[tuple[str, ...], ...]
    relaxable: bool = True


@dataclass(frozen=True)
class ObservationDecl:
    id: str
    variable: str
    value: str


@dataclass(frozen=True)
class NetworkSpec:
    variables: tuple[VariableDecl, ...] = ()
    gates: tuple[GateDecl, ...] = ()
    tables: tuple[TableDecl, ...] = ()
    observations: tuple[ObservationDecl, ...] = ()

    def domain_of(self) -> dict[str, tuple[str, ...]]:
        return {v.name: v.domain for v in self.variables}

    def constraint_ids(self) -> set[str]:
        return {g.id for g in self.gates} | {t.id for t in self.tables}


@dataclass(frozen=True)
class Command:
    op: str
    args: tuple = ()
    line: int = 0


@dataclass(frozen=True)
class Script:
    commands: tuple[Command, ...] = ()


class _Cursor:
    """One tokenized line with position-aware errors."""

    def __init__(self, line_no: int, text: str):
        self.line_no = line_no
        self.text = text
        self.tokens = _TOKEN.findall(text)
        self.pos = 0

    def error(self, message: str, column: int | None = None) -> ParseError:
        return ParseError(message, self.line_no, column)

    @property
    def column(self) -> int:
        """The 1-based column of the last token taken, found by its index on the line."""
        return [m.start() + 1 for m in _TOKEN.finditer(self.text)][self.pos - 1]

    def peek(self) -> str | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def take(self, what: str) -> str:
        if self.pos >= len(self.tokens):
            raise self.error(f"expected {what}, found end of line")
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, literal: str) -> None:
        token = self.take(f"{literal!r}")
        if token != literal:
            raise self.error(f"expected {literal!r}, found {token!r}", self.column)

    def finish(self) -> None:
        if self.pos < len(self.tokens):
            token = self.take("a trailing token")
            raise self.error(f"unexpected trailing {token!r}", self.column)

    def take_norelax_flag(self) -> bool:
        if self.peek() == NORELAX:
            self.take(NORELAX)
            return False
        return True


def _lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield _Cursor(line_no, raw)


def parse_network(text: str) -> NetworkSpec:
    variables: list[VariableDecl] = []
    gates: list[GateDecl] = []
    tables: list[TableDecl] = []
    observations: list[ObservationDecl] = []
    domains: dict[str, tuple[str, ...]] = {}
    constraint_ids: set[str] = set()
    observation_ids: set[str] = set()
    for cur in _lines(text):
        head = cur.take("a declaration")
        if head == "var":
            decl = _parse_var(cur, domains)
            variables.append(decl)
            domains[decl.name] = decl.domain
        elif head == "gate":
            gates.append(_parse_gate(cur, domains, constraint_ids))
        elif head == "table":
            tables.append(_parse_table(cur, domains, constraint_ids))
        elif head == "obs":
            observations.append(_parse_obs(cur, domains, observation_ids))
        else:
            raise cur.error(f"unknown declaration {head!r}", cur.column)
    return NetworkSpec(tuple(variables), tuple(gates), tuple(tables), tuple(observations))


def _parse_var(cur: _Cursor, domains) -> VariableDecl:
    name = cur.take("a variable name")
    if name in domains:
        raise cur.error(f"variable {name!r} already declared", cur.column)
    token = cur.take("'bool' or a domain in braces")
    if token == "bool":
        domain = BOOL_DOMAIN
    elif token == "{":
        values = []
        while True:
            token = cur.take("a domain value or '}'")
            if token == "}":
                break
            if token in values:
                raise cur.error(f"duplicate domain value {token!r}", cur.column)
            values.append(token)
        if not values:
            raise cur.error("empty domain")
        domain = tuple(values)
    else:
        raise cur.error(f"expected 'bool' or '{{', found {token!r}", cur.column)
    cur.finish()
    return VariableDecl(name, domain)


def _take_variable(cur: _Cursor, domains, what: str) -> str:
    name = cur.take(what)
    if domains is not None and name not in domains:
        raise cur.error(f"undeclared variable {name!r}", cur.column)
    return name


def _take_constraint_id(cur: _Cursor, constraint_ids: set) -> str:
    cid = cur.take("a constraint id")
    if cid in constraint_ids:
        raise cur.error(f"constraint id {cid!r} already used", cur.column)
    constraint_ids.add(cid)
    return cid


def _parse_gate(cur: _Cursor, domains, constraint_ids) -> GateDecl:
    cid = _take_constraint_id(cur, constraint_ids)
    kind = cur.take("a gate kind")
    if kind not in GATES:
        raise cur.error(f"unknown gate kind {kind!r}", cur.column)
    inputs = tuple(
        _take_variable(cur, domains, f"input {i + 1} of {kind!r}")
        for i in range(GATES[kind])
    )
    cur.expect("->")
    output = _take_variable(cur, domains, "an output variable")
    relaxable = cur.take_norelax_flag()
    cur.finish()
    scope = (*inputs, output)
    if len(set(scope)) != len(scope):
        raise cur.error(f"gate {cid!r} uses a variable twice")
    for var in scope:
        if domains[var] != BOOL_DOMAIN:
            raise cur.error(f"gate {cid!r} needs boolean variables, {var!r} is not")
    return GateDecl(cid, kind, inputs, output, relaxable)


def _parse_table(cur: _Cursor, domains, constraint_ids) -> TableDecl:
    cid = _take_constraint_id(cur, constraint_ids)
    cur.expect("(")
    scope: list[str] = []
    while True:
        token = cur.take("a scope variable or ')'")
        if token == ")":
            break
        if token not in domains:
            raise cur.error(f"undeclared variable {token!r}", cur.column)
        if token in scope:
            raise cur.error(f"table {cid!r} repeats variable {token!r}", cur.column)
        scope.append(token)
    if not scope:
        raise cur.error(f"table {cid!r} has an empty scope")
    cur.expect(":")
    rows: list[tuple[str, ...]] = []
    while cur.peek() is not None and cur.peek() != NORELAX:
        cur.expect("(")
        row: list[str] = []
        for i, var in enumerate(scope):
            if i:
                cur.expect(",")
            value = cur.take(f"a value for {var!r}")
            if value not in domains[var]:
                raise cur.error(f"value {value!r} is outside the domain of {var!r}", cur.column)
            row.append(value)
        cur.expect(")")
        if tuple(row) in rows:
            raise cur.error(f"table {cid!r} repeats tuple {tuple(row)!r}")
        rows.append(tuple(row))
    if not rows:
        raise cur.error(f"table {cid!r} allows no tuples")
    relaxable = cur.take_norelax_flag()
    cur.finish()
    return TableDecl(cid, tuple(scope), tuple(rows), relaxable)


def _parse_obs(cur: _Cursor, domains, observation_ids) -> ObservationDecl:
    """``<id> <variable> = <value>``; without ``domains`` only the id is checked."""
    oid = cur.take("an observation id")
    if oid in observation_ids:
        raise cur.error(f"observation id {oid!r} already used", cur.column)
    observation_ids.add(oid)
    variable = _take_variable(cur, domains, "a variable")
    cur.expect("=")
    value = cur.take("a value")
    if domains is not None and value not in domains[variable]:
        raise cur.error(f"value {value!r} is outside the domain of {variable!r}", cur.column)
    cur.finish()
    return ObservationDecl(oid, variable, value)


def parse_script(text: str, spec: NetworkSpec | None = None) -> Script:
    """Parse a command script, validating references against ``spec`` if given."""
    domains = spec.domain_of() if spec is not None else None
    constraint_ids = spec.constraint_ids() if spec is not None else None
    observation_ids = set() if spec is None else {o.id for o in spec.observations}
    commands: list[Command] = []
    for cur in _lines(text):
        head = cur.take("a command")
        if head == "assert":
            obs = _parse_obs(cur, domains, observation_ids)
            commands.append(Command("assert", (obs.id, obs.variable, obs.value), cur.line_no))
        elif head == "retract":
            oid = cur.take("an observation id")
            if spec is not None and oid not in observation_ids:
                raise cur.error(f"unknown observation {oid!r}", cur.column)
            commands.append(Command("retract", (oid,), cur.line_no))
        elif head in ("relax", "restore"):
            cid = cur.take("a constraint id")
            if constraint_ids is not None and cid not in constraint_ids:
                raise cur.error(f"unknown constraint {cid!r}", cur.column)
            commands.append(Command(head, (cid,), cur.line_no))
        elif head == "propagate":
            commands.append(Command("propagate", (), cur.line_no))
        elif head == "conflicts":
            commands.append(Command("conflicts", (), cur.line_no))
        elif head == "diagnose":
            token = cur.take("'max=<k>'")
            match = re.fullmatch(r"max=(\d+)", token)
            if match is None or int(match.group(1)) < 1:
                raise cur.error(f"expected 'max=<positive int>', found {token!r}", cur.column)
            commands.append(Command("diagnose", (int(match.group(1)),), cur.line_no))
        elif head == "dump":
            what = cur.take("'rules' or 'domains'")
            if what == "rules":
                cid = cur.take("a constraint id")
                if constraint_ids is not None and cid not in constraint_ids:
                    raise cur.error(f"unknown constraint {cid!r}", cur.column)
                commands.append(Command("dump_rules", (cid,), cur.line_no))
            elif what == "domains":
                commands.append(Command("dump_domains", (), cur.line_no))
            else:
                raise cur.error(f"expected 'rules' or 'domains', found {what!r}", cur.column)
        else:
            raise cur.error(f"unknown command {head!r}", cur.column)
        cur.finish()
    return Script(tuple(commands))


def serialize_network(spec: NetworkSpec) -> str:
    """Render a spec back to the network file format."""
    lines: list[str] = []
    for v in spec.variables:
        if v.domain == BOOL_DOMAIN:
            lines.append(f"var {v.name} bool")
        else:
            lines.append(f"var {v.name} {{ {' '.join(v.domain)} }}")
    for g in spec.gates:
        suffix = "" if g.relaxable else f" {NORELAX}"
        lines.append(f"gate {g.id} {g.kind} {' '.join(g.inputs)} -> {g.output}{suffix}")
    for t in spec.tables:
        rows = " ".join(f"({','.join(row)})" for row in t.tuples)
        suffix = "" if t.relaxable else f" {NORELAX}"
        lines.append(f"table {t.id} ( {' '.join(t.scope)} ) : {rows}{suffix}")
    for o in spec.observations:
        lines.append(f"obs {o.id} {o.variable} = {o.value}")
    return "\n".join(lines) + "\n"
