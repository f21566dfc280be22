"""Parsers and printers for the three textual formats (.dt, .sd, .sc).

All three are line oriented, UTF-8, with ``#`` starting a comment that runs
to end of line.  Grammars are documented in docs/formats.md; the canonical
test corpus is the coffee-machine domain theory under tests/fixtures.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .model import (
    BoolDomain,
    Condition,
    DomainTheory,
    EnumDomain,
    IntRangeDomain,
    Message,
    MessageSpec,
    Node,
    SequenceDiagram,
    Statechart,
    StateVariable,
    Transition,
    VarDomain,
    check_chart,
    walk,
)


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:1"  # errors locate whole lines, from column 1


class ParseError(Exception):
    def __init__(self, span: SourceSpan, message: str, expected: str | None = None):
        self.span = span
        self.message = message
        self.expected = expected
        detail = f"{span}: {message}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


IDENT = r"[A-Za-z_][A-Za-z0-9_-]*"
_IDENT_RE = re.compile(IDENT + r"$")


def _lines(text: str):
    """Yield (lineno, stripped content) for non-blank, non-comment lines."""
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.partition("#")[0].strip()
        if body:
            yield no, body


# ---------------------------------------------------------------------------
# Domains


def _parse_domain(text: str, span: SourceSpan) -> VarDomain:
    text = text.strip()
    if text == "Boolean":
        return BoolDomain()
    m = re.fullmatch(r"(-?\d+)\s*\.\.\s*(-?\d+)", text)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo > hi:
            raise ParseError(span, f"empty integer range {lo}..{hi}")
        return IntRangeDomain(lo, hi)
    m = re.fullmatch(r"enum\s*\{([^}]*)\}", text)
    if m:
        labels = tuple(s.strip() for s in m.group(1).split(",") if s.strip())
        if not labels:
            raise ParseError(span, "enumeration with no labels")
        if len(set(labels)) != len(labels):
            raise ParseError(span, f"duplicate enumeration label in {labels}")
        for lab in labels:
            if not _IDENT_RE.match(lab):
                raise ParseError(span, f"bad enumeration label {lab!r}")
        return EnumDomain(labels)
    raise ParseError(span, f"cannot parse domain {text!r}",
                     expected="Boolean, lo..hi or enum {...}")


# ---------------------------------------------------------------------------
# Domain theory (.dt)


_ATOM_RE = re.compile(rf"({IDENT})\s*=\s*(-?\w+)")


def _atoms(text: str, span: SourceSpan, noun: str):
    """Yield the (var, value) atoms of ``var = value and var = value``; a
    variable named twice is an error once the caller has taken every atom."""
    names = []
    for part in re.split(r"\s+and\s+", text.strip()):
        m = _ATOM_RE.fullmatch(part.strip())
        if not m:
            raise ParseError(span, f"cannot parse {noun} {part.strip()!r}", expected="var = value")
        names.append(m.group(1))
        yield m.group(1), m.group(2)
    if len(set(names)) != len(names):
        raise ParseError(span, "variable repeated within one condition")


def _parse_condition(text: str, span: SourceSpan, variables, params) -> Condition:
    """Parse ``var = value and var = value``; values checked against domains."""
    if not text.strip():
        return Condition()
    atoms = []
    for var_name, value in _atoms(text, span, "atom"):
        var = variables.get(var_name)
        if var is None:
            raise ParseError(span, f"unknown state variable {var_name!r}")
        if value in params:
            if params[value] != var.domain:
                raise ParseError(
                    span,
                    f"parameter {value!r} has domain {params[value].describe()}, "
                    f"variable {var_name} expects {var.domain.describe()}",
                )
        elif not var.domain.contains(value):
            raise ParseError(span, f"literal {value!r} outside domain of {var_name} "
                                   f"({var.domain.describe()})")
        atoms.append((var_name, value))
    return Condition(tuple(atoms))


_CONTEXT_RE = re.compile(rf"context\s+(.+?)\s*(\(\s*({IDENT})\s*:\s*(.+?)\s*\))?\s*$")


def parse_domain_theory(text: str, filename: str = "<dt>") -> DomainTheory:
    variables: dict[str, StateVariable] = {}
    specs: dict[str, MessageSpec] = {}

    lines = list(_lines(text))
    i = 0
    seen_context = False
    while i < len(lines):
        no, body = lines[i]
        span = SourceSpan(filename, no)

        if body.startswith("context"):
            seen_context = True
            m = _CONTEXT_RE.match(body)
            if not m:
                raise ParseError(span, f"cannot parse context header {body!r}")
            name = m.group(1).strip()
            params: dict[str, VarDomain] = {}
            if m.group(2):
                params[m.group(3)] = _parse_domain(m.group(4), span)
            if name in specs:
                raise ParseError(span, f"duplicate context name {name!r}")
            i += 1
            conds = {"pre": Condition(), "post": Condition()}
            for which in ("pre", "post"):
                if i >= len(lines):
                    break
                no2, body2 = lines[i]
                if not body2.startswith(which + ":"):
                    continue
                # Accumulate continuation lines until the terminating ';' or
                # the next clause/context (empty conditions have no ';').
                chunk = body2[len(which) + 1:]
                i += 1
                while ";" not in chunk:
                    if i >= len(lines):
                        break
                    peek = lines[i][1]
                    if peek.startswith(("context", "pre:", "post:")):
                        break
                    chunk += " " + peek
                    i += 1
                chunk, _, rest = chunk.partition(";")
                if rest.strip():  # the ';' ends the clause on the line read last
                    raise ParseError(SourceSpan(filename, lines[i - 1][0]),
                                     f"unexpected text after ';': {rest.strip()!r}")
                conds[which] = _parse_condition(chunk, SourceSpan(filename, no2),
                                                variables, params)
            specs[name] = MessageSpec(name, tuple(params.items()), conds["pre"], conds["post"])
            continue

        if seen_context:
            raise ParseError(span, f"unexpected line after contexts: {body!r}")

        # Variable declaration: one or more names, a colon, one domain.
        if ":" not in body:
            raise ParseError(span, f"cannot parse declaration {body!r}",
                             expected="name[, name...] : domain")
        names_part, dom_part = body.split(":", 1)
        dom = _parse_domain(dom_part, span)
        for raw in names_part.split(","):
            name = raw.strip()
            if not _IDENT_RE.match(name):
                raise ParseError(span, f"bad variable name {name!r}")
            if name in variables:
                raise ParseError(span, f"duplicate state variable declaration {name!r}")
            variables[name] = StateVariable(name, dom, len(variables))
        i += 1

    return DomainTheory(tuple(variables.values()), tuple(specs.values()))


def print_domain_theory(dt: DomainTheory) -> str:
    out = []
    # Group consecutive variables sharing a domain onto one line, Fig. 6 style.
    i = 0
    vars_ = dt.variables
    while i < len(vars_):
        j = i
        while j + 1 < len(vars_) and vars_[j + 1].domain == vars_[i].domain:
            j += 1
        names = ", ".join(v.name for v in vars_[i:j + 1])
        out.append(f"{names} : {vars_[i].domain.describe()}")
        i = j + 1
    for spec in dt.specs:
        out.append("")
        header = f"context {spec.name}"
        if spec.params:
            p, dom = spec.params[0]
            header += f" ({p} : {dom.describe()})"
        out.append(header)
        for which, cond in (("pre", spec.pre), ("post", spec.post)):
            if cond.is_empty():
                out.append(f"   {which}:")
            else:
                out.append(f"   {which}: {_conjunction(cond)} ;")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Sequence diagrams (.sd)


_MSG_RE = re.compile(
    rf"msg\s+(\d+)\s+({IDENT})\s*->\s*({IDENT})\s*:\s*(.+)$"
)
_LABEL_ARGS_RE = re.compile(r"(.+?)\s*\(([^()]*)\)\s*$")


def _split_commas(text: str) -> list[str]:
    """Split on commas that are not nested inside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def split_label_args(text: str) -> tuple[str, tuple[str, ...]]:
    """Split ``Enter Selection(Espresso)`` into label and argument tuple."""
    m = _LABEL_ARGS_RE.match(text)
    if not m:
        return text.strip(), ()
    args = tuple(a.strip() for a in m.group(2).split(",") if a.strip())
    return m.group(1).strip(), args


def parse_sd(text: str, filename: str = "<sd>") -> SequenceDiagram:
    name = None
    objects: list[str] = []
    messages: list[Message] = []
    no_loop: list[tuple[int, frozenset[int]]] = []  # (line, pair)

    def error(message: str, expected: str | None = None) -> ParseError:
        return ParseError(SourceSpan(filename, no), message, expected)

    for no, body in _lines(text):
        if body.startswith("sd "):
            name = body[3:].strip()
        elif body.startswith("object "):
            obj = body[len("object "):].strip()
            if not _IDENT_RE.match(obj):
                raise error(f"bad object name {obj!r}")
            if obj in objects:
                raise error(f"duplicate object {obj!r}")
            objects.append(obj)
        elif body.startswith("assume no-loop"):
            m = re.fullmatch(r"assume no-loop\s+(\d+)\s+(\d+)", body)
            if not m:
                raise error("cannot parse directive", expected="assume no-loop i j")
            no_loop.append((no, frozenset((int(m.group(1)), int(m.group(2))))))
        elif body.startswith("msg"):
            m = _MSG_RE.match(body)
            if not m:
                raise error(f"cannot parse message line {body!r}",
                            expected="msg <id> <sender> -> <receiver> : <label>")
            mid = int(m.group(1))
            sender, receiver = m.group(2), m.group(3)
            for obj in (sender, receiver):
                if obj not in objects:
                    raise error(f"undeclared object {obj!r} in message {mid}")
            if mid != len(messages) + 1:
                raise error(f"message id {mid} out of order, expected {len(messages) + 1}")
            label, args = split_label_args(m.group(4))
            messages.append(Message(mid, label, args, sender, receiver))
        else:
            raise error(f"cannot parse line {body!r}")

    if name is None:
        raise ParseError(SourceSpan(filename, 1), "missing 'sd <name>' header")
    for no, pair in no_loop:
        for i in sorted(pair):
            if not 1 <= i <= len(messages):
                raise error(f"no-loop message {i} is not in 1..{len(messages)}")
    return SequenceDiagram(name, tuple(objects), tuple(messages),
                           frozenset(pair for _, pair in no_loop))


def print_sd(sd: SequenceDiagram) -> str:
    out = [f"sd {sd.name}"]
    for obj in sd.objects:
        out.append(f"object {obj}")
    for pair in sorted(sd.no_loop, key=sorted):
        out.append(f"assume no-loop {min(pair)} {max(pair)}")  # {i} prints as i i
    for m in sd.messages:
        out.append(f"msg {m.id} {m.sender} -> {m.receiver} : {m.event()}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Statecharts (.sc)


_TRANS_RE = re.compile(
    rf"({IDENT})\s*->\s*({IDENT})\s*:\s*([^\[/]*)(\[[^\]]*\])?\s*(/.*)?$"
)


@dataclass
class _Scope:
    """A chart level being read; a composite node is ``None`` until its ``}``."""

    name: str
    nodes: dict
    transitions: list
    initial: tuple | None = None  # (node name, span of its line)

    def close(self, span: SourceSpan) -> Statechart:
        if self.initial is None:
            raise ParseError(span, f"missing initial node in {self.name!r}")
        initial, initial_span = self.initial
        if initial not in self.nodes:
            raise ParseError(initial_span, f"initial node {initial!r} not declared at this level")
        return Statechart(self.name, tuple(self.nodes.values()), initial, tuple(self.transitions))


def parse_sc(text: str, filename: str = "<sc>") -> Statechart:
    lines = _lines(text)
    no, body = next(lines, (1, ""))
    if not body.startswith("statechart "):
        raise ParseError(SourceSpan(filename, 1), "missing 'statechart <name>' header")
    scopes = [_Scope(body[len("statechart "):].strip(), {}, [])]  # open scopes, innermost last
    for no, body in lines:
        span = SourceSpan(filename, no)
        scope = scopes[-1]
        if body == "}":
            if len(scopes) == 1:
                raise ParseError(span, "unmatched '}'")
            scopes.pop()
            scopes[-1].nodes[scope.name] = Node(scope.name, children=scope.close(span))
        elif body.startswith("initial "):
            scope.initial = body[len("initial "):].strip(), span
        elif body.startswith("state "):
            rest = body[len("state "):].strip()
            composite = rest.endswith("{")
            node_name = rest[:-1].strip() if composite else rest
            if not _IDENT_RE.match(node_name):
                raise ParseError(span, f"bad state name {node_name!r}")
            if node_name in scope.nodes:
                raise ParseError(span, f"duplicate node name {node_name!r} in this scope")
            scope.nodes[node_name] = None if composite else Node(node_name)
            if composite:
                scopes.append(_Scope(node_name, {}, []))
        elif "->" in body:
            m = _TRANS_RE.match(body)
            if not m:
                raise ParseError(span, f"cannot parse transition {body!r}",
                                 expected="X -> Y : e [guard] / a1, a2")
            guard = m.group(4) and Condition(tuple(_atoms(m.group(4)[1:-1], span, "guard atom")))
            actions = tuple(_split_commas(m.group(5)[1:])) if m.group(5) else ()
            scope.transitions.append(
                Transition(m.group(1), m.group(2), m.group(3).strip(), guard, actions))
        elif body.startswith("statechart "):
            raise ParseError(span, "nested 'statechart' header")
        else:
            raise ParseError(span, f"cannot parse line {body!r}")
    span = SourceSpan(filename, no)  # the last line
    if len(scopes) > 1:
        raise ParseError(span, f"composite {scopes[-1].name!r} is not closed", expected="'}'")
    chart = scopes[0].close(span)
    try:
        check_chart(chart)
    except ValueError as exc:
        raise ParseError(SourceSpan(filename, 1), str(exc)) from None
    return chart


def _conjunction(cond: Condition) -> str:
    return " and ".join(f"{v} = {val}" for v, val in cond.atoms)


def transition_label(t: Transition) -> str:
    """``event [a = v and ...] / x, y``, the guard and actions only when
    present; a completion transition's label starts with the empty event."""
    label = t.event
    if t.guard is not None and t.guard.atoms:
        label += f" [{_conjunction(t.guard)}]"
    if t.actions:
        label += " / " + ", ".join(t.actions)
    return label


def print_sc(chart: Statechart) -> str:
    out = [f"statechart {chart.name}", f"initial {chart.initial}"]
    for depth, scope, n in walk(chart):
        pad = "  " * depth
        if n is None:
            out.extend(f"{pad}{t.source} -> {t.target} : {transition_label(t)}"
                       for t in scope.transitions)
            if depth:
                out.append(f"{pad[2:]}}}")
            continue
        suffix = f"   # {n.comment}" if n.comment else ""
        if n.is_composite:
            out += [f"{pad}state {n.name} {{{suffix}", f"{pad}  initial {n.children.initial}"]
        else:
            out.append(f"{pad}state {n.name}{suffix}")
    return "\n".join(out) + "\n"
