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
)


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    col_start: int = 1
    col_end: int = 1

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col_start}"


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


def _strip_comment(line: str) -> str:
    i = line.find("#")
    return line if i < 0 else line[:i]


def _lines(text: str):
    """Yield (lineno, stripped content) for non-blank, non-comment lines."""
    for no, raw in enumerate(text.splitlines(), start=1):
        body = _strip_comment(raw).rstrip()
        if body.strip():
            yield no, body.strip()


def _span(filename: str, lineno: int, text: str = "") -> SourceSpan:
    return SourceSpan(filename, lineno, 1, max(1, len(text)))


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


def _parse_condition(text: str, span: SourceSpan, variables, params) -> Condition:
    """Parse ``var = value and var = value``; values checked against domains."""
    text = text.strip()
    if not text:
        return Condition()
    atoms = []
    for part in re.split(r"\s+and\s+", text):
        m = re.fullmatch(rf"({IDENT})\s*=\s*(-?\w+)", part.strip())
        if not m:
            raise ParseError(span, f"cannot parse atom {part.strip()!r}", expected="var = value")
        var_name, value = m.group(1), m.group(2)
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
    names = [v for v, _ in atoms]
    if len(set(names)) != len(names):
        raise ParseError(span, "variable repeated within one condition")
    return Condition(tuple(atoms))


_CONTEXT_RE = re.compile(rf"context\s+(.+?)\s*(\(\s*({IDENT})\s*:\s*(.+?)\s*\))?\s*$")


def parse_domain_theory(text: str, filename: str = "<dt>") -> DomainTheory:
    variables: dict[str, StateVariable] = {}
    specs: list[MessageSpec] = []

    lines = list(_lines(text))
    i = 0
    seen_context = False
    while i < len(lines):
        no, body = lines[i]
        span = _span(filename, no, body)

        if body.startswith("context"):
            seen_context = True
            m = _CONTEXT_RE.match(body)
            if not m:
                raise ParseError(span, f"cannot parse context header {body!r}")
            name = m.group(1).strip()
            params: dict[str, VarDomain] = {}
            if m.group(2):
                params[m.group(3)] = _parse_domain(m.group(4), span)
            if any(s.name == name for s in specs):
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
                chunk = chunk.split(";")[0]
                conds[which] = _parse_condition(chunk, _span(filename, no2, body2),
                                                variables, params)
            specs.append(MessageSpec(name, tuple(params.items()), conds["pre"], conds["post"]))
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

    return DomainTheory(tuple(variables.values()), tuple(specs))


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
    no_loop: list[tuple[SourceSpan, frozenset[int]]] = []

    for no, body in _lines(text):
        span = _span(filename, no, body)
        if body.startswith("sd "):
            name = body[3:].strip()
        elif body.startswith("object "):
            obj = body[len("object "):].strip()
            if not _IDENT_RE.match(obj):
                raise ParseError(span, f"bad object name {obj!r}")
            if obj in objects:
                raise ParseError(span, f"duplicate object {obj!r}")
            objects.append(obj)
        elif body.startswith("assume no-loop"):
            m = re.fullmatch(r"assume no-loop\s+(\d+)\s+(\d+)", body)
            if not m:
                raise ParseError(span, "cannot parse directive", expected="assume no-loop i j")
            no_loop.append((span, frozenset((int(m.group(1)), int(m.group(2))))))
        elif body.startswith("msg"):
            m = _MSG_RE.match(body)
            if not m:
                raise ParseError(span, f"cannot parse message line {body!r}",
                                 expected="msg <id> <sender> -> <receiver> : <label>")
            mid = int(m.group(1))
            sender, receiver = m.group(2), m.group(3)
            for obj in (sender, receiver):
                if obj not in objects:
                    raise ParseError(span, f"undeclared object {obj!r} in message {mid}")
            if mid != len(messages) + 1:
                raise ParseError(span, f"message id {mid} out of order, expected {len(messages) + 1}")
            label, args = split_label_args(m.group(4))
            messages.append(Message(mid, label, args, sender, receiver))
        else:
            raise ParseError(span, f"cannot parse line {body!r}")

    if name is None:
        raise ParseError(_span(filename, 1), "missing 'sd <name>' header")
    for span, pair in no_loop:
        for i in sorted(pair):
            if not 1 <= i <= len(messages):
                raise ParseError(span, f"no-loop message {i} is not in 1..{len(messages)}")
    return SequenceDiagram(name, tuple(objects), tuple(messages),
                           frozenset(pair for _, pair in no_loop))


def print_sd(sd: SequenceDiagram) -> str:
    out = [f"sd {sd.name}"]
    for obj in sd.objects:
        out.append(f"object {obj}")
    for pair in sorted(sd.no_loop, key=sorted):
        i, j = sorted(pair)
        out.append(f"assume no-loop {i} {j}")
    for m in sd.messages:
        out.append(f"msg {m.id} {m.sender} -> {m.receiver} : {m.event()}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Statecharts (.sc)


_TRANS_RE = re.compile(
    rf"({IDENT})\s*->\s*({IDENT})\s*:\s*([^\[/]*)(\[[^\]]*\])?\s*(/.*)?$"
)


def _parse_guard(text: str, span: SourceSpan) -> Condition:
    atoms = []
    for part in re.split(r"\s+and\s+", text.strip()):
        m = re.fullmatch(rf"({IDENT})\s*=\s*(-?\w+)", part.strip())
        if not m:
            raise ParseError(span, f"cannot parse guard atom {part.strip()!r}")
        atoms.append((m.group(1), m.group(2)))
    return Condition(tuple(atoms))


def parse_sc(text: str, filename: str = "<sc>") -> Statechart:
    lines = list(_lines(text))
    pos = 0

    def parse_block(name: str, depth: int) -> Statechart:
        nonlocal pos
        nodes: list[Node] = []
        initial = None
        transitions: list[Transition] = []
        while pos < len(lines):
            no, body = lines[pos]
            span = _span(filename, no, body)
            if body == "}":
                if depth == 0:
                    raise ParseError(span, "unmatched '}'")
                pos += 1
                break
            if body.startswith("initial "):
                initial = body[len("initial "):].strip()
                pos += 1
            elif body.startswith("state "):
                rest = body[len("state "):].strip()
                if rest.endswith("{"):
                    child_name = rest[:-1].strip()
                    if not _IDENT_RE.match(child_name):
                        raise ParseError(span, f"bad state name {child_name!r}")
                    pos += 1
                    child = parse_block(child_name, depth + 1)
                    nodes.append(Node(child_name, children=child))
                else:
                    if not _IDENT_RE.match(rest):
                        raise ParseError(span, f"bad state name {rest!r}")
                    if any(n.name == rest for n in nodes):
                        raise ParseError(span, f"duplicate node name {rest!r} in this scope")
                    nodes.append(Node(rest))
                    pos += 1
            elif "->" in body:
                m = _TRANS_RE.match(body)
                if not m:
                    raise ParseError(span, f"cannot parse transition {body!r}",
                                     expected="X -> Y : e [guard] / a1, a2")
                event = m.group(3).strip()
                guard = None
                if m.group(4):
                    guard = _parse_guard(m.group(4)[1:-1], span)
                actions: tuple[str, ...] = ()
                if m.group(5):
                    actions = tuple(_split_commas(m.group(5)[1:]))
                transitions.append(Transition(m.group(1), m.group(2), event, guard, actions))
                pos += 1
            elif body.startswith("statechart "):
                raise ParseError(span, "nested 'statechart' header")
            else:
                raise ParseError(span, f"cannot parse line {body!r}")
        if initial is None:
            raise ParseError(_span(filename, lines[pos - 1][0] if lines else 1),
                             f"missing initial node in {name!r}")
        return Statechart(name, tuple(nodes), initial, tuple(transitions))

    if not lines or not lines[0][1].startswith("statechart "):
        raise ParseError(_span(filename, 1), "missing 'statechart <name>' header")
    chart_name = lines[0][1][len("statechart "):].strip()
    pos = 1
    chart = parse_block(chart_name, 0)
    if pos < len(lines):
        raise ParseError(_span(filename, lines[pos][0]), f"trailing input {lines[pos][1]!r}")
    _validate_chart(chart, filename)
    return chart


def _validate_chart(chart: Statechart, filename: str) -> None:
    try:
        check_chart(chart)
    except ValueError as exc:
        raise ParseError(_span(filename, 1), str(exc)) from None


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
    out = [f"statechart {chart.name}"]

    def emit(sc: Statechart, indent: int) -> None:
        pad = "  " * indent
        out.append(f"{pad}initial {sc.initial}")
        for n in sc.nodes:
            suffix = f"   # {n.comment}" if n.comment else ""
            if n.is_composite:
                out.append(f"{pad}state {n.name} {{{suffix}")
                emit(n.children, indent + 1)
                out.append(f"{pad}}}")
            else:
                out.append(f"{pad}state {n.name}{suffix}")
        for t in sc.transitions:
            out.append(f"{pad}{t.source} -> {t.target} : {transition_label(t)}")

    emit(chart, 0)
    return "\n".join(out) + "\n"
