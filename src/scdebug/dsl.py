"""Parsers and printers for the three textual formats (.dt, .sd, .sc).

All three are line oriented, UTF-8, with ``#`` starting a comment that runs
to end of line.  Grammars are documented in docs/formats.md; the canonical
test corpus is the coffee-machine domain theory under tests/fixtures.
The parsers are the one validator: the records of ``model`` check nothing.
"""

from __future__ import annotations

import itertools
import re

from .model import (
    BoolDomain,
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
    spell_event,
    walk,
)


class ParseError(Exception):
    """An error at a ``span``, a (file name, line number) pair."""

    def __init__(self, span: tuple, message: str, expected: str | None = None):
        self.file, self.line = span
        self.message = message
        self.expected = expected
        detail = f"{self.file}:{self.line}:1: {message}"  # errors locate whole lines, from column 1
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


IDENT = r"[A-Za-z_][A-Za-z0-9_-]*"
_IDENT_RE = re.compile(IDENT + r"$")
# The one label grammar (docs/formats.md, "Labels"): a NAME is words of
# letters, digits, '_' and '-' separated by blanks; a LABEL is a NAME with an
# optional list of word arguments.
NAME = r"[\w-]+(?:\s+[\w-]+)*"
LABEL = rf"{NAME}(?:\s*\(\s*[\w-]+(?:\s*,\s*[\w-]+)*\s*\))?"
_LABEL_RE = re.compile(LABEL)


def split_label_args(label: str) -> tuple[str, tuple[str, ...]]:
    """Split a LABEL, ``Enter Selection(Espresso)``, into name and argument tuple."""
    name, _, args = label.partition("(")
    return name.rstrip(), (tuple(a.strip() for a in args[:-1].split(",")) if args else ())


def _lines(text: str):
    r"""Yield (lineno, stripped content) for non-blank, non-comment lines.
    Lines end at ``\n``, ``\r\n`` and ``\r`` only, as in universal-newline
    reading: ``str.splitlines`` would also end one, a comment among them, at
    a form feed, ``\x0b``, ``\x1c``-``\x1e``, NEL, U+2028 or U+2029."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for no, raw in enumerate(text.split("\n"), start=1):
        body = raw.partition("#")[0].strip()
        if body:
            yield no, body


# ---------------------------------------------------------------------------
# Domains


_RANGE_RE = re.compile(r"(-?\d+)\s*\.\.\s*(-?\d+)")
_ENUM_RE = re.compile(r"enum\s*\{([^}]*)\}")


def _parse_domain(text: str, span: tuple) -> VarDomain:
    text = text.strip()
    if text == "Boolean":
        return BoolDomain()
    m = _RANGE_RE.fullmatch(text)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo > hi:
            raise ParseError(span, f"empty integer range {lo}..{hi}")
        return IntRangeDomain(lo, hi)
    m = _ENUM_RE.fullmatch(text)
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
_AND_RE = re.compile(r"\s+and\s+")


def _atoms(text: str, span: tuple, noun: str, variables=None, params=None) -> list:
    """The (var, value) atoms of ``var = value and var = value``, in order,
    cut at each ``and`` between blanks, so a bad part is named as it is read.
    Given the theory's ``variables`` by name and the context's ``params``
    (none for a guard), each atom is checked against them once it is read;
    a variable named twice is an error once every atom is read."""
    atoms = []
    for part in _AND_RE.split(text.strip()):
        m = _ATOM_RE.fullmatch(part)
        if not m:
            raise ParseError(span, f"cannot parse {noun} {part!r}", expected="var = value")
        var_name, value = atom = m.groups()
        atoms.append(atom)
        if variables is None:
            continue
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
    if len({var_name for var_name, _ in atoms}) != len(atoms):
        raise ParseError(span, "variable repeated within one condition")
    return atoms


_CONTEXT_RE = re.compile(rf"context\s+({NAME})\s*(?:\(\s*({IDENT})\s*:\s*(.+?)\s*\))?$")


def parse_domain_theory(text: str, filename: str = "<dt>") -> DomainTheory:
    variables: dict[str, StateVariable] = {}
    specs: dict[str, list] = {}  # context name -> [params, pre, post] of its MessageSpec
    # The open context: its name, its params and the clauses it still allows,
    # in order. Its open clause, [1 (pre) or 2 (post), first line, text], runs
    # to its ';', or without one up to the next keyword line or line holding
    # ':', which no atom holds.
    name, params, allowed, clause = None, {}, (), None

    def end_clause(no: int) -> None:
        nonlocal clause
        which, first, chunk = clause
        clause = None
        chunk, _, rest = chunk.partition(";")
        if rest.strip():  # the ';' ends the clause on the line read last
            raise ParseError((filename, no), f"unexpected text after ';': {rest.strip()!r}")
        if chunk.strip():
            specs[name][which] = tuple(_atoms(chunk, (filename, first), "atom", variables, params))

    for no, body in _lines(text):
        if body.startswith("pre:"):
            keyword, rest = "pre", body[4:]
        elif body.startswith("post:"):
            keyword, rest = "post", body[5:]
        else:  # context only as a whole word
            keyword = "context" if body.startswith("context") and not body[7:8].strip() else None
        if clause and (keyword or ":" in body):
            end_clause(no)
        if clause:
            clause[2] += " " + body
        elif keyword == "context":
            m = _CONTEXT_RE.match(body)
            if not m:
                raise ParseError((filename, no), f"cannot parse context header {body!r}",
                                 expected="context <name> [(P : domain)]")
            name = m.group(1)
            params = {m.group(2): _parse_domain(m.group(3), (filename, no))} if m.group(2) else {}
            if name in specs:
                raise ParseError((filename, no), f"duplicate context name {name!r}")
            specs[name] = [tuple(params.items()), (), ()]
            allowed = ("pre", "post")
        elif keyword in allowed:
            allowed = allowed[allowed.index(keyword) + 1:]
            clause = [1 if keyword == "pre" else 2, no, rest]
        elif name is not None:
            raise ParseError((filename, no), f"unexpected line after contexts: {body!r}")
        else:
            # Variable declaration: one or more names, a colon, one domain.
            span = (filename, no)
            if ":" not in body:
                raise ParseError(span, f"cannot parse declaration {body!r}",
                                 expected="name[, name...] : domain")
            names_part, dom_part = body.split(":", 1)
            dom = _parse_domain(dom_part, span)
            for raw in names_part.split(","):
                var_name = raw.strip()
                if not _IDENT_RE.match(var_name):
                    raise ParseError(span, f"bad variable name {var_name!r}")
                if var_name in variables:
                    raise ParseError(span, f"duplicate state variable declaration {var_name!r}")
                variables[var_name] = StateVariable(var_name, dom, len(variables))
        if clause and ";" in clause[2]:
            end_clause(no)
    if clause:
        end_clause(no)
    return DomainTheory(tuple(variables.values()),
                        tuple(MessageSpec(name, *fields) for name, fields in specs.items()))


def print_domain_theory(dt: DomainTheory) -> str:
    # Group consecutive variables sharing a domain onto one line, Fig. 6 style.
    out = [
        f"{', '.join(v.name for v in group)} : {domain.describe()}"
        for domain, group in itertools.groupby(dt.variables, key=lambda v: v.domain)
    ]
    for spec in dt.specs:
        out.append("")
        header = f"context {spec.name}"
        if spec.params:
            p, dom = spec.params[0]
            header += f" ({p} : {dom.describe()})"
        out.append(header)
        for which, cond in (("pre", spec.pre), ("post", spec.post)):
            if not cond:
                out.append(f"   {which}:")
            else:
                out.append(f"   {which}: {_conjunction(cond)} ;")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Sequence diagrams (.sd)


_MSG_RE = re.compile(
    rf"msg\s+(\d+)\s+({IDENT})\s*->\s*({IDENT})\s*:\s*({LABEL})$"
)
_NO_LOOP_RE = re.compile(r"assume no-loop\s+(\d+)\s+(\d+)")


def parse_sd(text: str, filename: str = "<sd>") -> SequenceDiagram:
    lines = _lines(text)
    no, body = next(lines, (1, ""))
    if not body.startswith("sd "):
        raise ParseError((filename, 1), "missing 'sd <name>' header")
    name, header_line = body[3:].strip(), no
    objects: dict[str, None] = {}  # an ordered set
    messages: list[Message] = []
    no_loop: list[tuple[int, frozenset[int]]] = []  # (line, pair)

    def error(message: str, expected: str | None = None) -> ParseError:
        return ParseError((filename, no), message, expected)

    for no, body in lines:
        m = _MSG_RE.match(body)  # most lines are messages
        if m:
            mid, sender, receiver, label = m.groups()
            mid = int(mid)
            for obj in (sender, receiver):
                if obj not in objects:
                    raise error(f"undeclared object {obj!r} in message {mid}")
            if mid != len(messages) + 1:
                raise error(f"message id {mid} out of order, expected {len(messages) + 1}")
            # A label without '(' is its own name: NAME ends in a word character.
            label, args = split_label_args(label) if "(" in label else (label, ())
            messages.append(Message(mid, label, args, sender, receiver))
        elif body.startswith("object "):
            obj = body[len("object "):].strip()
            if not _IDENT_RE.match(obj):
                raise error(f"bad object name {obj!r}")
            if obj in objects:
                raise error(f"duplicate object {obj!r}")
            objects[obj] = None
        elif body.startswith("sd "):
            raise error(f"second 'sd' header (the first is on line {header_line})")
        elif body.startswith("assume no-loop"):
            m = _NO_LOOP_RE.fullmatch(body)
            if not m:
                raise error("cannot parse directive", expected="assume no-loop i j")
            no_loop.append((no, frozenset((int(m.group(1)), int(m.group(2))))))
        elif body.startswith("msg"):
            raise error(f"cannot parse message line {body!r}",
                        expected="msg <id> <sender> -> <receiver> : <label>")
        else:
            raise error(f"cannot parse line {body!r}")

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
    rf"({IDENT})\s*->\s*({IDENT})\s*:\s*((?:{LABEL})?)\s*(\[[^\]]*\])?"
    rf"\s*(?:/\s*({LABEL}(?:\s*,\s*{LABEL})*))?$"
)


def _spelled(label: str) -> str:
    """A LABEL as ``Message.event`` spells it; one without '(' is its own name."""
    return spell_event(*split_label_args(label)) if "(" in label else label


def parse_sc(text: str, filename: str = "<sc>", dt: DomainTheory | None = None) -> Statechart:
    """The chart ``text`` declares.  Given the theory ``dt``, each guard
    atom is checked against it as a ``.dt`` clause's atom is: it must name
    a state variable and a value of its domain, or the transition's line is
    a ``ParseError``.  Without one, a guard atom is only parsed."""
    variables = None if dt is None else dt._variable_index
    lines = _lines(text)
    no, body = next(lines, (1, ""))
    if not body.startswith("statechart "):
        raise ParseError((filename, 1), "missing 'statechart <name>' header")
    chart_name = body[len("statechart "):].strip()
    if not _IDENT_RE.match(chart_name):  # it names the object the chart is replayed for
        raise ParseError((filename, no), f"bad chart name {chart_name!r}")
    # Open scopes, innermost last: (name, nodes, transitions, initials), the
    # initials a list of at most one (node name, span of its line); a
    # composite node is None in its parent's nodes until its '}'.
    scopes = [(chart_name, {}, [], [])]
    # Node names are unique in the whole chart, and a transition may name a
    # node declared further down: each endpoint not yet declared keeps the
    # span of the first transition naming it until the end of the file.
    declared, pending = set(), {}

    def close(span: tuple) -> Statechart:
        name, nodes, transitions, initials = scopes.pop()
        if not initials:
            raise ParseError(span, f"missing initial node in {name!r}")
        [(initial, initial_span)] = initials
        if initial not in nodes:
            raise ParseError(initial_span, f"initial node {initial!r} not declared at this level")
        return Statechart(name, tuple(nodes.values()), initial, tuple(transitions))

    def error(message: str, expected: str | None = None) -> ParseError:
        return ParseError((filename, no), message, expected)

    for no, body in lines:
        name, nodes, transitions, initials = scopes[-1]
        if body == "}":
            if len(scopes) == 1:
                raise error("unmatched '}'")
            node = Node(name, children=close((filename, no)))  # close pops the scope
            scopes[-1][1][name] = node
        elif body.startswith("initial "):
            if initials:
                raise error(f"second initial node in {name!r}"
                            f" (the first is on line {initials[0][1][1]})")
            initials.append((body[len("initial "):].strip(), (filename, no)))
        elif body.startswith("state "):
            rest = body[len("state "):].strip()
            composite = rest.endswith("{")
            node_name = rest[:-1].strip() if composite else rest
            if not _IDENT_RE.match(node_name):
                raise error(f"bad state name {node_name!r}")
            if node_name in declared:
                raise error(f"duplicate node name {node_name!r}")
            declared.add(node_name)
            nodes[node_name] = None if composite else Node(node_name)
            if composite:
                scopes.append((node_name, {}, [], []))
        elif "->" in body:
            m = _TRANS_RE.match(body)
            if not m:
                raise error(f"cannot parse transition {body!r}",
                            expected="X -> Y : e [guard] / a1, a2")
            source, target, event, guard, actions = m.groups()
            guard = tuple(_atoms(guard[1:-1], (filename, no), "guard atom", variables, {})) if guard else ()
            event = _spelled(event)
            if not actions:
                actions = ()
            elif "," in actions:  # else one LABEL
                actions = tuple(map(_spelled, _LABEL_RE.findall(actions)))
            else:
                actions = (_spelled(actions),)
            transitions.append(Transition(source, target, event, guard, actions))
            for end in (source, target):
                if end not in declared and end not in pending:
                    pending[end] = (filename, no)
        elif body.startswith("statechart "):
            raise error("nested 'statechart' header")
        else:
            raise error(f"cannot parse line {body!r}")
    span = (filename, no)  # the last line
    if len(scopes) > 1:
        raise ParseError(span, f"composite {scopes[-1][0]!r} is not closed", expected="'}'")
    chart = close(span)
    for end, span in pending.items():
        if end not in declared:
            raise ParseError(span, f"transition endpoint {end!r} does not exist")
    return chart


def _conjunction(atoms) -> str:
    return " and ".join(f"{v} = {val}" for v, val in atoms)


def transition_label(t: Transition) -> str:
    """``event [a = v and ...] / x, y``, the guard and actions only when
    present; a completion transition's label starts with the empty event."""
    label = t.event
    if t.guard:
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
