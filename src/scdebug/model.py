"""Core domain types: variable domains, state vectors, diagrams, charts.

Everything here but an annotation, one ``Lifeline`` per object, is
immutable after construction and safe to share.  Cell values are canonical
literal tokens (``"T"``, ``"0"``, ``"Espresso"``); ``None`` stands for the
undetermined value printed as ``?``.

Records are named tuples, which are cheap to define at import and to
build, and compare and hash as tuples.  No constructor checks its fields:
the parsers in ``dsl`` are the one validator, and reject each malformed
input at its line.  The ``.dt`` reader checks each condition atom against
the theory's variables and its context's parameter, and the ``.sc`` reader,
given the theory, each guard atom; a diagram is read without the theory,
so the annotator checks a message's arguments against its context.  A
record built in code (by synthesis, a repair edit or a test) is well formed
because its builder keeps the rules the parsers check; ``dsl.print_*``
followed by ``dsl.parse_*`` gives it back unchanged.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Hashable
from functools import cached_property
from typing import NamedTuple


# ---------------------------------------------------------------------------
# Variable domains


class BoolDomain(namedtuple("BoolDomain", ())):
    """The Boolean domain; every instance equals every other."""

    __slots__ = ()

    def contains(self, token: str) -> bool:
        return token in ("T", "F")

    def values(self) -> tuple[str, ...]:
        return ("T", "F")

    def describe(self) -> str:
        return "Boolean"


class IntRangeDomain(namedtuple("IntRangeDomain", "lo hi")):
    __slots__ = ()

    def contains(self, token: str) -> bool:
        """In-range integers in canonical spelling only: a cell holding
        ``01``, ``-0`` or ``1_0`` would never equal one holding ``1``, ``0``
        or ``10``."""
        try:
            v = int(token)
        except ValueError:
            return False
        return str(v) == token and self.lo <= v <= self.hi

    def values(self) -> tuple[str, ...]:
        return tuple(str(v) for v in range(self.lo, self.hi + 1))

    def describe(self) -> str:
        return f"{self.lo}..{self.hi}"


class EnumDomain(namedtuple("EnumDomain", "labels")):
    __slots__ = ()

    def contains(self, token: str) -> bool:
        return token in self.labels

    def values(self) -> tuple[str, ...]:
        return self.labels

    def describe(self) -> str:
        return "enum {" + ",".join(self.labels) + "}"


VarDomain = BoolDomain | IntRangeDomain | EnumDomain


class StateVariable(NamedTuple):
    name: str
    domain: VarDomain
    index: int


# ---------------------------------------------------------------------------
# Message specifications


class MessageSpec(NamedTuple):
    """``pre`` and ``post`` are conjunctions: tuples of ``(var, value)``
    atoms, each variable at most once; values may be parameter names, and
    ``()`` fixes no cell."""

    name: str
    params: tuple[tuple[str, VarDomain], ...]
    pre: tuple[tuple[str, str], ...]
    post: tuple[tuple[str, str], ...]


class DomainTheory(namedtuple("DomainTheory", "variables specs")):
    """Variables with unique names, each ``index`` its position, and specs
    with unique names."""

    # No __slots__: the cached lookup tables live in the instance dict.

    @cached_property
    def _variable_index(self) -> dict:
        return {v.name: v for v in self.variables}

    @cached_property
    def _spec_index(self) -> dict:
        return {s.name: s for s in self.specs}

    @cached_property
    def _blank(self) -> tuple:  # the annotator's one vector that fixes no cell
        return (None,) * len(self.variables)

    @cached_property
    def _spec_vectors(self) -> dict:  # (label, args) -> the annotator's (pre, post)
        return {}

    @cached_property
    def _vectors(self) -> dict:  # each distinct spec vector -> its one copy, the blank among them
        return {self._blank: self._blank}

    def variable(self, name: str) -> StateVariable | None:
        return self._variable_index.get(name)

    def spec_for(self, label: str) -> MessageSpec | None:
        return self._spec_index.get(label)

    @property
    def width(self) -> int:
        return len(self.variables)


# ---------------------------------------------------------------------------
# Sequence diagrams


def spell_event(label: str, args: tuple[str, ...]) -> str:
    """The canonical event string ``label(a,b)`` of transitions and replay."""
    return f"{label}({','.join(args)})" if args else label


class Message(NamedTuple):
    id: int
    label: str
    args: tuple[str, ...]
    sender: str
    receiver: str

    def event(self) -> str:
        return spell_event(self.label, self.args)


class SequenceDiagram(namedtuple("SequenceDiagram", "name objects messages no_loop",
                                 defaults=(frozenset(),))):
    """Unique ``objects``; ``messages`` numbered 1..n in order, between
    declared objects."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# State vectors and unification kernel


def compatible(a, b) -> bool:
    """Cell-level unification test: equal, or at least one side undetermined."""
    return a is None or b is None or a == b


def unify(a, b):
    """Pointwise join of two same-length vectors, or None when any cell clashes.

    A determined value always beats the undetermined one; on success the
    result is the least vector both inputs refine to.
    """
    if len(a) != len(b):
        raise ValueError(f"vector length mismatch: {len(a)} vs {len(b)}")
    out = []
    for x, y in zip(a, b):
        if not compatible(x, y):
            return None
        out.append(x if x is not None else y)
    return tuple(out)


def format_vector(cells) -> str:
    return "<" + ",".join("?" if c is None else c for c in cells) + ">"


# ---------------------------------------------------------------------------
# Annotations


class Unified(NamedTuple):
    """A cell grounded by unification: ``event`` indexes its lifeline's
    ``events`` (-1 for a gap join), ``contributor`` is the face it came from."""

    event: int
    contributor: int


class Lifeline(NamedTuple):
    """One object's annotation, addressed by face position, not message id.

    Faces run in lifeline order (pre m1, post m1, pre m2, ...): face ``2k``
    is the pre face of ``messages[k]``, counting from 0, and ``2k + 1`` its
    post face.  ``spec`` holds the cells each face's specification fixes,
    ``faces`` its cells, both as tuples: annotation starts ``faces`` as a
    copy of ``spec`` and replaces a face, never writes into one.  Equal
    faces are shared by the rule in the ``annotator`` docstring: equal spec
    vectors are one object, a face a frame sweep fills to equal the face
    before it is that face, and unification leaves each class or gap it
    settles as one object.  State class ``c`` is the faces from
    ``starts[c]`` up to ``starts[c + 1]``; a class opens at the post face of
    a message whose postcondition is not empty, and the last entry is the
    face count.
    ``provenance``: (face, cell index) -> Unified; the rules of
    ``annotator._walk`` derive every other cell's.  ``events``: per applied
    identification, in order, its post faces, which conflict explanations
    show, in the order it was established.  Annotation changes it in
    place, so it does not hash.
    """

    messages: list
    spec: list
    faces: list
    starts: list
    provenance: dict
    events: list


# ---------------------------------------------------------------------------
# Conflicts


class Conflict(NamedTuple):
    """A determined disagreement on ``variable`` between the post face of
    ``after_message`` and the pre face of ``before_message`` on ``object``'s
    lifeline.  The faces stay in the annotation: ``annotator.conflict_view``
    reads their cells and unification faces, ``annotator.derivation`` their
    chain."""

    sd_name: str
    object: str
    after_message: Message
    before_message: Message
    variable: StateVariable


# ---------------------------------------------------------------------------
# Statecharts


class Transition(NamedTuple):
    """``guard`` is a conjunction of ``(var, value)`` atoms, as a spec's
    conditions are; ``()`` is the one spelling of no guard."""

    source: Hashable  # a state key: a node name, or a vector in a synthesized chart
    target: Hashable
    event: str
    guard: tuple[tuple[str, str], ...] = ()
    actions: tuple[str, ...] = ()


class Node(NamedTuple):
    name: str
    children: Statechart | None = None  # composite nodes carry a subchart
    comment: str | None = None  # left out of equality and hash

    @property
    def is_composite(self) -> bool:
        return self.children is not None

    def _key(self) -> tuple:
        # A subchart is keyed flat, along walk: nesting may run deeper than
        # the recursion limit.
        return self.name, self.children and tuple(
            (scope.name, scope.initial, scope.transitions) if node is None
            else (node.name, node.is_composite) for _, scope, node in walk(self.children))

    def __eq__(self, other) -> bool:
        return isinstance(other, Node) and self._key() == other._key()

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self._key())


class Statechart(namedtuple("Statechart", "name nodes initial transitions")):
    """Node names unique in the whole chart; ``initial`` names one of this
    scope's ``nodes``."""

    __slots__ = ()


def walk(chart: Statechart):
    """``(depth, scope, node)`` for every node in document order, a
    composite's own scope right after it, then ``(depth, scope, None)`` once
    the scope's last node is done; the chart itself is depth 0."""
    stack = [(0, chart, iter(chart.nodes))]
    while stack:
        depth, scope, nodes = stack[-1]
        for node in nodes:
            yield depth, scope, node
            if node.children is not None:
                stack.append((depth + 1, node.children, iter(node.children.nodes)))
                break
        else:
            stack.pop()
            yield depth, scope, None


# ---------------------------------------------------------------------------
# Repair edits


class Insert(NamedTuple):
    message: Message  # its id is the 1-based position it takes

    def describe(self) -> str:
        m = self.message
        return f"insert {m.event()} ({m.sender} -> {m.receiver}) at position {m.id}"


class Delete(NamedTuple):
    at: int

    def describe(self) -> str:
        return f"delete message at position {self.at}"


RepairEdit = Insert | Delete


def apply_edit(sd: SequenceDiagram, edit: RepairEdit) -> SequenceDiagram:
    """Renumber the messages 1..n after the edit.  ``no_loop`` pairs follow
    their messages; a deleted message's pairs are dropped."""
    msgs = list(sd.messages)
    no_loop = sd.no_loop
    if isinstance(edit, Delete):
        if not 1 <= edit.at <= len(msgs):
            raise ValueError(f"delete position {edit.at} out of range")
        del msgs[edit.at - 1]
        no_loop = (
            frozenset(i - (i > edit.at) for i in pair) for pair in no_loop if edit.at not in pair
        )
    else:
        if not 1 <= edit.message.id <= len(msgs) + 1:
            raise ValueError(f"insert position {edit.message.id} out of range")
        msgs.insert(edit.message.id - 1, edit.message)
        no_loop = (frozenset(i + (i >= edit.message.id) for i in pair) for pair in no_loop)
    renumbered = tuple(
        Message(i, m.label, m.args, m.sender, m.receiver)
        for i, m in enumerate(msgs, start=1)
    )
    return SequenceDiagram(sd.name, sd.objects, renumbered, frozenset(no_loop))
