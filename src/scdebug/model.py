"""Core domain types: variable domains, state vectors, diagrams, charts.

Everything here is immutable after construction and safe to share.  Cell
values are canonical literal tokens (``"T"``, ``"0"``, ``"Espresso"``);
``None`` stands for the undetermined value printed as ``?``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property


# ---------------------------------------------------------------------------
# Variable domains


@dataclass(frozen=True)
class BoolDomain:
    def contains(self, token: str) -> bool:
        return token in ("T", "F")

    def values(self) -> tuple[str, ...]:
        return ("T", "F")

    def describe(self) -> str:
        return "Boolean"


@dataclass(frozen=True)
class IntRangeDomain:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty integer range {self.lo}..{self.hi}")

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


@dataclass(frozen=True)
class EnumDomain:
    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.labels:
            raise ValueError("enumeration must have at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate enumeration labels in {self.labels}")

    def contains(self, token: str) -> bool:
        return token in self.labels

    def values(self) -> tuple[str, ...]:
        return self.labels

    def describe(self) -> str:
        return "enum {" + ",".join(self.labels) + "}"


VarDomain = BoolDomain | IntRangeDomain | EnumDomain


@dataclass(frozen=True)
class StateVariable:
    name: str
    domain: VarDomain
    index: int


# ---------------------------------------------------------------------------
# Conditions and message specifications


@dataclass(frozen=True)
class Condition:
    """Conjunction of ``var = value`` atoms; values may be parameter names."""

    atoms: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        names = [v for v, _ in self.atoms]
        if len(set(names)) != len(names):
            raise ValueError(f"variable repeated within one condition: {names}")

    def is_empty(self) -> bool:
        return not self.atoms


@dataclass(frozen=True)
class MessageSpec:
    name: str
    params: tuple[tuple[str, VarDomain], ...]
    pre: Condition
    post: Condition


@dataclass(frozen=True)
class DomainTheory:
    variables: tuple[StateVariable, ...]
    specs: tuple[MessageSpec, ...]

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate state variable declaration: {names}")
        for i, v in enumerate(self.variables):
            if v.index != i:
                raise ValueError(f"variable {v.name} carries index {v.index}, expected {i}")
        ctx = [s.name for s in self.specs]
        if len(set(ctx)) != len(ctx):
            raise ValueError(f"duplicate context name: {ctx}")

    @cached_property
    def _variable_index(self) -> dict:
        return {v.name: v for v in self.variables}

    @cached_property
    def _spec_index(self) -> dict:
        return {s.name: s for s in self.specs}

    def variable(self, name: str) -> StateVariable | None:
        return self._variable_index.get(name)

    def spec_for(self, label: str) -> MessageSpec | None:
        return self._spec_index.get(label)

    @property
    def width(self) -> int:
        return len(self.variables)


# ---------------------------------------------------------------------------
# Sequence diagrams


@dataclass(frozen=True)
class Message:
    id: int
    label: str
    args: tuple[str, ...]
    sender: str
    receiver: str

    def event(self) -> str:
        """Canonical event string used for chart transitions and replay."""
        if self.args:
            return f"{self.label}({','.join(self.args)})"
        return self.label


def participants(msg: Message) -> tuple[str, ...]:
    if msg.sender == msg.receiver:
        return (msg.sender,)
    return (msg.sender, msg.receiver)


@dataclass(frozen=True)
class SequenceDiagram:
    name: str
    objects: tuple[str, ...]
    messages: tuple[Message, ...]
    no_loop: frozenset[frozenset[int]] = frozenset()

    def __post_init__(self):
        if len(set(self.objects)) != len(self.objects):
            raise ValueError(f"duplicate object names in {self.name}")
        for i, m in enumerate(self.messages, start=1):
            if m.id != i:
                raise ValueError(f"message ids must be 1..n contiguous, got {m.id} at position {i}")
            for obj in (m.sender, m.receiver):
                if obj not in self.objects:
                    raise ValueError(f"message {m.id} references undeclared object {obj!r}")

    def lifeline(self, obj: str) -> tuple[Message, ...]:
        """Messages the object participates in, in diagram order."""
        return tuple(m for m in self.messages if obj in (m.sender, m.receiver))


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


@dataclass(frozen=True)
class StateVector:
    cells: tuple

    def __post_init__(self):
        for c in self.cells:
            if c is not None and not isinstance(c, str):
                raise ValueError(f"cell must be a literal token or None, got {c!r}")

    def __str__(self) -> str:
        return format_vector(self.cells)


# Vector identity inside one annotated diagram: (object, message id, pre|post).
VectorKey = tuple

PRE = "pre"
POST = "post"


# ---------------------------------------------------------------------------
# Provenance


@dataclass(frozen=True)
class FromSpec:
    message_id: int
    which: str  # pre | post


@dataclass(frozen=True)
class Frame:
    source: VectorKey
    cell: int


@dataclass(frozen=True)
class Unified:
    event: int
    contributor: VectorKey


Provenance = FromSpec | Frame | Unified


@dataclass(frozen=True)
class UnifyEvent:
    """One applied unification on an object's lifeline.

    ``after_faces`` are the post-side vector keys shown in conflict
    explanations, in the order the identification was established.
    """

    index: int
    object: str
    after_faces: tuple[VectorKey, ...]


@dataclass
class AnnotatedSD:
    """A sequence diagram plus per-object pre/post vectors and provenance."""

    sd: SequenceDiagram
    theory: DomainTheory
    vectors: dict  # VectorKey -> list of cells (mutable during annotation)
    provenance: dict  # (VectorKey, cell index) -> Unified; see annotator.provenance_of
    events: list  # list[UnifyEvent]
    spec_vectors: dict  # message id -> {PRE: vector, POST: vector} its specification fixes

    @cached_property
    def gaps(self) -> dict:
        """Each object's gaps as tuples of face keys, built in one pass:
        ``[(pre m1), (post m1, pre m2), ..., (post mlast)]``."""
        gaps = {obj: [[]] for obj in self.sd.objects}
        for msg in self.sd.messages:
            for obj in participants(msg):
                gaps[obj][-1].append((obj, msg.id, PRE))
                gaps[obj].append([(obj, msg.id, POST)])
        return {obj: [tuple(gap) for gap in line] for obj, line in gaps.items()}

    @cached_property
    def classes(self) -> dict:
        """Each object's state classes: runs of gaps joined by
        state-preserving messages (no specification or an empty
        postcondition), in lifeline order."""
        out = {}
        for obj, gaps in self.gaps.items():
            classes = [[gaps[0]]]
            for gap in gaps[1:]:
                # A later gap opens with the post face of the message before it.
                spec = self.theory.spec_for(self.sd.messages[gap[0][1] - 1].label)
                if spec is None or spec.post.is_empty():
                    classes[-1].append(gap)
                else:
                    classes.append([gap])
            out[obj] = [tuple(cls) for cls in classes]
        return out

    @cached_property
    def previous_face(self) -> dict:
        """Each face key -> the face before it on its lifeline, lifeline by
        lifeline, front to back (``pre m1, post m1, pre m2, ...``)."""
        faces = [[key for gap in line for key in gap] for line in self.gaps.values()]
        return {key: prev for line in faces for prev, key in zip(line, line[1:])}


# ---------------------------------------------------------------------------
# Conflicts


@dataclass(frozen=True)
class DerivationStep:
    key: VectorKey
    cell: int
    provenance: Provenance | None  # None marks a never-determined cell


@dataclass(frozen=True)
class Conflict:
    sd_name: str
    object: str
    after_message: Message
    before_message: Message
    variable: StateVariable
    value_after: str
    value_before: str
    vector_after: StateVector
    vector_before: StateVector
    derivation: tuple[DerivationStep, ...]
    # (message, pre|post, vector) for every face of the unifications the
    # conflict derives from, in the order the identification was made
    unified_states: tuple = ()

    def __post_init__(self):
        if self.value_after == self.value_before:
            raise ValueError("conflict requires two determined, unequal values")


# ---------------------------------------------------------------------------
# Statecharts


@dataclass(frozen=True)
class Transition:
    source: str
    target: str
    event: str
    guard: Condition | None = None
    actions: tuple[str, ...] = ()


@dataclass(frozen=True)
class Node:
    name: str
    children: "Statechart | None" = None  # composite nodes carry a subchart
    comment: str | None = field(default=None, compare=False)

    @property
    def is_composite(self) -> bool:
        return self.children is not None


@dataclass(frozen=True)
class Statechart:
    name: str
    nodes: tuple[Node, ...]
    initial: str
    transitions: tuple[Transition, ...]

    def __post_init__(self):
        local = [n.name for n in self.nodes]
        if len(set(local)) != len(local):
            raise ValueError(f"duplicate node name in chart {self.name}")
        if self.initial not in local:
            raise ValueError(f"initial node {self.initial!r} not declared at this level")


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


def check_chart(chart: Statechart) -> None:
    """Whole-chart validation: globally unique node names and resolvable
    transition endpoints.  Transitions may cross composite boundaries, so
    endpoints are checked against the full name set, not per level."""
    nodes = [node for _, _, node in walk(chart) if node is not None]
    dupes = sorted(name for name, k in Counter(n.name for n in nodes).items() if k > 1)
    if dupes:
        raise ValueError(f"node name used twice in chart {chart.name}: {dupes}")
    known = {n.name for n in nodes}
    scopes = [chart, *(n.children for n in nodes if n.is_composite)]  # pre-order
    for t in (t for sc in scopes for t in sc.transitions):
        for end in (t.source, t.target):
            if end not in known:
                raise ValueError(f"transition endpoint {end!r} does not exist")


# ---------------------------------------------------------------------------
# Repair edits


@dataclass(frozen=True)
class Insert:
    message: Message
    at: int  # 1-based position the new message takes

    def describe(self) -> str:
        return f"insert {self.message.event()} ({self.message.sender} -> {self.message.receiver}) at position {self.at}"


@dataclass(frozen=True)
class Delete:
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
        if not 1 <= edit.at <= len(msgs) + 1:
            raise ValueError(f"insert position {edit.at} out of range")
        msgs.insert(edit.at - 1, edit.message)
        no_loop = (frozenset(i + (i >= edit.at) for i in pair) for pair in no_loop)
    renumbered = tuple(
        Message(i, m.label, m.args, m.sender, m.receiver)
        for i, m in enumerate(msgs, start=1)
    )
    return SequenceDiagram(sd.name, sd.objects, renumbered, frozenset(no_loop))
