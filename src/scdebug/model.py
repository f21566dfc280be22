"""Core domain types: variable domains, state vectors, diagrams, charts.

Everything here is immutable after construction and safe to share.  Cell
values are canonical literal tokens (``"T"``, ``"0"``, ``"Espresso"``);
``None`` stands for the undetermined value printed as ``?``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


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
        try:
            v = int(token)
        except ValueError:
            return False
        return self.lo <= v <= self.hi

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

    def variable(self, name: str) -> StateVariable | None:
        for v in self.variables:
            if v.name == name:
                return v
        return None

    def spec_for(self, label: str) -> MessageSpec | None:
        for s in self.specs:
            if s.name == label:
                return s
        return None

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
    provenance: dict  # (VectorKey, cell index) -> Provenance
    events: list  # list[UnifyEvent]


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
    events: tuple[UnifyEvent, ...]
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


def check_chart(chart: Statechart) -> None:
    """Whole-chart validation: globally unique node names and resolvable
    transition endpoints.  Transitions may cross composite boundaries, so
    endpoints are checked against the full name set, not per level."""
    names: list[str] = []
    transitions: list[Transition] = []
    levels = [chart]  # popped level first, then its subcharts in node order
    while levels:
        sc = levels.pop()
        names.extend(n.name for n in sc.nodes)
        transitions.extend(sc.transitions)
        levels.extend(n.children for n in reversed(sc.nodes) if n.children is not None)
    dupes = sorted(n for n, k in Counter(names).items() if k > 1)
    if dupes:
        raise ValueError(f"node name used twice in chart {chart.name}: {dupes}")
    known = set(names)
    for t in transitions:
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
