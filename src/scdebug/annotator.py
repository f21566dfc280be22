"""State-vector annotation: initialization, unification, frame propagation.

Vectors live per (object, message, pre|post).  Along each object's lifeline
the gaps between messages are the system states; a gap's two faces (the post
vector of the previous message and the pre vector of the next) must agree,
and disagreement on a determined cell is a conflict.  Gaps separated only by
state-preserving messages (empty or missing postcondition) form one state
class; unifying two classes identifies a potential loop.  Loop candidates
are searched latest-first so a recurrence is always explained against the
end of the scenario, which is where loops close.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    POST,
    PRE,
    AnnotatedSD,
    Condition,
    Conflict,
    DerivationStep,
    DomainTheory,
    Frame,
    FromSpec,
    Message,
    SequenceDiagram,
    StateVector,
    Unified,
    UnifyEvent,
    VectorKey,
    unify,
)


class AnnotationError(Exception):
    def __init__(self, message_id: int, detail: str):
        self.message_id = message_id
        super().__init__(f"message {message_id}: {detail}")


class UnknownVariableError(AnnotationError):
    pass


class OutOfDomainLiteralError(AnnotationError):
    pass


class ArityMismatchError(AnnotationError):
    pass


def _parameter_binding(spec, msg: Message) -> dict:
    """Bind spec parameters to the message's ground arguments."""
    if len(msg.args) != len(spec.params):
        raise ArityMismatchError(
            msg.id,
            f"{msg.label!r} takes {len(spec.params)} argument(s), got {len(msg.args)}",
        )
    for (p, dom), a in zip(spec.params, msg.args):
        if not dom.contains(a):
            raise OutOfDomainLiteralError(
                msg.id, f"argument {a!r} outside domain {dom.describe()} of parameter {p}"
            )
    return {p: a for (p, _), a in zip(spec.params, msg.args)}


def _condition_cells(cond: Condition, binding: dict, dt: DomainTheory, msg: Message) -> dict:
    cells = {}
    for var_name, value in cond.atoms:
        var = dt.variable(var_name)
        if var is None:
            raise UnknownVariableError(msg.id, f"unknown state variable {var_name!r}")
        literal = binding.get(value, value)
        if not var.domain.contains(literal):
            raise OutOfDomainLiteralError(
                msg.id,
                f"literal {literal!r} outside domain of {var_name} ({var.domain.describe()})",
            )
        cells[var.index] = literal
    return cells


def participants(msg: Message) -> tuple[str, ...]:
    if msg.sender == msg.receiver:
        return (msg.sender,)
    return (msg.sender, msg.receiver)


def initialize_vectors(sd: SequenceDiagram, dt: DomainTheory) -> AnnotatedSD:
    """Build initial pre/post vectors straight from the message specifications.

    Both endpoints of a message receive the same spec-derived cells: the
    conditions constrain the shared system state, not one object's view.
    Messages without a matching spec contribute all-undetermined vectors.
    """
    vectors: dict[VectorKey, list] = {}
    provenance: dict = {}
    width = dt.width
    for msg in sd.messages:
        spec = dt.spec_for(msg.label)
        pre_cells: dict = {}
        post_cells: dict = {}
        if spec is not None:
            binding = _parameter_binding(spec, msg)
            pre_cells = _condition_cells(spec.pre, binding, dt, msg)
            post_cells = _condition_cells(spec.post, binding, dt, msg)
        elif msg.args:
            # No spec to check the arguments against; they stay opaque.
            pass
        for obj in participants(msg):
            for which, cells in ((PRE, pre_cells), (POST, post_cells)):
                key = (obj, msg.id, which)
                vec = [None] * width
                for j, literal in cells.items():
                    vec[j] = literal
                    provenance[(key, j)] = FromSpec(msg.id, which)
                vectors[key] = vec
    return AnnotatedSD(sd, dt, vectors, provenance, [])


def missing_spec_warnings(sd: SequenceDiagram, dt: DomainTheory) -> list[str]:
    """One warning per distinct message label the theory does not specify."""
    out = []
    for m in sd.messages:
        if dt.spec_for(m.label) is None:
            w = f"{sd.name}: message {m.label!r} has no specification"
            if w not in out:
                out.append(w)
    return out


def _ground(asd: AnnotatedSD, key: VectorKey, j: int, value: str, prov) -> None:
    cells = asd.vectors[key]
    if cells[j] is not None:
        if cells[j] != value:
            raise AssertionError(
                f"attempt to overwrite determined cell {key}[{j}]={cells[j]} with {value}"
            )
        return
    cells[j] = value
    asd.provenance[(key, j)] = prov


def frame_propagate(asd: AnnotatedSD) -> bool:
    """One forward frame sweep per lifeline, repeated to fixpoint.

    An undetermined precondition cell takes the previous postcondition's
    value, and an undetermined postcondition cell takes its own
    precondition's: values persist until a specification changes them.
    Determined cells are never rewritten.
    """
    changed_any = False
    while True:
        changed = False
        for obj in asd.sd.objects:
            line = asd.sd.lifeline(obj)
            for p, msg in enumerate(line):
                pre_key = (obj, msg.id, PRE)
                post_key = (obj, msg.id, POST)
                if p > 0:
                    src_key = (obj, line[p - 1].id, POST)
                    src = asd.vectors[src_key]
                    pre = asd.vectors[pre_key]
                    for j, v in enumerate(src):
                        if v is not None and pre[j] is None:
                            _ground(asd, pre_key, j, v, Frame(src_key, j))
                            changed = True
                pre = asd.vectors[pre_key]
                post = asd.vectors[post_key]
                for j, v in enumerate(pre):
                    if v is not None and post[j] is None:
                        _ground(asd, post_key, j, v, Frame(pre_key, j))
                        changed = True
        if not changed:
            return changed_any
        changed_any = True


# ---------------------------------------------------------------------------
# Gaps and state classes


@dataclass(frozen=True)
class Gap:
    index: int
    left: VectorKey | None  # post of the preceding message
    right: VectorKey | None  # pre of the following message

    def faces(self) -> tuple[VectorKey, ...]:
        return tuple(k for k in (self.left, self.right) if k is not None)


def lifeline_gaps(asd: AnnotatedSD, obj: str) -> list[Gap]:
    line = asd.sd.lifeline(obj)
    gaps = []
    for g in range(len(line) + 1):
        left = (obj, line[g - 1].id, POST) if g > 0 else None
        right = (obj, line[g].id, PRE) if g < len(line) else None
        gaps.append(Gap(g, left, right))
    return gaps


def _preserves_state(asd: AnnotatedSD, msg: Message) -> bool:
    """True when the message cannot change any state variable."""
    spec = asd.theory.spec_for(msg.label)
    return spec is None or spec.post.is_empty()


def state_classes(asd: AnnotatedSD, obj: str) -> list[list[Gap]]:
    """Runs of gaps joined by state-preserving messages, in lifeline order."""
    line = asd.sd.lifeline(obj)
    gaps = lifeline_gaps(asd, obj)
    classes: list[list[Gap]] = [[gaps[0]]]
    for p, msg in enumerate(line):
        if _preserves_state(asd, msg):
            classes[-1].append(gaps[p + 1])
        else:
            classes.append([gaps[p + 1]])
    return classes


def _class_state(asd: AnnotatedSD, cls: list[Gap]):
    state = tuple([None] * asd.theory.width)
    for gap in cls:
        for key in gap.faces():
            state = unify(state, tuple(asd.vectors[key]))
            if state is None:
                return None
    return state


def _adjacent_messages(asd: AnnotatedSD, obj: str, cls: list[Gap]) -> frozenset[int]:
    line = asd.sd.lifeline(obj)
    out = set()
    for gap in cls:
        if gap.index > 0:
            out.add(line[gap.index - 1].id)
        if gap.index < len(line):
            out.add(line[gap.index].id)
    return frozenset(out)


def _is_discarded(no_loop, msgs_a, msgs_b) -> bool:
    """True when some ``no_loop`` pair has one message in each set."""
    for pair in no_loop:
        ids = tuple(pair)
        i, j = ids[0], ids[-1]
        if (i in msgs_a and j in msgs_b) or (j in msgs_a and i in msgs_b):
            return True
    return False


def _event_faces(cls_a: list[Gap], cls_b: list[Gap]):
    """Face order for an identification: earlier class ascending, partner
    newest-first (the direction the recurrence was discovered in)."""
    faces = []
    after = []
    for gap in cls_a:
        for key in gap.faces():
            faces.append(key)
        if gap.left is not None:
            after.append(gap.left)
    for gap in reversed(cls_b):
        for key in gap.faces():
            faces.append(key)
        if gap.left is not None:
            after.append(gap.left)
    return tuple(faces), tuple(after)


@dataclass(frozen=True)
class Identification:
    """A candidate state-class identification on one lifeline."""

    object: str
    group_a: tuple
    group_b: tuple
    joined: tuple
    grounds: tuple  # (vector key, cell index) pairs the join would determine


def identification_candidates(asd: AnnotatedSD) -> list[Identification]:
    """Applicable identifications in scan order: objects in declaration
    order, the earlier class first, its partner searched from the end of
    the lifeline backwards (loops close against the latest recurrence)."""
    out = []
    for obj in asd.sd.objects:
        classes = state_classes(asd, obj)
        states = [_class_state(asd, cls) for cls in classes]
        for a in range(len(classes)):
            if states[a] is None:
                continue
            for b in range(len(classes) - 1, a, -1):
                if states[b] is None:
                    continue
                joined = unify(states[a], states[b])
                if joined is None:
                    continue
                faces, _ = _event_faces(classes[a], classes[b])
                grounds = tuple(
                    (key, j)
                    for key in faces
                    for j, v in enumerate(joined)
                    if v is not None and asd.vectors[key][j] is None
                )
                if not grounds:
                    continue
                msgs_a = _adjacent_messages(asd, obj, classes[a])
                msgs_b = _adjacent_messages(asd, obj, classes[b])
                if _is_discarded(asd.sd.no_loop, msgs_a, msgs_b):
                    continue
                out.append(
                    Identification(obj, tuple(classes[a]), tuple(classes[b]), joined, grounds)
                )
    return out


def apply_identification(asd: AnnotatedSD, cand: Identification) -> UnifyEvent:
    faces, after = _event_faces(list(cand.group_a), list(cand.group_b))
    event = UnifyEvent(
        index=len(asd.events),
        object=cand.object,
        group_a=tuple(g.index for g in cand.group_a),
        group_b=tuple(g.index for g in cand.group_b),
        after_faces=after,
        faces=faces,
        messages_a=_adjacent_messages(asd, cand.object, list(cand.group_a)),
        messages_b=_adjacent_messages(asd, cand.object, list(cand.group_b)),
    )
    asd.events.append(event)
    for key, j in cand.grounds:
        contributor = next(k for k in faces if asd.vectors[k][j] == cand.joined[j])
        _ground(asd, key, j, cand.joined[j], Unified(event.index, contributor))
    return event


def _gap_joins_once(asd: AnnotatedSD) -> bool:
    """Reconcile compatible gap faces pointwise (the S2/S3-style unification).

    The two faces of one gap describe the same state; where they are
    compatible but unevenly determined, each takes the other's values.
    Incompatible faces are left alone for conflict detection.
    """
    changed = False
    for obj in asd.sd.objects:
        line = asd.sd.lifeline(obj)
        for gap in lifeline_gaps(asd, obj):
            if gap.left is None or gap.right is None:
                continue
            if _is_discarded(asd.sd.no_loop, {line[gap.index - 1].id}, {line[gap.index].id}):
                continue
            left = asd.vectors[gap.left]
            right = asd.vectors[gap.right]
            joined = unify(tuple(left), tuple(right))
            if joined is None:
                continue
            for j, v in enumerate(joined):
                if v is None:
                    continue
                for key, cells, other in ((gap.left, left, gap.right), (gap.right, right, gap.left)):
                    if cells[j] is None:
                        _ground(asd, key, j, v, Unified(-1, other))
                        changed = True
    return changed


def annotate(sd: SequenceDiagram, dt: DomainTheory) -> tuple[AnnotatedSD, list[Conflict]]:
    """Full annotation: initialize, then frame propagation and unification
    to their joint fixpoint, then conflict detection.

    Message pairs in ``sd.no_loop`` are never unified.
    """
    asd = initialize_vectors(sd, dt)
    # Ends: every pass that continues grounds at least one cell, _ground
    # never un-grounds one, and there are finitely many cells.
    while True:
        frame_propagate(asd)
        candidates = identification_candidates(asd)
        if candidates:
            apply_identification(asd, candidates[0])
        elif not _gap_joins_once(asd):
            return asd, detect_conflicts(asd)


# ---------------------------------------------------------------------------
# Conflicts and derivations


def _trace(asd: AnnotatedSD, key: VectorKey, j: int) -> list[DerivationStep]:
    """Transitive provenance of one cell, oldest step first."""
    steps = []
    seen = set()
    while True:
        if (key, j) in seen:
            raise AssertionError(f"cyclic provenance at {key}[{j}]")
        seen.add((key, j))
        prov = asd.provenance.get((key, j))
        steps.append(DerivationStep(key, j, prov))
        if prov is None or isinstance(prov, FromSpec):
            steps.reverse()
            return steps
        if isinstance(prov, Frame):
            key, j = prov.source, prov.cell
        else:
            key = prov.contributor


def conflict_events(asd: AnnotatedSD, steps) -> tuple[UnifyEvent, ...]:
    out = []
    for step in steps:
        if isinstance(step.provenance, Unified) and step.provenance.event >= 0:
            ev = asd.events[step.provenance.event]
            if ev not in out:
                out.append(ev)
    return tuple(out)


def _unified_states(asd: AnnotatedSD, events) -> tuple:
    by_msg = {m.id: m for m in asd.sd.messages}
    out = []
    seen = set()
    for ev in events:
        for obj, mid, which in ev.after_faces:
            if (mid, which) in seen:
                continue
            seen.add((mid, which))
            out.append((by_msg[mid], which, StateVector(tuple(asd.vectors[(obj, mid, which)]))))
    return tuple(out)


def detect_conflicts(asd: AnnotatedSD) -> list[Conflict]:
    """Every adjacent post/pre disagreement on every lifeline, with the full
    derivation chain of both cells."""
    conflicts = []
    for obj in asd.sd.objects:
        line = asd.sd.lifeline(obj)
        for gap in lifeline_gaps(asd, obj):
            if gap.left is None or gap.right is None:
                continue
            left = asd.vectors[gap.left]
            right = asd.vectors[gap.right]
            for j, (x, y) in enumerate(zip(left, right)):
                if x is None or y is None or x == y:
                    continue
                steps = tuple(_trace(asd, gap.left, j) + _trace(asd, gap.right, j))
                events = conflict_events(asd, steps)
                conflicts.append(
                    Conflict(
                        sd_name=asd.sd.name,
                        object=obj,
                        after_message=line[gap.index - 1],
                        before_message=line[gap.index],
                        variable=asd.theory.variables[j],
                        value_after=x,
                        value_before=y,
                        vector_after=StateVector(tuple(left)),
                        vector_before=StateVector(tuple(right)),
                        derivation=steps,
                        events=events,
                        unified_states=_unified_states(asd, events),
                    )
                )
    return conflicts
