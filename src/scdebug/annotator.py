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
    """One forward frame sweep per lifeline; True when it grounded a cell.

    Each face in gap order (pre m1, post m1, pre m2, ...) takes every value
    it lacks from the face before it, so values persist until a
    specification changes them.  Determined cells are never rewritten.  A
    lifeline's vectors are read and written only by its own sweep, front to
    back, so one sweep is a fixpoint.
    """
    changed = False
    for obj in asd.sd.objects:
        faces = [key for gap in lifeline_gaps(asd, obj) for key in gap]
        for src_key, dst_key in zip(faces, faces[1:]):
            dst = asd.vectors[dst_key]
            for j, v in enumerate(asd.vectors[src_key]):
                if v is not None and dst[j] is None:
                    _ground(asd, dst_key, j, v, Frame(src_key, j))
                    changed = True
    return changed


# ---------------------------------------------------------------------------
# Gaps and state classes


def lifeline_gaps(asd: AnnotatedSD, obj: str) -> list[tuple[VectorKey, ...]]:
    """The gaps of a lifeline as tuples of face keys:
    ``[(pre m1), (post m1, pre m2), ..., (post mlast)]``."""
    gaps = [[]]
    for msg in asd.sd.lifeline(obj):
        gaps[-1].append((obj, msg.id, PRE))
        gaps.append([(obj, msg.id, POST)])
    return [tuple(gap) for gap in gaps]


def state_classes(asd: AnnotatedSD, obj: str) -> list[list[tuple[VectorKey, ...]]]:
    """Runs of gaps joined by state-preserving messages (no specification or
    an empty postcondition), in lifeline order."""
    gaps = lifeline_gaps(asd, obj)
    classes = [[gaps[0]]]
    for gap in gaps[1:]:
        # A later gap opens with the post face of the message before it.
        spec = asd.theory.spec_for(asd.sd.messages[gap[0][1] - 1].label)
        if spec is None or spec.post.is_empty():
            classes[-1].append(gap)
        else:
            classes.append([gap])
    return classes


def class_state(asd: AnnotatedSD, cls):
    """(join of the class's faces, open) or None when two faces clash;
    ``open`` is true when some face lacks a value the join determines."""
    faces = [asd.vectors[key] for gap in cls for key in gap]
    state = tuple([None] * asd.theory.width)
    for cells in faces:
        state = unify(state, tuple(cells))
        if state is None:
            return None
    return state, any(v is not None and cells[j] is None for cells in faces for j, v in enumerate(state))


def _is_discarded(no_loop, msgs_a, msgs_b) -> bool:
    """True when some ``no_loop`` pair has one message in each set."""
    for pair in no_loop:
        ids = tuple(pair)
        i, j = ids[0], ids[-1]
        if (i in msgs_a and j in msgs_b) or (j in msgs_a and i in msgs_b):
            return True
    return False


@dataclass(frozen=True)
class Identification:
    """A candidate state-class identification on one lifeline."""

    object: str
    group_a: tuple  # gaps of the earlier class
    group_b: tuple  # gaps of its partner
    joined: tuple


def identification_candidates(asd: AnnotatedSD) -> Identification | None:
    """The first applicable identification in scan order, or None: objects
    in declaration order, the earlier class first, its partner searched
    from the end of the lifeline backwards (loops close against the latest
    recurrence).

    Two compatible classes are a candidate when their join grounds some
    face cell: when either class is open or their states differ.  That
    test depends only on the two classes' (state, open) pairs, so among the
    partners of one earlier class, a pair that failed it is not tried
    again; a partner refused only by ``no_loop`` is not remembered.
    """
    for obj in asd.sd.objects:
        classes = state_classes(asd, obj)
        states = [class_state(asd, cls) for cls in classes]
        msgs = [{key[1] for gap in cls for key in gap} for cls in classes]
        for a in range(len(classes)):
            if states[a] is None:
                continue
            state_a, open_a = states[a]
            failed = {None}  # (state, open) pairs that fail against a; None clashes
            for b in range(len(classes) - 1, a, -1):
                if states[b] in failed:
                    continue
                state_b, open_b = states[b]
                joined = unify(state_a, state_b)
                if joined is None or not (open_a or open_b or state_a != state_b):
                    failed.add(states[b])
                elif not _is_discarded(asd.sd.no_loop, msgs[a], msgs[b]):
                    return Identification(obj, tuple(classes[a]), tuple(classes[b]), joined)
    return None


def apply_identification(asd: AnnotatedSD, cand: Identification) -> UnifyEvent:
    """Ground both classes' faces to the join.

    Faces are visited earlier class ascending, partner newest-first (the
    direction the recurrence was discovered in), cells in order within a
    face; each grounded cell credits the first face then holding its value.
    """
    faces = [key for gap in cand.group_a for key in gap]
    faces += [key for gap in reversed(cand.group_b) for key in gap]
    event = UnifyEvent(
        index=len(asd.events),
        object=cand.object,
        after_faces=tuple(key for key in faces if key[2] == POST),
    )
    asd.events.append(event)
    for key in faces:
        cells = asd.vectors[key]
        for j, v in enumerate(cand.joined):
            if v is not None and cells[j] is None:
                contributor = next(k for k in faces if asd.vectors[k][j] == v)
                _ground(asd, key, j, v, Unified(event.index, contributor))
    return event


def _gap_joins_once(asd: AnnotatedSD) -> bool:
    """Reconcile compatible gap faces pointwise (the S2/S3-style unification).

    The two faces of one gap describe the same state; where they are
    compatible but unevenly determined, each takes the other's values.
    Incompatible faces are left alone for conflict detection.
    """
    changed = False
    for obj in asd.sd.objects:
        for gap in lifeline_gaps(asd, obj):
            if len(gap) != 2:
                continue
            left_key, right_key = gap
            if _is_discarded(asd.sd.no_loop, {left_key[1]}, {right_key[1]}):
                continue
            left = asd.vectors[left_key]
            right = asd.vectors[right_key]
            joined = unify(tuple(left), tuple(right))
            if joined is None:
                continue
            for j, v in enumerate(joined):
                if v is None:
                    continue
                for key, cells, other in ((left_key, left, right_key), (right_key, right, left_key)):
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
        cand = identification_candidates(asd)
        if cand is not None:
            apply_identification(asd, cand)
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
    out = []
    seen = set()
    for ev in events:
        for obj, mid, which in ev.after_faces:
            if (mid, which) in seen:
                continue
            seen.add((mid, which))
            out.append((asd.sd.messages[mid - 1], which, StateVector(tuple(asd.vectors[(obj, mid, which)]))))
    return tuple(out)


def detect_conflicts(asd: AnnotatedSD) -> list[Conflict]:
    """Every adjacent post/pre disagreement on every lifeline, with the full
    derivation chain of both cells."""
    conflicts = []
    for obj in asd.sd.objects:
        for gap in lifeline_gaps(asd, obj):
            if len(gap) != 2:
                continue
            left_key, right_key = gap
            left = asd.vectors[left_key]
            right = asd.vectors[right_key]
            for j, (x, y) in enumerate(zip(left, right)):
                if x is None or y is None or x == y:
                    continue
                steps = tuple(_trace(asd, left_key, j) + _trace(asd, right_key, j))
                events = conflict_events(asd, steps)
                conflicts.append(
                    Conflict(
                        sd_name=asd.sd.name,
                        object=obj,
                        after_message=asd.sd.messages[left_key[1] - 1],
                        before_message=asd.sd.messages[right_key[1] - 1],
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
