"""State-vector annotation: initialization, unification, frame propagation.

Vectors live per (object, message, pre|post).  Along each object's lifeline
the gaps between messages are the system states; a gap's two faces (the post
vector of the previous message and the pre vector of the next) must agree,
and disagreement on a determined cell is a conflict.  Gaps separated only by
state-preserving messages (empty or missing postcondition) form one state
class; unifying two classes identifies a potential loop.  Loop candidates
are searched latest-first so a recurrence is always explained against the
end of the scenario, which is where loops close.

A fixpoint round is linear in the diagram: gaps are built once, a class's
state is joined a cell column at a time, and the loop search walks each
lifeline's distinct (state, open) keys, not its pairs of classes.  Rounds
are few (one to three per diagram), so they are not narrowed to the
classes that changed.

Only unification stores provenance: ``AnnotatedSD.provenance`` holds a
``Unified`` record per cell an identification or gap join grounded.
``provenance_of`` derives a cell's provenance when a conflict is explained,
by the first rule that applies: the stored ``Unified`` record; ``FromSpec``
when the message's specification fixes the cell (annotation never
overwrites one); ``Frame`` from the face before it on the lifeline when
the cell is determined (only the frame sweep grounds anything else); None.
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
    Provenance,
    SequenceDiagram,
    StateVector,
    Unified,
    UnifyEvent,
    VectorKey,
    participants,
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


def _condition_vector(cond: Condition, binding: dict, dt: DomainTheory, msg: Message) -> tuple:
    cells = [None] * dt.width
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
    return tuple(cells)


def initialize_vectors(sd: SequenceDiagram, dt: DomainTheory) -> AnnotatedSD:
    """Build initial pre/post vectors straight from the message specifications.

    Both endpoints of a message receive the same spec-derived cells: the
    conditions constrain the shared system state, not one object's view.
    Messages without a matching spec contribute all-undetermined vectors.
    Spec vectors are built once per (label, arguments) into ``AnnotatedSD.spec_vectors``.
    """
    vectors: dict[VectorKey, list] = {}
    spec_vectors: dict = {}  # message id -> {PRE: vector, POST: vector}
    by_event: dict = {}  # (label, args) -> the same, shared
    for msg in sd.messages:
        fixed = by_event.get((msg.label, msg.args))
        if fixed is None:
            spec = dt.spec_for(msg.label)
            binding = {} if spec is None else _parameter_binding(spec, msg)
            pre, post = (Condition(), Condition()) if spec is None else (spec.pre, spec.post)
            fixed = by_event[msg.label, msg.args] = {
                PRE: _condition_vector(pre, binding, dt, msg),
                POST: _condition_vector(post, binding, dt, msg),
            }
        spec_vectors[msg.id] = fixed
        for obj in participants(msg):
            for which, cells in fixed.items():
                vectors[(obj, msg.id, which)] = list(cells)
    return AnnotatedSD(sd, dt, vectors, {}, [], spec_vectors)


def missing_spec_warnings(sd: SequenceDiagram, dt: DomainTheory) -> list[str]:
    """One warning per distinct message label the theory does not specify."""
    return list(dict.fromkeys(
        f"{sd.name}: message {m.label!r} has no specification"
        for m in sd.messages if dt.spec_for(m.label) is None
    ))


def _ground(asd: AnnotatedSD, key: VectorKey, j: int, value: str, prov: Unified) -> None:
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
    back, so one sweep is a fixpoint.  Full faces take nothing and are skipped.
    Faces follow ``AnnotatedSD.previous_face``, as ``provenance_of``'s frame steps do.
    """
    changed = False
    vectors = asd.vectors
    for key, prev in asd.previous_face.items():
        cells = vectors[key]
        if None in cells:
            for j, v in enumerate(vectors[prev]):
                if v is not None and cells[j] is None:
                    cells[j] = v
                    changed = True
    return changed


# ---------------------------------------------------------------------------
# State classes


def class_state(asd: AnnotatedSD, cls):
    """(join of the class's faces, open) or None when two faces clash;
    ``open`` is true when some face lacks a value the join determines.
    The join is taken one column of cells at a time."""
    faces = [asd.vectors[key] for gap in cls for key in gap]
    state = []
    is_open = False
    for column in zip(*faces) if faces else [()] * asd.theory.width:
        values = set(column)
        lacking = None in values
        values.discard(None)
        if len(values) > 1:
            return None
        state.append(values.pop() if values else None)
        is_open = is_open or (lacking and state[-1] is not None)
    return tuple(state), is_open


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
    test depends only on the two classes' (state, open) keys, so each
    earlier class is tested once per distinct key, and the key's latest
    class after it that ``no_loop`` does not refuse is its partner.  Two
    closed, fully determined states are compatible only when equal, and
    then ground nothing, so such a class tests only the keys that are open
    or partly undetermined.
    """
    no_loop = asd.sd.no_loop
    for obj in asd.sd.objects:
        classes = asd.classes[obj]
        states = [class_state(asd, cls) for cls in classes]
        by_key = {}  # (state, open) -> indices of the classes in it, ascending
        for c, key in enumerate(states):
            if key is not None:  # a clashing class has no partner
                by_key.setdefault(key, []).append(c)
        partial = {key: cs for key, cs in by_key.items() if key[1] or None in key[0]}
        msgs = [{key[1] for gap in cls for key in gap} for cls in classes] if no_loop else None
        for a, key_a in enumerate(states):
            if key_a is None:
                continue
            state_a, open_a = key_a
            b_max, found = a, None
            for (state_b, open_b), cs in (by_key if open_a or None in state_a else partial).items():
                if cs[-1] <= b_max:
                    continue
                joined = unify(state_a, state_b)
                if joined is None or not (open_a or open_b or state_a != state_b):
                    continue
                for b in reversed(cs):
                    if b <= b_max:
                        break
                    if not (no_loop and _is_discarded(no_loop, msgs[a], msgs[b])):
                        b_max, found = b, joined
                        break
            if found is not None:
                return Identification(obj, classes[a], classes[b_max], found)
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
        for gap in asd.gaps[obj]:
            if len(gap) != 2:
                continue
            left_key, right_key = gap
            left = asd.vectors[left_key]
            right = asd.vectors[right_key]
            if None not in left and None not in right:
                continue
            if _is_discarded(asd.sd.no_loop, {left_key[1]}, {right_key[1]}):
                continue
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


def provenance_of(asd: AnnotatedSD, key: VectorKey, j: int) -> Provenance | None:
    """How cell ``j`` of face ``key`` got its value, by the first of the
    rules in the module docstring that applies."""
    prov = asd.provenance.get((key, j))
    if prov is not None:
        return prov
    _, mid, which = key
    if asd.spec_vectors[mid][which][j] is not None:
        return FromSpec(mid, which)
    if asd.vectors[key][j] is not None:
        return Frame(asd.previous_face[key], j)
    return None


def _trace(asd: AnnotatedSD, key: VectorKey, j: int) -> list[DerivationStep]:
    """Transitive provenance of one cell, oldest step first."""
    steps = []
    seen = set()
    while True:
        if (key, j) in seen:
            raise AssertionError(f"cyclic provenance at {key}[{j}]")
        seen.add((key, j))
        prov = provenance_of(asd, key, j)
        steps.append(DerivationStep(key, j, prov))
        if prov is None or isinstance(prov, FromSpec):
            steps.reverse()
            return steps
        if isinstance(prov, Frame):
            key, j = prov.source, prov.cell
        else:
            key = prov.contributor


def _unified_states(asd: AnnotatedSD, steps) -> tuple:
    """Each face of the unifications the steps derive from, in step order."""
    out = {}
    for step in steps:
        prov = step.provenance
        if not isinstance(prov, Unified) or prov.event < 0:
            continue
        for obj, mid, which in asd.events[prov.event].after_faces:
            if (mid, which) not in out:
                out[mid, which] = (asd.sd.messages[mid - 1], which,
                                   StateVector(tuple(asd.vectors[(obj, mid, which)])))
    return tuple(out.values())


def detect_conflicts(asd: AnnotatedSD) -> list[Conflict]:
    """Every adjacent post/pre disagreement on every lifeline, with the full
    derivation chain of both cells."""
    conflicts = []
    for obj in asd.sd.objects:
        for gap in asd.gaps[obj]:
            if len(gap) != 2:
                continue
            left_key, right_key = gap
            left = asd.vectors[left_key]
            right = asd.vectors[right_key]
            for j, (x, y) in enumerate(zip(left, right)):
                if x is None or y is None or x == y:
                    continue
                steps = tuple(_trace(asd, left_key, j) + _trace(asd, right_key, j))
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
                        unified_states=_unified_states(asd, steps),
                    )
                )
    return conflicts
