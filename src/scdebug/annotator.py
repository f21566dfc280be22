"""State-vector annotation: initialization, unification, frame propagation.

Each message gives each object taking part in it a pre and a post vector,
its two faces.  Along each object's lifeline the gaps between messages are
the system states; a gap's two faces (the post vector of the previous
message and the pre vector of the next) must agree, and disagreement on a
determined cell is a conflict.  Gaps separated only by
state-preserving messages (empty or missing postcondition) form one state
class; unifying two classes identifies a potential loop.  Loop candidates
are searched latest-first so a recurrence is always explained against the
end of the scenario, which is where loops close.

Annotation is lifeline-local, so ``annotate`` takes one lifeline at a time
to its fixpoint: a frame sweep runs along one lifeline, an identification
joins two classes of one object, and a gap join joins the two faces of one
gap.  A lifeline's whole annotation is one ``model.Lifeline``, addressed by
face position: interior gap ``g`` is faces ``2g - 1`` and ``2g``, a class
is a range of faces, and provenance and identifications name faces of the
same lifeline, never a message id.  A round is linear in the lifeline: a
class's state is joined a cell column at a time, and the loop search walks
the lifeline's distinct (state, open) keys, not its pairs of classes.
Faces are tuples, never written into: the spec vectors start them, and
a sweep or a unification replaces a face, so equal faces are mostly one
object.  Settled faces, which already agree with the rest of their class
or gap, cost one tuple comparison: a class of equal faces is not joined,
and gap joins and conflict detection skip a gap of equal faces.

Gap joins run once per lifeline, after its last frame sweep: a gap's pre
face then holds every value of the post face before it, so a join only
fills the post face, with values its class already holds.  No class's
join changes and no class opens, so no sweep, identification or gap join
finds more after it.

Only unification stores provenance: ``Lifeline.provenance`` holds a
``Unified`` record per cell an identification or gap join grounded.
``_walk`` derives a cell's provenance by the first rule that applies: the
stored ``Unified`` record; ``FROM_SPEC`` when the face's specification
fixes the cell (annotation never overwrites one); ``FRAME``, from the face
before it on the lifeline, when the cell is determined (only the frame
sweep grounds anything else); None.

A ``Conflict`` only names its two faces and the variable they disagree on;
nothing is copied or traced when it is detected.  When a report renders it,
``conflict_view(asd, conflict)`` reads the faces' cells and the unification
faces the conflict derives from, and ``derivation(asd, conflict)`` rebuilds
its chain from the two faces, by the same rules.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter

from .model import (
    POST,
    AnnotatedSD,
    Condition,
    Conflict,
    DomainTheory,
    Lifeline,
    Message,
    SequenceDiagram,
    Unified,
    unify,
)

FROM_SPEC = "spec"  # provenance: the message's specification fixes the cell
FRAME = "frame"  # provenance: carried from the face before it on the lifeline


class AnnotationError(Exception):
    """A message whose arguments or specification the theory cannot hold."""

    def __init__(self, message_id: int, detail: str):
        self.message_id = message_id
        super().__init__(f"message {message_id}: {detail}")


def _parameter_binding(spec, msg: Message) -> dict:
    """Bind spec parameters to the message's ground arguments."""
    if len(msg.args) != len(spec.params):
        raise AnnotationError(
            msg.id,
            f"{msg.label!r} takes {len(spec.params)} argument(s), got {len(msg.args)}",
        )
    for (p, dom), a in zip(spec.params, msg.args):
        if not dom.contains(a):
            raise AnnotationError(
                msg.id, f"argument {a!r} outside domain {dom.describe()} of parameter {p}"
            )
    return {p: a for (p, _), a in zip(spec.params, msg.args)}


def _condition_vector(cond: Condition, binding: dict, dt: DomainTheory, msg: Message) -> tuple:
    cells = [None] * dt.width
    for var_name, value in cond.atoms:
        var = dt.variable(var_name)
        if var is None:
            raise AnnotationError(msg.id, f"unknown state variable {var_name!r}")
        literal = binding.get(value, value)
        if not var.domain.contains(literal):
            raise AnnotationError(
                msg.id,
                f"literal {literal!r} outside domain of {var_name} ({var.domain.describe()})",
            )
        cells[var.index] = literal
    return tuple(cells)


def initialize_vectors(sd: SequenceDiagram, dt: DomainTheory) -> AnnotatedSD:
    """Build each object's ``Lifeline`` with its initial pre/post vectors
    straight from the message specifications, in one pass.

    Both endpoints of a message receive the same spec-derived cells: the
    conditions constrain the shared system state, not one object's view.
    Messages without a matching spec contribute all-undetermined vectors.
    Spec vectors are cached on the theory by (label, arguments) once built,
    and shared by every face they fix.
    """
    vectors, blank = dt._spec_vectors, (None,) * dt.width
    own = {obj: ([], []) for obj in sd.objects}  # object -> (messages, spec)
    for msg in sd.messages:
        fixed = vectors.get((msg.label, msg.args))
        if fixed is None:
            spec = dt.spec_for(msg.label)
            binding = {} if spec is None else _parameter_binding(spec, msg)
            pre, post = (Condition(), Condition()) if spec is None else (spec.pre, spec.post)
            fixed = vectors[msg.label, msg.args] = (_condition_vector(pre, binding, dt, msg),
                                                    _condition_vector(post, binding, dt, msg))
        messages, cells = own[msg.sender]
        messages.append(msg)
        cells += fixed
        if msg.receiver != msg.sender:  # the other participant
            messages, cells = own[msg.receiver]
            messages.append(msg)
            cells += fixed
    lines = {}
    for obj, (messages, spec) in own.items():
        starts = [0, *(i for i in range(1, len(spec), 2) if spec[i] != blank), len(spec)]
        lines[obj] = Lifeline(messages, spec, spec[:], starts, {}, [])
    return AnnotatedSD(sd, dt, lines)


def missing_spec_warnings(sd: SequenceDiagram, dt: DomainTheory) -> list[str]:
    """One warning per distinct message label the theory does not specify."""
    return [f"{sd.name}: message {label!r} has no specification"
            for label in dict.fromkeys(m.label for m in sd.messages) if dt.spec_for(label) is None]


def _ground(line: Lifeline, i: int, j: int, value: str, prov: Unified) -> None:
    cells = line.faces[i]
    if cells[j] is not None:
        if cells[j] != value:
            raise AssertionError(
                f"attempt to overwrite determined cell {j} of face {i} ({cells[j]}) with {value}"
            )
        return
    line.faces[i] = (*cells[:j], value, *cells[j + 1:])
    line.provenance[(i, j)] = prov


def frame_propagate(asd: AnnotatedSD, obj: str) -> bool:
    """One forward frame sweep along the object's lifeline; True when it
    grounded a cell.

    Each face in lifeline order (pre m1, post m1, pre m2, ...) takes every
    value it lacks from the face before it, so values persist until a
    specification changes them.  Determined cells are never rewritten.  A
    lifeline's vectors are read and written only by its own sweep, front to
    back, so one sweep is a fixpoint.  Full faces take nothing and are
    skipped; equal (face before, face) pairs give one filled tuple.
    """
    changed = False
    faces = asd.lines[obj].faces
    filled = {}  # (face before, face) -> the face after the sweep
    prev = faces[0] if faces else None
    for i in range(1, len(faces)):
        cells = faces[i]
        if None in cells and cells is not prev:
            key = prev, cells
            new = filled.get(key)
            if new is None:
                new = filled[key] = tuple([v if v is not None else p for v, p in zip(cells, prev)])
            if new != cells:
                faces[i] = cells = new
                changed = True
        prev = cells
    return changed


# ---------------------------------------------------------------------------
# State classes


def class_state(faces: list, width: int):
    """(join of a class's faces, open) or None when two faces clash;
    ``open`` is true when some face lacks a value the join determines.
    The join is taken one column of cells at a time, unless the faces are
    settled (all equal); a class with no faces has one undetermined face."""
    faces = faces or [(None,) * width]
    if faces.count(faces[0]) == len(faces):
        return faces[0], False
    state = []
    is_open = False
    for column in zip(*faces):
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


def identification_candidates(asd: AnnotatedSD, obj: str) -> tuple | None:
    """The object's first applicable identification in scan order, as
    (object, (start, stop) of the earlier class's faces, the same of its
    partner, their join), or None: the earlier class first, its partner
    searched from the end of the lifeline backwards (loops close against
    the latest recurrence).

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
    messages, _, faces, starts, *_ = asd.lines[obj]
    classes = list(zip(starts, starts[1:]))
    width = asd.theory.width
    states = [class_state(faces[lo:hi], width) for lo, hi in classes]
    by_key = {}  # (state, open) -> indices of the classes in it, ascending
    for c, key in enumerate(states):
        if key is not None:  # a clashing class has no partner
            by_key.setdefault(key, []).append(c)
    partial = {key: cs for key, cs in by_key.items() if key[1] or None in key[0]}
    msgs = [{messages[i // 2].id for i in range(lo, hi)} for lo, hi in classes] if no_loop else None
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
            return obj, classes[a], classes[b_max], found
    return None


def apply_identification(asd: AnnotatedSD, cand: tuple) -> None:
    """Ground both classes of an ``identification_candidates`` result to
    their join, and record the identification's post faces as an event.

    Faces are visited earlier class ascending, then the partner's gaps
    newest first (the direction the recurrence was discovered in), each
    gap's faces in order, cells in order within a face; each grounded cell
    credits the first face then holding its value.
    """
    obj, (lo_a, hi_a), (lo_b, hi_b), joined = cand
    line = asd.lines[obj]
    faces = line.faces
    # Face i lies in gap (i + 1) // 2, and the sort is stable, so each
    # gap's faces stay in order.
    order = [*range(lo_a, hi_a),
             *sorted(range(lo_b, hi_b), key=lambda i: (i + 1) // 2, reverse=True)]
    event = len(line.events)
    line.events.append(tuple(i for i in order if i % 2))  # odd faces are post faces
    for i in order:
        cells = faces[i]
        for j, v in enumerate(joined):
            if v is not None and cells[j] is None:
                contributor = next(k for k in order if faces[k][j] == v)
                _ground(line, i, j, v, Unified(event, contributor))


def _unsettled_gaps(line: Lifeline):
    """The left face of every gap of two faces that differ on the
    lifeline, front to back; the right face is the next one."""
    faces = line.faces
    for i in range(1, len(faces) - 1, 2):
        if faces[i] != faces[i + 1]:
            yield i


def _gap_joins_once(asd: AnnotatedSD, obj: str) -> bool:
    """Fill each gap's post face on the object's lifeline from its pre face
    where the two are compatible (the S2/S3-style unification).  Only the
    post face can take a value: called right after a frame sweep, the pre
    face holds every value of the post face before it.  Incompatible faces
    are left alone for conflict detection."""
    changed = False
    messages, _, faces, *_ = line = asd.lines[obj]
    for i in _unsettled_gaps(line):
        left, right = faces[i], faces[i + 1]
        if None not in left:
            continue
        if _is_discarded(asd.sd.no_loop, {messages[i // 2].id}, {messages[i // 2 + 1].id}):
            continue
        joined = unify(left, right)
        if joined is None:
            continue
        for j, v in enumerate(joined):
            if v is not None and left[j] is None:
                _ground(line, i, j, v, Unified(-1, i + 1))
                changed = True
    return changed


def annotate(sd: SequenceDiagram, dt: DomainTheory) -> tuple[AnnotatedSD, list[Conflict]]:
    """Full annotation, one lifeline at a time: initialize, then frame
    propagation and unification to their joint fixpoint, then conflict
    detection.

    Message pairs in ``sd.no_loop`` are never unified.
    """
    asd = initialize_vectors(sd, dt)
    for obj in sd.objects:
        # Ends: every identification grounds at least one cell, _ground
        # never un-grounds one, and there are finitely many cells.
        while True:
            frame_propagate(asd, obj)
            cand = identification_candidates(asd, obj)
            if cand is None:
                break
            apply_identification(asd, cand)
        _gap_joins_once(asd, obj)
    return asd, [c for obj in sd.objects for c in detect_conflicts(asd, obj)]


# ---------------------------------------------------------------------------
# Conflicts and derivations


def _walk(line: Lifeline, i: int, j: int):
    """``(face, rule)`` for each face that cell ``j`` of face ``i`` took its
    value through, newest first, by the rules in the module docstring:
    ``rule`` is the stored ``Unified`` record, ``FROM_SPEC``, ``FRAME`` or
    None.  The walk ends at a ``FROM_SPEC`` or None step."""
    provenance, spec, faces = line.provenance, line.spec, line.faces
    # Each step's source was grounded before it, so no face comes twice.
    for _ in range(len(faces) + 1):
        rule = provenance.get((i, j))
        if rule is None:
            if spec[i][j] is not None:
                rule = FROM_SPEC
            elif faces[i][j] is not None:
                rule = FRAME
        yield i, rule
        if rule == FRAME:
            i -= 1
        elif rule == FROM_SPEC or rule is None:
            return
        else:
            i = rule.contributor
    raise AssertionError(f"cyclic provenance at cell {j} of face {i}")


def _after_face(asd: AnnotatedSD, conflict: Conflict) -> tuple:
    """The conflict's lifeline and its after face; the before face is next."""
    line = asd.lines[conflict.object]
    return line, 2 * bisect_left(line.messages, conflict.after_message.id, key=attrgetter("id")) + 1


def derivation(asd: AnnotatedSD, conflict: Conflict) -> tuple:
    """The conflict's full provenance chain as (face, cell, rule) steps on
    its lifeline, each rule as ``_walk`` gives it: the after cell's steps,
    oldest first, then the before cell's.  Within each cell's steps, a
    value came from the step before it."""
    line, i = _after_face(asd, conflict)
    j = conflict.variable.index
    steps = []
    for face in (i, i + 1):
        steps += reversed([(k, j, rule) for k, rule in _walk(line, face, j)])
    return tuple(steps)


def conflict_view(asd: AnnotatedSD, conflict: Conflict) -> tuple:
    """(after cells, before cells, unified states) of a conflict: the cells
    of its two faces, and (message, pre|post, cells) for each face of the
    unifications its ``derivation`` passes through, in step order, each
    face once; no unified states when its lifeline had no identification."""
    line, i = _after_face(asd, conflict)
    faces = line.faces
    after, before = faces[i], faces[i + 1]
    if not line.events:
        return after, before, ()
    out = {}
    for _, _, rule in derivation(asd, conflict):
        if isinstance(rule, Unified) and rule.event >= 0:
            for k in line.events[rule.event]:
                if k not in out:
                    out[k] = line.messages[k // 2], POST, faces[k]  # events hold post faces
    return after, before, tuple(out.values())


def detect_conflicts(asd: AnnotatedSD, obj: str) -> list[Conflict]:
    """Every adjacent post/pre disagreement on the object's lifeline, in
    gap order, then variable order; each names its faces, which stay in the
    annotation (``conflict_view``, ``derivation``)."""
    sd, variables = asd.sd, asd.theory.variables
    messages, _, faces, *_ = line = asd.lines[obj]
    return [
        Conflict(sd.name, obj, messages[i // 2], messages[i // 2 + 1], variables[j])
        for i in _unsettled_gaps(line)
        for j, (x, y) in enumerate(zip(faces[i], faces[i + 1]))
        if x is not None and y is not None and x != y
    ]
