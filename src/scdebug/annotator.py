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

The lifeline is the unit of annotation: a frame sweep runs along one
lifeline, an identification joins two classes of one object, and a gap
join joins the two faces of one gap.  ``annotate_lifeline`` takes one
object's ``model.Lifeline`` to its fixpoint, and ``annotate`` calls it once
per object.  A lifeline is addressed by face position: interior gap ``g``
is faces ``2g - 1`` and ``2g``, a class is a range of faces, and
``no_loop`` pairs, provenance and identifications name positions on it,
never a message id.  A round is linear in the lifeline: a class's state is
joined a cell column at a time, and the loop search walks the lifeline's
distinct (state, open) keys, not its pairs of classes.
Faces are tuples, never written into: the spec vectors start them, and a
sweep or a unification replaces a face, sharing equal faces by one rule.
Equal spec vectors are one object per theory, the blank among them.  A
sweep makes a blank face, and a face it fills to equal the face before
it, that face; an identification leaves its two classes as one object,
their join; a gap join that fills a post face to equal the pre face after
it makes it that face.  So a settled class or gap costs an ``is``: its key
needs no join, and gap joins and conflict detection skip it.

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
``conflict_view(line, conflict)`` reads the faces' cells on its lifeline
and the unification faces it derives from, and ``derivation(line,
conflict)`` rebuilds its chain from the two faces, by the same rules.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter

from .model import (
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
    """A message whose arguments its specification's parameters cannot hold."""

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


def check_arguments(dt: DomainTheory, messages) -> None:
    """Raise ``AnnotationError`` for the first of ``messages`` whose
    arguments its specification's parameters cannot hold: the readers have
    checked the rest, so this is all a diagram needs before it annotates."""
    for msg in messages:
        spec = dt.spec_for(msg.label)
        if spec is not None:
            _parameter_binding(spec, msg)


def _condition_vector(atoms, binding: dict, dt: DomainTheory) -> tuple:
    """The cells ``atoms`` fix, each parameter replaced by its argument.
    Nothing is checked here: the ``.dt`` reader has refused every atom that
    names no variable, holds a literal outside its variable's domain or a
    parameter of another domain, and ``_parameter_binding`` every argument
    outside its parameter's domain.  Equal vectors are one object per theory."""
    cells = [None] * dt.width
    for var_name, value in atoms:
        cells[dt.variable(var_name).index] = binding.get(value, value)
    cells = tuple(cells)
    return dt._vectors.setdefault(cells, cells)


def initialize_vectors(dt: DomainTheory, messages) -> Lifeline:
    """The ``Lifeline`` of an object taking part in ``messages``, its faces
    straight from the specifications.  Both endpoints of a message receive
    the same cells: the conditions constrain the shared system state, not
    one object's view.  A message without a spec has undetermined faces.
    Spec vectors are cached on the theory by (label, arguments), one object
    per distinct vector, and shared by every face they fix."""
    vectors, blank = dt._spec_vectors, dt._blank
    cells = []
    for msg in messages:
        fixed = vectors.get((msg.label, msg.args))
        if fixed is None:
            spec = dt.spec_for(msg.label)
            binding = {} if spec is None else _parameter_binding(spec, msg)
            pre, post = ((), ()) if spec is None else (spec.pre, spec.post)
            fixed = vectors[msg.label, msg.args] = (_condition_vector(pre, binding, dt),
                                                    _condition_vector(post, binding, dt))
        cells += fixed
    starts = [0, *(i for i in range(1, len(cells), 2) if cells[i] is not blank), len(cells)]
    return Lifeline(list(messages), cells, cells[:], starts, {}, [])


def missing_spec_warnings(dt: DomainTheory, sds) -> list[str]:
    """One warning per distinct (diagram name, label) the theory does not specify."""
    return list(dict.fromkeys(f"{sd.name}: message {label!r} has no specification" for sd in sds
                              for label in dict.fromkeys(m.label for m in sd.messages)
                              if dt.spec_for(label) is None))


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


def frame_propagate(line: Lifeline) -> bool:
    """One forward frame sweep along the lifeline; True when it grounded a cell.

    Each face in lifeline order (pre m1, post m1, pre m2, ...) takes every
    value it lacks from the face before it, so values persist until a
    specification changes them.  Determined cells are never rewritten.  A
    lifeline's vectors are read and written only by its own sweep, front to
    back, so one sweep is a fixpoint.  Full faces take nothing and are
    skipped, a blank face takes the face before it, equal (face before,
    face) pairs give one filled tuple, and one equal to the face before it
    is that face."""
    changed = False
    faces = line.faces
    filled = {}  # (face before, face) -> the face after the sweep
    prev = faces[0] if faces else None
    for i in range(1, len(faces)):
        cells = faces[i]
        if cells is not prev and None in cells:
            if cells.count(None) == len(cells):  # blank
                new = prev
            else:
                new = filled.get(key := (prev, cells))
                if new is None:
                    new = filled[key] = tuple([v if v is not None else p for v, p in zip(cells, prev)])
                if new == prev:
                    new = prev
            if new != cells:
                faces[i] = cells = new
                changed = True
        prev = cells
    return changed


# ---------------------------------------------------------------------------
# State classes


def class_state(faces: list):
    """(join of a class's faces, open) or None when two faces clash;
    ``open`` is true when some face lacks a value the join determines.
    The join is taken one column of cells at a time, unless the faces are
    settled (all equal: one object, by the sharing rule, which ``count``
    tests by identity first); every class has a face."""
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


def _is_discarded(no_loop, a: tuple, b: tuple) -> bool:
    """True when some ``no_loop`` pair has one message in each of two
    (start, stop) face ranges; message ``k`` owns faces ``2k`` and ``2k + 1``."""
    lo_a, hi_a, lo_b, hi_b = a[0] // 2, (a[1] - 1) // 2, b[0] // 2, (b[1] - 1) // 2
    for pair in no_loop:
        ks = tuple(pair)
        i, j = ks[0], ks[-1]
        if (lo_a <= i <= hi_a and lo_b <= j <= hi_b) or (lo_a <= j <= hi_a and lo_b <= i <= hi_b):
            return True
    return False


def identification_candidates(line: Lifeline, no_loop) -> tuple | None:
    """The lifeline's first applicable identification in scan order, as
    ((start, stop) of the earlier class's faces, the same of its partner,
    their join), or None: the earlier class first, its partner searched
    from the end of the lifeline backwards (loops close against the latest
    recurrence).  A lifeline of one class has none.

    Two compatible classes are a candidate when their join grounds some
    face cell: when either class is open or their states differ.  That
    test depends only on the two classes' (state, open) keys, so each
    earlier class is tested once per distinct key, and the key's latest
    class after it that ``no_loop`` does not refuse is its partner.  Two
    closed, fully determined states are compatible only when equal, and
    then ground nothing, so such a class tests only the keys that are open
    or partly undetermined, and a lifeline without such a key has none.
    """
    _, _, faces, starts, *_ = line
    if len(starts) < 3:
        return None
    classes = list(zip(starts, starts[1:]))  # with 3 starts or more, every class holds a face
    states = [class_state(faces[lo:hi]) for lo, hi in classes]
    by_key = {}  # (state, open) -> indices of the classes in it, ascending
    for c, key in enumerate(states):
        if key is not None:  # a clashing class has no partner
            by_key.setdefault(key, []).append(c)
    partial = {key: cs for key, cs in by_key.items() if key[1] or None in key[0]}
    if not partial:
        return None
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
                if not (no_loop and _is_discarded(no_loop, classes[a], classes[b])):
                    b_max, found = b, joined
                    break
        if found is not None:
            return classes[a], classes[b_max], found
    return None


def apply_identification(line: Lifeline, cand: tuple) -> None:
    """Ground both classes of an ``identification_candidates`` result to
    their join, and record the identification's post faces as an event.

    Faces are visited earlier class ascending, then the partner's gaps
    newest first (the direction the recurrence was discovered in), each
    gap's faces in order, cells in order within a face; each grounded cell
    credits the first face then holding its value.
    """
    (lo_a, hi_a), (lo_b, hi_b), joined = cand
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
        faces[i] = joined  # the cells it now holds: every face of either class is below the join


def _unsettled_gaps(line: Lifeline):
    """The left face of every gap of two faces that differ on the
    lifeline, front to back; the right face is the next one."""
    faces = line.faces
    for i in range(1, len(faces) - 1, 2):
        if faces[i] is not faces[i + 1] and faces[i] != faces[i + 1]:
            yield i


def _gap_joins_once(line: Lifeline, no_loop) -> bool:
    """Fill each gap's post face on the lifeline from its pre face
    where the two are compatible (the S2/S3-style unification).  Only the
    post face can take a value: called right after a frame sweep, the pre
    face holds every value of the post face before it.  Incompatible faces
    are left alone for conflict detection."""
    changed = False
    faces = line.faces
    for i in _unsettled_gaps(line):
        left, right = faces[i], faces[i + 1]
        if None not in left:
            continue
        if no_loop and _is_discarded(no_loop, (i, i + 1), (i + 1, i + 2)):
            continue
        joined = unify(left, right)
        if joined is None:
            continue
        for j, v in enumerate(joined):
            if v is not None and left[j] is None:
                _ground(line, i, j, v, Unified(-1, i + 1))
                changed = True
        if joined == right:  # always so after a sweep: the gap becomes one object
            faces[i] = right
    return changed


def annotate_lifeline(dt: DomainTheory, messages, no_loop=frozenset()) -> Lifeline:
    """The lifeline of an object taking part in ``messages``, initialized,
    then taken through frame propagation and unification to their joint
    fixpoint.  ``no_loop`` pairs of positions in ``messages``, counting
    from 0, are never unified."""
    line = initialize_vectors(dt, messages)
    # Ends: every identification grounds at least one cell, _ground never
    # un-grounds one, and there are finitely many cells.
    while True:
        frame_propagate(line)
        cand = identification_candidates(line, no_loop)
        if cand is None:
            break
        apply_identification(line, cand)
    _gap_joins_once(line, no_loop)
    return line


def annotate(sd: SequenceDiagram, dt: DomainTheory) -> tuple[dict, list[Conflict]]:
    """Each object's lifeline from ``annotate_lifeline``, by object, and the
    conflicts on them; a pair of ``sd.no_loop`` holds on every lifeline
    that holds both its messages."""
    own = {obj: [] for obj in sd.objects}  # object -> its messages
    for msg in sd.messages:
        own[msg.sender].append(msg)
        if msg.receiver != msg.sender:  # the other participant
            own[msg.receiver].append(msg)
    lines, conflicts = {}, []
    try:
        for obj, messages in own.items():
            at = {m.id: k for k, m in enumerate(messages)} if sd.no_loop else {}  # id -> position
            no_loop = frozenset(frozenset(at[i] for i in pair) for pair in sd.no_loop if pair <= at.keys())
            lines[obj] = line = annotate_lifeline(dt, messages, no_loop)
            conflicts += detect_conflicts(sd, obj, line, dt)
    except AnnotationError:  # raised for the first message, in diagram order, the theory cannot hold
        check_arguments(dt, sd.messages)
        raise
    return lines, conflicts


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


def _after_face(line: Lifeline, conflict: Conflict) -> int:
    """The conflict's after face on its lifeline; the before face is next."""
    return 2 * bisect_left(line.messages, conflict.after_message.id, key=attrgetter("id")) + 1


def derivation(line: Lifeline, conflict: Conflict) -> tuple:
    """The conflict's full provenance chain as (face, cell, rule) steps on
    its lifeline ``line``, each rule as ``_walk`` gives it: the after cell's steps,
    oldest first, then the before cell's.  Within each cell's steps, a
    value came from the step before it."""
    i = _after_face(line, conflict)
    j = conflict.variable.index
    steps = []
    for face in (i, i + 1):
        steps += reversed([(k, j, rule) for k, rule in _walk(line, face, j)])
    return tuple(steps)


def conflict_view(line: Lifeline, conflict: Conflict) -> tuple:
    """(after cells, before cells, unified states) of a conflict on its
    lifeline ``line``: the cells of its two faces, and (message, cells) for each post face of the
    unifications its ``derivation`` passes through, in step order, each
    face once; no unified states when its lifeline had no identification."""
    i = _after_face(line, conflict)
    faces = line.faces
    after, before = faces[i], faces[i + 1]
    if not line.events:
        return after, before, ()
    out = {}
    for _, _, rule in derivation(line, conflict):
        if isinstance(rule, Unified) and rule.event >= 0:
            for k in line.events[rule.event]:
                if k not in out:
                    out[k] = line.messages[k // 2], faces[k]  # events hold post faces
    return after, before, tuple(out.values())


def detect_conflicts(sd: SequenceDiagram, obj: str, line: Lifeline, dt: DomainTheory) -> list[Conflict]:
    """Every adjacent post/pre disagreement on ``line``, the object's
    lifeline in the diagram, in gap order, then variable order; each names
    its faces, which stay in the lifeline (``conflict_view``,
    ``derivation``)."""
    variables = dt.variables
    messages, _, faces, *_ = line
    return [
        Conflict(sd.name, obj, messages[i // 2], messages[i // 2 + 1], variables[j])
        for i in _unsettled_gaps(line)
        for j, (x, y) in enumerate(zip(faces[i], faces[i + 1]))
        if x is not None and y is not None and x != y
    ]
