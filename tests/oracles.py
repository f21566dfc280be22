"""Independent brute-force oracles the implementation is checked against."""

import itertools

from scdebug.annotator import (
    FRAME,
    FROM_SPEC,
    AnnotationError,
    _ground,
    _is_discarded,
    _parameter_binding,
    _unsettled_gaps,
    _walk,
    annotate,
    apply_identification,
    identification_candidates,
)
from scdebug.checker import (
    NoRepairWithinBound,
    RepairResult,
    ReplayStep,
    ReplayTrace,
    _guard_holds,
    _mismatch_reason,
    insert_candidates,
    replay,
)
from scdebug.dsl import split_label_args
from scdebug.model import (
    POST,
    PRE,
    AnnotatedSD,
    Conflict,
    Delete,
    Insert,
    Lifeline,
    Message,
    Unified,
    apply_edit,
    unify,
)
from scdebug.synthesizer import COMPLETION, flatten


def participants(msg):
    """The objects a message puts on their lifelines: a self-message once."""
    return (msg.sender,) if msg.sender == msg.receiver else (msg.sender, msg.receiver)


def lifeline(sd, obj):
    """Messages the object participates in, in diagram order."""
    return tuple(m for m in sd.messages if obj in (m.sender, m.receiver))


def provenance_of(line, i, j):
    """How cell ``j`` of face ``i`` of a lifeline got its value, by the
    first rule of ``annotator._walk`` that applies: the stored ``Unified``
    record, ``FROM_SPEC``, ``FRAME`` (from face ``i - 1``) or None."""
    return next(_walk(line, i, j))[1]


def _is_subsequence(needle, haystack) -> bool:
    it = iter(haystack)
    return all(x in it for x in needle)


def receive_projection(line, obj):
    """Split a lifeline at the object's receives: (leading sends, [(lifeline
    index of a receive, sends until the next receive), ...]), where sends
    are the events of messages the object sends to another object."""
    received = [i for i, m in enumerate(line) if m.receiver == obj]
    stops = received + [len(line)]

    def sends(start, stop):
        return tuple(line[i].event() for i in range(start, stop)
                     if line[i].sender == obj and line[i].receiver != obj)

    return sends(0, stops[0]), [(i, sends(i + 1, stops[n + 1])) for n, i in enumerate(received)]


def edit_script_succeeds(sd, obj, chart, dt) -> bool:
    if not replay(sd, obj, chart, dt).accepted:
        return False
    try:
        _, conflicts = annotate(sd, dt)
    except Exception:
        return False
    return not conflicts


def theory_and_chart_messages(dt, chart):
    """(label, args) of every theory context over its parameter domains, in
    declaration order, then every chart event not already listed."""
    out = [(spec.name, combo) for spec in dt.specs
           for combo in itertools.product(*(dom.values() for _, dom in spec.params))]
    out += [split_label_args(t.event) for t in flatten(chart).transitions if t.event != COMPLETION]
    return list(dict.fromkeys(out))


def mutation_candidates(dt, chart, sd, obj):
    """Messages the mutation tests insert: theory_and_chart_messages, each
    sent by the first other declared object.  Kept as the repair search once
    listed its candidates, so seeded mutation cases stay the same."""
    sender = next((o for o in sd.objects if o != obj), obj)
    return [(label, args, sender) for label, args in theory_and_chart_messages(dt, chart)]


def brute_force_min_cost(sd, obj, chart, dt, bound):
    """Smallest edit count with a working script, enumerated exhaustively.

    Scripts are canonicalized as deletions of original positions followed by
    insertions; any minimal mixed script has an equivalent of this shape.
    Inserts range over theory_and_chart_messages, each sent by every other
    declared object (by the object itself when it is alone): a superset of
    what the repair search tries.
    """
    senders = [o for o in sd.objects if o != obj] or [obj]
    candidates = [(label, args, sender) for label, args in theory_and_chart_messages(dt, chart)
                  for sender in senders]

    def inserts(base, count):
        if count == 0:
            yield base
            return
        for pos in range(1, len(base.messages) + 2):
            for label, args, sender in candidates:
                edited = apply_edit(base, Insert(Message(pos, label, args, sender, obj)))
                yield from inserts(edited, count - 1)

    for total in range(bound + 1):
        for deletions in range(total + 1):
            insertions = total - deletions
            for combo in itertools.combinations(range(1, len(sd.messages) + 1), deletions):
                base = sd
                for pos in sorted(combo, reverse=True):
                    base = apply_edit(base, Delete(pos))
                for candidate_sd in inserts(base, insertions):
                    if edit_script_succeeds(candidate_sd, obj, chart, dt):
                        return total
    return None


def repair_dfs(sd, obj, chart, dt, max_edits=4, strict_guards=False):
    """Repair by iterative deepening that builds and replays every leaf:
    deletes, then inserts, lower positions first, candidates in
    insert_candidates order.  A leaf works when replay accepts it and it
    annotates without error or conflict."""
    chart = flatten(chart)
    candidates = insert_candidates(chart, sd, obj)
    explored = 0

    def works(current):
        try:
            if not replay(current, obj, chart, dt, strict_guards).accepted:
                return False
            _, conflicts = annotate(current, dt)
        except AnnotationError:
            return False
        return not conflicts

    def attempt(current, edits, budget):
        nonlocal explored
        if budget == 0:
            explored += 1
            return RepairResult(tuple(edits), current) if works(current) else None
        for pos in range(1, len(current.messages) + 1):
            edit = Delete(pos)
            found = attempt(apply_edit(current, edit), edits + [edit], budget - 1)
            if found:
                return found
        for pos in range(1, len(current.messages) + 2):
            for label, args, sender in candidates:
                edit = Insert(Message(pos, label, args, sender, obj))
                found = attempt(apply_edit(current, edit), edits + [edit], budget - 1)
                if found:
                    return found
        return None

    for depth in range(max_edits + 1):
        found = attempt(sd, [], depth)
        if found:
            return found
    raise NoRepairWithinBound(sd.name, obj, max_edits, explored)


def replay_dfs(sd, obj, chart, dt, strict_guards=False):
    """Replay by depth-first backtracking, trying matching transitions in
    chart order: the first complete path found is accepted, else the first
    dead end at the greatest depth is reported.  Exponential in the number
    of received messages on nondeterministic charts."""
    flat = flatten(chart)
    if obj not in sd.objects:
        return ReplayTrace(())
    asd = None
    if any(t.guard is not None and t.guard.atoms for t in flat.transitions):
        asd, _ = annotate(sd, dt)
    by_source = {}
    for t in flat.transitions:
        by_source.setdefault(t.source, []).append(t)

    line = lifeline(sd, obj)
    leading, steps = receive_projection(line, obj)
    todo = [(None, COMPLETION, leading, None)] if leading else []
    for i, sends in steps:
        msg = line[i]
        vector = asd.lines[obj].faces[2 * i] if asd is not None else None  # msg's pre face
        todo.append((msg, msg.event(), sends, vector))
    if not todo:
        return ReplayTrace(())

    def matches(state, idx):
        _, event, sends, vector = todo[idx]
        for t in by_source.get(state, []):
            if t.event != event or not _is_subsequence(sends, t.actions):
                continue
            if t.guard is not None and t.guard.atoms:
                if vector is None:
                    if strict_guards:
                        continue
                elif not _guard_holds(t.guard, vector, dt, strict_guards):
                    continue
            yield t

    best, path = [], []
    stack = [[flat.initial, matches(flat.initial, 0), False]]
    while stack:
        top = stack[-1]
        t = next(top[1], None)
        if t is not None:
            top[2] = True
            path.append(ReplayStep(todo[len(path)][0], top[0], t))
            if len(path) == len(todo):
                return ReplayTrace(tuple(path))
            stack.append([t.target, matches(t.target, len(path)), False])
            continue
        stack.pop()
        if not top[2] and len(path) + 1 > len(best):
            msg, event, sends, _ = todo[len(path)]
            reason = _mismatch_reason(by_source.get(top[0], []), event, sends)
            best = path + [ReplayStep(msg, top[0], None, reason)]
        if path:
            path.pop()
    return ReplayTrace(tuple(best))


def identification_scan(asd):
    """Every applicable identification, in the annotator's scan order, by
    the grounds-based scan: two compatible state classes qualify when their
    join would ground at least one face cell and no ``no_loop`` pair spans
    them."""
    out = []
    for obj in asd.sd.objects:
        gaps = lifeline_gaps_by_lifeline(asd.sd, obj)
        classes = lifeline_classes(asd.sd, asd.theory, obj)
        line = lifeline(asd.sd, obj)
        cells = asd.lines[obj].faces

        def faces(cls):
            return [i for g in cls for i in gaps[g]]

        def span(cls):
            return faces(cls)[0], faces(cls)[0] + len(faces(cls))

        def state(cls):
            joined = tuple([None] * asd.theory.width)
            for i in faces(cls):
                joined = unify(joined, tuple(cells[i]))
                if joined is None:
                    return None
            return joined

        states = [state(cls) for cls in classes]
        for a in range(len(classes)):
            for b in range(len(classes) - 1, a, -1):
                if states[a] is None or states[b] is None:
                    continue
                joined = unify(states[a], states[b])
                if joined is None:
                    continue
                grounds = [
                    (i, j)
                    for i in faces(classes[a]) + faces(classes[b])
                    for j, v in enumerate(joined)
                    if v is not None and cells[i][j] is None
                ]
                msgs_a = {line[i // 2].id for i in faces(classes[a])}
                msgs_b = {line[i // 2].id for i in faces(classes[b])}
                spanned = any(
                    (min(p) in msgs_a and max(p) in msgs_b) or (max(p) in msgs_a and min(p) in msgs_b)
                    for p in asd.sd.no_loop
                )
                if grounds and not spanned:
                    out.append((obj, span(classes[a]), span(classes[b]), joined))
    return out


def lifeline_gaps_by_lifeline(sd, obj):
    """The gaps of one lifeline as tuples of face positions (pre m1 is 0,
    post m1 is 1, ...), built from that object's own message list, as the
    annotator once rebuilt them for every object on every use."""
    gaps = [[]]
    for k, _ in enumerate(lifeline(sd, obj)):
        gaps[-1].append(2 * k)
        gaps.append([2 * k + 1])
    return [tuple(gap) for gap in gaps]


def lifeline_classes(sd, dt, obj):
    """The object's state classes as lists of gap indices, gap ``g`` lying
    between the lifeline's messages ``g - 1`` and ``g``: a message with no
    specification or an empty postcondition keeps its two gaps in one class."""
    classes = [[0]]
    for g, msg in enumerate(lifeline(sd, obj), start=1):
        spec = dt.spec_for(msg.label)
        if spec is None or spec.post.is_empty():
            classes[-1].append(g)
        else:
            classes.append([g])
    return classes


def lifeline_layout(sd, dt, obj):
    """(messages, starts) of the object's ``Lifeline``, built from its gaps
    and classes: its own messages, and where each class's first gap
    starts, then the face count."""
    gaps = lifeline_gaps_by_lifeline(sd, obj)
    starts = [sum(map(len, gaps[:cls[0]])) for cls in lifeline_classes(sd, dt, obj)]
    return list(lifeline(sd, obj)), starts + [sum(map(len, gaps))]


def class_state_by_faces(faces, width):
    """(join, open) of the class of the given faces, or None on a clash,
    by unifying its faces into the join one face at a time."""
    state = tuple([None] * width)
    for cells in faces:
        state = unify(state, tuple(cells))
        if state is None:
            return None
    return state, any(v is not None and cells[j] is None for cells in faces for j, v in enumerate(state))


def _condition_cells(cond, binding, dt, msg):
    cells = {}
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
    return cells


def initialize_vectors_eager(sd, dt):
    """Initial lifelines with a stored ``FROM_SPEC`` rule for every spec
    cell of every face, as the annotator once built them message by
    message."""
    lines = {obj: Lifeline([], [], [], lifeline_layout(sd, dt, obj)[1], {}, []) for obj in sd.objects}
    width = dt.width
    for msg in sd.messages:
        spec = dt.spec_for(msg.label)
        pre_cells = {}
        post_cells = {}
        if spec is not None:
            binding = _parameter_binding(spec, msg)
            pre_cells = _condition_cells(spec.pre, binding, dt, msg)
            post_cells = _condition_cells(spec.post, binding, dt, msg)
        for obj in participants(msg):
            line = lines[obj]
            line.messages.append(msg)
            for cells in (pre_cells, post_cells):
                i = len(line.faces)
                vec = [None] * width
                for j, literal in cells.items():
                    vec[j] = literal
                    line.provenance[(i, j)] = FROM_SPEC
                line.spec.append(tuple(vec))
                line.faces.append(tuple(vec))
    return AnnotatedSD(sd, dt, lines)


def frame_propagate_eager(asd, sources):
    """The frame sweep that stores a ``FRAME`` rule for every cell it
    grounds, and in ``sources`` the face before it on the lifeline."""
    changed = False
    for obj, line in asd.lines.items():
        faces = line.faces
        for i in range(1, len(faces)):
            dst = list(faces[i])
            for j, v in enumerate(faces[i - 1]):
                if v is not None and dst[j] is None:
                    dst[j] = v
                    faces[i] = tuple(dst)
                    line.provenance[(i, j)] = FRAME
                    sources[(obj, i, j)] = i - 1
                    changed = True
    return changed


def trace_stored(asd, sources, obj, i, j):
    """(face, cell, rule) for cell ``j`` of face ``i`` on the object's
    lifeline and every cell its value came through, oldest first, following
    the stored provenance records and frame ``sources`` alone."""
    provenance = asd.lines[obj].provenance
    steps = []
    while True:
        prov = provenance.get((i, j))
        steps.append((i, j, prov))
        if prov is None or prov == FROM_SPEC:
            return steps[::-1]
        i = sources[(obj, i, j)] if prov == FRAME else prov.contributor


def unified_faces(line, chain):
    """(message, pre|post, cells) of every post face of the identifications
    the chain's ``Unified`` steps name, in step order, each face once."""
    out = {}
    for _, _, rule in chain:
        if isinstance(rule, Unified) and rule.event >= 0:
            for i in line.events[rule.event]:
                out.setdefault(i, (line.messages[i // 2], POST if i % 2 else PRE,
                                   tuple(line.faces[i])))
    return tuple(out.values())


def gap_joins_both_ways(asd):
    """Reconcile compatible gap faces pointwise, each face taking the
    other's values, as the annotator's gap join did before it filled only
    the post face.  Incompatible faces are left alone for conflict detection."""
    changed = False
    for obj, line in asd.lines.items():
        msgs = lifeline(asd.sd, obj)
        for i in _unsettled_gaps(line):
            left, right = line.faces[i], line.faces[i + 1]
            if None not in left and None not in right:
                continue
            if _is_discarded(asd.sd.no_loop, {msgs[i // 2].id}, {msgs[i // 2 + 1].id}):
                continue
            joined = unify(tuple(left), tuple(right))
            if joined is None:
                continue
            for j, v in enumerate(joined):
                if v is None:
                    continue
                for k, cells, other in ((i, left, i + 1), (i + 1, right, i)):
                    if cells[j] is None:
                        _ground(line, k, j, v, Unified(-1, other))
                        changed = True
    return changed


def first_candidate(asd):
    """The first identification of any object, objects in declaration order."""
    return next(filter(None, (identification_candidates(asd, obj) for obj in asd.sd.objects)), None)


def annotate_eager(sd, dt):
    """``annotate`` with every cell's provenance stored as it is grounded:
    (annotated diagram, conflicts, the derivation chain of each conflict),
    the chains traced through the stored records, which cover every
    determined cell.  Each round sweeps every lifeline, applies the first
    identification of any object, and joins gaps only when there is none,
    until nothing changes, as the annotator did before it took one lifeline
    at a time."""
    asd = initialize_vectors_eager(sd, dt)
    sources = {}  # (object, face, cell) -> the face a frame step took its value from
    while True:
        frame_propagate_eager(asd, sources)
        cand = first_candidate(asd)
        if cand is not None:
            apply_identification(asd, cand)
        elif not gap_joins_both_ways(asd):
            break
    conflicts, chains = [], []
    for obj in sd.objects:
        line = lifeline(sd, obj)
        faces = asd.lines[obj].faces
        for p, (before, after) in enumerate(zip(line, line[1:])):
            left, right = faces[2 * p + 1], faces[2 * p + 2]  # before's post, after's pre
            for j, (x, y) in enumerate(zip(left, right)):
                if x is None or y is None or x == y:
                    continue
                chain = tuple(trace_stored(asd, sources, obj, 2 * p + 1, j)
                              + trace_stored(asd, sources, obj, 2 * p + 2, j))
                chains.append(chain)
                conflicts.append(Conflict(sd.name, obj, before, after, dt.variables[j]))
    return asd, conflicts, chains
