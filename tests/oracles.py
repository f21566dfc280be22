"""Independent brute-force oracles the implementation is checked against.

The oracles that replay or repair take a ``synthesizer.FlatChart`` of
either key type, vectors or node names, as ``checker`` does."""

import itertools
import re

from scdebug.annotator import (
    FRAME,
    FROM_SPEC,
    AnnotationError,
    _ground,
    _parameter_binding,
    _unsettled_gaps,
    _walk,
    annotate,
    apply_identification,
    identification_candidates,
    initialize_vectors,
)
from scdebug.checker import (
    NoRepairWithinBound,
    RepairResult,
    ReplayStep,
    ReplayTrace,
    insert_candidates,
)
from scdebug.dsl import IDENT, ParseError, split_label_args
from scdebug.model import (
    Conflict,
    Delete,
    Insert,
    Lifeline,
    Message,
    Transition,
    Unified,
    apply_edit,
    unify,
    walk,
)
from scdebug.synthesizer import COMPLETION, FlatChart


def participants(msg):
    """The objects a message puts on their lifelines: a self-message once."""
    return (msg.sender,) if msg.sender == msg.receiver else (msg.sender, msg.receiver)


def lifeline(sd, obj):
    """Messages the object participates in, in diagram order."""
    return tuple(m for m in sd.messages if obj in (m.sender, m.receiver))


def no_loop_on(sd, obj):
    """The diagram's ``no_loop`` pairs of two messages on the object's
    lifeline, as pairs of their positions on it, counting from 0."""
    ids = [m.id for m in lifeline(sd, obj)]
    return frozenset(frozenset(ids.index(i) for i in pair) for pair in sd.no_loop
                     if all(i in ids for i in pair))


def initial_lines(sd, dt):
    """Every object's lifeline as ``initialize_vectors`` starts it, by object."""
    return {obj: initialize_vectors(dt, lifeline(sd, obj)) for obj in sd.objects}


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
    if not replay_dfs(sd, obj, chart, dt).accepted:
        return False
    try:
        _, conflicts = annotate(sd, dt)
    except Exception:
        return False
    return not conflicts


def theory_and_chart_messages(dt, chart):
    """(label, args) of every theory context over its parameter domains, in
    declaration order, then every event of the flat chart not already listed."""
    out = [(spec.name, combo) for spec in dt.specs
           for combo in itertools.product(*(dom.values() for _, dom in spec.params))]
    out += [split_label_args(t.event) for t in chart.transitions if t.event != COMPLETION]
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
    candidates = insert_candidates(chart, sd, obj)
    explored = 0

    def works(current):
        try:
            if not replay_dfs(current, obj, chart, dt, strict_guards).accepted:
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
    of received messages on nondeterministic charts.  Reads the flat chart,
    of either key type, and tests guards and words rejections itself, so
    it shares no replay code with ``scdebug.checker``."""
    if obj not in sd.objects:
        return ReplayTrace(())
    lines = None
    if any(t.guard for t in chart.transitions):
        lines, _ = annotate(sd, dt)
    by_source = {}
    for t in chart.transitions:
        by_source.setdefault(t.source, []).append(t)

    line = lifeline(sd, obj)
    leading, steps = receive_projection(line, obj)
    todo = [(None, COMPLETION, leading, None)] if leading else []
    for i, sends in steps:
        msg = line[i]
        vector = lines[obj].faces[2 * i] if lines is not None else None  # msg's pre face
        todo.append((msg, msg.event(), sends, vector))
    if not todo:
        return ReplayTrace(())

    def holds(guard, vector):
        # Three-valued: an undetermined cell, or no vector at all, satisfies
        # an atom unless guards are strict; an unknown variable satisfies none.
        if vector is None:
            return not strict_guards
        cells = {var.name: vector[var.index] for var in dt.variables}
        return all(name in cells and (cells[name] == value or (cells[name] is None and not strict_guards))
                   for name, value in guard)

    def covering(state, event, sends):
        return [t for t in by_source.get(state, []) if t.event == event and _is_subsequence(sends, t.actions)]

    def matches(state, idx):
        _, event, sends, vector = todo[idx]
        return (t for t in covering(state, event, sends) if not t.guard or holds(t.guard, vector))

    def why_not(state, event, sends):
        guards = ["[" + " and ".join(f"{name} = {value}" for name, value in t.guard) + "]"
                  for t in covering(state, event, sends)]
        if guards:
            return "guard " + " or ".join(guards) + " does not hold"
        if event == COMPLETION:
            return "no completion transition covers the leading sends"
        if not any(t.event == event for t in by_source.get(state, [])):
            return f"no transition on event {event!r}"
        return f"sends {list(sends)} not covered by actions of any {event!r} transition"

    best, path = [], []
    stack = [[chart.initial, matches(chart.initial, 0), False]]
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
            best = path + [top[0]]  # the steps so far, then the dead end's state
        if path:
            path.pop()
    *steps, state = best
    msg, event, sends, _ = todo[len(steps)]
    return ReplayTrace((*steps, ReplayStep(msg, state, None, why_not(state, event, sends))))


def leaf_verdicts(sd, obj, chart, dt):
    """What the repair search's leaf test decides about a diagram, found by
    building every diagram one edit away and replaying it with
    ``replay_dfs``: (whether the diagram is accepted, whether each delete
    is, by position, and the chart events whose insert at each position
    is, from position 1).  Inserts are sent by the first other object.
    The leaf test ignores guards, so ``chart`` should have none."""
    sender = next((o for o in sd.objects if o != obj), obj)
    events = dict.fromkeys(t.event for t in chart.transitions if t.event != COMPLETION)

    def accepted(diagram):
        return replay_dfs(diagram, obj, chart, dt).accepted

    n = len(sd.messages)
    fits = [{e for e in events
             if accepted(apply_edit(sd, Insert(Message(pos, *split_label_args(e), sender, obj))))}
            for pos in range(1, n + 2)]
    return accepted(sd), [accepted(apply_edit(sd, Delete(pos))) for pos in range(1, n + 1)], fits


def identification_scan(sd, dt, lines):
    """Every applicable identification, as (object, *candidate), in the
    annotator's scan order, by the grounds-based scan: two compatible state
    classes qualify when their join would ground at least one face cell and
    no ``no_loop`` pair spans them."""
    out = []
    for obj in sd.objects:
        gaps = lifeline_gaps_by_lifeline(sd, obj)
        classes = lifeline_classes(sd, dt, obj)
        line = lifeline(sd, obj)
        cells = lines[obj].faces

        def faces(cls):
            return [i for g in cls for i in gaps[g]]

        def span(cls):
            return faces(cls)[0], faces(cls)[0] + len(faces(cls))

        def state(cls):
            joined = tuple([None] * dt.width)
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
                    for p in sd.no_loop
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
        if spec is None or not spec.post:
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


def _condition_cells(atoms, binding, dt, msg):
    cells = {}
    for var_name, value in atoms:
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
    return lines


def frame_propagate_eager(lines, sources):
    """The frame sweep that stores a ``FRAME`` rule for every cell it
    grounds, and in ``sources`` the face before it on the lifeline."""
    changed = False
    for obj, line in lines.items():
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


def trace_stored(lines, sources, obj, i, j):
    """(face, cell, rule) for cell ``j`` of face ``i`` on the object's
    lifeline and every cell its value came through, oldest first, following
    the stored provenance records and frame ``sources`` alone."""
    provenance = lines[obj].provenance
    steps = []
    while True:
        prov = provenance.get((i, j))
        steps.append((i, j, prov))
        if prov is None or prov == FROM_SPEC:
            return steps[::-1]
        i = sources[(obj, i, j)] if prov == FRAME else prov.contributor


def unified_faces(line, chain):
    """(message, cells) of every face of the identifications the chain's
    ``Unified`` steps name, in step order, each face once; every such face
    is a post face (odd)."""
    out = {}
    for _, _, rule in chain:
        if isinstance(rule, Unified) and rule.event >= 0:
            for i in line.events[rule.event]:
                assert i % 2, f"face {i} of identification {rule.event} is a pre face"
                out.setdefault(i, (line.messages[i // 2], tuple(line.faces[i])))
    return tuple(out.values())


def gap_joins_both_ways(sd, lines):
    """Reconcile compatible gap faces pointwise, each face taking the
    other's values, as the annotator's gap join did before it filled only
    the post face.  Incompatible faces are left alone for conflict detection."""
    changed = False
    for obj, line in lines.items():
        msgs = lifeline(sd, obj)
        for i in _unsettled_gaps(line):
            left, right = line.faces[i], line.faces[i + 1]
            if None not in left and None not in right:
                continue
            if frozenset((msgs[i // 2].id, msgs[i // 2 + 1].id)) in sd.no_loop:
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


def first_candidate(sd, lines):
    """The first identification of any object, objects in declaration order,
    as (object, *candidate); ``apply_identification(lines[obj], rest)``
    applies it."""
    for obj in sd.objects:
        cand = identification_candidates(lines[obj], no_loop_on(sd, obj))
        if cand is not None:
            return (obj, *cand)
    return None


def annotate_eager(sd, dt):
    """``annotate`` with every cell's provenance stored as it is grounded:
    (lifelines by object, conflicts, the derivation chain of each conflict),
    the chains traced through the stored records, which cover every
    determined cell.  Each round sweeps every lifeline, applies the first
    identification of any object, and joins gaps only when there is none,
    until nothing changes, as the annotator did before it took one lifeline
    at a time."""
    lines = initialize_vectors_eager(sd, dt)
    sources = {}  # (object, face, cell) -> the face a frame step took its value from
    while True:
        frame_propagate_eager(lines, sources)
        cand = first_candidate(sd, lines)
        if cand is not None:
            apply_identification(lines[cand[0]], cand[1:])
        elif not gap_joins_both_ways(sd, lines):
            break
    conflicts, chains = [], []
    for obj in sd.objects:
        line = lifeline(sd, obj)
        faces = lines[obj].faces
        for p, (before, after) in enumerate(zip(line, line[1:])):
            left, right = faces[2 * p + 1], faces[2 * p + 2]  # before's post, after's pre
            for j, (x, y) in enumerate(zip(left, right)):
                if x is None or y is None or x == y:
                    continue
                chain = tuple(trace_stored(lines, sources, obj, 2 * p + 1, j)
                              + trace_stored(lines, sources, obj, 2 * p + 2, j))
                chains.append(chain)
                conflicts.append(Conflict(sd.name, obj, before, after, dt.variables[j]))
    return lines, conflicts, chains


# ---------------------------------------------------------------------------
# Slower forms of faster code, kept as references


def flatten_rebuilt(chart):
    """``synthesizer.flatten`` building every transition anew, each one
    between two simple nodes among them, as a ``FlatChart``."""
    nodes, transitions, entry, members, opened = [], [], {}, {}, []
    for _, scope, n in walk(chart):
        if n is None:
            transitions.extend(scope.transitions)
            if opened:
                name, start = opened.pop()
                entry[name] = entry.get(scope.initial, scope.initial)
                members[name] = [m.name for m in nodes[start:]]
        elif n.is_composite:
            opened.append((n.name, len(nodes)))
        else:
            nodes.append(n)
    expanded = (
        Transition(src, entry.get(t.target, t.target), t.event, t.guard, t.actions)
        for t in transitions
        for src in members.get(t.source, (t.source,))
    )
    return FlatChart(chart.name, entry.get(chart.initial, chart.initial), tuple(dict.fromkeys(expanded)))


_ATOM_PART = re.compile(rf"({IDENT})\s*=\s*(-?\w+)")


def atoms_split(text, span, noun, variables=None, params=None):
    """``dsl._atoms`` reading every conjunction part by part: cut at each
    ``and`` between blanks, each part matched alone and checked before the
    next is read."""
    atoms = []
    for part in re.split(r"\s+and\s+", text.strip()):
        m = _ATOM_PART.fullmatch(part)
        if not m:
            raise ParseError(span, f"cannot parse {noun} {part!r}", expected="var = value")
        atom = var_name, value = m.groups()
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


def check_json_dict(rec):
    """A ``checker.CheckRecord`` as the object the JSON report holds for it."""
    repair = None
    if rec.repair is not None:
        repair = {
            "cost": rec.repair.cost,
            "edits": [e.describe() for e in rec.repair.edits],
            "messages": [f"msg {m.id} {m.sender} -> {m.receiver} : {m.event()}"
                         for m in rec.repair.repaired.messages],
        }
    return {
        "sd": rec.sd.name,
        "object": rec.object,
        "verdict": "accepted" if rec.trace.accepted else "rejected",
        "rejectedAt": rec.trace.rejected_at,
        "reason": rec.trace.steps[-1].mismatch if not rec.trace.accepted else None,
        "repair": repair,
        "failure": rec.failure,
    }
