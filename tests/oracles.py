"""Independent brute-force oracles the implementation is checked against."""

import itertools

from scdebug.annotator import annotate
from scdebug.checker import (
    ACCEPTED,
    REJECTED,
    ReplayStep,
    ReplayTrace,
    _guard_holds,
    _is_subsequence,
    _mismatch_reason,
    insert_candidates,
    replay,
)
from scdebug.model import POST, PRE, Delete, Insert, Message, apply_edit, unify
from scdebug.synthesizer import COMPLETION, flatten, receive_projection


def edit_script_succeeds(sd, obj, chart, dt) -> bool:
    if not replay(sd, obj, chart, dt).accepted:
        return False
    try:
        _, conflicts = annotate(sd, dt)
    except Exception:
        return False
    return not conflicts


def brute_force_min_cost(sd, obj, chart, dt, bound):
    """Smallest edit count with a working script, enumerated exhaustively.

    Scripts are canonicalized as deletions of original positions followed by
    insertions; any minimal mixed script has an equivalent of this shape.
    """
    candidates = insert_candidates(dt, chart, sd, obj)

    def inserts(base, count):
        if count == 0:
            yield base
            return
        for pos in range(1, len(base.messages) + 2):
            for label, args, sender in candidates:
                edited = apply_edit(base, Insert(Message(pos, label, args, sender, obj), pos))
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


def replay_dfs(sd, obj, chart, dt, strict_guards=False):
    """Replay by depth-first backtracking, trying matching transitions in
    chart order: the first complete path found is accepted, else the first
    dead end at the greatest depth is reported.  Exponential in the number
    of received messages on nondeterministic charts."""
    flat = flatten(chart)
    if obj not in sd.objects:
        return ReplayTrace(sd.name, obj, (), ACCEPTED)
    asd = None
    if any(t.guard is not None and t.guard.atoms for t in flat.transitions):
        asd, _ = annotate(sd, dt)
    by_source = {}
    for t in flat.transitions:
        by_source.setdefault(t.source, []).append(t)

    line = sd.lifeline(obj)
    leading, steps = receive_projection(line, obj)
    todo = [(None, COMPLETION, leading, None)] if leading else []
    for i, sends in steps:
        msg = line[i]
        vector = asd.vectors[(obj, msg.id, PRE)] if asd is not None else None
        todo.append((msg, msg.event(), sends, vector))
    if not todo:
        return ReplayTrace(sd.name, obj, (), ACCEPTED)

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
            msg, _, sends, _ = todo[len(path)]
            path.append(ReplayStep(msg, sends, top[0], t.target, t))
            if len(path) == len(todo):
                return ReplayTrace(sd.name, obj, tuple(path), ACCEPTED)
            stack.append([t.target, matches(t.target, len(path)), False])
            continue
        stack.pop()
        if not top[2] and len(path) + 1 > len(best):
            msg, event, sends, _ = todo[len(path)]
            reason = _mismatch_reason(by_source.get(top[0], []), event, sends)
            if event == COMPLETION:
                reason = "no completion transition covers the leading sends"
            best = path + [ReplayStep(msg, sends, top[0], None, None, reason)]
        if path:
            path.pop()
    return ReplayTrace(sd.name, obj, tuple(best), REJECTED, len(best) - 1)


def identification_scan(asd):
    """Every applicable identification as (object, message ids of the
    earlier class, message ids of its partner, join), by the grounds-based
    scan: two compatible state classes qualify when their join would
    ground at least one face cell and no ``no_loop`` pair spans them."""
    out = []
    for obj in asd.sd.objects:
        line = asd.sd.lifeline(obj)
        # Gap g sits between line[g - 1] and line[g]; a message with no
        # specification or an empty postcondition keeps its two gaps in one class.
        classes = [[0]]
        for g, msg in enumerate(line, start=1):
            spec = asd.theory.spec_for(msg.label)
            if spec is None or spec.post.is_empty():
                classes[-1].append(g)
            else:
                classes.append([g])

        def faces(cls):
            keys = []
            for g in cls:
                if g > 0:
                    keys.append((obj, line[g - 1].id, POST))
                if g < len(line):
                    keys.append((obj, line[g].id, PRE))
            return keys

        def state(cls):
            joined = tuple([None] * asd.theory.width)
            for key in faces(cls):
                joined = unify(joined, tuple(asd.vectors[key]))
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
                    (key, j)
                    for key in faces(classes[a]) + faces(classes[b])
                    for j, v in enumerate(joined)
                    if v is not None and asd.vectors[key][j] is None
                ]
                msgs_a = {key[1] for key in faces(classes[a])}
                msgs_b = {key[1] for key in faces(classes[b])}
                spanned = any(
                    (min(p) in msgs_a and max(p) in msgs_b) or (max(p) in msgs_a and min(p) in msgs_b)
                    for p in asd.sd.no_loop
                )
                if grounds and not spanned:
                    out.append((obj, msgs_a, msgs_b, joined))
    return out
