"""Independent brute-force oracles the implementation is checked against."""

import itertools

from scdebug.annotator import annotate
from scdebug.checker import insert_candidates, replay
from scdebug.model import POST, PRE, Delete, Insert, Message, apply_edit, unify


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


def _reachable(edges, start, allowed):
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for a, b in edges:
            if a == u and b in allowed and b not in seen:
                seen.add(b)
                frontier.append(b)
    return seen


def _is_sese(edges, region, initial):
    """(entry, exit or None) when the node subset is single-entry/single-exit."""
    region = set(region)
    entries = {v for u, v in edges if v in region and u not in region}
    if initial in region:
        entries.add(initial)
    exits = {u for u, v in edges if u in region and v not in region}
    if len(entries) != 1 or len(exits) > 1:
        return None
    entry = next(iter(entries))
    if _reachable(edges, entry, region) != region:
        return None
    return entry, (next(iter(exits)) if exits else None)


def find_regions(names, edges, initial):
    """Every proper SESE region by exhaustive subset enumeration: largest
    first, then in node combination (declaration) order."""
    out = []
    pool = list(names)
    for size in range(len(pool) - 1, 1, -1):
        for combo in itertools.combinations(pool, size):
            found = _is_sese(edges, combo, initial)
            if found:
                out.append((combo, *found))
    return out


def largest_region(names, edges, initial):
    """The region hierarchy introduction wraps, found by enumeration."""
    regions = find_regions(names, edges, initial)
    return regions[0] if regions else None


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
