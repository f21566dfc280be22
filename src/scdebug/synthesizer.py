"""Statechart synthesis from annotated, conflict-free sequence diagrams.

Per object: the distinct state vectors along the lifeline become states,
received messages become transition events, and the messages the object
sends before the next received one become that transition's actions.
Vectors made equal by unification collapse into a single state, which is
exactly where loops appear.  Charts from several diagrams are merged by
unifying state keys, and maximal single-entry/single-exit regions are then
wrapped into composite nodes for readability.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    AnnotatedSD,
    DomainTheory,
    Node,
    Statechart,
    Transition,
    format_vector,
    unify,
)
from .annotator import annotate, lifeline_gaps, missing_spec_warnings

COMPLETION = ""  # event label of a completion (triggerless) transition


class ConflictedInputError(Exception):
    """``results`` holds the (AnnotatedSD, conflicts) pair of every diagram
    when the conflicts come from annotating the input."""

    def __init__(self, conflicts, results=()):
        self.conflicts = list(conflicts)
        self.results = list(results)
        names = {(c.sd_name, c.object) for c in self.conflicts}
        super().__init__(f"cannot synthesize from conflicted input: {sorted(names)}")


@dataclass(frozen=True)
class FlatChart:
    """States keyed by their state vector, in first-visit order."""

    object: str
    states: tuple  # tuple of cell tuples
    initial: tuple
    transitions: tuple  # (from_key, to_key, event, actions)

    def __post_init__(self):
        if self.initial not in self.states:
            raise ValueError("initial state missing from state set")
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state keys")
        seen = set()
        for frm, to, event, actions in self.transitions:
            if frm not in self.states or to not in self.states:
                raise ValueError("transition endpoint missing from state set")
            quad = (frm, to, event, actions)
            if quad in seen:
                raise ValueError(f"duplicate transition {quad}")
            seen.add(quad)


def _gap_states(asd: AnnotatedSD, obj: str):
    """Joined face value per gap; conflict-free input keeps faces compatible."""
    width = asd.theory.width
    states = []
    for gap in lifeline_gaps(asd, obj):
        state = tuple([None] * width)
        for key in gap.faces():
            state = unify(state, tuple(asd.vectors[key]))
            if state is None:
                raise ConflictedInputError([])
        states.append(state)
    return states


def receive_projection(line, obj: str):
    """Split a lifeline at the object's receives.

    Returns (leading sends, [(lifeline index of a receive, sends until the
    next receive), ...]); sends are the events of messages the object sends
    to another object.
    """
    received = [i for i, m in enumerate(line) if m.receiver == obj]
    stops = received + [len(line)]

    def sends(start: int, stop: int):
        return tuple(
            line[i].event() for i in range(start, stop) if line[i].sender == obj and line[i].receiver != obj
        )

    return sends(0, stops[0]), [(i, sends(i + 1, stops[n + 1])) for n, i in enumerate(received)]


def synth_object_chart(asd: AnnotatedSD, obj: str, conflicts=None) -> FlatChart:
    """Build the object's flat chart from one annotated diagram."""
    if conflicts:
        mine = [c for c in conflicts if c.object == obj]
        if mine:
            raise ConflictedInputError(mine)

    line = asd.sd.lifeline(obj)
    gaps = _gap_states(asd, obj)

    state_order = []

    def intern(key):
        if key not in state_order:
            state_order.append(key)
        return key

    initial = intern(gaps[0])
    transitions = []

    leading, steps = receive_projection(line, obj)
    stops = [i for i, _ in steps] + [len(line)]
    if leading:
        transitions.append((initial, intern(gaps[stops[0]]), COMPLETION, leading))
    for n, (i, actions) in enumerate(steps):
        src = intern(gaps[i])
        dst = intern(gaps[stops[n + 1]])
        transitions.append((src, dst, line[i].event(), actions))

    deduped = []
    for t in transitions:
        if t not in deduped:
            deduped.append(t)
    return FlatChart(obj, tuple(state_order), initial, tuple(deduped))


# ---------------------------------------------------------------------------
# Merging


def merge_charts(charts) -> FlatChart:
    """Merge same-object charts; unifiable state keys collapse to their join.

    Matching is exact-first and one to one, so merging a chart with itself
    returns it unchanged.  The result accepts every trace of every input.
    """
    charts = list(charts)
    if not charts:
        raise ValueError("nothing to merge")
    merged = charts[0]
    for other in charts[1:]:
        merged = _merge_two(merged, other)
    return merged


def _merge_two(c1: FlatChart, c2: FlatChart) -> FlatChart:
    if c1.object != c2.object:
        raise ValueError(f"cannot merge charts of {c1.object!r} and {c2.object!r}")
    if not c2.states:
        return c1

    match: dict = {}  # c2 key -> c1 key
    taken: set = set()

    init_join = unify(c1.initial, c2.initial)
    if init_join is None:
        raise ValueError(f"initial states of {c1.object!r} charts do not unify")
    match[c2.initial] = c1.initial
    taken.add(c1.initial)

    for s2 in c2.states:
        if s2 in match:
            continue
        if s2 in c1.states and s2 not in taken:
            match[s2] = s2
            taken.add(s2)
    for s2 in c2.states:
        if s2 in match:
            continue
        for s1 in c1.states:
            if s1 in taken:
                continue
            if unify(s1, s2) is not None:
                match[s2] = s1
                taken.add(s1)
                break

    # Refined key for every matched c1 state, then appended c2-only states.
    refined = {}
    for s1 in c1.states:
        partners = [s2 for s2, t in match.items() if t == s1]
        key = s1
        for s2 in partners:
            key = unify(key, s2)
        refined[s1] = key

    def key1(s):
        return refined[s]

    def key2(s):
        return refined[match[s]] if s in match else s

    order = [key1(s) for s in c1.states]
    for s2 in c2.states:
        k = key2(s2)
        if k not in order:
            order.append(k)

    # Refinement can make two previously distinct keys coincide; collapse.
    seen = []
    for k in order:
        if k not in seen:
            seen.append(k)

    transitions = []
    for frm, to, event, actions in c1.transitions:
        t = (key1(frm), key1(to), event, actions)
        if t not in transitions:
            transitions.append(t)
    for frm, to, event, actions in c2.transitions:
        t = (key2(frm), key2(to), event, actions)
        if t not in transitions:
            transitions.append(t)

    return FlatChart(c1.object, tuple(seen), key1(c1.initial), tuple(transitions))


def nondeterminism_warnings(chart: FlatChart):
    """Same source state and event leading to different targets."""
    by_trigger = {}
    for frm, to, event, actions in chart.transitions:
        by_trigger.setdefault((frm, event), set()).add(to)
    return [
        f"{chart.object}: nondeterministic choice on event {event!r} "
        f"in state {format_vector(frm)}"
        for (frm, event), targets in sorted(
            by_trigger.items(), key=lambda kv: (format_vector(kv[0][0]), kv[0][1])
        )
        if len(targets) > 1
    ]


# ---------------------------------------------------------------------------
# Naming and hierarchy


def to_statechart(chart: FlatChart, name: str | None = None) -> Statechart:
    """Name states N1, N2, ... in first-visit order; vectors become comments."""
    names = {key: f"N{i}" for i, key in enumerate(chart.states, start=1)}
    nodes = tuple(
        Node(names[key], comment=format_vector(key)) for key in chart.states
    )
    transitions = tuple(
        Transition(names[frm], names[to], event, None, actions)
        for frm, to, event, actions in chart.transitions
    )
    return Statechart(name or chart.object, nodes, names[chart.initial], transitions)


def flatten(chart: Statechart) -> Statechart:
    """Inline all composite nodes.

    A transition into a composite enters at its initial node; a transition
    out of a composite is expanded to one transition per inner node.
    """
    nodes: list[Node] = []
    transitions: list[Transition] = []
    entry: dict[str, str] = {}
    members: dict[str, list[str]] = {}

    def walk(sc: Statechart):
        inner_names = []
        for n in sc.nodes:
            if n.is_composite:
                child_names = walk(n.children)
                entry[n.name] = entry.get(n.children.initial, n.children.initial)
                members[n.name] = child_names
                inner_names.extend(child_names)
            else:
                nodes.append(n)
                inner_names.append(n.name)
        for t in sc.transitions:
            transitions.append(t)
        return inner_names

    walk(chart)
    initial = chart.initial
    while initial in entry:
        initial = entry[initial]

    expanded: list[Transition] = []
    for t in transitions:
        target = t.target
        while target in entry:
            target = entry[target]
        expanded.append(Transition(t.source, target, t.event, t.guard, t.actions))

    # A transition whose source is a composite fires from every inner node;
    # expand until only simple sources remain.
    changed = True
    while changed:
        changed = False
        out = []
        for t in expanded:
            if t.source in members:
                changed = True
                for src in members[t.source]:
                    out.append(Transition(src, t.target, t.event, t.guard, t.actions))
            else:
                out.append(t)
        expanded = out

    deduped = []
    for t in expanded:
        if t not in deduped:
            deduped.append(t)
    return Statechart(chart.name, tuple(nodes), initial, tuple(deduped))


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


def _is_sese(names, edges, region, initial) -> tuple[bool, str | None, str | None]:
    """Check the single-entry/single-exit conditions for a node subset."""
    region = set(region)
    entries = {v for u, v in edges if v in region and u not in region}
    if initial in region:
        entries.add(initial)
    exits = {u for u, v in edges if u in region and v not in region}
    if len(entries) != 1 or len(exits) > 1:
        return False, None, None
    entry = next(iter(entries))
    if _reachable(edges, entry, region) != region:
        return False, None, None
    return True, entry, (next(iter(exits)) if exits else None)


def _find_regions(names, edges, initial):
    """All proper SESE regions, largest first; ties break on sorted names."""
    import itertools

    out = []
    pool = list(names)
    for size in range(len(pool) - 1, 1, -1):
        for combo in itertools.combinations(pool, size):
            ok, entry, exit_ = _is_sese(pool, edges, combo, initial)
            if ok:
                out.append((tuple(sorted(combo)), entry, exit_))
    return out


def introduce_hierarchy(chart: FlatChart, name: str | None = None) -> Statechart:
    """Wrap maximal single-entry/single-exit regions into composite nodes.

    Transitions entering a region are redirected to the composite node
    (whose initial node is the region's entry); transitions leaving it stay
    on the exit node inside, referring to outer nodes by name.  Flattening
    the result reproduces the input graph exactly.
    """
    flat = to_statechart(chart, name)
    counter = [0]

    def group(sc: Statechart) -> Statechart:
        node_names = [n.name for n in sc.nodes]
        node_by_name = {n.name: n for n in sc.nodes}
        edges = [(t.source, t.target) for t in sc.transitions]
        regions = _find_regions(node_names, edges, sc.initial)
        for region, entry, exit_ in regions:
            region_set = set(region)
            counter[0] += 1
            comp_name = f"G{counter[0]}"
            inner_nodes = tuple(node_by_name[n] for n in node_names if n in region_set)
            inner_ts, outer_ts = [], []
            for t in sc.transitions:
                if t.source in region_set:
                    inner_ts.append(t)  # region-leaving edges stay on the exit node
                elif t.target in region_set:
                    outer_ts.append(Transition(t.source, comp_name, t.event, t.guard, t.actions))
                else:
                    outer_ts.append(t)
            inner = group(Statechart(comp_name, inner_nodes, entry, tuple(inner_ts)))
            # The composite takes the declaration slot of the region's entry.
            outer_nodes = tuple(
                Node(comp_name, children=inner) if n == entry else node_by_name[n]
                for n in node_names
                if n == entry or n not in region_set
            )
            initial = comp_name if sc.initial in region_set else sc.initial
            return group(Statechart(sc.name, outer_nodes, initial, tuple(outer_ts)))
        return sc

    return group(flat)


# ---------------------------------------------------------------------------
# Pipeline


def synthesize(dt: DomainTheory, sds) -> tuple[dict, list]:
    """Charts for every object across all diagrams, plus warnings.

    Raises ConflictedInputError carrying every conflict, and every
    diagram's annotation, when any diagram conflicts with the theory:
    synthesis requires debugged scenarios.
    """
    sds = list(sds)
    results = []
    all_conflicts = []
    warnings = []
    for sd in sds:
        asd, conflicts = annotate(sd, dt)
        results.append((asd, conflicts))
        all_conflicts.extend(conflicts)
        warnings.extend(w for w in missing_spec_warnings(sd, dt) if w not in warnings)
    if all_conflicts:
        raise ConflictedInputError(all_conflicts, results)

    objects = []
    for sd in sds:
        for obj in sd.objects:
            if obj not in objects:
                objects.append(obj)

    charts = {}
    for obj in objects:
        parts = [
            synth_object_chart(asd, obj)
            for asd, _ in results
            if obj in asd.sd.objects
        ]
        merged = merge_charts(parts)
        warnings.extend(nondeterminism_warnings(merged))
        charts[obj] = introduce_hierarchy(merged, obj)
    return charts, warnings
