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
        for key in gap:
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
    leading, steps = receive_projection(line, obj)
    stops = [i for i, _ in steps] + [len(line)]
    transitions = [
        (gaps[i], gaps[stops[n + 1]], line[i].event(), actions) for n, (i, actions) in enumerate(steps)
    ]
    if leading:
        transitions.insert(0, (gaps[0], gaps[stops[0]], COMPLETION, leading))
    states = dict.fromkeys([gaps[0]] + [key for t in transitions for key in t[:2]])
    return FlatChart(obj, tuple(states), gaps[0], tuple(dict.fromkeys(transitions)))


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

    init_join = unify(c1.initial, c2.initial)
    if init_join is None:
        raise ValueError(f"initial states of {c1.object!r} charts do not unify")
    # Each matched c1 state has one c2 partner and refines to their join.
    match = {c2.initial: c1.initial}  # c2 key -> c1 key
    refined = dict(zip(c1.states, c1.states))  # c1 key -> refined key
    refined[c1.initial] = init_join
    taken = {c1.initial}

    for s2 in c2.states:
        if s2 not in match and s2 in refined and s2 not in taken:
            match[s2] = s2
            taken.add(s2)
    for s2 in c2.states:
        if s2 in match:
            continue
        for s1 in c1.states:
            join = None if s1 in taken else unify(s1, s2)
            if join is not None:
                match[s2] = s1
                refined[s1] = join
                taken.add(s1)
                break

    def key2(s):
        return refined[match[s]] if s in match else s

    # Refinement can make two previously distinct keys coincide; collapse.
    states = dict.fromkeys([*refined.values(), *map(key2, c2.states)])
    transitions = dict.fromkeys(
        [(refined[frm], refined[to], event, actions) for frm, to, event, actions in c1.transitions]
        + [(key2(frm), key2(to), event, actions) for frm, to, event, actions in c2.transitions]
    )
    return FlatChart(c1.object, tuple(states), init_join, tuple(transitions))


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
    """Inline all composite nodes; a chart without one is returned as is.

    A transition into a composite enters at its initial node; a transition
    out of a composite is expanded to one transition per inner node.
    """
    if not any(n.is_composite for n in chart.nodes):
        return chart
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
    # walk sets a composite's entry after walking its children, so every
    # entry is a simple node, and members hold only simple nodes: one
    # lookup resolves a target, one expansion a source.
    expanded = (
        Transition(src, entry.get(t.target, t.target), t.event, t.guard, t.actions)
        for t in transitions
        for src in members.get(t.source, (t.source,))
    )
    return Statechart(chart.name, tuple(nodes), entry.get(chart.initial, chart.initial),
                      tuple(dict.fromkeys(expanded)))


def _largest_region(names, edges, initial):
    """The region ``introduce_hierarchy`` wraps next, or None.

    A region is a set of at least two of the level's nodes, short of all of
    them, with exactly one entry (a node with an edge from outside the set;
    the level's initial node counts as entered), at most one exit (a node
    with an edge leaving the set, where edges to names outside the level
    leave), and every node reachable from the entry inside the set.  The
    largest region wins, ties going to the first node combination in
    declaration order.  Returns (region names in declaration order, entry,
    exit or None).

    The p - 1 node candidates are tried first, dropping the last node first.
    Otherwise every (entry e, exit x) pair gives one largest region: the
    regions with entry e and exits within {x} are closed under union, and
    each is {e, x} plus whole connected components of the level without e
    and x.  O(p^2 (p + m)) for p nodes and m edges.
    """
    p = len(names)
    if p < 3:
        return None
    index = {n: i for i, n in enumerate(names)}
    succ = [set() for _ in range(p)]
    pred = [set() for _ in range(p)]
    leaves = [False] * p  # has an edge to a name outside the level
    for a, b in edges:
        if b in index:
            succ[index[a]].add(index[b])
            pred[index[b]].add(index[a])
        else:
            leaves[index[a]] = True
    near = [succ[u] | pred[u] for u in range(p)]
    init = index[initial]

    def reach(start, region):
        seen = {start}
        frontier = [start]
        while frontier:
            for v in succ[frontier.pop()]:
                if v in region and v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return seen

    def answer(region, entry):
        exits = [u for u in region if leaves[u] or not succ[u] <= region]
        return (
            tuple(names[i] for i in sorted(region)),
            names[entry],
            names[exits[0]] if exits else None,
        )

    everything = set(range(p))
    for q in range(p - 1, -1, -1):
        region = everything - {q}
        entries = [v for v in region if v == init or q in pred[v]]
        exits = [u for u in region if leaves[u] or q in succ[u]]
        if len(entries) == 1 and len(exits) <= 1 and len(reach(entries[0], region)) == p - 1:
            return answer(region, entries[0])

    def components(e, x):
        """The connected components (edges taken undirected) of the level
        without e and x that a region with entry e and exit x may take, as
        (members, forced) pairs; None when it would have to take a barred
        one.  Left out, a component holding a successor of e or a
        predecessor of x would add an exit or an entry, so it is forced;
        taken in, one holding the initial node or an edge out of the level
        would, so it is barred."""
        done = {e, x}
        out = []
        for s in range(p):
            if s in done:
                continue
            members = {s}
            done.add(s)
            stack = [s]
            while stack:
                for v in near[stack.pop()]:
                    if v not in done:
                        done.add(v)
                        members.add(v)
                        stack.append(v)
            forced = x != e and not (succ[e].isdisjoint(members) and pred[x].isdisjoint(members))
            barred = init in members or any(leaves[v] for v in members)
            if barred and forced:
                return None
            if not barred:
                out.append((members, forced))
        return out

    def grow(e, x, comps):
        """Largest {e, x} plus some of ``comps`` (members, forced) with every
        node reachable from e; None when x or a forced component is lost."""
        while True:
            region = {e, x}.union(*(c for c, _ in comps))
            seen = reach(e, region)
            if x not in seen:
                return None
            lost = [forced for c, forced in comps if not c <= seen]
            if not lost:
                return region, comps
            if any(lost):
                return None
            comps = [(c, forced) for c, forced in comps if c <= seen]

    best = None
    for e in range(p):
        if e != init and not pred[e] - {e}:
            continue  # never entered from outside any region
        for x in range(p):
            if x != e and (x == init or leaves[e]):
                continue  # a second entry, or a second exit
            comps = components(e, x)
            grown = None if comps is None else grow(e, x, comps)
            if grown is None:
                continue
            region, comps = grown
            if len(region) < p and (e == init or not pred[e] <= region):
                regions = [region]
            else:
                # One component must stay out: any, when the region is the
                # whole level, else one holding a predecessor of e.
                regions = []
                for c, forced in comps:
                    if forced or (e != init and pred[e].isdisjoint(c)):
                        continue
                    smaller = grow(e, x, [k for k in comps if k[0] is not c])
                    if smaller is not None:
                        regions.append(smaller[0])
            for region in regions:
                key = (-len(region), sorted(region))
                if len(region) >= 2 and (best is None or key < best[0]):
                    best = (key, region, e)
    return None if best is None else answer(best[1], best[2])


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
        found = _largest_region(node_names, edges, sc.initial)
        if found is None:
            return sc
        region, entry, _ = found
        region_set = set(region)
        counter[0] += 1
        comp_name = f"G{counter[0]}"
        inner_nodes = tuple(node_by_name[n] for n in region)
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
