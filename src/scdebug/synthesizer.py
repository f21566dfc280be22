"""Statechart synthesis from annotated, conflict-free sequence diagrams.

Per object: the distinct state vectors along the lifeline become states,
and each span of the lifeline (``receive_spans``: a received message with
the sends after it, or the leading sends) becomes a transition on the
span's event whose actions are the span's sends.
Vectors made equal by unification collapse into a single state, which is
exactly where loops appear.  Charts from several diagrams are merged by
unifying state keys.  States are then nested by state variable: the first
variable, in theory order, on which at least two states of a scope but not
all of them agree splits it into one composite per shared value, and the
split repeats inside each composite with the later variables.  A
composite's comment is the partial vector of the values fixed on its path;
every transition stays at the top level between simple states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import (
    AnnotatedSD,
    DomainTheory,
    Node,
    Statechart,
    Transition,
    format_vector,
    unify,
    walk,
)
from .annotator import annotate, class_state, missing_spec_warnings

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
        states = set(self.states)
        if self.initial not in states:
            raise ValueError("initial state missing from state set")
        if len(states) != len(self.states):
            raise ValueError("duplicate state keys")
        seen = set()
        for frm, to, event, actions in self.transitions:
            if frm not in states or to not in states:
                raise ValueError("transition endpoint missing from state set")
            quad = (frm, to, event, actions)
            if quad in seen:
                raise ValueError(f"duplicate transition {quad}")
            seen.add(quad)


def _gap_states(asd: AnnotatedSD, obj: str):
    """Joined face value per gap; conflict-free input keeps faces compatible."""
    states = [class_state(asd, [gap]) for gap in asd.gaps[obj]]
    if None in states:
        raise ConflictedInputError([])
    return [state for state, _ in states]


def receive_spans(messages, obj: str):
    """The object's lifeline cut before each message it receives.

    Span 0 is (None, the sends before the first receive); span k is (the
    k-th received message, the sends after it, up to the next receive).  A
    self-message is a receive, and a send is a message the object sends to
    another object, so the spans' messages in order are the lifeline.
    """
    spans = [(None, [])]
    for m in messages:
        if m.receiver == obj:
            spans.append((m, []))
        elif m.sender == obj:
            spans[-1][1].append(m)
    return spans


def span_event(received) -> str:
    """The event a span's transition is taken on."""
    return COMPLETION if received is None else received.event()


def synth_object_chart(asd: AnnotatedSD, obj: str, conflicts=None) -> FlatChart:
    """Build the object's flat chart from one annotated diagram: each span
    leads from the gap before its first message to the gap after its last,
    and an empty leading span takes no step."""
    if conflicts:
        mine = [c for c in conflicts if c.object == obj]
        if mine:
            raise ConflictedInputError(mine)

    gaps = _gap_states(asd, obj)
    transitions = []
    start = 0  # lifeline index of the span's first message
    for received, sends in receive_spans(asd.sd.messages, obj):
        end = start + (received is not None) + len(sends)
        if end > start:
            transitions.append((gaps[start], gaps[end], span_event(received),
                                tuple(m.event() for m in sends)))
        start = end
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
    opened = []  # (composite, len(nodes) when entered), innermost last
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
    # An entry is set once its scope is done, so entries and members are
    # simple nodes: one lookup resolves a target, one expansion a source.
    expanded = (
        Transition(src, entry.get(t.target, t.target), t.event, t.guard, t.actions)
        for t in transitions
        for src in members.get(t.source, (t.source,))
    )
    return Statechart(chart.name, tuple(nodes), entry.get(chart.initial, chart.initial),
                      tuple(dict.fromkeys(expanded)))


def introduce_hierarchy(chart: FlatChart, name: str | None = None) -> Statechart:
    """Nest the named states into composites by shared state-variable values.

    A scope (at first every state, in first-visit order) is split on the
    first variable, in theory order, for which at least two of its states
    share a determined value and not all of them do; the split starts after
    the variable of the enclosing composite.  Every such group becomes a
    composite ``G<k>`` (numbered in pre-order) in the slot of its first
    state and is split again inside; the other states stay in the scope.  A
    composite enters at the node holding the chart's initial state, else at
    its first node, and its comment is the vector of the values fixed on
    its path.  Every transition stays at the top level between simple
    states, so flattening the result gives back ``to_statechart(chart)``.
    """
    flat = to_statechart(chart, name)
    states, init = chart.states, chart.states.index(chart.initial)
    counter = itertools.count(1)

    def split(scope, start, fixed):
        """A scope's entries in slot order, states as indices (a vector hashes in
        O(width)): ``(i, None, None)`` stays, ``(group, next var, path)`` nests."""
        groups = {}  # first state of a group -> the group
        for var in range(start, len(fixed)):
            by_value = {}
            for i in scope:
                if states[i][var] is not None:
                    by_value.setdefault(states[i][var], []).append(i)
            groups = {g[0]: g for g in by_value.values() if 1 < len(g) < len(scope)}
            if groups:
                break
        grouped = {i for g in groups.values() for i in g}
        for i in scope:
            if i in groups:
                yield groups[i], var + 1, fixed[:var] + (states[i][var],) + fixed[var + 1:]
            elif i not in grouped:
                yield i, None, None

    # Open scopes, innermost last: name, path, unread entries, nodes so far. A
    # composite is numbered as it opens (so in pre-order), added as it closes.
    holders = {flat.nodes[init].name}  # the nodes holding the initial state
    scopes = [(flat.name, None, split(range(len(states)), 0, (None,) * len(chart.initial)), [])]
    while True:
        comp, path, entries, nodes = scopes[-1]
        for group, start, inner_path in entries:
            if start is None:
                nodes.append(flat.nodes[group])
                continue
            inner = f"G{next(counter)}"
            if init in group:
                holders.add(inner)
            scopes.append((inner, inner_path, split(group, start, inner_path), []))
            break
        else:
            scopes.pop()
            initial = next((n.name for n in nodes if n.name in holders), nodes[0].name)
            if not scopes:
                return Statechart(flat.name, tuple(nodes), initial, flat.transitions)
            scopes[-1][3].append(Node(comp, Statechart(comp, tuple(nodes), initial, ()),
                                      comment=format_vector(path)))


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
