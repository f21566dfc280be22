"""Statechart synthesis from annotated, conflict-free sequence diagrams.

``synthesize`` alone refuses conflicted input, with every diagram's
annotation; every later stage builds from the lifelines it cleared.
Per object: the distinct state vectors along its ``Lifeline`` become states,
and each span of the lifeline becomes a transition on the span's event
whose actions are the span's sends.  ``spans`` is the one place a lifeline
is cut into spans (a received message with the sends after it, or the
leading sends), and ``takes_step`` the one place that says which spans a
transition takes; replay and the repair search read the same cut and walk
it with ``checker.forward``.  A chart is a ``FlatChart``, its initial
state and its ``Transition`` records, keyed by vector until
``to_statechart`` names its states N1, N2, ... in first-visit order, the
initial one first.  ``flatten`` gives a named chart back as a
``FlatChart``, which replay and repair take with either kind of key.
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
from collections import namedtuple
from functools import reduce

from .model import (
    DomainTheory,
    Lifeline,
    Node,
    Statechart,
    Transition,
    format_vector,
    unify,
    walk,
)
from .annotator import annotate, missing_spec_warnings

COMPLETION = ""  # event label of a completion (triggerless) transition


class ConflictedInputError(Exception):
    """``results`` holds the (diagram, lifelines by object, conflicts) of
    every diagram; ``conflicts`` lists every conflict among them."""

    def __init__(self, results):
        self.results = list(results)
        self.conflicts = [c for *_, conflicts in self.results for c in conflicts]
        names = {(c.sd_name, c.object) for c in self.conflicts}
        super().__init__(f"cannot synthesize from conflicted input: {sorted(names)}")


class FlatChart(namedtuple("FlatChart", "object initial transitions")):
    """A chart whose states are all simple: the initial state's key and the
    ``Transition`` records between keys of any hashable type, vectors (tuples
    of cells) when synthesized, node names when flattened; ``states`` lists
    the keys in first-visit order, the initial one first."""

    __slots__ = ()

    @property
    def states(self) -> tuple:
        return tuple(dict.fromkeys([self.initial, *(key for t in self.transitions for key in t[:2])]))


def spans(messages, obj: str) -> list:
    """The object's lifeline cut before each message it receives, as
    (received, event, sends) per span, ``sends`` the events of the sends.
    Span 0, always there, is (None, COMPLETION, the sends before the first
    receive).  A self-message is a receive, and a send is a message the
    object sends to another object, so the spans' messages are the lifeline.
    """
    cut = [(None, COMPLETION, [])]
    for m in messages:
        if m.receiver == obj:
            cut.append((m, m.event(), []))
        elif m.sender == obj:
            cut[-1][2].append(m.event())
    return [(received, event, tuple(sends)) for received, event, sends in cut]


def takes_step(received, sends) -> bool:
    """Every span but an empty span 0 is taken by a transition."""
    return received is not None or bool(sends)


def synth_object_chart(obj: str, line: Lifeline, dt: DomainTheory) -> FlatChart:
    """Build the object's flat chart from its conflict-free lifeline
    ``line``: each span that takes a step leads from the gap before its
    first message to the gap after its last.  A gap's state is its last
    face, which the final frame sweep left holding the join of its faces."""
    # A gap's last face is the pre face of the message after it; the last
    # gap's is the last post face.
    faces = line.faces
    gaps = faces[::2] + faces[-1:] or [(None,) * dt.width]
    steps = {}  # distinct transitions' fields, so a record is built once per transition
    start = 0  # lifeline index of the span's first message
    for received, event, sends in spans(line.messages, obj):
        end = start + (received is not None) + len(sends)
        if takes_step(received, sends):
            steps[gaps[start], gaps[end], event, (), sends] = None
        start = end
    return FlatChart(obj, gaps[0], tuple(map(Transition._make, steps)))


# ---------------------------------------------------------------------------
# Merging


def merge_charts(charts) -> FlatChart:
    """Merge same-object charts; unifiable state keys collapse to their join.

    Matching is exact-first and one to one, so merging a chart with itself
    returns it unchanged.  The result accepts every trace of every input.
    """
    return reduce(_merge_two, charts)


def _merge_two(c1: FlatChart, c2: FlatChart) -> FlatChart:
    if c1.object != c2.object:
        raise ValueError(f"cannot merge charts of {c1.object!r} and {c2.object!r}")

    init_join = unify(c1.initial, c2.initial)
    if init_join is None:
        raise ValueError(f"initial states of {c1.object!r} charts do not unify")
    # Each matched c1 state has one c2 partner and refines to their join.
    match = {c2.initial: c1.initial}  # c2 key -> c1 key
    refined = {s: s for s in c1.states}  # c1 key -> refined key, in c1's state order
    refined[c1.initial] = init_join
    taken = {c1.initial}
    states2 = c2.states
    for s2 in states2:
        if s2 not in match and s2 in refined and s2 not in taken:
            match[s2] = s2
            taken.add(s2)
    for s2 in states2:
        if s2 in match:
            continue
        for s1 in refined:
            join = None if s1 in taken else unify(s1, s2)
            if join is not None:
                match[s2] = s1
                refined[s1] = join
                taken.add(s1)
                break

    def key2(s):
        return refined[match[s]] if s in match else s

    def moved(t, frm, to):  # reused when its ends keep their value: a record costs more to build
        return t if frm == t.source and to == t.target else Transition(frm, to, t.event, t.guard, t.actions)

    # Refinement can make two previously distinct keys coincide; collapse.
    transitions = dict.fromkeys([moved(t, refined[t.source], refined[t.target]) for t in c1.transitions]
                                + [moved(t, key2(t.source), key2(t.target)) for t in c2.transitions])
    return FlatChart(c1.object, init_join, tuple(transitions))


def nondeterminism_warnings(chart: FlatChart):
    """Same source state and event leading to different targets."""
    by_trigger = {}
    for t in chart.transitions:
        by_trigger.setdefault((t.source, t.event), set()).add(t.target)
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


def to_statechart(chart: FlatChart) -> Statechart:
    """The chart of ``chart.object`` with states named N1, N2, ... in
    first-visit order; vectors become comments."""
    names = {key: f"N{i}" for i, key in enumerate(chart.states, start=1)}
    nodes = tuple(Node(name, comment=format_vector(key)) for key, name in names.items())
    transitions = tuple(Transition(names[frm], names[to], event, guard, actions)
                        for frm, to, event, guard, actions in chart.transitions)
    return Statechart(chart.object, nodes, names[chart.initial], transitions)


def flatten(chart: Statechart) -> FlatChart:
    """The chart with all composite nodes inlined, keyed by node name.

    A transition into a composite enters at its initial node; a transition
    out of a composite is expanded to one transition per inner node; a
    transition between two simple nodes is kept, the same object.  Equal
    transitions are kept once, at the first, with composites or without.
    """
    nodes: list[str] = []  # the simple nodes' names
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
                members[name] = nodes[start:]
        elif n.is_composite:
            opened.append((n.name, len(nodes)))
        else:
            nodes.append(n.name)
    # An entry is set once its scope is done, so entries and members are
    # simple nodes: one lookup resolves a target, one expansion a source.
    expanded = []
    for t in transitions:
        sources, target = members.get(t.source), entry.get(t.target, t.target)
        if sources is None:
            expanded.append(t if target is t.target
                            else Transition(t.source, target, t.event, t.guard, t.actions))
        else:
            expanded += [Transition(src, target, t.event, t.guard, t.actions) for src in sources]
    return FlatChart(chart.name, entry.get(chart.initial, chart.initial), tuple(dict.fromkeys(expanded)))


def introduce_hierarchy(chart: FlatChart) -> Statechart:
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
    states, so flattening the result gives ``flatten(to_statechart(chart))``.
    """
    named = to_statechart(chart)
    states = chart.states  # the initial state is states[0]
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
    holders = {named.initial}  # the nodes holding the initial state
    scopes = [(named.name, None, split(range(len(states)), 0, (None,) * len(chart.initial)), [])]
    while True:
        comp, path, entries, nodes = scopes[-1]
        for group, start, inner_path in entries:
            if start is None:
                nodes.append(named.nodes[group])
                continue
            inner = f"G{next(counter)}"
            if 0 in group:
                holders.add(inner)
            scopes.append((inner, inner_path, split(group, start, inner_path), []))
            break
        else:
            scopes.pop()
            initial = next((n.name for n in nodes if n.name in holders), nodes[0].name)
            if not scopes:
                return Statechart(named.name, tuple(nodes), initial, named.transitions)
            scopes[-1][3].append(Node(comp, Statechart(comp, tuple(nodes), initial, ()),
                                      comment=format_vector(path)))


# ---------------------------------------------------------------------------
# Pipeline


def synthesize(dt: DomainTheory, sds) -> tuple[dict, list]:
    """Charts for every object across all diagrams, plus warnings.

    Raises ConflictedInputError carrying every diagram's annotation when
    any diagram conflicts with the theory: synthesis requires debugged
    scenarios, and every later stage builds from the lifelines cleared here.
    """
    sds = list(sds)
    results = [(sd, *annotate(sd, dt)) for sd in sds]
    if any(conflicts for *_, conflicts in results):
        raise ConflictedInputError(results)
    warnings = missing_spec_warnings(dt, sds)

    charts = {}
    for obj in dict.fromkeys(obj for sd in sds for obj in sd.objects):
        parts = [synth_object_chart(obj, lines[obj], dt) for _, lines, _ in results if obj in lines]
        merged = merge_charts(parts)
        warnings.extend(nondeterminism_warnings(merged))
        charts[obj] = introduce_hierarchy(merged)
    return charts, warnings
