"""Reverse direction: replay scenarios against a (possibly edited) chart
and search for a fewest-edit repair when they no longer fit.

Replay and the repair search cut a diagram into the object's spans
(``synthesizer.spans``) and walk them in one place, ``forward``: per span,
the states of a ``FlatChart`` reachable after it, each with the first
transition into it.  Its state keys may be vectors, as synthesis builds
it, or node names, as ``check_all`` flattens each parsed chart once.  A
transition takes a span on the span's event when the span's sends appear,
in order, among its actions; missing sends are tolerated, alien sends are
not.  Replay walks under a guard filter, a guard read on the pre face of
the span's received message on the object's annotated ``Lifeline``, and
recovers the first path.

Repair runs iterative deepening over message deletions and insertions of
the events the chart receives, so the first solution found has minimal
cost; tie-breaking is total (fewest edits, deletes before inserts, lower
positions first, chart transition order, then sender order).  Each depth
is one loop over a stack holding, per node on the edit path, the node, its
edits and the iterator of its moves not yet tried.  A node one edit above
the depth judges its leaves together: ``_leaf_test`` reads the guard-blind
forward walk and a backward table over the node's spans, and tells whether
the diagram fits, which deletes fit (a delete changes one span or merges
two) and, as one set per span and cut, which events an insert may add.
Every leaf counts as explored, but only those that pass are built,
annotated once and, against a chart with guards, replayed.  Guards only
remove transitions, so no repair is lost.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Hashable
from functools import cache
from itertools import chain
from operator import attrgetter
from typing import NamedTuple

from .model import (
    DomainTheory,
    Delete,
    Insert,
    Lifeline,
    Message,
    SequenceDiagram,
    Transition,
    apply_edit,
)
from .annotator import AnnotationError, annotate, check_arguments
from .dsl import _conjunction, split_label_args
from .synthesizer import COMPLETION, FlatChart, flatten, spans, takes_step

class ReplayStep(NamedTuple):
    """A span taken from ``from_state`` by ``transition``, which leads to the next
    step's state; a step no transition takes has ``mismatch`` say why instead."""

    message: Message | None  # the span's received message; None for the leading sends
    from_state: Hashable  # a state key of the chart
    transition: Transition | None
    mismatch: str | None = None


class ReplayTrace(NamedTuple):
    """The accepting path, or the deepest prefix reached and then the step
    that no transition takes; a trace without steps is accepted."""

    steps: tuple[ReplayStep, ...]

    @property
    def accepted(self) -> bool:
        return not self.steps or self.steps[-1].transition is not None

    @property
    def rejected_at(self) -> int | None:
        """The index of the step no transition takes; None when accepted."""
        return None if self.accepted else len(self.steps) - 1


class RepairResult(NamedTuple):
    edits: tuple
    repaired: SequenceDiagram

    @property
    def cost(self) -> int:
        return len(self.edits)


class NoRepairWithinBound(Exception):
    def __init__(self, sd_name: str, obj: str, bound: int, explored: int):
        self.sd_name = sd_name
        self.object = obj
        self.bound = bound
        self.explored = explored
        super().__init__(
            f"no repair of {sd_name!r} for {obj!r} within {bound} edit(s); "
            f"{explored} candidate(s) explored"
        )


def _takes(t: Transition, event: str, sends) -> bool:
    """Whether t can consume a span: the same event, and the sends appear
    in order among its actions."""
    actions = iter(t.actions)
    return t.event == event and all(x in actions for x in sends)


def _guard_holds(guard, vector, dt: DomainTheory, strict: bool) -> bool:
    """Three-valued guard check: undetermined cells, and a missing vector,
    satisfy any guard unless strict mode is on."""
    if vector is None:
        return not (guard and strict)
    for var_name, value in guard:
        var = dt.variable(var_name)
        if var is None:
            return False
        cell = vector[var.index]
        if cell != value and (cell is not None or strict):
            return False
    return True


def _by(transitions, field: str) -> dict:
    """The transitions grouped by one of their fields, each group in chart order."""
    groups: dict[str, list[Transition]] = {}
    for t in transitions:
        groups.setdefault(getattr(t, field), []).append(t)
    return groups


def forward(by_source: dict, start: dict, cut, admits=None) -> list[dict]:
    """``start``, then per span of ``cut`` every state the spans so far can end in,
    mapped to the first transition into it (None where the span takes no step).
    States go in order and the transitions out of each (``by_source``) in chart
    order, so a level's first state ends the first path of its length, and the
    transition into a state comes from that state's first path.  ``admits(i, t)``,
    when given, also decides whether t may take span i."""
    levels = [start]
    for i, (received, event, sends) in enumerate(cut):
        if not takes_step(received, sends):
            levels.append(dict.fromkeys(levels[-1]))
            continue
        level = {}
        for state in levels[-1]:
            for t in by_source.get(state, ()):
                if _takes(t, event, sends) and (admits is None or admits(i, t)):
                    level.setdefault(t.target, t)
        levels.append(level)
    return levels


def replay(
    sd: SequenceDiagram,
    obj: str,
    chart: FlatChart,
    dt: DomainTheory,
    strict_guards: bool = False,
    line: Lifeline | None = None,
) -> ReplayTrace:
    """Walk the chart ``forward`` over the object's spans, following every
    state they can reach.  An accepted trace is the first path that takes
    every span in transition order; a rejected one the first path to the
    deepest span reached, then the step no transition takes.  Guards are
    evaluated on ``line``, the object's annotated lifeline in the diagram,
    made here when not given."""
    if obj not in sd.objects:
        return ReplayTrace(())
    by_source = _by(chart.transitions, "source")
    cut = spans(sd.messages, obj)
    admits = None
    if any(t.guard for t in chart.transitions):
        if line is None:
            line = annotate(sd, dt)[0][obj]
        vectors = [None if received is None  # the received message's pre face
                   else line.faces[2 * bisect_left(line.messages, received.id, key=attrgetter("id"))]
                   for received, _, _ in cut]

        def admits(i, t):
            return _guard_holds(t.guard, vectors[i], dt, strict_guards)

    levels = forward(by_source, {chart.initial: None}, cut, admits)
    depth = next((i for i, level in enumerate(levels) if not level), len(levels)) - 1
    state = next(iter(levels[depth]))
    path = []
    if depth < len(cut):  # rejected
        received, event, sends = cut[depth]
        reason = _mismatch_reason(by_source.get(state, []), event, sends)
        path.append(ReplayStep(received, state, None, reason))
    for i in range(depth, 0, -1):
        t = levels[i][state]
        if t is not None:
            path.append(ReplayStep(cut[i - 1][0], t.source, t))
            state = t.source
    return ReplayTrace(tuple(reversed(path)))


def _mismatch_reason(candidates, event: str, sends) -> str:
    """Why no transition out of a state takes a step.  A transition on the
    event whose actions cover the sends failed only on its guard."""
    guards = [f"[{_conjunction(t.guard)}]" for t in candidates if _takes(t, event, sends)]
    if guards:
        return f"guard {' or '.join(guards)} does not hold"
    if event == COMPLETION:
        return "no completion transition covers the leading sends"
    if all(t.event != event for t in candidates):
        return f"no transition on event {event!r}"
    return f"sends {list(sends)} not covered by actions of any {event!r} transition"


# ---------------------------------------------------------------------------
# Repair search


def insert_candidates(chart: FlatChart, sd: SequenceDiagram, obj: str):
    """Messages worth inserting: an inserted message is received by the
    object, so only the chart's own events, each once in transition order,
    sent by every other declared object in declaration order (by the object
    itself when it is alone)."""
    events = dict.fromkeys(split_label_args(t.event) for t in chart.transitions if t.event != COMPLETION)
    senders = [o for o in sd.objects if o != obj] or [obj]
    return [(label, args, sender) for label, args in events for sender in senders]


def _leaf_test(chart: FlatChart, by_source: dict, by_event: dict, diagram: SequenceDiagram, obj: str):
    """Guard-blind verdicts: whether diagram fits, whether deleting message pos
    fits (listed by pos - 1), and pos -> the events whose insert at pos fits."""
    cut = spans(diagram.messages, obj)
    fwd = forward(by_source, {chart.initial: None}, cut)
    # back[k]: the states from which spans k, k + 1, ... can be taken (k >= 1).
    back = [None] * len(cut) + [{chart.initial, *(t.target for t in chart.transitions)}]
    for k in range(len(cut) - 1, 0, -1):
        _, event, sends = cut[k]
        back[k] = {t.source for t in by_event.get(event, ()) if t.target in back[k + 1] and _takes(t, event, sends)}

    def step(a: int, sends: tuple) -> dict:  # where span a, with these sends, leads from fwd[a]
        return forward(by_source, fwd[a], [(cut[a][0], cut[a][1], sends)])[1]

    accepted, deletable, where = bool(fwd[-1]), [], []
    a = at = 0  # the span of the next position, and its sends before it
    for m in diagram.messages:
        where.append((a, at))
        sends = cut[a][2]
        if m.receiver == obj:  # spans a and a + 1 merge
            deletable.append(not back[a + 2].isdisjoint(step(a, sends + cut[a + 1][2])))
            a, at = a + 1, 0
        elif m.sender == obj:
            deletable.append(not back[a + 1].isdisjoint(step(a, sends[:at] + sends[at + 1:])))
            at += 1
        else:
            deletable.append(accepted)
    where.append((a, at))

    @cache
    def fitting(a: int, at: int) -> set:
        # An insert splits span a at ``at``: a transition on its event leads from
        # where the span's head goes to where the later spans start, covering the tail.
        heads, tail = step(a, cut[a][2][:at]), cut[a][2][at:]
        return {e for e, ts in by_event.items() if e != COMPLETION and any(
            t.source in heads and t.target in back[a + 1] and _takes(t, e, tail) for t in ts)}

    return accepted, deletable, lambda pos: fitting(*where[pos - 1])


def _moves(n: int, obj: str, candidates, test=None):
    """A node's edits in tie order; given its leaf test, only those that pass it."""
    _, deletable, fitting = test or (None, None, None)
    return chain((Delete(pos) for pos in range(1, n + 1) if deletable is None or deletable[pos - 1]),
                 (Insert(Message(pos, *c[:3], obj)) for pos in range(1, n + 2)
                  for fits in [fitting and fitting(pos)] for c in candidates if fits is None or c[3] in fits))


def repair(
    sd: SequenceDiagram,
    obj: str,
    chart: FlatChart,
    dt: DomainTheory,
    max_edits: int = 4,
    strict_guards: bool = False,
) -> RepairResult:
    """Fewest-edit repair by iterative deepening; raises NoRepairWithinBound."""
    if max_edits < 0:
        raise ValueError("max_edits must be >= 0")
    candidates = [(*c, Message(0, *c, obj).event()) for c in insert_candidates(chart, sd, obj)]
    by_source, by_event = _by(chart.transitions, "source"), _by(chart.transitions, "event")
    guarded = any(t.guard for t in chart.transitions)

    def works(leaf: SequenceDiagram) -> bool:
        # The leaf passed the guard-blind test, which only guards can overrule.
        try:
            lines, conflicts = annotate(leaf, dt)
        except AnnotationError:
            return False
        return not conflicts and (not guarded or replay(leaf, obj, chart, dt, strict_guards, lines[obj]).accepted)

    explored = 1  # the diagram itself, at depth 0
    root_test = _leaf_test(chart, by_source, by_event, sd, obj)
    if root_test[0] and works(sd):
        return RepairResult((), sd)
    for depth in range(1, max_edits + 1):
        stack, child, edits = [], sd, ()
        while stack or child is not None:
            if child is not None:  # push it, with its moves
                n, test = len(child.messages), None
                if len(stack) == depth - 1:  # every leaf is counted, and only those the test passes are built
                    explored += n + (n + 1) * len(candidates)
                    test = root_test if child is sd else _leaf_test(chart, by_source, by_event, child, obj)
                stack.append((child, edits, _moves(n, obj, candidates, test)))
            current, path, moves = stack[-1]
            edit, child = next(moves, None), None
            if edit is None:
                stack.pop()
            elif len(stack) < depth:
                child, edits = apply_edit(current, edit), path + (edit,)
            elif works(leaf := apply_edit(current, edit)):
                return RepairResult(path + (edit,), leaf)
    raise NoRepairWithinBound(sd.name, obj, max_edits, explored)


class CheckRecord(NamedTuple):
    sd: SequenceDiagram
    object: str
    trace: ReplayTrace
    repair: RepairResult | None = None
    failure: str | None = None


def check_all(
    dt: DomainTheory,
    chart_map: dict,
    sds,
    max_edits: int = 4,
    strict_guards: bool = False,
) -> list[CheckRecord]:
    """Replay every (diagram, charted object) pair; repair the rejected ones.
    A diagram with a message its context cannot take raises
    ``AnnotationError`` before any replay, guards or none."""
    for sd in sds:
        check_arguments(dt, sd.messages)
    flat = {obj: flatten(chart) for obj, chart in chart_map.items()}
    records = []
    for sd in sds:
        lines = None  # the diagram's lifelines, annotated for the first guarded chart
        for obj in sd.objects:
            if obj not in flat:
                continue
            chart = flat[obj]
            if lines is None and any(t.guard for t in chart.transitions):
                lines, _ = annotate(sd, dt)
            trace = replay(sd, obj, chart, dt, strict_guards, None if lines is None else lines[obj])
            if trace.accepted:
                records.append(CheckRecord(sd, obj, trace))
                continue
            try:
                fix = repair(sd, obj, chart, dt, max_edits, strict_guards)
                records.append(CheckRecord(sd, obj, trace, repair=fix))
            except NoRepairWithinBound as exc:
                records.append(CheckRecord(sd, obj, trace, failure=str(exc)))
    return records
