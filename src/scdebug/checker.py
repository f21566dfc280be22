"""Reverse direction: replay scenarios against a (possibly edited) chart
and search for a fewest-edit repair when they no longer fit.

Replay cuts a diagram into the object's spans (``receive_spans``: the
leading sends, then each received message with the sends after it) and
follows every state of the flattened chart they can reach, one span at a
time.  A transition takes a span on the span's event when the span's sends
appear, in order, among its actions; missing sends are tolerated, alien
sends are not.  A guard is read on the pre face of the span's received
message, on the object's annotated ``Lifeline``.

Repair runs iterative deepening over message deletions and insertions of
the events the chart receives, so the first solution found has minimal
cost; tie-breaking is total (fewest edits, deletes before inserts, lower
positions first, chart transition order, then sender order).  Each depth
is one loop over a stack holding, per node on the edit path, the node, its
edits and the iterator of its moves not yet tried.  A node one edit above
the depth judges its leaves together: ``_leaf_test(chart, by_event,
diagram, obj)`` follows the flat chart's guard-blind replay state sets
(``by_event``: its transitions by event) over the diagram's spans for
``obj``, and tells whether the diagram fits, which deletes fit (a delete
changes one span or merges two) and, as one set per span and cut, which
events an insert may add.  Every leaf counts as explored, but only those
that pass are built, annotated once and, against a chart with guards,
replayed.  Guards only remove transitions, so no repair is lost.
"""

from __future__ import annotations

from bisect import bisect_left
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
    Statechart,
    Transition,
    apply_edit,
)
from .annotator import AnnotationError, annotate, check_arguments
from .dsl import _conjunction, split_label_args
from .synthesizer import COMPLETION, flatten, receive_spans, span_event

class ReplayStep(NamedTuple):
    """A span taken from ``from_state`` by ``transition``, which leads to the next
    step's state; a step no transition takes has ``mismatch`` say why instead."""

    message: Message | None  # the span's received message; None for the leading sends
    from_state: str
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


def _has_guards(flat: Statechart) -> bool:
    return any(t.guard for t in flat.transitions)


def _guard_holds(guard, vector, dt: DomainTheory, strict: bool) -> bool:
    """Three-valued guard check: undetermined cells, and a missing vector,
    satisfy any guard unless strict mode is on."""
    if not guard:
        return True
    if vector is None:
        return not strict
    for var_name, value in guard:
        var = dt.variable(var_name)
        if var is None:
            return False
        cell = vector[var.index]
        if cell != value and (cell is not None or strict):
            return False
    return True


def replay(
    sd: SequenceDiagram,
    obj: str,
    chart: Statechart,
    dt: DomainTheory,
    strict_guards: bool = False,
    line: Lifeline | None = None,
) -> ReplayTrace:
    """Walk the chart one span of the object's lifeline (``receive_spans``)
    at a time.

    Merged charts may offer several matching transitions from one state, so
    the walk follows every chart state the spans can reach.  The diagram is
    accepted when a path consumes every span; the trace is the first such
    path in transition order.
    A rejection reports the deepest prefix reached.  Guards are evaluated
    on ``line``, the object's annotated lifeline in the diagram, made here
    when not given.
    """
    flat = flatten(chart)
    if obj not in sd.objects:
        return ReplayTrace(())

    if line is None and _has_guards(flat):
        line = annotate(sd, dt)[0][obj]

    by_source: dict[str, list[Transition]] = {}
    for t in flat.transitions:
        by_source.setdefault(t.source, []).append(t)

    spans = [(received, span_event(received), tuple(m.event() for m in sends))
             for received, sends in receive_spans(sd.messages, obj)
             if received is not None or sends]  # an empty leading span takes no step

    # levels[i] maps every state the first i spans can end in to the step
    # that reached it first.  States and their transitions are taken in
    # order, so each level's first entry ends the first path of its length
    # in transition order, and the step into any state comes from that
    # state's first path.
    levels: list[dict] = [{flat.initial: None}]
    for received, event, sends in spans:
        vector = None
        if line is not None and received is not None:  # its pre face
            vector = line.faces[2 * bisect_left(line.messages, received.id, key=attrgetter("id"))]
        level: dict[str, ReplayStep] = {}
        for state in levels[-1]:
            for t in by_source.get(state, ()):
                if _takes(t, event, sends) and _guard_holds(t.guard, vector, dt, strict_guards):
                    level.setdefault(t.target, ReplayStep(received, state, t))
        if not level:
            break
        levels.append(level)

    state = next(iter(levels[-1]))
    path = []
    if len(levels) <= len(spans):  # rejected
        received, event, sends = spans[len(levels) - 1]
        reason = _mismatch_reason(by_source.get(state, []), event, sends)
        path.append(ReplayStep(received, state, None, reason))
    for level in reversed(levels[1:]):
        path.append(level[state])
        state = path[-1].from_state
    path.reverse()
    return ReplayTrace(tuple(path))


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


def insert_candidates(chart: Statechart, sd: SequenceDiagram, obj: str):
    """Messages worth inserting: an inserted message is received by the
    object, so only the chart's own events, each once in transition order,
    sent by every other declared object in declaration order (by the object
    itself when it is alone)."""
    events = dict.fromkeys(split_label_args(t.event) for t in flatten(chart).transitions
                           if t.event != COMPLETION)
    senders = [o for o in sd.objects if o != obj] or [obj]
    return [(label, args, sender) for label, args in events for sender in senders]


def _step(by_event: dict, states: set, event: str, sends: tuple, backward: bool = False) -> set:
    """Where a span leads from states, or backward, from where into them."""
    if event == COMPLETION and not sends:  # an empty leading span
        return states
    if backward:
        return {t.source for t in by_event.get(event, ()) if t.target in states and _takes(t, event, sends)}
    return {t.target for t in by_event.get(event, ()) if t.source in states and _takes(t, event, sends)}


def _leaf_test(chart: Statechart, by_event: dict, diagram: SequenceDiagram, obj: str):
    """Guard-blind verdicts: whether diagram fits, whether deleting message pos
    fits (listed by pos - 1), and pos -> the events whose insert at pos fits."""
    events = [(span_event(received), tuple(m.event() for m in sends))
              for received, sends in receive_spans(diagram.messages, obj)]
    fwd, back = [{chart.initial}], [{chart.initial, *(t.target for t in chart.transitions)}]
    for (event, sends), (b_event, b_sends) in zip(events, reversed(events)):
        fwd.append(_step(by_event, fwd[-1], event, sends))
        back.insert(0, _step(by_event, back[0], b_event, b_sends, backward=True))
    accepted, deletable, where = bool(fwd[-1]), [], []
    a = cut = 0  # the span of the next position, and its sends before it
    for m in diagram.messages:
        where.append((a, cut))
        event, sends = events[a]
        if m.receiver == obj:  # spans a and a + 1 merge
            deletable.append(not _step(by_event, fwd[a], event, sends + events[a + 1][1]).isdisjoint(back[a + 2]))
            a, cut = a + 1, 0
        elif m.sender == obj:
            deletable.append(not _step(by_event, fwd[a], event, sends[:cut] + sends[cut + 1:]).isdisjoint(back[a + 1]))
            cut += 1
        else:
            deletable.append(accepted)
    where.append((a, cut))

    @cache
    def fitting(a: int, cut: int) -> set:
        # An insert splits span a at the cut: a transition on its event leads from
        # where the span's head goes to where the later spans start, covering the tail.
        event, sends = events[a]
        heads, tail = _step(by_event, fwd[a], event, sends[:cut]), sends[cut:]
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
    chart: Statechart,
    dt: DomainTheory,
    max_edits: int = 4,
    strict_guards: bool = False,
) -> RepairResult:
    """Fewest-edit repair by iterative deepening; raises NoRepairWithinBound."""
    if max_edits < 0:
        raise ValueError("max_edits must be >= 0")
    chart = flatten(chart)
    candidates = [(*c, Message(0, *c, obj).event()) for c in insert_candidates(chart, sd, obj)]
    by_event: dict[str, list[Transition]] = {}
    for t in chart.transitions:
        by_event.setdefault(t.event, []).append(t)
    guarded = _has_guards(chart)

    def works(leaf: SequenceDiagram) -> bool:
        # The leaf passed the guard-blind test, which only guards can overrule.
        try:
            lines, conflicts = annotate(leaf, dt)
        except AnnotationError:
            return False
        return not conflicts and (not guarded or replay(leaf, obj, chart, dt, strict_guards, lines[obj]).accepted)

    explored = 1  # the diagram itself, at depth 0
    root_test = _leaf_test(chart, by_event, sd, obj)
    if root_test[0] and works(sd):
        return RepairResult((), sd)
    for depth in range(1, max_edits + 1):
        stack, child, edits = [], sd, ()
        while stack or child is not None:
            if child is not None:  # push it, with its moves
                n, test = len(child.messages), None
                if len(stack) == depth - 1:  # every leaf is counted, and only those the test passes are built
                    explored += n + (n + 1) * len(candidates)
                    test = root_test if child is sd else _leaf_test(chart, by_event, child, obj)
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
    records = []
    for sd in sds:
        lines = None  # the diagram's lifelines, annotated for the first guarded chart
        for obj in sd.objects:
            if obj not in chart_map:
                continue
            chart = flatten(chart_map[obj])
            if lines is None and _has_guards(chart):
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
