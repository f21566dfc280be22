"""Reverse direction: replay scenarios against a (possibly edited) chart
and search for a fewest-edit repair when they no longer fit.

Replay cuts a diagram into the object's spans (``receive_spans``: the
leading sends, then each received message with the sends after it) and
follows every state of the flattened chart they can reach, one span at a
time.  A transition takes a span on the span's event when the span's sends
appear, in order, among its actions; missing sends are tolerated, alien
sends are not.  Repair runs iterative deepening over message deletions and
insertions of the events the chart receives, so the first solution found
has minimal cost; tie-breaking is total (fewest edits, deletes before
inserts, lower positions first, chart transition order, then sender order).

Each leaf one edit below a node is decided from the node's guard-blind
replay state sets around the spans: an edit changes one span, or merges
two, and only leaves that pass are built, annotated once and replayed.
Guards only remove transitions, so no repair is lost.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from itertools import chain, product
from operator import attrgetter

from .model import (
    PRE,
    AnnotatedSD,
    Condition,
    DomainTheory,
    Delete,
    Insert,
    Message,
    SequenceDiagram,
    Statechart,
    Transition,
    apply_edit,
)
from .annotator import AnnotationError, annotate
from .dsl import _conjunction, split_label_args
from .synthesizer import COMPLETION, flatten, receive_spans, span_event

ACCEPTED = "accepted"
REJECTED = "rejected"


@dataclass(frozen=True)
class ReplayStep:
    message: Message | None  # None for the leading completion step
    sends: tuple[str, ...]
    from_state: str
    to_state: str | None
    transition: Transition | None
    mismatch: str | None = None


@dataclass(frozen=True)
class ReplayTrace:
    sd_name: str
    object: str
    steps: tuple[ReplayStep, ...]
    verdict: str
    rejected_at: int | None = None

    @property
    def accepted(self) -> bool:
        return self.verdict == ACCEPTED


@dataclass(frozen=True)
class RepairResult:
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
    return any(t.guard is not None and t.guard.atoms for t in flat.transitions)


def _guard_holds(guard: Condition | None, vector, dt: DomainTheory, strict: bool) -> bool:
    """Three-valued guard check: undetermined cells, and a missing vector,
    satisfy any guard unless strict mode is on."""
    if guard is None or not guard.atoms:
        return True
    if vector is None:
        return not strict
    for var_name, value in guard.atoms:
        var = dt.variable(var_name)
        if var is None:
            return False
        cell = vector[var.index]
        if cell is None:
            if strict:
                return False
            continue
        if cell != value:
            return False
    return True


def replay(
    sd: SequenceDiagram,
    obj: str,
    chart: Statechart,
    dt: DomainTheory,
    strict_guards: bool = False,
    asd: AnnotatedSD | None = None,
) -> ReplayTrace:
    """Walk the chart one span of the object's lifeline (``receive_spans``)
    at a time.

    Merged charts may offer several matching transitions from one state, so
    the walk follows every chart state the spans can reach.  The diagram is
    accepted when a path consumes every span; the trace is the first such
    path in transition order.
    A rejection reports the deepest prefix reached.  Guards are evaluated
    on ``asd``, the diagram's annotation, made here when not given.
    """
    flat = flatten(chart)
    if obj not in sd.objects:
        return ReplayTrace(sd.name, obj, (), ACCEPTED)

    if asd is None and _has_guards(flat):
        asd, _ = annotate(sd, dt)

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
        if asd is not None and received is not None:
            vector = asd.vectors[(obj, received.id, PRE)]
        level: dict[str, ReplayStep] = {}
        for state in levels[-1]:
            for t in by_source.get(state, ()):
                if _takes(t, event, sends) and _guard_holds(t.guard, vector, dt, strict_guards):
                    level.setdefault(t.target, ReplayStep(received, sends, state, t.target, t))
        if not level:
            break
        levels.append(level)

    state = next(iter(levels[-1]))
    path = []
    accepted = len(levels) > len(spans)
    if not accepted:
        received, event, sends = spans[len(levels) - 1]
        reason = _mismatch_reason(by_source.get(state, []), event, sends)
        path.append(ReplayStep(received, sends, state, None, None, reason))
    for level in reversed(levels[1:]):
        path.append(level[state])
        state = path[-1].from_state
    path.reverse()
    if accepted:
        return ReplayTrace(sd.name, obj, tuple(path), ACCEPTED)
    return ReplayTrace(sd.name, obj, tuple(path), REJECTED, len(path) - 1)


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
    anywhere = {chart.initial, *(t.target for t in chart.transitions)}

    @cache
    def takers(event: str, sends: tuple) -> tuple:
        return tuple(t for t in chart.transitions if _takes(t, event, sends))

    def step(states: set, event: str, sends: tuple, backward: bool = False) -> set:
        # Where a span leads from states, or backward, from where into them.
        if event == COMPLETION and not sends:  # an empty leading span
            return states
        if backward:
            return {t.source for t in takers(event, sends) if t.target in states}
        return {t.target for t in takers(event, sends) if t.source in states}

    def leaf_test(current: SequenceDiagram):
        """Guard-blind verdicts on current and on its one-edit changes."""
        spans = receive_spans(current.messages, obj)
        events = [(span_event(received), tuple(m.event() for m in sends)) for received, sends in spans]
        receives = [received.id for received, _ in spans[1:]]  # ids are positions
        fwd, back = [{chart.initial}], [anywhere]
        for (event, sends), (b_event, b_sends) in zip(events, reversed(events)):
            fwd.append(step(fwd[-1], event, sends))
            back.insert(0, step(back[0], b_event, b_sends, backward=True))

        def fits(a: int, end: int, *new) -> bool:
            states = fwd[a]
            for event, sends in new:
                states = step(states, event, sends)
            return not states.isdisjoint(back[end])

        @cache
        def test(pos: int, event: str | None) -> bool:
            a = bisect_left(receives, pos)  # the object's receives before pos, so pos's span
            received, sends = events[a]
            cut = bisect_left(spans[a][1], pos, key=attrgetter("id"))
            if event is not None:
                return fits(a, a + 1, (received, sends[:cut]), (event, sends[cut:]))
            m = current.messages[pos - 1]
            if m.receiver == obj:  # spans a and a + 1 merge
                return fits(a, a + 2, (received, sends + events[a + 1][1]))
            return fits(a, a + 1, (received, sends[:cut] + sends[cut + (m.sender == obj):]))

        return bool(fwd[-1]), test

    def works(leaf: SequenceDiagram) -> bool:
        try:
            asd, conflicts = annotate(leaf, dt)
        except AnnotationError:
            return False
        return not conflicts and replay(leaf, obj, chart, dt, strict_guards, asd).accepted

    def attempt(current: SequenceDiagram, edits: tuple, budget: int):
        nonlocal explored
        decide = leaf_test(current)[1] if budget == 1 else None
        n = len(current.messages)
        for pos, cand in chain(product(range(1, n + 1), [None]), product(range(1, n + 2), candidates)):
            if budget == 1:
                explored += 1
                if not decide(pos, cand and cand[3]):
                    continue
            edit = Delete(pos) if cand is None else Insert(Message(pos, *cand[:3], obj), pos)
            child = apply_edit(current, edit)
            if budget > 1:
                found = attempt(child, edits + (edit,), budget - 1)
            else:
                found = RepairResult(edits + (edit,), child) if works(child) else None
            if found:
                return found
        return None

    explored = 1  # the diagram itself, at depth 0
    if leaf_test(sd)[0] and works(sd):
        return RepairResult((), sd)
    for depth in range(1, max_edits + 1):
        found = attempt(sd, (), depth)
        if found:
            return found
    raise NoRepairWithinBound(sd.name, obj, max_edits, explored)


@dataclass(frozen=True)
class CheckRecord:
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
    """Replay every (diagram, charted object) pair; repair the rejected ones."""
    records = []
    for sd in sds:
        asd = None
        for obj in sd.objects:
            if obj not in chart_map:
                continue
            chart = flatten(chart_map[obj])
            if asd is None and _has_guards(chart):
                asd, _ = annotate(sd, dt)
            trace = replay(sd, obj, chart, dt, strict_guards, asd)
            if trace.accepted:
                records.append(CheckRecord(sd, obj, trace))
                continue
            try:
                fix = repair(sd, obj, chart, dt, max_edits, strict_guards)
                records.append(CheckRecord(sd, obj, trace, repair=fix))
            except NoRepairWithinBound as exc:
                records.append(CheckRecord(sd, obj, trace, failure=str(exc)))
    return records
