"""Reverse direction: replay scenarios against a (possibly edited) chart
and search for a fewest-edit repair when they no longer fit.

Replay projects a diagram onto one object's received messages and follows
every state of the flattened chart they can reach, one message at a time.
The messages the object sends before its next received one must appear, in
order, among the matched transition's actions; missing sends are tolerated,
alien sends are not.  Repair runs iterative deepening over message
deletions and insertions of the events the chart receives, so the first
solution found has minimal cost; tie-breaking is total (fewest edits,
deletes before inserts, lower positions first, chart transition order,
then sender order).

Each leaf one edit below a node is decided from the node's guard-blind
replay state sets around the object's spans (the leading sends; each
received message with the sends after it): an edit changes one span, or
merges two, and only leaves that pass are built, annotated once and
replayed.  Guards only remove transitions, so no repair is lost.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain, product

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
from .synthesizer import COMPLETION, flatten, receive_projection

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


def _is_subsequence(needle, haystack) -> bool:
    it = iter(haystack)
    return all(x in it for x in needle)


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
    """Walk the chart consuming the object's received messages in order.

    Merged charts may offer several matching transitions from one state, so
    the walk follows every chart state the projection can reach, one
    message at a time.  The diagram is accepted when a path consumes the
    whole projection; the trace is the first such path in transition order.
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

    line = sd.lifeline(obj)
    leading, steps = receive_projection(line, obj)
    todo: list = []
    if leading:
        todo.append((None, COMPLETION, leading, None))
    for i, sends in steps:
        msg = line[i]
        vector = asd.vectors[(obj, msg.id, PRE)] if asd is not None else None
        todo.append((msg, msg.event(), sends, vector))

    def matches(state: str, idx: int):
        _, event, sends, vector = todo[idx]
        for t in by_source.get(state, []):
            if (t.event == event and _is_subsequence(sends, t.actions)
                    and _guard_holds(t.guard, vector, dt, strict_guards)):
                yield t

    # levels[i] maps every state the first i steps can end in to the step
    # that reached it first.  States and their transitions are taken in
    # order, so each level's first entry ends the first path of its length
    # in transition order, and the step into any state comes from that
    # state's first path.
    levels: list[dict] = [{flat.initial: None}]
    while len(levels) <= len(todo) and levels[-1]:
        msg, _, sends, _ = todo[len(levels) - 1]
        level: dict[str, ReplayStep] = {}
        for state in levels[-1]:
            for t in matches(state, len(levels) - 1):
                level.setdefault(t.target, ReplayStep(msg, sends, state, t.target, t))
        levels.append(level)

    accepted = bool(levels[-1])
    if not accepted:
        levels.pop()
    state = next(iter(levels[-1]))
    path = []
    if not accepted:
        msg, event, sends, _ = todo[len(levels) - 1]
        reason = _mismatch_reason(by_source.get(state, []), event, sends)
        path.append(ReplayStep(msg, sends, state, None, None, reason))
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
    same_event = [t for t in candidates if t.event == event]
    guards = [f"[{_conjunction(t.guard)}]" for t in same_event if _is_subsequence(sends, t.actions)]
    if guards:
        return f"guard {' or '.join(guards)} does not hold"
    if event == COMPLETION:
        return "no completion transition covers the leading sends"
    if not same_event:
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

    def step(states: set, event: str, sends, backward: bool = False) -> set:
        # Where a span leads from states, or backward, from where into them.
        if event == COMPLETION and not sends:  # an empty leading span
            return states
        return {t.source if backward else t.target for t in chart.transitions
                if (t.target if backward else t.source) in states
                and t.event == event and _is_subsequence(sends, t.actions)}

    def leaf_test(current: SequenceDiagram):
        """Guard-blind verdicts on current and on its one-edit changes."""
        if obj not in current.objects:
            return True, lambda pos, event: True  # replay accepts all of them
        spans: list[tuple] = [(COMPLETION, [], [])]  # (event, send positions, sent events)
        for pos, m in enumerate(current.messages, start=1):
            if m.receiver == obj:
                spans.append((m.event(), [], []))
            elif m.sender == obj:
                spans[-1][1].append(pos)
                spans[-1][2].append(m.event())
        # span_of[p - 1]: the object's receives before position p, so p's span
        span_of = list(accumulate((m.receiver == obj for m in current.messages), initial=0))
        fwd, back = [{chart.initial}], [anywhere]
        for (event, _, sends), (b_event, _, b_sends) in zip(spans, reversed(spans)):
            fwd.append(step(fwd[-1], event, sends))
            back.insert(0, step(back[0], b_event, b_sends, backward=True))

        def fits(a: int, end: int, *new) -> bool:
            states = fwd[a]
            for event, sends in new:
                states = step(states, event, sends)
            return not states.isdisjoint(back[end])

        @cache
        def test(pos: int, event: str | None) -> bool:
            a = span_of[pos - 1]
            received, positions, sends = spans[a]
            cut = bisect_left(positions, pos)
            if event is not None:
                return fits(a, a + 1, (received, sends[:cut]), (event, sends[cut:]))
            m = current.messages[pos - 1]
            if m.receiver == obj:  # spans a and a + 1 merge
                return fits(a, a + 2, (received, sends + spans[a + 1][2]))
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
