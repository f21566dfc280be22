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
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    PRE,
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
) -> ReplayTrace:
    """Walk the chart consuming the object's received messages in order.

    Merged charts may offer several matching transitions from one state, so
    the walk follows every chart state the projection can reach, one
    message at a time.  The diagram is accepted when a path consumes the
    whole projection; the trace is the first such path in transition order.
    A rejection reports the deepest prefix reached.
    """
    flat = flatten(chart)
    if obj not in sd.objects:
        return ReplayTrace(sd.name, obj, (), ACCEPTED)

    has_guards = any(t.guard is not None and t.guard.atoms for t in flat.transitions)
    asd = None
    if has_guards:
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


def insert_candidates(dt: DomainTheory, chart: Statechart, sd: SequenceDiagram, obj: str):
    """Messages worth inserting: an inserted message is received by the
    object, so only the chart's own events, each once in transition order,
    sent by every other declared object in declaration order (by the object
    itself when it is alone)."""
    events = dict.fromkeys(split_label_args(t.event) for t in flatten(chart).transitions
                           if t.event != COMPLETION)
    senders = [o for o in sd.objects if o != obj] or [obj]
    return [(label, args, sender) for label, args in events for sender in senders]


def _ok(sd: SequenceDiagram, obj, chart, dt, strict_guards) -> bool:
    trace = replay(sd, obj, chart, dt, strict_guards)
    if not trace.accepted:
        return False
    try:
        _, conflicts = annotate(sd, dt)
    except AnnotationError:
        return False
    return not conflicts


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
    candidates = insert_candidates(dt, chart, sd, obj)
    explored = 0

    def attempt(current: SequenceDiagram, edits: list, budget: int):
        nonlocal explored
        if budget == 0:
            explored += 1
            if _ok(current, obj, chart, dt, strict_guards):
                return RepairResult(tuple(edits), current)
            return None
        for pos in range(1, len(current.messages) + 1):
            edit = Delete(pos)
            found = attempt(apply_edit(current, edit), edits + [edit], budget - 1)
            if found:
                return found
        for pos in range(1, len(current.messages) + 2):
            for label, args, sender in candidates:
                msg = Message(pos, label, args, sender, obj)
                edit = Insert(msg, pos)
                found = attempt(apply_edit(current, edit), edits + [edit], budget - 1)
                if found:
                    return found
        return None

    for depth in range(max_edits + 1):
        found = attempt(sd, [], depth)
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
        for obj in sd.objects:
            if obj not in chart_map:
                continue
            chart = flatten(chart_map[obj])
            trace = replay(sd, obj, chart, dt, strict_guards)
            if trace.accepted:
                records.append(CheckRecord(sd, obj, trace))
                continue
            try:
                fix = repair(sd, obj, chart, dt, max_edits, strict_guards)
                records.append(CheckRecord(sd, obj, trace, repair=fix))
            except NoRepairWithinBound as exc:
                records.append(CheckRecord(sd, obj, trace, failure=str(exc)))
    return records
