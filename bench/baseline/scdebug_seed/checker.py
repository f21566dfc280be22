"""Reverse direction: replay scenarios against a (possibly edited) chart
and search for a fewest-edit repair when they no longer fit.

Replay projects a diagram onto one object's received messages and walks the
flattened chart.  The messages the object sends before its next received
one must appear, in order, among the matched transition's actions; missing
sends are tolerated, alien sends are not.  Repair runs iterative deepening
over message insertions and deletions, so the first solution found has
minimal cost; tie-breaking is total (deletes before inserts, lower
positions first, insert candidates in theory declaration order).
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
from .annotator import AnnotationConfig, AnnotationError, annotate
from .dsl import split_label_args
from .synthesizer import COMPLETION, flatten

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
    cost: int
    annotation_ok: bool

    def __post_init__(self):
        if self.cost != len(self.edits):
            raise ValueError("cost must equal the number of edits")


class NoRepairWithinBound(Exception):
    def __init__(self, sd_name: str, obj: str, bound: int, explored: int, trace: ReplayTrace):
        self.sd_name = sd_name
        self.object = obj
        self.bound = bound
        self.explored = explored
        self.trace = trace
        super().__init__(
            f"no repair of {sd_name!r} for {obj!r} within {bound} edit(s); "
            f"{explored} candidate(s) explored"
        )


def _is_subsequence(needle, haystack) -> bool:
    it = iter(haystack)
    return all(x in it for x in needle)


def _guard_holds(guard: Condition | None, vector, dt: DomainTheory, strict: bool) -> bool:
    """Three-valued guard check: undetermined cells satisfy any guard unless
    strict mode is on."""
    if guard is None or not guard.atoms:
        return True
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


def _projection(sd: SequenceDiagram, obj: str):
    """(leading sends, [(received message, following sends), ...])."""
    line = sd.lifeline(obj)
    received = [i for i, m in enumerate(line) if m.receiver == obj]

    def sends(start, stop):
        return tuple(
            line[i].event()
            for i in range(start, stop)
            if line[i].sender == obj and line[i].receiver != obj
        )

    if not received:
        return sends(0, len(line)), []
    steps = []
    for n, i in enumerate(received):
        stop = received[n + 1] if n + 1 < len(received) else len(line)
        steps.append((line[i], sends(i + 1, stop)))
    return sends(0, received[0]), steps


def replay(
    sd: SequenceDiagram,
    obj: str,
    chart: Statechart,
    dt: DomainTheory,
    strict_guards: bool = False,
    cfg: AnnotationConfig | None = None,
) -> ReplayTrace:
    """Walk the chart consuming the object's received messages in order.

    Merged charts may offer several matching transitions from one state, so
    the walk backtracks; the diagram is accepted when any path consumes the
    whole projection.  A rejection reports the deepest prefix reached.
    """
    flat = flatten(chart)
    if obj not in sd.objects:
        return ReplayTrace(sd.name, obj, (), ACCEPTED)

    has_guards = any(t.guard is not None and t.guard.atoms for t in flat.transitions)
    asd = None
    if has_guards:
        asd, _ = annotate(sd, dt, cfg)

    by_source: dict[str, list[Transition]] = {}
    for t in flat.transitions:
        by_source.setdefault(t.source, []).append(t)

    leading, events = _projection(sd, obj)
    todo: list = []
    if leading:
        todo.append((None, COMPLETION, leading, None))
    for msg, sends in events:
        vector = asd.vectors[(obj, msg.id, PRE)] if asd is not None else None
        todo.append((msg, msg.event(), sends, vector))

    def matches(state: str, event: str, sends, vector):
        for t in by_source.get(state, []):
            if t.event != event:
                continue
            if not _is_subsequence(sends, t.actions):
                continue
            if t.guard is not None and t.guard.atoms:
                if vector is None:
                    if strict_guards:
                        continue
                elif not _guard_holds(t.guard, vector, dt, strict_guards):
                    continue
            yield t

    best: list[ReplayStep] = []

    def walk(state: str, idx: int, steps: list) -> tuple | None:
        nonlocal best
        if idx == len(todo):
            return tuple(steps)
        msg, event, sends, vector = todo[idx]
        found_any = False
        for t in matches(state, event, sends, vector):
            found_any = True
            steps.append(ReplayStep(msg, sends, state, t.target, t))
            done = walk(t.target, idx + 1, steps)
            if done is not None:
                return done
            steps.pop()
        if not found_any and len(steps) + 1 > len(best):
            reason = _mismatch_reason(by_source.get(state, []), event, sends)
            if event == COMPLETION:
                reason = "no completion transition covers the leading sends"
            best = steps + [ReplayStep(msg, sends, state, None, None, reason)]
        return None

    accepted = walk(flat.initial, 0, [])
    if accepted is not None:
        return ReplayTrace(sd.name, obj, accepted, ACCEPTED)
    return ReplayTrace(sd.name, obj, tuple(best), REJECTED, len(best) - 1)


def _mismatch_reason(candidates, event: str, sends) -> str:
    same_event = [t for t in candidates if t.event == event]
    if not same_event:
        return f"no transition on event {event!r}"
    return f"sends {list(sends)} not covered by actions of any {event!r} transition"


# ---------------------------------------------------------------------------
# Repair search


def insert_candidates(dt: DomainTheory, chart: Statechart, sd: SequenceDiagram, obj: str):
    """Messages worth inserting: theory contexts first (declaration order,
    ground arguments enumerated from their finite domains), then chart
    transition events not already covered."""
    out = []
    seen = set()

    def add(label: str, args: tuple):
        key = (label, args)
        if key not in seen:
            seen.add(key)
            out.append(key)

    for spec in dt.specs:
        if not spec.params:
            add(spec.name, ())
        else:
            doms = [dom.values() for _, dom in spec.params]
            if len(doms) == 1:
                for v in doms[0]:
                    add(spec.name, (v,))
            else:
                import itertools

                for combo in itertools.product(*doms):
                    add(spec.name, tuple(combo))
    for t in flatten(chart).transitions:
        if t.event == COMPLETION:
            continue
        label, args = split_label_args(t.event)
        add(label, args)

    sender = next((o for o in sd.objects if o != obj), obj)
    return [(label, args, sender) for label, args in out]


def _ok(sd: SequenceDiagram, obj, chart, dt, strict_guards, cfg) -> bool:
    trace = replay(sd, obj, chart, dt, strict_guards, cfg)
    if not trace.accepted:
        return False
    try:
        _, conflicts = annotate(sd, dt, cfg)
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
    cfg: AnnotationConfig | None = None,
) -> RepairResult:
    """Fewest-edit repair by iterative deepening; raises NoRepairWithinBound."""
    if max_edits < 0:
        raise ValueError("max_edits must be >= 0")
    candidates = insert_candidates(dt, chart, sd, obj)
    explored = 0

    def attempt(current: SequenceDiagram, edits: list, budget: int):
        nonlocal explored
        if budget == 0:
            explored += 1
            if _ok(current, obj, chart, dt, strict_guards, cfg):
                return RepairResult(tuple(edits), current, len(edits), True)
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
    trace = replay(sd, obj, chart, dt, strict_guards, cfg)
    raise NoRepairWithinBound(sd.name, obj, max_edits, explored, trace)


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
    cfg: AnnotationConfig | None = None,
) -> list[CheckRecord]:
    """Replay every (diagram, charted object) pair; repair the rejected ones."""
    records = []
    for sd in sds:
        for obj in sd.objects:
            if obj not in chart_map:
                continue
            trace = replay(sd, obj, chart_map[obj], dt, strict_guards, cfg)
            if trace.accepted:
                records.append(CheckRecord(sd, obj, trace))
                continue
            try:
                fix = repair(sd, obj, chart_map[obj], dt, max_edits, strict_guards, cfg)
                records.append(CheckRecord(sd, obj, trace, repair=fix))
            except NoRepairWithinBound as exc:
                records.append(CheckRecord(sd, obj, trace, failure=str(exc)))
    return records
