"""Output checks that do not trust the module they check.

Nothing here imports scdebug.  Conflicts are re-derived with a frame-axiom
simulation, charts are read and flattened by a reader of our own, replay is
a plain search over the flattened chart, and repair edits are re-applied to
the input diagram.  Each check returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

import json
import re

from gen import Diagram, Msg, Theory

# ---------------------------------------------------------------------------
# Conflicts


def _cells(spec, atoms, args, width, index):
    binding = {spec.param[0]: args[0]} if spec.param and args else {}
    vec = [None] * width
    for var, value in atoms:
        vec[index[var]] = binding.get(value, value)
    return vec


def frame_conflicts(th: Theory, sd: Diagram) -> set:
    """Conflicts the frame axiom alone forces, as (object, after id, before
    id, variable, value after, value before).

    Frame propagation runs before any unification and unification never
    rewrites a determined cell, so every one of these must be reported.
    """
    width = len(th.variables)
    index = {v.name: j for j, v in enumerate(th.variables)}
    out = set()
    for obj in sd.objects:
        prev_id, prev_post = None, None
        for mid, m in sd.lifeline(obj):
            spec = th.spec(m.label)
            pre = _cells(spec, spec.pre, m.args, width, index) if spec else [None] * width
            post = _cells(spec, spec.post, m.args, width, index) if spec else [None] * width
            if prev_post is not None:
                for j, (x, y) in enumerate(zip(prev_post, pre)):
                    if x is not None and y is not None and x != y:
                        out.add((obj, prev_id, mid, th.variables[j].name, x, y))
                pre = [y if y is not None else x for x, y in zip(prev_post, pre)]
            post = [y if y is not None else x for x, y in zip(pre, post)]
            prev_id, prev_post = mid, post
    return out


def _vector(text):
    return [None if c == "?" else c for c in text.strip("<>").split(",")]


def conflict_problems(th: Theory, sd: Diagram, reported: list, exact: set | None = None) -> list:
    """`reported`: (object, after id, before id, variable, after vector text,
    before vector text) per conflict, as the program printed them."""
    index = {v.name: j for j, v in enumerate(th.variables)}
    problems, found = [], set()
    for obj, a, b, var, vec_a, vec_b in reported:
        x, y = _vector(vec_a)[index[var]], _vector(vec_b)[index[var]]
        if x is None or y is None or x == y:
            problems.append(f"{sd.name}: conflict on {obj} {var} between {a} and {b} "
                            f"has cells {x!r} and {y!r}")
        found.add((obj, a, b, var, x, y))
    forced = frame_conflicts(th, sd)
    for c in sorted(forced - found):
        problems.append(f"{sd.name}: frame-forced conflict {c} not reported")
    if exact is not None:
        if forced != exact:
            raise AssertionError(f"{sd.name}: generator and frame simulation disagree")
        for c in sorted(found - exact):
            problems.append(f"{sd.name}: unexpected conflict {c}")
    return problems


def json_conflicts(doc: dict) -> list:
    return [(c["object"], c["afterMsg"]["id"], c["beforeMsg"]["id"], c["variable"],
             c["afterMsg"]["vector"], c["beforeMsg"]["vector"]) for c in doc["conflicts"]]


_HEAD = re.compile(r"^Conflict in (\S+): Object (\S+)$")
_VEC = re.compile(r'^ statevector (after|before) +".*" += (<[^>]*>) \[Msg (\d+)\]$')
_VAR = re.compile(r'^  conflict in variable "(.+)"$')


def text_conflicts(text: str) -> list:
    """The conflict blocks of the text report, read line by line."""
    out, cur = [], None
    for line in text.splitlines():
        if _HEAD.match(line):
            cur = {"object": _HEAD.match(line).group(2)}
        elif cur is not None and _VEC.match(line):
            which, vec, mid = _VEC.match(line).groups()
            cur[which] = (int(mid), vec)
        elif cur is not None and _VAR.match(line):
            out.append((cur["object"], cur["after"][0], cur["before"][0], _VAR.match(line).group(1),
                        cur["after"][1], cur["before"][1]))
            cur = None
    return out


def annotate_problems(th, sd, rc, out, as_json, exact=None) -> list:
    if as_json:
        doc = json.loads(out)
        reported = json_conflicts(doc)
        count = doc["summary"]["conflicts"]
    else:
        reported = text_conflicts(out)
        m = re.search(r"^Summary: \d+ sequence diagram\(s\) annotated, (\d+) conflict\(s\)\.$", out, re.M)
        count = int(m.group(1)) if m else -1
    problems = conflict_problems(th, sd, reported, exact)
    if count != len(reported):
        problems.append(f"{sd.name}: summary says {count} conflict(s), report lists {len(reported)}")
    if rc != (1 if reported else 0):
        problems.append(f"{sd.name}: exit code {rc} with {len(reported)} conflict(s)")
    return problems


# ---------------------------------------------------------------------------
# Statecharts


class Chart:
    """A flattened .sc file: simple states with their comments, the initial
    simple state, and (source, target, event, guard, actions) transitions."""

    def __init__(self, text: str):
        self.comments = {}
        self.transitions = []
        initial, members, stack = {}, {}, ["<top>"]
        for raw in text.splitlines():
            body, _, comment = raw.partition("#")
            line = body.strip()
            if not line or line.startswith("statechart "):
                continue
            if line == "}":
                stack.pop()
            elif line.startswith("initial "):
                initial[stack[-1]] = line[len("initial "):].strip()
            elif line.startswith("state "):
                name = line[len("state "):].rstrip("{ ").strip()
                for scope in stack:
                    members.setdefault(scope, []).append(name)
                if line.endswith("{"):
                    stack.append(name)
                else:
                    self.comments[name] = comment.strip() or None
            else:
                src, rest = line.split(" -> ", 1)
                dst, label = rest.split(" : ", 1) if " : " in rest else (rest.rstrip(" :"), "")
                label, _, actions = label.partition(" / ")
                guard = None
                if "[" in label:
                    label, _, guard = label.partition("[")
                    guard = guard.rstrip("] ")
                acts = tuple(a.strip() for a in actions.split(",")) if actions.strip() else ()
                self.transitions.append((src.strip(), dst.strip(), label.strip(), guard, acts))

        def enter(name):
            while name in initial:
                name = initial[name]
            return name

        self.initial = enter("<top>")
        flat = []
        for src, dst, event, guard, acts in self.transitions:
            for s in [m for m in members.get(src, []) if m in self.comments] or [src]:
                flat.append((s, enter(dst), event, guard, acts))
        self.transitions = flat


def _subsequence(needle, haystack) -> bool:
    it = iter(haystack)
    return all(x in it for x in needle)


def accepts(chart: Chart, sd: Diagram, obj: str) -> bool:
    """Does some path of the chart consume the object's received messages,
    each one's following sends covered in order by the transition's actions?"""
    if obj not in sd.objects:
        return True
    line = [m for _, m in sd.lifeline(obj)]
    steps, sends = [], []
    for m in line:
        if m.receiver == obj:
            steps.append([m.event(), []])
        elif m.sender == obj:
            (steps[-1][1] if steps else sends).append(m.event())
    todo = ([("", sends)] if sends else []) + [(e, s) for e, s in steps]
    by_source = {}
    for t in chart.transitions:
        if t[3]:
            raise ValueError("guarded charts are outside this replay")
        by_source.setdefault(t[0], []).append(t)
    stack = [(chart.initial, 0)]
    seen = set()
    while stack:
        state, i = stack.pop()
        if i == len(todo):
            return True
        if (state, i) in seen:
            continue
        seen.add((state, i))
        event, sends = todo[i]
        for _, dst, ev, _, acts in by_source.get(state, []):
            if ev == event and _subsequence(sends, acts):
                stack.append((dst, i + 1))
    return False


def chart_edges(chart: Chart) -> set:
    """Transitions with each state named by its state-vector comment."""
    name = {s: c.strip("<>") for s, c in chart.comments.items()}
    return {(name[s], name[d], e, a) for s, d, e, _, a in chart.transitions}


# ---------------------------------------------------------------------------
# Repairs

_INSERT = re.compile(r"^insert (.*) \((\S+) -> (\S+)\) at position (\d+)$")
_DELETE = re.compile(r"^delete message at position (\d+)$")
_LINE = re.compile(r"^msg \d+ (\S+) -> (\S+) : (.*)$")


def apply_edits(sd: Diagram, edits) -> list:
    msgs = [(m.sender, m.receiver, m.event()) for m in sd.messages]
    for e in edits:
        if m := _DELETE.match(e):
            del msgs[int(m.group(1)) - 1]
        elif m := _INSERT.match(e):
            event, s, r, at = m.groups()
            msgs.insert(int(at) - 1, (s, r, event))
        else:
            raise ValueError(f"unreadable edit {e!r}")
    return msgs


def as_diagram(sd: Diagram, triples) -> Diagram:
    def split(event):
        m = re.fullmatch(r"(.*?)\((.*)\)", event)
        return (m.group(1), tuple(a.strip() for a in m.group(2).split(","))) if m else (event, ())

    return Diagram(sd.name, sd.objects, tuple(Msg(s, r, *split(e)) for s, r, e in triples))


def check_problems(th, sd, charts, doc, rc, max_edits, deleted_to) -> tuple[list, list]:
    """Problems with a `check --json` report, plus the records where the
    repair missed the witness bound.

    `deleted_to` lists the receiver of every message deleted from the
    original diagram.  When the checked object received all of them,
    re-inserting them is a repair of that many edits, so a minimal search
    within --max-edits must report at most that cost.
    """
    problems, misses = [], []
    want = sorted(o for o in sd.objects if o in charts)
    got = sorted(r["object"] for r in doc["checks"])
    if want != got:
        problems.append(f"{sd.name}: records for {got}, expected {want}")
    rejected = 0
    for rec in doc["checks"]:
        obj = rec["object"]
        chart = charts[obj]
        ok = accepts(chart, sd, obj)
        if rec["verdict"] != ("accepted" if ok else "rejected"):
            problems.append(f"{sd.name}/{obj}: verdict {rec['verdict']}, replay says accepted={ok}")
            continue
        if ok:
            if rec["repair"] or rec["failure"]:
                problems.append(f"{sd.name}/{obj}: accepted but repaired")
            continue
        rejected += 1
        fix = rec["repair"]
        if fix is not None:
            triples = apply_edits(sd, fix["edits"])
            lines = [_LINE.match(x).groups() for x in fix["messages"]]
            if [tuple(t) for t in lines] != triples:
                problems.append(f"{sd.name}/{obj}: repaired diagram is not the input with its edits")
            fixed = as_diagram(sd, triples)
            if not accepts(chart, fixed, obj):
                problems.append(f"{sd.name}/{obj}: repaired diagram is not accepted")
            if frame_conflicts(th, fixed):
                problems.append(f"{sd.name}/{obj}: repaired diagram has conflicts")
            if not fix["cost"] == len(fix["edits"]) <= max_edits:
                problems.append(f"{sd.name}/{obj}: cost {fix['cost']} for {len(fix['edits'])} edit(s)")
        elif f"within {max_edits} edit(s)" not in (rec["failure"] or ""):
            problems.append(f"{sd.name}/{obj}: rejected with neither repair nor failure")
        if deleted_to and max_edits >= len(deleted_to) and all(r == obj for r in deleted_to):
            if fix is None or fix["cost"] > len(deleted_to):
                misses.append(f"{sd.name}/{obj} at --max-edits {max_edits}: "
                              f"{'cost ' + str(fix['cost']) if fix else 'no repair'}, "
                              f"re-inserting the {len(deleted_to)} deleted message(s) costs {len(deleted_to)}")
    if doc["summary"]["accepted"] != len(doc["checks"]) - rejected:
        problems.append(f"{sd.name}: summary accepted count is wrong")
    if rc != (1 if rejected else 0):
        problems.append(f"{sd.name}: exit code {rc} with {rejected} rejected replay(s)")
    return problems, misses
