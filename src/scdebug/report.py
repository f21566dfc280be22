"""Human- and machine-readable rendering of conflicts, checks, and charts.

The conflict block follows the layout users of the tool know:

    Conflict in SD1: Object Coffee-UI
     statevector after  "Insert coin"       = <T,F,T,1,none> [Msg 2]
     statevector before "Request Selection" = <T,F,F,1,none> [Msg 3]
      conflict in variable "CoffeeTypeSelected"
      conflict occurred as consequence of unification of
       ...

The JSON rendering is schema-versioned and byte-stable for identical input;
see docs/report-schema.json.  It is the text ``json.dumps(doc, indent=2,
sort_keys=True)`` would write, built without that encoder: conflicts and
check records, the parts that grow with the input, are written straight to
JSON text at their place in the document, and ``_json`` writes the rest.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

from .model import Conflict, DomainTheory, Lifeline, SequenceDiagram, Statechart, Transition, format_vector, walk
from .annotator import conflict_view, missing_spec_warnings
from .dsl import transition_label

SCHEMA = "scdebug-report/1"


class ReportBundle(NamedTuple):
    annotations: tuple = ()  # (diagram, lifelines by object, conflicts), as annotate() gives the last two
    checks: tuple = ()  # CheckRecord
    warnings: tuple = ()
    sds: int = 0  # diagrams given


def annotation_bundle(dt: DomainTheory, results) -> ReportBundle:
    """Bundle from (diagram, lifelines by object, conflicts) annotated against ``dt``."""
    results = tuple(results)
    return ReportBundle(
        annotations=results,
        warnings=tuple(missing_spec_warnings(dt, (sd for sd, *_ in results))),
        sds=len(results),
    )


def _conflicts(bundle: ReportBundle) -> list:
    """(lifeline, conflict) for every conflict in the bundle, in order."""
    return [(lines[c.object], c) for _, lines, conflicts in bundle.annotations for c in conflicts]


def _verdict(rec: CheckRecord) -> str:
    return "accepted" if rec.trace.accepted else "rejected"


# ---------------------------------------------------------------------------
# Text rendering


def _vector_lines(entries, indent: str) -> list[str]:
    """Aligned ``statevector <which> "<label>" = <vec> [Msg i]`` lines, one
    per (after|before, message, cells) entry."""
    heads = [f'statevector {which:<6} "{msg.label}"' for which, msg, _ in entries]
    width = max(len(h) for h in heads)
    return [
        f"{indent}{head:<{width}} = {format_vector(cells)} [Msg {msg.id}]"
        for head, (_, msg, cells) in zip(heads, entries)
    ]


def _conflict_block(line: Lifeline, c: Conflict) -> list[str]:
    after, before, unified = conflict_view(line, c)
    out = [f"Conflict in {c.sd_name}: Object {c.object}"]
    out += _vector_lines([("after", c.after_message, after), ("before", c.before_message, before)], " ")
    out.append(f'  conflict in variable "{c.variable.name}"')
    if unified:
        out.append("  conflict occurred as consequence of unification of")
        out += _vector_lines([("after", msg, cells) for msg, cells in unified], "   ")
    return out


def _sd_lines(sd: SequenceDiagram) -> list[str]:
    return [f"msg {m.id} {m.sender} -> {m.receiver} : {m.event()}" for m in sd.messages]


def _edit_diff(original: SequenceDiagram, repaired: SequenceDiagram) -> list[str]:
    import difflib  # only repairs print a diff, so start-up does without it

    # Ids renumber on every edit, so diff the id-less message lines.
    def lines(sd):
        return [f"msg {m.sender} -> {m.receiver} : {m.event()}" for m in sd.messages]

    diff = difflib.ndiff(lines(original), lines(repaired))
    return [line for line in diff if not line.startswith("? ")]


def _check_lines(rec: CheckRecord) -> list[str]:
    head = f"Check {rec.sd.name}: Object {rec.object}: {_verdict(rec)}"
    if rec.trace.accepted:
        return [head]
    out = [head]
    step = rec.trace.steps[-1]
    what = step.message.event() if step.message else "(leading sends)"
    out.append(f"  rejected at step {rec.trace.rejected_at + 1} on {what}: {step.mismatch}")
    if rec.repair is not None:
        out.append(f"  repair with {rec.repair.cost} edit(s):")
        for e in rec.repair.edits:
            out.append(f"    {e.describe()}")
        for line in _edit_diff(rec.sd, rec.repair.repaired):
            out.append(f"    {line}")
    elif rec.failure:
        out.append(f"  {rec.failure}")
    return out


def render_text(bundle: ReportBundle) -> str:
    out: list[str] = []
    conflicts = _conflicts(bundle)
    if not conflicts and all(r.trace.accepted for r in bundle.checks):
        out.append("No conflicts found.")
    for line, c in conflicts:
        out.extend(_conflict_block(line, c))
        out.append("")
    for rec in bundle.checks:
        out.extend(_check_lines(rec))
    if bundle.checks:
        out.append("")

    summary = []
    if bundle.annotations:
        summary.append(f"{len(bundle.annotations)} sequence diagram(s) annotated")
        summary.append(f"{len(conflicts)} conflict(s)")
    if bundle.checks:
        accepted = sum(1 for r in bundle.checks if r.trace.accepted)
        summary.append(f"{accepted}/{len(bundle.checks)} replay(s) accepted")
        repaired = sum(1 for r in bundle.checks if r.repair is not None)
        if repaired:
            summary.append(f"{repaired} repair(s) found")
    if summary:
        out.append("Summary: " + ", ".join(summary) + ".")
    for w in bundle.warnings:
        out.append(f"warning: {w}")
    return "\n".join(out).rstrip("\n") + "\n"


# ---------------------------------------------------------------------------
# JSON rendering


class _Raw(str):
    """JSON text that ``_json`` copies verbatim."""


def _json(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for dicts with str
    keys, lists, tuples, str, int, bool and None; ``pad`` is the newline and
    indent of the line the value starts on.  CPython's C encoder does not
    indent, and its pure-Python one is the slowest step of a JSON report."""
    if isinstance(value, str):
        return value if type(value) is _Raw else _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join(  # _quote raises TypeError on a key not a str
            [f"{_quote(k)}: {_json(v, inner)}" for k, v in sorted(value.items())]) + pad + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _msg_json(msg, cells, pad: str, which: str = "") -> str:
    """A conflict's message reference, its keys on lines starting ``pad``."""
    out = f'{{{pad}"id": {msg.id},{pad}"label": {_quote(msg.label)},'
    out += f'{pad}"vector": {_quote(format_vector(cells))}'
    return out + (f',{pad}"which": {_quote(which)}' if which else "") + pad[:-2] + "}"


def _conflict_json(line: Lifeline, c: Conflict) -> _Raw:
    """One conflict as JSON text, written at its depth in the report (an
    item of the top-level "conflicts" list) with keys in sorted order:
    conflicts are the part of a report that grows with the input, so they
    skip the generic writer."""
    after, before, unified = conflict_view(line, c)
    # Indents of the conflict's keys and of a derivation step's keys.
    p, q = "\n      ", "\n          "
    derivation = ("[" + ",".join(f"{p}  {_msg_json(msg, cells, q, 'post')}" for msg, cells in unified)
                  + p + "]") if unified else "[]"
    return _Raw(
        f'{{{p}"afterMsg": {_msg_json(c.after_message, after, p + "  ")},'
        f'{p}"beforeMsg": {_msg_json(c.before_message, before, p + "  ")},'
        f'{p}"derivation": {derivation},'
        f'{p}"object": {_quote(c.object)},'
        f'{p}"sd": {_quote(c.sd_name)},'
        f'{p}"valueAfter": {_quote(after[c.variable.index])},'
        f'{p}"valueBefore": {_quote(before[c.variable.index])},'
        f'{p}"variable": {_quote(c.variable.name)}\n    }}'
    )


def _check_json(rec: CheckRecord) -> _Raw:
    """One check record as JSON text, written as ``_conflict_json`` writes a
    conflict: at its depth in the report (an item of the top-level "checks"
    list), keys in sorted order."""
    p, q = "\n      ", "\n        "  # indents of the record's keys and of its repair's keys
    trace, repair = rec.trace, rec.repair
    if repair is not None:
        repair = (f'{{{q}"cost": {repair.cost},'
                  f'{q}"edits": {_json([e.describe() for e in repair.edits], q)},'
                  f'{q}"messages": {_json(_sd_lines(repair.repaired), q)}{p}}}')
    return _Raw(
        f'{{{p}"failure": {_json(rec.failure)},'
        f'{p}"object": {_quote(rec.object)},'
        f'{p}"reason": {_json(None if trace.accepted else trace.steps[-1].mismatch)},'
        f'{p}"rejectedAt": {_json(trace.rejected_at)},'
        f'{p}"repair": {repair or "null"},'
        f'{p}"sd": {_quote(rec.sd.name)},'
        f'{p}"verdict": {_quote(_verdict(rec))}\n    }}'
    )


def render_json(bundle: ReportBundle) -> str:
    conflicts = _conflicts(bundle)
    doc = {
        "schema": SCHEMA,
        "summary": {
            "sds": bundle.sds,
            "conflicts": len(conflicts),
            "checks": len(bundle.checks),
            "accepted": sum(1 for r in bundle.checks if r.trace.accepted),
        },
        "conflicts": [_conflict_json(line, c) for line, c in conflicts],
        "annotations": [
            {
                "sd": sd.name,
                "objects": list(sd.objects),
                "messages": len(sd.messages),
                "unifications": sum(len(line.events) for line in lines.values()),
            }
            for sd, lines, _ in bundle.annotations
        ],
        "checks": [_check_json(r) for r in bundle.checks],
        "warnings": list(bundle.warnings),
    }
    return _json(doc) + "\n"


# ---------------------------------------------------------------------------
# DOT export


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(chart: Statechart) -> str:
    """GraphViz rendering: composites become clusters, the initial node of
    every level is marked with a point, edges carry event[guard]/action.
    An edge to or from a composite, at any depth, is drawn from or to the
    composite's entry node and clipped at its cluster (``lhead``/``ltail``)."""
    composites = [n for _, _, n in walk(chart) if n is not None and n.is_composite]
    entry = {}  # composite name -> the simple node it is entered at
    for n in reversed(composites):  # every nested composite before its parent
        entry[n.name] = entry.get(n.children.initial, n.children.initial)

    def init_point(scope: str, initial: str, pad: str) -> list[str]:
        point = _dot_quote(f"__init_{scope}" if scope else "__init")
        head = _dot_quote(entry.get(initial, initial))
        return [f"{pad}{point} [shape=point];", f"{pad}{point} -> {head};"]

    def edge(t: Transition, pad: str) -> str:
        tail, head = entry.get(t.source, t.source), entry.get(t.target, t.target)
        attrs = [f"label={_dot_quote(transition_label(t))}"]
        if head != t.target:
            attrs.append(f"lhead={_dot_quote('cluster_' + t.target)}")
        if tail != t.source:
            attrs.append(f"ltail={_dot_quote('cluster_' + t.source)}")
        return f"{pad}{_dot_quote(tail)} -> {_dot_quote(head)} [{', '.join(attrs)}];"

    out = [f"digraph {_dot_quote(chart.name)} {{", "  rankdir=LR;", "  compound=true;",
           *init_point("", chart.initial, "  ")]
    for depth, sc, n in walk(chart):
        pad = "  " * (depth + 1)
        if n is None:  # every scope nested in sc is done
            out.extend(edge(t, pad) for t in sc.transitions)
            if depth:
                out.append(f"{pad[2:]}}}")
        elif n.is_composite:
            out.append(f"{pad}subgraph {_dot_quote('cluster_' + n.name)} {{")
            label = f"{n.name} {n.comment}" if n.comment else n.name
            out.append(f"{pad}  label={_dot_quote(label)};")
            out.extend(init_point(n.name, n.children.initial, pad + "  "))
        else:
            out.append(f"{pad}{_dot_quote(n.name)} [shape=box, style=rounded];")
    out.append("}")
    return "\n".join(out) + "\n"
