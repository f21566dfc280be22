"""Human- and machine-readable rendering of conflicts, checks, and charts.

The conflict block follows the layout users of the tool know:

    Conflict in SD1: Object Coffee-UI
     statevector after  "Insert coin"       = <T,F,T,1,none> [Msg 2]
     statevector before "Request Selection" = <T,F,F,1,none> [Msg 3]
      conflict in variable "CoffeeTypeSelected"
      conflict occurred as consequence of unification of
       ...

The JSON rendering is schema-versioned and byte-stable for identical input;
see docs/report-schema.json.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass, field

from .model import Conflict, SequenceDiagram, Statechart, walk
from .annotator import missing_spec_warnings
from .checker import CheckRecord
from .dsl import transition_label

SCHEMA = "scdebug-report/1"


@dataclass
class ReportBundle:
    conflicts: list = field(default_factory=list)
    annotations: list = field(default_factory=list)  # (sd, unification count)
    checks: list = field(default_factory=list)  # CheckRecord
    warnings: list = field(default_factory=list)
    sds: int = 0  # diagrams given


def annotation_bundle(results) -> ReportBundle:
    """Bundle from annotate() results: iterable of (AnnotatedSD, conflicts)."""
    bundle = ReportBundle()
    for asd, conflicts in results:
        bundle.annotations.append((asd.sd, len(asd.events)))
        bundle.conflicts.extend(conflicts)
        bundle.warnings.extend(
            w for w in missing_spec_warnings(asd.sd, asd.theory) if w not in bundle.warnings
        )
    bundle.sds = len(bundle.annotations)
    return bundle


def check_bundle(sds, records) -> ReportBundle:
    """Bundle from the diagrams given and check_all() records."""
    return ReportBundle(sds=len(sds), checks=list(records))


# ---------------------------------------------------------------------------
# Text rendering


def _vector_lines(entries, indent: str) -> list[str]:
    """Aligned ``statevector <which> "<label>" = <vec> [Msg i]`` lines."""
    heads = [f'statevector {which:<6} "{label}"' for which, label, _, _ in entries]
    width = max(len(h) for h in heads)
    return [
        f"{indent}{head:<{width}} = {vec} [Msg {mid}]"
        for head, (_, _, vec, mid) in zip(heads, entries)
    ]


def _conflict_block(c: Conflict) -> list[str]:
    out = [f"Conflict in {c.sd_name}: Object {c.object}"]
    out.extend(
        _vector_lines(
            [
                ("after", c.after_message.label, c.vector_after, c.after_message.id),
                ("before", c.before_message.label, c.vector_before, c.before_message.id),
            ],
            " ",
        )
    )
    out.append(f'  conflict in variable "{c.variable.name}"')
    if c.unified_states:
        out.append("  conflict occurred as consequence of unification of")
        out.extend(
            _vector_lines(
                [
                    ("after" if which == "post" else "before", msg.label, vec, msg.id)
                    for msg, which, vec in c.unified_states
                ],
                "   ",
            )
        )
    return out


def _sd_lines(sd: SequenceDiagram) -> list[str]:
    return [f"msg {m.id} {m.sender} -> {m.receiver} : {m.event()}" for m in sd.messages]


def _edit_diff(original: SequenceDiagram, repaired: SequenceDiagram) -> list[str]:
    # Ids renumber on every edit, so diff the id-less message lines.
    def lines(sd):
        return [f"msg {m.sender} -> {m.receiver} : {m.event()}" for m in sd.messages]

    diff = difflib.ndiff(lines(original), lines(repaired))
    return [line for line in diff if not line.startswith("? ")]


def _check_lines(rec: CheckRecord) -> list[str]:
    head = f"Check {rec.sd.name}: Object {rec.object}: {rec.trace.verdict}"
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
    for c in bundle.conflicts:
        out.extend(_conflict_block(c))
        out.append("")
    for rec in bundle.checks:
        out.extend(_check_lines(rec))
    if bundle.checks:
        out.append("")

    if not bundle.conflicts and not any(not r.trace.accepted for r in bundle.checks):
        out.insert(0, "No conflicts found.")

    summary = []
    if bundle.annotations:
        summary.append(f"{len(bundle.annotations)} sequence diagram(s) annotated")
        summary.append(f"{len(bundle.conflicts)} conflict(s)")
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


def _conflict_json(c: Conflict) -> dict:
    return {
        "sd": c.sd_name,
        "object": c.object,
        "variable": c.variable.name,
        "valueAfter": c.value_after,
        "valueBefore": c.value_before,
        "afterMsg": {
            "id": c.after_message.id,
            "label": c.after_message.label,
            "vector": str(c.vector_after),
        },
        "beforeMsg": {
            "id": c.before_message.id,
            "label": c.before_message.label,
            "vector": str(c.vector_before),
        },
        "derivation": [
            {"id": msg.id, "label": msg.label, "which": which, "vector": str(vec)}
            for msg, which, vec in c.unified_states
        ],
    }


def _check_json(rec: CheckRecord) -> dict:
    repair = None
    if rec.repair is not None:
        repair = {
            "cost": rec.repair.cost,
            "edits": [e.describe() for e in rec.repair.edits],
            "messages": _sd_lines(rec.repair.repaired),
        }
    return {
        "sd": rec.sd.name,
        "object": rec.object,
        "verdict": rec.trace.verdict,
        "rejectedAt": rec.trace.rejected_at,
        "reason": rec.trace.steps[-1].mismatch if not rec.trace.accepted else None,
        "repair": repair,
        "failure": rec.failure,
    }


def render_json(bundle: ReportBundle) -> str:
    doc = {
        "schema": SCHEMA,
        "summary": {
            "sds": bundle.sds,
            "conflicts": len(bundle.conflicts),
            "checks": len(bundle.checks),
            "accepted": sum(1 for r in bundle.checks if r.trace.accepted),
        },
        "conflicts": [_conflict_json(c) for c in bundle.conflicts],
        "annotations": [
            {
                "sd": sd.name,
                "objects": list(sd.objects),
                "messages": len(sd.messages),
                "unifications": events,
            }
            for sd, events in bundle.annotations
        ],
        "checks": [_check_json(r) for r in bundle.checks],
        "warnings": list(bundle.warnings),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# DOT export


def _dot_quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def export_dot(chart: Statechart) -> str:
    """GraphViz rendering: composites become clusters, the initial node of
    every level is marked with a point, edges carry event[guard]/action."""
    out = [f"digraph {_dot_quote(chart.name)} {{", "  rankdir=LR;", "  compound=true;"]

    entry = {}  # id of each done scope -> the simple node it is entered at
    edges = []  # index in out of each open scope's initial edge, innermost last

    def resolve_initial(sc: Statechart, name: str) -> str:
        node = next((n for n in sc.nodes if n.name == name and n.is_composite), None)
        return name if node is None else entry[id(node.children)]

    def init_point(scope: str, pad: str) -> None:
        point = _dot_quote(f"__init_{scope}" if scope else "__init")
        out.append(f"{pad}{point} [shape=point];")
        edges.append(len(out))
        out.append(f"{pad}{point} -> ")  # completed once the scope's entry is known

    init_point("", "  ")
    for depth, sc, n in walk(chart):
        pad = "  " * (depth + 1)
        if n is None:  # every scope nested in sc is done
            entry[id(sc)] = resolve_initial(sc, sc.initial)
            out[edges.pop()] += f"{_dot_quote(entry[id(sc)])};"
            for t in sc.transitions:
                head = resolve_initial(sc, t.target)
                attrs = [f"label={_dot_quote(transition_label(t))}"]
                if head != t.target:
                    attrs.append(f"lhead={_dot_quote('cluster_' + t.target)}")
                out.append(f"{pad}{_dot_quote(t.source)} -> {_dot_quote(head)} [{', '.join(attrs)}];")
            if depth:
                out.append(f"{pad[2:]}}}")
        elif n.is_composite:
            out.append(f"{pad}subgraph {_dot_quote('cluster_' + n.name)} {{")
            label = f"{n.name} {n.comment}" if n.comment else n.name
            out.append(f"{pad}  label={_dot_quote(label)};")
            init_point(n.name, pad + "  ")
        else:
            out.append(f"{pad}{_dot_quote(n.name)} [shape=box, style=rounded];")
    out.append("}")
    return "\n".join(out) + "\n"
