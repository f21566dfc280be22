"""Command line entry point.

Exit codes: 0 clean, 1 findings (conflicts or rejected replays), 2 on
usage, parse, or validation errors.  All output is deterministic for fixed
inputs and flags.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from .annotator import AnnotationError, annotate
from .checker import check_all
from .dsl import ParseError, _lines, parse_domain_theory, parse_sc, parse_sd, print_sc, transition_label
from .model import walk
from .report import ReportBundle, annotation_bundle, export_dot, render_json, render_text
from .synthesizer import ConflictedInputError, synthesize

OK, FINDINGS, ERROR = 0, 1, 2


def _no_loop_pair(text: str):
    try:
        i, j = text.split(":")
        return frozenset((int(i), int(j)))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected i:j, got {text!r}") from None


@cache  # main() may run many times in one process
def _parsers():
    """The top-level parser, and each command's own parser by name."""
    parser = argparse.ArgumentParser(
        prog="scdebug",
        description="Annotate scenarios against a domain theory, synthesize "
        "statecharts, and check edited charts back against the scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("theory", help="domain theory file (.dt)")
        p.add_argument("sds", nargs="+", help="sequence diagram files (.sd)")
        p.add_argument(
            "--no-loop",
            action="append",
            type=_no_loop_pair,
            default=[],
            metavar="i:j",
            help="discard unification between messages i and j (repeatable)",
        )

    p_ann = sub.add_parser("annotate", help="annotate scenarios and report conflicts")
    common(p_ann)
    p_ann.add_argument("--json", action="store_true", help="machine-readable report")

    p_syn = sub.add_parser("synth", help="synthesize one statechart per object")
    common(p_syn)
    p_syn.add_argument("-o", "--out", default=".", metavar="DIR", help="output directory")
    p_syn.add_argument("--dot", metavar="DIR", help="also write GraphViz exports here")

    p_chk = sub.add_parser("check", help="replay scenarios against charts and repair")
    common(p_chk)
    p_chk.add_argument("--charts", required=True, metavar="DIR", help="directory of .sc files")
    p_chk.add_argument("--max-edits", type=int, default=4, metavar="N")
    p_chk.add_argument("--strict-guards", action="store_true",
                       help="undetermined cells fail guards instead of passing them")
    p_chk.add_argument("--json", action="store_true")
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


def _read(path) -> str:
    with open(path, "rb") as f:  # bytes decoded at once; the parsers split the line ends
        return f.read().decode("utf-8-sig")  # a leading BOM is not text


def _load_inputs(args):
    dt = parse_domain_theory(_read(args.theory), args.theory)
    sds = [parse_sd(_read(p), p) for p in args.sds]
    pairs = frozenset(args.no_loop)
    for pair in sorted(pairs, key=sorted):
        if not any(all(1 <= i <= len(sd.messages) for i in pair) for sd in sds):
            i, j = min(pair), max(pair)
            raise ValueError(f"--no-loop {i}:{j}: no diagram given has both messages")
    return dt, [sd._replace(no_loop=sd.no_loop | pairs) for sd in sds]


def cmd_annotate(args) -> int:
    dt, sds = _load_inputs(args)
    bundle = annotation_bundle(annotate(sd, dt) for sd in sds)
    sys.stdout.write(render_json(bundle) if args.json else render_text(bundle))
    return FINDINGS if any(conflicts for _, conflicts in bundle.annotations) else OK


def cmd_synth(args) -> int:
    dt, sds = _load_inputs(args)
    try:
        charts, warnings = synthesize(dt, sds)
    except ConflictedInputError as exc:
        sys.stdout.write(render_text(annotation_bundle(exc.results)))
        sys.stdout.write("synthesis refused: fix the conflicts first\n")
        return FINDINGS
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dot_dir = Path(args.dot) if args.dot else None
    if dot_dir:
        dot_dir.mkdir(parents=True, exist_ok=True)
    for obj, chart in charts.items():
        (out_dir / f"{obj}.sc").write_text(print_sc(chart), encoding="utf-8")
        sys.stdout.write(f"wrote {out_dir / (obj + '.sc')}\n")
        if dot_dir:
            (dot_dir / f"{obj}.dot").write_text(export_dot(chart), encoding="utf-8")
            sys.stdout.write(f"wrote {dot_dir / (obj + '.dot')}\n")
    for w in warnings:
        sys.stdout.write(f"warning: {w}\n")
    return OK


def _check_guards(chart, dt, path) -> None:
    """Every guard atom must name a state variable and a value of its
    domain; any other atom could never hold."""
    for _, scope, node in walk(chart):
        for t in scope.transitions if node is None else ():
            for name, value in t.guard.atoms if t.guard else ():
                var = dt.variable(name)
                if var is None or not var.domain.contains(value):
                    why = "names no state variable" if var is None else f"is outside {var.domain.describe()}"
                    raise ValueError(f"{path}: transition {t.source} -> {t.target} : "
                                     f"{transition_label(t)}: guard atom {name} = {value} {why}")


def cmd_check(args) -> int:
    dt, sds = _load_inputs(args)
    chart_dir = Path(args.charts)
    if not chart_dir.is_dir():
        raise FileNotFoundError(f"chart directory {chart_dir} does not exist")
    charts, paths = {}, {}  # chart name -> the chart, the file declaring it
    for path in sorted(chart_dir.glob("*.sc")):
        text = _read(path)
        chart = parse_sc(text, str(path))
        if chart.name in charts:
            raise ParseError((str(path), next(_lines(text))[0]),  # at the header line
                             f"statechart {chart.name!r} is also declared in {paths[chart.name]}")
        _check_guards(chart, dt, path)
        charts[chart.name], paths[chart.name] = chart, path
    if not charts:
        raise ValueError(f"chart directory {chart_dir} holds no .sc file")
    if args.max_edits < 0:
        raise ValueError("--max-edits must be >= 0")
    records = check_all(dt, charts, sds, args.max_edits, args.strict_guards)
    objects = {obj for sd in sds for obj in sd.objects}
    warnings = tuple(f"chart {name!r} in {paths[name]} names no object of the diagrams given"
                     for name in charts if name not in objects)
    bundle = ReportBundle(checks=tuple(records), warnings=warnings, sds=len(sds))
    sys.stdout.write(render_json(bundle) if args.json else render_text(bundle))
    return FINDINGS if any(not r.trace.accepted for r in records) else OK


def main(argv=None) -> int:
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in commands:  # straight to the command's parser
            args, extra = commands[argv[0]].parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
            args.command = argv[0]
        else:  # help, no command or an unknown one
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return ERROR if exc.code not in (0, None) else OK
    try:
        if args.command == "annotate":
            return cmd_annotate(args)
        if args.command == "synth":
            return cmd_synth(args)
        return cmd_check(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return ERROR
    except (AnnotationError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return ERROR
    except Exception as exc:
        # Exit 1 means findings, so a defect must never surface as a traceback.
        detail = " ".join(str(exc).splitlines())
        sys.stderr.write(f"error: internal: {type(exc).__name__}: {detail}\n")
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
