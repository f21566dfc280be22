"""Command line entry point.

Exit codes: 0 clean, 1 findings (conflicts or rejected replays), 2 on
usage, parse, or validation errors.  All output is deterministic for fixed
inputs and flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from pathlib import Path

from .annotator import AnnotationError, annotate
from .checker import check_all
from .dsl import ParseError, _lines, parse_domain_theory, parse_sc, parse_sd, print_sc
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
    # No abbreviations: a prefix of one option would stop working once a
    # longer option shares it.
    parser = argparse.ArgumentParser(
        prog="scdebug",
        allow_abbrev=False,
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

    p_ann = sub.add_parser("annotate", allow_abbrev=False,
                           help="annotate scenarios and report conflicts")
    common(p_ann)
    p_ann.add_argument("--json", action="store_true", help="machine-readable report")

    p_syn = sub.add_parser("synth", allow_abbrev=False,
                           help="synthesize one statechart per object")
    common(p_syn)
    p_syn.add_argument("-o", "--out", default=".", metavar="DIR", help="output directory")
    p_syn.add_argument("--dot", metavar="DIR", help="also write GraphViz exports here")

    p_chk = sub.add_parser("check", allow_abbrev=False,
                           help="replay scenarios against charts and repair")
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
    # Unbuffered: one read of the whole file, decoded at once; the parsers
    # split the line ends.
    with open(path, "rb", buffering=0) as f:
        return f.read().decode("utf-8-sig")  # a leading BOM is not text


def _write(path, text: str) -> None:
    """Write ``text`` over what the file at ``path`` holds, creating it if
    need be, then cut the file to the new length.  Truncating at open
    instead costs ext4 a writeback on close, several times the write
    itself.  The write is not atomic: a failed or interrupted write can
    leave a file that holds neither the old text nor the new, and writing
    again mends it."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as f:
        f.write(text)
        f.truncate()


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
    bundle = annotation_bundle(dt, ((sd, *annotate(sd, dt)) for sd in sds))
    sys.stdout.write(render_json(bundle) if args.json else render_text(bundle))
    return FINDINGS if any(conflicts for *_, conflicts in bundle.annotations) else OK


def cmd_synth(args) -> int:
    dt, sds = _load_inputs(args)
    try:
        charts, warnings = synthesize(dt, sds)
    except ConflictedInputError as exc:
        sys.stdout.write(render_text(annotation_bundle(dt, exc.results)))
        sys.stdout.write("synthesis refused: fix the conflicts first\n")
        return FINDINGS
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dot_dir = Path(args.dot) if args.dot else None
    if dot_dir:
        dot_dir.mkdir(parents=True, exist_ok=True)
    for obj, chart in charts.items():
        _write(out_dir / f"{obj}.sc", print_sc(chart))
        sys.stdout.write(f"wrote {out_dir / (obj + '.sc')}\n")
        if dot_dir:
            _write(dot_dir / f"{obj}.dot", export_dot(chart))
            sys.stdout.write(f"wrote {dot_dir / (obj + '.dot')}\n")
    for w in warnings:
        sys.stdout.write(f"warning: {w}\n")
    return OK


def cmd_check(args) -> int:
    dt, sds = _load_inputs(args)
    chart_dir = Path(args.charts)
    if not chart_dir.is_dir():
        why = "is not a directory" if chart_dir.exists() else "does not exist"
        raise FileNotFoundError(f"chart directory {chart_dir} {why}")
    # Every entry named *.sc, hidden ones too, in code-point order; one that
    # is not a readable file is an error, and an unreadable directory holds
    # no chart.
    try:
        names = sorted(name for name in os.listdir(chart_dir) if name.endswith(".sc"))
    except PermissionError:
        names = []
    charts, paths = {}, {}  # chart name -> the chart, the file declaring it
    for name in names:
        path = chart_dir / name
        text = _read(path)
        chart = parse_sc(text, str(path), dt)
        if chart.name in charts:
            raise ParseError((str(path), next(_lines(text))[0]),  # at the header line
                             f"statechart {chart.name!r} is also declared in {paths[chart.name]}")
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
