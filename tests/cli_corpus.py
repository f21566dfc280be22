"""A fixed-seed corpus of scdebug runs, for byte-comparing two source trees.

    python tests/cli_corpus.py ROOT OUT

imports scdebug from ``ROOT/src`` and runs ``scdebug.cli.main`` in process
over the fixtures and seeded ``tests/gen`` inputs: ``annotate`` (text,
``--json``, ``--no-loop`` on adjacent messages), ``synth`` with ``--dot``,
``annotate`` (text and ``--json``) of long diagrams (150-400 messages over
3-5 objects) and ``synth`` of those that are conflict-free,
``check`` (text and ``--json``, ``--max-edits 1`` and ``2``) of every single
and adjacent double deletion of SD1, SD2 and the stepper, the refined
stepper at ``--max-edits 4``, ``check`` against two guarded copies of the
stepper chart in both guard modes, diagrams the theory cannot
annotate (an argument too many, one outside its domain) through
``annotate`` and ``check``, one malformed theory, diagram or chart for
each rule only the parsers check, and usage errors (unknown options and
commands, bare commands, a ``--max-edits`` that is not a number).  Inputs and every chart the runs write go
under OUT, which must be new or empty, and ``OUT/log.json`` holds each
run's arguments, exit code, stdout and stderr, with OUT written as
``<OUT>``.  Run it against two trees and compare the two OUT directories
with ``diff -r``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).parent
SEED = 2027


def corpus(out: Path):
    """Yield each run's arguments, writing its inputs under ``out`` first;
    a run may read the charts an earlier one wrote."""
    from gen import conflict_free_pair, gen_sd, gen_theory
    from scdebug.annotator import annotate
    from scdebug.dsl import parse_sd, print_domain_theory, print_sd
    from scdebug.model import Delete, Insert, Message, apply_edit

    inputs, charts = out / "inputs", out / "charts"
    shutil.copytree(HERE / "fixtures", inputs)
    fx = {path.name: str(path) for path in inputs.rglob("*")}

    rng = random.Random(SEED)
    for k in range(210):
        if k < 150:
            dt = gen_theory(rng)
            sd = gen_sd(rng, dt, max_msgs=rng.choice((6, 14)), max_objs=3)
        else:
            dt, sd = conflict_free_pair(rng, max_msgs=8)
        dt_path, sd_path = inputs / f"gen{k}.dt", inputs / f"gen{k}.sd"
        dt_path.write_text(print_domain_theory(dt), encoding="utf-8")
        sd_path.write_text(print_sd(sd), encoding="utf-8")
        no_loop = []
        n = len(sd.messages)
        if k % 2 and n > 1:
            for i in sorted({rng.randint(1, n - 1) for _ in range(rng.randint(1, 3))}):
                no_loop += ["--no-loop", f"{i}:{i + 1}"]
        given = [str(dt_path), str(sd_path), *no_loop]
        yield ["annotate", *given]
        yield ["annotate", *given, "--json"]
        yield ["synth", *given, "-o", str(charts / f"gen{k}"), "--dot", str(out / "dot" / f"gen{k}")]

    # Long diagrams take several fixpoint rounds on several lifelines.
    rng = random.Random(SEED + 1)
    for k in range(12):
        dt = gen_theory(rng)
        sd = gen_sd(rng, dt, max_msgs=400, max_objs=5)
        while len(sd.messages) < 150 or len(sd.objects) < 3:
            sd = gen_sd(rng, dt, max_msgs=400, max_objs=5)
        given = [str(inputs / f"long{k}.dt"), str(inputs / f"long{k}.sd")]
        Path(given[0]).write_text(print_domain_theory(dt), encoding="utf-8")
        Path(given[1]).write_text(print_sd(sd), encoding="utf-8")
        yield ["annotate", *given]
        yield ["annotate", *given, "--json"]
        if not annotate(sd, dt)[1]:
            yield ["synth", *given, "-o", str(charts / f"long{k}")]

    coffee = [fx["theory.dt"], fx["sd1.sd"], fx["sd2.sd"]]
    unfixed = [fx["theory_unfixed.dt"], fx["sd1.sd"]]
    stepper = [fx["stepper.dt"], fx["stepper.sd"]]
    for given in (coffee, unfixed, unfixed + ["--no-loop", "1:11"], stepper):
        yield ["annotate", *given]
        yield ["annotate", *given, "--json"]
    yield ["synth", *coffee, "-o", str(charts / "coffee"), "--dot", str(out / "dot" / "coffee")]
    yield ["synth", *unfixed, "-o", str(charts / "refused")]
    yield ["synth", *stepper, "-o", str(charts / "stepper")]
    yield ["check", *coffee, "--charts", str(charts / "coffee")]
    yield ["check", *unfixed, "--charts", str(charts / "coffee"), "--json"]
    yield ["annotate", *unfixed, "--no-loop", "1:99"]
    yield ["check", *stepper, "--charts", str(charts / "stepper"), "--max-edits", "-1"]

    for dt_name, sd_name, chart_dir in (("theory.dt", "sd1.sd", "coffee"),
                                        ("theory.dt", "sd2.sd", "coffee"),
                                        ("stepper.dt", "stepper.sd", "stepper")):
        sd = parse_sd(Path(fx[sd_name]).read_text(encoding="utf-8"))
        for at in range(1, len(sd.messages) + 1):
            for width in (1, 2)[:len(sd.messages) - at + 1]:
                cut = sd
                for _ in range(width):
                    cut = apply_edit(cut, Delete(at))
                path = inputs / f"{Path(sd_name).stem}-del{at}x{width}.sd"
                path.write_text(print_sd(cut), encoding="utf-8")
                for bound in ("1", "2"):
                    check = ["check", fx[dt_name], str(path), "--charts", str(charts / chart_dir),
                             "--max-edits", bound]
                    yield check
                    yield check + ["--json"]

    refined = ["check", *stepper, "--charts", str(inputs / "stepper_refined"), "--max-edits", "4"]
    yield refined
    yield refined + ["--json"]

    # Copies of the stepper chart of M.  Every guard of the first holds on
    # the stepper diagram but e3's, whose cell is undetermined when e3 comes
    # first, so the two guard modes differ; the second rejects e4.  The
    # diagram without e4 is repaired under the guards.  The last two take
    # e2(7), which the theory refuses, with and without a guard.
    copies = {"stepper_guarded": ("e3 [Step = 0]", "e1 [Step = 0]", "e2 [Step = 1]", "e4 [Step = 2]"),
              "stepper_rejecting": ("e3 [Step = 0]", "e1 [Step = 0]", "e2 [Step = 1]", "e4 [Step = 3]"),
              "arity_unguarded": ("e3", "e1", "e2(7)", "e4"),
              "arity_guarded": ("e3", "e1 [Step = 0]", "e2(7)", "e4")}
    for name, (e3, e1, e2, e4) in copies.items():
        (inputs / name).mkdir()
        (inputs / name / "M.sc").write_text(
            "statechart M\ninitial N1\nstate N1\nstate N2\nstate N3\nstate N4\n"
            f"N1 -> N1 : {e3}\nN1 -> N2 : {e1}\nN2 -> N3 : {e2}\nN3 -> N4 : {e4}\nN4 -> N4 : e5\n",
            encoding="utf-8")
    steps = parse_sd(Path(fx["stepper.sd"]).read_text(encoding="utf-8"))
    late = inputs / "stepper-late.sd"
    late.write_text(print_sd(apply_edit(steps, Insert(Message(1, "e3", (), "Env", "M")))),
                    encoding="utf-8")
    for name in ("stepper_guarded", "stepper_rejecting"):
        for sd_path in (fx["stepper.sd"], str(inputs / "stepper-del3x1.sd"), str(late)):
            for strict in ([], ["--strict-guards"]):
                check = ["check", fx["stepper.dt"], sd_path, "--charts", str(inputs / name),
                         "--max-edits", "2", *strict]
                yield check
                yield check + ["--json"]

    arity = inputs / "stepper-arity.sd"
    first, e2, *rest = steps.messages
    arity.write_text(print_sd(steps._replace(messages=(first, e2._replace(args=("7",)), *rest))),
                     encoding="utf-8")
    yield ["annotate", fx["stepper.dt"], str(arity)]
    for name in ("arity_unguarded", "arity_guarded"):
        yield ["check", fx["stepper.dt"], str(arity), "--charts", str(inputs / name)]
    sd1 = parse_sd(Path(fx["sd1.sd"]).read_text(encoding="utf-8"))
    latte = inputs / "sd1-latte.sd"  # Latte is outside the drink domain
    latte.write_text(print_sd(sd1._replace(messages=tuple(
        m._replace(args=("Latte",)) if m.args else m for m in sd1.messages))), encoding="utf-8")
    yield ["annotate", fx["theory.dt"], str(latte), "--json"]

    # One malformed input for each rule the parsers alone check.
    malformed = {
        "empty-range.dt": "x : 2..1\n",
        "no-labels.dt": "x : enum {}\n",
        "twice-label.dt": "x : enum {a, b, a}\n",
        "repeated.dt": "x : Boolean\ncontext a\n pre: x = T and\n     x = F ;\n post:\n",
        "twice-variable.dt": "x, y : Boolean\ny : 0..1\n",
        "twice-context.dt": "x : Boolean\ncontext a\n pre:\n post:\ncontext a\n pre:\n post:\n",
        "twice-object.sd": "sd S\nobject A\nobject B\nobject A\n",
        "undeclared.sd": "sd S\nobject A\nmsg 1 A -> B : x\n",
        "out-of-order.sd": "sd S\nobject A\nobject B\nmsg 1 A -> B : x\nmsg 3 B -> A : y\n",
        "twice-node/M.sc": "statechart M\ninitial A\nstate A\nstate G {\n  initial A\n  state A\n}\n",
        "no-initial/M.sc": "statechart M\ninitial G\nstate G {\n  initial B\n  state A\n}\n",
    }
    for name, text in malformed.items():
        path = inputs / "malformed" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        if name.endswith(".dt"):
            yield ["annotate", str(path), fx["sd1.sd"]]
        elif name.endswith(".sd"):
            yield ["annotate", fx["theory.dt"], str(path)]
        else:
            yield ["check", *stepper, "--charts", str(path.parent)]

    # Usage errors, each reported by argparse with exit code 2: an unknown
    # option after each command, at a seeded place among its arguments and
    # sometimes with a value, each command bare, an unknown command and a
    # --max-edits that is not a number.
    rng = random.Random(SEED + 2)
    for command, given in (("annotate", coffee), ("synth", coffee + ["-o", str(charts / "usage")]),
                           ("check", coffee + ["--charts", str(charts / "coffee")])):
        option = rng.choice(("--bogus", "--verbose", "-x", "--out-dir", "--jsonl=1"))
        at = rng.randint(1, len(given))
        yield [command, *given[:at], option, *given[at:]]
        yield [command, *given, option, *rng.choice(([], ["1"], ["--json"]))]
        yield [command]
    yield ["bogus", *coffee]
    yield ["annotat", *coffee]
    yield ["check", *coffee, "--charts", str(charts / "coffee"), "--max-edits", "x"]


def run(root: Path, out: Path) -> list[dict]:
    """Run the corpus against ``root``'s scdebug and write ``out/log.json``."""
    sys.path[:0] = [str(root / "src"), str(HERE)]
    from scdebug.cli import main

    out.mkdir(parents=True, exist_ok=True)
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage lines to this width
    log = []
    for args in corpus(out):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(args)
        log.append({"args": [arg.replace(str(out), "<OUT>") for arg in args], "code": code,
                    "stdout": stdout.getvalue().replace(str(out), "<OUT>"),
                    "stderr": stderr.getvalue().replace(str(out), "<OUT>")})
    (out / "log.json").write_text(json.dumps(log, indent=1) + "\n", encoding="utf-8")
    return log


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    target = Path(sys.argv[2])
    if target.exists() and (not target.is_dir() or any(target.iterdir())):
        sys.exit(f"cli_corpus.py: {target} exists and is not an empty directory")
    ran = run(Path(sys.argv[1]).resolve(), target.resolve())
    sys.stdout.write(f"{len(ran)} runs logged in {Path(sys.argv[2]) / 'log.json'}\n")
