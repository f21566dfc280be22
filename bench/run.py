"""The scdebug benchmark: one command, every metric, a correctness verdict.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each one exists):

- ``annotate-long``: long diagrams through ``scdebug annotate``;
- ``synth-cyclic``: cyclic protocols and mergeable corpora through
  ``scdebug synth``, where hierarchy introduction dominates;
- ``check-coffee``: coffee-machine and stepper diagrams with deleted
  messages through ``scdebug check``, against charts synthesized from the
  intact diagrams during set-up.

Load is one closed-loop client: one operation at a time, in a child process
that imports the checkout's ``src``, and never more than one child at once.
Every operation's output is checked by ``oracle.py``, which does not import
scdebug.  With ``--trace 0`` the last line of stdout carries the end-to-end
metrics; with ``--trace 1`` a separate traced run gives the per-layer ones.
Every untraced run also climbs the four capacity ladders (``reach_*``), since
each workload reports every end-to-end metric.  ``wall_ratio`` divides the
time of the timed passes by that of the same commands run back to back by
``bench/baseline/scdebug_seed``, a frozen copy of scdebug 0.1.0: host speed
here drifts by up to 1.8x over minutes, and the pairing cancels it.
The full record (environment, corpus digest, fixture snapshot, rung
details, problems) is written under ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import oracle
from gen import COFFEE, SD1, SD2, STEPPER, STEPPER_SD

ROOT = Path(__file__).resolve().parents[1]
WORK = ".bench_work"  # generated inputs and outputs, relative to ROOT
RESULTS = ".bench_results"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_CHILDREN = 3  # imports measured after each worker segment, which warmed the file cache

# Capacity ladders: each rung runs in a fresh child under a CPU-time limit.
# On a 2-vCPU Xeon host the 16-state rung takes 0.5-0.9 s and the depth-2
# repair rung 2-3 s, so the limits sit well above what passes at seed.
MSG_RUNGS = (250, 500, 1000, 2000, 5000)
STATE_RUNGS = (8, 16, 32, 64, 200)
EDIT_RUNGS = (1, 2, 3)
RECEIVED_RUNGS = (250, 500, 1000, 2000, 4000)
MSG_LIMIT_S, STATE_LIMIT_S, EDIT_LIMIT_S, RECEIVED_LIMIT_S = 5.0, 1.5, 3.0, 5.0

# The paper's worked example, as the README quotes it.
WORKED_CONFLICT = """\
Conflict in SD1: Object Coffee-UI
 statevector after  "Insert coin"       = <T,F,T,1,none> [Msg 2]
 statevector before "Request Selection" = <T,F,F,1,none> [Msg 3]
  conflict in variable "CoffeeTypeSelected"
  conflict occurred as consequence of unification of
   statevector after  "Display Ready Light" = <F,F,T,0,none> [Msg 1]
   statevector after  "Display Ready Light" = <F,F,T,0,none> [Msg 11]
   statevector after  "Take coin"           = <F,F,T,0,none> [Msg 10]
"""


class Corpus:
    """Generated files, the ops that run on them, and a check per op."""

    def __init__(self, name: str):
        self.dir = f"{WORK}/{name}"
        self.files: dict[str, str] = {}
        self.before: list[dict] = []  # untimed set-up ops
        self.ops: list[dict] = []  # the timed pass
        self.after: list[dict] = []  # fixture ops, run once
        self.checks: dict = {}  # op id -> fn(result) -> (problems, misses)

    def file(self, name: str, text: str) -> str:
        path = f"{self.dir}/{name}"
        self.files[path] = text
        return path

    def add(self, where: list, op_id: str, argv: list, check, ref_argv=None) -> None:
        """`ref_argv`: the command for the baseline copy, where it must not
        overwrite the program's output files."""
        where.append({"id": op_id, "argv": argv, "ref_argv": ref_argv or argv})
        self.checks[op_id] = check

    def annotate(self, op_id, th, sd, as_json, exact=None):
        argv = ["annotate", self.file(f"{op_id}.dt", gen.render_theory(th)),
                self.file(f"{op_id}.sd", gen.render_sd(sd))] + (["--json"] if as_json else [])
        self.add(self.ops, op_id, argv, lambda r: (
            oracle.annotate_problems(th, sd, r["rc"], r["stdout"], as_json, exact), []))

    def synth(self, where, op_id, th, sds, edges=None, states=None):
        """`edges`/`states`: what M's chart must be, when the corpus fixes it."""
        out, ref_out = f"{self.dir}/out/{op_id}", f"{self.dir}/ref-out/{op_id}"
        argv = ["synth", self.file(f"{op_id}.dt", gen.render_theory(th))]
        argv += [self.file(f"{op_id}-{i}.sd", gen.render_sd(sd)) for i, sd in enumerate(sds)]

        def check(r):
            if r["rc"] != 0:
                return [f"exit code {r['rc']}: {r['stderr'].strip()}"], []
            problems = []
            objects = sorted({o for sd in sds for o in sd.objects})
            for obj in objects:
                for path in (f"{out}/{obj}.sc", f"{out}/dot/{obj}.dot"):
                    if f"wrote {path}\n" not in r["stdout"] or not (ROOT / path).is_file():
                        problems.append(f"{path} not written")
            if problems:
                return problems, []
            charts = {o: oracle.Chart((ROOT / f"{out}/{o}.sc").read_text()) for o in objects}
            for sd in sds:
                for obj in sd.objects:
                    if not oracle.accepts(charts[obj], sd, obj):
                        problems.append(f"chart of {obj} rejects {sd.name}")
            if edges is not None:
                m = charts["M"]
                if oracle.chart_edges(m) != edges or len(m.comments) != states:
                    problems.append(f"chart of M has {len(m.comments)} states and "
                                    f"{len(m.transitions)} transitions, expected {states} and {len(edges)}")
                elif m.comments[m.initial] != "<0>":
                    problems.append(f"chart of M starts in {m.comments[m.initial]}")
            return problems, []

        self.add(where, op_id, argv + ["-o", out, "--dot", f"{out}/dot"], check,
                 argv + ["-o", ref_out, "--dot", f"{ref_out}/dot"])
        return out

    def check(self, op_id, th_path, th, sd, charts_dir, max_edits, deleted=()):
        argv = ["check", th_path, self.file(f"{op_id}.sd", gen.render_sd(sd.without(deleted))),
                "--charts", charts_dir, "--max-edits", str(max_edits), "--json"]
        deleted_to = [sd.messages[i - 1].receiver for i in deleted]

        def verify(r):
            if r["rc"] not in (0, 1):
                return [f"exit code {r['rc']}: {r['stderr'].strip()}"], []
            charts = {p.stem: oracle.Chart(p.read_text()) for p in (ROOT / charts_dir).glob("*.sc")}
            return oracle.check_problems(th, sd.without(deleted), charts, json.loads(r["stdout"]),
                                         r["rc"], max_edits, deleted_to)

        self.add(self.ops, op_id, argv, verify)


# ---------------------------------------------------------------------------
# Workloads


def annotate_long(rng) -> Corpus:
    c = Corpus("annotate-long")
    c.annotate("coffee-a", COFFEE, gen.coffee_episodes(rng, "CoffeeA", 34, 6), True)
    c.annotate("coffee-b", COFFEE, gen.coffee_episodes(rng, "CoffeeB", 20, 4), False)
    for op_id, k, laps, as_json in (("ring-a", 8, 40, True), ("ring-b", 6, 40, False)):
        ring = gen.cyclic(rng, k, laps)
        c.annotate(op_id, ring.theory, ring.sd, as_json, exact=set())
    for op_id, as_json in (("chain-a", True), ("chain-b", False)):
        chain = gen.frame_chain(rng, 300, ("A", "B", "C"))
        c.annotate(op_id, chain.theory, chain.sd, as_json, exact=chain.planted())
    for i in range(4):
        th, sd = gen.random_pair(rng, 60, f"R{i}")
        c.annotate(f"random-{i}", th, sd, True)
    return c


def synth_cyclic(rng) -> Corpus:
    c = Corpus("synth-cyclic")
    for k in (12, 14, 16):
        ring = gen.cyclic(rng, k, 2)
        c.synth(c.ops, f"ring-{k}", ring.theory, [ring.sd], ring.chart_edges(), k)
    for i in range(2):
        w = gen.walks(rng, 10, 6, 40, f"W{i}x")
        visited = {s for e in w.edges for s in e[:2]}
        c.synth(c.ops, f"walks-{i}", w.theory, w.sds, w.edges, len(visited))
    return c


def check_coffee(rng) -> Corpus:
    """Every single-message deletion of SD1 and SD2 at --max-edits 1, and
    of the stepper at --max-edits 2, plus SD1 without messages 4 and 5.

    The deletions are exhaustive, so the seed only picks the drinks and the
    order of the cases: the search cost does not depend on the seed.
    """
    c = Corpus("check-coffee")
    sd1, sd2 = (gen.with_drink(sd, rng.choice(gen.DRINKS)) for sd in (SD1, SD2))
    coffee_dt = c.file("coffee.dt", gen.render_theory(COFFEE))
    stepper_dt = c.file("stepper.dt", gen.render_theory(STEPPER))
    coffee = c.synth(c.before, "charts-coffee", COFFEE, [sd1, sd2])
    stepper = c.synth(c.before, "charts-stepper", STEPPER, [STEPPER_SD])
    cases = [(f"sd1-del{m}-e1", coffee_dt, COFFEE, sd1, coffee, 1, (m,)) for m in range(1, 12)]
    cases += [(f"sd2-del{m}-e1", coffee_dt, COFFEE, sd2, coffee, 1, (m,)) for m in range(1, 8)]
    cases += [(f"stepper-del{m}-e2", stepper_dt, STEPPER, STEPPER_SD, stepper, 2, (m,)) for m in range(1, 5)]
    cases.append(("sd1-del45-e1", coffee_dt, COFFEE, sd1, coffee, 1, (4, 5)))
    rng.shuffle(cases)
    for case in cases:
        c.check(*case)
    return c


WORKLOADS = {"annotate-long": annotate_long, "synth-cyclic": synth_cyclic, "check-coffee": check_coffee}


# ---------------------------------------------------------------------------
# The README commands on tests/fixtures: verdicts, exit codes, snapshot


def add_fixture_ops(c: Corpus) -> None:
    fx = "tests/fixtures"
    golden = f"{WORK}/golden"
    bad_sd = c.file("bad.sd", "sd Bad\nobject A\nmsg 1 A -> B : x\n")

    def expect(rc, must_contain=""):
        def check(r):
            if r["rc"] != rc:
                return [f"exit code {r['rc']} ({r['stderr'].strip()}), expected {rc}"], []
            return ([] if must_contain in r["stdout"] else [f"output lacks {must_contain!r}"]), []
        return check

    unfixed = ["annotate", f"{fx}/theory_unfixed.dt", f"{fx}/sd1.sd"]
    cases = [
        ("readme-conflict", unfixed, expect(1, WORKED_CONFLICT)),
        ("readme-conflict-json", unfixed + ["--json"], expect(1, '"variable": "CoffeeTypeSelected"')),
        ("readme-no-loop", unfixed + ["--no-loop", "1:11"], expect(0)),
        ("readme-no-loop-json", unfixed + ["--no-loop", "1:11", "--json"], expect(0)),
        ("readme-fixed", ["annotate", f"{fx}/theory.dt", f"{fx}/sd1.sd"], expect(0)),
        ("readme-fixed-json", ["annotate", f"{fx}/theory.dt", f"{fx}/sd1.sd", "--json"], expect(0)),
        ("readme-synth", ["synth", f"{fx}/theory.dt", f"{fx}/sd1.sd", f"{fx}/sd2.sd",
                          "-o", f"{golden}/charts", "--dot", f"{golden}/charts/dot"], expect(0)),
        ("readme-check", ["check", f"{fx}/theory.dt", f"{fx}/sd1.sd", f"{fx}/sd2.sd",
                          "--charts", f"{golden}/charts"], expect(0)),
        ("readme-check-json", ["check", f"{fx}/theory.dt", f"{fx}/sd1.sd", f"{fx}/sd2.sd",
                               "--charts", f"{golden}/charts", "--json"], expect(0)),
        ("readme-repair", ["check", f"{fx}/stepper.dt", f"{fx}/stepper.sd",
                           "--charts", f"{fx}/stepper_refined", "--max-edits", "4"], expect(1)),
        ("readme-repair-json", ["check", f"{fx}/stepper.dt", f"{fx}/stepper.sd",
                                "--charts", f"{fx}/stepper_refined", "--max-edits", "4", "--json"], expect(1)),
        ("exit2-missing-file", ["annotate", f"{fx}/theory.dt", f"{golden}/missing.sd"], expect(2)),
        ("exit2-parse-error", ["annotate", f"{fx}/theory.dt", bad_sd], expect(2)),
        ("exit2-usage", unfixed + ["--no-loop", "1-11"], expect(2)),
    ]
    for op_id, argv, check in cases:
        c.add(c.after, op_id, argv, check)


def snapshot(outputs: dict, ids) -> dict:
    """sha256 of every fixture output and of every file the fixture synth
    wrote: the byte-identical reference for refactors, not a verdict."""
    snap = {i: hashlib.sha256(outputs[i]["stdout"].encode()).hexdigest() for i in ids}
    for path in sorted((ROOT / WORK / "golden").rglob("*")):
        if path.is_file():
            snap[str(path.relative_to(ROOT / WORK))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return snap


# ---------------------------------------------------------------------------
# Children


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_worker(job: dict, name: str, timeout: float) -> tuple[int | None, dict | None]:
    """Run one worker child; (exit code or None if killed, its result)."""
    job_path, result_path = ROOT / WORK / f"{name}.job.json", ROOT / WORK / f"{name}.result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    proc = subprocess.Popen([sys.executable, str(WORKER), str(job_path), str(result_path)],
                            cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None, None
    if rc == 0 and result_path.is_file():
        return rc, json.loads(result_path.read_text(encoding="utf-8"))
    return rc, None


def _output(res) -> tuple:
    return res["rc"], res["error"], res["stdout"]


def run_passes(job: dict, segments: int, between: list) -> dict | None:
    """Run the timed passes in `segments` fresh workers, calling the next of
    `between` after each one, and pool what they measured.

    Host speed drifts over seconds to minutes, so spreading the passes over
    the whole run, between the set-up children and the ladders, makes the
    median of wall_s sample more of that drift than one block of passes."""
    pooled = None
    for i in range(segments):
        part = dict(job, seconds=job["seconds"] / segments, min_passes=-(-job["min_passes"] // segments),
                    after=job["after"] if i == segments - 1 else [])
        rc, w = run_worker(part, f"passes{i}", timeout=150)
        if w is None:
            sys.stderr.write(f"worker failed (exit code {rc})\n")
            return None
        w["runs_per_op"] = 1 + len(w.get("passes") or w["untraced"] + w["traced"])
        if pooled is None:
            pooled = w
        else:
            changed = {k for k, v in w["outputs"].items() if k in pooled["outputs"]
                       and _output(v) != _output(pooled["outputs"][k])}
            pooled["unstable"] = sorted(set(pooled["unstable"]) | set(w["unstable"]) | changed)
            pooled["outputs"].update({k: v for k, v in w["outputs"].items() if k not in pooled["outputs"]})
            pooled["passes"] += w["passes"]
            pooled["ref_passes"] += w["ref_passes"]
            pooled["attempted"] += w["attempted"]
            pooled["runs_per_op"] += w["runs_per_op"]
        between[i]()
    return pooled


def setup_seconds(importtime: bool) -> tuple[list, dict]:
    """Wall times of fresh interpreters importing scdebug.cli, and (with
    `importtime`) each scdebug module's own median import time."""
    times, modules = [], {}
    argv = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", "import scdebug.cli"]
    for _ in range(SETUP_CHILDREN):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"importing scdebug.cli failed: {proc.stderr.strip()}")
        times.append(elapsed)
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s+(scdebug(\.\w+)?)$", line)
            if m:
                modules.setdefault(m.group(2), []).append(int(m.group(1)) / 1e6)
    return times, {k: statistics.median(v) for k, v in modules.items()}


def verdict(check, res) -> tuple[list, list]:
    """(problems, witness misses) of one op's result.  A crash, or output
    the check cannot read, is a problem of that op and never aborts the run."""
    if res["error"]:
        return [res["error"]], []
    try:
        return check(res)
    except Exception as exc:  # malformed output fails the op, not the benchmark
        return [f"unreadable output ({type(exc).__name__}: {exc})"], []


# ---------------------------------------------------------------------------
# Ladders


def rung(files: dict, name: str, argv: list, limit: float, check, before=()) -> dict:
    """Run one rung in a fresh child; ok only if it finished within `limit`
    CPU seconds and its output passed `check`."""
    gen.write(ROOT, files)
    rc, res = run_worker({"kind": "rung", "argv": argv, "cpu_limit": limit, "before": list(before)},
                         name, timeout=2 * limit + 15)
    if rc is None:
        return {"status": "killed"}
    if rc == 3:
        return {"status": f"timeout (over {limit} s CPU)"}
    if res is None or "stdout" not in res:
        return {"status": f"worker failed (exit {rc})", "detail": res}
    out = {"seconds": res["seconds"], "cpu_seconds": res["cpu_seconds"]}
    if res["error"]:
        return {**out, "status": f"crash: {res['error']}"}
    problems, misses = verdict(check, res)
    return {**out, "status": "ok" if not problems + misses else f"wrong: {(problems + misses)[0]}"}


def ladder(rungs, run_one) -> tuple[int, list]:
    """Every rung runs, even above a failure; reach is the largest rung
    that passed."""
    results = []
    for size in rungs:
        results.append({"rung": size, **run_one(size)})
    ok = [r["rung"] for r in results if r["status"] == "ok"]
    return (max(ok) if ok else 0), results


def ladders(rng) -> list:
    """(metric name, rungs, run one rung) per capacity ladder."""
    d = f"{WORK}/ladders"

    def chain_rung(n):
        ch = gen.frame_chain(rng, n, ("A", "B"))
        files = {f"{d}/chain{n}.dt": gen.render_theory(ch.theory), f"{d}/chain{n}.sd": gen.render_sd(ch.sd)}
        return rung(files, f"msgs{n}", ["annotate", *files, "--json"], MSG_LIMIT_S, lambda r: (
            oracle.annotate_problems(ch.theory, ch.sd, r["rc"], r["stdout"], True, ch.planted()), []))

    def ring_rung(k):
        ring = gen.cyclic(rng, k, 2)
        c = Corpus(f"ladders/ring{k}")
        c.synth(c.ops, f"ring{k}", ring.theory, [ring.sd], ring.chart_edges(), k)
        return rung(c.files, f"states{k}", c.ops[0]["argv"], STATE_LIMIT_S, c.checks[f"ring{k}"])

    def edits_rung(e):
        c = Corpus(f"ladders/edits{e}")
        charts = c.synth(c.before, "charts", COFFEE, [SD1, SD2])
        c.check("sd1-del45", c.file("coffee.dt", gen.render_theory(COFFEE)), COFFEE, SD1, charts, e, (4, 5))
        return rung(c.files, f"edits{e}", c.ops[0]["argv"], EDIT_LIMIT_S, c.checks["sd1-del45"], c.before)

    def received_rung(n):
        ring = gen.cyclic(rng, 5, n // 5)
        files = {f"{d}/recv{n}.dt": gen.render_theory(ring.theory), f"{d}/recv{n}.sd": gen.render_sd(ring.sd),
                 f"{d}/recv{n}/M.sc": gen.ring_chart(ring)}
        charts = {"M": oracle.Chart(files[f"{d}/recv{n}/M.sc"])}
        argv = ["check", f"{d}/recv{n}.dt", f"{d}/recv{n}.sd", "--charts", f"{d}/recv{n}", "--json"]
        return rung(files, f"received{n}", argv, RECEIVED_LIMIT_S, lambda r: oracle.check_problems(
            ring.theory, ring.sd, charts, json.loads(r["stdout"]), r["rc"], 4, []))

    return [("reach_msgs", MSG_RUNGS, chain_rung), ("reach_states", STATE_RUNGS, ring_rung),
            ("reach_edits", EDIT_RUNGS, edits_rung), ("reach_received", RECEIVED_RUNGS, received_rung)]


# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)), "dont_write_bytecode": sys.dont_write_bytecode,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "recursion_limit": sys.getrecursionlimit(), "git_commit": commit, "seed": seed}


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


PER_LAYER = {
    "annotator": ("annotate", "initialize_vectors", "frame_propagate", "identification_candidates",
                  "detect_conflicts"),
    "synthesizer": ("synthesize", "synth_object_chart", "merge_charts", "introduce_hierarchy",
                    "to_statechart", "flatten"),
    "checker": ("check_all", "repair", "replay"),
    "dsl": ("parse_domain_theory", "parse_sd", "parse_sc", "print_sc"),
    "report": ("render_text", "render_json", "export_dot"),
    "cli": ("main",),
}
CALLS = ("annotator.annotate", "annotator.frame_propagate", "annotator.identification_candidates",
         "synthesizer.flatten", "checker.replay", "model.unify", "model.apply_edit")
IMPORTED = ("scdebug", "scdebug.model", "scdebug.dsl", "scdebug.annotator", "scdebug.synthesizer",
            "scdebug.checker", "scdebug.report", "scdebug.cli")


def layer_metrics(w: dict, modules: dict, misses: int) -> dict:
    lay = w["layers"]

    def ratio(a, b):
        return lay.get(a, 0.0) / lay[b] if lay.get(b) else 0.0

    out = {}
    for layer, names in PER_LAYER.items():
        for name in names:
            out[f"{layer}.{name}.self_s"] = metric(lay.get(f"{layer}.{name}.self_s", 0.0), "s")
    for name in CALLS:
        out[f"{name}.calls"] = metric(lay.get(f"{name}.calls", 0.0), "count")
    out["annotator.identification.useful_ratio"] = metric(
        ratio("annotator.apply_identification.calls", "annotator.identification_candidates.calls"), "ratio")
    out["synthesizer.states"] = metric(lay.get("synthesizer.states", 0.0), "count")
    out["synthesizer.composites"] = metric(lay.get("synthesizer.composites", 0.0), "count")
    out["checker.replay.accept_ratio"] = metric(ratio("checker.replay.accepted", "checker.replay.calls"), "ratio")
    out["checker.repair.leaves"] = metric(lay.get("checker.repair.leaves", 0.0), "count")
    out["checker.insert_candidates.size"] = metric(
        ratio("checker.insert_candidates.items", "checker.insert_candidates.calls"), "count")
    out["checker.repair.witness_misses"] = metric(float(misses), "count")
    out["dsl.parse_sd.msgs_per_s"] = metric(ratio("dsl.parse_sd.msgs", "dsl.parse_sd.self_s"), "1/s")
    for mod in IMPORTED:
        out[f"import.{mod}.self_s"] = metric(modules.get(mod, 0.0), "s")
    out["trace.overhead_s"] = metric(statistics.median(w["traced"]) - statistics.median(w["untraced"]), "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "scdebug" / "cli.py").is_file():
        sys.stderr.write(f"no scdebug sources under {ROOT / 'src'}: run from a checkout of the repository\n")
        return 2

    t0 = time.perf_counter()
    shutil.rmtree(ROOT / WORK, ignore_errors=True)
    rng = random.Random(args.seed)
    corpus = WORKLOADS[args.workload](rng)
    digest = gen.digest(corpus.files)
    if gen.digest(WORKLOADS[args.workload](random.Random(args.seed)).files) != digest:
        raise RuntimeError("the same seed gave two different corpora")
    add_fixture_ops(corpus)
    gen.write(ROOT, corpus.files)
    record = {"workload": args.workload, "env": environment(args.seed), "corpus_sha256": digest,
              "waiting": "none: one thread, no queue or lock, one op at a time"}

    job = {"kind": "passes", "before": corpus.before, "ops": corpus.ops, "after": corpus.after,
           "seconds": args.seconds, "trace": bool(args.trace), "reference": not args.trace, "min_passes": 3,
           "spans": str(ROOT / WORK / "spans.jsonl")}
    if args.trace:
        w = run_passes(job, 1, [lambda: None])
        _, modules = setup_seconds(importtime=True)
    else:
        reach, setup = {}, []  # setup: import times sampled after every segment

        def measure_ladder(name, rungs, fn):
            reach[name], record.setdefault("ladders", {})[name] = ladder(rungs, fn)

        def step(item):
            setup.extend(setup_seconds(importtime=False)[0])
            measure_ladder(*item)

        steps = [lambda item=item: step(item) for item in ladders(random.Random(args.seed))]
        w = run_passes(job, len(steps), steps)
    if w is None:
        return 1

    problems, misses, failed = {}, [], 0
    runs_per_op = w["runs_per_op"]
    for op in corpus.before + corpus.ops + corpus.after:
        found, missed = verdict(corpus.checks[op["id"]], w["outputs"][op["id"]])
        if op["id"] in w["unstable"]:
            found.append("output changed between passes")
        misses += missed
        if found:
            problems[op["id"]] = found
            failed += runs_per_op if op in corpus.ops else 1
    record.update(problems=problems, witness_misses=misses,
                  fixture_snapshot=snapshot(w["outputs"], [op["id"] for op in corpus.after]))

    if args.trace:
        metrics = layer_metrics(w, modules, len(misses))
    else:
        metrics = {
            # Total over all paired passes: single pairs swing by +-20% here.
            "wall_ratio": metric(sum(w["passes"]) / sum(w["ref_passes"]), "ratio"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mib": metric(w["rss_mib"], "MiB"),
            "reach_msgs": metric(reach["reach_msgs"], "messages"),
            "reach_states": metric(reach["reach_states"], "states"),
            "reach_edits": metric(reach["reach_edits"], "edits"),
            "reach_received": metric(reach["reach_received"], "messages"),
        }
        record.update(wall_s_passes=w["passes"], baseline_s_passes=w["ref_passes"])
    result = {"correct": failed == 0, "attempted": w["attempted"], "failed": failed, "metrics": metrics}
    record.update(result=result, run_seconds=time.perf_counter() - t0)
    out_dir = ROOT / RESULTS
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    snap = hashlib.sha256(json.dumps(record["fixture_snapshot"], sort_keys=True).encode()).hexdigest()
    print(f"workload {args.workload}  seed {args.seed}  corpus sha256 {digest[:16]}  "
          f"fixture snapshot sha256 {snap[:16]}")
    print("environment " + json.dumps(record["env"]))
    for name, rows in record.get("ladders", {}).items():
        print(f"{name}: " + ", ".join(f"{r['rung']} {r['status']}" for r in rows))
    for line in misses:
        print(f"known defect (repair above the re-insertion witness): {line}")
    for op_id, found in problems.items():
        print(f"FAILED {op_id}: {'; '.join(found)}")
    if not args.trace:
        print(f"median pass: {statistics.median(w['passes']):.4f} s, "
              f"baseline copy {statistics.median(w['ref_passes']):.4f} s")
    print(f"ops attempted {w['attempted']}, failed {failed}, correct {failed == 0}")
    for name, m in metrics.items():
        print(f"  {name:<45} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
