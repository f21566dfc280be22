"""Child process that runs scdebug commands in process and times them.

Usage: python3 bench/worker.py JOB.json RESULT.json

Every operation is one ``scdebug.cli.main(argv)`` call with stdout and
stderr captured.  A job is one of:

- ``passes``: the ``before`` ops once (untimed set-up), one warm-up pass
  over ``ops`` (its outputs are kept for checking, and the peak RSS is read
  right after it), then timed passes until ``seconds`` have been measured
  and at least ``min_passes`` ran, then the ``after`` ops once.  With
  ``reference`` set, every timed op is paired with the same command run by
  the frozen baseline copy (``bench/baseline/scdebug_seed``), back to back
  and in alternating order, so both see the same host speed.  With
  ``trace`` set, traced and untraced passes alternate instead, and
  per-layer metrics come from the traced ones.
- ``rung``: the ``before`` ops once, then one op under a CPU-time limit
  (``cpu_limit`` seconds); the child exits with code 3 when it hits it.

The checkout's ``src`` must hold the scdebug that gets imported; anything
else is refused.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMED_OUT = 3  # exit code of a rung stopped by its CPU limit


def import_cli(package="scdebug", where=ROOT / "src"):
    sys.path.insert(0, str(where))
    cli = importlib.import_module(f"{package}.cli")
    if Path(cli.__file__).resolve().parent != where / package:
        raise ImportError(f"imported {package} from {cli.__file__}, not from {where}")
    return cli


def run_op(cli, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        error = None
    except Exception as exc:  # a crash is this op's result, not the run's
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        rc, error = None, f"{type(exc).__name__} at {Path(frame.filename).name}:{frame.lineno} in {frame.name}"
    return {"rc": rc, "error": error, "seconds": time.perf_counter() - start,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def _digest(res) -> str:
    return hashlib.sha256(f"{res['rc']}\0{res['error']}\0{res['stdout']}".encode()).hexdigest()


def passes(cli, job) -> dict:
    before = {op["id"]: run_op(cli, op["argv"]) for op in job["before"]}
    first = {op["id"]: run_op(cli, op["argv"]) for op in job["ops"]}
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    digests = {k: _digest(v) for k, v in first.items()}
    unstable, attempted = set(), len(first)

    ref = None
    if job["reference"]:
        ref = import_cli("scdebug_seed", ROOT / "bench" / "baseline")
        for op in job["ops"]:
            run_op(ref, op["ref_argv"])
    ref_times = []

    def one_pass(tracer=None) -> float:
        nonlocal attempted
        total = ref_total = 0.0
        ref_first = len(ref_times) % 2 == 1
        for op in job["ops"]:
            if tracer is not None:
                tracer.op = op["id"]
            if ref is not None and ref_first:
                ref_total += run_op(ref, op["ref_argv"])["seconds"]
            res = run_op(cli, op["argv"])
            if ref is not None and not ref_first:
                ref_total += run_op(ref, op["ref_argv"])["seconds"]
            total += res["seconds"]
            attempted += 1
            if _digest(res) != digests[op["id"]]:
                unstable.add(op["id"])
        if ref is not None:
            ref_times.append(ref_total)
        return total

    result = {"rss_mib": rss_mib}
    if job["trace"]:
        # Traced and untraced passes alternate, so a drift in machine speed
        # lands on both sides of the overhead estimate.
        from spans import Tracer

        tracer, untraced, traced, layers = Tracer(), [], [], []
        with open(job["spans"], "w", encoding="utf-8") as spans_out:
            while sum(untraced) + sum(traced) < job["seconds"] or len(traced) < 2:
                if len(traced) == len(untraced):
                    untraced.append(one_pass())
                    continue
                tracer.install()
                try:
                    traced.append(one_pass(tracer))
                finally:
                    tracer.uninstall()
                layers.append(tracer.layer_metrics())
                for span in tracer.spans:
                    spans_out.write(json.dumps([len(traced)] + span) + "\n")
                tracer.reset()
        names = sorted({k for layer in layers for k in layer})
        result.update(untraced=untraced, traced=traced,
                      layers={k: statistics.fmean(layer.get(k, 0.0) for layer in layers) for k in names})
    else:
        times = []
        while sum(times) + sum(ref_times) < job["seconds"] or len(times) < job["min_passes"]:
            times.append(one_pass())
        result.update(passes=times, ref_passes=ref_times)
    after = {op["id"]: run_op(cli, op["argv"]) for op in job["after"]}
    result.update(outputs={**before, **first, **after}, attempted=attempted + len(before) + len(after),
                  unstable=sorted(unstable))
    return result


def rung(cli, job) -> dict:
    def stop(signum, frame):
        os._exit(TIMED_OUT)

    before = {op["id"]: run_op(cli, op["argv"]) for op in job["before"]}
    if any(res["rc"] != 0 for res in before.values()):
        return {"before": before}
    signal.signal(signal.SIGPROF, stop)
    cpu0 = time.process_time()
    signal.setitimer(signal.ITIMER_PROF, job["cpu_limit"])
    res = run_op(cli, job["argv"])
    signal.setitimer(signal.ITIMER_PROF, 0)
    res["cpu_seconds"] = time.process_time() - cpu0
    return res


def main(job_path, result_path) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    os.chdir(ROOT)
    cli = import_cli()
    result = rung(cli, job) if job["kind"] == "rung" else passes(cli, job)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
