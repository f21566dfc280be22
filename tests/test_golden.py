"""Byte-for-byte CLI output on the fixtures, against checked-in golden files.

Every README command (text and ``--json``) plus a refused synthesis runs in
process, in order, in one temporary directory.  ``stdout/<case>.txt`` holds
the exit code on its first line and then the full stdout, with the
temporary directory written as ``<tmp>``; ``files/`` holds every file the
commands wrote there.  After an intended output change, regenerate with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from scdebug.cli import main

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
FIXTURES = HERE / "fixtures"


def _fx(name: str) -> str:
    return str(FIXTURES / name)


UNFIXED = ["annotate", _fx("theory_unfixed.dt"), _fx("sd1.sd")]
FIXED = ["annotate", _fx("theory.dt"), _fx("sd1.sd")]
COFFEE = [_fx("theory.dt"), _fx("sd1.sd"), _fx("sd2.sd")]
REPAIR = ["check", _fx("stepper.dt"), _fx("stepper.sd"),
          "--charts", _fx("stepper_refined"), "--max-edits", "4"]

# Run in this order: the check cases read the charts the synth case writes.
CASES = {
    "annotate-conflict": UNFIXED,
    "annotate-conflict-json": UNFIXED + ["--json"],
    "annotate-no-loop": UNFIXED + ["--no-loop", "1:11"],
    "annotate-no-loop-json": UNFIXED + ["--no-loop", "1:11", "--json"],
    "annotate-fixed": FIXED,
    "annotate-fixed-json": FIXED + ["--json"],
    "synth": ["synth", *COFFEE, "-o", "<tmp>/charts", "--dot", "<tmp>/charts/dot"],
    "synth-refused": ["synth", _fx("theory_unfixed.dt"), _fx("sd1.sd"), "-o", "<tmp>/refused"],
    "check": ["check", *COFFEE, "--charts", "<tmp>/charts"],
    "check-json": ["check", *COFFEE, "--charts", "<tmp>/charts", "--json"],
    "repair": REPAIR,
    "repair-json": REPAIR + ["--json"],
}


def run_cases(tmp: Path) -> tuple[dict, dict]:
    """(case -> exit code line plus stdout, relative path -> written bytes)."""
    outputs = {}
    for name, argv in CASES.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([a.replace("<tmp>", str(tmp)) for a in argv])
        assert err.getvalue() == "", f"{name}: unexpected stderr {err.getvalue()!r}"
        outputs[name] = f"exit {rc}\n" + out.getvalue().replace(str(tmp), "<tmp>")
    files = {
        path.relative_to(tmp).as_posix(): path.read_bytes()
        for path in sorted(tmp.rglob("*"))
        if path.is_file()
    }
    return outputs, files


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return run_cases(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", list(CASES))
def test_stdout_and_exit_code(produced, case):
    expected = (GOLDEN / "stdout" / f"{case}.txt").read_text(encoding="utf-8")
    assert produced[0][case] == expected


def test_written_files(produced):
    golden_files = {
        path.relative_to(GOLDEN / "files").as_posix(): path.read_bytes()
        for path in sorted((GOLDEN / "files").rglob("*"))
        if path.is_file()
    }
    assert produced[1] == golden_files


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        outputs, files = run_cases(Path(d))
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for name, text in outputs.items():
        path = GOLDEN / "stdout" / f"{name}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    for rel, data in files.items():
        path = GOLDEN / "files" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    sys.stdout.write(f"wrote {len(outputs)} outputs and {len(files)} files under {GOLDEN}\n")
