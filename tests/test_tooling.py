"""Names the benchmark's tracer looks up in scdebug, what importing the
command line, the package and the report renderer loads, and the CLI
byte-comparison corpus.

``bench/spans.Tracer.install`` wraps each function named in ``SPANNED`` and
``COUNTED`` by ``getattr`` on its module, so a refactor that removes or
renames one would crash a traced benchmark pass.  The tables are read from
the source with ``ast``; nothing under ``bench/`` is imported or executed.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

from conftest import CLI_ENV

ROOT = Path(__file__).parents[1]
SPANS = ROOT / "bench" / "spans.py"


def traced_tables() -> dict:
    tables = {}
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANNED", "COUNTED"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_traced_names_resolve():
    tables = traced_tables()
    assert set(tables) == {"SPANNED", "COUNTED"}
    traced = [(module, name) for table in tables.values()
              for module, names in table.items() for name in names]
    assert len(traced) > 20
    missing = [f"{module}.{name}" for module, name in traced
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []


def loaded_by(module: str) -> set:
    """Modules a fresh interpreter loads to import ``module``."""
    probe = (f"import sys; before = set(sys.modules); import {module}; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=CLI_ENV, check=True)
    return set(proc.stdout.split())


def test_cli_import_leaves_out_costly_modules():
    # Every scdebug run imports scdebug.cli.  `dataclasses` costs about as
    # much as the rest of the package (it pulls in `inspect`, `ast`, `dis`
    # and `tokenize`) and builds each class with exec, so the records are
    # named tuples.  `difflib` is needed only to print a repair.  Only
    # module names are checked, no timing.
    imported = loaded_by("scdebug.cli")
    assert "scdebug.model" in imported
    assert imported.isdisjoint({"dataclasses", "inspect", "difflib"})


def test_package_and_report_import_only_what_they_use():
    # The package root re-exports nothing, so importing a module loads only
    # that module's own imports; rendering a report needs neither the
    # checker nor the synthesizer.
    assert {m for m in loaded_by("scdebug") if m.startswith("scdebug")} == {"scdebug"}
    report = loaded_by("scdebug.report")
    assert "scdebug.annotator" in report
    assert report.isdisjoint({"scdebug.checker", "scdebug.synthesizer"})


def test_cli_corpus_runs_clean(tmp_path):
    # tests/cli_corpus.py is run on two source trees whose outputs are then
    # compared; on this tree every run must end in a defined exit code, and
    # each command must both pass and find something somewhere.
    subprocess.run([sys.executable, str(ROOT / "tests" / "cli_corpus.py"), str(ROOT), str(tmp_path)],
                   capture_output=True, check=True)
    log = json.loads((tmp_path / "log.json").read_text(encoding="utf-8"))
    assert {run["code"] for run in log} <= {0, 1, 2}
    assert not [run["args"] for run in log if "error: internal" in run["stderr"]]
    for command in ("annotate", "synth", "check"):
        assert {0, 1} <= {run["code"] for run in log if run["args"][0] == command}, command
    # Guards that hold and reject, in both guard modes, diagrams that do
    # not annotate, and inputs that do not parse.
    assert any("guard [Step = 3] does not hold" in run["stdout"] for run in log)
    assert any("--strict-guards" in run["args"] for run in log)
    assert any(run["stderr"].startswith("error: message 2: 'e2' takes 0 argument(s)") for run in log)
    assert sum(run["stderr"].startswith("parse error: <OUT>/inputs/malformed/") for run in log) == 11
    # Usage errors: an unknown option after each command, bare and unknown
    # commands and a --max-edits that is not a number, all exit 2 and print
    # only to stderr.
    usage = [run for run in log if "usage: scdebug" in run["stderr"]]
    assert all(run["code"] == 2 and not run["stdout"] for run in usage)
    assert {run["args"][0] for run in usage if "error: unrecognized arguments: " in run["stderr"]} == {
        "annotate", "synth", "check"}
    assert sum("error: the following arguments are required" in run["stderr"] for run in usage) == 3
    assert sum("error: argument command: invalid choice" in run["stderr"] for run in usage) == 2
    assert any("argument --max-edits: invalid int value: 'x'" in run["stderr"] for run in usage)
    # Every JSON report is in the canonical form docs/formats.md states.
    reports = [run["stdout"] for run in log if "--json" in run["args"] and run["code"] != 2]
    assert reports
    for out in reports:
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_cli_corpus_refuses_a_used_output_directory(tmp_path):
    (tmp_path / "inputs").mkdir()
    proc = subprocess.run([sys.executable, str(ROOT / "tests" / "cli_corpus.py"), str(ROOT), str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == f"cli_corpus.py: {tmp_path} exists and is not an empty directory\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "inputs"]
