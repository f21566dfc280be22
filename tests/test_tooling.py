"""Names the benchmark's tracer looks up in scdebug and the calls it
records, what importing the command line, the package and the report
renderer loads, that the sources import only the standard library, and
the CLI byte-comparison corpus.

``bench/spans.Tracer.install`` wraps each function named in ``SPANNED`` and
``COUNTED`` by ``getattr`` on its module, and rebinds it in every scdebug
module that holds it, so a refactor that removes or renames one would
crash a traced benchmark pass, and one that calls it other than through a
module's globals would hide its calls.  The tables are read from the
source with ``ast``, and ``bench/spans.py`` is loaded from its file; no
other file under ``bench/`` is imported or executed.
"""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from conftest import CLI_ENV, FIXTURES

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


def test_tracer_records_every_traced_name(tmp_path, capsys):
    # The README's fixture commands, run in process under the tracer, call
    # every traced name: annotate SD1 as text and as JSON, synthesize from
    # SD1 and SD2 with DOT exports, and repair the stepper against the
    # refined chart.
    import scdebug.cli

    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    runs = [
        ["annotate", FIXTURES / "theory_unfixed.dt", FIXTURES / "sd1.sd"],
        ["annotate", FIXTURES / "theory_unfixed.dt", FIXTURES / "sd1.sd", "--json"],
        ["synth", FIXTURES / "theory.dt", FIXTURES / "sd1.sd", FIXTURES / "sd2.sd",
         "-o", tmp_path / "charts", "--dot", tmp_path / "charts" / "dot"],
        ["check", FIXTURES / "stepper.dt", FIXTURES / "stepper.sd",
         "--charts", FIXTURES / "stepper_refined", "--max-edits", "4"],
    ]
    tracer = spans.Tracer()
    tracer.install()
    try:
        codes = [scdebug.cli.main([str(arg) for arg in argv]) for argv in runs]
    finally:
        tracer.uninstall()
    assert "repair with 1 edit(s):" in capsys.readouterr().out
    assert codes == [1, 1, 0, 1]
    calls = tracer.layer_metrics()
    traced = [spans._layer(module, name) for table in (spans.SPANNED, spans.COUNTED)
              for module, names in table.items() for name in names]
    assert len(traced) == 26
    assert [name for name in traced if not calls.get(f"{name}.calls")] == []


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


def test_sources_import_only_the_standard_library():
    # scdebug is stdlib-only, and pyproject.toml declares no dependencies:
    # every absolute import in the package names a standard-library module.
    sources = sorted((ROOT / "src" / "scdebug").glob("*.py"))
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert len(sources) == 8 and outside == []


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
    for prefix in ("--max-edit=2", "--js"):  # no prefix of an option is taken for it
        assert any(run["stderr"].endswith(f"\nscdebug: error: unrecognized arguments: {prefix}\n")
                   for run in usage), prefix
    # Chart directories: a hidden chart is read, a subdirectory and a
    # dangling link named *.sc are errors, and B.sc is read before a.sc.
    by_dir = {run["args"][run["args"].index("--charts") + 1]: run for run in log if "--charts" in run["args"]}
    hidden = by_dir["<OUT>/inputs/hidden"]
    assert hidden["code"] in (0, 1) and not hidden["stderr"]
    assert "Check Stepper: Object M: " in hidden["stdout"] or '"object": "M"' in hidden["stdout"]
    assert by_dir["<OUT>/inputs/subdirectory"]["stderr"] == (
        "error: [Errno 21] Is a directory: '<OUT>/inputs/subdirectory/sub.sc'\n")
    assert by_dir["<OUT>/inputs/dangling"]["stderr"] == (
        "error: [Errno 2] No such file or directory: '<OUT>/inputs/dangling/z.sc'\n")
    assert by_dir["<OUT>/inputs/order"]["stderr"] == (
        "parse error: <OUT>/inputs/order/a.sc:1:1: statechart 'M' is also declared in <OUT>/inputs/order/B.sc\n")
    assert all(by_dir[f"<OUT>/inputs/{name}"]["code"] == 2 for name in ("subdirectory", "dangling", "order"))
    # A chart directory that is a file is not a directory, not a missing one.
    assert by_dir["<OUT>/inputs/stepper.sd"]["code"] == 2
    assert by_dir["<OUT>/inputs/stepper.sd"]["stderr"] == (
        "error: chart directory <OUT>/inputs/stepper.sd is not a directory\n")
    # Synthesizing again over longer stale files leaves the fresh bytes, and
    # a chart that is a link stays one.
    assert log[-1]["args"][-4:] == ["-o", "<OUT>/charts/again", "--dot", "<OUT>/dot/again"]
    assert log[-1]["code"] == 0 and not log[-1]["stderr"]
    for fresh, again in (("charts/coffee", "charts/again"), ("dot/coffee", "dot/again")):
        written = {path.name: path.read_bytes() for path in (tmp_path / again).iterdir()}
        assert written == {path.name: path.read_bytes() for path in (tmp_path / fresh).iterdir()}
    assert (tmp_path / "charts/again/User.sc").is_symlink()
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
