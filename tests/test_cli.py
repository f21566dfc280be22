import json
import subprocess
import sys

import pytest

import scdebug.cli
from scdebug.cli import main
from scdebug.dsl import parse_sc, print_sc
from scdebug.report import export_dot
from scdebug.synthesizer import flatten

from conftest import CLI_ENV, FIXTURES

THEORY = str(FIXTURES / "theory.dt")
THEORY_UNFIXED = str(FIXTURES / "theory_unfixed.dt")
SD1 = str(FIXTURES / "sd1.sd")
SD2 = str(FIXTURES / "sd2.sd")
STEPPER_DT = str(FIXTURES / "stepper.dt")
STEPPER_SD = str(FIXTURES / "stepper.sd")
REFINED = str(FIXTURES / "stepper_refined")


def run(args):
    return subprocess.run(
        [sys.executable, "-m", "scdebug.cli", *args],
        capture_output=True,
        text=True,
        env=CLI_ENV,
    )


class TestAnnotate:
    def test_conflict_exits_one(self, capsys):
        assert main(["annotate", THEORY_UNFIXED, SD1]) == 1
        out = capsys.readouterr().out
        assert "Conflict in SD1: Object Coffee-UI" in out

    def test_fixed_theory_exits_zero(self, capsys):
        assert main(["annotate", THEORY, SD1]) == 0
        assert "No conflicts found." in capsys.readouterr().out

    def test_no_loop_resolves(self, capsys):
        assert main(["annotate", THEORY_UNFIXED, SD1, "--no-loop", "1:11"]) == 0

    def test_no_loop_outside_every_diagram_exits_two(self, capsys):
        assert main(["annotate", THEORY_UNFIXED, SD1, SD2, "--no-loop", "1:99"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --no-loop 1:99: no diagram given has both messages\n"

    def test_missing_file_exits_two(self, capsys):
        assert main(["annotate", THEORY, "nonexistent.sd"]) == 2

    def test_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.sd"
        bad.write_text("sd S\nmsg 1 A -> B : x\n")
        assert main(["annotate", THEORY, str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.sd:2" in err

    def test_usage_error_exits_two(self, capsys):
        assert main(["annotate"]) == 2

    def test_internal_error_exits_two_without_traceback(self, monkeypatch, capsys):
        def broken(sd, dt):
            raise RuntimeError("boom\non two lines")

        monkeypatch.setattr(scdebug.cli, "annotate", broken)
        assert main(["annotate", THEORY, SD1]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: internal: RuntimeError: boom on two lines\n"
        assert "Traceback" not in captured.out + captured.err

    def test_json_output(self, capsys):
        assert main(["annotate", THEORY_UNFIXED, SD1, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "scdebug-report/1"
        assert [d["id"] for d in doc["conflicts"][0]["derivation"]] == [1, 11, 10]


class TestSynth:
    def test_writes_charts(self, tmp_path, capsys):
        out = tmp_path / "charts"
        assert main(["synth", THEORY, SD1, SD2, "-o", str(out)]) == 0
        assert sorted(p.name for p in out.glob("*.sc")) == [
            "Coffee-UI.sc",
            "Control.sc",
            "User.sc",
        ]

    def test_refuses_on_conflicts(self, tmp_path, capsys):
        out = tmp_path / "charts"
        assert main(["synth", THEORY_UNFIXED, SD1, "-o", str(out)]) == 1
        assert not out.exists() or not list(out.glob("*.sc"))

    def test_dot_flag(self, tmp_path, capsys):
        out, dots = tmp_path / "charts", tmp_path / "dot"
        assert main(["synth", THEORY, SD1, "-o", str(out), "--dot", str(dots)]) == 0
        assert sorted(p.name for p in dots.glob("*.dot")) == [
            "Coffee-UI.dot",
            "Control.dot",
            "User.dot",
        ]

    def test_thousand_state_ring(self, tmp_path, capsys):
        k = 1000
        theory = tmp_path / "ring.dt"
        theory.write_text(f"S : 0..{k - 1}\n" + "".join(
            f"context e{i}\n pre: S = {i} ;\n post: S = {(i + 1) % k} ;\n" for i in range(k)
        ))
        sd = tmp_path / "ring.sd"
        sd.write_text("sd Ring\nobject Env\nobject M\n" + "".join(
            f"msg {i + 1} Env -> M : e{i}\n" for i in range(k)
        ))
        out = tmp_path / "charts"
        assert main(["synth", str(theory), str(sd), "-o", str(out)]) == 0
        assert capsys.readouterr().err == ""
        chart = (out / "M.sc").read_text()
        assert chart.count("state N") == k and "{" not in chart


class TestCheck:
    def test_synthesized_charts_accept_their_corpus(self, tmp_path, capsys):
        out = tmp_path / "charts"
        assert main(["synth", THEORY, SD1, SD2, "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["check", THEORY, SD1, SD2, "--charts", str(out)]) == 0
        assert "6/6 replay(s) accepted" in capsys.readouterr().out

    def test_refined_chart_reports_repair(self, capsys):
        assert main(["check", STEPPER_DT, STEPPER_SD, "--charts", REFINED]) == 1
        out = capsys.readouterr().out
        assert "repair with 1 edit(s)" in out
        assert "+ msg Env -> M : e3" in out

    def test_same_named_diagrams_diff_against_their_own_input(self, tmp_path, capsys):
        # Both diagrams are called Stepper; the second needs its message 3 deleted.
        second = tmp_path / "stepper2.sd"
        second.write_text(
            "sd Stepper\nobject Env\nobject M\n"
            + "".join(f"msg {i} Env -> M : {e}\n" for i, e in enumerate(("e1", "e2", "e1", "e3", "e4", "e5"), 1))
        )
        assert main(["check", STEPPER_DT, STEPPER_SD, str(second), "--charts", REFINED]) == 1
        block = capsys.readouterr().out.split("Check Stepper: Object M:")[2]
        assert "delete message at position 3" in block
        changed = [line.strip() for line in block.splitlines() if line.strip()[:2] in ("+ ", "- ")]
        assert changed == ["- msg Env -> M : e1"]

    @pytest.mark.parametrize(
        "args, sds",
        [
            ([STEPPER_DT, STEPPER_SD, STEPPER_SD, "--charts", REFINED], 2),  # same name twice
            ([THEORY, SD1, "--charts", REFINED], 1),  # no charted object
        ],
    )
    def test_json_counts_every_diagram_given(self, args, sds, capsys):
        main(["check", *args, "--json"])
        assert json.loads(capsys.readouterr().out)["summary"]["sds"] == sds

    def test_guarded_chart_repairs_like_the_unguarded_one(self, tmp_path, capsys):
        # Inserting e2(7) gives a diagram that does not annotate, since the
        # e2 context takes no argument: with a guard or without, that leaf
        # is rejected and the two deletions are reported.
        sd = tmp_path / "stepper.sd"
        sd.write_text("sd Stepper\nobject Env\nobject M\n"
                      + "".join(f"msg {i} Env -> M : {e}\n" for i, e in enumerate(("e1", "e4", "e5"), 1)))
        outs = []
        for guard in (" [Step = 0]", ""):
            charts = tmp_path / f"charts{len(outs)}"
            charts.mkdir()
            (charts / "M.sc").write_text(
                "statechart M\ninitial N1\nstate N1\nstate N2\nstate N3\nstate N4\n"
                f"N1 -> N2 : e1{guard}\nN2 -> N3 : e2(7)\nN3 -> N4 : e4\nN4 -> N4 : e5\n")
            assert main(["check", STEPPER_DT, str(sd), "--charts", str(charts), "--max-edits", "2"]) == 1
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "repair with 2 edit(s):\n    delete message at position 2\n    delete message at position 2\n" in outs[0]

    def test_two_thousand_nested_composites(self, tmp_path, capsys):
        # Hand-written charts may nest deeper than the recursion limit.
        depth = 2000
        lines = ["statechart M", "initial G0"]
        for d in range(depth):
            inner = f"G{d + 1}" if d + 1 < depth else "Leaf"
            lines += ["  " * d + f"state G{d} {{", "  " * (d + 1) + f"initial {inner}"]
        lines += ["  " * depth + "state Leaf", "  " * depth + "Leaf -> Leaf : tick [x = T]"]
        lines += ["  " * d + "}" for d in reversed(range(depth))]
        text = "\n".join(lines) + "\n"
        # Compare text: == on charts this deep would itself recurse.
        chart = parse_sc(text)
        assert print_sc(chart) == text
        flat = flatten(chart)
        assert ([n.name for n in flat.nodes], flat.initial) == (["Leaf"], "Leaf")
        assert export_dot(chart).count("subgraph") == depth
        charts = tmp_path / "charts"
        charts.mkdir()
        (charts / "M.sc").write_text(text)
        (tmp_path / "t.dt").write_text("x : Boolean\n")
        (tmp_path / "t.sd").write_text("sd S\nobject Env\nobject M\nmsg 1 Env -> M : tick\n")
        args = ["check", str(tmp_path / "t.dt"), str(tmp_path / "t.sd"), "--charts", str(charts)]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "1/1 replay(s) accepted" in captured.out

    def test_max_edits_zero(self, capsys):
        assert main(["check", STEPPER_DT, STEPPER_SD, "--charts", REFINED,
                     "--max-edits", "0"]) == 1
        assert "no repair" in capsys.readouterr().out

    def test_missing_chart_dir(self, capsys):
        assert main(["check", STEPPER_DT, STEPPER_SD, "--charts", "missing-dir"]) == 2

    @pytest.mark.parametrize(
        "guard, why",
        [
            ("Stpe = 0", "names no state variable"),
            ("Step = 9", "is outside 0..4"),
        ],
    )
    def test_guard_atom_outside_the_theory_exits_two(self, guard, why, tmp_path, capsys):
        # Such a guard never holds: the e1 transition would be dead.
        chart = (FIXTURES / "stepper_refined" / "M.sc").read_text()
        chart = chart.replace("N1 -> N2 : e1\n", f"N1 -> N2 : e1 [{guard}]\n")
        (tmp_path / "M.sc").write_text(chart)
        assert main(["check", STEPPER_DT, STEPPER_SD, "--charts", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {tmp_path / 'M.sc'}: transition N1 -> N2 : "
                                f"e1 [{guard}]: guard atom {guard} {why}\n")

    def test_guard_repeating_a_variable_is_a_parse_error(self, tmp_path, capsys):
        # Located like every other chart syntax error; before, the CLI
        # printed "error: variable repeated within one condition: [...]".
        chart = (FIXTURES / "stepper_refined" / "M.sc").read_text()
        chart = chart.replace("N1 -> N2 : e1\n", "N1 -> N2 : e1 [Stpe = 0 and Stpe = 1]\n")
        (tmp_path / "M.sc").write_text(chart)
        assert main(["check", STEPPER_DT, STEPPER_SD, "--charts", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"parse error: {tmp_path / 'M.sc'}:9:1: "
                                f"variable repeated within one condition\n")


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["annotate", THEORY_UNFIXED, SD1],
            ["annotate", THEORY_UNFIXED, SD1, "--json"],
            ["annotate", THEORY, SD1, SD2],
            ["check", STEPPER_DT, STEPPER_SD, "--charts", REFINED, "--json"],
        ],
    )
    def test_byte_identical_runs(self, args):
        a, b = run(args), run(args)
        assert a.stdout and a.stdout == b.stdout and a.returncode == b.returncode

    def test_synth_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            r = run(["synth", THEORY, SD1, SD2, "-o", str(out)])
            assert r.returncode == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.sc"))})
        assert outs[0] == outs[1]
