import codecs
import json
import shutil
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

    def test_malformed_no_loop_pair_exits_two(self, capsys):
        assert main(["annotate", THEORY_UNFIXED, SD1, "--no-loop", "1-11"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: scdebug annotate ")
        assert [line for line in captured.err.splitlines() if "error" in line] == [
            "scdebug annotate: error: argument --no-loop: expected i:j, got '1-11'"]

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

    @pytest.mark.parametrize("command", ["synth", "annotate"])
    @pytest.mark.parametrize("label", ["Save, close", "Ask / reply", "go [now]", "run\\"])
    def test_label_outside_the_grammar_exits_two(self, command, label, tmp_path, capsys):
        # Once written, check read such labels otherwise than synth did.
        theory = tmp_path / "t.dt"
        theory.write_text("x : Boolean\n")
        sd = tmp_path / "t.sd"
        sd.write_text(f"sd S\nobject A\nobject B\nmsg 1 A -> B : arm\n"
                      f"msg 2 A -> B : {label}\nmsg 3 B -> A : {label}\n")
        out = ["-o", str(tmp_path / "out")] if command == "synth" else []
        assert main([command, str(theory), str(sd), *out]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "out").exists()
        assert captured.err.startswith(f"parse error: {sd}:5:1: cannot parse message line")

    @pytest.mark.parametrize("command", ["synth", "annotate"])
    def test_context_name_outside_the_grammar_exits_two(self, command, tmp_path, capsys):
        theory = tmp_path / "t.dt"
        theory.write_text("x : Boolean\n\ncontext arm, now\n pre:\n post: x = T ;\n")
        assert main([command, str(theory), SD1]) == 2
        assert capsys.readouterr().err.startswith(f"parse error: {theory}:3:1: cannot parse context header")


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
        chart = parse_sc(text)
        assert print_sc(chart) == text
        again = parse_sc(print_sc(chart))
        assert again == chart and not again != chart and hash(again) == hash(chart)
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

    def test_negative_max_edits_exits_two(self, capsys):
        assert main(["check", STEPPER_DT, STEPPER_SD, "--charts", REFINED,
                     "--max-edits", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: --max-edits must be >= 0\n"

    def test_missing_chart_dir(self, capsys):
        assert main(["check", STEPPER_DT, STEPPER_SD, "--charts", "missing-dir"]) == 2

    def test_chart_event_takes_the_diagram_spelling(self, tmp_path, capsys):
        # Blanks around the argument list do not change the event.
        (tmp_path / "t.dt").write_text("x : Boolean\n")
        (tmp_path / "t.sd").write_text("sd S\nobject Env\nobject M\nmsg 1 Env -> M : e2( 7 )\n")
        (tmp_path / "M.sc").write_text("statechart M\ninitial A\nstate A\nstate B\nA -> B : e2( 7 )\n")
        args = ["check", str(tmp_path / "t.dt"), str(tmp_path / "t.sd"), "--charts", str(tmp_path)]
        assert main(args) == 0
        assert "1/1 replay(s) accepted" in capsys.readouterr().out

    def test_chart_dir_without_charts_exits_two(self, tmp_path, capsys):
        # A mistyped or empty directory must not pass having replayed nothing.
        (tmp_path / "M.txt").write_text((FIXTURES / "stepper_refined" / "M.sc").read_text())
        assert main(["check", STEPPER_DT, STEPPER_SD, "--charts", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: chart directory {tmp_path} holds no .sc file\n"

    def test_two_files_declaring_one_chart_exit_two(self, tmp_path, capsys):
        # Z.sc also declares M: neither file may silently replace the other.
        chart = (FIXTURES / "stepper_refined" / "M.sc").read_text()
        (tmp_path / "M.sc").write_text(chart)
        (tmp_path / "Z.sc").write_text("# a copy\n\n" + chart)  # header on line 4
        assert main(["check", STEPPER_DT, STEPPER_SD, "--charts", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"parse error: {tmp_path / 'Z.sc'}:4:1: statechart 'M' "
                                f"is also declared in {tmp_path / 'M.sc'}\n")

    def test_chart_name_outside_the_grammar_exits_two(self, tmp_path, capsys):
        # The name matches a chart to its object: 'M, x' used to match none
        # and check passed having replayed nothing.
        charts = tmp_path / "charts"
        charts.mkdir()
        (charts / "M.sc").write_text("statechart M, x\ninitial A\nstate A\nA -> A : tick\n")
        (tmp_path / "t.dt").write_text("x : Boolean\n")
        (tmp_path / "t.sd").write_text("sd S\nobject Env\nobject M\nmsg 1 Env -> M : tick\n")
        args = ["check", str(tmp_path / "t.dt"), str(tmp_path / "t.sd"), "--charts", str(charts)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: {charts / 'M.sc'}:1:1: bad chart name 'M, x'\n"

    @pytest.mark.parametrize("with_m, code, replays", [(True, 1, "0/1"), (False, 0, None)])
    def test_chart_of_no_object_is_a_warning(self, with_m, code, replays, tmp_path, capsys):
        if with_m:
            (tmp_path / "M.sc").write_text((FIXTURES / "stepper_refined" / "M.sc").read_text())
        (tmp_path / "Q.sc").write_text("statechart Q\ninitial A\nstate A\n")
        warning = f"chart 'Q' in {tmp_path / 'Q.sc'} names no object of the diagrams given"
        args = ["check", STEPPER_DT, STEPPER_SD, "--charts", str(tmp_path)]
        assert main(args) == code
        out = capsys.readouterr().out
        assert out.endswith(f"\nwarning: {warning}\n")
        assert (f"{replays} replay(s) accepted" in out) if replays else "replay(s)" not in out
        assert main([*args, "--json"]) == code
        assert json.loads(capsys.readouterr().out)["warnings"] == [warning]

    def test_json_escapes_what_is_not_ascii(self, tmp_path, capsys):
        charts = tmp_path / "chärts"
        charts.mkdir()
        (charts / "M.sc").write_text((FIXTURES / "stepper_refined" / "M.sc").read_text())
        (charts / "Q.sc").write_text("statechart Q\ninitial A\nstate A\n")
        assert main(["check", STEPPER_DT, STEPPER_SD, "--charts", str(charts), "--json"]) == 1
        out = capsys.readouterr().out
        assert out.isascii()
        assert f'"chart \'Q\' in {tmp_path}/ch\\u00e4rts/Q.sc names no object of the diagrams given"' in out
        warning = f"chart 'Q' in {charts / 'Q.sc'} names no object of the diagrams given"
        assert json.loads(out)["warnings"] == [warning]

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


class TestByteOrderMark:
    NAMES = ["stepper.dt", "stepper.sd", "charts/M.sc"]

    @staticmethod
    def stepper_outputs(tmp_path, capsys):
        # Copies of the stepper theory, diagram and refined chart under
        # tmp_path, and what annotate, synth and check print on them.
        (tmp_path / "charts").mkdir()
        for fixture in ("stepper.dt", "stepper.sd"):
            shutil.copy(FIXTURES / fixture, tmp_path / fixture)
        shutil.copy(FIXTURES / "stepper_refined" / "M.sc", tmp_path / "charts" / "M.sc")
        dt, sd = str(tmp_path / "stepper.dt"), str(tmp_path / "stepper.sd")
        commands = (["annotate", dt, sd], ["synth", dt, sd, "-o", str(tmp_path / "out")],
                    ["check", dt, sd, "--charts", str(tmp_path / "charts")])
        return lambda: [(main(args), *capsys.readouterr()) for args in commands]

    @pytest.mark.parametrize("name", NAMES)
    def test_leading_bom_is_ignored(self, name, tmp_path, capsys):
        # Each command prints the same once the file starts with a UTF-8 BOM.
        outputs = self.stepper_outputs(tmp_path, capsys)
        without = outputs()
        assert [code for code, _, _ in without] == [0, 0, 1]
        path = tmp_path / name
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert outputs() == without

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    @pytest.mark.parametrize("name", NAMES)
    def test_line_ends_are_read_alike(self, name, newline, tmp_path, capsys):
        # A CRLF or CR-only copy of a file prints what the LF file prints.
        outputs = self.stepper_outputs(tmp_path, capsys)
        without = outputs()
        path = tmp_path / name
        text = path.read_bytes()
        assert b"\r" not in text and text.count(b"\n") > 3
        path.write_bytes(text.replace(b"\n", newline))
        assert outputs() == without

    @pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8])
    @pytest.mark.parametrize("pad", [0, 9000])
    def test_undecodable_diagram_is_an_error(self, bom, pad, tmp_path, capsys):
        # Positions count from after a BOM, past the first 8 KiB too.
        head = b"sd S\nobject A\n# " + b"x" * pad + b"\n# caf"
        path = tmp_path / "bad.sd"
        path.write_bytes(bom + head + b"\xe9\n")
        assert main(["annotate", THEORY, str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: 'utf-8' codec can't decode byte 0xe9 in position {len(head)}: "
                                           "invalid continuation byte\n")


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

    def test_parser_built_once(self, capsys):
        # One parser serves every main() call: a run's --no-loop pairs stay out of the next.
        assert scdebug.cli.build_parser() is scdebug.cli.build_parser()
        assert main(["annotate", THEORY_UNFIXED, SD1, "--no-loop", "1:11"]) == 0
        assert main(["annotate", THEORY_UNFIXED, SD1]) == 1

    def test_synth_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            r = run(["synth", THEORY, SD1, SD2, "-o", str(out)])
            assert r.returncode == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.sc"))})
        assert outs[0] == outs[1]
