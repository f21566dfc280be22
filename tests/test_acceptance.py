"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import re
import subprocess
import sys
import time
from pathlib import Path

from scdebug.annotator import annotate, conflict_view
from scdebug.checker import repair, replay
from scdebug.cli import main
from scdebug.dsl import parse_domain_theory, parse_sc, parse_sd, print_domain_theory, print_sd
from scdebug.model import (
    Delete,
    Insert,
    Message,
    SequenceDiagram,
    apply_edit,
    format_vector,
    unify,
)
from scdebug.synthesizer import (
    flatten,
    introduce_hierarchy,
    merge_charts,
    synth_object_chart,
    to_statechart,
)

from conftest import CLI_ENV, FIXTURES, all_faces, face, known_cells
from gen import conflict_free_pair
from oracles import brute_force_min_cost, initial_lines, mutation_candidates

THEORY = str(FIXTURES / "theory.dt")
THEORY_UNFIXED = str(FIXTURES / "theory_unfixed.dt")
SD1 = str(FIXTURES / "sd1.sd")
SD2 = str(FIXTURES / "sd2.sd")
STEPPER_DT = str(FIXTURES / "stepper.dt")
STEPPER_SD = str(FIXTURES / "stepper.sd")
REFINED = str(FIXTURES / "stepper_refined")


def passed(criterion: int, detail: str):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def test_criterion_1_worked_example(sd1, coffee_dt_unfixed):
    start = time.perf_counter()
    lines0 = initial_lines(sd1, coffee_dt_unfixed)
    assert format_vector(face(lines0, "Coffee-UI", 1, "pre")) == "<F,F,?,?,?>"
    assert format_vector(face(lines0, "Coffee-UI", 2, "pre")) == "<F,?,?,?,?>"

    # The published walk covers the first messages only; on that prefix the
    # unified vectors settle at <F,F,?,?,?>.
    prefix = SequenceDiagram(sd1.name, sd1.objects, sd1.messages[:2])
    lines, conflicts = annotate(prefix, coffee_dt_unfixed)
    assert conflicts == []
    assert format_vector(face(lines, "Coffee-UI", 1, "post")) == "<F,F,?,?,?>"
    assert format_vector(face(lines, "Coffee-UI", 2, "pre")) == "<F,F,?,?,?>"
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1, f"took {elapsed:.3f}s"
    passed(1, f"initial and unified vectors match the worked example ({elapsed * 1000:.1f} ms)")


PUBLISHED_LINES = [
    'Conflict in SD1: Object Coffee-UI',
    'statevector after "Insert coin" = <T,F,T,1,none> [Msg 2]',
    'statevector before "Request Selection" = <T,F,F,1,none> [Msg 3]',
    'conflict in variable "CoffeeTypeSelected"',
    'conflict occurred as consequence of unification of',
    'statevector after "Display Ready Light" = <F,F,T,0,none> [Msg 1]',
    'statevector after "Display Ready Light" = <F,F,T,0,none> [Msg 11]',
    'statevector after "Take coin" = <F,F,T,0,none> [Msg 10]',
]


def test_criterion_2_conflict_report(sd1, coffee_dt_unfixed, capsys):
    start = time.perf_counter()
    lines, conflicts = annotate(sd1, coffee_dt_unfixed)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1, f"took {elapsed:.3f}s"

    assert len(conflicts) == 1
    c = conflicts[0]
    assert (c.object, c.variable.name) == ("Coffee-UI", "CoffeeTypeSelected")
    assert (c.after_message.id, c.after_message.label) == (2, "Insert coin")
    assert (c.before_message.id, c.before_message.label) == (3, "Request Selection")
    after, before, unified = conflict_view(lines[c.object], c)
    assert format_vector(after) == "<T,F,T,1,none>"
    assert format_vector(before) == "<T,F,F,1,none>"
    assert [m.id for m, _ in unified] == [1, 11, 10]

    main(["annotate", THEORY_UNFIXED, SD1])
    rendered = [re.sub(r"\s+", " ", l).strip() for l in capsys.readouterr().out.splitlines()]
    derivation_lines = set(rendered)
    it = iter(rendered)
    for want in PUBLISHED_LINES:
        assert want in it, f"missing or out of order: {want!r}"
    assert set(PUBLISHED_LINES) <= derivation_lines  # superset requirement
    passed(2, f"conflict block reproduced exactly, derivation Msg 1/11/10 ({elapsed * 1000:.1f} ms)")


def test_criterion_3_theory_fix(capsys):
    assert main(["annotate", THEORY, SD1]) == 0
    out = capsys.readouterr().out
    assert "No conflicts found." in out
    passed(3, "adding CoffeeTypeSelected = F to Release coin makes SD1 clean (exit 0)")


def test_criterion_4_discard_unifier(capsys):
    assert main(["annotate", THEORY_UNFIXED, SD1, "--no-loop", "1:11"]) == 0
    assert "No conflicts found." in capsys.readouterr().out
    passed(4, "--no-loop 1:11 resolves the conflict without the theory fix")


def test_criterion_5_round_trip_suite():
    start = time.perf_counter()
    rng = random.Random(2024)
    pairs = 200
    for i in range(pairs):
        dt, sd = conflict_free_pair(rng, max_msgs=10, max_objs=3)
        lines, conflicts = annotate(sd, dt)
        assert conflicts == []
        for obj in sd.objects:
            flat = synth_object_chart(obj, lines[obj], dt)
            merged = merge_charts([flat])
            hier = introduce_hierarchy(merged)
            stages = {
                "synthesized": flat,
                "merged": merged,
                "named": flatten(to_statechart(merged)),
                "flattened": flatten(hier),
            }
            for stage, chart in stages.items():
                trace = replay(sd, obj, chart, dt)
                assert trace.accepted, f"pair {i}, object {obj}, {stage} chart rejected"
                result = repair(sd, obj, chart, dt, max_edits=0)
                assert result.cost == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"suite took {elapsed:.1f}s"
    passed(5, f"{pairs} generated pairs replay with 0 edits at every stage ({elapsed:.1f}s)")


def test_criterion_6_repair_minimality(stepper_sd, stepper_dt):
    start = time.perf_counter()

    # The chart-refinement scenario: a single insertion repairs the diagram.
    refined = flatten(parse_sc((FIXTURES / "stepper_refined/M.sc").read_text()))
    result = repair(stepper_sd, "M", refined, stepper_dt)
    assert result.cost == 1 and isinstance(result.edits[0], Insert)
    assert result.edits[0].message.label == "e3"

    rng = random.Random(77)
    cases = 0
    nontrivial = 0
    while cases < 100:
        dt, sd = conflict_free_pair(rng, max_msgs=5, max_objs=2)
        if not sd.messages:
            continue
        lines, _ = annotate(sd, dt)
        obj = max(sd.objects, key=lambda o: sum(1 for m in sd.messages if m.receiver == o))
        chart = synth_object_chart(obj, lines[obj], dt)
        cands = mutation_candidates(dt, chart, sd, obj)
        mutated = sd
        for _ in range(rng.randint(1, 3)):
            if mutated.messages and rng.random() < 0.5:
                mutated = apply_edit(mutated, Delete(rng.randint(1, len(mutated.messages))))
            else:
                label, args, sender = rng.choice(cands)
                pos = rng.randint(1, len(mutated.messages) + 1)
                mutated = apply_edit(mutated, Insert(Message(pos, label, args, sender, obj)))
        found = repair(mutated, obj, chart, dt, max_edits=3)
        assert brute_force_min_cost(mutated, obj, chart, dt, found.cost) == found.cost
        assert replay(found.repaired, obj, chart, dt).accepted
        _, conflicts = annotate(found.repaired, dt)
        assert conflicts == []
        nontrivial += found.cost > 0
        cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"suite took {elapsed:.1f}s"
    assert nontrivial >= 30
    passed(6, f"repair cost = brute-force minimum on {cases} mutations, "
              f"{nontrivial} nontrivial; refinement scenario costs 1 ({elapsed:.1f}s)")


def test_criterion_7_algorithm_invariants(sd1, coffee_dt_unfixed):
    # annotate idempotence: re-running the fixpoint steps changes nothing
    from scdebug.annotator import frame_propagate, identification_candidates

    lines, _ = annotate(sd1, coffee_dt_unfixed)
    before = all_faces(lines)
    for obj in sd1.objects:
        assert frame_propagate(lines[obj]) is False
        assert identification_candidates(lines[obj], frozenset()) is None
    assert all_faces(lines) == before

    # monotonicity: determined cells only grow, values never change
    rng = random.Random(9)
    for _ in range(50):
        dt, sd = conflict_free_pair(rng, max_msgs=8)
        initial = known_cells(initial_lines(sd, dt))
        final = known_cells(annotate(sd, dt)[0])
        assert set(initial) <= set(final)
        assert all(final[cell] == v for cell, v in initial.items())

    # unify commutativity and idempotence over random small vectors
    pool = [None, "T", "F", "0", "1", "red"]
    for _ in range(500):
        n = rng.randint(1, 6)
        a = tuple(rng.choice(pool) for _ in range(n))
        b = tuple(rng.choice(pool) for _ in range(n))
        assert unify(a, b) == unify(b, a)
        assert unify(a, a) == a

    # parser round-trip on the fixture corpus
    for path in (THEORY, THEORY_UNFIXED, STEPPER_DT):
        dt = parse_domain_theory(Path(path).read_text())
        assert parse_domain_theory(print_domain_theory(dt)) == dt
    for path in (SD1, SD2, STEPPER_SD):
        sd = parse_sd(Path(path).read_text())
        assert parse_sd(print_sd(sd)) == sd
    passed(7, "idempotence, monotonicity, unify laws, and parser round-trips hold")


def test_criterion_8_cli_determinism(tmp_path):
    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "scdebug.cli", *args], capture_output=True, env=CLI_ENV
        )

    commands = [
        ["annotate", THEORY_UNFIXED, SD1],
        ["annotate", THEORY_UNFIXED, SD1, "--json"],
        ["annotate", THEORY, SD1, SD2],
        ["annotate", THEORY, SD1, SD2, "--json"],
        ["check", STEPPER_DT, STEPPER_SD, "--charts", REFINED],
        ["check", STEPPER_DT, STEPPER_SD, "--charts", REFINED, "--json"],
    ]
    for args in commands:
        a, b = run(args), run(args)
        assert a.stdout and a.stdout == b.stdout, f"nondeterministic output for {args}"
        assert a.returncode == b.returncode

    outputs = []
    for name in ("one", "two"):
        out = tmp_path / name
        dot = tmp_path / (name + "-dot")
        r = run(["synth", THEORY, SD1, SD2, "-o", str(out), "--dot", str(dot)])
        assert r.returncode == 0
        outputs.append(
            {p.name: p.read_bytes() for d in (out, dot) for p in sorted(d.iterdir())}
        )
    assert outputs[0] == outputs[1]
    passed(8, "every CLI command produces byte-identical output across runs")
