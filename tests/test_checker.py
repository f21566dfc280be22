import gc
import random
from collections import Counter

import pytest

import scdebug.checker as checker
from scdebug.annotator import annotate
from scdebug.checker import (
    NoRepairWithinBound,
    check_all,
    insert_candidates,
    repair,
    replay,
)
from scdebug.dsl import parse_domain_theory, parse_sc, parse_sd
from scdebug.model import Delete, Insert, Message, SequenceDiagram, apply_edit
from scdebug.synthesizer import flatten, introduce_hierarchy, synth_object_chart, synthesize, to_statechart

from conftest import leaf_test, read
from gen import conflict_free_pair, gen_replay_case
from oracles import brute_force_min_cost, leaf_verdicts, mutation_candidates, repair_dfs, replay_dfs


@pytest.fixture(scope="module")
def refined_chart():
    return flatten(parse_sc(read("stepper_refined/M.sc"), "M.sc"))


@pytest.fixture(scope="module")
def stepper_charts(stepper_dt, stepper_sd):
    charts, _ = synthesize(stepper_dt, [stepper_sd])
    return {obj: flatten(chart) for obj, chart in charts.items()}


class TestReplay:
    def test_round_trip(self, sd1, sd2, coffee_dt):
        charts, _ = synthesize(coffee_dt, [sd1, sd2])
        for sd in (sd1, sd2):
            for obj in sd.objects:
                assert replay(sd, obj, flatten(charts[obj]), coffee_dt).accepted

    def test_refined_chart_rejects(self, stepper_sd, stepper_dt, refined_chart):
        trace = replay(stepper_sd, "M", refined_chart, stepper_dt)
        assert not trace.accepted
        assert trace.rejected_at == 2  # e4 arrives where e3 is now required
        assert "e4" in trace.steps[-1].mismatch

    def test_empty_projection_accepted(self, coffee_dt, stepper_charts, stepper_dt):
        sd = parse_sd("sd S\nobject Env\nobject M")
        trace = replay(sd, "M", stepper_charts["M"], stepper_dt)
        assert trace.accepted and trace.steps == ()

    def test_object_not_in_sd_accepted(self, stepper_sd, stepper_dt, stepper_charts):
        trace = replay(stepper_sd, "Ghost", stepper_charts["M"], stepper_dt)
        assert trace.accepted

    def test_missing_send_tolerated_alien_send_rejected(self, stepper_dt):
        # Chart transition carries action a; a run without the send is fine,
        # a run sending something else is not.
        chart = flatten(parse_sc(
            "statechart M\ninitial N1\nstate N1\nstate N2\nN1 -> N2 : e1 / a"
        ))
        quiet = parse_sd("sd S\nobject Env\nobject M\nmsg 1 Env -> M : e1")
        assert replay(quiet, "M", chart, stepper_dt).accepted
        chatty = parse_sd(
            "sd S\nobject Env\nobject M\nmsg 1 Env -> M : e1\nmsg 2 M -> Env : b"
        )
        assert not replay(chatty, "M", chart, stepper_dt).accepted

    def test_guard_unknown_permissive_vs_strict(self):
        dt = parse_domain_theory("x : Boolean")
        chart = flatten(parse_sc(
            "statechart M\ninitial N1\nstate N1\nstate N2\nN1 -> N2 : go [x = T]"
        ))
        sd = parse_sd("sd S\nobject Env\nobject M\nmsg 1 Env -> M : go")
        assert replay(sd, "M", chart, dt).accepted  # x undetermined: permissive
        assert not replay(sd, "M", chart, dt, strict_guards=True).accepted

    def test_guard_on_determined_cell(self):
        dt = parse_domain_theory(
            "x : Boolean\ncontext set\n pre:\n post: x = T ;"
        )
        chart = flatten(parse_sc(
            "statechart M\ninitial N1\nstate N1\nstate N2\nstate N3\n"
            "N1 -> N2 : set\nN2 -> N3 : go [x = F]"
        ))
        sd = parse_sd(
            "sd S\nobject Env\nobject M\nmsg 1 Env -> M : set\nmsg 2 Env -> M : go"
        )
        trace = replay(sd, "M", chart, dt)
        assert not trace.accepted  # x is known T, guard wants F
        assert trace.steps[-1].mismatch == "guard [x = F] does not hold"

    def test_guard_on_unknown_variable_never_holds(self):
        # The .sc reader knows no theory; a guard naming a variable the
        # theory lacks rejects the step, permissive or strict.
        dt = parse_domain_theory("x : Boolean")
        chart = flatten(parse_sc("statechart M\ninitial N1\nstate N1\nstate N2\nN1 -> N2 : go [y = T]"))
        sd = parse_sd("sd S\nobject Env\nobject M\nmsg 1 Env -> M : go")
        for strict in (False, True):
            trace = replay(sd, "M", chart, dt, strict_guards=strict)
            assert not trace.accepted and trace.rejected_at == 0
            assert trace.steps[-1].mismatch == "guard [y = T] does not hold"

    def test_backtracks_over_nondeterminism(self, stepper_dt):
        # Two e1 transitions from N1; the greedy first choice dead-ends.
        chart = flatten(parse_sc(
            "statechart M\ninitial N1\nstate N1\nstate N2\nstate N3\n"
            "N1 -> N2 : e1\nN1 -> N3 : e1\nN3 -> N3 : e2"
        ))
        sd = parse_sd(
            "sd S\nobject Env\nobject M\nmsg 1 Env -> M : e1\nmsg 2 Env -> M : e2"
        )
        assert replay(sd, "M", chart, stepper_dt).accepted

    def test_long_ring_accepted(self, stepper_dt):
        # 1000 received messages: the walk must not recurse per message.
        k, n = 5, 1000
        chart = flatten(parse_sc(
            "statechart M\ninitial N0\n"
            + "".join(f"state N{i}\n" for i in range(k))
            + "".join(f"N{i} -> N{(i + 1) % k} : e{i}\n" for i in range(k))
        ))
        msgs = [Message(i, f"e{(i - 1) % k}", (), "Env", "M") for i in range(1, n + 1)]
        trace = replay(SequenceDiagram("Ring", ("Env", "M"), tuple(msgs)), "M", chart, stepper_dt)
        assert trace.accepted
        assert len(trace.steps) == n and trace.steps[-1].transition.target == f"N{n % k}"

    def test_matches_depth_first_oracle(self):
        # Whole traces, accepted path and deepest rejection alike, equal the
        # backtracking walk's on charts with parallel same-event edges,
        # guards, completion edges and self-sends, in both guard modes.
        rng = random.Random(17)
        verdicts = set()
        for _ in range(1500):
            dt, chart, sd = gen_replay_case(rng)
            for strict in (False, True):
                trace = replay(sd, "M", chart, dt, strict)
                assert trace == replay_dfs(sd, "M", chart, dt, strict), (chart, sd, strict)
                verdicts.add((trace.accepted, any(s.message is None for s in trace.steps)))
        assert verdicts == {(True, True), (True, False), (False, True), (False, False)}

    def test_nondeterministic_chain_is_not_exponential(self, stepper_dt):
        # Two e transitions out of each state: backtracking tries 2^60 paths
        # before it gives up on the final f.
        chart = flatten(parse_sc(
            "statechart M\ninitial A\nstate A\nstate B\n"
            "A -> A : e\nA -> B : e\nB -> A : e\nB -> B : e"
        ))
        msgs = [Message(i, "e", (), "Env", "M") for i in range(1, 61)] + [Message(61, "f", (), "Env", "M")]
        trace = replay(SequenceDiagram("Chain", ("Env", "M"), tuple(msgs)), "M", chart, stepper_dt)
        assert not trace.accepted
        assert trace.rejected_at == 60
        assert trace.steps[-1].mismatch == "no transition on event 'f'"
        assert all(step.transition.target == "A" for step in trace.steps[:-1])


class TestRepair:
    def test_consistent_sd_costs_zero(self, stepper_sd, stepper_dt, stepper_charts):
        result = repair(stepper_sd, "M", stepper_charts["M"], stepper_dt)
        assert result.cost == 0 and result.edits == ()

    def test_object_not_in_sd_costs_zero(self, stepper_sd, stepper_dt, refined_chart):
        # The diagram never mentions Ghost, so any chart replays it as is.
        result = repair(stepper_sd, "Ghost", refined_chart, stepper_dt)
        assert result.edits == () and result.repaired == stepper_sd

    def test_refinement_costs_one_insertion(self, stepper_sd, stepper_dt, refined_chart):
        result = repair(stepper_sd, "M", refined_chart, stepper_dt)
        assert result.cost == 1
        (edit,) = result.edits
        assert isinstance(edit, Insert)
        assert edit.message.label == "e3" and edit.message.id == 3
        assert [m.label for m in result.repaired.messages] == ["e1", "e2", "e3", "e4", "e5"]
        assert replay(result.repaired, "M", refined_chart, stepper_dt).accepted
        _, conflicts = annotate(result.repaired, stepper_dt)
        assert conflicts == []

    def test_unique_cost_one_repair(self, stepper_sd, stepper_dt, refined_chart):
        # Brute force over every single edit: only the e3 insertion works.
        working = []
        n = len(stepper_sd.messages)
        for pos in range(1, n + 1):
            sd = apply_edit(stepper_sd, Delete(pos))
            if replay(sd, "M", refined_chart, stepper_dt).accepted:
                working.append(("delete", pos))
        for pos in range(1, n + 2):
            for label, args, sender in insert_candidates(refined_chart, stepper_sd, "M"):
                sd = apply_edit(stepper_sd, Insert(Message(pos, label, args, sender, "M")))
                if replay(sd, "M", refined_chart, stepper_dt).accepted:
                    _, conflicts = annotate(sd, stepper_dt)
                    if not conflicts:
                        working.append(("insert", pos, label))
        assert working == [("insert", 3, "e3")]

    def test_bound_exhausted(self, stepper_sd, stepper_dt, refined_chart):
        with pytest.raises(NoRepairWithinBound) as exc:
            repair(stepper_sd, "M", refined_chart, stepper_dt, max_edits=0)
        assert exc.value.bound == 0

    def test_negative_bound_rejected(self, stepper_sd, stepper_dt, refined_chart):
        with pytest.raises(ValueError, match="^max_edits must be >= 0$"):
            repair(stepper_sd, "M", refined_chart, stepper_dt, max_edits=-1)

    def test_two_deletions_needed(self, stepper_dt, stepper_sd):
        charts, _ = synthesize(stepper_dt, [stepper_sd])
        chart = flatten(charts["M"])
        # Append two junk receives the chart cannot consume; inserting can
        # never help, so the only fix is deleting both.
        sd = stepper_sd
        for label in ("zig", "zag"):
            sd = apply_edit(sd, Insert(Message(len(sd.messages) + 1, label, (), "Env", "M")))
        with pytest.raises(NoRepairWithinBound):
            repair(sd, "M", chart, stepper_dt, max_edits=1)
        result = repair(sd, "M", chart, stepper_dt, max_edits=2)
        assert result.cost == 2
        assert all(isinstance(e, Delete) for e in result.edits)
        assert brute_force_min_cost(sd, "M", chart, stepper_dt, 2) == 2

    def test_monotone_in_bound(self, stepper_sd, stepper_dt, refined_chart):
        for bound in (1, 2, 3):
            assert repair(stepper_sd, "M", refined_chart, stepper_dt, bound).cost == 1

    def test_deterministic(self, stepper_sd, stepper_dt, refined_chart):
        a = repair(stepper_sd, "M", refined_chart, stepper_dt)
        b = repair(stepper_sd, "M", refined_chart, stepper_dt)
        assert a == b

    def test_insert_candidates_order(self, refined_chart, stepper_sd):
        cands = insert_candidates(refined_chart, stepper_sd, "M")
        # chart events in transition order, including e3, which no theory
        # context specifies
        assert cands == [(e, (), "Env") for e in ("e1", "e2", "e3", "e4", "e5")]

    def test_parameterized_candidates_enumerate_domain(self, coffee_dt, sd1):
        # Only the argument the chart receives is tried, not the whole
        # domain; each event comes from every other object in turn.
        charts, _ = synthesize(coffee_dt, [sd1])
        cands = insert_candidates(flatten(charts["Coffee-UI"]), sd1, "Coffee-UI")
        events = [("Display Ready Light", ()), ("Insert coin", ()),
                  ("Enter Selection", ("Espresso",)), ("Cancel", ()), ("Release coin", ())]
        assert cands == [(label, args, sender) for label, args in events
                         for sender in ("Control", "User")]

    def test_reinserts_from_the_original_sender(self, coffee_dt, sd1, sd2):
        # Message 4 of SD1 went from User to Coffee-UI; Control, the first
        # other object, cannot send it without a conflict on its lifeline.
        charts, _ = synthesize(coffee_dt, [sd1, sd2])
        sd = apply_edit(sd1, Delete(4))
        result = repair(sd, "Coffee-UI", flatten(charts["Coffee-UI"]), coffee_dt, max_edits=1)
        assert [e.describe() for e in result.edits] == [
            "insert Enter Selection(Espresso) (User -> Coffee-UI) at position 4"
        ]

    def test_matches_iterative_deepening_oracle(self, monkeypatch):
        # Repairs and failures, explored counts included, equal those of the
        # search that builds and replays every leaf, in both guard modes.
        # Without guards the guard-blind leaf test is exact, so the search
        # replays no leaf: the replay would repeat the test's verdict.
        verdicts = []
        monkeypatch.setattr(checker, "replay", _spy(verdicts, checker.replay))
        rng = random.Random(23)
        costs = Counter()
        for _ in range(1500):
            dt, chart, sd = gen_replay_case(rng, max_msgs=3)
            guarded = any(t.guard for t in chart.transitions)
            for strict in (False, True):
                for bound in (0, 1, 2):
                    verdicts.clear()
                    found = _outcome(repair, sd, "M", chart, dt, bound, strict)
                    assert found == _outcome(repair_dfs, sd, "M", chart, dt, bound, strict), (chart, sd)
                    assert guarded or not verdicts, (chart, sd)
                    costs[getattr(found, "cost", None)] += 1
        assert set(costs) == {0, 1, 2, None}

    def test_matches_oracle_on_longer_diagrams(self):
        # Up to 8 messages cut a diagram into more spans, and a span at more
        # places, than up to 3 do, so one node's leaves share more insert
        # sets; results and explored counts still equal the oracle's.
        rng = random.Random(29)
        costs = Counter()
        for _ in range(1000):
            dt, chart, sd = gen_replay_case(rng, max_msgs=8)
            for strict in (False, True):
                for bound in (0, 1):
                    found = _outcome(repair, sd, "M", chart, dt, bound, strict)
                    assert found == _outcome(repair_dfs, sd, "M", chart, dt, bound, strict), (chart, sd)
                    costs[getattr(found, "cost", None)] += 1
        assert set(costs) == {0, 1, None}

    def test_single_deletions_match_oracle(self, coffee_dt, sd1, sd2):
        charts = {obj: flatten(chart) for obj, chart in synthesize(coffee_dt, [sd1, sd2])[0].items()}
        rejected = 0
        for sd in (sd1, sd2):
            for pos in range(1, len(sd.messages) + 1):
                mutated = apply_edit(sd, Delete(pos))
                for obj in sd.objects:
                    if replay(mutated, obj, charts[obj], coffee_dt).accepted:
                        continue
                    rejected += 1
                    assert (_outcome(repair, mutated, obj, charts[obj], coffee_dt, 1)
                            == _outcome(repair_dfs, mutated, obj, charts[obj], coffee_dt, 1))
        assert rejected > 10

    def test_leaves_are_decided_without_replaying_them(self, monkeypatch, coffee_dt, sd1, sd2):
        # 9,137 leaves at depth 2; the search that replayed each one made
        # 9,137 replay and 9,193 apply_edit calls.
        charts, _ = synthesize(coffee_dt, [sd1, sd2])
        sd = apply_edit(apply_edit(sd1, Delete(5)), Delete(4))
        calls = Counter()
        for name in ("replay", "apply_edit"):
            monkeypatch.setattr(checker, name, _counting(calls, name, getattr(checker, name)))
        found = repair(sd, "Coffee-UI", flatten(charts["Coffee-UI"]), coffee_dt, max_edits=2)
        assert [e.describe() for e in found.edits] == [
            "insert Enter Selection(Espresso) (User -> Coffee-UI) at position 4",
            "insert Cancel (Control -> Coffee-UI) at position 5",
        ]
        assert calls["replay"] <= 10 and calls["apply_edit"] <= 100

    def test_leaves_no_reference_cycles(self, stepper_sd, stepper_dt, refined_chart, coffee_dt, sd1, sd2):
        # A search whose state reaches itself would leave it all as cyclic
        # garbage, which only the collector frees.
        chart = flatten(synthesize(coffee_dt, [sd1, sd2])[0]["Coffee-UI"])
        sd = apply_edit(apply_edit(sd1, Delete(5)), Delete(4))
        gc.collect()
        enabled, flags = gc.isenabled(), gc.get_debug()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert repair(stepper_sd, "M", refined_chart, stepper_dt).cost == 1
            assert repair(sd, "Coffee-UI", chart, coffee_dt, max_edits=2).cost == 2
            try:
                repair(sd, "Coffee-UI", chart, coffee_dt, max_edits=1)
            except NoRepairWithinBound:
                pass
            else:
                pytest.fail("one edit repaired a diagram that needs two")
            assert gc.collect() == 0
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            if enabled:
                gc.enable()

    def test_builds_exactly_the_leaves_replay_accepts(self, monkeypatch, coffee_dt, sd1, sd2):
        # One edit deep a leaf is built exactly when the node's table passes
        # it, so the search's apply_edit calls equal the leaves, in search
        # order up to the repair found, that replay without guards accepts.
        charts, _ = synthesize(coffee_dt, [sd1, sd2])
        calls = Counter()
        monkeypatch.setattr(checker, "apply_edit", _counting(calls, "apply_edit", apply_edit))
        built = every = searches = failures = 0
        for sd in (sd1, sd2):
            for pos in range(1, len(sd.messages) + 1):
                mutated = apply_edit(sd, Delete(pos))
                for obj in sd.objects:
                    chart = flatten(charts[obj])
                    blind = chart._replace(transitions=tuple(t._replace(guard=()) for t in chart.transitions))
                    if replay(mutated, obj, chart, coffee_dt).accepted:
                        continue
                    calls.clear()
                    found = _outcome(repair, mutated, obj, chart, coffee_dt, 1)
                    n = len(mutated.messages)
                    leaves = [Delete(at) for at in range(1, n + 1)] + [
                        Insert(Message(at, *c, obj)) for at in range(1, n + 2)
                        for c in insert_candidates(chart, mutated, obj)]
                    every += len(leaves)
                    searches += 1
                    failures += isinstance(found, str)
                    if not isinstance(found, str):
                        leaves = leaves[:leaves.index(found.edits[0]) + 1]
                    accepted = [replay(apply_edit(mutated, e), obj, blind, coffee_dt).accepted for e in leaves]
                    assert isinstance(found, str) or accepted[-1]
                    assert calls["apply_edit"] == sum(accepted), (sd.name, pos, obj)
                    built += sum(accepted)
        # 15 searches, 2 of them failing after deciding all of their 160 leaves.
        assert searches == 15 and failures == 2 and 0 < built < every // 4

    def test_annotates_each_built_leaf_once(self, monkeypatch, stepper_sd, stepper_dt):
        # One edit deep every apply_edit call builds a leaf; replay reuses
        # the leaf's annotation for the guard.
        chart = flatten(parse_sc(read("stepper_refined/M.sc").replace("N1 -> N2 : e1\n", "N1 -> N2 : e1 [Step = 0]\n")))
        calls = Counter()
        for name in ("annotate", "apply_edit"):
            monkeypatch.setattr(checker, name, _counting(calls, name, getattr(checker, name)))
        found = repair(stepper_sd, "M", chart, stepper_dt, max_edits=1)
        assert [e.describe() for e in found.edits] == ["insert e3 (Env -> M) at position 3"]
        assert calls["annotate"] == calls["apply_edit"] > 0


class TestLeafTest:
    def test_matches_independent_replay(self):
        # With guards taken off, the leaf test's verdict on a diagram, on
        # each delete and on each insert equals replay_dfs's on the diagram
        # each leaf builds.
        rng = random.Random(37)
        seen = Counter()
        for _ in range(1000):
            dt, chart, sd = gen_replay_case(rng)
            chart = chart._replace(transitions=tuple(t._replace(guard=()) for t in chart.transitions))
            accepted, deletable, fitting = leaf_test(chart, sd, "M")
            expected, deletes, inserts = leaf_verdicts(sd, "M", chart, dt)
            assert (accepted, deletable) == (expected, deletes), (chart, sd)
            assert [fitting(pos) for pos in range(1, len(sd.messages) + 2)] == inserts, (chart, sd)
            seen["accepted"] += accepted
            seen["rejected"] += not accepted
            seen["delete fits"] += any(deletes)
            seen["delete refused"] += not all(deletes)
            seen["insert fits"] += any(inserts)
        assert min(seen.values()) > 100, seen


class TestCheckAll:
    def test_all_consistent(self, sd1, sd2, coffee_dt):
        charts, _ = synthesize(coffee_dt, [sd1, sd2])
        records = check_all(coffee_dt, charts, [sd1, sd2])
        assert all(r.trace.accepted and r.repair is None for r in records)
        assert len(records) == 6

    def test_rejected_pair_repaired(self, stepper_sd, stepper_dt):
        records = check_all(stepper_dt, {"M": parse_sc(read("stepper_refined/M.sc"), "M.sc")}, [stepper_sd])
        (rec,) = records
        assert not rec.trace.accepted
        assert rec.repair is not None and rec.repair.cost == 1

    def test_annotates_each_diagram_once(self, monkeypatch, stepper_sd, stepper_dt):
        # Both charts have a guard; both replays use one annotation.
        m = parse_sc("statechart M\ninitial N1\nstate N1\nstate N2\nstate N3\nstate N4\n"
                     "N1 -> N2 : e1 [Step = 0]\nN2 -> N3 : e2\nN3 -> N4 : e4\nN4 -> N4 : e5")
        env = parse_sc("statechart Env\ninitial A\nstate A\nstate B\nA -> B : [Step = 0] / e1, e2, e4, e5")
        calls = Counter()
        monkeypatch.setattr(checker, "annotate", _counting(calls, "annotate", checker.annotate))
        records = check_all(stepper_dt, {"M": m, "Env": env}, [stepper_sd])
        assert [r.trace.accepted for r in records] == [True, True]
        assert calls["annotate"] == 1

    def test_flattens_each_chart_once(self, monkeypatch, sd1, sd2, coffee_dt):
        # Three diagrams against the synthesized coffee charts: each chart
        # with a composite is flattened once per run, not once per diagram.
        charts, _ = synthesize(coffee_dt, [sd1, sd2])
        nested = [obj for obj, chart in charts.items() if any(n.is_composite for n in chart.nodes)]
        calls = Counter()

        def counting(chart):
            calls[chart.name] += any(n.is_composite for n in chart.nodes)
            return flatten(chart)

        monkeypatch.setattr(checker, "flatten", counting)
        records = check_all(coffee_dt, charts, [sd1, sd2, sd1])
        assert [r.trace.accepted for r in records] == [True] * 9 and nested
        assert calls == Counter(dict.fromkeys(nested, 1))

    def test_repeated_transition_counts_once(self):
        # A transition written twice is one transition, in a chart with a
        # composite or without, so its failed guard is named once.
        dt = parse_domain_theory("x : Boolean\ncontext go\n pre: x = F ;\n post: x = F ;")
        sd = parse_sd("sd S\nobject Env\nobject M\nmsg 1 Env -> M : go")
        twice = ["A -> B : go [x = T]"] * 2
        flat = parse_sc("\n".join(["statechart M", "initial A", "state A", "state B", *twice]))
        nested = parse_sc("\n".join(["statechart M", "initial G", "state G {", "initial A", "state A",
                                     *twice, "}", "state B"]))
        for chart in (flat, nested):
            (rec,) = check_all(dt, {"M": chart}, [sd], max_edits=0)
            assert rec.trace.steps[-1].mismatch == "guard [x = T] does not hold", chart

    def test_unmapped_objects_skipped(self, stepper_sd, stepper_dt):
        charts, _ = synthesize(stepper_dt, [stepper_sd])
        records = check_all(stepper_dt, {"M": charts["M"]}, [stepper_sd])
        assert [r.object for r in records] == ["M"]


class TestMinimality:
    def test_against_brute_force_on_mutations(self):
        rng = random.Random(42)
        cases = 0
        while cases < 12:
            dt, sd = conflict_free_pair(rng, max_msgs=5, max_objs=2)
            lines, _ = annotate(sd, dt)
            obj = max(sd.objects, key=lambda o: sum(1 for m in sd.messages if m.receiver == o))
            chart = synth_object_chart(obj, lines[obj], dt)
            mutated = _mutate(rng, sd, dt, chart, obj, rng.randint(1, 2))
            if mutated is None:
                continue
            found = repair(mutated, obj, chart, dt, max_edits=3)
            oracle = brute_force_min_cost(mutated, obj, chart, dt, found.cost)
            assert oracle == found.cost
            cases += 1

    def test_against_brute_force_with_three_objects(self):
        rng = random.Random(7)
        cases = 0
        while cases < 12:
            dt, sd = conflict_free_pair(rng, max_msgs=5, max_objs=3)
            if len(sd.objects) < 3:
                continue
            lines, _ = annotate(sd, dt)
            obj = max(sd.objects, key=lambda o: sum(1 for m in sd.messages if m.receiver == o))
            chart = synth_object_chart(obj, lines[obj], dt)
            mutated = _mutate(rng, sd, dt, chart, obj, rng.randint(1, 2))
            found = repair(mutated, obj, chart, dt, max_edits=3)
            assert brute_force_min_cost(mutated, obj, chart, dt, found.cost) == found.cost
            cases += 1

    def test_deleted_message_from_the_second_sender(self):
        # Only B may send go again: A's lifeline still holds x = T from up.
        # Sent by the first other object alone, the cheapest repair deletes
        # fin and fin2.
        dt = parse_domain_theory(
            "x : Boolean\ns : 0..3\n"
            "context up\n pre: x = F and s = 0 ;\n post: x = T ;\n"
            "context down\n pre: x = T and s = 0 ;\n post: x = F ;\n"
            "context go\n pre: x = F and s = 0 ;\n post: s = 1 ;\n"
            "context fin\n pre: s = 1 ;\n post: s = 2 ;\n"
            "context fin2\n pre: s = 2 ;\n post: s = 3 ;"
        )
        sd = parse_sd(
            "sd S\nobject A\nobject B\nobject M\nmsg 1 A -> B : up\nmsg 2 M -> B : down\n"
            "msg 3 B -> M : go\nmsg 4 B -> M : fin\nmsg 5 B -> M : fin2"
        )
        lines, _ = annotate(sd, dt)
        chart = synth_object_chart("M", lines["M"], dt)
        mutated = apply_edit(sd, Delete(3))
        found = repair(mutated, "M", chart, dt, max_edits=2)
        assert [e.describe() for e in found.edits] == ["insert go (B -> M) at position 3"]
        assert brute_force_min_cost(mutated, "M", chart, dt, 2) == 1


class TestKeyTypes:
    def test_vector_and_name_keys_agree(self):
        # A synthesized chart keyed by vector, by name, and by name after
        # nesting and flattening: replay takes the same transitions from the
        # same states, up to naming, and repair finds the same edits.
        rng = random.Random(61)
        seen = Counter()
        for _ in range(200):
            dt, sd = conflict_free_pair(rng, max_msgs=5, max_objs=2)
            lines, _ = annotate(sd, dt)
            obj = max(sd.objects, key=lambda o: sum(1 for m in sd.messages if m.receiver == o))
            chart = synth_object_chart(obj, lines[obj], dt)
            named = to_statechart(chart)
            name = dict(zip(chart.states, (n.name for n in named.nodes)))
            forms = (chart, flatten(named), flatten(introduce_hierarchy(chart)))
            mutated = _mutate(rng, sd, dt, chart, obj, rng.randint(1, 2))
            by_vector, *by_name = [replay(mutated, obj, c, dt) for c in forms]
            renamed = tuple(step._replace(
                from_state=name[step.from_state],
                transition=step.transition and step.transition._replace(
                    source=name[step.transition.source], target=name[step.transition.target]))
                for step in by_vector.steps)
            assert by_name == [by_vector._replace(steps=renamed)] * 2, (sd, mutated)
            found = [_outcome(repair, mutated, obj, c, dt, 2) for c in forms]
            assert found == [found[0]] * 3, (sd, mutated)
            seen[by_vector.accepted, getattr(found[0], "cost", None)] += 1
        assert {(True, 0), (False, 1), (False, 2)} <= set(seen), seen


def _outcome(search, *args):
    try:
        return search(*args)
    except NoRepairWithinBound as exc:
        return str(exc)


def _counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _spy(verdicts, replay_fn):
    def wrapper(*args, **kwargs):
        trace = replay_fn(*args, **kwargs)
        verdicts.append(trace.accepted)
        return trace
    return wrapper


def _mutate(rng, sd, dt, chart, obj, count):
    cands = mutation_candidates(dt, chart, sd, obj)
    for _ in range(count):
        if sd.messages and rng.random() < 0.5:
            sd = apply_edit(sd, Delete(rng.randint(1, len(sd.messages))))
        else:
            label, args, sender = rng.choice(cands)
            pos = rng.randint(1, len(sd.messages) + 1)
            sd = apply_edit(sd, Insert(Message(pos, label, args, sender, obj)))
    return sd
