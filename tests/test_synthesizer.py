import random

import pytest

import scdebug.synthesizer
from scdebug.annotator import annotate
from scdebug.dsl import parse_domain_theory, parse_sd, print_sc
from scdebug.model import check_chart
from scdebug.synthesizer import (
    ConflictedInputError,
    FlatChart,
    flatten,
    introduce_hierarchy,
    merge_charts,
    synth_object_chart,
    synthesize,
    to_statechart,
)

from gen import conflict_free_pair, gen_flat_chart, mergeable_corpus
from oracles import largest_region


def chart_for(sd, dt, obj):
    asd, conflicts = annotate(sd, dt)
    return synth_object_chart(asd, obj, conflicts)


def transition_set(chart):
    flat = flatten(chart)
    return {(t.source, t.target, t.event, t.actions, t.guard) for t in flat.transitions}


class TestObjectChart:
    def test_single_received_message(self):
        dt = parse_domain_theory("x : Boolean\ncontext m\n pre: x = F ;\n post: x = T ;")
        sd = parse_sd("sd S\nobject A\nobject B\nmsg 1 A -> B : m")
        chart = chart_for(sd, dt, "B")
        assert len(chart.states) == 2
        assert chart.transitions == ((("F",), ("T",), "m", ()),)

    def test_coffee_ui_loops_to_initial(self, sd1, coffee_dt):
        chart = chart_for(sd1, coffee_dt, "Coffee-UI")
        back = [t for t in chart.transitions if "Take coin" in t[3]]
        assert back, "the coin-return block must appear as actions"
        frm, to, event, actions = back[0]
        assert event == "Release coin"
        assert to == chart.initial

    def test_only_sender_gets_completion_transition(self):
        dt = parse_domain_theory("x : Boolean")
        sd = parse_sd("sd S\nobject A\nobject B\nmsg 1 A -> B : ping\nmsg 2 A -> B : pong")
        chart = chart_for(sd, dt, "A")
        assert len(chart.states) == 1
        ((frm, to, event, actions),) = chart.transitions
        assert event == "" and actions == ("ping", "pong")

    def test_conflicted_object_refused(self, sd1, coffee_dt_unfixed):
        asd, conflicts = annotate(sd1, coffee_dt_unfixed)
        with pytest.raises(ConflictedInputError):
            synth_object_chart(asd, "Coffee-UI", conflicts)


class TestMerge:
    def test_idempotent(self, sd1, coffee_dt):
        c = chart_for(sd1, coffee_dt, "Coffee-UI")
        assert merge_charts([c, c]) == c

    def test_merge_with_empty_lifeline_chart(self, coffee_dt):
        sd_a = parse_sd("sd A\nobject X\nobject Y\nmsg 1 X -> Y : Insert coin")
        sd_empty = parse_sd("sd B\nobject X\nobject Y")
        a = chart_for(sd_a, coffee_dt, "Y")
        b = chart_for(sd_empty, coffee_dt, "Y")
        merged = merge_charts([a, b])
        assert transition_set(to_statechart(merged)) == transition_set(to_statechart(a))

    def test_fixture_branch(self, sd1, sd2, coffee_dt):
        c1 = chart_for(sd1, coffee_dt, "Coffee-UI")
        c2 = chart_for(sd2, coffee_dt, "Coffee-UI")
        merged = merge_charts([c1, c2])
        # shared initial state and a branch on the two selections
        assert merged.initial == c1.initial
        events = {t[2] for t in merged.transitions}
        assert {"Enter Selection(Espresso)", "Enter Selection(Cappuchino)"} <= events
        froms = {t[0] for t in merged.transitions if t[2].startswith("Enter Selection")}
        assert len(froms) == 1

    def test_commutative_on_fixtures(self, sd1, sd2, coffee_dt):
        c1 = chart_for(sd1, coffee_dt, "Coffee-UI")
        c2 = chart_for(sd2, coffee_dt, "Coffee-UI")
        ab = merge_charts([c1, c2])
        ba = merge_charts([c2, c1])
        assert set(ab.states) == set(ba.states)
        assert set(ab.transitions) == set(ba.transitions)

    def test_associative_on_fixtures(self, sd1, sd2, coffee_dt):
        c1 = chart_for(sd1, coffee_dt, "Coffee-UI")
        c2 = chart_for(sd2, coffee_dt, "Coffee-UI")
        left = merge_charts([merge_charts([c1, c2]), c1])
        right = merge_charts([c1, merge_charts([c2, c1])])
        assert set(left.states) == set(right.states)
        assert set(left.transitions) == set(right.transitions)


class TestHierarchy:
    def _flat(self, states, initial, transitions):
        return FlatChart("X", tuple(states), initial, tuple(transitions))

    def test_linear_chain_becomes_composite(self):
        # D -> A -> B -> C -> E with an external cycle E -> D: the chain
        # A,B,C is single-entry (A) single-exit (C).
        s = [("D",), ("A",), ("B",), ("C",), ("E",)]
        ts = [
            (("D",), ("A",), "in", ()),
            (("A",), ("B",), "ab", ()),
            (("B",), ("C",), "bc", ()),
            (("C",), ("E",), "out", ()),
            (("E",), ("D",), "back", ()),
        ]
        chart = introduce_hierarchy(self._flat(s, ("D",), ts))
        composites = [n for n in chart.nodes if n.is_composite]
        assert composites, print_sc(chart)
        flat_again = flatten(chart)
        original = to_statechart(self._flat(s, ("D",), ts))
        assert set(flat_again.transitions) == set(original.transitions)
        assert sorted(n.name for n in flat_again.nodes) == sorted(n.name for n in original.nodes)
        assert flat_again.initial == original.initial

    def test_no_region_unchanged(self):
        # Two nodes swapping control: every proper subset of size >= 2 is
        # the whole graph, so nothing can be wrapped.
        s = [("A",), ("B",)]
        ts = [(("A",), ("B",), "x", ()), (("B",), ("A",), "y", ())]
        chart = introduce_hierarchy(self._flat(s, ("A",), ts))
        assert not any(n.is_composite for n in chart.nodes)

    def test_flatten_inverts_hierarchy_on_fixture(self, sd1, sd2, coffee_dt):
        merged = merge_charts(
            [chart_for(sd1, coffee_dt, "Coffee-UI"), chart_for(sd2, coffee_dt, "Coffee-UI")]
        )
        hier = introduce_hierarchy(merged, "Coffee-UI")
        check_chart(hier)
        flat = flatten(hier)
        reference = to_statechart(merged, "Coffee-UI")
        assert set(flat.transitions) == set(reference.transitions)
        assert sorted(n.name for n in flat.nodes) == sorted(n.name for n in reference.nodes)
        assert flat.initial == reference.initial

    def test_flatten_inverts_hierarchy_on_random_corpus(self):
        rng = random.Random(23)
        for _ in range(30):
            dt, sd = conflict_free_pair(rng, max_msgs=8)
            asd, conflicts = annotate(sd, dt)
            for obj in sd.objects:
                merged = synth_object_chart(asd, obj, conflicts)
                hier = introduce_hierarchy(merged, obj)
                check_chart(hier)
                flat = flatten(hier)
                reference = to_statechart(merged, obj)
                assert set(flat.transitions) == set(reference.transitions)
                assert sorted(n.name for n in flat.nodes) == sorted(
                    n.name for n in reference.nodes
                )
                assert flat.initial == reference.initial

    def test_matches_exhaustive_oracle(self, monkeypatch):
        rng = random.Random(11)
        charts = [gen_flat_chart(rng, max_states=10) for _ in range(2000)]
        fast = [print_sc(introduce_hierarchy(c)) for c in charts]
        monkeypatch.setattr(scdebug.synthesizer, "_largest_region", largest_region)
        slow = [print_sc(introduce_hierarchy(c)) for c in charts]
        assert sum("{" in text for text in fast) > 500  # many charts get composites
        for chart, got, want in zip(charts, fast, slow):
            assert got == want, chart

    def test_long_ring_nests_one_composite_per_level(self):
        states = tuple((f"s{i}",) for i in range(64))
        ts = tuple((states[i], states[(i + 1) % 64], f"e{i}", ()) for i in range(64))
        chart = self._flat(states, states[0], ts)
        hier = introduce_hierarchy(chart)
        check_chart(hier)
        assert flatten(hier) == to_statechart(chart)
        depth, level = 0, hier
        while any(n.is_composite for n in level.nodes):
            (level,) = [n.children for n in level.nodes if n.is_composite]
            depth += 1
        assert depth == 62


class TestSynthesize:
    def test_fixture_corpus(self, sd1, sd2, coffee_dt):
        charts, warnings = synthesize(coffee_dt, [sd1, sd2])
        assert set(charts) == {"Control", "Coffee-UI", "User"}
        for chart in charts.values():
            check_chart(chart)

    def test_conflicting_corpus_aborts(self, sd1, coffee_dt_unfixed):
        with pytest.raises(ConflictedInputError) as exc:
            synthesize(coffee_dt_unfixed, [sd1])
        assert len(exc.value.conflicts) == 1
        assert exc.value.conflicts[0].variable.name == "CoffeeTypeSelected"

    def test_empty_sd_list(self, coffee_dt):
        charts, warnings = synthesize(coffee_dt, [])
        assert charts == {}

    def test_deterministic_output(self, sd1, sd2, coffee_dt):
        a, _ = synthesize(coffee_dt, [sd1, sd2])
        b, _ = synthesize(coffee_dt, [sd1, sd2])
        assert {k: print_sc(v) for k, v in a.items()} == {k: print_sc(v) for k, v in b.items()}

    def test_mergeable_corpus_round(self):
        rng = random.Random(5)
        dt, sds = mergeable_corpus(rng, count=2, max_msgs=6)
        charts, _ = synthesize(dt, sds)
        for chart in charts.values():
            check_chart(chart)
