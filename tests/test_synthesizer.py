import random
from collections import Counter

import pytest

from scdebug.annotator import annotate
from scdebug.dsl import parse_domain_theory, parse_sc, parse_sd, print_sc
from scdebug.model import unify
from scdebug.synthesizer import (
    ConflictedInputError,
    FlatChart,
    flatten,
    introduce_hierarchy,
    merge_charts,
    receive_spans,
    synth_object_chart,
    synthesize,
    to_statechart,
)

from gen import conflict_free_pair, gen_flat_chart, gen_replay_case, gen_sd, gen_theory, mergeable_corpus
from oracles import lifeline, lifeline_gaps_by_lifeline


def chart_for(sd, dt, obj):
    asd, _ = annotate(sd, dt)
    return synth_object_chart(asd, obj)


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
        # The clashing gap the chart would be built on names the object's conflicts.
        asd, conflicts = annotate(sd1, coffee_dt_unfixed)
        mine = [c for c in conflicts if c.object == "Coffee-UI"]
        with pytest.raises(ConflictedInputError) as exc:
            synth_object_chart(asd, "Coffee-UI")
        assert mine and exc.value.conflicts == mine

    def test_gap_states_are_last_faces(self):
        # A chart is refused exactly when annotate's conflicts name its object;
        # otherwise every gap's faces unify to its last face, so that face
        # is the gap's state.  Every other diagram holds 1-3 no_loop pairs
        # of adjacent messages, whose gaps are never joined, so their two
        # faces can differ.
        rng = random.Random(22)
        refused = built = unequal = 0
        for k in range(2000):
            dt = gen_theory(rng)
            sd = gen_sd(rng, dt, max_msgs=rng.choice((6, 14)), max_objs=3)
            while k % 2 and len(sd.messages) < 2:
                sd = gen_sd(rng, dt, max_msgs=6, max_objs=3)
            if k % 2:
                starts = [rng.randint(1, len(sd.messages) - 1) for _ in range(rng.randint(1, 3))]
                sd = sd._replace(no_loop=frozenset(frozenset((i, i + 1)) for i in starts))
            asd, conflicts = annotate(sd, dt)
            for obj in sd.objects:
                mine = [c for c in conflicts if c.object == obj]
                if mine:
                    with pytest.raises(ConflictedInputError) as exc:
                        synth_object_chart(asd, obj)
                    assert exc.value.conflicts == mine
                    refused += 1
                    continue
                states = []
                faces = asd.lines[obj].faces
                for gap in lifeline_gaps_by_lifeline(sd, obj):
                    joined = (None,) * dt.width
                    for i in gap:
                        joined = unify(joined, tuple(faces[i]))
                    assert joined == (tuple(faces[gap[-1]]) if gap else (None,) * dt.width)
                    states.append(joined)
                    unequal += len(gap) == 2 and faces[gap[0]] != faces[gap[1]]
                chart = synth_object_chart(asd, obj)
                assert chart.initial == states[0] and set(chart.states) <= set(states)
                built += 1
        assert refused > 500 and built > 2_000 and unequal > 100


class TestReceiveSpans:
    def test_spans_partition_the_lifeline(self):
        # Replay cases (self-messages, leading sends) and random diagrams of
        # two or three objects: the spans' messages, in order, are the
        # lifeline; span 0 has no received message and every later span
        # opens with one; all other span messages go to another object.
        rng = random.Random(29)
        seen = Counter()
        for _ in range(800):
            if rng.random() < 0.5:
                _, _, sd = gen_replay_case(rng)
            else:
                sd = gen_sd(rng, gen_theory(rng))
            for obj in sd.objects:
                spans = receive_spans(sd.messages, obj)
                assert spans[0][0] is None
                assert all(received.receiver == obj for received, _ in spans[1:])
                assert all(m.sender == obj != m.receiver for _, sends in spans for m in sends)
                joined = [m for received, sends in spans for m in [received, *sends] if m is not None]
                assert joined == list(lifeline(sd, obj))
                seen["self"] += any(m.sender == m.receiver == obj for m in sd.messages)
                seen["leading"] += bool(spans[0][1])
                seen["empty"] += not joined
        assert min(seen["self"], seen["leading"], seen["empty"]) > 20, seen


class TestMerge:
    def test_idempotent(self, sd1, coffee_dt):
        c = chart_for(sd1, coffee_dt, "Coffee-UI")
        assert merge_charts([c, c]) == c

    def test_rejects_no_charts_and_mixed_objects(self, coffee_dt):
        sd = parse_sd("sd S\nobject A\nobject B\nmsg 1 A -> B : Insert coin")
        with pytest.raises(ValueError, match="^nothing to merge$"):
            merge_charts([])
        with pytest.raises(ValueError, match="^cannot merge charts of 'A' and 'B'$"):
            merge_charts([chart_for(sd, coffee_dt, "A"), chart_for(sd, coffee_dt, "B")])

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

    def test_refined_keys_collapse(self):
        # c2's partial state W unifies with X, not with its exact twin Y;
        # X then refines to Y's key and the two become one state.
        i, x, y, w, xy = ("F", "F"), ("T", None), ("T", "F"), (None, "F"), ("T", "F")
        c1 = FlatChart("O", i, ((i, x, "a", ()), (i, y, "b", ())))
        c2 = FlatChart("O", i, ((i, w, "a", ()), (w, i, "c", ("s",))))
        merged = merge_charts([c1, c2])
        assert merged == FlatChart("O", i, ((i, xy, "a", ()), (i, xy, "b", ()), (xy, i, "c", ("s",))))
        assert merged.states == (i, xy)

    def test_associative_on_fixtures(self, sd1, sd2, coffee_dt):
        c1 = chart_for(sd1, coffee_dt, "Coffee-UI")
        c2 = chart_for(sd2, coffee_dt, "Coffee-UI")
        left = merge_charts([merge_charts([c1, c2]), c1])
        right = merge_charts([c1, merge_charts([c2, c1])])
        assert set(left.states) == set(right.states)
        assert set(left.transitions) == set(right.transitions)


class TestHierarchy:
    def _flat(self, initial, transitions):
        return FlatChart("X", initial, tuple(transitions))

    def test_no_region_unchanged(self):
        # Two states with different values: no value is shared by two
        # states short of the whole scope, so nothing is nested.
        a, b = ("A",), ("B",)
        chart = introduce_hierarchy(self._flat(a, [(a, b, "x", ()), (b, a, "y", ())]))
        assert not any(n.is_composite for n in chart.nodes)

    def test_theory_wider_than_the_recursion_limit(self):
        # State k is T on variables 0..k-1 and F after: one composite per
        # variable, each holding every later state.
        n = 1100
        s = [("T",) * k + ("F",) * (n - k) for k in range(n + 1)]
        ts = [(a, b, "e", ()) for a, b in zip(s, s[1:])]
        hier = introduce_hierarchy(self._flat(s[0], ts))
        assert print_sc(hier).count("{") == n - 1  # the last group is two states
        assert flatten(hier) == to_statechart(self._flat(s[0], ts))

    def test_flatten_inverts_hierarchy_on_fixture(self, sd1, sd2, coffee_dt):
        merged = merge_charts(
            [chart_for(sd1, coffee_dt, "Coffee-UI"), chart_for(sd2, coffee_dt, "Coffee-UI")]
        )
        hier = introduce_hierarchy(merged)
        assert parse_sc(print_sc(hier)) == hier
        flat = flatten(hier)
        reference = to_statechart(merged)
        assert flat.transitions == reference.transitions
        assert sorted(n.name for n in flat.nodes) == sorted(n.name for n in reference.nodes)
        assert flat.initial == reference.initial

    def test_flatten_inverts_hierarchy_on_random_corpus(self):
        rng = random.Random(23)
        for _ in range(30):
            dt, sd = conflict_free_pair(rng, max_msgs=8)
            asd, _ = annotate(sd, dt)
            for obj in sd.objects:
                merged = synth_object_chart(asd, obj)
                hier = introduce_hierarchy(merged)
                assert parse_sc(print_sc(hier)) == hier
                flat = flatten(hier)
                reference = to_statechart(merged)
                assert flat.transitions == reference.transitions
                assert sorted(n.name for n in flat.nodes) == sorted(
                    n.name for n in reference.nodes
                )
                assert flat.initial == reference.initial

    def test_flatten_composite_source_and_nested_entry(self):
        # G1 enters at G2, which enters at C; the transition out of G1 fires
        # from every node inside it, and its copy from C is already there.
        hier = parse_sc(
            "statechart M\ninitial G1\nstate A\n"
            "state G1 {\n initial G2\n"
            " state G2 {\n  initial C\n  state C\n  state D\n  C -> D : y\n  C -> A : reset / r\n }\n"
            " state B\n D -> B : z\n}\n"
            "A -> G1 : go\nG1 -> A : reset / r\nB -> G2 : back [x = T]\n"
        )
        assert flatten(hier) == parse_sc(
            "statechart M\ninitial C\nstate A\nstate C\nstate D\nstate B\n"
            "C -> D : y\nC -> A : reset / r\nD -> B : z\nA -> C : go\n"
            "D -> A : reset / r\nB -> A : reset / r\nB -> C : back [x = T]\n"
        )

    def test_variable_split_on_random_charts(self):
        rng = random.Random(11)
        nested = deepest = 0
        for _ in range(2000):
            chart = gen_flat_chart(rng, max_states=10)
            hier = introduce_hierarchy(chart)
            assert parse_sc(print_sc(hier)) == hier
            flat, reference = flatten(hier), to_statechart(chart)
            assert flat.transitions == reference.transitions
            assert flat.initial == reference.initial
            assert {n.name for n in flat.nodes} == {n.name for n in reference.nodes}
            composites, depth = check_variable_split(chart, hier)
            nested += composites > 0
            deepest = max(deepest, depth)
        assert nested >= 500
        assert deepest >= 2


def _vector(comment):
    return tuple(None if c == "?" else c for c in comment.strip("<>").split(","))


def _simple_names(sc):
    names = []
    for n in sc.nodes:
        names.extend(_simple_names(n.children) if n.is_composite else [n.name])
    return names


def check_variable_split(chart, hier):
    """Assert the variable-split rule level by level; returns (composite
    count, nesting depth)."""
    key = {f"N{i}": k for i, k in enumerate(chart.states, start=1)}
    slot = {name: i for i, name in enumerate(key)}
    initial = "N1"  # the initial state comes first
    width = len(chart.initial)
    names, deepest = [], 0

    def visit(sc, start, fixed, depth):
        nonlocal deepest
        deepest = max(deepest, depth)
        scope = _simple_names(sc)
        members = {n.name: _simple_names(n.children) if n.is_composite else [n.name] for n in sc.nodes}
        firsts = [slot[members[n.name][0]] for n in sc.nodes]
        assert firsts == sorted(firsts), "each node takes the slot of its first state"
        holders = [n.name for n in sc.nodes if initial in members[n.name]]
        assert sc.initial == (holders or [sc.nodes[0].name])[0]
        split = width
        for n in sc.nodes:
            if not n.is_composite:
                continue
            names.append(n.name)
            assert n.children.transitions == ()
            assert 2 <= len(members[n.name]) < len(scope)
            path = _vector(n.comment)
            (var,) = [i for i in range(width) if path[i] != fixed[i]]
            assert var >= start and path[var] is not None
            assert split in (width, var), "one split variable per scope"
            split = var
            assert set(members[n.name]) == {s for s in scope if key[s][var] == path[var]}
            for s in members[n.name]:
                assert all(c is None or key[s][i] == c for i, c in enumerate(path))
            visit(n.children, var + 1, path, depth + 1)
        for var in range(start, split):
            counts = Counter(key[s][var] for s in scope if key[s][var] is not None)
            assert all(not 2 <= c < len(scope) for c in counts.values()), "an earlier variable qualifies"
        if split < width:
            left = [key[n.name][split] for n in sc.nodes if not n.is_composite]
            left = [v for v in left if v is not None]
            assert len(left) == len(set(left)), "two states left in a scope share a value"

    visit(hier, 0, (None,) * width, 0)
    assert names == [f"G{k}" for k in range(1, len(names) + 1)], "pre-order numbering"
    assert deepest <= width
    return len(names), deepest


class TestSynthesize:
    def test_fixture_corpus(self, sd1, sd2, coffee_dt):
        charts, warnings = synthesize(coffee_dt, [sd1, sd2])
        assert set(charts) == {"Control", "Coffee-UI", "User"}
        for chart in charts.values():
            assert parse_sc(print_sc(chart)) == chart

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
            assert parse_sc(print_sc(chart)) == chart
