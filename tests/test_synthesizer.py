import itertools
import random
from collections import Counter

import pytest

from scdebug import annotator, synthesizer
from scdebug.annotator import annotate, detect_conflicts
from scdebug.dsl import parse_domain_theory, parse_sc, parse_sd, print_sc
from scdebug.model import Node, Statechart, Transition, unify, walk
from scdebug.synthesizer import (
    COMPLETION,
    ConflictedInputError,
    FlatChart,
    flatten,
    introduce_hierarchy,
    merge_charts,
    spans,
    synth_object_chart,
    synthesize,
    takes_step,
    to_statechart,
)

from gen import conflict_free_pair, gen_flat_chart, gen_replay_case, gen_sd, gen_theory, mergeable_corpus
from oracles import flatten_rebuilt, lifeline, lifeline_gaps_by_lifeline


def chart_for(sd, dt, obj):
    lines, _ = annotate(sd, dt)
    return synth_object_chart(obj, lines[obj], dt)


def transition_set(chart):
    flat = flatten(chart)
    return {(t.source, t.target, t.event, t.actions, t.guard) for t in flat.transitions}


def simple_nodes(chart):
    """A chart's simple nodes in document order, read along ``walk``."""
    return [n for _, _, n in walk(chart) if n is not None and not n.is_composite]


class TestObjectChart:
    def test_single_received_message(self):
        dt = parse_domain_theory("x : Boolean\ncontext m\n pre: x = F ;\n post: x = T ;")
        sd = parse_sd("sd S\nobject A\nobject B\nmsg 1 A -> B : m")
        chart = chart_for(sd, dt, "B")
        assert len(chart.states) == 2
        assert chart.transitions == (Transition(("F",), ("T",), "m"),)

    def test_coffee_ui_loops_to_initial(self, sd1, coffee_dt):
        chart = chart_for(sd1, coffee_dt, "Coffee-UI")
        back = [t for t in chart.transitions if "Take coin" in t.actions]
        assert back, "the coin-return block must appear as actions"
        assert back[0].event == "Release coin"
        assert back[0].target == chart.initial

    def test_only_sender_gets_completion_transition(self):
        dt = parse_domain_theory("x : Boolean")
        sd = parse_sd("sd S\nobject A\nobject B\nmsg 1 A -> B : ping\nmsg 2 A -> B : pong")
        chart = chart_for(sd, dt, "A")
        assert len(chart.states) == 1
        (t,) = chart.transitions
        assert t.event == "" and t.actions == ("ping", "pong")

    def test_conflicted_object_refused(self, sd1, coffee_dt_unfixed, monkeypatch):
        # synthesize refuses the object whose gap clashes before any chart
        # is built, and the error carries annotate's conflicts and lifelines.
        lines, conflicts = annotate(sd1, coffee_dt_unfixed)
        mine = [c for c in conflicts if c.object == "Coffee-UI"]
        built = []
        monkeypatch.setattr(synthesizer, "synth_object_chart", lambda *args: built.append(args))
        with pytest.raises(ConflictedInputError) as exc:
            synthesize(coffee_dt_unfixed, [sd1])
        assert mine and exc.value.conflicts == conflicts == mine
        assert exc.value.results == [(sd1, lines, conflicts)] and built == []

    def test_one_conflict_check_per_lifeline(self, sd1, sd2, coffee_dt, monkeypatch):
        # Synthesis checks each (diagram, object) lifeline for conflicts
        # once, when it annotates it; chart building trusts that check.
        calls = []

        def counted(sd, obj, line, dt):
            calls.append((sd.name, obj))
            return detect_conflicts(sd, obj, line, dt)

        monkeypatch.setattr(annotator, "detect_conflicts", counted)
        monkeypatch.setattr(synthesizer, "detect_conflicts", counted, raising=False)
        charts, _ = synthesize(coffee_dt, [sd1, sd2])
        assert sorted(calls) == sorted((sd.name, obj) for sd in (sd1, sd2) for obj in sd.objects)
        assert set(charts) == {"Control", "Coffee-UI", "User"}

    def test_gap_states_are_last_faces(self):
        # Unless annotate's conflicts name its object, every gap's faces
        # unify to its last face, so that face is the gap's state.  Every other diagram holds 1-3 no_loop pairs
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
            lines, conflicts = annotate(sd, dt)
            for obj in sd.objects:
                mine = [c for c in conflicts if c.object == obj]
                if mine:
                    refused += 1
                    continue
                states = []
                faces = lines[obj].faces
                for gap in lifeline_gaps_by_lifeline(sd, obj):
                    joined = (None,) * dt.width
                    for i in gap:
                        joined = unify(joined, tuple(faces[i]))
                    assert joined == (tuple(faces[gap[-1]]) if gap else (None,) * dt.width)
                    states.append(joined)
                    unequal += len(gap) == 2 and faces[gap[0]] != faces[gap[1]]
                chart = synth_object_chart(obj, lines[obj], dt)
                assert chart.initial == states[0] and set(chart.states) <= set(states)
                built += 1
        assert refused > 500 and built > 2_000 and unequal > 100


class TestReceiveSpans:
    def test_spans_partition_the_lifeline(self):
        # Replay cases (self-messages, leading sends) and random diagrams of
        # two or three objects: cut by the spans' message counts, the
        # lifeline is the spans' received messages and sends, in order, with
        # their events; span 0 is always there and has no received message,
        # every later span opens with one; all other span messages go to
        # another object; and only an empty span 0 takes no step.
        rng = random.Random(29)
        seen = Counter()
        for _ in range(800):
            if rng.random() < 0.5:
                _, _, sd = gen_replay_case(rng)
            else:
                sd = gen_sd(rng, gen_theory(rng))
            for obj in sd.objects:
                line = list(lifeline(sd, obj))
                start = 0
                for k, (received, event, sends) in enumerate(spans(sd.messages, obj)):
                    part = line[start:start + (received is not None) + len(sends)]
                    start += len(part)
                    assert (received is None) == (k == 0)
                    if received is not None:
                        assert part[0] is received and received.receiver == obj
                    assert event == (COMPLETION if received is None else received.event())
                    rest = part[received is not None:]
                    assert tuple(m.event() for m in rest) == sends
                    assert all(m.sender == obj != m.receiver for m in rest)
                    assert takes_step(received, sends) == bool(part) and (part or k == 0)
                assert start == len(line)
                seen["self"] += any(m.sender == m.receiver == obj for m in sd.messages)
                seen["leading"] += bool(spans(sd.messages, obj)[0][2])
                seen["empty"] += not line
        assert min(seen["self"], seen["leading"], seen["empty"]) > 20, seen


class TestMerge:
    def test_idempotent(self, sd1, coffee_dt):
        c = chart_for(sd1, coffee_dt, "Coffee-UI")
        assert merge_charts([c, c]) == c

    def test_rejects_no_charts_and_mixed_objects(self, coffee_dt):
        sd = parse_sd("sd S\nobject A\nobject B\nmsg 1 A -> B : Insert coin")
        with pytest.raises(TypeError, match="empty"):
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
        events = {t.event for t in merged.transitions}
        assert {"Enter Selection(Espresso)", "Enter Selection(Cappuchino)"} <= events
        froms = {t.source for t in merged.transitions if t.event.startswith("Enter Selection")}
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
        # X then refines to Y's key and the two become one state.  A record
        # whose ends equal their merged keys is kept, the same object.
        i, x, y, w, xy = ("F", "F"), ("T", None), ("T", "F"), (None, "F"), ("T", "F")
        c1 = FlatChart("O", i, (Transition(i, x, "a"), Transition(i, y, "b")))
        c2 = FlatChart("O", i, (Transition(i, w, "a"), Transition(w, i, "c", (), ("s",))))
        merged = merge_charts([c1, c2])
        assert merged == FlatChart("O", i, (Transition(i, xy, "a"), Transition(i, xy, "b"),
                                            Transition(xy, i, "c", (), ("s",))))
        assert merged.states == (i, xy)
        assert merged.transitions[1] is c1.transitions[1]

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
        chart = introduce_hierarchy(self._flat(a, [Transition(a, b, "x"), Transition(b, a, "y")]))
        assert not any(n.is_composite for n in chart.nodes)

    def test_theory_wider_than_the_recursion_limit(self):
        # State k is T on variables 0..k-1 and F after: one composite per
        # variable, each holding every later state.
        n = 1100
        s = [("T",) * k + ("F",) * (n - k) for k in range(n + 1)]
        ts = [Transition(a, b, "e") for a, b in zip(s, s[1:])]
        hier = introduce_hierarchy(self._flat(s[0], ts))
        assert print_sc(hier).count("{") == n - 1  # the last group is two states
        reference = to_statechart(self._flat(s[0], ts))
        assert flatten(hier) == FlatChart(reference.name, reference.initial, reference.transitions)
        assert simple_nodes(hier) == list(reference.nodes)

    def test_flatten_inverts_hierarchy_on_fixture(self, sd1, sd2, coffee_dt):
        merged = merge_charts(
            [chart_for(sd1, coffee_dt, "Coffee-UI"), chart_for(sd2, coffee_dt, "Coffee-UI")]
        )
        hier = introduce_hierarchy(merged)
        assert parse_sc(print_sc(hier)) == hier
        flat = flatten(hier)
        reference = to_statechart(merged)
        assert flat.transitions == reference.transitions
        assert sorted(n.name for n in simple_nodes(hier)) == sorted(n.name for n in reference.nodes)
        assert flat.initial == reference.initial

    def test_flatten_inverts_hierarchy_on_random_corpus(self):
        rng = random.Random(23)
        for _ in range(30):
            dt, sd = conflict_free_pair(rng, max_msgs=8)
            lines, _ = annotate(sd, dt)
            for obj in sd.objects:
                merged = synth_object_chart(obj, lines[obj], dt)
                hier = introduce_hierarchy(merged)
                assert parse_sc(print_sc(hier)) == hier
                flat = flatten(hier)
                reference = to_statechart(merged)
                assert flat.transitions == reference.transitions
                assert sorted(n.name for n in simple_nodes(hier)) == sorted(
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
        expected = parse_sc(
            "statechart M\ninitial C\nstate A\nstate C\nstate D\nstate B\n"
            "C -> D : y\nC -> A : reset / r\nD -> B : z\nA -> C : go\n"
            "D -> A : reset / r\nB -> A : reset / r\nB -> C : back [x = T]\n"
        )
        assert flatten(hier) == FlatChart("M", "C", expected.transitions) == flatten(expected)
        assert simple_nodes(hier) == list(expected.nodes)

    def test_flatten_keeps_a_repeated_transition_once(self):
        # With a composite or without, a transition written twice is one.
        twice = ["A -> B : go [x = T]"] * 2
        flat = parse_sc("\n".join(["statechart M", "initial A", "state A", "state B", *twice]))
        nested = parse_sc("\n".join(["statechart M", "initial G", "state G {", "initial A", "state A",
                                     *twice, "}", "state B"]))
        once = FlatChart("M", "A", (Transition("A", "B", "go", (("x", "T"),)),))
        assert len(flat.transitions) == 2 and flatten(flat) == once == flatten(nested)

    def test_flatten_matches_rebuilding_reference(self):
        # Each output transition is the first input transition making it
        # when that one joins two simple nodes, else one built anew; a chart
        # without composites takes the same walk, so a repeated transition
        # is kept once there too.
        rng = random.Random(19)
        kept = built = 0
        for _ in range(400):
            chart = gen_nested_chart(rng)
            flat = flatten(chart)
            assert flat == flatten_rebuilt(chart)
            composites = {n.name for _, _, n in walk(chart) if n is not None and n.is_composite}
            bare = _without_transitions(chart)
            first = {}  # a transition of the flat chart -> the first input transition making it
            for t in (t for _, scope, n in walk(chart) if n is None for t in scope.transitions):
                for made in flatten_rebuilt(bare._replace(transitions=(t,))).transitions:
                    first.setdefault(made, t)
            assert set(first) == set(flat.transitions)
            for t in flat.transitions:
                if composites.isdisjoint((first[t].source, first[t].target)):
                    assert t is first[t]
                    kept += 1
                else:
                    assert all(t is not u for u in first.values())
                    built += 1
        assert kept > 300 and built > 300, (kept, built)

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
            assert {n.name for n in simple_nodes(hier)} == {n.name for n in reference.nodes}
            composites, depth = check_variable_split(chart, hier)
            nested += composites > 0
            deepest = max(deepest, depth)
        assert nested >= 500
        assert deepest >= 2


def gen_nested_chart(rng: random.Random) -> Statechart:
    """A chart of up to three levels of composites under the top one, with
    transitions in every scope between any two nodes of the chart (a
    composite among them), some repeated in another scope."""
    names = (f"N{k}" for k in itertools.count(1))
    scopes = []  # [name, [(node, its scope or None)], transitions], innermost first

    def scope(name, depth):
        entries = [(node, scope(node, depth + 1) if depth < 3 and rng.random() < 0.35 else None)
                   for node in itertools.islice(names, rng.randint(1, 3))]
        scopes.append([name, entries, []])
        return scopes[-1]

    top = scope("M", 0)
    every = [node for _, entries, _ in scopes for node, _ in entries]
    made = []
    for _, _, transitions in scopes:
        for _ in range(rng.randint(0, 3)):
            if made and rng.random() < 0.2:
                t = rng.choice(made)
            else:
                t = Transition(rng.choice(every), rng.choice(every), rng.choice(("a", "b", "c(1)", "")),
                               rng.choice(((), (("x", "T"),))), rng.choice(((), ("s",))))
            made.append(t)
            transitions.append(t)

    def build(entry):
        name, entries, transitions = entry
        nodes = tuple(Node(node, build(sub) if sub else None) for node, sub in entries)
        return Statechart(name, nodes, rng.choice(entries)[0], tuple(transitions))

    return build(top)


def _without_transitions(chart: Statechart) -> Statechart:
    return chart._replace(transitions=(), nodes=tuple(
        n._replace(children=_without_transitions(n.children)) if n.is_composite else n
        for n in chart.nodes))


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
