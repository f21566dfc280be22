import dataclasses
import random

import pytest

from scdebug.annotator import (
    ArityMismatchError,
    OutOfDomainLiteralError,
    _gap_joins_once,
    annotate,
    apply_identification,
    frame_propagate,
    identification_candidates,
    initialize_vectors,
)
from scdebug.dsl import parse_domain_theory, parse_sd
from scdebug.model import (
    AnnotatedSD,
    Frame,
    FromSpec,
    Message,
    SequenceDiagram,
    Unified,
    format_vector,
)

from conftest import known_cells
from gen import conflict_free_pair, gen_sd, gen_theory
from oracles import identification_scan

CUI = "Coffee-UI"


def vec(asd, obj, mid, which):
    return format_vector(asd.vectors[(obj, mid, which)])


def unify_to_fixpoint(asd):
    """Identifications and gap joins alone, without frame propagation."""
    while True:
        candidates = identification_candidates(asd)
        if candidates:
            apply_identification(asd, candidates[0])
        elif not _gap_joins_once(asd):
            return asd


class TestInitialize:
    def test_display_ready_light_pre(self, sd1, coffee_dt_unfixed):
        asd = initialize_vectors(sd1, coffee_dt_unfixed)
        assert vec(asd, "Control", 1, "pre") == "<F,F,?,?,?>"  # sender side
        assert vec(asd, CUI, 1, "pre") == "<F,F,?,?,?>"  # receiver side

    def test_insert_coin_pre(self, sd1, coffee_dt_unfixed):
        asd = initialize_vectors(sd1, coffee_dt_unfixed)
        assert vec(asd, CUI, 2, "pre") == "<F,?,?,?,?>"

    def test_unspecified_message_all_unknown(self, sd1, coffee_dt_unfixed):
        asd = initialize_vectors(sd1, coffee_dt_unfixed)
        assert vec(asd, CUI, 5, "pre") == "<?,?,?,?,?>"  # Cancel has no spec
        assert vec(asd, CUI, 5, "post") == "<?,?,?,?,?>"

    def test_parameter_substitution(self, sd1, coffee_dt_unfixed):
        asd = initialize_vectors(sd1, coffee_dt_unfixed)
        assert vec(asd, CUI, 4, "post") == "<?,?,T,?,Espresso>"

    def test_one_pre_and_post_per_endpoint(self, sd1, coffee_dt_unfixed):
        asd = initialize_vectors(sd1, coffee_dt_unfixed)
        for m in sd1.messages:
            for obj in {m.sender, m.receiver}:
                assert (obj, m.id, "pre") in asd.vectors
                assert (obj, m.id, "post") in asd.vectors
        for obj, mid, _ in asd.vectors:
            msg = sd1.messages[mid - 1]
            assert obj in (msg.sender, msg.receiver)

    def test_arity_mismatch(self, coffee_dt_unfixed):
        sd = parse_sd("sd S\nobject A\nobject B\nmsg 1 A -> B : Enter Selection")
        with pytest.raises(ArityMismatchError) as exc:
            initialize_vectors(sd, coffee_dt_unfixed)
        assert exc.value.message_id == 1

    def test_out_of_domain_argument(self, coffee_dt_unfixed):
        sd = parse_sd("sd S\nobject A\nobject B\nmsg 1 A -> B : Enter Selection(Latte)")
        with pytest.raises(OutOfDomainLiteralError):
            initialize_vectors(sd, coffee_dt_unfixed)


class TestUnifyPass:
    def test_s2_s3_unify(self, sd1, coffee_dt_unfixed):
        # On the first two messages alone: the empty post of message 1
        # takes Insert coin's precondition value via its gap partner.
        prefix = SequenceDiagram(sd1.name, sd1.objects, sd1.messages[:2])
        asd = unify_to_fixpoint(initialize_vectors(prefix, coffee_dt_unfixed))
        assert vec(asd, CUI, 1, "post") == "<F,?,?,?,?>"
        assert vec(asd, CUI, 2, "pre") == "<F,?,?,?,?>"

    def test_clashing_vectors_skipped(self, coffee_dt_unfixed):
        sd = parse_sd(
            "sd S\nobject A\nobject B\n"
            "msg 1 A -> B : Insert coin\nmsg 2 A -> B : Insert coin"
        )
        asd = unify_to_fixpoint(initialize_vectors(sd, coffee_dt_unfixed))
        # post of 1 has CoinInMachine=T, pre of 2 has F: incompatible faces stay
        assert asd.vectors[("B", 1, "post")][0] == "T"
        assert asd.vectors[("B", 2, "pre")][0] == "F"

    def test_discarded_pair_skipped(self, sd1, coffee_dt_unfixed):
        discarded = dataclasses.replace(sd1, no_loop=frozenset({frozenset((1, 11))}))
        asd, conflicts = annotate(discarded, coffee_dt_unfixed)
        assert conflicts == []
        assert all(ev.object != CUI for ev in asd.events)

    def test_no_loop_directive_in_sd_file(self, sd1, coffee_dt_unfixed):
        from scdebug.dsl import print_sd

        with_directive = parse_sd(print_sd(sd1) + "assume no-loop 1 11\n")
        _, conflicts = annotate(with_directive, coffee_dt_unfixed)
        assert conflicts == []


    def test_candidates_match_grounds_scan(self):
        # The closed-form candidate test (a class is open, or the two
        # states differ) against the scan that lists the cells the join
        # would ground, before and after the frame sweep of every step of
        # the fixpoint (before it, a later class can be the only open one).
        def candidates(asd):
            cands = identification_candidates(asd)
            got = [
                (c.object, {key[1] for gap in c.group_a for key in gap},
                 {key[1] for gap in c.group_b for key in gap}, c.joined)
                for c in cands
            ]
            assert got == identification_scan(asd), f"step {len(asd.events)} of {asd.sd}"
            return cands

        rng = random.Random(23)
        steps = 0
        for k in range(300):
            if k % 3 == 0:
                dt, sd = conflict_free_pair(rng, max_msgs=8)
            else:
                dt = gen_theory(rng)
                sd = gen_sd(rng, dt, max_msgs=rng.choice((6, 14)), max_objs=3)
            if k % 2:
                n = len(sd.messages)
                pairs = {frozenset((rng.randint(1, n), rng.randint(1, n))) for _ in range(2)}
                sd = dataclasses.replace(sd, no_loop=frozenset(pairs))
            asd = initialize_vectors(sd, dt)
            while True:
                candidates(asd)
                frame_propagate(asd)
                cands = candidates(asd)
                if cands:
                    steps += 1
                    apply_identification(asd, cands[0])
                elif not _gap_joins_once(asd):
                    break
        assert steps > 200


class TestFramePropagation:
    def test_prefix_frame_values(self, sd1, coffee_dt_unfixed):
        prefix = SequenceDiagram(sd1.name, sd1.objects, sd1.messages[:2])
        asd, _ = annotate(prefix, coffee_dt_unfixed)
        # CoinInReturnSlot=F flows from the first precondition forward.
        assert vec(asd, CUI, 1, "post") == "<F,F,?,?,?>"
        assert vec(asd, CUI, 2, "pre") == "<F,F,?,?,?>"

    def test_all_unknown_lifeline_unchanged(self):
        dt = parse_domain_theory("x : Boolean")
        sd = parse_sd("sd S\nobject A\nobject B\nmsg 1 A -> B : hello")
        asd = initialize_vectors(sd, dt)
        assert frame_propagate(asd) is False
        assert vec(asd, "A", 1, "pre") == "<?>"

    def test_known_post_fills_next_pre(self):
        dt = parse_domain_theory("x : Boolean\ncontext a\n pre:\n post: x = T ;")
        sd = parse_sd("sd S\nobject A\nobject B\nmsg 1 A -> B : a\nmsg 2 A -> B : b")
        asd = initialize_vectors(sd, dt)
        frame_propagate(asd)
        assert asd.vectors[("A", 2, "pre")][0] == "T"
        assert isinstance(asd.provenance[(("A", 2, "pre"), 0)], Frame)


class TestConflicts:
    def test_paper_conflict(self, sd1, coffee_dt_unfixed):
        asd, conflicts = annotate(sd1, coffee_dt_unfixed)
        assert len(conflicts) == 1
        c = conflicts[0]
        assert c.object == CUI
        assert c.variable.name == "CoffeeTypeSelected"
        assert str(c.vector_after) == "<T,F,T,1,none>"
        assert str(c.vector_before) == "<T,F,F,1,none>"
        assert c.after_message.id == 2 and c.before_message.id == 3

    def test_derivation_references_loop(self, sd1, coffee_dt_unfixed):
        _, conflicts = annotate(sd1, coffee_dt_unfixed)
        ids = [(m.id, which) for m, which, _ in conflicts[0].unified_states]
        assert ids == [(1, "post"), (11, "post"), (10, "post")]
        assert all(
            str(v) == "<F,F,T,0,none>" for _, _, v in conflicts[0].unified_states
        )

    def test_derivation_spans_spec_to_conflict(self, sd1, coffee_dt_unfixed):
        _, conflicts = annotate(sd1, coffee_dt_unfixed)
        kinds = [s.provenance for s in conflicts[0].derivation]
        assert any(isinstance(p, FromSpec) for p in kinds)
        assert any(isinstance(p, Unified) for p in kinds)
        assert any(isinstance(p, Frame) for p in kinds)
        # oldest first: the chain starts at a specification value
        assert isinstance(conflicts[0].derivation[0].provenance, FromSpec)

    def test_conflict_free(self, sd1, coffee_dt):
        _, conflicts = annotate(sd1, coffee_dt)
        assert conflicts == []

    def test_long_frame_chain(self):
        # arm sets Flag, unspecified messages carry it by the frame axiom
        # over 2000 messages, check expects it clear: one conflict per
        # lifeline, each traced back through the whole chain.
        dt = parse_domain_theory(
            "Flag : Boolean\ncontext arm\n pre:\n post: Flag = T ;\n"
            "context check\n pre: Flag = F ;\n post:"
        )
        n = 2000
        msgs = [Message(1, "arm", (), "A", "B")]
        msgs += [Message(i, "noop", (), *(("A", "B") if i % 2 else ("B", "A"))) for i in range(2, n)]
        msgs.append(Message(n, "check", (), "B", "A"))
        _, conflicts = annotate(SequenceDiagram("Chain", ("A", "B"), tuple(msgs)), dt)
        assert [(c.object, c.after_message.id, c.before_message.id) for c in conflicts] == [
            ("A", n - 1, n),
            ("B", n - 1, n),
        ]
        assert all(isinstance(c.derivation[0].provenance, FromSpec) for c in conflicts)

    def test_empty_sd(self, coffee_dt):
        sd = parse_sd("sd S\nobject A")
        asd, conflicts = annotate(sd, coffee_dt)
        assert conflicts == [] and asd.events == []


class TestInvariants:
    def test_idempotence(self, sd1, coffee_dt_unfixed):
        asd, _ = annotate(sd1, coffee_dt_unfixed)
        before = {k: list(v) for k, v in asd.vectors.items()}
        assert frame_propagate(asd) is False
        assert identification_candidates(asd) == []
        assert {k: list(v) for k, v in asd.vectors.items()} == before

    def test_monotonic_from_initialization(self, sd1, coffee_dt_unfixed):
        initial = known_cells(initialize_vectors(sd1, coffee_dt_unfixed))
        final_asd, _ = annotate(sd1, coffee_dt_unfixed)
        final = known_cells(final_asd)
        for cell, value in initial.items():
            assert final[cell] == value

    def test_monotonic_on_random_corpus(self):
        rng = random.Random(7)
        for _ in range(25):
            dt, sd = conflict_free_pair(rng, max_msgs=6)
            initial = known_cells(initialize_vectors(sd, dt))
            final_asd, _ = annotate(sd, dt)
            final = known_cells(final_asd)
            assert set(initial) <= set(final)
            assert all(final[c] == v for c, v in initial.items())

    def test_frame_soundness(self, sd1, coffee_dt_unfixed):
        # Remove every frame-derived cell; re-propagation restores all of
        # them exactly (the fixpoint is a function of the unification trace).
        asd, _ = annotate(sd1, coffee_dt_unfixed)
        expected = {k: list(v) for k, v in asd.vectors.items()}
        stripped = [
            (key, j)
            for (key, j), prov in asd.provenance.items()
            if isinstance(prov, Frame)
        ]
        for key, j in stripped:
            asd.vectors[key][j] = None
            del asd.provenance[(key, j)]
        frame_propagate(asd)
        assert {k: list(v) for k, v in asd.vectors.items()} == expected

    def test_conflict_completeness(self, sd1, coffee_dt_unfixed):
        asd, conflicts = annotate(sd1, coffee_dt_unfixed)
        found = set()
        for obj in sd1.objects:
            line = sd1.lifeline(obj)
            for p in range(len(line) - 1):
                left = asd.vectors[(obj, line[p].id, "post")]
                right = asd.vectors[(obj, line[p + 1].id, "pre")]
                for j, (x, y) in enumerate(zip(left, right)):
                    if x is not None and y is not None and x != y:
                        found.add((obj, line[p].id, j))
        assert found == {(c.object, c.after_message.id, c.variable.index) for c in conflicts}

    def test_discard_all_leaves_no_unifications(self, sd1, coffee_dt_unfixed):
        n = len(sd1.messages)
        everything = frozenset(
            frozenset((i, j)) for i in range(1, n + 1) for j in range(i, n + 1)
        )
        asd, _ = annotate(dataclasses.replace(sd1, no_loop=everything), coffee_dt_unfixed)
        assert asd.events == []
        assert not any(
            isinstance(p, Unified) for p in asd.provenance.values()
        )

    def test_determinism(self, sd1, coffee_dt_unfixed):
        a1, c1 = annotate(sd1, coffee_dt_unfixed)
        a2, c2 = annotate(sd1, coffee_dt_unfixed)
        assert a1.vectors == a2.vectors
        assert a1.events == a2.events
        assert c1 == c2

    def test_order_insensitivity_on_conflict_free(self):
        # On conflict-free diagrams the determined cells at the fixpoint do
        # not depend on the order identifications are applied in: explore
        # the application orders (bounded) and compare the outcomes.
        def clone(asd):
            return AnnotatedSD(
                sd=asd.sd,
                theory=asd.theory,
                vectors={k: list(v) for k, v in asd.vectors.items()},
                provenance=dict(asd.provenance),
                events=list(asd.events),
            )

        rng = random.Random(11)
        for _ in range(20):
            dt, sd = conflict_free_pair(rng, max_msgs=5, max_objs=2)
            baseline, _ = annotate(sd, dt)
            outcomes = set()
            budget = [150]

            def explore(asd):
                if budget[0] <= 0:
                    return
                while True:
                    frame_propagate(asd)
                    cands = identification_candidates(asd)
                    if cands:
                        break
                    if not _gap_joins_once(asd):
                        budget[0] -= 1
                        outcomes.add(frozenset(known_cells(asd).items()))
                        return
                for i in range(len(cands)):
                    copy = clone(asd)
                    apply_identification(copy, identification_candidates(copy)[i])
                    explore(copy)

            explore(initialize_vectors(sd, dt))
            assert outcomes == {frozenset(known_cells(baseline).items())}, (
                f"order-dependent fixpoint for {sd}"
            )
