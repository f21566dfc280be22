import random
import re
from collections import Counter

import pytest

from scdebug.annotator import (
    FRAME,
    FROM_SPEC,
    AnnotationError,
    _gap_joins_once,
    _ground,
    _walk,
    annotate,
    annotate_lifeline,
    apply_identification,
    class_state,
    conflict_view,
    derivation,
    detect_conflicts,
    frame_propagate,
    identification_candidates,
    initialize_vectors,
)
from scdebug.dsl import parse_domain_theory, parse_sd, print_domain_theory
from scdebug.model import (
    Delete,
    Lifeline,
    Message,
    SequenceDiagram,
    Unified,
    apply_edit,
    format_vector,
)

from conftest import all_faces, face, face_index, known_cells
from gen import conflict_free_pair, gen_sd, gen_theory
from oracles import (
    annotate_eager,
    class_state_by_faces,
    first_candidate,
    identification_scan,
    initial_lines,
    lifeline,
    lifeline_classes,
    lifeline_gaps_by_lifeline,
    lifeline_layout,
    no_loop_on,
    provenance_of,
    unified_faces,
)

CUI = "Coffee-UI"


def vec(lines, obj, mid, which):
    return format_vector(face(lines, obj, mid, which))


def laid_out(sd, dt, lines) -> bool:
    """Whether every lifeline's messages and class bounds are those built
    from its own gaps and classes."""
    return all((line.messages, line.starts) == lifeline_layout(sd, dt, obj)
               for obj, line in lines.items())


def count_unify(monkeypatch):
    """Count the annotator's ``unify`` calls; returns the one-cell counter."""
    from scdebug import annotator

    calls = [0]
    real = annotator.unify

    def counting(a, b):
        calls[0] += 1
        return real(a, b)

    monkeypatch.setattr(annotator, "unify", counting)
    return calls


def unify_to_fixpoint(sd, lines):
    """Identifications and gap joins alone, without frame propagation, so
    a gap's pre face takes no value from its post face."""
    for obj in sd.objects:
        line, no_loop = lines[obj], no_loop_on(sd, obj)
        while True:
            cand = identification_candidates(line, no_loop)
            if cand is not None:
                apply_identification(line, cand)
            elif not _gap_joins_once(line, no_loop):
                break
    return lines


def sweep(lines):
    """A frame sweep on every lifeline; True when one grounded a cell."""
    return any([frame_propagate(line) for line in lines.values()])


def join_gaps(sd, lines):
    """Gap joins on every lifeline; True when one grounded a cell."""
    return any([_gap_joins_once(line, no_loop_on(sd, obj)) for obj, line in lines.items()])


def provenance_corpus(coffee_dt):
    """600 (diagram, theory) pairs: random theories and diagrams,
    conflict-free pairs, and coffee messages under ``coffee_dt``, some with
    arguments the theory refuses; every other diagram has two ``no_loop``
    pairs."""
    rng = random.Random(41)
    labels = [spec.name for spec in coffee_dt.specs] + ["Cancel"]
    drinks = ("Espresso", "Cappuchino", "Milk", "none") * 10 + ("Latte",)
    for k in range(600):
        if k % 5 == 4:
            dt = coffee_dt
            msgs = []
            for i in range(1, rng.randint(2, 30)):
                label = rng.choice(labels)
                takes_drink = (label == "Enter Selection") != (rng.random() < 0.02)
                msgs.append(Message(i, label, (rng.choice(drinks),) if takes_drink else (),
                                    *rng.sample(("User", "UI", "Control"), 2)))
            sd = SequenceDiagram("Coffee", ("User", "UI", "Control"), tuple(msgs))
        elif k % 3 == 0:
            dt, sd = conflict_free_pair(rng, max_msgs=8)
        else:
            dt = gen_theory(rng)
            sd = gen_sd(rng, dt, max_msgs=rng.choice((6, 14, 30)), max_objs=3)
        if k % 2:
            n = len(sd.messages)
            pairs = {frozenset((rng.randint(1, n), rng.randint(1, n))) for _ in range(2)}
            sd = sd._replace(no_loop=frozenset(pairs))
        yield sd, dt


class TestInitialize:
    def test_display_ready_light_pre(self, sd1, coffee_dt_unfixed):
        lines = initial_lines(sd1, coffee_dt_unfixed)
        assert vec(lines, "Control", 1, "pre") == "<F,F,?,?,?>"  # sender side
        assert vec(lines, CUI, 1, "pre") == "<F,F,?,?,?>"  # receiver side

    def test_insert_coin_pre(self, sd1, coffee_dt_unfixed):
        lines = initial_lines(sd1, coffee_dt_unfixed)
        assert vec(lines, CUI, 2, "pre") == "<F,?,?,?,?>"

    def test_unspecified_message_all_unknown(self, sd1, coffee_dt_unfixed):
        lines = initial_lines(sd1, coffee_dt_unfixed)
        assert vec(lines, CUI, 5, "pre") == "<?,?,?,?,?>"  # Cancel has no spec
        assert vec(lines, CUI, 5, "post") == "<?,?,?,?,?>"

    def test_parameter_substitution(self, sd1, coffee_dt_unfixed):
        lines = initial_lines(sd1, coffee_dt_unfixed)
        assert vec(lines, CUI, 4, "post") == "<?,?,T,?,Espresso>"

    def test_one_pre_and_post_per_endpoint(self, sd1, coffee_dt_unfixed):
        # annotate gives each object the lifeline of exactly the messages it
        # sends or receives, each with a pre and a post face and their spec
        # cells.
        lines, _ = annotate(sd1, coffee_dt_unfixed)
        assert list(lines) == list(sd1.objects)
        for obj, line in lines.items():
            assert line.messages == [m for m in sd1.messages if obj in (m.sender, m.receiver)]
            assert len(line.faces) == len(line.spec) == 2 * len(line.messages)
        assert sum(len(line.messages) for line in lines.values()) == 2 * len(sd1.messages)

    def test_arity_mismatch(self, coffee_dt_unfixed):
        sd = parse_sd("sd S\nobject A\nobject B\nmsg 1 A -> B : Enter Selection")
        detail = "'Enter Selection' takes 1 argument(s), got 0"
        with pytest.raises(AnnotationError, match=f"^{re.escape('message 1: ' + detail)}$") as exc:
            initialize_vectors(coffee_dt_unfixed, sd.messages)
        assert exc.value.message_id == 1

    def test_out_of_domain_argument(self, coffee_dt_unfixed):
        sd = parse_sd("sd S\nobject A\nobject B\nmsg 1 A -> B : Enter Selection(Latte)")
        detail = "argument 'Latte' outside domain enum {none,Espresso,Cappuchino,Milk} of parameter CT"
        with pytest.raises(AnnotationError, match=f"^{re.escape('message 1: ' + detail)}$"):
            initialize_vectors(coffee_dt_unfixed, sd.messages)

    def test_theory_cache_gives_a_fresh_theorys_annotation(self, sd1, sd2, coffee_dt_unfixed):
        # Spec vectors are cached on the theory: diagram B annotated with a
        # theory that already annotated diagram A equals B annotated with a
        # freshly parsed copy: lifelines (faces, provenance, events) and
        # conflicts.
        rng = random.Random(29)
        cases = [(coffee_dt_unfixed, sd1, sd2), (coffee_dt_unfixed, sd2, sd1)]
        for _ in range(150):
            dt = gen_theory(rng)
            cases.append((dt, gen_sd(rng, dt, max_msgs=12), gen_sd(rng, dt, max_msgs=12)))
        for dt, sd_a, sd_b in cases:
            annotate(sd_a, dt)
            assert dt._spec_vectors
            fresh = parse_domain_theory(print_domain_theory(dt))
            (used, used_conflicts), (new, new_conflicts) = annotate(sd_b, dt), annotate(sd_b, fresh)
            assert used == new and used_conflicts == new_conflicts

    def test_failed_message_is_not_cached(self, stepper_sd, stepper_dt):
        # Only built vectors are cached: e2(7) raises the same error, naming
        # its message, after its theory has annotated a valid diagram.
        dt = parse_domain_theory(print_domain_theory(stepper_dt))
        first, e2, *rest = stepper_sd.messages
        bad = stepper_sd._replace(messages=(first, e2._replace(args=("7",)), *rest))
        with pytest.raises(AnnotationError) as fresh:
            annotate(bad, parse_domain_theory(print_domain_theory(stepper_dt)))
        assert str(fresh.value) == "message 2: 'e2' takes 0 argument(s), got 1"
        annotate(stepper_sd, dt)
        for _ in range(2):
            with pytest.raises(AnnotationError, match=f"^{re.escape(str(fresh.value))}$") as exc:
                annotate(bad, dt)
            assert exc.value.message_id == 2

    def test_annotation_keeps_spec_and_tuple_faces(self, coffee_dt_unfixed):
        # annotate replaces faces and never writes into one: each lifeline's
        # spec is the initial faces, and every face is a tuple.
        for sd, dt in provenance_corpus(coffee_dt_unfixed):
            try:
                initial = initial_lines(sd, parse_domain_theory(print_domain_theory(dt)))
                lines, _ = annotate(sd, dt)
            except AnnotationError:
                continue
            for obj, line in lines.items():
                assert line.spec == initial[obj].spec == initial[obj].faces
                assert all(type(cells) is tuple for cells in line.faces + line.spec)


class TestUnifyPass:
    def test_s2_s3_unify(self, sd1, coffee_dt_unfixed):
        # On the first two messages alone: the empty post of message 1
        # takes Insert coin's precondition value via its gap partner.
        prefix = SequenceDiagram(sd1.name, sd1.objects, sd1.messages[:2])
        lines = unify_to_fixpoint(prefix, initial_lines(prefix, coffee_dt_unfixed))
        assert vec(lines, CUI, 1, "post") == "<F,?,?,?,?>"
        assert vec(lines, CUI, 2, "pre") == "<F,?,?,?,?>"

    def test_clashing_vectors_skipped(self, coffee_dt_unfixed):
        sd = parse_sd(
            "sd S\nobject A\nobject B\n"
            "msg 1 A -> B : Insert coin\nmsg 2 A -> B : Insert coin"
        )
        lines = unify_to_fixpoint(sd, initial_lines(sd, coffee_dt_unfixed))
        # post of 1 has CoinInMachine=T, pre of 2 has F: incompatible faces stay
        assert face(lines, "B", 1, "post")[0] == "T"
        assert face(lines, "B", 2, "pre")[0] == "F"

    def test_discarded_pair_skipped(self, sd1, coffee_dt_unfixed):
        discarded = sd1._replace(no_loop=frozenset({frozenset((1, 11))}))
        lines, conflicts = annotate(discarded, coffee_dt_unfixed)
        assert conflicts == []
        assert lines[CUI].events == []

    def test_no_loop_directive_in_sd_file(self, sd1, coffee_dt_unfixed):
        from scdebug.dsl import print_sd

        with_directive = parse_sd(print_sd(sd1) + "assume no-loop 1 11\n")
        _, conflicts = annotate(with_directive, coffee_dt_unfixed)
        assert conflicts == []


    def test_candidates_match_grounds_scan(self):
        # The closed-form candidate test (a class is open, or the two
        # states differ) and the skipping of partner states already known
        # to fail, against the scan that lists every candidate with the
        # cells its join would ground: the first hit is the scan's first
        # entry, before and after the frame sweep of every step of the
        # fixpoint (before it, a later class can be the only open one).
        # The face arrays built once per annotation and the column-wise
        # class states are checked at the same steps against the per-object
        # gap and class construction and the face-by-face join, settled
        # classes (several equal faces, some cell undetermined) among them.
        settled = 0

        def candidate(sd, dt, lines):
            nonlocal settled
            assert laid_out(sd, dt, lines)
            for line in lines.values():
                starts = line.starts
                for lo, hi in zip(starts, starts[1:]):
                    cls = line.faces[lo:hi]
                    if not cls:  # only a lifeline with no messages has a class with no face
                        assert starts == [0, 0]
                        continue
                    assert class_state(cls) == class_state_by_faces(cls, dt.width)
                    settled += len(cls) > 1 and cls.count(cls[0]) == len(cls) and None in cls[0]
            cand = first_candidate(sd, lines)
            scan = identification_scan(sd, dt, lines)
            steps = sum(len(line.events) for line in lines.values())
            assert cand == (scan[0] if scan else None), f"step {steps} of {sd}"
            return cand

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
                sd = sd._replace(no_loop=frozenset(pairs))
            lines = initial_lines(sd, dt)
            while True:
                candidate(sd, dt, lines)
                sweep(lines)
                cand = candidate(sd, dt, lines)
                if cand is not None:
                    steps += 1
                    apply_identification(lines[cand[0]], cand[1:])
                elif not join_gaps(sd, lines):
                    break
        assert steps > 200 and settled > 2_000

    def test_chain_of_one_context_skips_failed_partners(self, monkeypatch):
        # Every class of a 4,000-message chain ends in the same closed
        # state, so each earlier class tries that state once instead of
        # every class in it.
        dt = parse_domain_theory("X : Boolean\ncontext set\n pre:\n post: X = T ;")
        msgs = "".join(f"\nmsg {i} A -> B : set" for i in range(1, 4001))
        sd = parse_sd("sd Chain\nobject A\nobject B" + msgs)
        calls = count_unify(monkeypatch)
        _, conflicts = annotate(sd, dt)
        assert conflicts == []
        assert calls[0] < 50_000

    def test_ring_scans_states_not_pairs(self, monkeypatch):
        # One lap of a 1,000-state ring: every class is closed, fully
        # determined and unique but for the first and last (equal, so
        # nothing to ground).  No class has a partner to test, where a walk
        # over every pair of classes made about a million joins.
        k = 1000
        dt = parse_domain_theory(f"S : 0..{k - 1}" + "".join(
            f"\ncontext e{i}\n pre: S = {i} ;\n post: S = {(i + 1) % k} ;" for i in range(k)
        ))
        msgs = "".join(f"\nmsg {i + 1} A -> B : e{i}" for i in range(k))
        sd = parse_sd("sd Ring\nobject A\nobject B" + msgs)
        calls = count_unify(monkeypatch)
        lines, conflicts = annotate(sd, dt)
        assert conflicts == [] and all(line.events == [] for line in lines.values())
        assert calls[0] < 1_000

    def test_empty_lifeline_state_is_undetermined(self):
        # A lifeline with no messages is one gap with no faces: the
        # face-by-face join leaves its class state all undetermined, and the
        # loop search, which needs two classes, never asks for it.
        dt = parse_domain_theory("x : Boolean\ny : 0..2")
        sd = parse_sd("sd S\nobject A\nobject B\nobject C\nmsg 1 A -> B : hello")
        lines = initial_lines(sd, dt)
        assert laid_out(sd, dt, lines)
        assert lines["C"] == Lifeline([], [], [], [0, 0], {}, [])
        assert lifeline_gaps_by_lifeline(sd, "C") == [()] and lifeline_classes(sd, dt, "C") == [[0]]
        assert class_state_by_faces([], dt.width) == ((None, None), False)
        assert identification_candidates(lines["C"], frozenset()) is None
        assert detect_conflicts(sd, "C", lines["C"], dt) == []

    def test_sd1_arrays(self, sd1, coffee_dt_unfixed):
        # Coffee-UI takes part in all 11 messages of SD1: faces alternate
        # pre and post in message order, and a class opens at the post face
        # of each message with a postcondition: Insert coin (2), Enter
        # Selection (4), Release coin (8) and Take coin (10).
        lines = initial_lines(sd1, coffee_dt_unfixed)
        messages, spec, faces, starts, _, _ = lines[CUI]
        assert messages == list(sd1.messages)
        assert faces == [tuple(cells) for cells in spec]
        # Faces 6 and 7 are the pre and post faces of message 4.
        assert [format_vector(cells) for cells in faces[6:8]] == ["<?,?,F,?,?>", "<?,?,T,?,Espresso>"]
        assert starts == [0, 3, 7, 15, 19, 22]
        assert laid_out(sd1, coffee_dt_unfixed, lines)


    def test_settled_gap_is_skipped(self, monkeypatch):
        # Both faces of the gap between a and b are <T,?>: equal, so the
        # join grounds nothing, there is no conflict, and no join is tried.
        dt = parse_domain_theory(
            "x : Boolean\ny : Boolean\ncontext a\n pre:\n post: x = T ;\n"
            "context b\n pre: x = T ;\n post:"
        )
        sd = parse_sd("sd S\nobject A\nobject B\nmsg 1 A -> B : a\nmsg 2 A -> B : b")
        lines = initial_lines(sd, dt)
        assert vec(lines, "A", 1, "post") == vec(lines, "A", 2, "pre") == "<T,?>"
        calls = count_unify(monkeypatch)
        assert join_gaps(sd, lines) is False
        assert calls[0] == 0 and all(line.provenance == {} for line in lines.values())
        assert vec(lines, "A", 1, "post") == vec(lines, "A", 2, "pre") == "<T,?>"
        assert detect_conflicts(sd, "A", lines["A"], dt) == detect_conflicts(sd, "B", lines["B"], dt) == []


class TestFramePropagation:
    def test_prefix_frame_values(self, sd1, coffee_dt_unfixed):
        prefix = SequenceDiagram(sd1.name, sd1.objects, sd1.messages[:2])
        lines, _ = annotate(prefix, coffee_dt_unfixed)
        # CoinInReturnSlot=F flows from the first precondition forward.
        assert vec(lines, CUI, 1, "post") == "<F,F,?,?,?>"
        assert vec(lines, CUI, 2, "pre") == "<F,F,?,?,?>"

    def test_all_unknown_lifeline_unchanged(self):
        dt = parse_domain_theory("x : Boolean")
        sd = parse_sd("sd S\nobject A\nobject B\nmsg 1 A -> B : hello")
        lines = initial_lines(sd, dt)
        assert sweep(lines) is False
        assert vec(lines, "A", 1, "pre") == "<?>"

    def test_known_post_fills_next_pre(self):
        dt = parse_domain_theory("x : Boolean\ncontext a\n pre:\n post: x = T ;")
        sd = parse_sd("sd S\nobject A\nobject B\nmsg 1 A -> B : a\nmsg 2 A -> B : b")
        lines = initial_lines(sd, dt)
        assert frame_propagate(lines["A"]) is True
        line = lines["A"]
        assert face(lines, "A", 2, "pre")[0] == "T"
        # Faces 0-3 are pre 1, post 1, pre 2, post 2; a frame step goes to
        # the face before it on the lifeline.
        assert provenance_of(line, 2, 0) == FRAME
        assert list(_walk(line, 3, 0)) == [(3, FRAME), (2, FRAME), (1, FROM_SPEC)]
        assert provenance_of(line, 1, 0) == FROM_SPEC
        assert provenance_of(line, 0, 0) is None
        assert line.provenance == {}

    def test_opening_unspecified_messages_ground_nothing(self):
        # Faces that determine no cell take nothing from one another, so a
        # sweep over them reports no change, whether they are one blank
        # object or each its own blank tuple.
        dt = parse_domain_theory("x : Boolean\ny : Boolean\ncontext w\n pre: x = T ;\n post: x = T and y = F ;")
        sd = parse_sd("sd S\nobject A\nobject B\nmsg 1 A -> B : u\nmsg 2 A -> B : v\nmsg 3 A -> B : w")
        shared = initialize_vectors(dt, sd.messages)
        own = shared._replace(faces=[tuple([None] * dt.width) for _ in range(4)] + shared.faces[4:])
        for line in (shared, own):
            assert frame_propagate(line) is False
            assert [format_vector(cells) for cells in line.faces] == ["<?,?>"] * 4 + ["<T,?>", "<T,F>"]


class TestConflicts:
    def test_paper_conflict(self, sd1, coffee_dt_unfixed):
        lines, conflicts = annotate(sd1, coffee_dt_unfixed)
        assert len(conflicts) == 1
        c = conflicts[0]
        assert c.object == CUI
        assert c.variable.name == "CoffeeTypeSelected"
        after, before, _ = conflict_view(lines[c.object], c)
        assert format_vector(after) == "<T,F,T,1,none>"
        assert format_vector(before) == "<T,F,F,1,none>"
        assert c.after_message.id == 2 and c.before_message.id == 3

    def test_derivation_references_loop(self, sd1, coffee_dt_unfixed):
        lines, conflicts = annotate(sd1, coffee_dt_unfixed)
        _, _, unified = conflict_view(lines[conflicts[0].object], conflicts[0])
        assert [m.id for m, _ in unified] == [1, 11, 10]
        assert all(format_vector(cells) == "<F,F,T,0,none>" for _, cells in unified)

    def test_derivation_spans_spec_to_conflict(self, sd1, coffee_dt_unfixed):
        lines, conflicts = annotate(sd1, coffee_dt_unfixed)
        chain = derivation(lines[conflicts[0].object], conflicts[0])
        kinds = [rule for _, _, rule in chain]
        assert FROM_SPEC in kinds and FRAME in kinds
        assert any(isinstance(p, Unified) for p in kinds)
        # oldest first: the chain starts at a specification value
        assert chain[0][2] == FROM_SPEC

    def test_worked_derivation_steps(self, sd1, coffee_dt_unfixed):
        # The paper's conflict, step by step: Cappuchino's post value of
        # CoffeeTypeSelected is carried by the frame axiom to the end of the
        # loop, unified back to message 1 and carried into message 2's post.
        lines, [c] = annotate(sd1, coffee_dt_unfixed)
        expected = [
            (4, "post", FROM_SPEC),
            (5, "pre", FRAME),
            (5, "post", FRAME),
            (6, "pre", FRAME),
            (6, "post", FRAME),
            (7, "pre", FRAME),
            (7, "post", FRAME),
            (8, "pre", FRAME),
            (8, "post", FRAME),
            (9, "pre", FRAME),
            (9, "post", FRAME),
            (10, "pre", FRAME),
            (10, "post", FRAME),
            (11, "pre", FRAME),
            (11, "post", FRAME),
            (1, "pre", Unified(0, face_index(lines, CUI, 11, "post"))),
            (2, "pre", Unified(0, face_index(lines, CUI, 1, "pre"))),
            (2, "post", FRAME),
            (3, "pre", FROM_SPEC),
        ]
        chain = derivation(lines[c.object], c)
        assert len(chain) == 19
        for step, (mid, which, prov) in zip(chain, expected, strict=True):
            assert step == (face_index(lines, CUI, mid, which), 2, prov)

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
        lines, conflicts = annotate(SequenceDiagram("Chain", ("A", "B"), tuple(msgs)), dt)
        assert [(c.object, c.after_message.id, c.before_message.id) for c in conflicts] == [
            ("A", n - 1, n),
            ("B", n - 1, n),
        ]
        assert all(derivation(lines[c.object], c)[0][2] == FROM_SPEC for c in conflicts)

    def test_empty_sd(self, coffee_dt):
        sd = parse_sd("sd S\nobject A")
        lines, conflicts = annotate(sd, coffee_dt)
        assert conflicts == [] and lines["A"] == Lifeline([], [], [], [0, 0], {}, [])


class TestInvariants:
    def test_idempotence(self, sd1, coffee_dt_unfixed):
        lines, _ = annotate(sd1, coffee_dt_unfixed)
        before = all_faces(lines)
        assert sweep(lines) is False
        assert first_candidate(sd1, lines) is None
        assert all_faces(lines) == before

    def test_monotonic_from_initialization(self, sd1, coffee_dt_unfixed):
        initial = known_cells(initial_lines(sd1, coffee_dt_unfixed))
        final_lines, _ = annotate(sd1, coffee_dt_unfixed)
        final = known_cells(final_lines)
        for cell, value in initial.items():
            assert final[cell] == value

    def test_monotonic_on_random_corpus(self):
        rng = random.Random(7)
        for _ in range(25):
            dt, sd = conflict_free_pair(rng, max_msgs=6)
            initial = known_cells(initial_lines(sd, dt))
            final_lines, _ = annotate(sd, dt)
            final = known_cells(final_lines)
            assert set(initial) <= set(final)
            assert all(final[c] == v for c, v in initial.items())

    def test_equal_faces_are_shared(self, sd1, sd2, coffee_dt, coffee_dt_unfixed):
        # Equal spec vectors are one object, and a face whose spec fixes no
        # cell and that no unification grounded is the face before it.
        cases = [(sd, dt) for sd in (sd1, sd2) for dt in (coffee_dt, coffee_dt_unfixed)]
        cases += provenance_corpus(coffee_dt_unfixed)
        shared = 0
        for sd, dt in cases:
            try:
                lines, _ = annotate(sd, dt)
            except AnnotationError:
                continue
            for line in lines.values():
                assert len(set(map(id, line.spec))) == len(set(line.spec))
                grounded = {i for i, _ in line.provenance}
                for i in range(1, len(line.faces)):
                    if i not in grounded and line.spec[i].count(None) == len(line.spec[i]):
                        assert line.faces[i] is line.faces[i - 1], (sd.name, i)
                        shared += 1
        assert shared > 1000

    def test_frame_soundness(self, sd1, coffee_dt_unfixed):
        # Remove every frame-derived cell; re-propagation restores all of
        # them exactly (the fixpoint is a function of the unification trace).
        lines, _ = annotate(sd1, coffee_dt_unfixed)
        expected = all_faces(lines)
        stripped = [
            (line, i, j)
            for line in lines.values()
            for i, cells in enumerate(line.faces)
            for j in range(len(cells))
            if provenance_of(line, i, j) == FRAME
        ]
        assert len(stripped) == 132
        for line, i, j in stripped:
            cells = line.faces[i]
            line.faces[i] = (*cells[:j], None, *cells[j + 1:])
        sweep(lines)
        assert all_faces(lines) == expected

    def test_conflict_completeness(self, sd1, coffee_dt_unfixed):
        lines, conflicts = annotate(sd1, coffee_dt_unfixed)
        found = set()
        for obj in sd1.objects:
            line = lifeline(sd1, obj)
            for p in range(len(line) - 1):
                left = face(lines, obj, line[p].id, "post")
                right = face(lines, obj, line[p + 1].id, "pre")
                for j, (x, y) in enumerate(zip(left, right)):
                    if x is not None and y is not None and x != y:
                        found.add((obj, line[p].id, j))
        assert found == {(c.object, c.after_message.id, c.variable.index) for c in conflicts}

    def test_discard_all_leaves_no_unifications(self, sd1, coffee_dt_unfixed):
        n = len(sd1.messages)
        everything = frozenset(
            frozenset((i, j)) for i in range(1, n + 1) for j in range(i, n + 1)
        )
        lines, _ = annotate(sd1._replace(no_loop=everything), coffee_dt_unfixed)
        for line in lines.values():
            assert line.events == []
            assert not any(isinstance(p, Unified) for p in line.provenance.values())

    def test_lifelines_annotate_independently(self):
        # Annotation is lifeline-local: each lifeline is annotate_lifeline
        # of the object's own messages, and declaring the objects in another
        # order annotates the lifelines in that order, which changes no
        # lifeline (cells, provenance or identifications), and the
        # conflicts only in order.  Many diagrams identify states on more
        # than one object.
        rng = random.Random(43)
        several = 0
        for _ in range(3000):
            dt = gen_theory(rng)
            sd = gen_sd(rng, dt, max_msgs=30, max_objs=4)
            shuffled = sd._replace(objects=tuple(rng.sample(sd.objects, len(sd.objects))))
            lines, conflicts = annotate(sd, dt)
            other, other_conflicts = annotate(shuffled, dt)
            assert other == lines, sd
            assert lines == {obj: annotate_lifeline(dt, lifeline(sd, obj)) for obj in sd.objects}
            assert Counter(other_conflicts) == Counter(conflicts), sd
            several += sum(bool(line.events) for line in lines.values()) > 1
        assert several > 1_500

    def test_determinism(self, sd1, coffee_dt_unfixed):
        a1, c1 = annotate(sd1, coffee_dt_unfixed)
        a2, c2 = annotate(sd1, coffee_dt_unfixed)
        assert a1 == a2
        assert c1 == c2

    def test_order_insensitivity_on_conflict_free(self):
        # On conflict-free diagrams the determined cells at the fixpoint do
        # not depend on the order identifications are applied in: explore
        # the application orders (bounded) and compare the outcomes.
        def clone(lines):
            return {obj: line._replace(faces=[tuple(cells) for cells in line.faces],
                                       provenance=dict(line.provenance), events=list(line.events))
                    for obj, line in lines.items()}

        rng = random.Random(11)
        for _ in range(20):
            dt, sd = conflict_free_pair(rng, max_msgs=5, max_objs=2)
            baseline, _ = annotate(sd, dt)
            outcomes = set()
            budget = [150]

            def explore(lines):
                if budget[0] <= 0:
                    return
                while True:
                    sweep(lines)
                    cands = identification_scan(sd, dt, lines)
                    if cands:
                        break
                    if not join_gaps(sd, lines):
                        budget[0] -= 1
                        outcomes.add(frozenset(known_cells(lines).items()))
                        return
                for cand in cands:
                    copy = clone(lines)
                    apply_identification(copy[cand[0]], cand[1:])
                    explore(copy)

            explore(initial_lines(sd, dt))
            assert outcomes == {frozenset(known_cells(baseline).items())}, (
                f"order-dependent fixpoint for {sd}"
            )

    def test_derived_provenance_matches_stored(self, coffee_dt_unfixed):
        # The annotator stores only unification records and derives spec
        # and frame steps; the eager oracle builds its own lifelines, stores
        # a record for every cell it grounds and traces chains through those
        # records alone, and joins gaps both ways where the annotator fills
        # only post faces.  Lifelines (messages, spec, cells, class bounds,
        # identifications), every cell's provenance, conflicts, each
        # conflict's derivation chain, and errors are the same.
        cells = errors = traced = joined = 0
        for sd, dt in provenance_corpus(coffee_dt_unfixed):
            try:
                eager, eager_conflicts, eager_chains = annotate_eager(sd, dt)
            except AnnotationError as exc:
                with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                    annotate(sd, dt)
                errors += 1
                continue
            lines, conflicts = annotate(sd, dt)
            assert list(lines) == list(eager)
            determined = known_cells(eager)
            for obj, line in lines.items():
                stored = eager[obj]
                assert line._replace(provenance=None) == stored._replace(provenance=None)
                assert set(stored.provenance) == {(i, j) for o, i, j in determined if o == obj}
                for i, vector in enumerate(stored.faces):
                    for j in range(len(vector)):
                        assert provenance_of(line, i, j) == stored.provenance.get((i, j))
                assert line.provenance == {
                    cell: p for cell, p in stored.provenance.items() if isinstance(p, Unified)
                }
                joined += any(p.event == -1 for p in line.provenance.values())
            assert conflicts == eager_conflicts
            assert [derivation(lines[c.object], c) for c in conflicts] == eager_chains
            for c, chain in zip(conflicts, eager_chains):
                after = face(eager, c.object, c.after_message.id, "post")
                before = face(eager, c.object, c.before_message.id, "pre")
                assert conflict_view(lines[c.object], c) == (
                    tuple(after), tuple(before), unified_faces(eager[c.object], chain))
            cells += len(determined)
            traced += len(conflicts)
        assert cells > 40_000 and errors > 10 and traced > 1_000 and joined >= 150

    def test_unified_states_are_the_derivations_unified_faces(self, coffee_dt_unfixed):
        # The faces a conflict prints are those of the identifications its
        # derivation chain passes through, in step order, each face once.
        # The before cell's chain is one FROM_SPEC step: a gap's two faces
        # are in one class, so frame steps, gap joins and identifications
        # give both the same value, and only a precondition can differ.
        shown = 0
        for sd, dt in provenance_corpus(coffee_dt_unfixed):
            try:
                lines, conflicts = annotate(sd, dt)
            except AnnotationError:
                continue
            for c in conflicts:
                chain = derivation(lines[c.object], c)
                _, _, unified = conflict_view(lines[c.object], c)
                assert unified == unified_faces(lines[c.object], chain)
                before = face_index(lines, c.object, c.before_message.id, "pre")
                assert chain[-1] == (before, c.variable.index, FROM_SPEC)
                assert chain[-2][0] == face_index(lines, c.object, c.after_message.id, "post")
                shown += bool(unified)
        assert shown > 50

    def test_deleting_another_objects_message_keeps_a_lifeline(self):
        # An object's annotation depends on its own messages alone and
        # names none by id: it is annotate_lifeline of those messages and
        # the no_loop pairs between them, as positions.  Deleting a message
        # the object takes no part in renumbers the messages after it and
        # leaves its lifeline otherwise as it was, provenance and
        # identifications included.
        rng = random.Random(53)
        kept = identified = 0
        for k in range(600):
            dt = gen_theory(rng)
            sd = gen_sd(rng, dt, max_msgs=rng.choice((8, 20)), max_objs=4)
            n = len(sd.messages)
            if k % 2 and n > 1:
                pairs = {frozenset((rng.randint(1, n), rng.randint(1, n))) for _ in range(3)}
                sd = sd._replace(no_loop=frozenset(pairs))
            lines, _ = annotate(sd, dt)
            for obj, line in lines.items():
                assert line == annotate_lifeline(dt, lifeline(sd, obj), no_loop_on(sd, obj)), sd
                others = [m.id for m in sd.messages if obj not in (m.sender, m.receiver)]
                if not others:
                    continue
                edited, _ = annotate(apply_edit(sd, Delete(rng.choice(others))), dt)
                after = edited[obj]
                assert after._replace(messages=None) == line._replace(messages=None), sd
                assert [m._replace(id=0) for m in after.messages] == [
                    m._replace(id=0) for m in line.messages]
                kept += 1
                identified += bool(line.events)
        assert kept > 800 and identified > 200


class TestSafetyChecks:
    """Assertions that guard the annotation's invariants; no annotation trips them."""

    def test_ground_refuses_to_overwrite_a_determined_cell(self, sd1, coffee_dt_unfixed):
        lines, _ = annotate(sd1, coffee_dt_unfixed)
        line = lines[CUI]
        (i, j), rule = next(iter(line.provenance.items()))
        value = line.faces[i][j]
        other = next(v for v in coffee_dt_unfixed.variables[j].domain.values() if v != value)
        expected = f"attempt to overwrite determined cell {j} of face {i} ({value}) with {other}"
        with pytest.raises(AssertionError, match=f"^{re.escape(expected)}$"):
            _ground(line, i, j, other, Unified(-1, i))
        assert line.faces[i][j] == value and line.provenance[(i, j)] == rule

    def test_ground_with_the_same_value_keeps_provenance(self, sd1, coffee_dt_unfixed):
        # A unified cell keeps its record, and a spec cell gains none.
        lines, _ = annotate(sd1, coffee_dt_unfixed)
        line = lines[CUI]
        stored = dict(line.provenance)
        spec_cell = (face_index(lines, CUI, 2, "pre"), 0)  # Insert coin's precondition fixes it
        assert spec_cell not in stored and line.faces[spec_cell[0]][0] == "F"
        for i, j in (next(iter(stored)), spec_cell):
            _ground(line, i, j, line.faces[i][j], Unified(-1, i))
        assert line.provenance == stored
        assert lines == annotate(sd1, coffee_dt_unfixed)[0]

    def test_walk_refuses_cyclic_provenance(self, sd1, coffee_dt_unfixed):
        lines, _ = annotate(sd1, coffee_dt_unfixed)
        line = lines[CUI]
        a, b = face_index(lines, CUI, 5, "pre"), face_index(lines, CUI, 5, "post")
        line.provenance[(a, 0)] = Unified(0, b)
        line.provenance[(b, 0)] = Unified(0, a)
        with pytest.raises(AssertionError, match="^cyclic provenance at ") as exc:
            list(_walk(line, a, 0))
        assert str(exc.value) in (f"cyclic provenance at cell 0 of face {a}",
                                  f"cyclic provenance at cell 0 of face {b}")
