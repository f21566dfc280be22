"""Bounded-exhaustive checks at scope 1: every theory of one Boolean and two
contexts against every diagram of up to three messages between two objects,
for annotation, synthesis, replay and renaming; the repair search's leaf
test against every chart synthesized there; and repair on a slice of that
scope (see ``test_scope_one_repair``).

Defects that random corpora reach only by luck show first on small inputs
checked exhaustively (the small-scope hypothesis, Jackson, *Software
Abstractions*, 2006).  Scope 1 runs in a few seconds.
"""

import itertools
from collections import Counter

from scdebug.annotator import annotate
from scdebug.checker import repair, replay
from scdebug.dsl import parse_domain_theory, print_sc
from scdebug.model import Message, SequenceDiagram
from scdebug.synthesizer import flatten, synthesize

from conftest import leaf_test
from oracles import annotate_eager, brute_force_min_cost, leaf_verdicts

CLAUSES = ("", " x = T ;", " x = F ;")  # none, x = T, x = F
OBJECTS = ("P", "Q")
SWAP = {"P": "Q", "Q": "P"}


def theories():
    """Each theory with a Boolean ``x`` and contexts ``a`` and ``b``, each
    pre and post none, ``x = T`` or ``x = F``: 81 theories."""
    for a_pre, a_post, b_pre, b_post in itertools.product(CLAUSES, repeat=4):
        yield parse_domain_theory(f"x : Boolean\ncontext a\n pre:{a_pre}\n post:{a_post}\n"
                                  f"context b\n pre:{b_pre}\n post:{b_post}\n")


def diagrams():
    """Each diagram of 1-3 messages ``a`` or ``b`` between ``P`` and ``Q``,
    in either direction: 84 diagrams."""
    steps = [(label, sender, receiver) for label in "ab" for sender, receiver in (OBJECTS, OBJECTS[::-1])]
    for n in (1, 2, 3):
        for chosen in itertools.product(steps, repeat=n):
            messages = tuple(Message(i, label, (), sender, receiver)
                             for i, (label, sender, receiver) in enumerate(chosen, start=1))
            yield SequenceDiagram("S", OBJECTS, messages)


def swapped(msg: Message) -> Message:
    return msg._replace(sender=SWAP[msg.sender], receiver=SWAP[msg.receiver])


def test_scope_one():
    # annotate equals the eager oracle, and each conflict-free diagram is
    # accepted by the charts synthesized from it.  Swapping the names P and
    # Q in a diagram, its declaration order included, swaps them in its
    # conflicts and its charts and changes nothing else.
    sds = list(diagrams())
    assert len(sds) == 84
    pairs = conflict_free = 0
    for dt in theories():
        for sd in sds:
            pairs += 1
            _, conflicts = annotate(sd, dt)
            assert conflicts == annotate_eager(sd, dt)[1], (dt, sd)
            renamed = SequenceDiagram(sd.name, tuple(SWAP[o] for o in sd.objects),
                                      tuple(map(swapped, sd.messages)))
            assert [c._replace(object=SWAP[c.object], after_message=swapped(c.after_message),
                               before_message=swapped(c.before_message))
                    for c in annotate(renamed, dt)[1]] == conflicts, (dt, sd)
            if conflicts:
                continue
            conflict_free += 1
            # A conflict-free diagram is accepted by the charts synthesized from it.
            charts, _ = synthesize(dt, [sd])
            for obj in OBJECTS:
                assert replay(sd, obj, flatten(charts[obj]), dt).accepted, (dt, sd, obj)
            renamed_charts, _ = synthesize(dt, [renamed])
            assert {obj: print_sc(chart) for obj, chart in renamed_charts.items()} == {
                SWAP[obj]: print_sc(chart._replace(name=SWAP[obj])) for obj, chart in charts.items()}, (dt, sd)
    assert (pairs, conflict_free) == (6804, 4420)


def test_scope_one_leaf_test():
    # Against each distinct chart synthesized for Q at scope 1 (renaming P
    # and Q gives those of P), the leaf test's verdict on every diagram of
    # 1-2 messages, on each delete and on each insert equals replay_dfs's
    # on the diagram the edit builds.
    sds = list(diagrams())
    charts = {}
    for dt in theories():
        for sd in sds:
            if not annotate(sd, dt)[1]:
                chart = flatten(synthesize(dt, [sd])[0]["Q"])
                charts.setdefault((chart.initial, chart.transitions), (dt, chart))
    short, seen = [sd for sd in sds if len(sd.messages) <= 2], Counter()
    for dt, chart in charts.values():
        for sd in short:
            accepted, deletable, fitting = leaf_test(chart, sd, "Q")
            expected, deletes, inserts = leaf_verdicts(sd, "Q", chart, dt)
            assert (accepted, deletable) == (expected, deletes), (chart, sd)
            assert [fitting(pos) for pos in range(1, len(sd.messages) + 2)] == inserts, (chart, sd)
            seen[accepted, all(deletes), any(inserts)] += 1
    assert len(charts) > 100 and len(seen) == 8, (len(charts), seen)


def test_scope_one_repair():
    # A two-edit repair costs what the brute-force oracle finds, on every
    # replay the charts reject.  The slice: every diagram of 1-2 messages,
    # for both objects, against the charts synthesized from the diagram of
    # the one message a from P to Q, under each theory it is conflict-free
    # in whose first condition atom, if any, is x = T.  Renaming the labels,
    # the objects or the two values gives every other case at scope 1 with
    # 1-message charts.
    first = SequenceDiagram("S", OBJECTS, (Message(1, "a", (), "P", "Q"),))
    sds = [sd for sd in diagrams() if len(sd.messages) <= 2]
    costs = Counter()
    for dt in theories():
        atoms = [atom for spec in dt.specs for cond in (spec.pre, spec.post) for atom in cond]
        if atoms[:1] == [("x", "F")] or annotate(first, dt)[1]:
            continue
        charts = {obj: flatten(chart) for obj, chart in synthesize(dt, [first])[0].items()}
        for sd in sds:
            for obj in OBJECTS:
                if replay(sd, obj, charts[obj], dt).accepted:
                    continue
                found = repair(sd, obj, charts[obj], dt, max_edits=2)
                assert brute_force_min_cost(sd, obj, charts[obj], dt, 2) == found.cost, (dt, sd, obj)
                costs[found.cost] += 1
    assert costs == {1: 788, 2: 738}
