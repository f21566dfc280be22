"""Bounded-exhaustive checks at scope 1: every theory of one Boolean and two
contexts against every diagram of up to three messages between two objects.

Defects that random corpora reach only by luck show first on small inputs
checked exhaustively (the small-scope hypothesis, Jackson, *Software
Abstractions*, 2006).  Scope 1 runs in a second or two.
"""

import itertools

from scdebug.annotator import annotate
from scdebug.checker import replay
from scdebug.dsl import parse_domain_theory
from scdebug.model import Message, SequenceDiagram
from scdebug.synthesizer import synthesize

from oracles import annotate_eager

CLAUSES = ("", " x = T ;", " x = F ;")  # none, x = T, x = F
OBJECTS = ("P", "Q")


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


def test_scope_one():
    sds = list(diagrams())
    assert len(sds) == 84
    pairs = conflict_free = 0
    for dt in theories():
        for sd in sds:
            pairs += 1
            _, conflicts = annotate(sd, dt)
            assert conflicts == annotate_eager(sd, dt)[1], (dt, sd)
            if conflicts:
                continue
            conflict_free += 1
            # A conflict-free diagram is accepted by the charts synthesized from it.
            charts, _ = synthesize(dt, [sd])
            for obj in OBJECTS:
                assert replay(sd, obj, charts[obj], dt).accepted, (dt, sd, obj)
    assert (pairs, conflict_free) == (6804, 4420)
