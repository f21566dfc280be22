"""Seeded random corpora for the property suites.

Everything is driven by an explicit random.Random instance so the suites
are reproducible; rejection sampling keeps only inputs the suite needs
(conflict-free, mergeable, ...).
"""

import random

from scdebug.annotator import annotate
from scdebug.model import (
    BoolDomain,
    Condition,
    DomainTheory,
    EnumDomain,
    IntRangeDomain,
    Message,
    MessageSpec,
    SequenceDiagram,
    StateVariable,
)
from scdebug.synthesizer import COMPLETION, FlatChart, synthesize

ENUM_POOL = ("red", "green", "blue", "amber")
UNSPECIFIED = ("ping", "pong")
CHART_EVENTS = ("a", "b", "c", COMPLETION)


def gen_domain(rng: random.Random):
    k = rng.randrange(3)
    if k == 0:
        return BoolDomain()
    if k == 1:
        return IntRangeDomain(0, rng.randint(1, 3))
    return EnumDomain(ENUM_POOL[: rng.randint(2, 4)])


def gen_condition(rng: random.Random, variables, max_atoms=2) -> Condition:
    count = rng.randint(0, min(max_atoms, len(variables)))
    picked = rng.sample(list(variables), k=count)
    return Condition(tuple((v.name, rng.choice(v.domain.values())) for v in picked))


def gen_theory(rng: random.Random, max_vars=6, max_specs=6) -> DomainTheory:
    nvars = rng.randint(1, max_vars)
    variables = tuple(StateVariable(f"v{i}", gen_domain(rng), i) for i in range(nvars))
    specs = tuple(
        MessageSpec(
            f"m{s}",
            (),
            gen_condition(rng, variables),
            gen_condition(rng, variables),
        )
        for s in range(rng.randint(1, max_specs))
    )
    return DomainTheory(variables, specs)


def gen_sd(rng: random.Random, dt: DomainTheory, name="R", max_msgs=10, max_objs=3,
           first_label=None) -> SequenceDiagram:
    nobj = rng.randint(2, max_objs)
    objects = tuple(f"O{i}" for i in range(nobj))
    labels = [s.name for s in dt.specs] + list(UNSPECIFIED)
    n = rng.randint(1, max_msgs)
    msgs = []
    for i in range(1, n + 1):
        sender, receiver = rng.sample(objects, k=2)
        label = first_label if (i == 1 and first_label) else rng.choice(labels)
        msgs.append(Message(i, label, (), sender, receiver))
    return SequenceDiagram(name, objects, tuple(msgs))


def conflict_free_pair(rng: random.Random, **kw):
    """Rejection-sampled (theory, diagram) pair that annotates cleanly."""
    while True:
        dt = gen_theory(rng)
        sd = gen_sd(rng, dt, **kw)
        _, conflicts = annotate(sd, dt)
        if not conflicts:
            return dt, sd


def mergeable_corpus(rng: random.Random, count=2, **kw):
    """One theory with several conflict-free diagrams whose charts merge.

    All diagrams open with the same message label so the per-object initial
    states stay unifiable.
    """
    while True:
        dt = gen_theory(rng)
        first = dt.specs[0].name
        sds = []
        for i in range(count):
            sd = gen_sd(rng, dt, name=f"R{i}", first_label=first, **kw)
            _, conflicts = annotate(sd, dt)
            if conflicts:
                break
            sds.append(sd)
        if len(sds) != count:
            continue
        try:
            synthesize(dt, sds)
        except ValueError:
            continue
        return dt, sds


def gen_flat_chart(rng: random.Random, max_states=10) -> FlatChart:
    """Random flat chart over any digraph: edge density varies from chart to
    chart, so some states are unreachable; self-loops, parallel edges and
    completion edges occur, the initial state is random, and sometimes a
    ring through all states in a shuffled order underlies the edges."""
    n = rng.randint(1, max_states)
    states = tuple((f"s{i}",) for i in range(n))
    density = rng.random() * 0.5
    pairs = [(a, b) for a in states for b in states if rng.random() < density]
    if rng.random() < 0.3:
        order = rng.sample(states, k=n)
        pairs += [(order[i], order[(i + 1) % n]) for i in range(n)]
    transitions = []
    for a, b in pairs:
        quad = (a, b, rng.choice(CHART_EVENTS), rng.choice(((), ("x",))))
        if quad not in transitions:
            transitions.append(quad)
    rng.shuffle(transitions)
    return FlatChart("X", states, rng.choice(states), tuple(transitions))
