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
    Node,
    SequenceDiagram,
    Statechart,
    StateVariable,
    Transition,
)
from scdebug.synthesizer import COMPLETION, FlatChart, synthesize

ENUM_POOL = ("red", "green", "blue", "amber")
UNSPECIFIED = ("ping", "pong")
CHART_EVENTS = ("a", "b", "c", COMPLETION)
REPLAY_EVENTS = ("e", "f", "g")
REPLAY_SENDS = ("a", "b")


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
    """Random flat chart over distinct partial vectors over 1-4 variables
    with 2-3 values each, some cells ``?``: transitions are drawn between
    them and the states follow (the initial vector and every endpoint).  The
    transitions form any digraph: edge density varies from chart to chart,
    so some states are unreachable; self-loops, parallel edges and
    completion edges occur, the initial vector is random, and sometimes a
    ring through all vectors in a shuffled order underlies the edges."""
    domains = [("0", "1", "2")[: rng.randint(2, 3)] for _ in range(rng.randint(1, 4))]
    unknown = rng.random() * 0.4
    keys = {}
    target = rng.randint(1, max_states)
    for _ in range(20 * target):
        keys.setdefault(tuple(None if rng.random() < unknown else rng.choice(d) for d in domains))
        if len(keys) == target:
            break
    states = tuple(keys)
    n = len(states)
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
    return FlatChart("X", rng.choice(states), tuple(transitions))


def gen_replay_case(rng: random.Random, max_states=4, max_msgs=8):
    """(theory, chart, diagram) for replaying object M.

    The theory specifies the chart's events over Boolean variables.  The
    flat chart has parallel same-event edges, guards (completion edges
    included), completion edges and actions.  The diagram mixes receives
    from Env, self-sends and sends to Env; half the time it follows a
    random walk of the chart, so many replays go deep or are accepted.
    """
    variables = tuple(StateVariable(f"v{i}", BoolDomain(), i) for i in range(rng.randint(1, 3)))
    dt = DomainTheory(
        variables,
        tuple(
            MessageSpec(e, (), gen_condition(rng, variables), gen_condition(rng, variables))
            for e in REPLAY_EVENTS
            if rng.random() < 0.8
        ),
    )
    names = [f"N{i}" for i in range(rng.randint(1, max_states))]
    transitions = []
    for _ in range(rng.randint(0, 3 * len(names))):
        source, event = rng.choice(names), rng.choice(REPLAY_EVENTS + (COMPLETION,))
        actions = tuple(rng.choices(REPLAY_SENDS, k=rng.randint(0, 2)))
        for _ in range(1 + (rng.random() < 0.4)):  # sometimes a parallel edge
            guard = gen_condition(rng, variables) if rng.random() < 0.3 else None
            transitions.append(Transition(source, rng.choice(names), event, guard, actions))
    chart = Statechart("M", tuple(Node(n) for n in names), rng.choice(names), tuple(transitions))

    msgs = []

    def add(label, sender, receiver):
        msgs.append(Message(len(msgs) + 1, label, (), sender, receiver))

    if rng.random() < 0.5:
        state = chart.initial
        for step in range(rng.randint(0, max_msgs)):
            out = [t for t in transitions if t.source == state and (t.event == COMPLETION) == (step == 0)]
            if not out:
                if step == 0:
                    continue
                break
            t = rng.choice(out)
            if t.event != COMPLETION:
                add(t.event, *rng.choice((("Env", "M"), ("M", "M"))))
            for action in t.actions:
                if rng.random() < 0.8:
                    add(action, "M", "Env")
            state = t.target
    else:
        for _ in range(rng.randint(0, max_msgs)):
            sender, receiver = rng.choice((("Env", "M"), ("Env", "M"), ("M", "M"), ("M", "Env")))
            add(rng.choice(REPLAY_SENDS if receiver == "Env" else REPLAY_EVENTS), sender, receiver)
    return dt, chart, SequenceDiagram("S", ("Env", "M"), tuple(msgs))
