"""Seeded corpora for the benchmark.

Everything here is plain data rendered to the program's three text formats
(.dt, .sd, .sc).  Nothing imports scdebug: the program only ever sees the
generated text, and the facts the output checks need (planted conflicts,
expected charts, deleted messages) come from how each corpus was built, not
from running the program.  One random.Random(seed) drives every choice, so
the same seed gives byte-identical files.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Var:
    name: str
    values: tuple  # literal tokens, in domain order
    domain: str  # the .dt spelling: Boolean, lo..hi or enum {...}


@dataclass(frozen=True)
class Spec:
    name: str
    pre: tuple = ()  # ((variable, value or parameter name), ...)
    post: tuple = ()
    param: tuple | None = None  # (name, Var describing its domain)


@dataclass(frozen=True)
class Theory:
    variables: tuple
    specs: tuple

    def spec(self, label):
        return next((s for s in self.specs if s.name == label), None)


@dataclass(frozen=True)
class Msg:
    sender: str
    receiver: str
    label: str
    args: tuple = ()

    def event(self) -> str:
        return f"{self.label}({','.join(self.args)})" if self.args else self.label


@dataclass(frozen=True)
class Diagram:
    name: str
    objects: tuple
    messages: tuple

    def lifeline(self, obj):
        """(1-based id, message) pairs the object takes part in."""
        return [(i, m) for i, m in enumerate(self.messages, 1) if obj in (m.sender, m.receiver)]

    def without(self, ids) -> "Diagram":
        return Diagram(self.name, self.objects,
                       tuple(m for i, m in enumerate(self.messages, 1) if i not in ids))


def boolean(name):
    return Var(name, ("T", "F"), "Boolean")


def int_range(name, lo, hi):
    return Var(name, tuple(str(v) for v in range(lo, hi + 1)), f"{lo}..{hi}")


def enum(name, values):
    return Var(name, tuple(values), "enum {" + ",".join(values) + "}")


def _clause(atoms) -> str:
    return " and ".join(f"{v} = {x}" for v, x in atoms) + " ;" if atoms else ""


def render_theory(th: Theory) -> str:
    out = [f"{v.name} : {v.domain}" for v in th.variables]
    for s in th.specs:
        head = f"context {s.name}"
        if s.param:
            head += f" ({s.param[0]} : {s.param[1].domain})"
        out += ["", head, f"   pre:  {_clause(s.pre)}".rstrip(), f"   post: {_clause(s.post)}".rstrip()]
    return "\n".join(out) + "\n"


def render_sd(sd: Diagram) -> str:
    out = [f"sd {sd.name}"] + [f"object {o}" for o in sd.objects]
    out += [f"msg {i} {m.sender} -> {m.receiver} : {m.event()}" for i, m in enumerate(sd.messages, 1)]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# The paper's coffee machine (repaired theory), kept as data so a change to
# the test fixtures cannot change the benchmark's inputs.

_COFFEE_TYPE = enum("SelectedCoffeeType", ("none", "Espresso", "Cappuchino", "Milk"))
COFFEE = Theory(
    (boolean("CoinInMachine"), boolean("CoinInReturnSlot"), boolean("CoffeeTypeSelected"),
     int_range("Coin", 0, 1), _COFFEE_TYPE),
    (
        Spec("Insert coin", (("CoinInMachine", "F"),), (("CoinInMachine", "T"), ("Coin", "1"))),
        Spec("Enter Selection", (("CoffeeTypeSelected", "F"),),
             (("CoffeeTypeSelected", "T"), ("SelectedCoffeeType", "CT")), ("CT", _COFFEE_TYPE)),
        Spec("Take coin", (("CoinInReturnSlot", "T"),),
             (("CoinInReturnSlot", "F"), ("CoinInMachine", "F"))),
        Spec("Display Ready Light", (("CoinInReturnSlot", "F"), ("CoinInMachine", "F"))),
        Spec("Request Selection", (("CoffeeTypeSelected", "F"),)),
        Spec("Release coin", (("Coin", "1"),),
             (("CoffeeTypeSelected", "F"), ("CoinInReturnSlot", "T"), ("Coin", "0"),
              ("CoinInMachine", "F"), ("SelectedCoffeeType", "none"))),
        Spec("Request take coin", (("CoinInReturnSlot", "T"),)),
        Spec("Acknowledge cancel", (("CoinInMachine", "T"),)),
    ),
)
COFFEE_OBJECTS = ("Control", "Coffee-UI", "User")
_C, _U, _P = COFFEE_OBJECTS
# Messages 2..11 of SD1 (the cancel loop, ending back at the ready light)
# and 2..7 of SD2 (the happy path); message 1 of both is the ready light.
READY = Msg(_C, _U, "Display Ready Light")
CANCEL_BODY = (
    Msg(_P, _U, "Insert coin"), Msg(_U, _P, "Request Selection"),
    Msg(_P, _U, "Enter Selection", ("Espresso",)), Msg(_P, _U, "Cancel"), Msg(_U, _C, "Cancel"),
    Msg(_U, _P, "Acknowledge cancel"), Msg(_C, _U, "Release coin"),
    Msg(_U, _P, "Request take coin"), Msg(_U, _C, "Take coin"), READY,
)
BREW_BODY = (
    Msg(_P, _U, "Insert coin"), Msg(_U, _P, "Request Selection"),
    Msg(_P, _U, "Enter Selection", ("Cappuchino",)), Msg(_U, _C, "Brew coffee"),
    Msg(_C, _U, "Coffee ready"), Msg(_U, _P, "Dispense coffee"),
)
SD1 = Diagram("SD1", COFFEE_OBJECTS, (READY,) + CANCEL_BODY)
SD2 = Diagram("SD2", COFFEE_OBJECTS, (READY,) + BREW_BODY)

STEPPER = Theory(
    (int_range("Step", 0, 4),),
    (Spec("e1", (("Step", "0"),), (("Step", "1"),)), Spec("e2", (("Step", "1"),), (("Step", "2"),)),
     Spec("e4", (("Step", "2"),), (("Step", "3"),)), Spec("e5", (("Step", "3"),))),
)
STEPPER_SD = Diagram("Stepper", ("Env", "M"), tuple(Msg("Env", "M", e) for e in ("e1", "e2", "e4", "e5")))


# ---------------------------------------------------------------------------
# Families

_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "sa", "to", "vi", "ze", "pa")


def word(rng: random.Random, n=3) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(n))


DRINKS = ("Espresso", "Cappuchino", "Milk")


def with_drink(sd: Diagram, drink: str) -> Diagram:
    return Diagram(sd.name, sd.objects,
                   tuple(Msg(m.sender, m.receiver, m.label, (drink,)) if m.args else m for m in sd.messages))


def coffee_episodes(rng, name, cancels, brews) -> Diagram:
    """The ready light, then cancel and brew episodes in a seeded order.

    A brew episode never returns the machine to ready, so every episode
    after one conflicts with the theory: conflicts with long derivations.
    """
    kinds = ["c"] * cancels + ["b"] * brews
    rng.shuffle(kinds)
    msgs = [READY]
    for kind in kinds:
        body = Diagram(name, COFFEE_OBJECTS, CANCEL_BODY if kind == "c" else BREW_BODY)
        msgs += with_drink(body, rng.choice(DRINKS)).messages
    return Diagram(name, COFFEE_OBJECTS, tuple(msgs))


@dataclass
class Cyclic:
    """A k-state ring protocol: Env drives M round the ring `laps` times.

    M's chart must have exactly k states and k transitions; the steps in
    `replies` make M answer with an unspecified message, which becomes that
    transition's action.
    """

    theory: Theory
    sd: Diagram
    k: int
    labels: tuple
    replies: dict = field(default_factory=dict)  # step -> reply label

    def chart_edges(self):
        """Expected transitions of M as (from S, to S, event, actions)."""
        return {(str(i), str((i + 1) % self.k), self.labels[i],
                 (self.replies[i],) if i in self.replies else ()) for i in range(self.k)}


def ring_chart(cyc: Cyclic) -> str:
    """M's ring written by hand as a .sc file, one state per value of S."""
    out = ["statechart M", "initial N0"] + [f"state N{i}   # <{i}>" for i in range(cyc.k)]
    for frm, to, event, actions in sorted(cyc.chart_edges()):
        out.append(f"N{frm} -> N{to} : {event}" + (" / " + ", ".join(actions) if actions else ""))
    return "\n".join(out) + "\n"


def cyclic(rng, k, laps, name="Ring", reply_share=0.25) -> Cyclic:
    var = int_range("S", 0, k - 1)
    stem = word(rng, 2)
    labels = tuple(f"{stem}{i}" for i in range(k))
    specs = tuple(Spec(labels[i], (("S", str(i)),), (("S", str((i + 1) % k)),)) for i in range(k))
    replies = {i: f"ack{word(rng, 1)}" for i in range(k) if rng.random() < reply_share}
    msgs = []
    for _ in range(laps):
        for i in range(k):
            msgs.append(Msg("Env", "M", labels[i]))
            if i in replies:
                msgs.append(Msg("M", "Env", replies[i]))
    return Cyclic(Theory((var,), specs), Diagram(name, ("Env", "M"), tuple(msgs)), k, labels, replies)


@dataclass
class Walks:
    """Several diagrams, each a random walk on one protocol graph from state
    0; their charts of M must merge into exactly the walked edges."""

    theory: Theory
    sds: list
    edges: set  # (from S, to S, event, ()) actually walked


def walks(rng, states, count, length, name="W") -> Walks:
    var = int_range("S", 0, states - 1)
    graph = {s: [(s + 1) % states] for s in range(states)}
    for _ in range(states // 2):
        a, b = rng.randrange(states), rng.randrange(states)
        if b not in graph[a]:
            graph[a].append(b)
    label = {(a, b): f"go{a}x{b}" for a in graph for b in graph[a]}
    specs = tuple(Spec(lab, (("S", str(a)),), (("S", str(b)),)) for (a, b), lab in sorted(label.items()))
    sds, edges = [], set()
    for d in range(count):
        s, msgs = 0, []
        for _ in range(length):
            t = rng.choice(graph[s])
            msgs.append(Msg("Env", "M", label[(s, t)]))
            edges.add((str(s), str(t), label[(s, t)], ()))
            s = t
        sds.append(Diagram(f"{name}{d}", ("Env", "M"), tuple(msgs)))
    return Walks(Theory((var,), specs), sds, edges)


@dataclass
class FrameChain:
    """`arm` sets Flag = T, unspecified messages carry it by the frame axiom,
    and the last message requires Flag = F: one conflict per object of the
    planted pair, between its last carried message and the last one."""

    theory: Theory
    sd: Diagram
    pair: tuple

    def planted(self) -> set:
        """(object, after id, before id, variable, after, before) per object."""
        last = len(self.sd.messages)
        return {(o, [i for i, _ in self.sd.lifeline(o)][-2], last, "Flag", "T", "F") for o in self.pair}


def frame_chain(rng, n, objects=("A", "B"), name="Chain") -> FrameChain:
    a, b = objects[0], objects[1]
    noops = tuple(word(rng, 2) for _ in range(4))
    theory = Theory((boolean("Flag"), enum("Mode", ("idle", "busy"))),
                    (Spec("arm", (), (("Flag", "T"),)), Spec("check", (("Flag", "F"),))))
    msgs = [Msg(a, b, "arm")]
    for _ in range(n - 2):
        s, r = rng.sample(objects, 2)
        msgs.append(Msg(s, r, rng.choice(noops)))
    msgs.append(Msg(b, a, "check"))
    return FrameChain(theory, Diagram(name, tuple(objects), tuple(msgs)), (a, b))


def random_pair(rng, n, name="R"):
    """A tests/gen.py-style random theory and diagram, without rejection
    sampling: conflicts are allowed."""
    variables = []
    for i in range(rng.randint(2, 6)):
        kind = rng.randrange(3)
        if kind == 0:
            variables.append(boolean(f"v{i}"))
        elif kind == 1:
            variables.append(int_range(f"v{i}", 0, rng.randint(1, 3)))
        else:
            variables.append(enum(f"v{i}", ("red", "green", "blue", "amber")[: rng.randint(2, 4)]))

    def cond():
        picked = rng.sample(variables, rng.randint(0, min(2, len(variables))))
        return tuple((v.name, rng.choice(v.values)) for v in picked)

    specs = tuple(Spec(f"m{s}", cond(), cond()) for s in range(rng.randint(2, 6)))
    objects = tuple(f"O{i}" for i in range(rng.randint(2, 3)))
    labels = [s.name for s in specs] + ["ping", "pong"]
    msgs = tuple(Msg(*rng.sample(objects, 2), rng.choice(labels)) for _ in range(n))
    return Theory(tuple(variables), specs), Diagram(name, objects, msgs)


# ---------------------------------------------------------------------------


def write(root: Path, files: dict) -> None:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def digest(files: dict) -> str:
    h = hashlib.sha256()
    for rel in sorted(files):
        h.update(rel.encode() + b"\0" + files[rel].encode() + b"\0")
    return h.hexdigest()
