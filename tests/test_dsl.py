import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scdebug.checker import NoRepairWithinBound, check_all, repair
from scdebug.dsl import (
    ParseError,
    _atoms,
    parse_domain_theory,
    parse_sc,
    parse_sd,
    print_domain_theory,
    print_sc,
    print_sd,
)
from scdebug.model import (
    Delete,
    DomainTheory,
    EnumDomain,
    IntRangeDomain,
    Message,
    MessageSpec,
    Node,
    SequenceDiagram,
    Statechart,
    Transition,
    apply_edit,
)
from scdebug.report import export_dot
from scdebug.synthesizer import flatten, synthesize

from conftest import read
from gen import UNSPECIFIED, gen_theory, mergeable_corpus
from oracles import atoms_split

# Transcription of the published coffee-machine theory, quirks and all
# (lower-case context name, uneven spacing, multi-line postcondition).
FIG_CORPUS = """
CoinInMachine, CoinInReturnSlot, CoffeeTypeSelected : Boolean
Coin : 0..1
SelectedCoffeeType : enum {none,Espresso,Cappuchino,Milk}

context insert coin
   pre:  CoinInMachine = F ;
   post: CoinInMachine = T  and Coin = 1 ;

context Enter Selection (CT :enum {none,Espresso,Cappuchino,Milk})
   pre:  CoffeeTypeSelected = F ;
   post: CoffeeTypeSelected = T  and SelectedCoffeeType = CT;

context Take coin
   pre:  CoinInReturnSlot = T ;
   post: CoinInReturnSlot = F  and CoinInMachine = F ;

context Display Ready Light
   pre:  CoinInReturnSlot = F  and CoinInMachine = F ;
   post:

context Request Selection
   pre:  CoffeeTypeSelected = F ;
   post:

context Release coin
   pre:  Coin = 1 ;
   post: CoffeeTypeSelected = F and CoinInReturnSlot = T and
         Coin=0 and CoinInMachine = F and
         SelectedCoffeeType = none ;

context Request take coin
   pre:  CoinInReturnSlot = T ;
   post:

context Acknowledge cancel
   pre:  CoinInMachine = T ;
   post:
"""


class TestDomainTheory:
    def test_corpus_parses(self):
        dt = parse_domain_theory(FIG_CORPUS)
        assert [v.name for v in dt.variables] == [
            "CoinInMachine",
            "CoinInReturnSlot",
            "CoffeeTypeSelected",
            "Coin",
            "SelectedCoffeeType",
        ]
        assert dt.variables[3].domain == IntRangeDomain(0, 1)
        assert dt.variables[4].domain == EnumDomain(("none", "Espresso", "Cappuchino", "Milk"))
        assert len(dt.specs) == 8

    def test_take_coin_spec(self):
        dt = parse_domain_theory(FIG_CORPUS)
        spec = dt.spec_for("Take coin")
        assert len(spec.pre) == 1
        assert len(spec.post) == 2

    def test_empty_post(self):
        dt = parse_domain_theory(FIG_CORPUS)
        assert dt.spec_for("Display Ready Light").post == ()

    def test_parameterized_context(self):
        dt = parse_domain_theory(FIG_CORPUS)
        spec = dt.spec_for("Enter Selection")
        assert spec.params == (("CT", EnumDomain(("none", "Espresso", "Cappuchino", "Milk"))),)
        assert ("SelectedCoffeeType", "CT") in spec.post

    def test_corpus_roundtrip(self):
        dt = parse_domain_theory(FIG_CORPUS)
        assert parse_domain_theory(print_domain_theory(dt)) == dt

    def test_fixture_roundtrip(self):
        dt = parse_domain_theory(read("theory.dt"))
        assert parse_domain_theory(print_domain_theory(dt)) == dt

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("x : Boolean\ncontext a\n pre: y = T ;\n post:", "unknown state variable"),
            ("x : 0..1\ncontext a\n pre: x = 5 ;\n post:", "outside domain"),
            ("x : Boolean\nx : Boolean", "duplicate state variable"),
            ("x : Boolean\ncontext a\n pre:\n post:\ncontext a\n pre:\n post:", "duplicate context"),
            ("x : 2..1", "empty integer range"),
            ("x : Boolean\ncontext a\n pre: x = T and x = F ;\n post:", "repeated"),
            ("x : 0..3\ncontext a\n pre: x = 01 ;\n post:", "literal '01' outside domain"),
            ("x : Boolean\ncontext arm, now\n pre:\n post:", "<dt>:2:1: cannot parse context header"),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(ParseError) as exc:
            parse_domain_theory(text)
        assert fragment in str(exc.value)
        assert exc.value.line >= 1


    @pytest.mark.parametrize(
        "text,line",
        [
            ("x, y : Boolean\ncontext a\n pre: x = T ; post: y = F ;", 3),
            ("x, y : Boolean\ncontext a\n pre: x = T\n  and y = F ; y = T\n post:", 4),
        ],
    )
    def test_text_after_semicolon(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_domain_theory(text, "t.dt")
        assert exc.value.line == line
        assert "unexpected text after ';'" in exc.value.message

    def test_variable_named_like_context(self):
        # ``context`` is a keyword only as a whole word.
        dt = parse_domain_theory("contextReady : Boolean\ncontext a\n pre: contextReady = T ;\n post:")
        assert [v.name for v in dt.variables] == ["contextReady"]
        assert dt.spec_for("a").pre == (("contextReady", "T"),)

    def test_clause_without_semicolon_wraps(self):
        # Without ';' a clause runs over its continuation lines to the next keyword.
        dt = parse_domain_theory("x, y : Boolean\ncontext a\n pre: x = T and\n   y = F\n post: x = F")
        assert dt.spec_for("a").pre == (("x", "T"), ("y", "F"))
        assert dt.spec_for("a").post == (("x", "F"),)

    def test_continuation_line_starting_like_context(self):
        dt = parse_domain_theory(
            "x, contextReady : Boolean\ncontext a\n pre: x = T and\n contextReady = F ;\n post:"
        )
        assert dt.spec_for("a").pre == (("x", "T"), ("contextReady", "F"))


class TestSequenceDiagram:
    def test_message_line(self):
        sd = parse_sd("sd S\nobject User\nobject Coffee-UI\nmsg 1 User -> Coffee-UI : Insert coin")
        m = sd.messages[0]
        assert (m.sender, m.receiver, m.label) == ("User", "Coffee-UI", "Insert coin")

    def test_args(self):
        sd = parse_sd("sd S\nobject A\nobject B\nmsg 1 A -> B : Enter Selection(Espresso)")
        assert sd.messages[0].args == ("Espresso",)

    def test_empty_sd(self):
        sd = parse_sd("sd Empty\nobject A")
        assert sd.messages == ()

    def test_no_loop_directive(self):
        msgs = "".join(f"\nmsg {i} A -> B : x" for i in range(1, 12))
        sd = parse_sd("sd S\nobject A\nobject B\nassume no-loop 1 11" + msgs)
        assert frozenset((1, 11)) in sd.no_loop

    @pytest.mark.parametrize("pair", ["1 11", "7 0", "0 1", "2 2"])
    def test_no_loop_out_of_range(self, pair):
        text = f"sd S\nobject A\nobject B\n\nassume no-loop {pair}\nmsg 1 A -> B : x"
        with pytest.raises(ParseError) as exc:
            parse_sd(text, "s.sd")
        assert exc.value.line == 5
        assert "no-loop message" in str(exc.value)

    def test_fixture_roundtrip(self):
        sd = parse_sd(read("sd1.sd"))
        assert parse_sd(print_sd(sd)) == sd

    def test_no_loop_singleton_roundtrip(self):
        # A pair of one message with itself is stored as {i}, printed as i i.
        sd = parse_sd("sd S\nobject A\nobject B\nassume no-loop 1 1\nmsg 1 A -> B : x")
        assert sd.no_loop == {frozenset({1})}
        assert "\nassume no-loop 1 1\n" in print_sd(sd)
        assert parse_sd(print_sd(sd)) == sd

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("sd S\nobject A\nmsg 1 A -> B : x", "undeclared object"),
            ("sd S\nobject A\nobject B\nmsg 2 A -> B : x", "out of order"),
            ("object A", "missing 'sd"),
            ("sd S\nobject A\nobject A", "duplicate object"),
            ("sd S\nobject A\nobject B\nsd T\nmsg 1 A -> B : x",
             "<sd>:4:1: second 'sd' header (the first is on line 1)"),
            ("# lifelines first\nobject A\nsd S\nobject B", "<sd>:1:1: missing 'sd <name>' header"),
            ("sd S\nobject A\nobject B\nmsg 1 A -> B : Save, close", "<sd>:4:1: cannot parse message line"),
            ("sd S\nobject A\nobject B\nmsg 1 A -> B : ask()", "<sd>:4:1: cannot parse message line"),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(ParseError) as exc:
            parse_sd(text)
        assert fragment in str(exc.value)


class TestStatechart:
    def test_two_step_refinement(self):
        chart = parse_sc(
            "statechart M\ninitial N1\nstate N1\nstate N2\nstate N2x\nstate N3\n"
            "N1 -> N2 : e1\nN2 -> N2x : e2\nN2x -> N3 : e3 / a3"
        )
        t = chart.transitions[-1]
        assert (t.event, t.actions) == ("e3", ("a3",))

    def test_events_and_actions_take_the_message_spelling(self):
        chart = parse_sc("statechart M\ninitial A\nstate A\n"
                         "A -> A : e2( 7 ) / Enter Selection ( x , y ), b\nA -> A : / c(z)")
        assert [(t.event, t.actions) for t in chart.transitions] == [
            ("e2(7)", ("Enter Selection(x,y)", "b")), ("", ("c(z)",))]

    def test_single_state(self):
        chart = parse_sc("statechart M\ninitial Only\nstate Only")
        assert chart.initial == "Only" and chart.transitions == ()

    def test_guard(self):
        chart = parse_sc(
            "statechart M\ninitial A\nstate A\nstate B\nA -> B : go [CoinInMachine = T]"
        )
        assert chart.transitions[0].guard == (("CoinInMachine", "T"),)

    def test_composite(self):
        chart = parse_sc(
            "statechart M\ninitial G\nstate G {\n initial A\n state A\n state B\n A -> B : e\n}\nstate C\nB -> C : out"
        )
        comp = chart.nodes[0]
        assert comp.is_composite and comp.children.initial == "A"

    def test_transition_may_name_a_later_node(self):
        chart = parse_sc("statechart M\ninitial A\nstate A\nA -> B : e\nstate B")
        assert [n.name for n in chart.nodes] == ["A", "B"]
        assert chart.transitions[0].target == "B"

    def test_roundtrip(self):
        text = (
            "statechart M\ninitial G\nstate G {\n initial A\n state A\n state B\n"
            " A -> B : e\n B -> C : leave / a, b\n}\nstate C\nC -> G : back [x = 1]"
        )
        chart = parse_sc(text)
        assert parse_sc(print_sc(chart)) == chart

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("statechart M\nstate A", "missing initial"),
            ("statechart M\ninitial A\nstate A\nA -> B : e", "does not exist"),
            ("statechart M\ninitial G\nstate G {\n initial A\n state A\n A -> Z : e\n}\nZ -> Z : f",
             "<sc>:6:1: transition endpoint 'Z' does not exist"),
            ("statechart M, x\ninitial A\nstate A", "<sc>:1:1: bad chart name 'M, x'"),
            ("statechart M\ninitial A\nstate A\nstate A", "duplicate node"),
            ("statechart M\ninitial X\nstate A", "<sc>:2:1: initial node 'X' not declared"),
            ("statechart M\ninitial A\nstate A\nstate A {\n initial B\n state B\n}",
             "<sc>:4:1: duplicate node name 'A'"),
            ("statechart M\ninitial A\nstate A\nA -> A : e []", "<sc>:4:1: cannot parse guard atom ''"),
            ("statechart M\ninitial A\nstate A\nA -> A : Ask / reply / x", "<sc>:4:1: cannot parse transition"),
            ("statechart M\ninitial A\nstate A\nA -> A : e / a,", "<sc>:4:1: cannot parse transition"),
            ("statechart M\ninitial A\nstate A\nA -> A : e [x = 1 and x = 1]",
             "<sc>:4:1: variable repeated within one condition"),
            ("statechart M\ninitial G\nstate G {\n state A\n}\nstate B",
             "<sc>:5:1: missing initial node in 'G'"),
            ("statechart M\ninitial G\nstate G {\n initial A\n state A\n\n# end",
             "<sc>:5:1: composite 'G' is not closed (expected '}')"),
            ("statechart M\ninitial G\nstate G {\n initial A\n state A\n}\n"
             "state H {\n initial A\n state A\n}",
             "<sc>:9:1: duplicate node name 'A'"),
            ("statechart M\ninitial A\nstate A\nstate B\ninitial B\nA -> B : e",
             "<sc>:5:1: second initial node in 'M' (the first is on line 2)"),
            ("statechart M\ninitial G\nstate G {\n initial A\n state A\n state B\n initial A\n}",
             "<sc>:7:1: second initial node in 'G' (the first is on line 4)"),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(ParseError) as exc:
            parse_sc(text)
        assert fragment in str(exc.value)

    @pytest.mark.parametrize("guard, error", [
        ("Stpe = 0", "unknown state variable 'Stpe'"),
        ("Step = 9", "literal '9' outside domain of Step (0..4)"),
    ])
    def test_guard_atom_checked_against_the_theory(self, guard, error):
        # Given the theory, a guard atom is checked as a .dt clause atom is,
        # at its transition's line; without it, the guard is only parsed.
        text = f"statechart M\ninitial A\nstate A\n\nA -> A : e1 [{guard}]\n"
        with pytest.raises(ParseError, match=f"^{re.escape('<sc>:5:1: ' + error)}$"):
            parse_sc(text, dt=parse_domain_theory(read("stepper.dt")))
        var, value = guard.split(" = ")
        assert parse_sc(text).transitions[0].guard == ((var, value),)

    def test_fixture_charts_read_the_same_with_the_theory(self):
        # The refined stepper chart, a guarded copy of it, and the charts
        # synthesized from the coffee fixtures, each against its theory.
        stepper = read("stepper_refined/M.sc")
        guarded = stepper.replace("N1 -> N2 : e1\n", "N1 -> N2 : e1 [Step = 0]\n")
        golden = sorted((Path(__file__).parent / "golden" / "files" / "charts").glob("*.sc"))
        charts = [("stepper.dt", stepper), ("stepper.dt", guarded)]
        charts += [("theory.dt", path.read_text(encoding="utf-8")) for path in golden]
        assert guarded != stepper and len(golden) == 3
        for theory, text in charts:
            dt = parse_domain_theory(read(theory))
            chart = parse_sc(text, dt=dt)
            assert chart == parse_sc(text)
            assert parse_sc(print_sc(chart), dt=dt) == chart


@pytest.mark.parametrize(
    "parse,text,error",
    [
        # .dt: domains
        (parse_domain_theory, "x : enum {}", "<dt>:1:1: enumeration with no labels"),
        (parse_domain_theory, "x : enum {a, b, a}",
         "<dt>:1:1: duplicate enumeration label in ('a', 'b', 'a')"),
        (parse_domain_theory, "x : enum {a, b c}", "<dt>:1:1: bad enumeration label 'b c'"),
        (parse_domain_theory, "x : Integer",
         "<dt>:1:1: cannot parse domain 'Integer' (expected Boolean, lo..hi or enum {...})"),
        # .dt: conditions, declarations and layout
        (parse_domain_theory, "x : Boolean\ncontext a (P : 0..1)\n pre: x = P ;\n post:",
         "<dt>:3:1: parameter 'P' has domain 0..1, variable x expects Boolean"),
        (parse_domain_theory, "x : Boolean\ncontext a\n pre: ;\n post: ;\ny : Boolean",
         "<dt>:5:1: unexpected line after contexts: 'y : Boolean'"),
        # a clause without ';' ends before a line holding ':', which no atom holds
        (parse_domain_theory, "x : Boolean\ncontext a\n pre:\n post:\ny : Boolean",
         "<dt>:5:1: unexpected line after contexts: 'y : Boolean'"),
        (parse_domain_theory, "x : Boolean\ncontext a\n pre: x = T\n post:\ny : Boolean",
         "<dt>:5:1: unexpected line after contexts: 'y : Boolean'"),
        (parse_domain_theory, "x Boolean",
         "<dt>:1:1: cannot parse declaration 'x Boolean' (expected name[, name...] : domain)"),
        (parse_domain_theory, "x, 1y : Boolean", "<dt>:1:1: bad variable name '1y'"),
        # .dt: rules that only the parser checks
        (parse_domain_theory, "x : 2..1", "<dt>:1:1: empty integer range 2..1"),
        (parse_domain_theory, "x : Boolean\nx : Boolean", "<dt>:2:1: duplicate state variable declaration 'x'"),
        (parse_domain_theory, "x : Boolean\ncontext a\n pre:\n post:\ncontext a\n pre:\n post:",
         "<dt>:5:1: duplicate context name 'a'"),
        (parse_domain_theory, "x : Boolean\ncontext a\n pre:\n post: x = T and\n x = F ;",
         "<dt>:4:1: variable repeated within one condition"),
        # .sd
        (parse_sd, "sd S\nobject A B", "<sd>:2:1: bad object name 'A B'"),
        (parse_sd, "sd S\nobject A\nassume no-loop 1",
         "<sd>:3:1: cannot parse directive (expected assume no-loop i j)"),
        (parse_sd, "sd S\nobject A\nlifeline B", "<sd>:3:1: cannot parse line 'lifeline B'"),
        (parse_sd, "sd S\nobject A\nobject A", "<sd>:3:1: duplicate object 'A'"),
        (parse_sd, "sd S\nobject A\nmsg 1 A -> B : x", "<sd>:3:1: undeclared object 'B' in message 1"),
        (parse_sd, "sd S\nobject A\nobject B\nmsg 1 A -> B : x\nmsg 03 B -> A : y",
         "<sd>:5:1: message id 3 out of order, expected 2"),
        # .sc
        (parse_sc, "# no header\ninitial A\nstate A", "<sc>:1:1: missing 'statechart <name>' header"),
        (parse_sc, "statechart M\ninitial A\nstate A\n}", "<sc>:4:1: unmatched '}'"),
        (parse_sc, "statechart M\ninitial A\nstate A B", "<sc>:3:1: bad state name 'A B'"),
        (parse_sc, "statechart M\ninitial A\nstate A\nstatechart N", "<sc>:4:1: nested 'statechart' header"),
        (parse_sc, "statechart M\ninitial A\nstate A\nenter A", "<sc>:4:1: cannot parse line 'enter A'"),
        (parse_sc, "statechart M\ninitial A\nstate A\nstate A", "<sc>:4:1: duplicate node name 'A'"),
        (parse_sc, "statechart M\ninitial G\nstate G {\n initial B\n state A\n}",
         "<sc>:4:1: initial node 'B' not declared at this level"),
    ],
)
def test_error_messages(parse, text, error):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == error


# Characters at which str.splitlines() also ends a line; here they end none.
NOT_NEWLINES = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.mark.parametrize("sep", NOT_NEWLINES, ids=lambda sep: f"U+{ord(sep):04X}")
@pytest.mark.parametrize(
    "parse,text,error",
    [
        (parse_domain_theory, "x : Boolean   # note|more\ncontext a\n pre: x = T ;\n post: x = F ;\n\nbad",
         "<dt>:6:1: unexpected line after contexts: 'bad'"),
        (parse_sd, "sd A\nobject X\nobject Y # note|more\nmsg 1 X -> Y : a\nbad",
         "<sd>:5:1: cannot parse line 'bad'"),
        (parse_sc, "statechart M\ninitial A\nstate A   # note|more\nA -> A : e\nbad",
         "<sc>:5:1: cannot parse line 'bad'"),
    ],
    ids=["dt", "sd", "sc"],
)
def test_comment_runs_to_the_newline(parse, text, error, sep):
    # A comment ends only at \n, \r\n or \r, so its text after one of these
    # characters is no line of its own and later line numbers stay right.
    text = text.replace("|", sep)
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == error
    good = text.rpartition("\n")[0]
    assert parse(good) == parse(good.replace(f"note{sep}more", ""))


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_lines_end_at_cr_and_crlf(newline):
    text = "sd A\nobject X\nobject Y\n\nmsg 1 X -> Y : a\nbad".replace("\n", newline)
    with pytest.raises(ParseError, match="^<sd>:6:1: cannot parse line 'bad'$"):
        parse_sd(text)
    assert parse_sd(text.rpartition(newline)[0]) == parse_sd("sd A\nobject X\nobject Y\nmsg 1 X -> Y : a")


# ---------------------------------------------------------------------------
# Generated round-trips

idents = st.from_regex(r"[A-Za-z][A-Za-z0-9_-]{0,8}", fullmatch=True)
labels = st.from_regex(r"[A-Za-z][A-Za-z0-9 ]{0,12}[A-Za-z0-9]", fullmatch=True)


@st.composite
def diagrams(draw):
    objects = draw(st.lists(idents, min_size=1, max_size=3, unique=True))
    n = draw(st.integers(0, 6))
    msgs = []
    for i in range(1, n + 1):
        sender = draw(st.sampled_from(objects))
        receiver = draw(st.sampled_from(objects))
        label = draw(labels)
        args = tuple(draw(st.lists(idents, max_size=2)))
        msgs.append(Message(i, label, args, sender, receiver))
    no_loop = frozenset()
    if n:  # pairs of two messages, and of one message with itself
        pair = st.tuples(st.integers(1, n), st.integers(1, n)).map(frozenset)
        no_loop = frozenset(draw(st.lists(pair, max_size=3)))
    return SequenceDiagram(draw(idents), tuple(objects), tuple(msgs), no_loop)


@settings(max_examples=60, deadline=None)
@given(diagrams())
def test_sd_roundtrip_generated(sd):
    assert parse_sd(print_sd(sd)) == sd


@st.composite
def charts(draw):
    names = draw(st.lists(idents, min_size=1, max_size=5, unique=True))
    nodes = tuple(Node(n) for n in names)
    transitions = []
    for _ in range(draw(st.integers(0, 5))):
        transitions.append(
            Transition(
                draw(st.sampled_from(names)),
                draw(st.sampled_from(names)),
                draw(labels),
                (),
                tuple(draw(st.lists(labels, max_size=2))),
            )
        )
    return Statechart(draw(idents), nodes, names[0], tuple(transitions))


@settings(max_examples=60, deadline=None)
@given(charts())
def test_sc_roundtrip_generated(chart):
    assert parse_sc(print_sc(chart)) == chart


# ---------------------------------------------------------------------------
# Conjunctions, against the reader that cuts them part by part

CONJUNCTION_THEORY = parse_domain_theory("x, y, and : Boolean\na-b, Step : 0..2\n")
CONJUNCTION_PARAMS = {"P": CONJUNCTION_THEORY.variables[0].domain, "Q": CONJUNCTION_THEORY.variables[3].domain}


def _read_atoms(read, text):
    """What ``read`` makes of ``text`` as a guard and as a clause of the
    conjunction theory: atoms, or a ParseError's text and line."""
    variables = {v.name: v for v in CONJUNCTION_THEORY.variables}
    outcomes = []
    for checked in ((), (variables, CONJUNCTION_PARAMS)):
        try:
            outcomes.append(read(text, ("c.dt", 7), "atom", *checked))
        except ParseError as exc:
            outcomes.append((str(exc), exc.line))
    return outcomes


@st.composite
def conjunctions(draw):
    """Atoms joined by ``and``: names and values that are and are not words
    (``and`` itself, hyphens, a leading digit or '-', nothing), blanks
    doubled, missing or other than spaces, and a trailing ``and``."""
    name = st.sampled_from(["x", "y", "and", "a-b", "Step", "x1", "_z", "-x", "1x", "\u00e9", ""])
    eq = st.sampled_from([" = ", "=", "  =  ", " =", "\t=\t", " == ", " "])
    value = st.sampled_from(["T", "F", "0", "2", "-1", "and", "a-b", "", "P", "Q", "\u00e9", "T F"])
    sep = st.sampled_from([" and ", "  and  ", " and", "and ", "\tand\n", " AND ", " ", " and and ", "and"])
    parts = draw(st.lists(st.tuples(name, eq, value).map("".join), min_size=1, max_size=4))
    text = draw(st.sampled_from(["", " ", "  "])) + parts[0]
    for part in parts[1:]:
        text += draw(sep) + part
    return text + draw(st.sampled_from(["", " ", " and", "  and ", " and x"]))


@settings(max_examples=600, deadline=None)
@given(conjunctions())
def test_atoms_read_as_cut_part_by_part(text):
    assert _read_atoms(_atoms, text) == _read_atoms(atoms_split, text)


@pytest.mark.parametrize("text", [
    "and = T", "x = T and and = F", "and = T and x = F", "x = and", "x = T and y = and",
    "x = and and y = T", "x =and and y = T", "x = band and y = T", "a-b = 1 and  Step  =  2",
    "x = T  and  y = F", "x = T and", "x = and y = T", "x =", "x = T and y =", "x = 2 and y =",
    "x = T and x = F", "a-b = P", "a-b = Q and y = P", "x = T and\ty = F", " x = T ",
])
def test_atoms_on_edge_cases(text):
    assert _read_atoms(_atoms, text) == _read_atoms(atoms_split, text)


def test_parse_determinism():
    text = read("theory.dt")
    assert parse_domain_theory(text) == parse_domain_theory(text)


def _with_params(rng: random.Random, dt: DomainTheory) -> DomainTheory:
    """``dt`` with some contexts given a parameter ``P`` over a variable's
    domain, which that variable takes in the context's post."""
    specs = []
    for spec in dt.specs:
        if rng.random() < 0.4:
            var = rng.choice(dt.variables)
            post = tuple(a for a in spec.post if a[0] != var.name) + ((var.name, "P"),)
            spec = MessageSpec(spec.name, (("P", var.domain),), spec.pre, post)
        specs.append(spec)
    return DomainTheory(dt.variables, tuple(specs))


def test_dt_roundtrip_generated():
    rng = random.Random(15)
    params = wraps = 0
    for _ in range(600):
        dt = _with_params(rng, gen_theory(rng))
        text = print_domain_theory(dt)
        assert parse_domain_theory(text) == dt
        # Re-wrap clauses across lines at some of their ``and``s.
        first, *rest = text.split(" and ")
        joins = [rng.choice((" and ", "\n      and ", " and\n      ")) for _ in rest]
        wrapped = first + "".join(j + part for j, part in zip(joins, rest))
        assert parse_domain_theory(wrapped) == dt
        assert parse_domain_theory(wrapped.replace(" ;", "")) == dt  # clauses end at keywords
        params += sum(1 for spec in dt.specs if spec.params)
        wraps += sum(1 for j in joins if "\n" in j)
    assert params > 300 and wraps > 300


# Words, blanks, argument lists and the punctuation the label grammar leaves out.
LABEL_PIECES = (",", "/", "[", "]", "\\", '"', "(", ")", " ", "x", " y-7", "(a)", "( b , c )")


def test_synthesized_charts_check_whatever_the_labels():
    # A diagram either does not parse, or the charts synth writes for it
    # read back unchanged, accept it in check and export to well-formed DOT.
    rejected = accepted = with_args = 0
    for seed in range(1000):
        rng = random.Random(seed)
        dt, sds = mergeable_corpus(rng, count=2, max_msgs=6)
        dt = parse_domain_theory(print_domain_theory(dt))
        labels = {u: u + "".join(rng.choices(LABEL_PIECES, k=rng.randint(0, 2))) for u in UNSPECIFIED}
        texts = [print_sd(sd._replace(messages=tuple(m._replace(label=labels.get(m.label, m.label))
                                                     for m in sd.messages))) for sd in sds]
        try:
            sds = [parse_sd(text) for text in texts]
        except ParseError:
            rejected += 1
            continue
        accepted += 1
        with_args += any(m.args for sd in sds for m in sd.messages)
        charts, _ = synthesize(dt, sds)
        written = {obj: parse_sc(print_sc(chart)) for obj, chart in charts.items()}
        assert written == charts
        records = check_all(dt, written, sds)
        assert records and all(r.trace.accepted for r in records), seed
        for chart in written.values():
            for line in export_dot(chart).splitlines():
                assert len(re.findall(r'(?<!\\)(?:\\\\)*"', line)) % 2 == 0, line
    assert rejected > 300 and accepted > 300 and with_args > 30


def test_records_built_in_code_read_back():
    # No record checks its fields, so synthesis and repair must build only
    # what the parsers accept: every chart synthesize returns and every
    # repaired diagram prints to text that parses back to it.  (Nested
    # composites read back in TestHierarchy.test_variable_split_on_random_charts.)
    rng = random.Random(26)
    charts = repairs = edited = 0
    while repairs < 150:
        dt, sds = mergeable_corpus(rng, count=rng.randint(1, 3), max_msgs=8)
        built, _ = synthesize(dt, sds)
        for chart in built.values():
            assert parse_sc(print_sc(chart)) == chart
        charts += len(built)
        sd = rng.choice(sds)
        if len(sd.messages) < 2:
            continue
        obj = max(sd.objects, key=lambda o: sum(m.receiver == o for m in sd.messages))
        cut = rng.choice([m.id for m in sd.messages if m.receiver == obj])
        pair = frozenset(rng.sample(range(1, len(sd.messages) + 1), 2))
        sd = apply_edit(sd._replace(no_loop=frozenset({pair})), Delete(cut))
        try:
            result = repair(sd, obj, flatten(built[obj]), dt, max_edits=2)
        except NoRepairWithinBound:
            continue
        assert parse_sd(print_sd(result.repaired)) == result.repaired
        repairs += 1
        edited += bool(result.edits)
    assert charts > 400 and edited > 30


def test_docs_examples_parse():
    readers = {"sd": parse_sd, "statechart": parse_sc}
    text = (Path(__file__).parents[1] / "docs" / "formats.md").read_text(encoding="utf-8")
    examples = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.S | re.M)
    assert len(examples) == 3
    for example in examples:
        readers.get(example.split(None, 1)[0], parse_domain_theory)(example)
