import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scdebug.dsl import (
    ParseError,
    parse_domain_theory,
    parse_sc,
    parse_sd,
    print_domain_theory,
    print_sc,
    print_sd,
)
from scdebug.model import (
    Condition,
    EnumDomain,
    IntRangeDomain,
    Message,
    Node,
    SequenceDiagram,
    Statechart,
    Transition,
)

from conftest import read

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
        assert len(spec.pre.atoms) == 1
        assert len(spec.post.atoms) == 2

    def test_empty_post(self):
        dt = parse_domain_theory(FIG_CORPUS)
        assert dt.spec_for("Display Ready Light").post.is_empty()

    def test_parameterized_context(self):
        dt = parse_domain_theory(FIG_CORPUS)
        spec = dt.spec_for("Enter Selection")
        assert spec.params == (("CT", EnumDomain(("none", "Espresso", "Cappuchino", "Milk"))),)
        assert ("SelectedCoffeeType", "CT") in spec.post.atoms

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
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(ParseError) as exc:
            parse_domain_theory(text)
        assert fragment in str(exc.value)
        assert exc.value.span.line >= 1


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
        assert exc.value.span.line == line
        assert "unexpected text after ';'" in exc.value.message


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
        assert exc.value.span.line == 5
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

    def test_single_state(self):
        chart = parse_sc("statechart M\ninitial Only\nstate Only")
        assert chart.initial == "Only" and chart.transitions == ()

    def test_guard(self):
        chart = parse_sc(
            "statechart M\ninitial A\nstate A\nstate B\nA -> B : go [CoinInMachine = T]"
        )
        assert chart.transitions[0].guard == Condition((("CoinInMachine", "T"),))

    def test_composite(self):
        chart = parse_sc(
            "statechart M\ninitial G\nstate G {\n initial A\n state A\n state B\n A -> B : e\n}\nstate C\nB -> C : out"
        )
        comp = chart.nodes[0]
        assert comp.is_composite and comp.children.initial == "A"

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
            ("statechart M\ninitial A\nstate A\nstate A", "duplicate node"),
            ("statechart M\ninitial X\nstate A", "<sc>:2:1: initial node 'X' not declared"),
            ("statechart M\ninitial A\nstate A\nstate A {\n initial B\n state B\n}",
             "<sc>:4:1: duplicate node name 'A'"),
            ("statechart M\ninitial A\nstate A\nA -> A : e []", "<sc>:4:1: cannot parse guard atom ''"),
            ("statechart M\ninitial A\nstate A\nA -> A : e [x = 1 and x = 1]",
             "<sc>:4:1: variable repeated within one condition"),
            ("statechart M\ninitial G\nstate G {\n state A\n}\nstate B",
             "<sc>:5:1: missing initial node in 'G'"),
            ("statechart M\ninitial G\nstate G {\n initial A\n state A\n\n# end",
             "<sc>:5:1: composite 'G' is not closed (expected '}')"),
            ("statechart M\ninitial G\nstate G {\n initial A\n state A\n}\n"
             "state H {\n initial A\n state A\n}",
             "<sc>:1:1: node name used twice in chart M: ['A']"),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(ParseError) as exc:
            parse_sc(text)
        assert fragment in str(exc.value)


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
                None,
                tuple(draw(st.lists(labels, max_size=2))),
            )
        )
    return Statechart(draw(idents), nodes, names[0], tuple(transitions))


@settings(max_examples=60, deadline=None)
@given(charts())
def test_sc_roundtrip_generated(chart):
    assert parse_sc(print_sc(chart)) == chart


def test_parse_determinism():
    text = read("theory.dt")
    assert parse_domain_theory(text) == parse_domain_theory(text)
