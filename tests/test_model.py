import pytest
from hypothesis import given
from hypothesis import strategies as st

from scdebug.annotator import FRAME, FROM_SPEC, annotate, conflict_view, derivation
from scdebug.checker import CheckRecord, RepairResult, ReplayStep, ReplayTrace
from scdebug.dsl import ParseError, parse_domain_theory, parse_sc, parse_sd, print_sd
from scdebug.model import (
    AnnotatedSD,
    BoolDomain,
    Condition,
    Conflict,
    Delete,
    DomainTheory,
    EnumDomain,
    Insert,
    IntRangeDomain,
    Message,
    MessageSpec,
    Node,
    SequenceDiagram,
    Statechart,
    StateVariable,
    Transition,
    Unified,
    apply_edit,
    compatible,
    format_vector,
    unify,
)
from scdebug.report import ReportBundle
from scdebug.synthesizer import FlatChart

from oracles import lifeline, lifeline_layout, provenance_of

cells = st.one_of(st.none(), st.sampled_from(["T", "F", "0", "1", "none", "Espresso"]))
vectors = st.lists(cells, min_size=1, max_size=6).map(tuple)


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ("T", "T", True),
        (None, "F", True),
        ("T", "F", False),
        ("F", None, True),
        (None, None, True),
    ],
)
def test_compatible(a, b, expected):
    assert compatible(a, b) is expected


def test_unify_paper_example():
    assert unify((None,) * 5, ("F", None, None, None, None)) == ("F", None, None, None, None)


def test_unify_equal_vectors_is_identity():
    v = ("F", "F", None, None, None)
    assert unify(v, v) == v


def test_unify_clash_is_none():
    assert unify(("T", None), ("F", None)) is None


def test_unify_length_mismatch():
    with pytest.raises(ValueError):
        unify(("T",), ("T", "F"))


@given(vectors, vectors)
def test_unify_commutative(a, b):
    if len(a) != len(b):
        return
    assert unify(a, b) == unify(b, a)


@given(vectors)
def test_unify_idempotent(v):
    assert unify(v, v) == v


@given(vectors, vectors)
def test_unify_is_least_upper_bound(a, b):
    if len(a) != len(b):
        return
    u = unify(a, b)
    if u is None:
        assert any(
            x is not None and y is not None and x != y for x, y in zip(a, b)
        )
    else:
        for x, y, z in zip(a, b, u):
            assert z == (x if x is not None else y)
            if x is not None:
                assert z == x


@given(cells)
def test_unknown_absorbs_everything(c):
    assert compatible(c, None)
    assert compatible(None, c)


def test_format_vector():
    assert format_vector(("T", "F", None, "1", "none")) == "<T,F,?,1,none>"
    assert format_vector(("T", None)) == "<T,?>"


def test_domains():
    assert BoolDomain().contains("T") and not BoolDomain().contains("yes")
    r = IntRangeDomain(0, 1)
    assert r.contains("0") and r.contains("1") and not r.contains("2")
    assert not any(IntRangeDomain(0, 3).contains(t) for t in ("x", "1.0", ""))
    assert r.values() == ("0", "1")
    e = EnumDomain(("none", "Espresso"))
    assert e.contains("Espresso") and not e.contains("espresso")  # case matters
    # The canonical spelling rule stays with the domain: a cell holding 01
    # would never equal one holding 1.
    assert not any(IntRangeDomain(-3, 10).contains(t) for t in ("01", "-0", "1_0", "+1", " 1"))


def test_condition_rejects_repeated_variable():
    # The parsers are the one validator: a condition naming a variable
    # twice is a parse error at its line, in a .dt clause and a .sc guard.
    with pytest.raises(ParseError, match="^<dt>:3:1: variable repeated within one condition$"):
        parse_domain_theory("x : Boolean\ncontext a\n pre: x = T and x = F ;\n post:")
    with pytest.raises(ParseError, match="^<sc>:4:1: variable repeated within one condition$"):
        parse_sc("statechart M\ninitial A\nstate A\nA -> A : e [x = T and x = T]")


def test_theory_invariants():
    # A parsed theory's variables carry their positions as indices, and
    # names of variables and of contexts are unique; the parser rejects a
    # name declared twice at the line of its second declaration.
    dt = parse_domain_theory("x, y : Boolean\nz : 0..2\ncontext a\n pre:\n post:\ncontext b\n pre:\n post:")
    assert [(v.name, v.index) for v in dt.variables] == [("x", 0), ("y", 1), ("z", 2)]
    assert [dt.variable(v.name) for v in dt.variables] == list(dt.variables)
    assert [s.name for s in dt.specs] == ["a", "b"] and dt.width == 3
    with pytest.raises(ParseError, match="^<dt>:2:1: duplicate state variable declaration 'x'$"):
        parse_domain_theory("x : Boolean\ny, x : 0..1")
    with pytest.raises(ParseError, match="^<dt>:4:1: duplicate context name 'a'$"):
        parse_domain_theory("x : Boolean\ncontext a\n pre:\ncontext a\n pre:")


def test_sequence_diagram_invariants():
    m = Message(1, "hello", (), "A", "B")
    sd = SequenceDiagram("S", ("A", "B"), (m,))
    assert lifeline(sd, "A") == (m,)


def test_apply_edit_renumbers():
    msgs = tuple(Message(i, f"m{i}", (), "A", "B") for i in (1, 2, 3))
    sd = SequenceDiagram("S", ("A", "B"), msgs)
    shorter = apply_edit(sd, Delete(2))
    assert [m.label for m in shorter.messages] == ["m1", "m3"]
    assert [m.id for m in shorter.messages] == [1, 2]
    longer = apply_edit(sd, Insert(Message(2, "new", (), "B", "A")))
    assert [m.label for m in longer.messages] == ["m1", "new", "m2", "m3"]
    assert [m.id for m in longer.messages] == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        apply_edit(sd, Delete(4))
    for pos in (0, 5):
        with pytest.raises(ValueError, match=f"^insert position {pos} out of range$"):
            apply_edit(sd, Insert(Message(pos, "new", (), "B", "A")))


def test_apply_edit_renumbers_no_loop():
    msgs = tuple(Message(i, f"m{i}", (), "A", "B") for i in range(1, 6))
    pairs = frozenset({frozenset((1, 4)), frozenset((2, 5)), frozenset((3,))})
    sd = SequenceDiagram("S", ("A", "B"), msgs, pairs)
    assert apply_edit(sd, Delete(2)).no_loop == {frozenset((1, 3)), frozenset((2,))}
    assert apply_edit(sd, Delete(5)).no_loop == {frozenset((1, 4)), frozenset((3,))}
    inserted = apply_edit(sd, Insert(Message(3, "new", (), "B", "A")))
    assert inserted.no_loop == {frozenset((1, 5)), frozenset((2, 6)), frozenset((4,))}
    appended = apply_edit(sd, Insert(Message(6, "new", (), "B", "A")))
    assert appended.no_loop == pairs


def test_deleted_message_keeps_discard_on_sd1(sd1, coffee_dt_unfixed):
    discarded = parse_sd(print_sd(sd1) + "assume no-loop 1 11\n")
    edited = apply_edit(discarded, Delete(3))
    assert edited.no_loop == {frozenset((1, 10))}
    _, conflicts = annotate(edited, coffee_dt_unfixed)
    assert conflicts == []


def test_message_event_string():
    assert Message(1, "Enter Selection", ("Espresso",), "A", "B").event() == "Enter Selection(Espresso)"
    assert Message(1, "Take coin", (), "A", "B").event() == "Take coin"


# ---------------------------------------------------------------------------
# Record types


def _conflict():
    m = Message(1, "a", (), "A", "B")
    return Conflict("S", "A", m, m, StateVariable("x", BoolDomain(), 0))


def _chart(**changes):
    fields = dict(name="M", nodes=(Node("A"), Node("B")), initial="A",
                  transitions=(Transition("A", "B", "e"),))
    return Statechart(**{**fields, **changes})


def _flat():
    a, b = ("T",), ("F",)
    return FlatChart("O", a, ((a, b, "e", ()),))


def _rejected():
    """A trace whose only step no transition takes."""
    return ReplayTrace((ReplayStep(None, "A", None, "no transition on event 'e'"),))


def test_valid_records_build():
    assert _conflict().variable.index == 0 and _chart().initial == "A" and _flat().object == "O"
    assert Condition() == Condition(()) and Condition().is_empty()
    sd = SequenceDiagram("S", ("A", "B"), ())
    assert sd.no_loop == frozenset() and sd._replace(name="T").name == "T"
    assert type(sd._replace(name="T")) is SequenceDiagram
    assert type(IntRangeDomain(0, 1)._replace(hi=2)) is IntRangeDomain


def test_records_check_nothing():
    # Validation happens once, when the text is parsed (tests/test_dsl.py
    # pins each rule's error); a record subclassing a namedtuple adds no
    # constructor of its own, and builds whatever its fields hold.
    records = (BoolDomain, IntRangeDomain, EnumDomain, Condition, DomainTheory, SequenceDiagram,
               AnnotatedSD, Statechart)
    assert not [cls.__name__ for cls in records if "__new__" in vars(cls)]
    assert SequenceDiagram("S", ("A", "A"), ()).objects == ("A", "A")


def test_records_derive_what_their_fields_fix():
    # A flat chart's states, a trace's verdict and an insert's position are
    # read off the fields, not stored beside them.
    assert FlatChart._fields == ("object", "initial", "transitions") and "__new__" not in vars(FlatChart)
    assert ReplayTrace._fields == ("steps",)
    assert ReplayStep._fields == ("message", "from_state", "transition", "mismatch")
    assert Insert._fields == ("message",)
    a, b, c = ("T",), ("F",), (None,)
    assert FlatChart("O", c, ((a, b, "e", ()), (b, c, "f", ()))).states == (c, a, b)
    assert FlatChart("O", a, ()).states == (a,)
    assert ReplayTrace(()).accepted and ReplayTrace(()).rejected_at is None
    assert not _rejected().accepted and _rejected().rejected_at == 0


@pytest.mark.parametrize(
    "record, field",
    [
        (BoolDomain(), "kind"),
        (IntRangeDomain(0, 1), "lo"),
        (IntRangeDomain(0, 1), "other"),
        (EnumDomain(("a",)), "labels"),
        (StateVariable("x", BoolDomain(), 0), "index"),
        (Condition(), "atoms"),
        (Condition(), "other"),
        (MessageSpec("a", (), Condition(), Condition()), "pre"),
        (DomainTheory((), ()), "specs"),
        (Message(1, "a", (), "A", "B"), "label"),
        (SequenceDiagram("S", (), ()), "no_loop"),
        (SequenceDiagram("S", (), ()), "other"),
        (_rejected(), "rejected_at"),  # derived from the steps
        (Unified(0, 1), "event"),
        (_conflict(), "variable"),
        (Transition("A", "B", "e"), "event"),
        (Node("A"), "comment"),
        (_chart(), "initial"),
        (Insert(Message(1, "a", (), "A", "B")), "message"),
        (Delete(1), "at"),
        (_flat(), "states"),
        (ReplayStep(None, "A", None), "transition"),
        (_rejected(), "accepted"),
        (RepairResult((), SequenceDiagram("S", (), ())), "edits"),
        (CheckRecord(SequenceDiagram("S", (), ()), "A", ReplayTrace(())), "repair"),
        (ReportBundle(), "sds"),
    ],
)
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_domains_compare_by_value():
    assert BoolDomain() == BoolDomain() and hash(BoolDomain()) == hash(BoolDomain())
    assert BoolDomain() != IntRangeDomain(0, 1) and IntRangeDomain(0, 1) != BoolDomain()
    assert IntRangeDomain(0, 1) == IntRangeDomain(0, 1) != EnumDomain(("0", "1"))
    assert len({BoolDomain(), BoolDomain(), IntRangeDomain(0, 1), IntRangeDomain(0, 1)}) == 2


def test_node_equality_and_hash_ignore_comment():
    a, b = Node("N1", comment="<T>"), Node("N1", comment="<F>")
    assert a == b and not a != b and hash(a) == hash(b)
    assert a == Node("N1") and len({a, b, Node("N1")}) == 1
    assert a != Node("N2", comment="<T>")
    inner = Statechart("G", (Node("X"),), "X", ())
    assert Node("G", inner, "<T>") == Node("G", inner) != Node("G")
    assert _chart(nodes=(Node("A", comment="x"), Node("B"))) == _chart()


def test_annotated_sd_compares_by_fields(sd1, coffee_dt_unfixed):
    a1, _ = annotate(sd1, coffee_dt_unfixed)
    a2, _ = annotate(sd1, coffee_dt_unfixed)
    assert AnnotatedSD._fields == ("sd", "theory", "lines")
    assert a1 == a2
    faces = a2.lines["Control"].faces
    faces[0] = ("T", *faces[0][1:])
    assert a1 != a2
    with pytest.raises(TypeError):
        hash(a1)
    copy = AnnotatedSD(a1.sd, a1.theory, a1.lines)
    assert copy == a1
    for obj, line in copy.lines.items():
        assert (line.messages, line.starts) == lifeline_layout(sd1, coffee_dt_unfixed, obj)


def test_apply_edit_dispatches_on_edit_type():
    # Delete(1) and a one-field tuple are equal, but only the record deletes.
    msgs = tuple(Message(i, f"m{i}", (), "A", "B") for i in (1, 2))
    sd = SequenceDiagram("S", ("A", "B"), msgs)
    assert Delete(1) == (1,)
    assert [m.label for m in apply_edit(sd, Delete(1)).messages] == ["m2"]
    inserted = apply_edit(sd, Insert(Message(1, "new", (), "B", "A")))
    assert [m.label for m in inserted.messages] == ["new", "m1", "m2"]
    with pytest.raises(AttributeError):
        apply_edit(sd, (1,))


def test_provenance_rules_are_told_apart(sd1, coffee_dt_unfixed):
    # Only Unified records name unification events: the rule strings are
    # never taken for one, so the conflict's unification faces come only
    # from Unified steps of its derivation.
    asd, [c] = annotate(sd1, coffee_dt_unfixed)
    rules = [rule for _, _, rule in derivation(asd, c)]
    unified = [rule for rule in rules if isinstance(rule, Unified)]
    assert {rule for rule in rules if not isinstance(rule, Unified)} == {FROM_SPEC, FRAME}
    assert [rule.event for rule in unified] == [0, 0]
    line = asd.lines["Coffee-UI"]
    assert isinstance(provenance_of(line, 0, 2), Unified)  # the pre face of message 1
    assert [(m.id, which) for m, which, _ in conflict_view(asd, c)[2]] == [
        (line.messages[i // 2].id, "post") for i in line.events[0]]
