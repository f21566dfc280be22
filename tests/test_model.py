import pytest
from hypothesis import given
from hypothesis import strategies as st

from scdebug.annotator import annotate
from scdebug.dsl import parse_sd, print_sd
from scdebug.model import (
    BoolDomain,
    Condition,
    Delete,
    DomainTheory,
    EnumDomain,
    Insert,
    IntRangeDomain,
    Message,
    MessageSpec,
    SequenceDiagram,
    StateVariable,
    apply_edit,
    compatible,
    format_vector,
    unify,
)

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


def test_domains():
    assert BoolDomain().contains("T") and not BoolDomain().contains("yes")
    r = IntRangeDomain(0, 1)
    assert r.contains("0") and r.contains("1") and not r.contains("2")
    assert r.values() == ("0", "1")
    e = EnumDomain(("none", "Espresso"))
    assert e.contains("Espresso") and not e.contains("espresso")  # case matters
    with pytest.raises(ValueError):
        IntRangeDomain(2, 1)
    with pytest.raises(ValueError):
        EnumDomain(())
    with pytest.raises(ValueError):
        EnumDomain(("a", "a"))


def test_condition_rejects_repeated_variable():
    with pytest.raises(ValueError):
        Condition((("x", "T"), ("x", "F")))


def test_theory_invariants():
    v = StateVariable("x", BoolDomain(), 0)
    with pytest.raises(ValueError):
        DomainTheory((v, StateVariable("x", BoolDomain(), 1)), ())
    with pytest.raises(ValueError):
        DomainTheory((v,), (MessageSpec("a", (), Condition(), Condition()),) * 2)


def test_sequence_diagram_invariants():
    m = Message(1, "hello", (), "A", "B")
    sd = SequenceDiagram("S", ("A", "B"), (m,))
    assert sd.lifeline("A") == (m,)
    with pytest.raises(ValueError):
        SequenceDiagram("S", ("A", "A"), ())
    with pytest.raises(ValueError):
        SequenceDiagram("S", ("A", "B"), (Message(2, "x", (), "A", "B"),))
    with pytest.raises(ValueError):
        SequenceDiagram("S", ("A",), (Message(1, "x", (), "A", "B"),))


def test_apply_edit_renumbers():
    msgs = tuple(Message(i, f"m{i}", (), "A", "B") for i in (1, 2, 3))
    sd = SequenceDiagram("S", ("A", "B"), msgs)
    shorter = apply_edit(sd, Delete(2))
    assert [m.label for m in shorter.messages] == ["m1", "m3"]
    assert [m.id for m in shorter.messages] == [1, 2]
    longer = apply_edit(sd, Insert(Message(2, "new", (), "B", "A"), 2))
    assert [m.label for m in longer.messages] == ["m1", "new", "m2", "m3"]
    assert [m.id for m in longer.messages] == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        apply_edit(sd, Delete(4))


def test_apply_edit_renumbers_no_loop():
    msgs = tuple(Message(i, f"m{i}", (), "A", "B") for i in range(1, 6))
    pairs = frozenset({frozenset((1, 4)), frozenset((2, 5)), frozenset((3,))})
    sd = SequenceDiagram("S", ("A", "B"), msgs, pairs)
    assert apply_edit(sd, Delete(2)).no_loop == {frozenset((1, 3)), frozenset((2,))}
    assert apply_edit(sd, Delete(5)).no_loop == {frozenset((1, 4)), frozenset((3,))}
    inserted = apply_edit(sd, Insert(Message(3, "new", (), "B", "A"), 3))
    assert inserted.no_loop == {frozenset((1, 5)), frozenset((2, 6)), frozenset((4,))}
    appended = apply_edit(sd, Insert(Message(6, "new", (), "B", "A"), 6))
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
