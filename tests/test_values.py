"""The value classes: construction, equality, hashing, immutability and repr.

`Word`, `Interval`, `OrderedMorphism`, `Tableau`, `ShiftedTableau`,
`Relation` and `RelationSet` are plain classes.  Each is built positionally
with its fields checked, compares and hashes over its fields, refuses a
later assignment, and prints as `Name(field=value, ...)` (`Word` prints its
text).  The expected reprs and messages below are those of the package as
it stood before these classes were written by hand.
"""

import copy
import pickle
import weakref

import pytest

from placto import rewrite
from placto.rewrite import KNUTH, SHIFTED_KNUTH, Relation, RelationSet
from placto.tableaux import ShiftedTableau, Tableau
from placto.words import Frozen, Interval, OrderedMorphism, Word

K1 = ("K.1", "acb", "cab", "a<=b<c")

# (class, fields in order, repr)
CASES = [
    (Word, ((1, 2, 3), 4), "Word('123', n=4)"),
    (Word, ((), 1), "Word('', n=1)"),
    (Word, ((10, 2), 12), "Word('10,2', n=12)"),
    (Interval, (2, 5), "Interval(lo=2, hi=5)"),
    (
        OrderedMorphism,
        (((1, 2), (3, 4)), 5),
        "OrderedMorphism(pairs=((1, 2), (3, 4)), target_n=5)",
    ),
    (Tableau, (((1, 2), (3,)),), "Tableau(rows=((1, 2), (3,)))"),
    (Tableau, ((),), "Tableau(rows=())"),
    # 1 2' 2 over 3 in the doubled encoding
    (ShiftedTableau, (((2, 3, 4), (6,)),), "ShiftedTableau(rows=((2, 3, 4), (6,)))"),
    (Relation, K1, "Relation(name='K.1', left='acb', right='cab', constraints='a<=b<c')"),
    (
        RelationSet,
        ("knuth", KNUTH.relations),
        "RelationSet(name='knuth', relations=("
        "Relation(name='K.1', left='acb', right='cab', constraints='a<=b<c'), "
        "Relation(name='K.2', left='bca', right='bac', constraints='a<b<=c')))",
    ),
    (RelationSet, ("empty", ()), "RelationSet(name='empty', relations=())"),
]

FIELDS = {
    Word: ("letters", "n"),
    Interval: ("lo", "hi"),
    OrderedMorphism: ("pairs", "target_n"),
    Tableau: ("rows",),
    ShiftedTableau: ("rows",),
    Relation: ("name", "left", "right", "constraints"),
    RelationSet: ("name", "relations"),
}

IDS = [f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(CASES)]


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_fields_and_repr(cls, args, text):
    value = cls(*args)
    assert tuple(getattr(value, name) for name in FIELDS[cls]) == args
    assert repr(value) == text


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_equal_fields_give_equal_objects_and_hashes(cls, args, text):
    a, b = cls(*args), cls(*args)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert hash(a) == hash(args)  # the hash of the field tuple


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_another_type_with_the_same_values_is_not_equal(cls, args, text):
    value = cls(*args)
    for other in (args, args[0], list(args), object()):
        assert value.__eq__(other) is NotImplemented
        assert value != other and other != value


def test_tableaux_of_the_two_kinds_differ_on_the_same_rows():
    rows = ((2, 4), (6,))
    assert Tableau(rows).rows == ShiftedTableau(rows).rows
    assert Tableau(rows) != ShiftedTableau(rows)
    assert Tableau(rows).__eq__(ShiftedTableau(rows)) is NotImplemented


def test_different_fields_give_unequal_objects():
    assert Word((1, 2), 2) != Word((1, 2), 3)
    assert Word((1, 2), 3) != Word((2, 1), 3)
    assert Interval(1, 2) != Interval(1, 3)
    assert OrderedMorphism(((1, 1),), 2) != OrderedMorphism(((1, 1),), 3)
    assert Relation(*K1) != Relation("K.1'", *K1[1:])
    assert RelationSet("knuth", KNUTH.relations) != RelationSet("other", KNUTH.relations)
    assert KNUTH != SHIFTED_KNUTH


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_fields_are_neither_assigned_nor_deleted(cls, args, text):
    value = cls(*args)
    for name in FIELDS[cls] + ("extra",):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in FIELDS[cls]) == args


@pytest.mark.parametrize("cls", [c for c in FIELDS if c is not RelationSet])
def test_slotted_classes_have_no_instance_dict(cls):
    args = next(args for c, args, _ in CASES if c is cls)
    assert not hasattr(cls(*args), "__dict__")
    assert cls.__slots__ == FIELDS[cls]


def test_a_relation_set_has_a_dict_and_weak_references():
    rels = RelationSet("knuth", KNUTH.relations)
    assert weakref.ref(rels)() is rels
    rels.congruence
    assert "congruence" in vars(rels)


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_copies_and_pickles_are_equal(cls, args, text):
    value = cls(*args)
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert clone == value and type(clone) is cls


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Word((1,), 0), "alphabet bound must be >= 1, got 0"),
        (lambda: Word((0,), 3), "letter 0 outside alphabet 1..3"),
        (lambda: Word((4,), 3), "letter 4 outside alphabet 1..3"),
        (lambda: Interval(3, 2), r"empty interval \[3,2\]"),
        (lambda: OrderedMorphism(((1, 2),), 0), "target alphabet bound must be >= 1"),
        (lambda: OrderedMorphism(((0, 2),), 3), r"morphism pair \(0,2\) out of range"),
        (lambda: OrderedMorphism(((1, 4),), 3), r"morphism pair \(1,4\) out of range"),
        (
            lambda: OrderedMorphism(((2, 2), (1, 3)), 3),
            "ordered morphism must be strictly increasing",
        ),
        (lambda: Tableau(((1,), (2, 3))), r"row lengths \(1, 2\) do not form a partition"),
        (lambda: Tableau(((0,),)), "bad entry 0"),
        (lambda: Tableau(((2, 1),)), "row 1 not weakly increasing"),
        (lambda: Tableau(((1,), (1,))), "column 1 not strictly increasing"),
        (
            lambda: ShiftedTableau(((2,), (4,))),
            r"row lengths \(1, 1\) do not form a strict partition",
        ),
        (lambda: ShiftedTableau(((3,),)), "diagonal entry of row 1 is primed"),
        (lambda: ShiftedTableau(((0,),)), "bad entry 0"),
        (lambda: ShiftedTableau(((4, 2),)), "row 1 not weakly increasing"),
        (lambda: ShiftedTableau(((2, 3, 3),)), "primed 2' repeated in row 1"),
        (lambda: ShiftedTableau(((2, 6, 6), (4,))), r"column of cell \(2,1\) decreases"),
        (lambda: ShiftedTableau(((2, 4, 6), (4,))), "unprimed 2 repeated in a column"),
        (lambda: Relation("r", "ab", "bc", "a<b"), "r: sides must use the same variable multiset"),
        (lambda: Relation("r", "ac", "ca", "a<b"), "r: pattern variable missing from chain"),
        (lambda: Relation("r", "ab", "ba", "a<b<c"), "r: chain variable 'c' is in neither pattern"),
        (lambda: Relation("r", "ab", "ba", "a<"), "cannot parse constraint chain 'a<'"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_a_rebuilt_shipped_set_equals_it():
    rebuilt = RelationSet("knuth", KNUTH.relations)
    assert KNUTH == rebuilt and hash(KNUTH) == hash(rebuilt)
    relations = tuple(Relation(r.name, r.left, r.right, r.constraints) for r in KNUTH.relations)
    assert RelationSet("knuth", relations) == KNUTH


def test_a_set_builds_its_congruence_once(monkeypatch):
    built = []

    class Counting(rewrite.Congruence):
        __slots__ = ()

        def __init__(self, rels):
            built.append(rels)
            super().__init__(rels)

    monkeypatch.setattr(rewrite, "Congruence", Counting)
    rels = RelationSet.custom([Relation("c", "ab", "ba", "a<b")], name="commutative")
    first = rels.congruence
    assert rels.congruence is first
    assert rewrite.equivalent(Word((1, 2), 2), Word((2, 1), 2), rels)
    assert rels.congruence is first
    assert built == [rels]
    # an equal set is another object, and builds a congruence of its own
    twin = RelationSet.custom(rels.relations, name="commutative")
    assert twin == rels and twin.congruence is not first
    assert built == [rels, twin] and built[1] is twin


class Pair(Frozen):
    """A value class of this module: its fields are its slots."""

    __slots__ = ("left", "right")

    def __init__(self, left, right) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Triple(Pair):
    """A value class that adds a field to those of its parent."""

    __slots__ = ("third",)

    def __init__(self, left, right, third) -> None:
        super().__init__(left, right)
        object.__setattr__(self, "third", third)


class SkewTableau(Tableau):
    """A tableau subclass that adds no field."""

    __slots__ = ()


def test_a_frozen_subclass_derives_the_protocol_from_its_slots():
    a, b = Pair(1, (2, 3)), Pair(1, (2, 3))
    assert Pair._fields == ("left", "right")
    assert a == b and a is not b and a != Pair(1, (2,))
    assert hash(a) == hash(b) == hash((1, (2, 3)))
    assert a.__eq__((1, (2, 3))) is NotImplemented
    assert repr(a) == "Pair(left=1, right=(2, 3))"
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert clone == a and type(clone) is Pair
    with pytest.raises(AttributeError, match="cannot assign to field 'left'"):
        a.left = 2


def test_a_subclass_with_slots_adds_its_fields_after_its_parents():
    a = Triple(1, 2, 3)
    assert Triple._fields == ("left", "right", "third") and Pair._fields == ("left", "right")
    assert a == Triple(1, 2, 3) and a != Triple(1, 2, 4) and a != Pair(1, 2)
    assert hash(a) == hash((1, 2, 3))
    assert repr(a) == "Triple(left=1, right=2, third=3)"
    assert pickle.loads(pickle.dumps(a)) == a


def test_a_subclass_with_empty_slots_keeps_its_parents_fields():
    rows = ((1, 2), (3,))
    skew = SkewTableau(rows)
    assert skew.rows == rows and SkewTableau._fields == ("rows",)
    assert not hasattr(skew, "__dict__")
    assert skew == SkewTableau(rows) and hash(skew) == hash((rows,))
    assert skew != Tableau(rows) and Tableau(rows) != skew
    assert skew.__eq__(Tableau(rows)) is NotImplemented
    assert repr(skew) == "SkewTableau(rows=((1, 2), (3,)))"
    assert pickle.loads(pickle.dumps(skew)) == skew


def test_the_value_classes_inherit_the_protocol():
    for cls in FIELDS:
        assert cls._fields == FIELDS[cls]
        for name in ("__eq__", "__hash__", "__reduce__"):
            assert name not in vars(cls), (cls, name)
        assert ("__repr__" in vars(cls)) == (cls is Word)
