"""The value-record contract shared by every frozen result and input class.

Each record compares equal to a record of the same class with equal
fields, hashes by its fields, prints as `Name(field=value, ...)`, refuses
assignment and deletion, and survives pickle and deep copy unchanged.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from ultragreedy import (
    AxiomReport,
    EquivHierarchy,
    FullUltraTriple,
    GreedyTrace,
    MaxResult,
    SetSystem,
    UltraTriple,
    ValidationReport,
    Violation,
    WeightedTree,
)

CHAIN = (
    (frozenset({0, 1, 2}),),
    (frozenset({0}), frozenset({1, 2})),
    (frozenset({0}), frozenset({1}), frozenset({2})),
)
PLAIN = {"labels": ("a", "b", "c"), "weights": (1, Fraction(1, 2), 0), "dist": ((), (2,), (2, 1))}

# (class, keyword arguments, field names in declaration order)
RECORDS = [
    (UltraTriple, PLAIN, ("labels", "weights", "dist")),
    (FullUltraTriple, {**PLAIN, "selfdist": (1, 1, 1)}, ("labels", "weights", "dist", "selfdist")),
    (ValidationReport, {"ok": True, "violations": ()}, ("ok", "violations")),
    (
        ValidationReport,
        {"ok": False, "violations": (Violation((0, 1, 2), Fraction(2), Fraction(1)),)},
        ("ok", "violations"),
    ),
    (
        GreedyTrace,
        {"points": (0, 2), "increments": (Fraction(1), Fraction(5, 2)), "mode": "permutation"},
        ("points", "increments", "mode"),
    ),
    (SetSystem, {"ground": 3, "sets": frozenset({0, 1, 3})}, ("ground", "sets")),
    (AxiomReport, {"axiom": "iii", "holds": True}, ("axiom", "holds", "witness")),
    (
        EquivHierarchy,
        {"levels": CHAIN, "c": (2, 1)},
        ("levels", "c"),
    ),
    (
        WeightedTree,
        {"vertices": ("r", "a", "b"), "edges": (("r", "a", 1), ("r", "b", Fraction(3, 2))), "root": "r"},
        ("vertices", "edges", "root", "leafset"),
    ),
    (MaxResult, {"value": Fraction(7, 2), "argmax": ((0, 1), (1, 2))}, ("value", "argmax")),
]
IDS = [f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(RECORDS)]


@pytest.fixture(params=RECORDS, ids=IDS)
def record(request):
    cls, kwargs, fields = request.param
    return cls(**kwargs), cls(**kwargs), fields


def test_equal_fields_equal_records(record):
    a, b, _ = record
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_other_types_never_equal(record):
    a, _, _ = record
    assert a != object() and a != ()


def test_full_triple_never_equals_plain_triple():
    plain = UltraTriple(**PLAIN)
    full = FullUltraTriple(**PLAIN, selfdist=(1, 1, 1))
    assert full.without_selfdist() == plain
    assert full != plain and plain != full
    assert (full == plain) is False and (plain == full) is False


def test_repr_names_every_field(record):
    a, _, fields = record
    shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in fields)
    assert repr(a) == f"{type(a).__name__}({shown})"


def test_assignment_and_deletion_refused(record):
    a, b, fields = record
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert a == b


@pytest.mark.parametrize("roundtrip", [
    lambda x: pickle.loads(pickle.dumps(x)),
    lambda x: pickle.loads(pickle.dumps(x, protocol=0)),
    copy.deepcopy,
    copy.copy,
], ids=["pickle", "pickle-0", "deepcopy", "copy"])
def test_copies_compare_equal(record, roundtrip):
    a, _, fields = record
    c = roundtrip(a)
    assert type(c) is type(a)
    assert c == a and hash(c) == hash(a)
    assert all(getattr(c, name) == getattr(a, name) for name in fields)


def test_constructor_checks_still_run():
    with pytest.raises(ValueError, match="labels must be pairwise distinct"):
        UltraTriple(labels=("a", "a"), weights=(0, 0), dist=((), (1,)))
    with pytest.raises(ValueError, match="expected 2 self-distances"):
        FullUltraTriple(("a", "b"), (0, 0), ((), (1,)), (1,))
    with pytest.raises(ValueError, match="ok must equal"):
        ValidationReport(ok=False, violations=())
    with pytest.raises(ValueError, match="unknown trace mode"):
        GreedyTrace((0,), (Fraction(1),), "sideways")
    with pytest.raises(ValueError, match="ground size must be nonnegative"):
        SetSystem(-1, frozenset())
    with pytest.raises(ValueError, match="a failed axiom needs a witness"):
        AxiomReport("i", False)
    with pytest.raises(ValueError, match="c must be weakly decreasing"):
        EquivHierarchy(((frozenset({0, 1}),), (frozenset({0}), frozenset({1}))), (1, 2))
    with pytest.raises(ValueError, match="closes a cycle"):
        WeightedTree(("r", "a"), (("r", "a", 1), ("a", "r", 1)), "r")


def test_constructor_normalizes_fields():
    t = UltraTriple([1, 2], [1, "1/2"], [[], ["3"]])
    assert t.labels == ("1", "2")
    assert t.weights == (Fraction(1), Fraction(1, 2)) and t.dist == ((), (Fraction(3),))
    tree = WeightedTree(["r", "a", "b"], [("r", "a", 1), ("r", "b", 2)], "r")
    assert tree.leafset == ("a", "b") and tree.edges[1] == ("r", "b", Fraction(2))
