"""qalt's records are plain immutable classes: each keeps its positional
and keyword constructor, its defaults, its validation, value equality
within its own type, hashing, the Name(field=value, ...) repr, and copy
and pickle, as HalfLaurent does. The half formatter writes e2 / 2 as
Fraction does."""

import copy
import pickle
from fractions import Fraction

import pytest

from qalt import (Budget, BracketResult, Certificate, GapReport, HalfLaurent,
                  KanenobuVerdict, QAVerdict, SignedPlanarGraph, Unknown,
                  corpus)
from qalt.corpus import Entry
from qalt.diagram import Diagram, InvalidCrossing
from qalt.laurent import _half

# each record with its fields, in constructor order, and sample values
RECORDS = [
    (QAVerdict, {"status": "NotQA",
                 "reasons": (("det", "why", {"det": 0}),),
                 "assumptions": {"prime": True},
                 "report": GapReport(breadth2=0, step2=2, gaps=(),
                                     alternating=True)}),
    (Budget, {"max_depth": 3, "max_nodes": 40, "simplify_passes": 5}),
    (Certificate, {"tree": {"version": 3, "pd": "", "nodes": []}}),
    (Unknown, {"reason": "budget"}),
    (KanenobuVerdict, {"status": "Inconclusive", "agrees": False}),
    (GapReport, {"breadth2": 6, "step2": 2, "gaps": ((-1, 1),),
                 "alternating": True}),
    (BracketResult, {"bracket": HalfLaurent({-10: 1, 2: -1}),
                     "jones": HalfLaurent({-2: 1}), "writhe": 3,
                     "determinant": 1}),
    (SignedPlanarGraph, {"vertex_count": 2,
                         "edges": ((0, 1, 1), (1, 0, -1))}),
    (Entry, {"name": "trefoil", "diagram": corpus.trefoil(), "prime": True,
             "det": 3}),
]
IDS = [cls.__name__ for cls, _ in RECORDS]
# a dict field makes a record unhashable, as it made the dataclass
UNHASHABLE = (QAVerdict, Certificate)


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_positional_and_keyword_construction(cls, fields):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    for r in (by_position, by_keyword):
        assert type(r) is cls
        assert {name: getattr(r, name) for name in fields} == fields
    assert by_position == by_keyword
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, extra=None)
    if cls is not Budget:
        # only Budget has defaults
        with pytest.raises(TypeError):
            cls(*list(fields.values())[:-1])


def test_budget_defaults():
    b = Budget()
    assert (b.max_depth, b.max_nodes, b.simplify_passes) == (24, 100000, None)
    assert Budget(max_nodes=7) == Budget(24, 7, None)


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_assignment_and_deletion_raise(cls, fields):
    r = cls(**fields)
    for name in list(fields) + ["other"]:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(r, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(r, name)
    assert {name: getattr(r, name) for name in fields} == fields


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_equality_and_hash(cls, fields):
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(fields.values()))
        assert len({a, b}) == 1
    # never equal to a tuple of the same values, nor to another record
    assert a != tuple(fields.values()) and not a == tuple(fields.values())
    for other, other_fields in RECORDS:
        if other is not cls:
            assert a != other(**other_fields)


def test_equal_values_of_two_types_are_unequal():
    assert Unknown("budget") != Certificate("budget")
    assert Unknown("budget") != Unknown("exhausted")


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_repr(cls, fields):
    assert repr(cls(**fields)) == "%s(%s)" % (cls.__name__, ", ".join(
        "%s=%r" % item for item in fields.items()))


def test_repr_literals():
    assert repr(Budget()) == ("Budget(max_depth=24, max_nodes=100000, "
                              "simplify_passes=None)")
    assert repr(Unknown("budget")) == "Unknown(reason='budget')"
    assert repr(KanenobuVerdict("NotQA", True)) == (
        "KanenobuVerdict(status='NotQA', agrees=True)")


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_copy_and_pickle(cls, fields):
    r = cls(**fields)
    for twin in (copy.copy(r), copy.deepcopy(r),
                 pickle.loads(pickle.dumps(r))):
        assert type(twin) is cls and twin == r


def test_half_laurent_copy_and_pickle():
    # BracketResult's fields are HalfLaurents, immutable the same way
    f = HalfLaurent({-3: 2, 5: -1})
    for twin in (copy.copy(f), copy.deepcopy(f),
                 pickle.loads(pickle.dumps(f))):
        assert type(twin) is HalfLaurent and twin == f


def test_half_laurent_refuses_assignment_and_deletion():
    f = HalfLaurent({-3: 2, 5: -1})
    for name in ("_terms", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(f, name, {})
        with pytest.raises(AttributeError, match="immutable"):
            delattr(f, name)
    assert f == HalfLaurent({-3: 2, 5: -1})
    assert f.render() == "2t^(-3/2) - t^(5/2)"


def test_signed_planar_graph_validation():
    with pytest.raises(ValueError, match="^need at least one vertex$"):
        SignedPlanarGraph(0, ())
    with pytest.raises(ValueError,
                       match=r"^edge endpoint out of range: \(0, 2, 1\)$"):
        SignedPlanarGraph(2, [(0, 1, 1), (0, 2, 1)])
    with pytest.raises(ValueError,
                       match=r"^edge endpoint out of range: \(-1, 0, -1\)$"):
        SignedPlanarGraph(2, [(-1, 0, -1)])
    with pytest.raises(ValueError, match=r"^edge sign must be \+1 or -1$"):
        SignedPlanarGraph(2, [(0, 1, 2)])
    # any iterable of triples is stored as a tuple of tuples
    g = SignedPlanarGraph(3, ([u, u + 1, -1] for u in range(2)))
    assert g.edges == ((0, 1, -1), (1, 2, -1))
    assert g == SignedPlanarGraph(3, ((0, 1, -1), (1, 2, -1)))


# where an int is meant, a bool or a float is refused with the error
# each constructor or method raises for other bad values, not read as
# the number it stands for
TREFOIL = corpus.trefoil()


@pytest.mark.parametrize("make, error", [
    (lambda: HalfLaurent({0: True}), TypeError),
    (lambda: HalfLaurent({True: 1}), TypeError),
    (lambda: HalfLaurent.one() ** True, ValueError),
    (lambda: Diagram((), True), ValueError),
    (lambda: TREFOIL.smooth(True, 0), InvalidCrossing),
    (lambda: TREFOIL.smooth(0, True), InvalidCrossing),
    (lambda: TREFOIL.sign(False), InvalidCrossing),
    (lambda: SignedPlanarGraph(2, [(0, 1, True)]), ValueError),
    (lambda: SignedPlanarGraph(2.0, [(0, 1, 1)]), ValueError),
    (lambda: SignedPlanarGraph(2, [(0.0, 1, 1)]), ValueError),
    (lambda: SignedPlanarGraph(2, [(0, True, 1)]), ValueError),
], ids=["coefficient-bool", "exponent-bool", "power-bool", "free-loops-bool",
        "smooth-crossing-bool", "smooth-selector-bool", "sign-crossing-bool",
        "edge-sign-bool", "vertex-count-float", "endpoint-float",
        "endpoint-bool"])
def test_values_that_are_not_plain_ints_are_refused(make, error):
    with pytest.raises(error):
        make()


def test_half_formatter_matches_fraction():
    for e2 in range(-41, 42):
        assert _half(e2) == str(Fraction(e2, 2)), e2
