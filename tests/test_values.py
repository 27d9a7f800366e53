"""The contract of the immutable value classes: constructor, equality,
hashing, repr, immutability, and pickle and copy round trips."""

from __future__ import annotations

import copy
import pickle

import pytest

from graphperiod.criteria import CriterionReport, Violation
from graphperiod.graphs import MultiGraph, component_count
from graphperiod.invariants import NegamiPolynomial, TuttePair
from graphperiod.polynomials import Polynomial
from graphperiod.symmetry import Automorphism, QuotientMap


def _report(notes=("r = 12, required j - i == 1 (mod 3)",)):
    return CriterionReport(
        "cor1.2", "frucht", 3, "fail", notes, ("s", "t"), {(1, 2): 2, (0, 1): 1}
    )


# (make, a different value of the same class, its repr); make() builds a
# fresh, equal value on each call
VALUES = {
    "MultiGraph": (
        lambda: MultiGraph(3, ((1, 0), (1, 2), (2, 2))),
        MultiGraph(3, ((0, 1), (1, 2))),
        "MultiGraph(3, [(0, 1), (1, 2), (2, 2)])",
    ),
    "TuttePair": (
        lambda: TuttePair(
            Polynomial(("x", "y"), {(1, 0): 1}),
            Polynomial(("s", "t"), {(0, 0): 1, (1, 0): 1}),
        ),
        TuttePair(Polynomial(("x", "y"), {(0, 1): 1}), Polynomial(("s", "t"), {(0, 1): 1})),
        "TuttePair(classic=Polynomial(('x', 'y'), {(1, 0): 1}), "
        "shifted=Polynomial(('s', 't'), {(0, 0): 1, (1, 0): 1}))",
    ),
    "NegamiPolynomial": (
        lambda: NegamiPolynomial(
            Polynomial(("u", "x", "y"), {(1, 0, 1): 1, (2, 1, 0): 1}), 2, 1, 1
        ),
        NegamiPolynomial(Polynomial(("u", "x", "y"), {(1, 0, 1): 1}), 2, 1, 1),
        "NegamiPolynomial(polynomial=Polynomial(('u', 'x', 'y'), "
        "{(1, 0, 1): 1, (2, 1, 0): 1}), vertex_count=2, edge_count=1, components=1)",
    ),
    "Automorphism": (
        lambda: Automorphism((1, 2, 0), (1, 2, 0)),
        Automorphism((2, 0, 1), (2, 0, 1)),
        "Automorphism(vertex_perm=(1, 2, 0), edge_perm=(1, 2, 0))",
    ),
    "QuotientMap": (
        lambda: QuotientMap(
            vertex_orbits=((0, 1, 2),),
            edge_orbits=((0, 1, 2),),
            quotient=MultiGraph(1, ((0, 0),)),
            vertex_projection=(0, 0, 0),
            edge_projection=(0, 0, 0),
        ),
        QuotientMap(((0, 1, 2),), (), MultiGraph(1), (0, 0, 0), ()),
        "QuotientMap(vertex_orbits=((0, 1, 2),), edge_orbits=((0, 1, 2),), "
        "quotient=MultiGraph(1, [(0, 0)]), vertex_projection=(0, 0, 0), "
        "edge_projection=(0, 0, 0))",
    ),
    "Violation": (
        lambda: Violation(monomial="s*t", coefficient=2),
        Violation("s*t", 3),
        "Violation(monomial='s*t', coefficient=2)",
    ),
    "CriterionReport": (
        _report,
        _report(notes=()),
        "CriterionReport(criterion='cor1.2', graph='frucht', p=3, verdict='fail', "
        "notes=('r = 12, required j - i == 1 (mod 3)',))",
    ),
}

# these hold Polynomials, which are unhashable
UNHASHABLE = {"TuttePair", "NegamiPolynomial"}

# one field of each class
FIELD = {
    "MultiGraph": "vertex_count",
    "TuttePair": "classic",
    "NegamiPolynomial": "polynomial",
    "Automorphism": "vertex_perm",
    "QuotientMap": "quotient",
    "Violation": "coefficient",
    "CriterionReport": "verdict",
}

NAMES = sorted(VALUES)


@pytest.mark.parametrize("name", NAMES)
def test_equality(name):
    make, other, _ = VALUES[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != other and not a == other
    assert a != (a.__class__.__name__, repr(a))


@pytest.mark.parametrize("name", NAMES)
def test_hash(name):
    make, _, _ = VALUES[name]
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(make())
    else:
        assert hash(make()) == hash(make())
        assert len({make(), make()}) == 1


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    make, _, expected = VALUES[name]
    assert repr(make()) == expected


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    value = VALUES[name][0]()
    field = FIELD[name]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, 1)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.unknown = 1
    assert getattr(value, field) == before


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize(
    "round_trip",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_round_trips(name, round_trip):
    value = VALUES[name][0]()
    back = round_trip(value)
    assert type(back) is type(value)
    assert back == value and repr(back) == repr(value)
    field = FIELD[name]
    with pytest.raises(AttributeError):
        setattr(back, field, 1)


def test_multigraph_round_trip_after_counting_components():
    g = MultiGraph(4, ((0, 1), (2, 3)))
    assert component_count(g) == 2
    for back in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert back == g and repr(back) == repr(g) and component_count(back) == 2


@pytest.mark.parametrize("read_first", [False, True])
def test_report_violations_after_unpickling(read_first):
    report = _report()
    expected = (Violation("t", 1), Violation("s*t^2", 2))
    if read_first:
        assert report.violations == expected
    for back in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert back.violations == expected
        assert back.terms == report.terms and back.variables == report.variables


def test_report_equality_leaves_out_the_term_table():
    a = _report()
    b = CriterionReport("cor1.2", "frucht", 3, "fail", a.notes)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert b.variables == () and b.terms == {} and b.violations == ()
    assert CriterionReport("c", "g", 2, "pass").terms is not CriterionReport(
        "c", "g", 2, "pass"
    ).terms


def test_constructors_validate():
    with pytest.raises(ValueError):
        MultiGraph(-1)
    with pytest.raises(ValueError):
        MultiGraph(2, ((0, 2),))
    with pytest.raises(ValueError):
        Automorphism((0, 0), ())
    with pytest.raises(ValueError):
        NegamiPolynomial(Polynomial(("u", "x", "y"), {(1, 1, 1): 1}), 2, 1, 1)
