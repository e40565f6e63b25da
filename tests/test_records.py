"""The value records of every layer behave as frozen value classes: a
``Name(field=value, ...)`` repr, equality and hash by value within one
class, never equal to a plain tuple, no assignment, construction by
position or keyword, and the layers' own validation messages."""

from fractions import Fraction as F

import pytest

from dsegraphon import renorm
from dsegraphon.dse import Cocycle, DSESpec, solve, subalgebra_witness
from dsegraphon.graphon import DensityFingerprint
from dsegraphon.graphpoly import MultiGraph
from dsegraphon.haar import BallEstimate, SolutionPoint, VertexUniverse
from dsegraphon.renorm import BirkhoffPair, RenormReport, ToyRules, birkhoff, \
    renormalize_solution
from dsegraphon.serialize import dse_spec_from_json, toy_rules_from_json
from dsegraphon.trees import Record, Tree
from graph_oracles import psi_deletion_contraction


def _spec():
    return DSESpec((Cocycle("g", F(1)),), order=2, coupling=F(1, 2))


def _rules():
    return ToyRules({"g": F(2)}, scale=F(1, 2), window=(-2, 1))


# one factory per record class, and its repr as the frozen dataclasses
# printed it
RECORDS = [
    (lambda: Cocycle("g", F(1, 2)),
     "Cocycle(decoration='g', omega=Fraction(1, 2))"),
    (_spec,
     "DSESpec(cocycles=(Cocycle(decoration='g', omega=Fraction(1, 1)),), order=2, "
     "coupling=Fraction(1, 2))"),
    (lambda: solve(_spec()),
     "DSESolution(spec=DSESpec(cocycles=(Cocycle(decoration='g', omega=Fraction(1, 1)),), "
     "order=2, coupling=Fraction(1, 2)), coefficients=(ForestSum(1*1), ForestSum(1*g), "
     "ForestSum(2*g(g))))"),
    (lambda: subalgebra_witness(solve(_spec()), 2),
     "WitnessReport(ok=True, n=2, coefficients={((), (2,)): 1, ((1,), (1,)): 2, "
     "((2,), ()): 1}, message='decomposition found')"),
    (_rules,
     "ToyRules(residues=mappingproxy({'g': Fraction(2, 1)}), scale=Fraction(1, 2), "
     "window=(-2, 1))"),
    (lambda: birkhoff(_rules(), Tree("g")),
     "BirkhoffPair(negative=LaurentSeries((-2)*eps^-1; window=(-2, 1)), "
     "positive=LaurentSeries((-1)*eps^0 + (1/4)*eps^1; window=(-2, 1)))"),
    (lambda: renormalize_solution(_rules(), solve(_spec()), 2),
     "RenormReport(order=2, scale_symbolic=False, window=(-2, 1), widened=False, "
     "renormalized=(LaurentSeries((-1)*eps^0 + (1/4)*eps^1; window=(-2, 1)), "
     "LaurentSeries((1)*eps^0 + (-1/2)*eps^1; window=(-2, 1))), "
     "counterterms=(LaurentSeries((-2)*eps^-1; window=(-2, 1)), "
     "LaurentSeries((4)*eps^-2; window=(-2, 1))))"),
    (lambda: VertexUniverse(3, (("a", 2),)),
     "VertexUniverse(depth=3, alpha=(('a', 2),))"),
    (lambda: SolutionPoint(VertexUniverse(2), 3),
     "SolutionPoint(universe=VertexUniverse(depth=2, alpha=()), mask=3)"),
    (lambda: BallEstimate(F(1, 2), 3, 7, 4, 5),
     "BallEstimate(r=Fraction(1, 2), hits=3, samples=7, depth=4, seed=5)"),
    (lambda: DensityFingerprint(1, (("2:0-1", F(1, 3)),)),
     "DensityFingerprint(level=1, densities=(('2:0-1', Fraction(1, 3)),))"),
    (lambda: psi_deletion_contraction(MultiGraph(2, [(0, 1), (0, 1)]), 0),
     "PsiSplitReport(edge_index=0, variable='w1', psi=w1 + w2, deleted=1, "
     "contracted=w2, identity_holds=True, degenerate=None)"),
]


def test_every_record_class_is_covered():
    classes = {type(build()) for build, _ in RECORDS}
    assert len(classes) == 12 and all(issubclass(c, Record) for c in classes)


@pytest.mark.parametrize("build, text", RECORDS,
                         ids=[text.partition("(")[0] for _, text in RECORDS])
def test_record_behaves_as_a_frozen_value(build, text):
    a, b = build(), build()
    assert repr(a) == text
    values = tuple(getattr(a, name) for name in a._fields)
    assert a == b and not a != b
    assert a != values and values != a
    if isinstance(a, ToyRules):  # a cache key: its residues hash as their items
        assert hash(a) == hash(b)
    else:
        try:
            expected = hash(values)
        except TypeError:  # a dict or LaurentSeries field: the record never hashed
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b) == expected
    for name in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == build()
    # the fields by keyword rebuild the record
    assert type(a)(**dict(zip(a._fields, values))) == a


def test_records_differ_by_value_and_class():
    assert Cocycle("g", 1) != Cocycle("g", 2)
    assert Cocycle("g", 1) != Cocycle("h", 1)
    assert hash(Cocycle("g", F(2, 2))) == hash(Cocycle("g", 1))
    assert BirkhoffPair(1, 2) != BallEstimate(1, 2, 3, 4, 5)
    report = RenormReport(1, True, (-1, 0), False, (), ())
    assert report == RenormReport(order=1, scale_symbolic=True, window=(-1, 0),
                                  widened=False, renormalized=(), counterterms=())
    assert report != RenormReport(1, True, (-1, 0), True, (), ())


@pytest.mark.parametrize("args, kwargs", [
    ((1,), {}), ((1, 2, 3), {}), ((1,), {"negative": 2}), ((), {"positive": 1}),
    ((1, 2), {"other": 3})])
def test_record_construction_takes_each_field_once(args, kwargs):
    with pytest.raises(TypeError):
        BirkhoffPair(*args, **kwargs)


def test_keyword_construction_of_the_decoders():
    spec = dse_spec_from_json({"cocycles": [{"decoration": "g", "omega": "1"}],
                               "order": 2, "coupling": "1/2"})
    assert spec == _spec()
    assert spec == DSESpec(cocycles=[Cocycle(decoration="g", omega=1)], order=2,
                           coupling=F(1, 2))
    rules = toy_rules_from_json({"residues": {"g": "2"}, "scale": "1/2",
                                 "window": [-2, 1]})
    assert rules == _rules() == ToyRules(residues={"g": 2}, scale=F(1, 2),
                                         window=[-2, 1])
    assert ToyRules() == ToyRules({}, None, (-8, 2))
    assert DSESpec((Cocycle("g", 1),), 3).coupling == 1


@pytest.mark.parametrize("build, error, message", [
    (lambda: Cocycle("", 1), ValueError, "decoration label must be a nonempty string"),
    (lambda: Cocycle("a|b", 1), ValueError,
     "decoration label may not contain '[', ']' or '|'"),
    (lambda: Cocycle(3, 1), ValueError, "decoration label must be a nonempty string"),
    (lambda: Cocycle("g", 0.5), TypeError, "coefficients must be exact rationals, got float"),
    (lambda: DSESpec((), 1), ValueError, "equation needs at least one cocycle"),
    (lambda: DSESpec((Cocycle("g", 1),), 0), ValueError,
     "truncation order must be a positive integer"),
    (lambda: DSESpec((Cocycle("g", 1),), True), ValueError,
     "truncation order must be a positive integer"),
    (lambda: DSESpec((Cocycle("g", 1),), 2, F(3, 2)), ValueError,
     "coupling must lie in (0, 1]"),
    (lambda: DSESpec((Cocycle("g", 1),), 2, 0.5), TypeError,
     "coefficients must be exact rationals, got float"),
    (lambda: ToyRules(window=(1, 2)), ValueError, "rules window must contain eps^0"),
    (lambda: ToyRules(window=(-2, -1)), ValueError, "rules window must contain eps^0"),
    (lambda: ToyRules({"g": 0.5}), TypeError, "coefficients must be exact rationals, got float"),
    (lambda: ToyRules(scale=0.5), TypeError, "coefficients must be exact rationals, got float"),
    (lambda: VertexUniverse(0), ValueError, "depth must be a positive integer"),
    (lambda: VertexUniverse(2.0), ValueError, "depth must be a positive integer"),
    (lambda: VertexUniverse(3, (("a", 1), ("b", 1))), ValueError,
     "rank assignment must be a bijection"),
    (lambda: VertexUniverse(3, (("a", 4),)), ValueError, "ranks must lie in 1..3"),
    (lambda: SolutionPoint(VertexUniverse(2), 4), ValueError, "bitset exceeds universe depth"),
    (lambda: SolutionPoint(VertexUniverse(2), -1), ValueError, "bitset exceeds universe depth"),
])
def test_validation_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_equal_rules_share_one_cache_entry():
    # two equal rules built apart are one key of the process-wide caches
    a = ToyRules({"g": F(3, 7)}, scale=F(5, 11), window=(-3, 1))
    b = ToyRules(residues={"g": F(6, 14)}, scale=F(10, 22), window=[-3, 1])
    assert a is not b and a == b and hash(a) == hash(b)
    first = renorm._series(a, (1, 1), 3)
    info = renorm._series.cache_info()
    assert renorm._series(b, (1, 1), 3) is first
    after = renorm._series.cache_info()
    assert (after.hits, after.currsize) == (info.hits + 1, info.currsize)
