"""The shared sparse-sum core: in-place folds against immutable ones,
the coefficient invariant (nonzero; an int exactly where integral), input
validation, and cache isolation.

The reference folds (here and in ``helpers``) use only the public
operators and rebuild an immutable sum at every step (``acc = acc + x``),
with caches of their own; the production code accumulates into dicts in
place and shares per-tree and per-element results through module caches.
Equal results on whole solution coefficients show that the in-place
folds add the same terms.
"""

import itertools
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from dsegraphon import hopf
from dsegraphon.dse import Cocycle, DSESpec, solve, subalgebra_witness
from dsegraphon.graphpoly import MultiPoly
from dsegraphon.hopf import TensorSum, antipode, coproduct
from dsegraphon.renorm import LaurentSeries, ScalePoly, ToyRules, _weight
from dsegraphon.trees import (EMPTY_FOREST, Forest, ForestSum, Tree,
                              all_forests_up_to, ladder, leaf)
from helpers import all_trees, ref_antipode, ref_coproduct

SPECS = {
    "g": DSESpec((Cocycle("g", F(1)),), order=8),
    "g,h": DSESpec((Cocycle("g", F(1)), Cocycle("h", F(1, 2))), order=8),
}


# -- reference folds, immutable at every step ---------------------------------

def ref_solve(spec: DSESpec) -> list[ForestSum]:
    """X_n = sum_j omega_j B+_j(sum over k_1+...+k_(j+1) = n-j of X_k_1...X_k_(j+1))."""
    xs = [ForestSum.unit()]
    for n in range(1, spec.order + 1):
        acc = ForestSum.zero()
        for j, coc in enumerate(spec.cocycles, start=1):
            inner = ForestSum.zero()
            for ks in itertools.product(range(n - j + 1), repeat=j + 1):
                if sum(ks) == n - j:
                    term = ForestSum.unit()
                    for k in ks:
                        term = term * xs[k]
                    inner = inner + term
            acc = acc + coc.omega * hopf.graft(coc.decoration, inner)
        xs.append(acc)
    return xs


@pytest.fixture(scope="module", params=sorted(SPECS))
def solved(request):
    spec = SPECS[request.param]
    return spec, solve(spec)


def test_solve_matches_immutable_fold(solved):
    spec, sol = solved
    assert list(sol.coefficients) == ref_solve(spec)


def test_coproduct_and_antipode_match_immutable_fold(solved):
    _, sol = solved
    memo: dict = {}
    for n in range(1, 9):
        x = sol.coefficients[n]
        assert coproduct(x) == ref_coproduct(x, memo), n
        assert antipode(x) == ref_antipode(x, memo), n


# -- invariant: no stored zero ------------------------------------------------

def _zero_free(s) -> bool:
    """Every coefficient is a nonzero int, or a Fraction that is not integral."""
    return all(type(c) is int and c != 0 or type(c) is F and c.denominator != 1
               for c in s.terms.values())


def test_cancelling_sums_store_no_zero():
    g, l2 = ForestSum.of(leaf("g")), ForestSum.of(ladder(2))
    x = 2 * g + l2
    assert (x + (-1 * x)).terms == {}
    assert (x - x).terms == {}
    partial = x + (-2 * g)
    assert partial.terms == l2.terms and _zero_free(partial)
    assert (x * 0).terms == {} and (0 * x).terms == {}
    # products whose terms cancel: (g + l2)(g - l2) = g^2 - l2^2
    sq = (g + l2) * (g - l2)
    assert _zero_free(sq) and len(sq.terms) == 2
    t = TensorSum.of(Forest((leaf("g"),)), EMPTY_FOREST, F(3, 2))
    assert (t - t).terms == {} and (t + (-1 * t)).terms == {}
    p = ScalePoly.L(2, 3) + ScalePoly.const(1)
    assert (p - p).terms == {} and _zero_free(p * p - ScalePoly.const(1))
    assert (p - 1) == ScalePoly.L(2, 3)
    q = MultiPoly.var("x") + 1
    assert (q + (-1 * q)).terms == {}
    assert _zero_free(q * (MultiPoly.var("x") - 1)) and len((q * (q - 2)).terms) == 2


def test_cancelling_constructor_input_stores_no_zero():
    f = Forest((leaf("g"),))
    assert ForestSum({f: 0}).terms == {}
    assert ForestSum([(f, 1), (f, -1)]).terms == {}
    assert MultiPoly({(("x", 1),): 1, (("x", 1), ("y", 0)): -1}).terms == {}


# -- public constructors keep their checks ------------------------------------

def test_public_constructors_validate():
    f = Forest((leaf("g"),))
    with pytest.raises(TypeError):
        ForestSum({f: 0.5})
    with pytest.raises(TypeError):
        ForestSum({leaf("g"): 1})          # a Tree is not a Forest key
    with pytest.raises(TypeError):
        ForestSum({"g[]": 1})
    with pytest.raises(TypeError):
        ForestSum.of(f, 0.5)
    with pytest.raises(TypeError):
        TensorSum({(f, f): 0.5})
    with pytest.raises(TypeError):
        TensorSum({(f, "g[]"): 1})
    with pytest.raises(TypeError):
        TensorSum({f: 1})
    with pytest.raises(TypeError):
        ScalePoly({0: 0.5})
    with pytest.raises(ValueError):
        ScalePoly({-1: 1})
    with pytest.raises(TypeError):
        MultiPoly({(): 0.5})
    with pytest.raises(ValueError):
        MultiPoly({(("x", -1),): 1})
    with pytest.raises(TypeError):
        ForestSum.of(f) + 1                # forests take no bare scalars
    for s in (ForestSum.of(f), TensorSum.of(f, f), ScalePoly.const(1),
              MultiPoly.unit()):
        with pytest.raises(AttributeError):
            s.terms = {}


# -- accumulators never write into cached values --------------------------------

def _snapshot(per_tree) -> dict:
    """The terms of ``per_tree(t)`` for the trees of every forest up to 3
    vertices, copied."""
    return {t: dict(per_tree(t).terms)
            for f in all_forests_up_to(3) for t in f.trees}


def _snapshot_rows(elements) -> dict:
    """The merged rows and the antipode of each normalized element, copied."""
    return {y: (dict(hopf._antipode_rows(y).terms),
                [(dict(a.terms), dict(b.terms)) for a, b in hopf._merged_rows(y)])
            for y in elements}


def test_cancelling_folds_leave_caches_unchanged():
    cherry, l3 = Tree("g", [leaf("g"), leaf("g")]), ladder(3)
    xs = solve(SPECS["g"]).coefficients
    # cherry - l3 is normalized: the cherry has the lesser code
    elements = [ForestSum.of(cherry) - ForestSum.of(l3)] + [
        hopf._normalized(x.terms)[1] for x in xs[3:7]]
    coprod_before = _snapshot(hopf._coproduct_tree)
    anti_before = _snapshot(hopf._antipode_tree)
    rows_before = _snapshot_rows(elements)

    # the l2 (x) g terms cancel: 2 from the cherry, -2 from the ladder
    x = ForestSum.of(cherry) - 2 * ForestSum.of(l3)
    got = coproduct(x)
    assert (Forest((ladder(2),)), Forest((leaf("g"),))) not in got.terms
    assert got == coproduct(ForestSum.of(cherry)) - 2 * coproduct(ForestSum.of(l3))
    # S(cherry) - S(l3) = -cherry + l3: the g*l2 and g^3 terms cancel
    y = ForestSum.of(cherry) - ForestSum.of(l3)
    assert antipode(y) == -1 * y
    three = 3 * ForestSum.unit()
    assert antipode(y + three) == three - y and antipode(-2 * y) == 2 * y
    # a memoized S(X_k), scaled, shifted and added to its negative
    for k in range(3, 7):
        assert antipode(xs[k] - three) + three == antipode(xs[k])
        assert (antipode(F(-1, 2) * xs[k]) * -2 - antipode(xs[k])).terms == {}

    assert _snapshot(hopf._coproduct_tree) == coprod_before
    assert _snapshot(hopf._antipode_tree) == anti_before
    assert _snapshot_rows(elements) == rows_before


# -- int and Fraction coefficients ----------------------------------------------

def _exact_coefficients(s) -> bool:
    """The stored coefficients are ints exactly where they are integral."""
    return _zero_free(s) and all(
        (type(c) is int) == (F(c).denominator == 1) for c in s.terms.values())


def test_int_and_fraction_coefficients_mix():
    f, e = Forest((leaf("g"),)), EMPTY_FOREST
    half = ForestSum.of(f, F(1, 2))
    one = half + half
    assert one.terms == {f: 1} and type(one.terms[f]) is int
    assert (half - half).terms == {} and (half + (-1 * half)).terms == {}
    assert (ForestSum.of(f, 3) + ForestSum.of(f, -3)).terms == {}
    assert (ForestSum.of(f, F(1, 3)) + ForestSum.of(f, F(-1, 3))).terms == {}
    # integral Fractions become ints on every path that makes a coefficient
    made = [one, ForestSum({f: F(4, 2)}), ForestSum.of(f, True),
            ForestSum.of(f, F(2, 3)) * F(3, 2), F(3, 2) * ForestSum.of(f, F(2, 3)),
            ForestSum.of(f, F(2, 3)) * ForestSum.of(e, F(3, 2)),
            ForestSum.of(f, F(1, 2)) * 4, ForestSum.of(f, F(3, 4)) * 2 + half,
            TensorSum.of(f, e, F(3, 4)) + TensorSum.of(f, e, F(1, 4)),
            ScalePoly.const(F(1, 2)) + F(1, 2),
            MultiPoly.var("x", 1, F(1, 3)) * 3,
            LaurentSeries({-1: F(1, 2)}, (-2, 2)) * 4, LaurentSeries.const(F(1, 2)) + F(1, 2),
            LaurentSeries({-1: F(2, 3)}, (-1, 1)) * LaurentSeries({1: F(3, 2)}, (-1, 1)),
            LaurentSeries({1: F(2, 3)}) * ScalePoly.L(1, F(3, 2)),
            MultiPoly({(): F(5, 5)}) - F(1, 2)]
    for s in made:
        assert _exact_coefficients(s), s
    assert [type(c) for s in made[:-1] for c in s.terms.values()] == [int] * 15
    assert made[-1].terms == {(): F(1, 2)}
    assert ForestSum.unit().terms == {e: 1} and type(ForestSum.unit().counit()) is int
    # the solution coefficients of one cocycle with omega = 1 are ints
    sol = solve(SPECS["g"])
    for x in sol.coefficients:
        assert all(type(c) is int for c in x.terms.values())
        assert _exact_coefficients(coproduct(x)) and _exact_coefficients(antipode(x))
    for x in solve(SPECS["g,h"]).coefficients:
        assert _exact_coefficients(x) and _exact_coefficients(antipode(x))


def test_division_paths_stay_exact():
    for spec in SPECS.values():
        sol = solve(spec)
        for n in (3, 5):
            report = subalgebra_witness(sol, n)
            assert report.ok and report.coefficients
            assert all(type(v) in (int, F) and v for v in report.coefficients.values())

    def factorial_of(t):  # t! = |t| * prod of the children's t!
        out = t.size
        for c in t.children:
            out *= factorial_of(c)
        return out

    rules = ToyRules(residues={"g": 3, "h": 1})  # int residues in, rationals out
    for t in all_trees(5, ("g", "h")):
        w = _weight(rules, t)
        want = F(3 ** sum(1 for v in t.code if v == "g"), factorial_of(t))
        assert type(w) in (int, F) and w == want
    assert _weight(rules, ladder(4)) == F(81, factorial(4))


_COEFFS = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=4))
_FORESTS = all_forests_up_to(3, ("g", "h"))
_MONOMIALS = [(), (("x", 1),), (("y", 1),), (("x", 1), ("y", 2)), (("x", 2),)]


def _sums(cls, keys):
    return st.lists(st.tuples(st.sampled_from(keys), _COEFFS), max_size=6).map(cls)


def _naive_product(a, b, key_mul) -> dict:
    out: dict = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            k = key_mul(k1, k2)
            out[k] = out.get(k, F(0)) + F(c1) * F(c2)
    return {k: v for k, v in out.items() if v}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(ForestSum, _FORESTS), (MultiPoly, _MONOMIALS)]).flatmap(
    lambda ck: st.tuples(*[_sums(*ck)] * 3)), _COEFFS)
def test_ring_identities_on_mixed_coefficients(sums, q):
    a, b, c = sums
    cls = type(a)
    zero, one = cls.zero(), cls.unit()
    results = [a + b, a - b, a * b, b * a, (a + b) + c, a + (b + c), (a * b) * c,
               a * (b * c), a * (b + c), a * b + a * c, q * a, a * q, a * a - a * a]
    for s in results:
        assert _exact_coefficients(s), s
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and (a * zero).terms == {}
    assert (a - a).terms == {} and a + (-1 * a) == zero
    assert q * (a + b) == q * a + q * b
    assert (a * b).terms == _naive_product(a, b, cls._key_mul)
