"""Minimal subtraction, toy rules, and the Birkhoff factorization.

Expected Laurent values are derived by hand from the closed form
phi(B+_d(w)) = r_d exp(-eps L) / ((|w|+1) eps) phi(w): e.g. the two-rung
ladder gives exp(-2 eps L)/(2 eps^2) whose expansion starts
1/(2 eps^2) - L/eps + L^2 - (2/3) L^3 eps + ...  The Rota-Baxter and
reconstruction identities are checked on random/exhaustive inputs rather
than assumed from the implementation.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

from dsegraphon.trees import (Forest, ForestSum, all_forests, all_forests_up_to,
                              ladder, leaf, Tree)
from dsegraphon.hopf import (Character, antipode, convolve, coproduct,
                             rational_character, reduced_coproduct)
from dsegraphon.dse import Cocycle, DSESolution, DSESpec, solve
from dsegraphon.graphpoly import MultiPoly
from dsegraphon.renorm import (BirkhoffPair, LaurentSeries, RenormReport,
                               ScalePoly, ToyRules, WindowError, _COUNTERTERM,
                               _RENORMALIZED, _RULES, _series, _weight, birkhoff,
                               bogoliubov, counterterm,
                               counterterm_character,
                               renormalize_solution, renormalized_value,
                               rules_character, toy_feynman_rules)
from helpers import all_trees, ref_convolve


# -- scale polynomials ---------------------------------------------------------

def _at(p: ScalePoly, value) -> F:
    """The polynomial p in L evaluated at L = value."""
    return sum((v * F(value) ** k for k, v in p.terms.items()), F(0))


def test_scale_poly_arithmetic():
    p = ScalePoly.L(2, F(3)) + ScalePoly.const(F(1, 2))  # 3L^2 + 1/2
    q = ScalePoly.L(1) - 1                               # L - 1
    assert (p * q).terms == {3: 3, 2: -3, 1: F(1, 2), 0: -F(1, 2)}
    assert _at(p, 2) == 12 + F(1, 2)
    assert p - p == ScalePoly()
    with pytest.raises(ValueError):
        ScalePoly({-1: F(1)})


# -- Laurent windows -----------------------------------------------------------

def test_window_rules_for_products_and_sums():
    a = LaurentSeries({-1: F(2)}, (-2, 3))
    b = LaurentSeries({1: F(5)}, (-1, 2))
    s = a + b
    assert s.window == (-2, 2)
    assert s.coeff(-1) == ScalePoly.const(2)
    assert s.coeff(1) == ScalePoly.const(5)
    p = a * b
    # product knows lo_a+lo_b; accuracy caps at min(hi_a+lo_b, lo_a+hi_b)
    assert p.window == (-3, 0)
    assert p.coeff(0) == ScalePoly.const(10)
    with pytest.raises(WindowError):
        s.coeff(3)  # truncated away by the sum
    assert a.coeff(-2) == ScalePoly()  # inside window, exactly zero


def test_window_membership_enforced():
    with pytest.raises(WindowError):
        LaurentSeries({4: F(1)}, (-2, 3))
    with pytest.raises(WindowError):
        LaurentSeries({-3: F(1)}, (-2, 3))
    with pytest.raises(ValueError):
        LaurentSeries({}, (2, -2))


def test_windowed_equality():
    a = LaurentSeries.const(1, (-2, 1))
    b = LaurentSeries.const(1, (-8, 2))
    assert a == b  # agree on the overlap, rest is truncation
    c = LaurentSeries({2: F(7)}, (-8, 2))
    assert a == b + c  # eps^2 term invisible at hi=1
    assert b != b + c


def test_rationals_meet_windows_without_eps_zero():
    # a bare rational is the constant series on the window stretched to
    # reach eps^0, so adding it to a series whose window leaves eps^0 out
    # neither raises nor reads past that series' hi
    for s, meet in ((LaurentSeries({1: 2}, (1, 3)), (0, 3)),
                    (LaurentSeries({-2: 1}, (-3, -1)), (-3, -1)),
                    (LaurentSeries({-1: 1, 1: 3}, (-2, 2)), (-2, 2))):
        one = LaurentSeries.const(1, (min(s.lo, 0), max(s.hi, 0)))
        for got, want in ((s + 1, s + one), (1 + s, one + s), (s - 1, s - one)):
            assert got == want and got.window == want.window == meet, s
        assert (s == 1) is (s == one) is False
        assert s - s + 1 == 1 == one  # equal wherever both are exact


def test_pole_and_regular_split():
    s = LaurentSeries({-2: F(1), -1: ScalePoly.L(1), 0: F(3), 1: F(4)}, (-3, 2))
    regular = s - s.pole_part()
    assert {p for p, _ in s.pole_part().terms} == {-2, -1}
    assert {p for p, _ in regular.terms} == {0, 1}
    assert not s.is_pole_free()
    assert regular.is_pole_free()


def _random_series(rng: random.Random) -> LaurentSeries:
    terms = {}
    for p in range(-3, 3):
        if rng.random() < 0.6:
            terms[p] = ScalePoly({rng.randrange(3): F(rng.randint(-9, 9),
                                                      rng.randint(1, 9))})
    return LaurentSeries(terms, (-4, 3))


def test_pole_projection_is_rota_baxter():
    # R(a)R(b) = R(R(a)b) + R(aR(b)) - R(ab) on 500 random pairs
    rng = random.Random(20240814)
    for _ in range(500):
        a = _random_series(rng)
        b = _random_series(rng)
        lhs = a.pole_part() * b.pole_part()
        rhs = ((a.pole_part() * b).pole_part() + (a * b.pole_part()).pole_part()
               - (a * b).pole_part())
        assert lhs == rhs
    # and idempotent
    s = _random_series(rng)
    assert s.pole_part().pole_part() == s.pole_part()


# An oracle for the window algebra over the public coefficient views: a
# series is read as (lo, hi, [coeff(lo), ..., coeff(hi)]) and every
# operation is written out under the window rules of the module
# docstring, the product as a Cauchy product.

def _view(s: LaurentSeries):
    return s.lo, s.hi, [s.coeff(p) for p in range(s.lo, s.hi + 1)]


def _oracle_sum(a, b, sign=1):
    (la, ha, ca), (lb, hb, cb) = a, b
    lo, hi = min(la, lb), min(ha, hb)
    get = lambda l, c, p: c[p - l] if p >= l else ScalePoly()
    return lo, hi, [get(la, ca, p) + get(lb, cb, p) * sign for p in range(lo, hi + 1)]


def _oracle_product(a, b):
    (la, ha, ca), (lb, hb, cb) = a, b
    lo, hi = la + lb, min(ha + lb, la + hb)
    return lo, hi, [sum((ca[i - la] * cb[p - i - lb] for i in range(la, p - lb + 1)),
                        ScalePoly()) for p in range(lo, hi + 1)]


def _oracle_scaled(a, c):
    lo, hi, ca = a
    return lo, hi, [x * c for x in ca]


def _oracle_equal(a, b):
    return not any(_oracle_sum(a, b, -1)[2])


def _random_windowed(rng: random.Random) -> LaurentSeries:
    lo = rng.randint(-5, 2)
    hi = lo + rng.randint(0, 5)
    terms = {}
    for p in range(lo, hi + 1):
        coeffs = {k: rng.choice((rng.randint(-4, 4), F(rng.randint(-9, 9), rng.randint(1, 6))))
                  for k in rng.sample(range(4), rng.randint(1, 3))}
        if rng.random() < 0.3:
            terms[p] = coeffs.get(0, 0)
        elif rng.random() < 0.8:
            terms[p] = ScalePoly(coeffs)
    return LaurentSeries(terms, (lo, hi))


def test_window_algebra_matches_a_cauchy_product_oracle():
    rng = random.Random(20261020)
    with_zero = without_zero = 0
    for _ in range(300):
        a, b = _random_windowed(rng), _random_windowed(rng)
        if a.lo <= 0 <= a.hi:
            with_zero += 1
        else:
            without_zero += 1
        va, vb = _view(a), _view(b)
        c = rng.choice((0, rng.randint(-3, 3), F(rng.randint(-5, 5), rng.randint(2, 5))))
        q = ScalePoly({rng.randrange(4): F(rng.randint(1, 5), rng.randint(1, 3)),
                       rng.randrange(4): rng.randint(-2, 2)})
        cases = [(a + b, _oracle_sum(va, vb)), (a - b, _oracle_sum(va, vb, -1)),
                 (-a, _oracle_scaled(va, -1)), (a * b, _oracle_product(va, vb)),
                 (a * c, _oracle_scaled(va, c)), (c * a, _oracle_scaled(va, c)),
                 (a * q, _oracle_scaled(va, q)), (q * a, _oracle_scaled(va, q)),
                 (a.pole_part(), (a.lo, a.hi, [x if p < 0 else ScalePoly()
                                               for p, x in enumerate(va[2], a.lo)]))]
        for got, want in cases:
            assert _view(got) == want, (a, b, c, q)
            assert all(got.lo <= p <= got.hi for p, _ in got.terms)
        assert (a == b) == _oracle_equal(va, vb)
        # copies that differ from a only where one side is truncated are
        # equal to it; one changed coefficient in the overlap is not
        h = rng.randint(a.lo, a.hi)
        whole = {p: a.coeff(p) for p in range(a.lo, a.hi + 1)}
        narrower = LaurentSeries({p: whole[p] for p in range(a.lo, h + 1)},
                                 (a.lo - rng.randint(0, 2), h))
        wider = LaurentSeries({**whole, a.hi + 1: rng.randint(1, 3)}, (a.lo, a.hi + 1))
        changed = a + LaurentSeries({h: 1}, a.window)
        for other, same in ((narrower, True), (wider, True), (changed, False)):
            assert (a == other) == (other == a) == _oracle_equal(va, _view(other)) == same
    assert with_zero and without_zero


# -- toy rule values -----------------------------------------------------------

def test_single_vertex_value_symbolic():
    rules = ToyRules()
    v = toy_feynman_rules(rules, leaf("g"))
    # exp(-eps L)/eps = 1/eps - L + (L^2/2) eps - (L^3/6) eps^2 + ...
    assert v.coeff(-1) == ScalePoly.const(1)
    assert v.coeff(0) == ScalePoly.L(1, -1)
    assert v.coeff(1) == ScalePoly.L(2, F(1, 2))
    assert v.coeff(2) == ScalePoly.L(3, F(-1, 6))


def test_two_rung_ladder_value_symbolic():
    v = toy_feynman_rules(ToyRules(), ladder(2))
    # exp(-2 eps L)/(2 eps^2)
    assert v.coeff(-2) == ScalePoly.const(F(1, 2))
    assert v.coeff(-1) == ScalePoly.L(1, -1)
    assert v.coeff(0) == ScalePoly.L(2, 1)
    assert v.coeff(1) == ScalePoly.L(3, F(-2, 3))


def test_cherry_value_symbolic():
    cherry = Tree("g", [leaf("g"), leaf("g")])
    v = toy_feynman_rules(ToyRules(), cherry)
    # exp(-3 eps L)/(3 eps^3)
    assert v.coeff(-3) == ScalePoly.const(F(1, 3))
    assert v.coeff(-2) == ScalePoly.L(1, -1)
    assert v.coeff(-1) == ScalePoly.L(2, F(3, 2))
    assert v.coeff(0) == ScalePoly.L(3, F(-3, 2))


def test_ladder_values_at_zero_scale():
    import math
    rules = ToyRules(scale=F(0), window=(-5, 2))
    for n in range(1, 6):
        v = toy_feynman_rules(rules, ladder(n))
        want = LaurentSeries({-n: F(1, math.factorial(n))}, (-5, 2))
        assert v == want


def test_residues_scale_values():
    rules = ToyRules(residues={"a": F(2), "b": F(1, 3)})
    va = toy_feynman_rules(rules, leaf("a"))
    vb = toy_feynman_rules(rules, leaf("b"))
    base = toy_feynman_rules(ToyRules(), leaf("g"))
    assert va == base * F(2)
    assert vb == base * F(1, 3)
    # multiplicative over a mixed forest
    both = toy_feynman_rules(rules, ForestSum.of(leaf("a")) * ForestSum.of(leaf("b")))
    assert both == base * base * F(2, 3)


def test_rules_character_is_multiplicative():
    phi = rules_character(ToyRules())
    for f in all_forests(3):
        split = LaurentSeries.const(1, (0, 11))
        for t in f:
            split = split * phi.on_tree(t)
        assert phi.on_forest(f) == split


# -- counterterms and renormalized values --------------------------------------

def test_counterterm_low_grades():
    rules = ToyRules()
    assert counterterm(rules, leaf("g")) == LaurentSeries({-1: F(-1)}, (-8, 2))
    assert counterterm(rules, ladder(2)) == LaurentSeries({-2: F(1, 2)}, (-8, 2))


def test_counterterms_are_scale_independent():
    # minimal subtraction: the L-dependence drops out of every counterterm
    rules = ToyRules()
    for f in all_forests_up_to(4):
        v = counterterm(rules, f)
        for p in {p for p, _ in v.terms}:
            assert set(v.coeff(p).terms) <= {0}


def test_renormalized_low_grades():
    rules = ToyRules()
    r1 = renormalized_value(rules, leaf("g"))
    assert r1.is_pole_free()
    assert r1.coeff(0) == ScalePoly.L(1, -1)        # -L
    r2 = renormalized_value(rules, ladder(2))
    assert r2.is_pole_free()
    assert r2.coeff(0) == ScalePoly.L(2, F(1, 2))   # L^2/2
    assert r2.coeff(1) == ScalePoly.L(3, F(-1, 2))
    cherry = Tree("g", [leaf("g"), leaf("g")])
    r3 = renormalized_value(rules, cherry)
    assert r3.is_pole_free()


def test_renormalized_vanishes_at_zero_scale():
    rules = ToyRules(scale=F(0), window=(-4, 2))
    for f in all_forests_up_to(4):
        if not f.trees:
            continue
        v = renormalized_value(rules, f)
        assert v.is_pole_free()
        assert v.coeff(0) == ScalePoly()


def test_pole_freeness_to_grade_five():
    rules = ToyRules(window=(-5, 1))
    sol = solve(DSESpec((Cocycle("g", F(1)),), order=5))
    for n in range(1, 6):
        assert renormalized_value(rules, sol.coefficients[n]).is_pole_free()


def test_counterterm_is_multiplicative():
    rules = ToyRules()
    fs = [f for f in all_forests_up_to(2) if f.trees]
    for a in fs:
        for b in fs:
            prod = ForestSum.of(a) * ForestSum.of(b)
            assert counterterm(rules, prod) == \
                counterterm(rules, a) * counterterm(rules, b)


def test_renormalized_equals_convolution():
    rules = ToyRules()
    sr = counterterm_character(rules)
    phi = rules_character(rules)
    for f in all_forests_up_to(4):
        assert convolve(sr, phi, f) == renormalized_value(rules, f)


def test_birkhoff_reconstruction():
    # (counterterm o antipode) * renormalized = plain rules
    rules = ToyRules()
    for f in all_forests_up_to(4):
        total = LaurentSeries.zero(rules.window)
        for (l, r), c in coproduct(ForestSum.of(f)).terms.items():
            left = counterterm(rules, antipode(ForestSum.of(l)))
            right = renormalized_value(rules, r)
            total = total + left * right * c
        assert total == toy_feynman_rules(rules, f)


# -- forest-level oracle -------------------------------------------------------
#
# Production evaluates the rules by their closed form and runs BPHZ once per
# tree size, relying on the character property and the tree-factorial group.
# This reference does neither: the rules follow the recursive grafting rule,
# and the counterterm recursion runs on whole forests over the reduced
# coproduct, S(f) = -R(phi(f) + sum' S(f'_root) phi(f'_pruned)).

class _ForestOracle:
    def __init__(self, rules):
        self.rules = rules
        e = rules._exp_order
        self.one = LaurentSeries.const(1, (0, e))
        exp = {}
        for k in range(e + 1):
            c = F((-1) ** k, math.factorial(k))
            exp[k] = ScalePoly.L(k, c) if rules.scale is None else c * rules.scale ** k
        self.exp = LaurentSeries(exp, (0, e))  # exp(-eps L) up to eps^E
        self.tree_values = {}
        self.counterterms = {}

    def phi_tree(self, t):
        # phi(B+_d(w)) = r_d exp(-eps L) / ((|w|+1) eps) phi(w)
        if t not in self.tree_values:
            w = Forest(t.children)
            pref = self.exp * LaurentSeries(
                {-1: self.rules.residue(t.label) / (w.grade + 1)},
                (-1, self.rules._exp_order - 1))
            self.tree_values[t] = pref * self.phi(w)
        return self.tree_values[t]

    def phi(self, f):
        val = self.one
        for t in f.trees:
            val = val * self.phi_tree(t)
        return val

    def prepared(self, f):
        total = self.phi(f)
        for (l, r), c in reduced_coproduct(f).terms.items():
            total = total + self.counterterm(l) * self.phi(r) * c
        return total

    def counterterm(self, f):
        if not f.trees:
            return self.one
        if f not in self.counterterms:
            self.counterterms[f] = -self.prepared(f).pole_part()
        return self.counterterms[f]

    def linear(self, value, x):
        xs = x if isinstance(x, ForestSum) else ForestSum.of(x)
        total = LaurentSeries.zero(self.rules.window)
        for f, c in xs.terms.items():
            total = total + value(f) * c
        return total


def _same(got, want):
    """Equal coefficients and equal windows, not just agreement on the overlap."""
    return got.window == want.window and got.terms == want.terms


def _size_recursion(rules, top):
    """[(E_n, s_n, r_n) for n = 0..top]: the rules, the counterterm and the
    renormalized value of every size-n tree divided by its weight, by the
    Bogoliubov preparation grouped by tree size,

        q_n = sum_(k<n) C(n,k) s_k E_(n-k),  s_0 = 1,  s_n = -R(q_n),  r_n = q_n - R(q_n),

    with E_n = (exp(-eps L)/eps)^n as a power of the oracle's one-vertex
    factor; windows start from (0, E), that of phi(1)."""
    ref = _ForestOracle(rules)
    step = ref.exp * LaurentSeries({-1: 1}, (-1, rules._exp_order - 1))
    es = [ref.one]
    for _ in range(top):
        es.append(es[-1] * step)
    out = [(ref.one, ref.one, ref.one)]
    for n in range(1, top + 1):
        q = LaurentSeries.zero(ref.one.window)
        for k in range(n):
            q = q + out[k][1] * es[n - k] * math.comb(n, k)
        out.append((es[n], -q.pole_part(), q - q.pole_part()))
    return out


def test_closed_form_series_equal_the_size_recursion():
    # production evaluates ((a exp(-eps L) - c)/eps)^n in closed form
    for scale in (None, F(1, 2), F(-3, 7)):
        for window in ((-8, 2), (-16, 2), (-20, 5), (-3, 0)):
            rules = ToyRules(scale=scale, window=window)
            for n, (e, s, r) in enumerate(_size_recursion(rules, 16)):
                case = (scale, window, n)
                assert _same(_series(rules, _RULES, n), e), case
                assert _same(_series(rules, _COUNTERTERM, n), s), case
                assert _same(_series(rules, _RENORMALIZED, n), r), case


def test_renormalized_series_coefficients_are_stirling_numbers():
    # the eps^p coefficient of ((exp(-eps L) - 1)/eps)^n is
    # (-L)^(n+p) n! S(n+p, n) / (n+p)!, with S(k, n) = 0 for k < n
    from sympy.functions.combinatorial.numbers import stirling
    rules = ToyRules(window=(-16, 4))
    for n in range(17):
        r = _series(rules, _RENORMALIZED, n)
        assert r.window == (-n, rules._exp_order - n)
        for p in range(-n, rules._exp_order - n + 1):
            k = n + p
            want = F((-1) ** k * math.factorial(n) * int(stirling(k, n)), math.factorial(k))
            assert r.coeff(p) == ScalePoly.L(k, want), (n, p)


_TWO_LABEL_RULES = dict(residues={"g": F(3, 2), "h": F(-2)})


def test_bphz_equals_forest_level_oracle():
    sol = solve(DSESpec((Cocycle("g", F(1)),), order=5))
    cases = [(ToyRules(), all_forests_up_to(5) + list(sol.coefficients)),
             (ToyRules(scale=F(1, 2)), all_forests_up_to(5)),
             (ToyRules(**_TWO_LABEL_RULES), all_forests_up_to(4, ("g", "h")))]
    assert [len(all_forests_up_to(5)), len(cases[2][1])] == [37, 143]
    for rules, xs in cases:
        ref = _ForestOracle(rules)
        for x in xs:
            ct = ref.linear(ref.counterterm, x)
            prep = ref.linear(ref.prepared, x)
            assert _same(counterterm(rules, x), ct), x
            assert _same(bogoliubov(rules, x), prep), x
            assert _same(renormalized_value(rules, x), prep + ct), x
            assert _same(toy_feynman_rules(rules, x), ref.linear(ref.phi, x)), x


def test_closed_form_equals_recursive_rule():
    for rules, labels, top in ((ToyRules(), ("g",), 6),
                               (ToyRules(scale=F(1, 2)), ("g",), 6),
                               (ToyRules(scale=F(-1, 3), **_TWO_LABEL_RULES),
                                ("g", "h"), 4)):
        phi = rules_character(rules)
        ref = _ForestOracle(rules)
        for n in range(1, top + 1):
            for t in all_trees(n, labels):
                assert _same(phi.on_tree(t), ref.phi_tree(t)), t


def test_grouped_preparation_equals_term_by_term_sum():
    # production prepares every size-n tree t as w(t) (r_n - s_n), with the
    # closed-form series r_n and s_n of phi_+ and S; here every term
    # S(l) phi(r) of the reduced coproduct of t is its own Laurent product
    for rules, labels, top in ((ToyRules(), ("g",), 7),
                               (ToyRules(scale=F(1, 2)), ("g",), 7),
                               (ToyRules(**_TWO_LABEL_RULES), ("g", "h"), 5)):
        phi, s = rules_character(rules), counterterm_character(rules)
        for n in range(1, top + 1):
            s_n, r_n = _series(rules, _COUNTERTERM, n), _series(rules, _RENORMALIZED, n)
            for t in all_trees(n, labels):
                want = phi.on_tree(t)
                for (l, r), c in reduced_coproduct(t).terms.items():
                    want = want + s.on_forest(l) * phi.on_forest(r) * c
                assert _same((r_n - s_n) * _weight(rules, t), want), t


def _tree_factorial(t: Tree) -> int:
    return t.size * math.prod(map(_tree_factorial, t.children))


def test_tree_factorial_characters_form_a_group():
    # a_x(t) = x^|t| / t! satisfies a_x * a_y = a_(x+y) as polynomials in
    # x and y: the cuts of a size-n tree whose root part has k vertices
    # carry C(n, k) / t! in all, which BPHZ by tree size rests on
    def a(x):
        return Character(lambda t: MultiPoly.var(x, t.size, F(1, _tree_factorial(t))),
                         MultiPoly.unit(), target="poly")

    ax, ay = a("x"), a("y")
    x_plus_y = MultiPoly.var("x") + MultiPoly.var("y")
    trees = [t for n in range(1, 8) for t in all_trees(n, ("g", "h"))]
    assert len(trees) == 5318
    for x in trees + all_forests_up_to(5, ("g", "h")):
        f = x if isinstance(x, Forest) else Forest((x,))
        want = math.prod((x_plus_y ** t.size * F(1, _tree_factorial(t)) for t in f.trees),
                         start=MultiPoly.unit())
        assert convolve(ax, ay, x) == want, x


def test_convolve_matches_the_per_term_oracle_on_series_characters():
    # the merged-row convolution against the sum over every coproduct
    # term, for Laurent-valued and polynomial-valued characters, on
    # forests, generators and a sum with an empty-forest term; a Laurent
    # value keeps the per-term window as well
    def a(x):
        return Character(lambda t: MultiPoly.var(x, t.size, F(1, _tree_factorial(t))),
                         MultiPoly.unit(), target="poly")

    ax, ay = a("x"), a("y")
    for rules, spec in ((ToyRules(), DSESpec((Cocycle("g", F(1)),), order=7)),
                        (ToyRules(**_TWO_LABEL_RULES),
                         DSESpec((Cocycle("g", F(1)), Cocycle("h", F(1, 2))), order=6))):
        sr, phi = counterterm_character(rules), rules_character(rules)
        labels = tuple(c.decoration for c in spec.cocycles)
        xs = solve(spec).coefficients
        elements = [ForestSum.of(f) for f in all_forests_up_to(4, labels)] + list(xs) + [
            xs[5] - 2 * xs[3] + F(1, 2) * ForestSum.unit()]
        for x in elements:
            got, want = convolve(sr, phi, x), ref_convolve(sr, phi, x)
            assert got == want and got.window == want.window, x
            assert convolve(ax, ay, x) == ref_convolve(ax, ay, x), x


def test_convolve_refuses_characters_with_different_targets():
    phi = rational_character(lambda t: F(t.size), "size")
    sr = rules_character(ToyRules())
    for f, g in ((phi, sr), (sr, phi)):
        with pytest.raises(ValueError, match=f"targets {f.target!r} and {g.target!r}"):
            convolve(f, g, leaf("g"))


def test_renormalization_group_convolution():
    # at eps^0, phi_+ at scale a+b is phi_+ at a convolved with phi_+ at b
    a, b = F(1, 3), F(-5, 2)
    for rules, forests in ((ToyRules(), all_forests_up_to(5)),
                           (ToyRules(**_TWO_LABEL_RULES),
                            all_forests_up_to(4, ("g", "h")))):
        def finite(at):
            return rational_character(
                lambda t: _at(renormalized_value(rules, t).coeff(0), at))
        left, right, both = finite(a), finite(b), finite(a + b)
        for f in forests:
            assert convolve(left, right, f) == both(f), f


def test_bogoliubov_plus_counterterm():
    rules = ToyRules()
    for f in all_forests_up_to(3):
        assert bogoliubov(rules, f) + counterterm(rules, f) == \
            renormalized_value(rules, f)


def test_birkhoff_pair_bundles_both_factors():
    rules = ToyRules()
    pair = birkhoff(rules, ladder(2))
    assert isinstance(pair, BirkhoffPair)
    assert pair.negative == counterterm(rules, ladder(2))
    assert pair.positive == renormalized_value(rules, ladder(2))


# -- window policy -------------------------------------------------------------

def test_rules_window_must_contain_zero():
    with pytest.raises(ValueError):
        ToyRules(window=(1, 2))
    with pytest.raises(ValueError):
        ToyRules(window=(-3, -1))


def test_narrow_window_raises_with_required_floor():
    rules = ToyRules(window=(-2, 2))
    with pytest.raises(WindowError) as exc:
        toy_feynman_rules(rules, ladder(3))
    assert "-3" in str(exc.value)
    for fn in (counterterm, bogoliubov):
        with pytest.raises(WindowError) as exc:
            fn(rules, ladder(3))
        assert "-3" in str(exc.value)


def test_renormalize_solution_widens_and_reports():
    sol = solve(DSESpec((Cocycle("g", F(1)),), order=4))
    rules = ToyRules(window=(-2, 2))
    rep = renormalize_solution(rules, sol, 4)
    assert isinstance(rep, RenormReport)
    assert rep.widened
    assert rep.window == (-4, 2)
    assert rep.order == 4
    assert rep.scale_symbolic
    assert rules.window == (-2, 2)  # caller's rules untouched
    assert len(rep.renormalized) == 4
    for v in rep.renormalized:
        assert v.is_pole_free()
    # grade n counterterm has its deepest pole at eps^-n
    assert rep.counterterms[3].coeff(-4) != ScalePoly()


def test_renormalize_solution_strict_window():
    sol = solve(DSESpec((Cocycle("g", F(1)),), order=4))
    rules = ToyRules(window=(-2, 2))
    with pytest.raises(WindowError) as exc:
        renormalize_solution(rules, sol, 4, widen=False)
    assert "-4" in str(exc.value)
    rep = renormalize_solution(rules, sol, 2, widen=False)
    assert not rep.widened
    assert rep.window == (-2, 2)


def test_renormalize_solution_range_check():
    sol = solve(DSESpec((Cocycle("g", F(1)),), order=3))
    rules = ToyRules()
    with pytest.raises(ValueError):
        renormalize_solution(rules, sol, 0)
    with pytest.raises(ValueError):
        renormalize_solution(rules, sol, 4)


# -- BPHZ on the generators against per-tree BPHZ ----------------------------------

_G, _H = Cocycle("g", F(1)), Cocycle("h", F(1, 2))
GENERATOR_CASES = {
    "g-symbolic": (DSESpec((_G,), 9), ToyRules()),
    "g-half-residue": (DSESpec((_G,), 8), ToyRules(residues={"g": F(3, 2)}, scale=F(1, 2))),
    "gh-residues": (DSESpec((_G, _H), 7), ToyRules(residues={"g": F(1), "h": F(2)})),
    "omega-zero": (DSESpec((Cocycle("g", F(0)),), 5), ToyRules()),
    "omega-negative": (DSESpec((Cocycle("g", F(-3, 2)),), 6), ToyRules(scale=F(2))),
    "residue-zero": (DSESpec((_G, Cocycle("h", F(1))), 6), ToyRules(residues={"g": F(0)})),
    "same-decoration": (DSESpec((_G, Cocycle("g", F(2, 3))), 6), ToyRules()),
    "only-j2": (DSESpec((Cocycle("g", F(0)), Cocycle("h", F(1))), 7), ToyRules()),
    "negative-scale": (DSESpec((_G, _H), 6),
                       ToyRules(scale=F(-1, 3), **_TWO_LABEL_RULES)),
    "widened": (DSESpec((_G,), 6), ToyRules(window=(-2, 1))),
    "wide-window": (DSESpec((_G, _H), 5), ToyRules(scale=F(1, 2), window=(-10, 4))),
    "top-zero": (DSESpec((_G, _H), 6), ToyRules(window=(-6, 0))),
}


@pytest.mark.parametrize("case", sorted(GENERATOR_CASES))
def test_generator_bphz_equals_per_tree_bphz(case):
    # both sides sum the same per-size series, so this checks the size
    # weights the equation gives against the trees, and the window policy;
    # the closed-coproduct recursion below is the independent oracle
    spec, rules = GENERATOR_CASES[case]
    sol = solve(spec)
    rep = renormalize_solution(rules, sol, spec.order)
    assert rep.widened == (rep.window != rules.window)
    tree_rules = ToyRules(residues=rules.residues, scale=rules.scale, window=rep.window)
    for n in range(1, spec.order + 1):
        xn = sol.coefficients[n]
        assert _same(rep.renormalized[n - 1], renormalized_value(tree_rules, xn)), n
        assert _same(rep.counterterms[n - 1], counterterm(tree_rules, xn)), n
    if rep.widened:
        with pytest.raises(WindowError) as exc:
            renormalize_solution(rules, sol, spec.order, widen=False)
        assert str(-spec.order) in str(exc.value)
        with pytest.raises(WindowError):
            counterterm(rules, sol.coefficients[spec.order])


def _power_part(xs, p, d):
    """Grade-d part of (xs[0] + xs[1] + ...)^p for graded pieces of one
    ring with xs[0] = 1 and p >= 1."""
    out = list(xs[:d + 1])
    for _ in range(p - 1):
        out = [sum((out[i] * xs[g - i] for i in range(g + 1)), xs[0] * 0)
               for g in range(d + 1)]
    return out[d]


def _size_weights(rules, sol, m):
    """[1, a_1, .., a_m]: a_n[s] is the sum of c w(t) over the size-s trees
    c t of X_n, as a ScalePoly keyed by size."""
    weights = [ScalePoly.unit()]
    for xn in sol.coefficients[1:m + 1]:
        a = ScalePoly()
        for f, c in xn.terms.items():
            (t,) = f.trees
            a = a + ScalePoly.L(t.size, c * _weight(rules, t))
        weights.append(a)
    return weights


def _generator_recursion(rules, sol, m):
    """(renormalized, counterterms) of X_1..X_m through the closed
    coproduct delta(X_n) = sum_k X_k (x) [X^(k+1)]_(n-k): the preparation of
    X_n is phi(X_n) + sum_(0<k<n) S(X_k) phi([X^(k+1)]_(n-k)).  A ScalePoly
    keyed by size s stands for sum_s a[s] E_s, as E_a E_b = E_(a+b); the
    size weights a_n are read off the trees of the solution.  Values stay
    exact on their natural windows, which start from (0, E), and are cut
    to the rules window at the end."""
    weights = _size_weights(rules, sol, m)

    def phi(a):
        total = LaurentSeries.zero((0, rules._exp_order))
        for s, c in a.terms.items():
            total = total + _series(rules, _RULES, s) * c
        return total

    preps, cts = [], []
    for n in range(1, m + 1):
        prep = phi(weights[n])
        for k in range(1, n):
            prep = prep + cts[k - 1] * phi(_power_part(weights, k + 1, n - k))
        preps.append(prep)
        cts.append(-prep.pole_part())
    cut = LaurentSeries.zero(rules.window)
    return [cut + (p - p.pole_part()) for p in preps], [cut + s for s in cts]


def test_scale_composition_on_generators():
    # at eps^0: phi_+(X_n) at a+b = sum_k phi_+(X_k) at a * [Phi_+ at b ^ (k+1)]_(n-k),
    # Phi_+ = sum_j phi_+(X_j), the closed coproduct under phi_+(a) * phi_+(b)
    a, b = F(1, 3), F(-5, 2)
    for case in ("g-symbolic", "gh-residues", "same-decoration"):
        spec, rules = GENERATOR_CASES[case]
        rep = renormalize_solution(rules, solve(spec), spec.order)

        def finite(at):
            return [F(1)] + [_at(v.coeff(0), at) for v in rep.renormalized]

        left, right, both = finite(a), finite(b), finite(a + b)
        for n in range(1, spec.order + 1):
            assert both[n] == sum(left[k] * _power_part(right, k + 1, n - k)
                                  for k in range(n + 1)), (case, n)


def test_renormalize_solution_grade_12_reads_no_tree_and_is_fast():
    """The time bound catches a return to per-tree BPHZ, which took 8.5 s
    at grade 12; the report depends on the spec alone."""
    spec = DSESpec((_G,), 12)
    sol = solve(spec)
    start = time.perf_counter()
    rep = renormalize_solution(ToyRules(), sol, 12)
    elapsed = time.perf_counter() - start
    assert all(v.is_pole_free() for v in rep.renormalized)
    blank = DSESolution(spec, (ForestSum.unit(),) + (ForestSum.zero(),) * 12)
    assert renormalize_solution(ToyRules(), blank, 12) == rep
    assert elapsed < 1.0


def test_per_tree_bphz_of_grade_10_is_fast():
    """Per-tree counterterm and renormalized value of X_10 of the g, h spec
    (3393 trees) in under 3 s.  The time bound catches a return to one
    Bogoliubov preparation per tree over the reduced coproduct, which took
    10.3 s in one in-process run on 2 vCPUs."""
    spec = DSESpec((_G, _H), 10)
    sol = solve(spec)
    rules = ToyRules(window=(-10, 2))
    start = time.perf_counter()
    ct = counterterm(rules, sol.coefficients[10])
    ren = renormalized_value(rules, sol.coefficients[10])
    elapsed = time.perf_counter() - start
    assert len(sol.coefficients[10].terms) == 3393
    rep = renormalize_solution(rules, sol, 10)
    assert _same(ct, rep.counterterms[9]) and _same(ren, rep.renormalized[9])
    assert elapsed < 3.0


def test_toy_rules_are_immutable():
    # values are cached on the rules, so a changed field would leave
    # stale values behind; every field refuses assignment instead
    residues = {"g": F(2)}
    rules = ToyRules(residues=residues)
    before = renormalized_value(rules, ladder(2))
    with pytest.raises(AttributeError):
        rules.residues = {"g": F(3)}
    with pytest.raises(TypeError):
        rules.residues["g"] = F(3)
    for name, value in (("scale", F(1)), ("window", (-3, 2)), ("_phi", None)):
        with pytest.raises(AttributeError):
            setattr(rules, name, value)
    residues["g"] = F(3)
    assert rules.residue("g") == 2
    assert _same(renormalized_value(rules, ladder(2)), before)
    assert _same(before, renormalized_value(ToyRules(residues={"g": F(2)}), ladder(2)))
    assert not _same(before, renormalized_value(ToyRules(), ladder(2)))


def test_equal_toy_rules_hash_alike_and_share_the_caches():
    a = ToyRules(residues={"g": 2, "h": F(1, 3)}, scale=F(1, 2), window=[-6, 2])
    b = ToyRules(residues={"h": F(1, 3), "g": F(2)}, scale=F(1, 2), window=(-6, 2))
    assert type(a.window) is tuple and a.window == (-6, 2)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != ToyRules(residues={"g": 2, "h": F(1, 3)}, window=(-6, 2))
    assert rules_character(a) is rules_character(b)
    assert counterterm_character(a) is counterterm_character(b)
    sol = solve(DSESpec(cocycles=(Cocycle("g", 1), Cocycle("h", F(1, 2))),
                        order=5, coupling=F(1, 2)))
    first = renormalize_solution(a, sol, 5)
    before = _series.cache_info()
    second = renormalize_solution(b, sol, 5)
    after = _series.cache_info()
    assert after.misses == before.misses and after.hits > before.hits
    assert all(map(_same, first.renormalized, second.renormalized))
    assert all(map(_same, first.counterterms, second.counterterms))


# -- the renormalization group on the generators -----------------------------------

def test_tree_finite_parts_are_powers_of_minus_L():
    # phi_+(t) at eps^0 is w(t) (-L)^|t|: its L-derivative at L = 0 lives
    # on the one-vertex trees, where it is -r_d
    rules = ToyRules(residues={"g": F(3, 2), "h": F(-2)})
    for n in range(1, 7):
        for t in all_trees(n, ("g", "h")):
            want = ScalePoly.L(n, _weight(rules, t) * (-1) ** n)
            assert renormalized_value(rules, t).coeff(0) == want, t


def _rg_finite_parts(spec: DSESpec, rules: ToyRules, m: int) -> list[ScalePoly]:
    """sum_p P_p(n) L^p for n = 1..m: gamma_n = -omega_n r_(d_n) for the
    cocycle at coupling power n (0 beyond the last), P_0(n) = delta_(n0)
    and P_p(n) = (1/p) sum_(k<n) (k+1) P_(p-1)(k) gamma_(n-k)."""
    gamma = [F(0)] * (m + 1)
    for j, coc in enumerate(spec.cocycles[:m], 1):
        gamma[j] = -coc.omega * rules.residue(coc.decoration)
    ps = [[F(1)] + [F(0)] * m]
    for p in range(1, m + 1):
        prev = ps[-1]
        ps.append([sum((F(k + 1) * prev[k] * gamma[n - k] for k in range(n)), F(0)) / p
                   for n in range(m + 1)])
    return [ScalePoly({p: ps[p][n] for p in range(m + 1)}) for n in range(1, m + 1)]


RG_CASES = {
    "g-12": (DSESpec((_G,), 12), ToyRules()),
    "gh-residues-8": (DSESpec((_G, _H), 8), ToyRules(residues={"g": F(1), "h": F(2)})),
    "omega-negative-10": (DSESpec((Cocycle("g", F(-3, 2)),), 10),
                          ToyRules(residues={"g": F(3, 2)})),
    "half-scale": (DSESpec((_G, _H), 8), ToyRules(scale=F(1, 2))),
    "three-cocycles": (DSESpec((_G, _H, Cocycle("k", F(2, 3))), 8),
                       ToyRules(residues={"h": F(-1), "k": F(5, 4)})),
    "omega1-zero": (DSESpec((Cocycle("g", F(0)), Cocycle("h", F(1))), 9), ToyRules()),
}


@pytest.mark.parametrize("case", sorted(RG_CASES))
def test_generator_finite_parts_follow_the_renormalization_group(case):
    spec, rules = RG_CASES[case]
    sol = solve(spec)
    rep = renormalize_solution(rules, sol, spec.order)
    weights = _size_weights(rules, sol, spec.order)
    for n, want in enumerate(_rg_finite_parts(spec, rules, spec.order), 1):
        # phi_+(t) at eps^0 is w(t) (-L)^|t|, so P_p(n) = (-1)^p a_n[p]
        assert want == ScalePoly({p: (-1) ** p * a for p, a in weights[n].terms.items()}), n
        got = rep.renormalized[n - 1].coeff(0)
        if rules.scale is not None:
            want = ScalePoly.const(_at(want, rules.scale))
        assert got == want, (n, got, want)


@pytest.mark.parametrize("case", sorted(GENERATOR_CASES) + sorted(RG_CASES))
def test_generator_bphz_equals_the_closed_coproduct_recursion(case):
    spec, rules = GENERATOR_CASES.get(case) or RG_CASES[case]
    sol = solve(spec)
    rep = renormalize_solution(rules, sol, spec.order)
    tree_rules = ToyRules(residues=rules.residues, scale=rules.scale, window=rep.window)
    renormalized, cts = _generator_recursion(tree_rules, sol, spec.order)
    for n in range(1, spec.order + 1):
        assert _same(rep.renormalized[n - 1], renormalized[n - 1]), n
        assert _same(rep.counterterms[n - 1], cts[n - 1]), n
