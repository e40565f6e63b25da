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
                              all_trees, ladder, leaf, Tree)
from dsegraphon.hopf import (antipode, convolve, coproduct, rational_character,
                             reduced_coproduct)
from dsegraphon.dse import Cocycle, DSESolution, DSESpec, solve
from dsegraphon.renorm import (BirkhoffPair, LaurentSeries, RenormReport,
                               ScalePoly, ToyRules, WindowError, _preparation,
                               _weight, birkhoff, bogoliubov, counterterm,
                               counterterm_character, pole_part,
                               renormalize_solution, renormalized_value,
                               rules_character, toy_feynman_rules)


# -- scale polynomials ---------------------------------------------------------

def test_scale_poly_arithmetic():
    p = ScalePoly.L(2, F(3)) + ScalePoly.const(F(1, 2))  # 3L^2 + 1/2
    q = ScalePoly.L(1) - 1                               # L - 1
    assert (p * q).coeff(3) == 3
    assert (p * q).coeff(2) == -3
    assert (p * q).coeff(1) == F(1, 2)
    assert (p * q).coeff(0) == -F(1, 2)
    assert p.derivative() == ScalePoly.L(1, 6)
    assert p.eval(F(2)) == 12 + F(1, 2)
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


def test_pole_and_regular_split():
    s = LaurentSeries({-2: F(1), -1: ScalePoly.L(1), 0: F(3), 1: F(4)}, (-3, 2))
    assert s.pole_part() + s.regular_part() == s
    assert s.pole_part().terms.keys() == {-2, -1}
    assert not s.is_pole_free()
    assert s.regular_part().is_pole_free()


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
        lhs = pole_part(a) * pole_part(b)
        rhs = (pole_part(pole_part(a) * b) + pole_part(a * pole_part(b))
               - pole_part(a * b))
        assert lhs == rhs
    # and idempotent
    s = _random_series(rng)
    assert pole_part(pole_part(s)) == pole_part(s)


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
        for c in v.terms.values():
            assert set(c.coeffs) <= {0}


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
        if f.is_empty():
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
    fs = [f for f in all_forests_up_to(2) if not f.is_empty()]
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
# Production evaluates the rules by their closed form and runs BPHZ on trees
# only, relying on the character property.  This reference does neither: the
# rules follow the recursive grafting rule, and the counterterm recursion runs
# on whole forests, S(f) = -R(phi(f) + sum' S(f'_root) phi(f'_pruned)).

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
        if f.is_empty():
            return self.one
        if f not in self.counterterms:
            self.counterterms[f] = -pole_part(self.prepared(f))
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
    # production folds the reduced-coproduct terms per pruned grade n and
    # multiplies each grade's sum by exp(-eps L n)/eps^n once; here every
    # term S(l) phi(r) is its own Laurent product
    for rules, labels, top in ((ToyRules(), ("g",), 7),
                               (ToyRules(scale=F(1, 2)), ("g",), 7),
                               (ToyRules(**_TWO_LABEL_RULES), ("g", "h"), 5)):
        phi, s = rules_character(rules), counterterm_character(rules)
        for n in range(1, top + 1):
            for t in all_trees(n, labels):
                want = phi.on_tree(t)
                for (l, r), c in reduced_coproduct(t).terms.items():
                    want = want + s.on_forest(l) * phi.on_forest(r) * c
                assert _same(_preparation(rules, t), want), t


def test_renormalization_group_convolution():
    # at eps^0, phi_+ at scale a+b is phi_+ at a convolved with phi_+ at b
    a, b = F(1, 3), F(-5, 2)
    for rules, forests in ((ToyRules(), all_forests_up_to(5)),
                           (ToyRules(**_TWO_LABEL_RULES),
                            all_forests_up_to(4, ("g", "h")))):
        def finite(at):
            return rational_character(
                lambda t: renormalized_value(rules, t).coeff(0).eval(at))
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


def test_scale_derivative_exact_vs_difference():
    # coefficients are polynomial in L, so a central difference with a
    # quadratic-exactness step reproduces the derivative exactly
    rules = ToyRules()
    v = renormalized_value(rules, leaf("g"))
    d = v.scale_derivative()
    assert d.coeff(0) == ScalePoly.const(-1)
    h = F(1, 7)
    fd = (v.eval_scale(h).coeff(0).eval(0) - v.eval_scale(-h).coeff(0).eval(0)) / (2 * h)
    assert fd == d.coeff(0).eval(0)
    # same check on the two-rung ladder at a nonzero base point: degree <= 2
    # in the finite part, so the central difference is again exact
    w = renormalized_value(rules, ladder(2))
    base = F(1, 3)
    fd2 = (w.eval_scale(base + h).coeff(0).eval(0)
           - w.eval_scale(base - h).coeff(0).eval(0)) / (2 * h)
    assert fd2 == w.scale_derivative().coeff(0).eval(base)


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
    """Grade-d part of (xs[0] + xs[1] + ...)^p for graded rationals."""
    out = [F(1)] + [F(0)] * d
    for _ in range(p):
        out = [sum(out[i] * xs[g - i] for i in range(g + 1)) for g in range(d + 1)]
    return out[d]


def test_scale_composition_on_generators():
    # at eps^0: phi_+(X_n) at a+b = sum_k phi_+(X_k) at a * [Phi_+ at b ^ (k+1)]_(n-k),
    # Phi_+ = sum_j phi_+(X_j), the closed coproduct under phi_+(a) * phi_+(b)
    a, b = F(1, 3), F(-5, 2)
    for case in ("g-symbolic", "gh-residues", "same-decoration"):
        spec, rules = GENERATOR_CASES[case]
        rep = renormalize_solution(rules, solve(spec), spec.order)

        def finite(at):
            return [F(1)] + [v.coeff(0).eval(at) for v in rep.renormalized]

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
    rep = renormalize_solution(rules, solve(spec), spec.order)
    for n, want in enumerate(_rg_finite_parts(spec, rules, spec.order), 1):
        got = rep.renormalized[n - 1].coeff(0)
        if rules.scale is not None:
            want = ScalePoly.const(want.eval(rules.scale))
        assert got == want, (n, got, want)
