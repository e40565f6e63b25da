"""Dyson-Schwinger solver against an independent fixed-point iteration.

The oracle below never uses the production grade-by-grade recursion: it
iterates the raw equation Y <- 1 + sum_j omega_j B+_j(Y^(j+1)) on graded
coefficient lists with naive truncated products until it stabilizes.
Witness decompositions are frozen from generated-and-hand-checked runs,
cross-checked against the closed form
delta(X_n) = sum_k X_k (x) (X^(k+1))_(n-k), and against the unique
solution of the linear system over all forest pairs, solved by sympy.
"""

from fractions import Fraction as F

import pytest
import sympy

from dsegraphon.trees import ForestSum, Tree, ladder, leaf
from dsegraphon.hopf import TensorSum, coproduct, graft
from dsegraphon.dse import (Cocycle, DSESpec, DSESolution, rescale, solve,
                            structural_sum, subalgebra_witness)

SPEC_A = DSESpec((Cocycle("g", F(1)),), order=5)
SPEC_B = DSESpec((Cocycle("g1", F(1)), Cocycle("g2", F(1))), order=5)


# -- independent oracle --------------------------------------------------------

def _gmul(a, b, cap):
    out = [ForestSum.zero() for _ in range(cap + 1)]
    for i in range(min(len(a), cap + 1)):
        if not a[i]:
            continue
        for k in range(min(len(b), cap + 1 - i)):
            if b[k]:
                out[i + k] = out[i + k] + a[i] * b[k]
    return out


def _gpow(a, p, cap):
    out = [ForestSum.unit()] + [ForestSum.zero() for _ in range(cap)]
    for _ in range(p):
        out = _gmul(out, a, cap)
    return out


def oracle_solve(spec: DSESpec, n_max: int) -> list[ForestSum]:
    ys = [ForestSum.unit()] + [ForestSum.zero() for _ in range(n_max)]
    for _ in range(n_max + 1):
        new = [ForestSum.unit()] + [ForestSum.zero() for _ in range(n_max)]
        for j, coc in enumerate(spec.cocycles, start=1):
            if j > n_max:
                continue
            power = _gpow(ys, j + 1, n_max - j)
            for m, part in enumerate(power):
                if part:
                    new[m + j] = new[m + j] + coc.omega * graft(coc.decoration, part)
        if new == ys:
            break
        ys = new
    return ys


@pytest.mark.parametrize("spec", [SPEC_A, SPEC_B], ids=["one-cocycle", "two-cocycle"])
def test_solver_matches_fixed_point_iteration(spec):
    sol = solve(spec)
    want = oracle_solve(spec, spec.order)
    assert list(sol.coefficients) == want


def test_omega_weights_enter_linearly():
    spec = DSESpec((Cocycle("g", F(1, 2)),), order=4)
    sol = solve(spec)
    want = oracle_solve(spec, 4)
    assert list(sol.coefficients) == want


# -- hand-checked low grades ---------------------------------------------------

def test_low_grades_one_cocycle():
    sol = solve(SPEC_A)
    cherry = Tree("g", [leaf("g"), leaf("g")])
    assert sol.coefficients[0] == ForestSum.unit()
    assert sol.coefficients[1] == ForestSum.of(leaf("g"))
    assert sol.coefficients[2] == 2 * ForestSum.of(ladder(2))
    assert sol.coefficients[3] == 4 * ForestSum.of(ladder(3)) + ForestSum.of(cherry)
    x4 = (8 * ForestSum.of(ladder(4))
          + 2 * ForestSum.of(Tree("g", [cherry]))
          + 4 * ForestSum.of(Tree("g", [leaf("g"), ladder(2)])))
    assert sol.coefficients[4] == x4


def test_low_grades_two_cocycle():
    sol = solve(SPEC_B)
    assert sol.coefficients[1] == ForestSum.of(leaf("g1"))
    # the second cocycle sits at coupling power two, so the grade-2 piece
    # picks up a single-vertex tree: grading is by coupling power, not size
    x2 = 2 * ForestSum.of(Tree("g1", [leaf("g1")])) + ForestSum.of(leaf("g2"))
    assert sol.coefficients[2] == x2
    x3 = (4 * ForestSum.of(ladder(3, "g1"))
          + 2 * ForestSum.of(Tree("g1", [leaf("g2")]))
          + ForestSum.of(Tree("g1", [leaf("g1"), leaf("g1")]))
          + 3 * ForestSum.of(Tree("g2", [leaf("g1")])))
    assert sol.coefficients[3] == x3


def test_one_cocycle_coefficients_are_catalan():
    # s_n = sum_{a+b=n-1} s_a s_b with s_0 = 1 is the Catalan recurrence
    sol = solve(DSESpec((Cocycle("g", F(1)),), order=7))
    catalan = [F(1)]
    for n in range(1, 8):
        catalan.append(sum(catalan[a] * catalan[n - 1 - a] for a in range(n)))
    for n in range(8):
        total = sum(sol.coefficients[n].terms.values(), F(0))
        assert total == catalan[n]


def test_vertex_homogeneity_for_single_cocycle_only():
    sol_a = solve(SPEC_A)
    for n in range(6):
        assert {f.grade for f in sol_a.coefficients[n].terms} <= {n}
    sol_b = solve(SPEC_B)
    sizes = {f.grade for f in sol_b.coefficients[2].terms}
    assert sizes == {1, 2}


def test_integer_weights_give_nonnegative_integer_coefficients():
    for spec in (SPEC_A, SPEC_B, DSESpec((Cocycle("g", F(3)),), order=4)):
        sol = solve(spec)
        for x in sol.coefficients:
            for c in x.terms.values():
                assert c.denominator == 1 and c >= 0


# -- partial sums, rescaling ---------------------------------------------------

def test_structural_sum_ignores_coupling():
    spec = DSESpec((Cocycle("g", F(1)),), order=3, coupling=F(1, 3))
    sol = solve(spec)
    want = (ForestSum.of(leaf("g")) + 2 * ForestSum.of(ladder(2))
            + 4 * ForestSum.of(ladder(3))
            + ForestSum.of(Tree("g", [leaf("g"), leaf("g")])))
    assert structural_sum(sol, 3) == want
    assert structural_sum(sol, 0) == ForestSum.zero()
    with pytest.raises(ValueError):
        structural_sum(sol, 4)


def test_rescale_semigroup_and_bounds():
    spec = DSESpec((Cocycle("g", F(1)),), order=3, coupling=F(1))
    sol = solve(spec)
    a, b = F(1, 2), F(1, 3)
    two_step = rescale(rescale(sol, a), b)
    one_step = rescale(sol, a * b)
    assert two_step.coupling == one_step.coupling == F(1, 6)
    assert two_step.spec == one_step.spec
    # tree data is shared, not recomputed
    assert two_step.coefficients is sol.coefficients
    with pytest.raises(ValueError):
        rescale(sol, F(3, 2))
    with pytest.raises(ValueError):
        rescale(sol, F(0))


def test_spec_validation():
    with pytest.raises(ValueError):
        DSESpec((), order=3)
    with pytest.raises(ValueError):
        DSESpec((Cocycle("g", F(1)),), order=0)
    with pytest.raises(ValueError):
        DSESpec((Cocycle("g", F(1)),), order=3, coupling=F(2))
    with pytest.raises(ValueError):
        DSESpec((Cocycle("g", F(1)),), order=3, coupling=F(0))
    for order in (True, False, 2.0):
        with pytest.raises(ValueError):
            DSESpec((Cocycle("g", F(1)),), order=order)


# -- subalgebra witness --------------------------------------------------------

WITNESS_FIXTURES = {
    1: {((), (1,)): F(1), ((1,), ()): F(1)},
    2: {((), (2,)): F(1), ((1,), (1,)): F(2), ((2,), ()): F(1)},
    3: {((), (3,)): F(1), ((1,), (1, 1)): F(1), ((1,), (2,)): F(2),
        ((2,), (1,)): F(3), ((3,), ()): F(1)},
    4: {((), (4,)): F(1), ((1,), (2, 1)): F(2), ((1,), (3,)): F(2),
        ((2,), (1, 1)): F(3), ((2,), (2,)): F(3), ((3,), (1,)): F(4),
        ((4,), ()): F(1)},
}


@pytest.mark.parametrize("spec", [SPEC_A, SPEC_B], ids=["one-cocycle", "two-cocycle"])
def test_witness_frozen_coefficients(spec):
    sol = solve(spec)
    for n in range(1, 5):
        rep = subalgebra_witness(sol, n)
        assert rep.ok
        assert rep.coefficients == WITNESS_FIXTURES[n]


def _all_partitions(n, cap=None):
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [(part,) + rest for part in range(min(n, cap), 0, -1)
            for rest in _all_partitions(n - part, part)]


def _elimination_coefficients(sol, n):
    """Unique coefficients of delta(X_n) over every X-monomial tensor
    product X_lambda (x) X_mu with |lambda| + |mu| = n."""
    def value(part):
        return ForestSum.product(sol.coefficients[k] for k in part)

    pairs = [(left, right) for p in range(n + 1) for left in _all_partitions(p)
             for right in _all_partitions(n - p)]
    columns = [sum((TensorSum.of(fl, fr, cl * cr)
                    for fl, cl in value(left).terms.items()
                    for fr, cr in value(right).terms.items()), TensorSum.zero()).terms
               for left, right in pairs]
    target = coproduct(sol.coefficients[n]).terms
    rows = sorted({k for col in columns for k in col} | set(target),
                  key=lambda k: (k[0].code, k[1].code))
    matrix = sympy.Matrix([[sympy.Rational(str(col.get(k, 0))) for col in columns]
                           for k in rows])
    rhs = sympy.Matrix([sympy.Rational(str(target.get(k, 0))) for k in rows])
    solution, params = matrix.gauss_jordan_solve(rhs)
    assert params.shape[0] == 0, "the monomial system has free variables"
    return {pair: F(str(v)) for pair, v in zip(pairs, solution) if v}


@pytest.mark.parametrize("spec", [SPEC_A, SPEC_B], ids=["one-cocycle", "two-cocycle"])
def test_witness_equals_unique_elimination_solution(spec):
    sol = solve(spec)
    for n in range(6):
        assert subalgebra_witness(sol, n).coefficients == _elimination_coefficients(sol, n), n


def test_witness_refuses_a_tampered_coefficient():
    xs = list(solve(SPEC_A).coefficients)
    xs[3] = xs[3] + ForestSum.of(ladder(3))
    sol = DSESolution(SPEC_A, tuple(xs))
    rep = subalgebra_witness(sol, 3)
    assert not rep.ok and rep.n == 3 and rep.coefficients == {}
    assert "differs from the coproduct" in rep.message
    assert subalgebra_witness(sol, 2).ok


def test_witness_leaves_out_zero_generators():
    # omega_1 = 0: X_1 = X_3 = 0 at order 4, while X_2 and X_4 are not
    sol = solve(DSESpec((Cocycle("g", F(0)), Cocycle("h", F(1))), order=4))
    xs = sol.coefficients
    assert [bool(x) for x in xs] == [True, False, True, False, True]
    for n in range(5):
        rep = subalgebra_witness(sol, n)
        assert rep.ok, n
        assert all(xs[i] for left, right in rep.coefficients for i in left + right), n


def test_witness_grade_zero():
    rep = subalgebra_witness(solve(SPEC_A), 0)
    assert rep.ok
    assert rep.coefficients == {((), ()): F(1)}


def _closed_form(sol: DSESolution, n: int) -> TensorSum:
    """sum_k X_k (x) (X^(k+1))_(n-k), built with the test-local product."""
    xs = list(sol.coefficients)
    out = TensorSum.zero()
    for k in range(n + 1):
        right = _gpow(xs, k + 1, n - k)[n - k]
        for fl, cl in xs[k].terms.items():
            for fr, cr in right.terms.items():
                out = out + TensorSum.of(fl, fr, cl * cr)
    return out


@pytest.mark.parametrize("omega", [F(1), F(1, 2), F(3)])
def test_coproduct_closed_form_any_weight(omega):
    sol = solve(DSESpec((Cocycle("g", omega),), order=4))
    for n in range(5):
        assert coproduct(sol.coefficients[n]) == _closed_form(sol, n)
        assert subalgebra_witness(sol, n).ok


def test_closed_form_two_cocycles():
    sol = solve(SPEC_B)
    for n in range(5):
        assert coproduct(sol.coefficients[n]) == _closed_form(sol, n)


def test_witness_range_check():
    sol = solve(SPEC_A)
    with pytest.raises(ValueError):
        subalgebra_witness(sol, 6)
    with pytest.raises(ValueError):
        subalgebra_witness(sol, -1)
