"""Truncated solutions of combinatorial Dyson-Schwinger equations.

The fixed-point equation solved here is

    X = 1 + sum_{j>=1} (coupling)^j omega_j B+_{gamma_j}(X^(j+1))

for finitely many grafting decorations gamma_j with rational weights
omega_j.  Grading by vertex count turns this into the recursion

    X_0 = 1
    X_n = sum_j omega_j B+_{gamma_j}( sum_{k_1+...+k_{j+1} = n-j} X_{k_1} ... X_{k_{j+1}} )

whose right side only involves grades below n, so the truncated solution
is computed grade by grade.  The coupling never enters the tree
coefficients; it is carried separately and only used when partial sums
are assembled or the solution is handed to the graphon side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .trees import EMPTY_FOREST, Forest, ForestSum, _accumulate, _as_coeff, \
    _forest_product, _gauss_jordan, _scaled
from .hopf import coproduct, graft


@dataclass(frozen=True)
class Cocycle:
    """One grafting term of the equation: decoration plus weight."""

    decoration: str
    omega: Fraction

    def __post_init__(self):
        object.__setattr__(self, "omega", _as_coeff(self.omega))


@dataclass(frozen=True)
class DSESpec:
    """Equation data: cocycle list, truncation order, coupling.

    The j-th cocycle (1-based) grafts the (j+1)-st power of the unknown
    and sits at coupling power j.  Coupling must lie in (0, 1].
    """

    cocycles: tuple[Cocycle, ...]
    order: int
    coupling: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "cocycles", tuple(self.cocycles))
        object.__setattr__(self, "coupling", _as_coeff(self.coupling))
        if not self.cocycles:
            raise ValueError("equation needs at least one cocycle")
        if (not isinstance(self.order, int) or isinstance(self.order, bool)
                or self.order < 1):
            raise ValueError("truncation order must be a positive integer")
        if not (0 < self.coupling <= 1):
            raise ValueError("coupling must lie in (0, 1]")


@dataclass(frozen=True)
class DSESolution:
    """Graded coefficients X_0..X_N of the truncated solution."""

    spec: DSESpec
    coefficients: tuple[ForestSum, ...]

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @property
    def coupling(self) -> Fraction:
        return self.spec.coupling

    def coefficient(self, n: int) -> ForestSum:
        return self.coefficients[n]


def solve(spec: DSESpec) -> DSESolution:
    """Solve the equation grade by grade up to ``spec.order``.

    Every X_n is homogeneous of grade n; X_0 is the unit.
    """
    n_max = spec.order
    xs: list[ForestSum] = [ForestSum.unit()]
    for n in range(1, n_max + 1):
        acc: dict = {}
        for j, coc in enumerate(spec.cocycles, start=1):
            if j > n:
                break
            inner = _graded_power_part(xs, j + 1, n - j)
            if inner and coc.omega:
                _accumulate(acc, _scaled(graft(coc.decoration, inner).terms, coc.omega))
        xs.append(ForestSum._make(acc))
    return DSESolution(spec=spec, coefficients=tuple(xs))


def _graded_power_part(xs: list[ForestSum], p: int, m: int) -> ForestSum:
    """Grade-m part of (X_0 + X_1 + ...)^p given the graded pieces."""
    # dp[g] = terms of the grade-g part of the running power; the last
    # factor only needs to reach grade m itself
    dp: list[dict] = [{EMPTY_FOREST: 1}] + [{} for _ in range(m)]
    for i in range(p):
        nxt: list[dict] = [{} for _ in range(m + 1)]
        for g in range(m + 1):
            if not dp[g]:
                continue
            ks = (m - g,) if i == p - 1 else range(m - g + 1)
            for k in ks:
                if k < len(xs) and xs[k]:
                    _accumulate(nxt[g + k], ((_forest_product(f1, f2), c1 * c2)
                                             for f1, c1 in dp[g].items()
                                             for f2, c2 in xs[k].terms.items()))
        dp = nxt
    return ForestSum._make(dp[m])


def partial_sum(sol: DSESolution, m: int) -> ForestSum:
    """Y_m = sum_{n=1..m} coupling^n X_n (no grade-0 term)."""
    if m < 0 or m > sol.order:
        raise ValueError(f"partial sum order {m} outside solved range 0..{sol.order}")
    out: dict = {}
    for n in range(1, m + 1):
        _accumulate(out, _scaled(sol.coefficients[n].terms, sol.coupling ** n))
    return ForestSum._make(out)


def structural_sum(sol: DSESolution, m: int) -> ForestSum:
    """sum_{n=1..m} X_n with unit coefficients, coupling left aside."""
    if m < 0 or m > sol.order:
        raise ValueError(f"partial sum order {m} outside solved range 0..{sol.order}")
    out: dict = {}
    for n in range(1, m + 1):
        _accumulate(out, sol.coefficients[n].terms.items())
    return ForestSum._make(out)


def rescale(sol: DSESolution, factor: Fraction) -> DSESolution:
    """Multiply the coupling by ``factor``; tree coefficients are untouched.

    Acts as a semigroup: rescale(rescale(s, a), b) == rescale(s, a*b).
    """
    factor = _as_coeff(factor)
    new_coupling = sol.coupling * factor
    if not (0 < new_coupling <= 1):
        raise ValueError(f"rescaled coupling {new_coupling} leaves (0, 1]")
    new_spec = DSESpec(sol.spec.cocycles, sol.spec.order, new_coupling)
    return DSESolution(spec=new_spec, coefficients=sol.coefficients)


# -- subalgebra certificate ---------------------------------------------------

@dataclass(frozen=True)
class WitnessReport:
    """Outcome of expressing delta(X_n) in products of the X_k.

    ``coefficients`` maps pairs of exponent partitions (left factor,
    right factor) to rational coefficients; the partition (2,1,1) stands
    for the monomial X_2*X_1*X_1 and the empty partition for X_0 = 1.
    """

    ok: bool
    n: int
    coefficients: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction]
    message: str


def _partitions(n: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    out = []

    def rec(rest: int, cap: int, acc: tuple[int, ...]):
        if rest == 0:
            out.append(acc)
            return
        for part in range(min(rest, cap), 0, -1):
            rec(rest - part, part, acc + (part,))

    rec(n, n, ())
    return out


def _monomial_value(sol: DSESolution, partition: tuple[int, ...]) -> ForestSum:
    return ForestSum.product(sol.coefficients[k] for k in partition)


def subalgebra_witness(sol: DSESolution, n: int) -> WitnessReport:
    """Certify delta(X_n) as a combination of X-monomial tensor products.

    Sets up the exact linear system over the forest-pair basis and solves
    it by Gaussian elimination over the rationals; free variables, if the
    monomials happen to be dependent, are pinned to zero so the reported
    decomposition is deterministic.
    """
    if n < 0 or n > sol.order:
        raise ValueError(f"grade {n} outside solved range 0..{sol.order}")
    target = coproduct(sol.coefficients[n])

    pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    columns: list[dict[tuple[Forest, Forest], Fraction]] = []
    for p in range(n + 1):
        for left_part in _partitions(p):
            left_val = _monomial_value(sol, left_part)
            for right_part in _partitions(n - p):
                right_val = _monomial_value(sol, right_part)
                col = _accumulate({}, (((fl, fr), cl * cr)
                                       for fl, cl in left_val.terms.items()
                                       for fr, cr in right_val.terms.items()))
                pairs.append((left_part, right_part))
                columns.append(col)

    rows = sorted({k for col in columns for k in col} | set(target.terms),
                  key=lambda k: (k[0].code, k[1].code))
    row_index = {k: i for i, k in enumerate(rows)}
    m_rows, m_cols = len(rows), len(columns)
    matrix = [[0] * (m_cols + 1) for _ in range(m_rows)]
    for j, col in enumerate(columns):
        for k, v in col.items():
            matrix[row_index[k]][j] = v
    for k, v in target.terms.items():
        matrix[row_index[k]][m_cols] = v

    pivots, _ = _gauss_jordan(matrix, m_cols)
    if any(row[m_cols] for row in matrix[len(pivots):]):
        return WitnessReport(False, n, {},
                             "no decomposition: linear system is inconsistent")
    coeffs = {pairs[c]: matrix[i][m_cols] for i, c in enumerate(pivots)
              if matrix[i][m_cols]}
    return WitnessReport(True, n, coeffs, "decomposition found")

