"""Truncated solutions of combinatorial Dyson-Schwinger equations.

The fixed-point equation solved here is

    X = 1 + sum_{j>=1} (coupling)^j omega_j B+_{gamma_j}(X^(j+1))

for finitely many grafting decorations gamma_j with rational weights
omega_j.  Grading by coupling power turns this into the recursion

    X_0 = 1
    X_n = sum_j omega_j B+_{gamma_j}( sum_{k_1+...+k_{j+1} = n-j} X_{k_1} ... X_{k_{j+1}} )

whose right side only involves grades below n, so the truncated solution
is computed grade by grade.  The coupling never enters the tree
coefficients; it is carried separately and only used when the
solution is handed to the graphon side.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial, prod

from .trees import ForestSum, Record, SparseSum, _accumulate, _as_coeff, \
    check_decoration
from .hopf import TensorSum, coproduct, graft


class Cocycle(Record):
    """One grafting term of the equation: decoration plus weight."""

    _fields = ("decoration", "omega")

    def __init__(self, decoration: str, omega: Fraction):
        super().__init__(check_decoration(decoration), _as_coeff(omega))


class DSESpec(Record):
    """Equation data: cocycle list, truncation order, coupling.

    The j-th cocycle (1-based) grafts the (j+1)-st power of the unknown
    and sits at coupling power j.  Coupling must lie in (0, 1].
    """

    _fields = ("cocycles", "order", "coupling")

    def __init__(self, cocycles: tuple[Cocycle, ...], order: int,
                 coupling: Fraction = Fraction(1)):
        cocycles = tuple(cocycles)
        coupling = _as_coeff(coupling)
        if not cocycles:
            raise ValueError("equation needs at least one cocycle")
        if not isinstance(order, int) or isinstance(order, bool) or order < 1:
            raise ValueError("truncation order must be a positive integer")
        if not (0 < coupling <= 1):
            raise ValueError("coupling must lie in (0, 1]")
        super().__init__(cocycles, order, coupling)


class DSESolution(Record):
    """Graded coefficients X_0..X_N of the truncated solution."""

    _fields = ("spec", "coefficients")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @property
    def coupling(self) -> Fraction:
        return self.spec.coupling


def solve(spec: DSESpec) -> DSESolution:
    """Solve the equation grade by grade up to ``spec.order``.

    X_0 is the unit; cocycle j puts trees of n - j + 1 vertices into X_n.
    """
    xs = _graded_fixed_point(spec, ForestSum.unit(), spec.order,
                             lambda coc, inner: graft(coc.decoration, inner) * coc.omega)
    return DSESolution(spec=spec, coefficients=tuple(xs))


def _graded_fixed_point(spec: DSESpec, unit: SparseSum, m: int, grafted) -> list:
    """Graded pieces Y_0..Y_m of Y = unit + sum_j grafted(c_j, Y^(j+1)),
    the j-th cocycle c_j at coupling power j, as in the module docstring;
    ``grafted`` maps a cocycle and a sum of the class of ``unit`` to the
    cocycle's weighted grafting term."""
    ys = [unit]
    for n in range(1, m + 1):
        acc: dict = {}
        for j, coc in enumerate(spec.cocycles[:n], start=1):
            inner = _graded_power_part(ys, j + 1, n - j)
            if inner:
                _accumulate(acc, grafted(coc, inner).terms.items())
        ys.append(unit._make(acc))
    return ys


def _graded_power_part(xs, p: int, m: int) -> SparseSum:
    """Grade-m part of (xs[0] + xs[1] + ...)^p given the graded pieces, all
    sums of one class, multiplied under that class's key product."""
    cls = type(xs[0])
    kmul = cls._key_mul
    # dp[g] = terms of the grade-g part of the running power; the last
    # factor only needs to reach grade m itself
    dp: list[dict] = [{cls._UNIT: 1}] + [{} for _ in range(m)]
    for i in range(p):
        nxt: list[dict] = [{} for _ in range(m + 1)]
        for g in range(m + 1):
            if not dp[g]:
                continue
            ks = (m - g,) if i == p - 1 else range(m - g + 1)
            for k in ks:
                if k < len(xs) and xs[k]:
                    _accumulate(nxt[g + k], ((kmul(f1, f2), c1 * c2)
                                             for f1, c1 in dp[g].items()
                                             for f2, c2 in xs[k].terms.items()))
        dp = nxt
    return cls._make(dp[m])


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

class WitnessReport(Record):
    """Outcome of expressing delta(X_n) in products of the X_k.

    ``coefficients`` maps pairs of exponent partitions (left factor,
    right factor) to integer coefficients; the partition (2,1,1) stands
    for the monomial X_2*X_1*X_1 and the empty partition for X_0 = 1.
    """

    _fields = ("ok", "n", "coefficients", "message")


def _partitions(n: int, parts: int, cap: int = 0) -> list[tuple[int, ...]]:
    """Partitions of n into at most ``parts`` parts, largest part first,
    none above ``cap`` when it is set."""
    if n == 0:
        return [()]
    return [(part,) + rest for part in range(min(n, cap or n), 0, -1) if parts
            for rest in _partitions(n - part, parts - 1, part)]


def subalgebra_witness(sol: DSESolution, n: int) -> WitnessReport:
    """Certify the closed decomposition of delta(X_n) for a `solve` result:

        delta(X_n) = sum_k X_k (x) [X^(k+1)]_(n-k),   root part left,

    built with the graded power of `solve` and compared with
    ``coproduct(X_n)``.  The coefficients expand each right factor into
    the monomials X_lambda over the partitions lambda of n-k into at most
    k+1 parts, with multinomial multiplicities; a zero X_k and every
    monomial with a zero factor are left out.
    """
    if n < 0 or n > sol.order:
        raise ValueError(f"grade {n} outside solved range 0..{sol.order}")
    xs = sol.coefficients
    closed: dict = {}
    coeffs = {}
    for k in range(n + 1):
        if not xs[k]:
            continue
        right = _graded_power_part(xs, k + 1, n - k)
        _accumulate(closed, (((fl, fr), cl * cr) for fl, cl in xs[k].terms.items()
                             for fr, cr in right.terms.items()))
        for part in _partitions(n - k, k + 1):
            if all(xs[i] for i in part):  # k+1 factors, len(part) of them nonzero
                coeffs[(k,) if k else (), part] = (
                    factorial(k + 1) // factorial(k + 1 - len(part))
                    // prod(map(factorial, Counter(part).values())))
    if TensorSum._make(closed) != coproduct(xs[n]):
        return WitnessReport(False, n, {},
                             "no decomposition: the closed form differs from the coproduct")
    return WitnessReport(True, n, coeffs, "decomposition found")
