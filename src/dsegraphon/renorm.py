"""Minimal-subtraction renormalization with toy Feynman rules.

Values of the rules live in truncated Laurent series in the regulator
``eps`` whose coefficients are exact rational polynomials in the scale
``L`` (kept symbolic unless the rules fix a rational value).  A series
carries a window [lo, hi]: coefficients of eps^p for p in the window are
exact, everything above hi is unknown truncation and reading it raises,
everything below lo is exactly zero.

The toy rules assign to a grafting of a subforest w

    phi(B+_d(w)) = r_d * exp(-eps*L) / ((|w|+1) * eps) * phi(w)

extended multiplicatively over forests, with phi(1) = 1.  Unrolled over
the vertices this is the closed form phi(t) = (prod_v r_v) *
exp(-eps L |t|) / (t! eps^|t|) with the tree factorial t!, which is what
is evaluated; the recursive rule is kept in the tests as its oracle.
On a forest f it is phi(f) = w(f) E_|f|: w(f) is the product of
(prod r_v)/t! over the trees and E_n = exp(-eps L n)/eps^n.

Minimal subtraction keeps the strict pole part; the projection is an
idempotent Rota-Baxter operator, which makes the counterterm S and the
renormalized value phi_+ characters.  So BPHZ runs on trees: one
Bogoliubov preparation per tree over the reduced coproduct of `hopf`
(root part left, pruned forest right), whose pole part is -S(t) and
whose regular part is phi_+(t); forests are products of tree values.
A preparation groups its terms S(l) phi(r) by pruned size s = |r| and
multiplies each group's sum of w(r) S(l) by E_s once.  A solution of an
equation is renormalized on its generators X_n instead, through the
closed coproduct of `dse.subalgebra_witness` (see renormalize_solution).
The forest-level recursion, which does not assume the character
property, and per-tree BPHZ on the X_n are the test oracles.  The
Birkhoff reconstruction invariant (counterterm o antipode) *
renormalized = plain rules pins the coproduct convention down; it is
enforced in the tests rather than assumed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .trees import SparseSum, Tree, _accumulate, _as_coeff, _scaled
from .hopf import Character, reduced_coproduct, _as_forest_sum
from .dse import _graded_fixed_point, _graded_power_part


class WindowError(ValueError):
    """Raised when a requested coefficient lies outside the exact window."""


class ScalePoly(SparseSum):
    """Polynomial in the scale L with exact rational coefficients.

    Keyed by the power of L; bare rationals are constants.
    """

    __slots__ = ()
    _UNIT = 0
    _SCALARS = True
    _key_mul = staticmethod(operator.add)

    @staticmethod
    def _check_key(k):
        if k < 0:
            raise ValueError("polynomial powers must be nonnegative")
        return k

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return self.terms

    @staticmethod
    def const(c) -> "ScalePoly":
        return ScalePoly({0: c})

    @staticmethod
    def L(power: int = 1, coeff=1) -> "ScalePoly":
        return ScalePoly({power: coeff})

    def coeff(self, k: int) -> Fraction:
        return self.coeffs.get(k, Fraction(0))

    def derivative(self) -> "ScalePoly":
        return ScalePoly._make(_accumulate({}, ((k - 1, k * v)
                                                for k, v in self.terms.items() if k >= 1)))

    def eval(self, value) -> Fraction:
        value = _as_coeff(value)
        return sum((v * value ** k for k, v in self.coeffs.items()), Fraction(0))

    def __repr__(self):
        return " + ".join(f"{v}" if k == 0 else f"{v}*L" if k == 1 else f"{v}*L^{k}"
                          for k, v in sorted(self.coeffs.items())) or "0"


class LaurentSeries:
    """Truncated Laurent series in eps with ScalePoly coefficients."""

    __slots__ = ("terms", "lo", "hi")

    def __init__(self, terms: dict[int, ScalePoly] | None = None,
                 window: tuple[int, int] = (-8, 2)):
        lo, hi = window
        if lo > hi:
            raise ValueError(f"empty window {window}")
        clean: dict[int, ScalePoly] = {}
        if terms:
            for p, c in terms.items():
                if isinstance(c, (int, Fraction)):
                    c = ScalePoly.const(c)
                if not isinstance(c, ScalePoly):
                    raise TypeError("coefficients must be ScalePoly or rationals")
                if not c:
                    continue
                if p < lo or p > hi:
                    raise WindowError(
                        f"power eps^{p} outside window [{lo}, {hi}]")
                clean[p] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

    @property
    def window(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    @staticmethod
    def const(c, window=(-8, 2)) -> "LaurentSeries":
        return LaurentSeries({0: ScalePoly.const(c)}, window)

    @staticmethod
    def zero(window=(-8, 2)) -> "LaurentSeries":
        return LaurentSeries({}, window)

    def coeff(self, p: int) -> ScalePoly:
        """Exact coefficient of eps^p; reading beyond the window raises."""
        if p > self.hi:
            raise WindowError(
                f"coefficient of eps^{p} is truncated (window [{self.lo}, {self.hi}])")
        return self.terms.get(p, ScalePoly())

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentSeries.const(other, self.window)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return _fold(((self, _ONE), (other, _ONE)), self.window)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries({p: -c for p, c in self.terms.items()}, self.window)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentSeries.const(other, self.window)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ScalePoly)):
            if isinstance(other, ScalePoly) and not other:
                return LaurentSeries({}, self.window)
            return LaurentSeries({p: c * other for p, c in self.terms.items()},
                                 self.window)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        lo = self.lo + other.lo
        hi = min(self.hi + other.lo, self.lo + other.hi)
        acc: dict[int, dict[int, Fraction]] = {}
        for p1, c1 in self.terms.items():
            for p2, c2 in other.terms.items():
                if p1 + p2 <= hi:
                    _accumulate(acc.setdefault(p1 + p2, {}), (
                        (k1 + k2, v1 * v2) for k1, v1 in c1.terms.items()
                        for k2, v2 in c2.terms.items()))
        return _from_accumulated(acc, (lo, hi))

    __rmul__ = __mul__

    def __eq__(self, other):
        """Equal where both sides are exact: coefficients agree up to the
        smaller hi (below the smaller lo both are zero by construction)."""
        if isinstance(other, (int, Fraction)):
            other = LaurentSeries.const(other, self.window)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        hi = min(self.hi, other.hi)
        lo = min(self.lo, other.lo)
        for p in range(lo, hi + 1):
            if self.terms.get(p, ScalePoly()) != other.terms.get(p, ScalePoly()):
                return False
        return True

    def __hash__(self):
        raise TypeError("LaurentSeries is unhashable (window-relative equality)")

    def __bool__(self):
        return bool(self.terms)

    def pole_part(self) -> "LaurentSeries":
        """Strict pole part: terms with negative powers of eps."""
        return LaurentSeries({p: c for p, c in self.terms.items() if p < 0},
                             self.window)

    def regular_part(self) -> "LaurentSeries":
        return LaurentSeries({p: c for p, c in self.terms.items() if p >= 0},
                             self.window)

    def is_pole_free(self) -> bool:
        return not any(p < 0 for p in self.terms)

    def eval_scale(self, value) -> "LaurentSeries":
        """Substitute a rational value for the symbolic scale L."""
        return LaurentSeries(
            {p: ScalePoly.const(c.eval(value)) for p, c in self.terms.items()},
            self.window)

    def scale_derivative(self) -> "LaurentSeries":
        """d/dL applied coefficientwise."""
        return LaurentSeries({p: c.derivative() for p, c in self.terms.items()},
                             self.window)

    def __repr__(self):
        bits = " + ".join(f"({c})*eps^{p}" for p, c in sorted(self.terms.items()))
        return f"LaurentSeries({bits or 0}; window={self.window})"


_ONE = Fraction(1)


def _from_accumulated(acc: dict[int, dict[int, Fraction]],
                      window: tuple[int, int]) -> LaurentSeries:
    hi = window[1]
    return LaurentSeries({p: ScalePoly._make(d) for p, d in acc.items()
                          if d and p <= hi}, window)


def _fold(parts, window: tuple[int, int]) -> LaurentSeries:
    """Sum of ``c * s`` over (LaurentSeries s, rational c) pairs,
    accumulated in place.

    Same value and window as starting from zero on ``window`` and adding
    the parts one by one: the window is the meet of all windows, a part
    with c = 0 included.
    """
    lo, hi = window
    acc: dict[int, dict[int, Fraction]] = {}
    for s, c in parts:
        lo, hi = min(lo, s.lo), min(hi, s.hi)
        for p, poly in (s.terms.items() if c else ()):
            _accumulate(acc.setdefault(p, {}), _scaled(poly.terms, c))
    return _from_accumulated(acc, (lo, hi))


def pole_part(s: LaurentSeries) -> LaurentSeries:
    """Minimal-subtraction projection R: keep only negative powers.

    Idempotent and Rota-Baxter: R(a)R(b) = R(R(a)b) + R(aR(b)) - R(ab).
    """
    return s.pole_part()


# -- toy rules ----------------------------------------------------------------

@dataclass(frozen=True)
class ToyRules:
    """Configuration of the toy Feynman rules; immutable, as values are
    cached on it.

    ``residues`` maps decorations to rational residues r_d (default 1);
    ``scale`` fixes L to a rational value, or keeps it symbolic if None;
    ``window`` is the eps-window of reported values.  The window must
    reach at least as low as -grade for every evaluated element, else a
    WindowError names the required lower end.
    """

    residues: Mapping[str, Fraction] = field(default_factory=dict)
    scale: Fraction | None = None
    window: tuple[int, int] = (-8, 2)

    def __post_init__(self):
        def init(name, value):
            object.__setattr__(self, name, value)

        init("residues", MappingProxyType(
            {d: _as_coeff(r) for d, r in self.residues.items()}))
        if self.scale is not None:
            init("scale", _as_coeff(self.scale))
        lo, hi = self.window
        if lo > 0 or hi < 0:
            raise ValueError("rules window must contain eps^0")
        # internal expansion order E of exp(-eps L): a grade-n value is
        # exact on (-n, E-n), which still covers the configured window
        init("_exp_order", hi - lo + 1)
        one = LaurentSeries.const(1, (0, self._exp_order))
        init("_phi", Character(lambda t: _rules_on_tree(self, t), one,
                               target="laurent", name="phi"))
        init("_phi_minus", Character(lambda t: -_preparation(self, t).pole_part(),
                                     one, target="laurent", name="phi_minus"))
        init("_phi_plus", Character(lambda t: _preparation(self, t).regular_part(),
                                    one, target="laurent", name="phi_plus"))
        init("_preparations", {})
        init("_exps", {})

    def residue(self, d: str) -> Fraction:
        return self.residues.get(d, Fraction(1))


def _weight(rules: ToyRules, t: Tree) -> Fraction:
    """(product of the residues of t) / t!, with t! = |t| * prod of the children's t!."""
    w = Fraction(rules.residue(t.label), t.size)
    for c in t.children:
        w *= _weight(rules, c)
    return w


def _exp_series(rules: ToyRules, n: int) -> LaurentSeries:
    """E_n = exp(-eps L n) / eps^n, expanded over eps^-n .. eps^(E-n);
    computed once per rules and grade."""
    got = rules._exps.get(n)
    if got is None:
        terms = {}
        for k in range(rules._exp_order + 1):
            c = Fraction((-n) ** k, math.factorial(k))
            terms[k - n] = ScalePoly.L(k, c) if rules.scale is None else c * rules.scale ** k
        got = rules._exps[n] = LaurentSeries(terms, (-n, rules._exp_order - n))
    return got


def _rules_on_tree(rules: ToyRules, t: Tree) -> LaurentSeries:
    """Closed form phi(t) = w(t) E_|t| = (prod r_v) exp(-eps L |t|) / (t! eps^|t|)."""
    e = _exp_series(rules, t.size)
    return _fold(((e, _weight(rules, t)),), e.window)


def rules_character(rules: ToyRules) -> Character:
    """The toy rules packaged as a character with Laurent target."""
    return rules._phi


def _extend(rules: ToyRules, x, value) -> LaurentSeries:
    """Linear extension of the forest map ``value`` to a Tree, Forest or
    ForestSum, on the window of the rules.

    A grade-n value is exact on (-n, E-n) and E-n > hi once -n >= lo,
    so after this check the sum is exact on the whole window.
    """
    xs = _as_forest_sum(x)
    needed = xs.max_grade()
    if -needed < rules.window[0]:
        raise WindowError(
            f"window {rules.window} too narrow for grade {needed}: "
            f"lower end must be <= {-needed}")
    return _fold(((value(f), c) for f, c in xs.terms.items()), rules.window)


def toy_feynman_rules(rules: ToyRules, x) -> LaurentSeries:
    """Evaluate the toy rules character on a Tree, Forest or ForestSum."""
    return _extend(rules, x, rules._phi.on_forest)


# -- BPHZ ----------------------------------------------------------------------

def _by_size(rules: ToyRules, groups: dict[int, list]) -> LaurentSeries:
    """sum over sizes s of (sum of c * v over the (v, c) in groups[s]) * E_s,
    one Laurent product per size.  Windows start from (0, E), that of
    phi(1); window ends distribute over the grouping, so the window is
    that of the term-by-term sum."""
    start = rules._phi.one.window
    return _fold(((_fold(terms, start) * _exp_series(rules, s), _ONE)
                  for s, terms in groups.items()), start)


def _preparation(rules: ToyRules, t: Tree) -> LaurentSeries:
    """Bogoliubov preparation of one tree, computed once per rules:
    phi(t) + sum' S(t'_root) phi(t'_pruned) over the reduced coproduct,
    where phi(t) = w(t) E_|t| and phi(r) = w(r) E_|r|.
    """
    got = rules._preparations.get(t)
    if got is None:
        groups: dict[int, list] = {t.size: [(rules._phi.one, _weight(rules, t))]}
        for (l, r), c in reduced_coproduct(t).terms.items():
            for s in r.trees:
                c *= _weight(rules, s)
            groups.setdefault(r.grade, []).append((rules._phi_minus.on_forest(l), c))
        got = rules._preparations[t] = _by_size(rules, groups)
    return got


def counterterm(rules: ToyRules, x) -> LaurentSeries:
    """Minimal-subtraction counterterm S(t) = -R(prepared(t)) on trees,
    extended to forests as a character and to sums linearly.

    The forest-level recursion S(f) = -R(phi(f) + sum' S(f'_root) phi(f'_pruned))
    defines the same map; the tests keep it as the oracle.
    """
    return _extend(rules, x, rules._phi_minus.on_forest)


def counterterm_character(rules: ToyRules) -> Character:
    return rules._phi_minus


def bogoliubov(rules: ToyRules, x) -> LaurentSeries:
    """Preparation map phi(x) + sum' S(x'_root) phi(x'_pruned), which is
    renormalized value minus counterterm."""
    return _extend(rules, x, lambda f: rules._phi_plus.on_forest(f)
                   - rules._phi_minus.on_forest(f))


def renormalized_value(rules: ToyRules, x) -> LaurentSeries:
    """Renormalized value: the regular part of the preparation on trees,
    extended as a character.

    Equals the convolution (counterterm * rules)(x); pole free by the
    Birkhoff factorization, which is asserted here as a consistency
    guard.
    """
    val = _extend(rules, x, rules._phi_plus.on_forest)
    if not val.is_pole_free():
        raise ArithmeticError(
            f"internal consistency failure: renormalized value has poles: {val!r}")
    return val


@dataclass(frozen=True)
class BirkhoffPair:
    """Values of the two Birkhoff factors on one element."""

    negative: LaurentSeries
    positive: LaurentSeries


def birkhoff(rules: ToyRules, x) -> BirkhoffPair:
    """Birkhoff splitting of the rules on ``x``: pole-only and regular parts.

    The negative factor is the counterterm character, the positive one
    the renormalized value; reconstruction (negative o antipode) *
    positive = rules holds in convolution and is covered by tests.
    """
    return BirkhoffPair(negative=counterterm(rules, x),
                        positive=renormalized_value(rules, x))


@dataclass(frozen=True)
class RenormReport:
    """Gradewise renormalization of a truncated equation solution.

    ``window`` is the window actually used; when it differs from the
    one configured in the rules, automatic widening kicked in.
    """

    order: int
    scale_symbolic: bool
    window: tuple[int, int]
    widened: bool
    renormalized: tuple[LaurentSeries, ...]
    counterterms: tuple[LaurentSeries, ...]


def renormalize_solution(rules: ToyRules, sol, m: int,
                         widen: bool = True) -> RenormReport:
    """Renormalize X_1..X_m of a solution; entry i-1 holds grade i.

    BPHZ runs on the generators X_n of the solution of ``sol.spec``; no
    tree is read.  With delta(X_n) = sum_k X_k (x) [X^(k+1)]_(n-k), the
    preparation of X_n is phi(X_n) + sum_{0<k<n} S(X_k) phi([X^(k+1)]_(n-k))
    and phi([X^p]_d) = sum_s [a^p]_d[s] E_s, with a_n[s] the weight of the
    size-s trees of X_n.  The equation gives the a_n: B+_d maps weight v
    at size s to r_d v/(s+1) at size s+1.  Values stay exact on their
    natural window and are cut to the rules window at the end.

    The finite parts follow the renormalization group.  At eps^0 a tree
    renormalizes to w(t) (-L)^|t|, so sigma = d/dL phi_+ at L = 0 is -r_d
    on the one-vertex tree of decoration d and 0 on larger trees.  Being
    an infinitesimal character, sigma gives gamma_n = sigma(X_n) =
    -omega_n r_(d_n), linear in the weights because only cocycle n puts a
    one-vertex tree into X_n (gamma_n = 0 past the last cocycle), and
    sigma([X^(k+1)]_(n-k)) = (k+1) gamma_(n-k).  Hence phi_+(X_n) at eps^0
    is sum_p P_p(n) L^p with P_0(n) = delta_(n0) and
    P_p(n) = (1/p) sum_(k<n) (k+1) P_(p-1)(k) gamma_(n-k); the tests hold
    every grade to it.

    A window too narrow for grade m is widened automatically (and the
    report says so); with ``widen=False`` it raises instead, naming the
    exponent the window must reach.
    """
    if m < 1 or m > sol.order:
        raise ValueError(f"grade range 1..{m} outside solved range 1..{sol.order}")
    lo, hi = rules.window
    widened = False
    if -m < lo:
        if not widen:
            raise WindowError(
                f"window [{lo}, {hi}] cannot hold grade-{m} poles; "
                f"lower the window floor to {-m} or below")
        rules = ToyRules(residues=rules.residues, scale=rules.scale,
                         window=(-m, hi))
        widened = True
    # a ScalePoly keyed by size s stands for sum_s a[s] E_s: E_a E_b = E_(a+b)
    weights = _graded_fixed_point(sol.spec, ScalePoly.unit(), m, lambda coc, inner: ScalePoly(
        {s + 1: coc.omega * rules.residue(coc.decoration) * v / (s + 1)
         for s, v in inner.terms.items()}))
    preps, cts = [], []
    for n in range(1, m + 1):
        groups = {s: [(rules._phi.one, c)] for s, c in weights[n].terms.items()}
        for k in range(1, n):
            for s, c in _graded_power_part(weights, k + 1, n - k).terms.items():
                groups.setdefault(s, []).append((cts[k - 1], c))
        preps.append(_by_size(rules, groups))
        cts.append(-preps[-1].pole_part())

    def cut(v):
        return _fold(((v, _ONE),), rules.window)

    return RenormReport(order=m, scale_symbolic=rules.scale is None,
                        window=rules.window, widened=widened,
                        renormalized=tuple(cut(p.regular_part()) for p in preps),
                        counterterms=tuple(map(cut, cts)))
