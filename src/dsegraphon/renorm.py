"""Minimal-subtraction renormalization with toy Feynman rules.

Values of the rules live in truncated Laurent series in the regulator
``eps`` whose coefficients are exact rational polynomials in the scale
``L`` (kept symbolic unless the rules fix a rational value).  A series
carries a window [lo, hi], [-8, 2] unless given: coefficients of eps^p
for p in the window are exact, everything above hi is unknown truncation
and reading it raises, everything below lo is exactly zero.

A LaurentSeries is a SparseSum keyed by (p, k), the monomial eps^p L^k,
with the window in two more slots.  A sum or difference lives on the
meet of the windows (the smaller lo and the smaller hi), where a bare
rational is a constant exact from min(lo, 0) to max(hi, 0); a rational
or ScalePoly multiple lives on its own window, and a product a * b on
[lo_a + lo_b, min(hi_a + lo_b, lo_a + hi_b)]; terms above the new hi are
dropped.  Two series are equal when their terms agree up to the smaller
hi, so series are unhashable.

The toy rules assign to a grafting of a subforest w

    phi(B+_d(w)) = r_d * exp(-eps*L) / ((|w|+1) * eps) * phi(w)

extended multiplicatively over forests, with phi(1) = 1.  Unrolled over
the vertices this is phi(f) = w(f) y^|f| with y = exp(-eps L)/eps: w(f)
is the product over the trees of (prod r_v)/t!, with the tree factorial
t!.  So phi is a_y in the family of characters a_x(f) = w(f) x^|f|,
which form a group, a_x * a_y = a_(x+y) (the tree-factorial flow of the
Butcher group).

Minimal subtraction keeps the strict pole part, the series'
``pole_part``.  Its Birkhoff factorization phi_+ = S * phi into a
counterterm S, a pole part on every nonempty forest, and a renormalized
value phi_+ free of poles is unique.  a_(-1/eps) is such a pole part,
and a_(-1/eps) * a_y = a_((exp(-eps L) - 1)/eps) is a power series in
eps, so

    S(f) = w(f) (-1/eps)^|f|,   phi_+(f) = w(f) ((exp(-eps L) - 1)/eps)^|f|.

Each of phi, S and phi_+ is w(f) times one series per size n,
((a exp(-eps L) - c)/eps)^n with (a, c) = (1, 0), (0, 1) and (1, 1);
its coefficient of eps^(k-n) is (-L)^k/k! sum_j C(n,j) a^j (-c)^(n-j) j^k
(with 0^0 = 1), which for phi_+ is (-L)^k n! S(k, n)/k! with Stirling
numbers of the second kind, zero below k = n.  Every value is one fold
sum_s a[s] series(s) over size weights: a[s] is the sum of c w(f) over
the forests c f of size s of an element, and the equation gives the
weights of its generators directly (see renormalize_solution).

ToyRules is hashable configuration, equal rules hashing alike, so the
size series ``_series``, the tree weights ``_weight`` and the characters
``rules_character`` and ``counterterm_character`` are ``functools.cache``
functions of it; they live for the whole process.

The tests keep as oracles the recursive grafting rule, the Bogoliubov
preparation over the reduced coproduct (per tree and as a forest-level
recursion that does not assume the character property), the per-size
recursion q_n = sum_(k<n) C(n,k) s_k y^(n-k), s_n = -R(q_n), the
generator recursion over the closed coproduct, and the group identity.
The Birkhoff reconstruction invariant (counterterm o antipode) *
renormalized = plain rules pins the coproduct convention down; it is
enforced in the tests rather than assumed.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import Mapping

from .trees import Record, SparseSum, Tree, _accumulate, _as_coeff, _scaled
from .hopf import Character, _as_forest_sum
from .dse import _graded_fixed_point


class WindowError(ValueError):
    """Raised when a requested coefficient lies outside the exact window."""


_WINDOW = (-8, 2)  # the default eps-window of series, rules and their decoders


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

    @staticmethod
    def const(c) -> "ScalePoly":
        return ScalePoly({0: c})

    @staticmethod
    def L(power: int = 1, coeff=1) -> "ScalePoly":
        return ScalePoly({power: coeff})

    def __repr__(self):
        return " + ".join(f"{v}" if k == 0 else f"{v}*L" if k == 1 else f"{v}*L^{k}"
                          for k, v in sorted(self.terms.items())) or "0"


class LaurentSeries(SparseSum):
    """Truncated Laurent series in eps, keyed by (p, k) for eps^p L^k (see
    the module docstring); built from {p: ScalePoly or rational}."""

    __slots__ = ("lo", "hi")
    _UNIT = (0, 0)
    _key_mul = staticmethod(lambda a, b: (a[0] + b[0], a[1] + b[1]))

    def __init__(self, terms: dict | None = None, window: tuple[int, int] = _WINDOW):
        lo, hi = window
        if lo > hi:
            raise ValueError(f"empty window {window}")
        flat = {}
        for p, c in (terms or {}).items():
            if isinstance(c, (int, Fraction)):
                c = ScalePoly.const(c)
            if not isinstance(c, ScalePoly):
                raise TypeError("coefficients must be ScalePoly or rationals")
            if c and not lo <= p <= hi:
                raise WindowError(f"power eps^{p} outside window [{lo}, {hi}]")
            flat.update(((p, k), v) for k, v in c.terms.items())
        object.__setattr__(self, "terms", flat)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def _make(cls, terms: dict, window: tuple[int, int] = _WINDOW) -> "LaurentSeries":
        obj = object.__new__(cls)
        object.__setattr__(obj, "terms", terms)
        object.__setattr__(obj, "lo", window[0])
        object.__setattr__(obj, "hi", window[1])
        return obj

    @property
    def window(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    @staticmethod
    def const(c, window=_WINDOW) -> "LaurentSeries":
        return LaurentSeries({0: c}, window)

    @staticmethod
    def zero(window=_WINDOW) -> "LaurentSeries":
        return LaurentSeries._make({}, window)

    def coeff(self, p: int) -> ScalePoly:
        """Exact coefficient of eps^p; reading beyond the window raises."""
        if p > self.hi:
            raise WindowError(
                f"coefficient of eps^{p} is truncated (window [{self.lo}, {self.hi}])")
        return ScalePoly._make({k: v for (q, k), v in self.terms.items() if q == p})

    def _coerce(self, other):
        # a rational is exact at eps^0, so its window reaches eps^0 even
        # when this one does not; the meet in _fold keeps this one's hi
        if isinstance(other, (int, Fraction)):
            return LaurentSeries.const(other, (min(self.lo, 0), max(self.hi, 0)))
        return other if isinstance(other, LaurentSeries) else None

    def __add__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else _fold(((self, 1), (other, 1)), self.window)

    def __neg__(self):
        return _fold(((self, -1),), self.window)

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else _fold(((self, 1), (other, -1)), self.window)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _fold(((self, other),), self.window)
        if isinstance(other, ScalePoly):
            # exact at every power of eps: [0, hi - lo] keeps this window
            other = LaurentSeries._make({(0, k): v for k, v in other.terms.items()},
                                        (0, self.hi - self.lo))
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        hi = min(self.hi + other.lo, self.lo + other.hi)
        return LaurentSeries._make(_through(SparseSum.__mul__(self, other).terms, hi),
                                   (self.lo + other.lo, hi))

    __rmul__ = __mul__

    def __eq__(self, other):
        """Equal where both sides are exact: coefficients agree up to the
        smaller hi (below the smaller lo both are zero by construction)."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        hi = min(self.hi, other.hi)
        return _through(self.terms, hi) == _through(other.terms, hi)

    __hash__ = None  # unhashable: equality is window-relative

    def pole_part(self) -> "LaurentSeries":
        """Minimal-subtraction projection R onto the negative powers of eps:
        idempotent and Rota-Baxter, R(a)R(b) = R(R(a)b) + R(aR(b)) - R(ab)."""
        return LaurentSeries._make(_through(self.terms, -1), self.window)

    def is_pole_free(self) -> bool:
        return not any(p < 0 for p, _ in self.terms)

    def __repr__(self):
        bits = " + ".join(f"({self.coeff(p)})*eps^{p}"
                          for p in sorted({p for p, _ in self.terms}))
        return f"LaurentSeries({bits or 0}; window={self.window})"


def _through(terms: dict, hi: int) -> dict:
    """The (p, k) terms with p <= hi."""
    return {pk: v for pk, v in terms.items() if pk[0] <= hi}


def _fold(parts, window: tuple[int, int]) -> LaurentSeries:
    """Sum of ``c * s`` over (LaurentSeries s, rational c) pairs,
    accumulated in place.

    Same value and window as starting from zero on ``window`` and adding
    the parts one by one: the window is the meet of all windows, a part
    with c = 0 included.
    """
    lo, hi = window
    acc: dict = {}
    for s, c in parts:
        lo, hi = min(lo, s.lo), min(hi, s.hi)
        if c:
            _accumulate(acc, _scaled(s.terms, c))
    return LaurentSeries._make(_through(acc, hi), (lo, hi))


# -- toy rules ----------------------------------------------------------------

# the characters phi, S and phi_+ as the pair (a, c) of their size series
# ((a exp(-eps L) - c)/eps)^n, see the module docstring
_RULES, _COUNTERTERM, _RENORMALIZED = (1, 0), (0, 1), (1, 1)


class ToyRules(Record):
    """Configuration of the toy Feynman rules; immutable and hashable, as
    the series, tree weights and characters of equal rules are cached once.

    ``residues`` maps decorations to rational residues r_d (default 1);
    ``scale`` fixes L to a rational value, or keeps it symbolic if None;
    ``window`` is the eps-window of reported values.  The window must
    reach at least as low as -grade for every evaluated element, else a
    WindowError names the required lower end.
    """

    _fields = ("residues", "scale", "window")

    def __init__(self, residues: Mapping[str, Fraction] = MappingProxyType({}),
                 scale: Fraction | None = None, window: tuple[int, int] = _WINDOW):
        residues = MappingProxyType({d: _as_coeff(r) for d, r in residues.items()})
        if scale is not None:
            scale = _as_coeff(scale)
        lo, hi = window = tuple(window)
        if lo > 0 or hi < 0:
            raise ValueError("rules window must contain eps^0")
        super().__init__(residues, scale, window)
        # internal expansion order E of exp(-eps L): a grade-n value is
        # exact on (-n, E-n), which still covers the configured window
        object.__setattr__(self, "_exp_order", hi - lo + 1)

    def __hash__(self):
        return hash((frozenset(self.residues.items()), self.scale, self.window))

    def residue(self, d: str) -> Fraction:
        return self.residues.get(d, Fraction(1))


@cache
def _weight(rules: ToyRules, t: Tree) -> Fraction:
    """(product of the residues of t) / t!, with t! = |t| * prod of the
    children's t!; computed once per rules and tree."""
    got = Fraction(rules.residue(t.label), t.size)
    for c in t.children:
        got *= _weight(rules, c)
    return got


@cache
def _series(rules: ToyRules, kind: tuple[int, int], n: int) -> LaurentSeries:
    """((a exp(-eps L) - c)/eps)^n for kind (a, c), expanded over
    eps^-n .. eps^(E-n); computed once per rules, kind and size."""
    a, c = kind
    terms = {}
    for k in range(rules._exp_order + 1):
        total = sum(math.comb(n, j) * a ** j * (-c) ** (n - j) * j ** k
                    for j in range(n + 1))
        v = Fraction((-1) ** k * total, math.factorial(k))
        terms[k - n] = ScalePoly.L(k, v) if rules.scale is None else v * rules.scale ** k
    return LaurentSeries(terms, (-n, rules._exp_order - n))


def _on_sizes(rules: ToyRules, kind: tuple[int, int], sizes) -> LaurentSeries:
    """sum_s a[s] series(s) over the size weights ``sizes`` {s: a[s]}, on
    the rules window.

    A size-s series is exact on (-s, E-s) and E-s > hi once -s >= lo, so
    for sizes up to -lo the sum is exact on the whole window.
    """
    return _fold(((_series(rules, kind, s), a) for s, a in sizes.items()), rules.window)


def _size_weights(rules: ToyRules, x) -> dict[int, Fraction]:
    """{s: sum of c w(f) over the forests c f of size s} of a Tree, Forest
    or ForestSum, once the rules window is checked to hold its poles."""
    xs = _as_forest_sum(x)
    needed = xs.max_grade()
    if -needed < rules.window[0]:
        raise WindowError(
            f"window {rules.window} too narrow for grade {needed}: "
            f"lower end must be <= {-needed}")
    pairs = ((f.grade, math.prod((_weight(rules, t) for t in f.trees), start=c))
             for f, c in xs.terms.items())
    return _accumulate({}, ((s, a) for s, a in pairs if a))


def _character(rules: ToyRules, kind: tuple[int, int], name: str) -> Character:
    one = LaurentSeries.const(1, (0, rules._exp_order))
    return Character(lambda t: _series(rules, kind, t.size) * _weight(rules, t),
                     one, target="laurent", name=name)


@cache
def rules_character(rules: ToyRules) -> Character:
    """The toy rules packaged as a character with Laurent target."""
    return _character(rules, _RULES, "phi")


def toy_feynman_rules(rules: ToyRules, x) -> LaurentSeries:
    """Evaluate the toy rules phi(f) = w(f) (exp(-eps L)/eps)^|f| on a
    Tree, Forest or ForestSum."""
    return _on_sizes(rules, _RULES, _size_weights(rules, x))


# -- BPHZ ----------------------------------------------------------------------

def counterterm(rules: ToyRules, x) -> LaurentSeries:
    """Minimal-subtraction counterterm S(f) = w(f) (-1/eps)^|f|, extended
    to sums linearly.

    The forest-level recursion S(f) = -R(phi(f) + sum' S(f'_root) phi(f'_pruned))
    defines the same map; the tests keep it as the oracle.
    """
    return _on_sizes(rules, _COUNTERTERM, _size_weights(rules, x))


@cache
def counterterm_character(rules: ToyRules) -> Character:
    return _character(rules, _COUNTERTERM, "phi_minus")


def bogoliubov(rules: ToyRules, x) -> LaurentSeries:
    """Preparation map phi(x) + sum' S(x'_root) phi(x'_pruned), which is
    renormalized value minus counterterm."""
    sizes = _size_weights(rules, x)
    return _on_sizes(rules, _RENORMALIZED, sizes) - _on_sizes(rules, _COUNTERTERM, sizes)


def renormalized_value(rules: ToyRules, x) -> LaurentSeries:
    """Renormalized value phi_+(f) = w(f) ((exp(-eps L) - 1)/eps)^|f|,
    extended to sums linearly.

    Equals the convolution (counterterm * rules)(x); pole free by the
    Birkhoff factorization, which is asserted here as a consistency
    guard.
    """
    val = _on_sizes(rules, _RENORMALIZED, _size_weights(rules, x))
    if not val.is_pole_free():
        raise ArithmeticError(
            f"internal consistency failure: renormalized value has poles: {val!r}")
    return val


class BirkhoffPair(Record):
    """Values of the two Birkhoff factors on one element."""

    _fields = ("negative", "positive")


def birkhoff(rules: ToyRules, x) -> BirkhoffPair:
    """Birkhoff splitting of the rules on ``x``: pole-only and regular parts.

    The negative factor is the counterterm character, the positive one
    the renormalized value; reconstruction (negative o antipode) *
    positive = rules holds in convolution and is covered by tests.
    """
    return BirkhoffPair(negative=counterterm(rules, x),
                        positive=renormalized_value(rules, x))


class RenormReport(Record):
    """Gradewise renormalization of a truncated equation solution.

    ``window`` is the window actually used; when it differs from the
    one configured in the rules, automatic widening kicked in.
    """

    _fields = ("order", "scale_symbolic", "window", "widened",
               "renormalized", "counterterms")


def renormalize_solution(rules: ToyRules, sol, m: int,
                         widen: bool = True) -> RenormReport:
    """Renormalize X_1..X_m of a solution; entry i-1 holds grade i.

    Both factors are folds over the size weights a_n[s] of X_n (see the
    module docstring), which the equation gives without reading a tree:
    B+_d maps weight v at size s to r_d v/(s+1) at size s+1.  The finite
    part of phi_+(X_n), its eps^0 term, is sum_s a_n[s] (-L)^s.  Its
    L-derivative at L = 0 lives on the one-vertex trees, so the anomalous
    dimension gamma_n = -omega_n r_(d_n) is linear in the couplings; the
    tests hold every grade to the renormalization-group recursion in it.

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
        rules = ToyRules(rules.residues, rules.scale, (-m, hi))
        widened = True
    weights = _graded_fixed_point(sol.spec, ScalePoly.unit(), m, lambda coc, inner: ScalePoly(
        {s + 1: coc.omega * rules.residue(coc.decoration) * v / (s + 1)
         for s, v in inner.terms.items()}))

    def on_sizes(kind):
        return tuple(_on_sizes(rules, kind, a.terms) for a in weights[1:])

    return RenormReport(order=m, scale_symbolic=rules.scale is None,
                        window=rules.window, widened=widened,
                        renormalized=on_sizes(_RENORMALIZED),
                        counterterms=on_sizes(_COUNTERTERM))
