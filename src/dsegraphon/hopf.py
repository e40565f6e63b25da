"""Hopf-algebra structure on decorated rooted forests.

The coproduct is the admissible-cut coproduct written with the root part
in the LEFT tensor factor and the pruned forest in the RIGHT one:

    delta(t) = t (x) 1  +  1 (x) t  +  sum_c R_c(t) (x) P_c(t)

Everything downstream (reduced coproduct, antipode recursion,
convolution, characters) uses this factor order consistently.  In this
order the grafting operator B+ satisfies the one-cocycle identity with
B+ acting on the LEFT factor:

    delta(B+(x)) = (B+ (x) id) delta(x)  +  1 (x) B+(x)

which the test suite verifies exhaustively on low grades; the mirrored
form with B+ on the right factor fails already at two vertices attached
to a common root.

The antipode and the convolution read the reduced coproduct of x as
merged rows: its terms grouped by left forest, each row scaled so that
its least-code right forest has coefficient 1, and the left forests of
equal rows summed, so delta'(x) = sum A (x) B with one pair per class of
proportional rows.  For a DSE generator the pairs are
c X_k (x) [X^(k+1)]_(n-k) / c (Bergbauer-Kreimer, hep-th/0506190), so
S(x) = -x - sum S(A) B and (f * g)(x) = f(x) g(1) + f(1) g(x) + sum f(A) g(B)
recurse over generators, not trees.  Rows and S are cached per element
scaled to a least-code coefficient of 1; one forest is the base case,
the per-tree recursion multiplied over its trees.

All maps are linear in ForestSum and exact over the rationals.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .trees import _CODE, EMPTY_FOREST, Forest, ForestSum, SparseSum, Tree, \
    _accumulate, _forest_product, _grafted, _scaled


class TensorSum(SparseSum):
    """Rational linear combination of pairs of forests ``left (x) right``.

    The product is componentwise.
    """

    __slots__ = ()
    _UNIT = (EMPTY_FOREST, EMPTY_FOREST)

    @staticmethod
    def _check_key(k):
        if not (isinstance(k, tuple) and len(k) == 2
                and isinstance(k[0], Forest) and isinstance(k[1], Forest)):
            raise TypeError("keys must be pairs of Forests")
        return k

    @staticmethod
    def _key_mul(a, b):
        return (_forest_product(a[0], b[0]), _forest_product(a[1], b[1]))

    @staticmethod
    def of(left: Forest, right: Forest, coeff=1) -> "TensorSum":
        return TensorSum({(left, right): coeff})

    def map_left(self, fn) -> "TensorSum":
        """Apply a ForestSum-valued linear map to the left factor."""
        return TensorSum._make(_accumulate({}, (
            ((f, r), c * v) for (l, r), c in self.terms.items()
            for f, v in fn(l).terms.items())))

    def __repr__(self):
        if not self.terms:
            return "TensorSum(0)"
        bits = []
        for (l, r), c in sorted(self.terms.items(), key=lambda kv: (kv[0][0].code, kv[0][1].code)):
            bits.append(f"{c}*({l} (x) {r})")
        return "TensorSum(" + " + ".join(bits) + ")"


# -- grafting ---------------------------------------------------------------

def graft(label: str, x) -> ForestSum:
    """B+ operator: attach every forest of ``x`` to a fresh ``label`` root.

    Linear, raises the grade by exactly one.
    """
    # grafting is injective on forests, so no two terms meet
    return ForestSum._make({_grafted(label, f): c
                            for f, c in _as_forest_sum(x).terms.items()})


def _as_forest_sum(x) -> ForestSum:
    if isinstance(x, ForestSum):
        return x
    if isinstance(x, (Tree, Forest)):
        return ForestSum.of(x)
    raise TypeError("expected Tree, Forest or ForestSum")


# -- coproduct ---------------------------------------------------------------

@cache
def _coproduct_tree(t: Tree) -> TensorSum:
    # delta(B+(f)) = (B+ (x) id) delta(f) + 1 (x) B+(f); the grafted left
    # factors are distinct and never empty, so no two terms meet
    d = TensorSum.product(map(_coproduct_tree, t.children))
    out = {(_grafted(t.label, l), r): c for (l, r), c in d.terms.items()}
    out[EMPTY_FOREST, Forest((t,))] = 1
    return TensorSum._make(out)


def _coproduct_terms(x: ForestSum) -> dict:
    """Coproduct of ``x`` as a fresh dict the caller owns."""
    out: dict = {}
    for f, c in x.terms.items():
        d = TensorSum.product(map(_coproduct_tree, f.trees))
        _accumulate(out, _scaled(d.terms, c))
    return out


def coproduct(x) -> TensorSum:
    """Admissible-cut coproduct, root part left, pruned forest right."""
    return TensorSum._make(_coproduct_terms(_as_forest_sum(x)))


def reduced_coproduct(x) -> TensorSum:
    """Coproduct with the two primitive terms ``x (x) 1`` and ``1 (x) x`` removed."""
    x = _as_forest_sum(x)
    return TensorSum._make(_accumulate(_coproduct_terms(x), (
        (k, -c) for f, c in x.terms.items()
        for k in ((f, EMPTY_FOREST), (EMPTY_FOREST, f)))))


def counit(x) -> Fraction:
    return _as_forest_sum(x).counit()


# -- antipode ----------------------------------------------------------------

@cache
def _antipode_tree(t: Tree) -> ForestSum:
    # S(t) = -t - sum' S(left) * right over the reduced coproduct, which
    # is the terms of delta(t) with both factors nonempty
    out = {Forest((t,)): -1}
    for (l, r), c in _coproduct_tree(t).terms.items():
        if l.trees and r.trees:
            _accumulate(out, ((_forest_product(f, r), v)
                              for f, v in _scaled(_antipode_forest(l).terms, -c)))
    return ForestSum._make(out)


def _antipode_forest(f: Forest) -> ForestSum:
    return ForestSum.product(map(_antipode_tree, f.trees))


def _normalized(terms: dict) -> tuple:
    """(s, y) with ``terms`` less the empty forest equal to s * y and the
    least-code forest of y at coefficient 1; (0, 0) when nothing is left."""
    if EMPTY_FOREST in terms:
        terms = {f: c for f, c in terms.items() if f.trees}
    s = terms[min(terms, key=_CODE)] if terms else 0
    if s in (0, 1):
        return s, ForestSum._make(terms)
    return s, ForestSum._make(dict.fromkeys(terms, 1) if len(terms) == 1 else
                              _accumulate({}, _scaled(terms, 1 / Fraction(s))))


@cache
def _merged_rows(y: ForestSum) -> tuple:
    """Pairs (A, B) with sum A (x) B the reduced coproduct of ``y``, one
    per class of proportional rows (see the module docstring), each A
    normalized."""
    rows: dict = {}
    for (l, r), c in reduced_coproduct(y).terms.items():
        rows.setdefault(l, {})[r] = c
    merged: dict = {}
    for l, row in rows.items():
        s, b = _normalized(row)
        merged.setdefault(b, {})[l] = s
    # A scaled by 1/s and B by s, with s the coefficient of A's least-code
    # forest: that B is the row of that forest
    pairs = []
    for left in merged.values():
        a = _normalized(left)[1]
        pairs.append((a, ForestSum._make(rows[min(a.terms, key=_CODE)])))
    return tuple(pairs)


@cache
def _antipode_rows(y: ForestSum) -> ForestSum:
    # S(y) = -y - sum S(A) * B for a normalized y; one forest is the
    # per-tree base case
    if len(y.terms) == 1:
        return _antipode_forest(*y.terms)
    out = {f: -c for f, c in y.terms.items()}
    for a, b in _merged_rows(y):
        _accumulate(out, ((_forest_product(f, r), -c * v)
                          for f, c in _antipode_rows(a).terms.items() for r, v in b.terms.items()))
    return ForestSum._make(out)


def antipode(x) -> ForestSum:
    """Antipode over the merged rows of the reduced coproduct (see the
    module docstring).

    Multiplicative over forests; satisfies m (S (x) id) delta = counit * unit,
    which the tests check exhaustively on low grades.
    """
    x = _as_forest_sum(x)
    s, y = _normalized(x.terms)
    out = _accumulate({}, _scaled(_antipode_rows(y).terms, s))
    unit = x.terms.get(EMPTY_FOREST)
    return ForestSum._make(_accumulate(out, ((EMPTY_FOREST, unit),)) if unit else out)


# -- characters and convolution ----------------------------------------------

class Character:
    """Algebra morphism from forests into a commutative target algebra.

    ``rule`` gives the value on a single tree, called once per tree
    through ``on_tree``; values on forests are the products of the tree
    values and the empty forest maps to ``one``.
    ``target`` is a tag used to refuse convolution of characters landing
    in different algebras.
    """

    def __init__(self, rule, one, target: str, name: str = ""):
        self.one = one
        self.target = target
        self.name = name
        self.on_tree = cache(rule)

    def on_forest(self, f: Forest):
        if not f.trees:
            return self.one
        val = self.on_tree(f.trees[0])
        for t in f.trees[1:]:
            val = val * self.on_tree(t)
        return val

    def __call__(self, x):
        x = _as_forest_sum(x)
        total = None
        for f, c in x.terms.items():
            term = self.on_forest(f) if c == 1 else self.on_forest(f) * c
            total = term if total is None else total + term
        if total is None:
            return self.one * Fraction(0)
        return total

    def __repr__(self):
        return f"Character({self.name or self.target})"


def convolve(f: Character, g: Character, x):
    """Convolution product (f * g)(x) = sum f(x_1) g(x_2) over the coproduct,
    read as f(x) g(1) + f(1) g(x) + sum f(A) g(B) over the merged rows of
    the reduced coproduct, the empty-forest term of x counted once."""
    if f.target != g.target:
        raise ValueError(f"cannot convolve characters with targets {f.target!r} and {g.target!r}")
    xs = _as_forest_sum(x)
    s, y = _normalized(xs.terms)
    cross = f.one * Fraction(0)
    for a, b in _merged_rows(y):
        cross = cross + f(a) * g(b)
    return f(xs) * g.one + (f.one * g(y) + cross) * s


def rational_character(rule, name: str = "") -> Character:
    return Character(rule, Fraction(1), "rational", name)
