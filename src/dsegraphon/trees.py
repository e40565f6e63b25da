"""Decorated non-planar rooted trees, forests and their linear combinations.

Trees are immutable and canonical by construction: children are stored
sorted by their canonical string codes, so two trees are equal iff they
are isomorphic as decorated rooted trees.  A forest is a multiset of
trees (again kept sorted), and a ForestSum is a finite rational linear
combination of forests.  ForestSums form a commutative algebra under
juxtaposition of forests; the empty forest is the unit.

Trees and forests are interned: their constructors look the canonical
code up in the dicts ``_TREES`` and ``_FORESTS`` and return the one
object already built for it, so equal trees (forests) are the same
object and compare and hash by identity.  The forest product
``_forest_product``, the one-tree forests B+_label(f) of ``_grafted``
and the enumerations ``_trees_memo`` and ``_forests_memo`` are
``functools.cache``d; the enumerations cache tuples, which
``all_forests`` copies into a new list per call.  The tables and the
caches live for the whole process.

Coefficients are exact: a sum stores each one as an ``int`` when it is
integral and as a ``Fraction`` otherwise, never zero and never a float.
``int`` and ``Fraction`` compare and hash alike, so sums that differ
only in that representation are equal.

Decorations are plain nonempty strings.  The characters ``[``, ``]`` and
``|`` are reserved for the canonical encoding and rejected in labels.

The grading used everywhere in this package is the total number of
vertices.

``Record`` is the base of the small immutable value classes of every
layer (equation specs and solutions, rules, reports, estimates).  It
lives here because every layer imports this module, and a plain base
class costs no import, where the standard library's record decorator
would load ``inspect`` and ``ast`` into every process.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from operator import attrgetter
from typing import Iterable, Iterator

_RESERVED = set("[]|")
_CODE = attrgetter("code")
_SIZE = attrgetter("size")


class Record:
    """Immutable value record; a subclass lists its ``_fields`` in order.

    Equal only to a record of the same class (``NotImplemented``
    otherwise, so never to a plain tuple), hashed as the tuple of its
    fields, shown as ``Name(field=value, ...)``.  The constructor takes
    the fields by position or keyword; a subclass that validates or
    normalises overrides ``__init__`` and passes the checked values on.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields "
                            f"{', '.join(names)}, each once")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return type(self).__qualname__ + "(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


def check_decoration(label: str) -> str:
    if not isinstance(label, str) or not label:
        raise ValueError("decoration label must be a nonempty string")
    if _RESERVED & set(label):
        raise ValueError("decoration label may not contain '[', ']' or '|'")
    return label


class Tree:
    """A decorated rooted tree with unordered children; interned by code."""

    __slots__ = ("label", "children", "code", "size")

    def __new__(cls, label: str, children: Iterable["Tree"] = ()):
        check_decoration(label)
        kids = tuple(sorted(children, key=_CODE))
        for k in kids:
            if not isinstance(k, Tree):
                raise TypeError("children must be Tree instances")
        code = label + "[" + "".join(map(_CODE, kids)) + "]"
        self = _TREES.get(code)
        if self is None:
            self = _TREES[code] = object.__new__(cls)
            object.__setattr__(self, "label", label)
            object.__setattr__(self, "children", kids)
            object.__setattr__(self, "code", code)
            object.__setattr__(self, "size", 1 + sum(map(_SIZE, kids)))
        return self

    def __reduce__(self):
        return Tree, (self.label, self.children)

    def __setattr__(self, name, value):
        raise AttributeError("Tree is immutable")

    def __lt__(self, other: "Tree"):
        return self.code < other.code

    def __repr__(self):
        if not self.children:
            return f"Tree({self.label!r})"
        return f"Tree({self.label!r}, {list(self.children)!r})"

    def __str__(self):
        if not self.children:
            return self.label
        return self.label + "(" + ",".join(str(k) for k in self.children) + ")"


def leaf(label: str) -> Tree:
    """Single-vertex tree."""
    return Tree(label)


def ladder(n: int, label: str = "g") -> Tree:
    """Chain of ``n`` vertices, root at one end, all with the same label."""
    if n < 1:
        raise ValueError("ladder needs at least one vertex")
    t = Tree(label)
    for _ in range(n - 1):
        t = Tree(label, (t,))
    return t


class Forest:
    """A finite multiset of trees; the monomials of the tree algebra.

    Interned by code, like Tree; the product is cached per pair.
    """

    __slots__ = ("trees", "code", "grade")

    def __new__(cls, trees: Iterable[Tree] = ()):
        return _forest(tuple(sorted(trees, key=_CODE)))

    def __reduce__(self):
        return Forest, (self.trees,)

    def __setattr__(self, name, value):
        raise AttributeError("Forest is immutable")

    def __lt__(self, other: "Forest"):
        return self.code < other.code

    def __iter__(self) -> Iterator[Tree]:
        return iter(self.trees)

    def __repr__(self):
        return f"Forest({list(self.trees)!r})"

    def __str__(self):
        return " ".join(str(t) for t in self.trees) if self.trees else "1"


def _forest(trees: tuple[Tree, ...]) -> Forest:
    """The interned forest of ``trees``, already sorted by code."""
    code = "".join(map(_CODE, trees))
    f = _FORESTS.get(code)
    if f is None:
        f = _FORESTS[code] = object.__new__(Forest)
        object.__setattr__(f, "trees", trees)
        object.__setattr__(f, "code", code)
        object.__setattr__(f, "grade", sum(map(_SIZE, trees)))
    return f


@cache
def _forest_product(a: Forest, b: Forest) -> Forest:
    """The forest ``a b``, built once per pair."""
    if not b.trees:
        return a
    if not a.trees:
        return b
    return _forest(tuple(sorted(a.trees + b.trees, key=_CODE)))


@cache
def _grafted(label: str, f: Forest) -> Forest:
    """The one-tree forest B+_label(f): ``f`` grafted onto a new ``label``
    root, built once per pair."""
    return _forest((Tree(label, f.trees),))


_TREES: dict[str, Tree] = {}
_FORESTS: dict[str, Forest] = {}
EMPTY_FOREST = Forest()


def _is_int(x) -> bool:
    """An integer, where a boolean is not one."""
    return isinstance(x, int) and not isinstance(x, bool)


def _as_coeff(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficients must be exact rationals, got {type(c).__name__}")


def _coeff(c):
    """Validate ``c`` as a stored coefficient: an int when it is integral,
    else a Fraction."""
    c = _as_coeff(c)
    return c.numerator if c.denominator == 1 else c


def _accumulate(out: dict, items) -> dict:
    """Add ``(key, coefficient)`` pairs into ``out`` in place and return it.

    Every coefficient must be a nonzero int or Fraction.  An integral
    Fraction, added or summed, is stored as its int; a key whose
    coefficient cancels is deleted, so ``out`` never holds a zero.
    ``out`` must be a dict the caller owns, never the ``terms`` of an
    existing sum: sums are shared (caches hand the same object to every
    caller).
    """
    get = out.get
    for k, c in items:
        if type(c) is not int and c.denominator == 1:
            c = c.numerator
        s = get(k)
        if s is None:
            out[k] = c
        else:
            s += c
            if not s:
                del out[k]
            elif type(s) is int or s.denominator != 1:
                out[k] = s
            else:
                out[k] = s.numerator
    return out


def _scaled(terms: dict, c):
    """The (key, coefficient) pairs of ``c`` times ``terms``."""
    return terms.items() if c == 1 else ((k, c * v) for k, v in terms.items())


def _bareiss_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss fraction-free
    elimination: every intermediate entry is an exact integer (a minor of
    the input), so no rational arithmetic is needed.  ``rows`` is left
    unchanged; the empty matrix has determinant 1.
    """
    sign = prev = 1
    while len(rows) > 1:
        p = next((i for i, row in enumerate(rows) if row[0]), None)
        if p is None:
            return 0
        if p:
            rows = [rows[p]] + rows[1:p] + [rows[0]] + rows[p + 1:]
            sign = -sign
        top = rows[0]
        piv = top[0]
        # each new entry is a minor of the input, so the division is exact
        rows = [[(x * piv - row[0] * y) // prev for x, y in zip(row[1:], top[1:])]
                for row in rows[1:]]
        prev = piv
    return sign * rows[0][0] if rows else 1


class SparseSum:
    """Immutable finite rational linear combination of hashable keys.

    Invariant: every key has passed the subclass's ``_check_key`` and
    every coefficient is a nonzero int, or a Fraction when it is not
    integral (``_accumulate`` keeps this).  The public constructor
    validates its input; ``_make`` trusts a dict that already holds the
    invariant and takes ownership of it.

    A subclass supplies ``_check_key`` (validate and normalise one key),
    ``_key_mul`` (the product of two keys), ``_UNIT`` (the key of the
    multiplicative unit) and ``_SCALARS`` (whether bare rationals stand
    for constants in ``+``, ``-`` and ``==``).
    """

    __slots__ = ("terms",)
    _UNIT = None
    _SCALARS = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # every class binds its own arithmetic, so that wrapping one
        # class's method (to profile or trace it) leaves the others alone
        for name in ("__add__", "__mul__"):
            if name not in cls.__dict__:
                setattr(cls, name, getattr(cls, name))

    def __init__(self, terms=None):
        """``terms``: a mapping or an iterable of (key, coefficient) pairs;
        repeated keys add and zero coefficients are dropped."""
        clean: dict = {}
        if terms:
            check = self._check_key
            for k, c in (terms.items() if hasattr(terms, "items") else terms):
                k = check(k)
                c = _coeff(c)
                if c:
                    _accumulate(clean, ((k, c),))
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _make(cls, terms: dict):
        obj = object.__new__(cls)
        object.__setattr__(obj, "terms", terms)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls):
        return cls._make({})

    @classmethod
    def unit(cls):
        return cls._make({cls._UNIT: 1})

    @classmethod
    def product(cls, factors):
        """Product of an iterable of sums; the unit when it is empty."""
        out = None
        for x in factors:
            out = x if out is None else out * x
        return cls.unit() if out is None else out

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if self._SCALARS and isinstance(other, (int, Fraction)):
            c = _coeff(other)
            return self._make({self._UNIT: c} if c else {})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._make(_accumulate(dict(self.terms), other.terms.items()))

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._make(_accumulate(dict(self.terms),
                                      ((k, -c) for k, c in other.terms.items())))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            return self._make(_accumulate({}, _scaled(self.terms, c)) if c else {})
        if not isinstance(other, type(self)):
            return NotImplemented
        kmul = self._key_mul
        b = other.terms.items()
        return self._make(_accumulate({}, ((kmul(k1, k2), c1 * c2)
                                           for k1, c1 in self.terms.items()
                                           for k2, c2 in b)))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("powers must be nonnegative integers")
        return self.product([self] * k)

    def __eq__(self, other):
        other = self._coerce(other)
        return other is not None and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)


class ForestSum(SparseSum):
    """Rational linear combination of forests.

    Supports ``+``, ``-``, multiplication (concatenation product, with
    scalars accepted on either side) and integer powers.  Zero
    coefficients are never stored.
    """

    __slots__ = ()
    _UNIT = EMPTY_FOREST
    _key_mul = staticmethod(_forest_product)

    @staticmethod
    def _check_key(f):
        if not isinstance(f, Forest):
            raise TypeError("keys must be Forests")
        return f

    @staticmethod
    def of(x, coeff=1) -> "ForestSum":
        """Lift a Tree or Forest to a one-term sum."""
        if isinstance(x, Tree):
            x = Forest((x,))
        if not isinstance(x, Forest):
            raise TypeError("expected Tree or Forest")
        return ForestSum({x: coeff})

    # -- inspection --------------------------------------------------------

    def counit(self):
        """Coefficient of the empty forest."""
        return self.terms.get(EMPTY_FOREST, 0)

    def max_grade(self) -> int:
        return max((f.grade for f in self.terms), default=0)

    def __repr__(self):
        if not self.terms:
            return "ForestSum(0)"
        bits = []
        for f, c in sorted(self.terms.items(), key=lambda kv: (kv[0].grade, kv[0].code)):
            bits.append(f"{c}*{f}")
        return "ForestSum(" + " + ".join(bits) + ")"


# -- enumeration -----------------------------------------------------------
#
# Counting distinct shapes against known values doubles as a correctness
# check of the canonical encoding.

@cache
def _trees_memo(n: int, labels: tuple[str, ...]) -> tuple[Tree, ...]:
    if n == 0:
        return ()
    out = []
    for forest in _forests_memo(n - 1, labels):
        for lab in labels:
            out.append(Tree(lab, forest.trees))
    return tuple(sorted(set(out), key=lambda t: t.code))


def all_forests(n: int, labels: tuple[str, ...] = ("g",)) -> list[Forest]:
    """All distinct forests with exactly ``n`` vertices in total, in a
    new list on each call."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    return list(_forests_memo(n, tuple(labels)))


@cache
def _forests_memo(n: int, labels: tuple[str, ...]) -> tuple[Forest, ...]:
    if n == 0:
        return (EMPTY_FOREST,)
    # multisets of trees of total size n: pick the code-largest tree
    # first to avoid generating permutations of the same multiset
    seen: set[Forest] = set()
    for k in range(1, n + 1):
        for t in _trees_memo(k, labels):
            for rest in _forests_memo(n - k, labels):
                if rest.trees and rest.trees[-1].code > t.code:
                    continue
                seen.add(Forest(rest.trees + (t,)))
    return tuple(sorted(seen, key=lambda f: f.code))


def all_forests_up_to(n: int, labels: tuple[str, ...] = ("g",)) -> list[Forest]:
    out: list[Forest] = []
    for k in range(n + 1):
        out.extend(all_forests(k, labels))
    return out
