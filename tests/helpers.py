"""Readers, generators and oracles that only the tests use: the JSON
decoders that read a document's trees, forest sums, Laurent series,
graphons and polynomials back into package objects, the enumeration of
trees by vertex count, the term-by-term Hopf oracles, and the Haar
point of a set of ranks.  The package decodes only what the CLI reads
(equation specs, rules and graphs); every decoder here raises ValueError
on a JSON value that it cannot decode, as the package's own do.
"""

from fractions import Fraction

from dsegraphon.graphon import StepGraphon
from dsegraphon.graphpoly import MultiPoly
from dsegraphon.haar import SolutionPoint, VertexUniverse
from dsegraphon.hopf import TensorSum, coproduct
from dsegraphon.renorm import LaurentSeries, ScalePoly
from dsegraphon.serialize import _window, rational_from_str
from dsegraphon.trees import EMPTY_FOREST, Forest, ForestSum, Tree, _is_int, \
    all_forests


def all_trees(n: int, labels=("g",)) -> list[Tree]:
    """All distinct decorated rooted trees with exactly ``n`` vertices,
    sorted by code: every root label grafted onto every forest of n - 1
    vertices."""
    if n < 1:
        return []
    return sorted((Tree(lab, f.trees) for f in all_forests(n - 1, labels)
                   for lab in labels), key=lambda t: t.code)


# -- Hopf oracles ------------------------------------------------------------------
#
# The coproduct and antipode folds use only the public operators and
# rebuild an immutable sum at every step (``acc = acc + x``), with a memo
# of their own; the antipode runs per tree over the reduced coproduct of
# each tree.  The convolution sums f(l) g(r) over every term of the full
# coproduct.

def ref_coproduct_tree(t: Tree, memo: dict) -> TensorSum:
    if t not in memo:
        d = TensorSum.unit()
        for child in t.children:
            d = d * ref_coproduct_tree(child, memo)
        out = TensorSum.of(EMPTY_FOREST, Forest((t,)))
        for (l, r), c in d.terms.items():
            out = out + TensorSum.of(Forest((Tree(t.label, l.trees),)), r, c)
        memo[t] = out
    return memo[t]


def ref_coproduct(x: ForestSum, memo: dict) -> TensorSum:
    out = TensorSum.zero()
    for f, c in x.terms.items():
        d = TensorSum.unit()
        for t in f:
            d = d * ref_coproduct_tree(t, memo)
        out = out + d * c
    return out


def ref_antipode_tree(t: Tree, memo: dict) -> ForestSum:
    key = ("S", t)
    if key not in memo:
        x = ForestSum.of(t)
        red = (ref_coproduct(x, memo) - TensorSum.of(Forest((t,)), EMPTY_FOREST)
               - TensorSum.of(EMPTY_FOREST, Forest((t,))))
        acc = -1 * x
        for (l, r), c in red.terms.items():
            acc = acc - c * (ref_antipode_forest(l, memo) * ForestSum.of(r))
        memo[key] = acc
    return memo[key]


def ref_antipode_forest(f: Forest, memo: dict) -> ForestSum:
    out = ForestSum.unit()
    for t in f:
        out = out * ref_antipode_tree(t, memo)
    return out


def ref_antipode(x: ForestSum, memo: dict) -> ForestSum:
    out = ForestSum.zero()
    for f, c in x.terms.items():
        out = out + c * ref_antipode_forest(f, memo)
    return out


def ref_convolve(f, g, x):
    """(f * g)(x) for characters f and g: f(l) g(r) c summed over every
    term c l (x) r of ``coproduct(x)``."""
    total = f.one * Fraction(0)
    for (l, r), c in coproduct(x).terms.items():
        total = total + (f.on_forest(l) * g.on_forest(r)) * c
    return total


# -- decoders ----------------------------------------------------------------------

def tree_from_json(obj) -> Tree:
    if not isinstance(obj, dict) or "d" not in obj:
        raise ValueError("tree object needs a 'd' label field")
    children = obj.get("c", [])
    if not isinstance(children, list):
        raise ValueError("tree 'c' must be an array of trees")
    return Tree(obj["d"], [tree_from_json(c) for c in children])


def forest_from_json(obj) -> Forest:
    if not isinstance(obj, list):
        raise ValueError("forest must be an array of trees")
    return Forest(tree_from_json(t) for t in obj)


def forest_sum_from_json(obj) -> ForestSum:
    if not isinstance(obj, list) or not all(
            isinstance(item, dict) and "forest" in item and "coef" in item for item in obj):
        raise ValueError("forest sum must be an array of objects with 'coef' and 'forest'")
    return ForestSum((forest_from_json(item["forest"]), rational_from_str(item["coef"]))
                     for item in obj)


def laurent_from_json(obj) -> LaurentSeries:
    if not isinstance(obj, dict):
        raise ValueError("Laurent series must be an object")
    window = _window(obj, "Laurent")
    items = obj.get("terms", [])
    if not isinstance(items, list) or not all(
            isinstance(item, dict) and _is_int(item.get("pow"))
            and isinstance(item.get("coef"), list)
            and all(isinstance(c, list) and len(c) == 2 and _is_int(c[1]) for c in item["coef"])
            for item in items):
        raise ValueError("Laurent 'terms' must be an array of objects with an integer "
                         "'pow' and a 'coef' array of [value, integer power] pairs")
    terms = {item["pow"]: ScalePoly({k: rational_from_str(c) for c, k in item["coef"]})
             for item in items}
    return LaurentSeries(terms, window)


def graphon_from_json(obj) -> StepGraphon:
    if not (isinstance(obj, dict) and isinstance(obj.get("measures"), list)
            and isinstance(obj.get("values"), list)
            and all(isinstance(row, list) for row in obj["values"])):
        raise ValueError("graphon object needs a 'measures' array and a "
                         "'values' array of arrays")
    return StepGraphon([rational_from_str(m) for m in obj["measures"]],
                       [[rational_from_str(v) for v in row]
                        for row in obj["values"]])


def _exponent(e) -> int:
    if not _is_int(e) or e < 0:
        raise ValueError(f"exponent must be a nonnegative integer, got {e!r}")
    return e


def multipoly_from_json(obj) -> MultiPoly:
    if not isinstance(obj, list) or not all(
            isinstance(item, dict) and "coef" in item
            and isinstance(item.get("exps", {}), dict) for item in obj):
        raise ValueError("polynomial must be an array of objects with 'coef' "
                         "and an 'exps' object")
    return MultiPoly((((v, _exponent(e)) for v, e in item.get("exps", {}).items()),
                      rational_from_str(item["coef"])) for item in obj)


def point_from_ranks(u: VertexUniverse, ranks=()) -> SolutionPoint:
    """The point of ``u`` holding ``ranks``: rank r is bit r - 1 of its mask."""
    mask = 0
    for r in ranks:
        if not (1 <= r <= u.depth):
            raise ValueError(f"rank {r} outside 1..{u.depth}")
        mask |= 1 << (r - 1)
    return SolutionPoint(u, mask)
