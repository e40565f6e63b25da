"""Readers and generators that only the tests use: the JSON decoders
that read a document's trees, forest sums, Laurent series, graphons and
polynomials back into package objects, and the enumeration of trees by
vertex count.  The package decodes only what the CLI reads (equation
specs, rules and graphs); every decoder here raises ValueError on a JSON
value that it cannot decode, as the package's own do.
"""

from dsegraphon.graphon import StepGraphon
from dsegraphon.graphpoly import MultiPoly
from dsegraphon.renorm import LaurentSeries, ScalePoly
from dsegraphon.serialize import _window, rational_from_str
from dsegraphon.trees import Forest, ForestSum, Tree, _is_int, all_forests


def all_trees(n: int, labels=("g",)) -> list[Tree]:
    """All distinct decorated rooted trees with exactly ``n`` vertices,
    sorted by code: every root label grafted onto every forest of n - 1
    vertices."""
    if n < 1:
        return []
    return sorted((Tree(lab, f.trees) for f in all_forests(n - 1, labels)
                   for lab in labels), key=lambda t: t.code)


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
