"""JSON wire formats for the algebraic and analytic objects.

Rationals travel as exact "p/q" strings (or "p" when integral); every
encoder emits a deterministic ordering so serialized documents are
byte-stable for identical inputs.  Decoders exist for what the CLI
reads: equation specs, rules and graphs.  The tests read documents back
with their own decoders, in ``tests/helpers.py``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from typing import TYPE_CHECKING

from .trees import Tree, Forest, ForestSum, _is_int

# A decoder imports the type it builds when it is called, so that
# importing this module loads no layer beyond the trees.
if TYPE_CHECKING:
    from .dse import DSESpec, DSESolution
    from .renorm import LaurentSeries, ToyRules
    from .graphon import StepGraphon
    from .graphpoly import MultiGraph, MultiPoly


def rational_to_str(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def rational_from_str(s) -> Fraction:
    """Parse "p/q" (or an integer); anything else, a zero denominator or a
    JSON boolean included, raises ValueError."""
    if _is_int(s):
        return Fraction(s)
    if not isinstance(s, str):
        raise ValueError(f"expected a rational string, got {type(s).__name__}")
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {s!r}") from None


# -- trees and forests -----------------------------------------------------------

def tree_to_json(t: Tree) -> dict:
    return {"d": t.label, "c": [tree_to_json(c) for c in t.children]}


def forest_to_json(f: Forest) -> list:
    return [tree_to_json(t) for t in f]


def forest_sum_to_json(s: ForestSum) -> list:
    return [{"coef": rational_to_str(c), "forest": forest_to_json(f)}
            for f, c in sorted(s.terms.items(), key=lambda fc: (fc[0].grade, fc[0].code))]


# -- equation specs and solutions ---------------------------------------------------

def dse_spec_to_json(spec: DSESpec) -> dict:
    return {"cocycles": [{"decoration": c.decoration,
                          "omega": rational_to_str(c.omega)}
                         for c in spec.cocycles],
            "order": spec.order,
            "coupling": rational_to_str(spec.coupling)}


def dse_spec_from_json(obj) -> DSESpec:
    from .dse import Cocycle, DSESpec
    if not isinstance(obj, dict):
        raise ValueError("equation spec must be an object")
    raw = obj.get("cocycles")
    if not raw:
        raise ValueError("equation spec needs a nonempty 'cocycles' array")
    if not isinstance(raw, list) or not all(
            isinstance(c, dict) and "decoration" in c and "omega" in c for c in raw):
        raise ValueError("each cocycle must be an object with 'decoration' and 'omega'")
    cocycles = tuple(Cocycle(c["decoration"], rational_from_str(c["omega"]))
                     for c in raw)
    order = obj.get("order")
    if isinstance(order, bool):
        raise ValueError("truncation order must be a positive integer")
    coupling = rational_from_str(obj.get("coupling", "1"))
    return DSESpec(cocycles=cocycles, order=order, coupling=coupling)


def solution_to_json(sol: DSESolution) -> list:
    return [forest_sum_to_json(x) for x in sol.coefficients]


# -- Laurent data ---------------------------------------------------------------------

def laurent_to_json(s: LaurentSeries) -> dict:
    return {"window": [s.lo, s.hi],
            "terms": [{"pow": p, "coef": [[rational_to_str(v), k] for (_, k), v in pks]}
                      for p, pks in groupby(sorted(s.terms.items()), key=lambda t: t[0][0])]}


def _window(obj: dict, what: str) -> tuple[int, int]:
    """The 'window' of a decoded object, ``renorm``'s default when absent."""
    from .renorm import _WINDOW
    window = obj.get("window", _WINDOW)
    if not (isinstance(window, (list, tuple)) and len(window) == 2
            and all(map(_is_int, window))):
        raise ValueError(f"{what} 'window' must be a pair of integers")
    return tuple(window)


def toy_rules_to_json(r: ToyRules) -> dict:
    return {"residues": {d: rational_to_str(v)
                         for d, v in sorted(r.residues.items())},
            "scale": None if r.scale is None else rational_to_str(r.scale),
            "window": list(r.window)}


def toy_rules_from_json(obj) -> ToyRules:
    from .renorm import ToyRules
    if not isinstance(obj, dict):
        raise ValueError("rules must be an object")
    residues = obj.get("residues", {})
    if not isinstance(residues, dict):
        raise ValueError("rules 'residues' must be an object")
    window = _window(obj, "rules")
    scale = obj.get("scale")
    if scale is not None:
        scale = rational_from_str(scale)
    return ToyRules(residues={d: rational_from_str(v) for d, v in residues.items()},
                    scale=scale, window=window)


# -- graphons and graphs ----------------------------------------------------------------

def graphon_to_json(w: StepGraphon) -> dict:
    """One string per distinct numerator of the values, shared by its
    entries."""
    text = {n: rational_to_str(Fraction(n, w.den)) for n in set().union(*w.nums)}
    return {"measures": [rational_to_str(m) for m in w.measures],
            "values": [list(map(text.__getitem__, row)) for row in w.nums]}


def multigraph_to_json(g: MultiGraph) -> dict:
    return {"n": g.n, "edges": [[u, v] for (u, v) in g.edges]}


def multigraph_from_json(obj) -> MultiGraph:
    from .graphpoly import MultiGraph
    if not isinstance(obj, dict) or "n" not in obj:
        raise ValueError("graph object needs 'n' and 'edges'")
    if not _is_int(obj["n"]):
        raise ValueError("graph 'n' must be an integer vertex count")
    edges = obj.get("edges", [])
    if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))
            for e in edges):
        raise ValueError("graph 'edges' must be an array of [u, v] integer pairs")
    return MultiGraph(obj["n"], [tuple(e) for e in edges])


def multipoly_to_json(p: MultiPoly) -> list:
    return [{"coef": rational_to_str(c), "exps": {v: e for (v, e) in sorted(mono)}}
            for mono, c in sorted(p.terms.items(), key=lambda mc: tuple(sorted(mc[0])))]
