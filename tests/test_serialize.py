"""Round-trip and byte-stability checks for the JSON wire formats."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from dsegraphon import serialize as ser
from dsegraphon.trees import Forest, ForestSum, Tree, ladder, leaf
from dsegraphon.dse import Cocycle, DSESpec, solve
from dsegraphon.renorm import LaurentSeries, ToyRules, toy_feynman_rules
from dsegraphon.graphon import StepGraphon, direction, graphon_from_graph, perturb
from dsegraphon.graphpoly import MultiGraph, MultiPoly, tutte
import helpers
from graph_oracles import constant_graphon, graphon_values, path_graph


def test_rational_strings():
    assert ser.rational_to_str(F(3)) == "3"
    assert ser.rational_to_str(F(-1, 2)) == "-1/2"
    assert ser.rational_from_str("7/4") == F(7, 4)
    assert ser.rational_from_str(5) == F(5)
    assert ser.rational_from_str(" -2/3 ") == F(-2, 3)
    with pytest.raises(ValueError):
        ser.rational_from_str(1.5)


def test_tree_and_forest_round_trip():
    t = Tree("a", [Tree("b"), Tree("a", [Tree("c")])])
    assert helpers.tree_from_json(ser.tree_to_json(t)) == t
    f = Forest([t, leaf("b"), ladder(3)])
    assert helpers.forest_from_json(ser.forest_to_json(f)) == f
    with pytest.raises(ValueError):
        helpers.tree_from_json({"c": []})
    with pytest.raises(ValueError):
        helpers.forest_from_json({"d": "a"})


def test_forest_sum_round_trip_and_stability():
    s = 2 * ForestSum.of(ladder(2)) - F(1, 3) * ForestSum.of(
        Forest([leaf("a"), leaf("b")])) + ForestSum.unit()
    doc = ser.forest_sum_to_json(s)
    assert helpers.forest_sum_from_json(doc) == s
    assert json.dumps(doc) == json.dumps(ser.forest_sum_to_json(s))
    with pytest.raises(ValueError):
        helpers.forest_sum_from_json({"coef": "1"})


def test_spec_and_solution_round_trip():
    spec = DSESpec((Cocycle("g1", F(1)), Cocycle("g2", F(-1, 2))),
                   order=3, coupling=F(2, 5))
    doc = ser.dse_spec_to_json(spec)
    back = ser.dse_spec_from_json(doc)
    assert back == spec
    sol = solve(spec)
    sol_doc = ser.solution_to_json(sol)
    coeffs = [helpers.forest_sum_from_json(x) for x in sol_doc]
    assert coeffs == list(sol.coefficients)
    with pytest.raises(ValueError):
        ser.dse_spec_from_json({"cocycles": []})
    with pytest.raises(ValueError):
        ser.dse_spec_from_json([1, 2])


def test_laurent_round_trip():
    rules = ToyRules(residues={"g": F(1)}, scale=F(1, 2))
    val = toy_feynman_rules(rules, ForestSum.of(ladder(2)))
    doc = ser.laurent_to_json(val)
    back = helpers.laurent_from_json(doc)
    assert back == val and back.window == val.window
    empty = helpers.laurent_from_json({"window": [-2, 1]})
    assert empty == LaurentSeries({}, (-2, 1))


@pytest.mark.parametrize("doc", [
    {"terms": [{"pow": 0.7, "coef": [["1", 0]]}]},
    {"terms": [{"pow": True, "coef": [["1", 0]]}]},
    {"terms": [{"pow": "0", "coef": [["1", 0]]}]},
    {"terms": [{"pow": 0, "coef": [["1", 1.5]]}]},
    {"window": [-8, 2.5]},
    {"window": [False, 2]},
    {"window": [-8]},
])
def test_laurent_decoder_rejects_non_integers(doc):
    with pytest.raises(ValueError):
        helpers.laurent_from_json(doc)


def test_toy_rules_round_trip():
    r = ToyRules(residues={"g2": F(3, 7), "g1": F(1)},
                 scale=None, window=(-6, 3))
    back = ser.toy_rules_from_json(ser.toy_rules_to_json(r))
    assert back == r
    with_scale = ToyRules(residues={"g": F(1)}, scale=F(5, 4))
    assert ser.toy_rules_from_json(
        ser.toy_rules_to_json(with_scale)).scale == F(5, 4)
    with pytest.raises(ValueError):
        ser.toy_rules_from_json("not an object")


def test_graphon_round_trip():
    w = graphon_from_graph(path_graph(3))
    back = helpers.graphon_from_json(ser.graphon_to_json(w))
    assert back.measures == w.measures and graphon_values(back) == graphon_values(w)
    const = constant_graphon(F(2, 3), k=2)
    assert helpers.graphon_from_json(ser.graphon_to_json(const)).is_constant()


def test_multigraph_round_trip():
    g = MultiGraph(3, [(0, 1), (0, 1), (2, 2)])
    back = ser.multigraph_from_json(ser.multigraph_to_json(g))
    assert back.n == g.n and back.edges == g.edges
    with pytest.raises(ValueError):
        ser.multigraph_from_json({"edges": []})


def test_multipoly_round_trip():
    p = tutte(MultiGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]))
    back = helpers.multipoly_from_json(ser.multipoly_to_json(p))
    assert back == p
    q = MultiPoly({(): F(1, 2)}) - 3 * MultiPoly.var("w1") ** 2
    assert helpers.multipoly_from_json(ser.multipoly_to_json(q)) == q
    assert helpers.multipoly_from_json([]) == MultiPoly.zero()


@pytest.mark.parametrize("exp", [1.5, True, False, -1, "2", None])
def test_multipoly_decoder_rejects_bad_exponents(exp):
    with pytest.raises(ValueError):
        helpers.multipoly_from_json([{"coef": "1", "exps": {"x": exp}}])
    assert helpers.multipoly_from_json(
        [{"coef": "1", "exps": {"x": 2, "y": 0}}]) == MultiPoly.var("x", 2)


@pytest.mark.parametrize("decode, doc", [
    (helpers.graphon_from_json, {}),
    (helpers.graphon_from_json, {"measures": ["1"], "values": [1]}),
    (helpers.graphon_from_json, {"measures": "1", "values": [["1"]]}),
    (helpers.multipoly_from_json, [{"coef": "1", "exps": [1]}]),
    (helpers.tree_from_json, {"d": "g", "c": 5}),
    (helpers.forest_sum_from_json, [{"coef": "1"}]),
    (helpers.forest_sum_from_json, [5]),
    (helpers.laurent_from_json, []),
    (helpers.laurent_from_json, {"terms": [{"pow": 0}]}),
    (helpers.laurent_from_json, {"terms": [5]}),
], ids=["graphon-empty", "graphon-flat-values", "graphon-string-measures",
        "multipoly-list-exps", "tree-int-children", "forest-sum-no-forest",
        "forest-sum-int-term", "laurent-array", "laurent-no-coef", "laurent-int-term"])
def test_decoders_reject_malformed_objects(decode, doc):
    with pytest.raises(ValueError):
        decode(doc)


_FIELDS = ["d", "c", "coef", "forest", "pow", "terms", "window", "n", "edges",
           "measures", "values", "exps", "residues", "scale", "cocycles",
           "decoration", "omega", "order", "coupling"]
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.sampled_from(["", "g", "1", "1/2", "-3/4", "1/0", "x"]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=16)
# the package's decoders and the tests' own, each once
_DECODERS = sorted({fn.__name__: fn for mod in (ser, helpers) for name, fn in vars(mod).items()
                    if name.endswith(("_from_json", "_from_str"))}.items())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_DECODERS), _json_values)
def test_every_decoder_decodes_or_raises_value_error(decoder, doc):
    # a JSON value that does not decode raises ValueError, never another error
    try:
        decoder[1](doc)
    except ValueError:
        pass


_unit_values = st.one_of(st.sampled_from([F(0), F(1)]),
                         st.fractions(min_value=0, max_value=1, max_denominator=60))


@st.composite
def step_graphons(draw):
    """Step graphons with k <= 5 blocks of rational measures and values in
    [0, 1], 0 and 1 included."""
    k = draw(st.integers(1, 5))
    weights = draw(st.lists(st.integers(1, 12), min_size=k, max_size=k))
    vals = [[F(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            vals[i][j] = vals[j][i] = draw(_unit_values)
    return StepGraphon([F(x, sum(weights)) for x in weights], vals)


@settings(max_examples=150, deadline=None)
@given(step_graphons(), st.integers(2, 6))
def test_graphon_codec_property(w, t):
    doc = ser.graphon_to_json(w)
    back = helpers.graphon_from_json(doc)
    assert back == w and hash(back) == hash(w)
    # the per-numerator writer against the per-entry one
    assert doc["values"] == [[ser.rational_to_str(v) for v in row] for row in graphon_values(w)]
    # numerators over a non-least denominator reduce to the same graphon
    scaled = {"measures": doc["measures"],
              "values": [[f"{v.numerator * t}/{v.denominator * t}" for v in row]
                         for row in graphon_values(w)]}
    assert helpers.graphon_from_json(scaled) == w
    zero = direction(w.measures, [[0] * w.k for _ in range(w.k)])
    moved = perturb(w, zero, F(1, t))
    assert moved == w and hash(moved) == hash(w) and moved.den == w.den
