"""Graph polynomials: deletion-contraction vs the rank-nullity oracle,
Kirchhoff-Symanzik spanning-tree sums vs cycle-basis determinants.

Classical anchor values (cycle, complete graph, bouquet) are stated
explicitly; everything else is cross-checked between two independent
computations.
"""

import itertools
import random
import time
import warnings
from fractions import Fraction as F

import networkx as nx
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from dsegraphon import graphpoly
from dsegraphon.trees import Tree, _bareiss_det, ladder, leaf
from dsegraphon.dse import Cocycle, DSESpec, solve, structural_sum
from dsegraphon.graphpoly import (DisconnectedNotice, MultiGraph, MultiPoly,
                                  corpus_tutte, generate_connected_multigraphs,
                                  least_edge_code, loop_number, spanning_tree_count,
                                  spanning_forests, symanzik_det, symanzik_det_poly,
                                  symanzik_psi, tree_to_graph, tutte)
from graph_oracles import (degree_view, dsu_find, grow_unpruned, is_connected,
                           psi_deletion_contraction, tutte_of_partial_sum,
                           tutte_rank_nullity)
from helpers import all_trees

X = MultiPoly.var("x")
Y = MultiPoly.var("y")


def triangle() -> MultiGraph:
    return MultiGraph(3, [(0, 1), (1, 2), (0, 2)])


def k4() -> MultiGraph:
    return MultiGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


# -- polynomial plumbing ---------------------------------------------------------

def test_multipoly_basics():
    p = (X + Y) * (X - Y)
    assert p == X * X - Y * Y
    assert p.terms == {(("x", 2),): 1, (("y", 2),): -1}
    assert p.eval({"x": F(3), "y": F(2)}) == 5
    assert (X * Y).is_homogeneous(2)
    assert not (X + Y * Y).is_homogeneous()
    with pytest.raises(ValueError):
        MultiPoly({(("x", -1),): F(1)})
    with pytest.raises(ValueError):
        X ** -1
    with pytest.raises(ValueError):
        (X + Y).eval({"x": F(1)})


# -- multigraph plumbing ---------------------------------------------------------

def test_multigraph_minors_track_edge_variables():
    g = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.evars == (1, 2, 3)
    d = g.delete(1)
    assert d.edges == ((0, 1), (0, 2))
    assert d.evars == (1, 3)
    c = g.contract(0)
    assert c.n == 2
    assert c.evars == (2, 3)
    # contracting a self-loop just deletes it
    h = MultiGraph(2, [(0, 0), (0, 1)])
    assert h.contract(0).edges == ((0, 1),)
    with pytest.raises(ValueError):
        MultiGraph(2, [(0, 2)])


def test_minors_equal_their_validated_construction():
    # minors skip the constructor's checks, so they must already hold its
    # normal form: in-range edges stored as (min, max)
    graphs = list(generate_connected_multigraphs(5))
    graphs.append(MultiGraph(5, [(0, 3), (2, 3), (3, 4), (1, 3), (4, 4), (0, 1)]))
    for g in graphs:
        minors = [g.delete(i) for i in range(g.m)] + [g.contract(i) for i in range(g.m)]
        minors += [c for h in minors for c in h.components()]
        for h in minors:
            assert h == MultiGraph(h.n, h.edges, h.evars), h


@st.composite
def _variables(draw, m: int):
    """Edge variables for m edges: the default (None), 1..m given
    explicitly, a permutation of 1..m, or values shared by several edges."""
    kind = draw(st.sampled_from(("default", "explicit", "permuted", "shared")))
    if kind == "default":
        return None
    if kind == "explicit":
        return tuple(range(1, m + 1))
    if kind == "permuted":
        return tuple(draw(st.permutations(range(1, m + 1))))
    return tuple(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))


@st.composite
def _multigraph_pairs(draw):
    """Two multigraphs with loops, parallel edges and usually several
    components; the second often has the first's edges, so that equal
    graphs built with different variable arguments are common."""
    n = draw(st.integers(1, 7))
    edges = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                     max_size=9)
    first = draw(edges)
    second = first if draw(st.booleans()) else draw(edges)
    return tuple(MultiGraph(n, es, draw(_variables(len(es)))) for es in (first, second))


@settings(max_examples=300, deadline=None)
@given(_multigraph_pairs())
def test_one_edge_variable_rule(pair):
    g, h = pair
    for a in pair:
        ev = a.evars
        assert len(ev) == a.m
        # only variables other than 1..m are stored
        assert (a._evars is None) == (ev == tuple(range(1, a.m + 1)))
    # equality and the hash are those of (n, edges, evars)
    assert (g == h) == ((g.n, g.edges, g.evars) == (h.n, h.edges, h.evars))
    assert (h == g) == (g == h)
    if g == h:
        assert hash(g) == hash(h)
    ev = g.evars
    for i in range(g.m):
        for minor in (g.delete(i), g.contract(i)):
            assert minor.evars == ev[:i] + ev[i + 1:]
            assert minor == MultiGraph(minor.n, minor.edges, minor.evars)
    # components, by their least vertex, carry the variables of their edges
    want = []
    for verts in sorted(map(sorted, nx.connected_components(_nx(g))), key=min):
        index = {w: k for k, w in enumerate(verts)}
        mine = [j for j, (u, _) in enumerate(g.edges) if u in index]
        edges = [(index[g.edges[j][0]], index[g.edges[j][1]]) for j in mine]
        want.append(MultiGraph(len(verts), edges, [ev[j] for j in mine]))
    parts = g.components()
    assert parts == want and [c.evars for c in parts] == [c.evars for c in want]


def test_multigraph_rejects_non_integer_vertices():
    for n, edges in ((2, [(0.5, 1)]), (2, [(1.0, 0)]), (2, [(True, 1)]),
                     (2, [(0, None)]), (True, [])):
        with pytest.raises(ValueError):
            MultiGraph(n, edges)


def test_multigraph_connectivity_helpers():
    g = MultiGraph(4, [(0, 1), (2, 3)])
    assert not is_connected(g)
    assert g.component_count() == 2
    comps = g.components()
    assert sorted(c.n for c in comps) == [2, 2]
    path = MultiGraph(3, [(0, 1), (1, 2)])
    assert path.is_bridge(0) and path.is_bridge(1)
    assert not triangle().is_bridge(0)


def test_a_connected_graph_is_its_own_component():
    for g in (triangle(), MultiGraph(1, []), MultiGraph(2, [(0, 0), (0, 1), (0, 1)])):
        comps = g.components()
        assert len(comps) == 1 and comps[0] is g
    assert MultiGraph(0, []).components() == []


def _oracle_is_bridge(g: MultiGraph, i: int) -> bool:
    """Deleting edge i separates its endpoints."""
    u, v = g.edges[i]
    find = dsu_find(g.n, g.edges[:i] + g.edges[i + 1:])
    return find(u) != find(v)


def test_is_bridge_matches_the_deletion_definition():
    graphs = []
    for g in generate_connected_multigraphs(6):
        graphs += [g] + [g.delete(i) for i in range(g.m)] + [g.contract(i) for i in range(g.m)]
    rng = random.Random(12)
    for _ in range(300):  # loops, parallel edges and several components
        n = rng.randint(1, 8)
        graphs.append(MultiGraph(n, [(rng.randrange(n), rng.randrange(n))
                                     for _ in range(rng.randint(0, 12))]))
    assert any(g.component_count() > 1 for g in graphs[-300:])
    for g in graphs:
        for i in range(g.m):
            assert g.is_bridge(i) == _oracle_is_bridge(g, i), (g, i)


def test_canonical_key_is_isomorphism_invariant():
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    h = MultiGraph(4, [(2, 0), (0, 3), (3, 1), (2, 1)])  # relabeled 4-cycle
    assert g.canonical_key() == h.canonical_key()
    assert g.canonical_key() != MultiGraph(4, [(0, 1), (1, 2), (2, 3)]).canonical_key()


# -- Tutte ------------------------------------------------------------------------

def test_tutte_anchor_values():
    assert tutte(MultiGraph(1, [])) == MultiPoly.unit()
    # a tree is a product of bridges
    assert tutte(tree_to_graph(ladder(4))) == X ** 3
    # a bouquet of loops
    assert tutte(MultiGraph(1, [(0, 0), (0, 0)])) == Y ** 2
    # cycle C_n: x^(n-1) + ... + x + y
    assert tutte(triangle()) == X ** 2 + X + Y
    assert tutte(MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])) == \
        X ** 3 + X ** 2 + X + Y
    # complete graph on four vertices
    want_k4 = (X ** 3 + 3 * X ** 2 + 2 * X + 4 * X * Y
               + 2 * Y + 3 * Y ** 2 + Y ** 3)
    assert tutte(k4()) == want_k4
    assert want_k4.eval({"x": F(1), "y": F(1)}) == 16


def test_tutte_multiplicative_over_components():
    g = MultiGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])
    assert tutte(g) == tutte(triangle()) * X ** 2


@pytest.mark.parametrize("max_edges", [4])
def test_tutte_matches_rank_nullity_on_corpus(max_edges):
    for g in generate_connected_multigraphs(max_edges):
        assert tutte(g) == tutte_rank_nullity(g)


def test_corpus_tutte_matches_the_general_tutte():
    # the growth pass's polynomials against memoized deletion-contraction,
    # and against the rank-nullity sum up to 5 edges
    got = corpus_tutte(7)
    assert [g for g, _ in got] == generate_connected_multigraphs(7)
    for g, poly in got:
        assert poly == tutte(g), g
        if g.m <= 5:
            assert poly == tutte_rank_nullity(g), g
    assert corpus_tutte(0) == [(MultiGraph(1, []), MultiPoly.unit())]
    with pytest.raises(ValueError):
        corpus_tutte(-1)


def test_tutte_of_a_relabelled_copy_adds_no_cache_miss():
    # K4 with a loop, a parallel edge and a pendant triangle
    edges = list(itertools.combinations(range(4), 2))
    edges += [(2, 2), (0, 1), (3, 4), (4, 5), (3, 5)]
    g = MultiGraph(6, edges)
    want = tutte(g)
    perm = [4, 2, 5, 0, 3, 1]
    h = MultiGraph(6, [(perm[v], perm[u]) for u, v in reversed(edges)])
    info = graphpoly._tutte_of.cache_info()
    assert tutte(h) == want
    after = graphpoly._tutte_of.cache_info()
    assert after.misses == info.misses and after.hits == info.hits + 1


def test_tutte_matches_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 6)
        m = rng.randint(1, 10)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        g = MultiGraph(n, edges)
        assert tutte(g) == tutte_rank_nullity(g)
        # absolute cross-check: at x=y=2 the rank-nullity sum counts
        # every edge subset once, so T(2,2) = 2^|E|
        t = tutte(g)
        assert t.eval({"x": F(2), "y": F(2)}) == F(2) ** g.m


def test_tutte_diagonal_counts_spanning_trees():
    for g in generate_connected_multigraphs(4):
        t11 = tutte(g).eval({"x": F(1), "y": F(1)})
        assert t11 == spanning_tree_count(g)
    assert spanning_tree_count(k4()) == 16
    assert spanning_tree_count(MultiGraph(4, [(0, 1), (2, 3)])) == 0
    assert spanning_tree_count(MultiGraph(1, [])) == 1


def test_tutte_edge_limits():
    big = MultiGraph(2, [(0, 1)] * 25)
    with pytest.raises(ValueError):
        tutte(big)
    med = MultiGraph(2, [(0, 1)] * 21)
    with pytest.raises(ValueError):
        tutte_rank_nullity(med)


def test_tree_to_graph_shapes():
    g = tree_to_graph(ladder(3))
    assert g.n == 3 and g.m == 2
    assert is_connected(g)
    cherry = Tree("g", [leaf("g"), leaf("g")])
    h = tree_to_graph(cherry)
    assert h.n == 3 and sorted(degree_view(h)) == [1, 1, 2]


def test_tutte_of_partial_sum_is_bridge_power():
    sol = solve(DSESpec((Cocycle("g", F(1)),), order=3))
    # X1 + X2 + X3 = leaf + 2*l2 + 4*l3 + cherry: edge count 0+2*1+4*2+2
    assert tutte_of_partial_sum(sol, 3) == X ** 12
    assert tutte_of_partial_sum(sol, 1) == MultiPoly.unit()
    frac = solve(DSESpec((Cocycle("g", F(1, 2)),), order=2))
    with pytest.raises(ValueError):
        tutte_of_partial_sum(frac, 2)


def _tutte_per_tree(sol, m: int) -> MultiPoly:
    """The product over the forests of the structural sum of their trees'
    deletion-contraction Tutte polynomials, each to its coefficient."""
    out = MultiPoly.unit()
    for forest, c in structural_sum(sol, m).terms.items():
        for t in forest:
            out = out * tutte(tree_to_graph(t)) ** int(c)
    return out


def test_tutte_of_partial_sum_matches_deletion_contraction():
    g6 = solve(DSESpec((Cocycle("g", F(1)),), order=6))
    gh5 = solve(DSESpec((Cocycle("g", F(1)), Cocycle("h", F(2))), order=5))
    for sol in (g6, gh5):
        for m in range(1, sol.order + 1):
            assert tutte_of_partial_sum(sol, m) == _tutte_per_tree(sol, m), m
    with pytest.raises(ValueError):
        tutte_of_partial_sum(solve(DSESpec((Cocycle("g", F(-1)),), order=2)), 2)


def _oracle_subtree_formula(t: Tree) -> MultiPoly:
    """The subtree sum over all subtrees s of the underlying tree: the
    connected edge subsets, connectivity decided by a union-find, plus
    the single-vertex subtrees with no edges and no leaves, each adding
    x^|E(s)| (y+1)^(|E(s)|-|L(s)|) with L(s) the childless vertices of s
    under the root orientation."""
    g = tree_to_graph(t)
    total = MultiPoly({(): g.n})
    for r in range(1, g.m + 1):
        for subset in itertools.combinations(g.edges, r):
            verts = {w for e in subset for w in e}
            find = dsu_find(g.n, subset)
            if len({find(w) for w in verts}) != 1:
                continue
            parents = {u for u, _ in subset}
            leaves = len(verts - parents)
            total = total + X ** r * (Y + 1) ** (r - leaves)
    return total


def test_subtree_formula_diagnostic_disagrees():
    # the subtree sum breaks the bridge rule, so it is not the Tutte
    # polynomial, which is x^(n-1) on every tree of n vertices
    sub2 = _oracle_subtree_formula(ladder(2))
    assert sub2 == 2 + X
    assert tutte(tree_to_graph(ladder(2))) == X

    sub3 = _oracle_subtree_formula(ladder(3))
    assert sub3 == 3 + 2 * X + X ** 2 + X ** 2 * Y
    assert tutte(tree_to_graph(ladder(3))) == X ** 2

    cherry = Tree("g", [leaf("g"), leaf("g")])
    subc = _oracle_subtree_formula(cherry)
    assert subc == 3 + 2 * X + X ** 2
    assert tutte(tree_to_graph(cherry)) == X ** 2
    # the two shapes of three vertices are already told apart by the
    # subtree sum even though their Tutte polynomials agree
    assert sub3 != subc
    for n in range(1, 7):
        for t in all_trees(n):
            assert tutte(tree_to_graph(t)) == X ** (n - 1), t


# -- Symanzik ----------------------------------------------------------------------

def w(i: int) -> MultiPoly:
    return MultiPoly.var(f"w{i}")


def test_psi_anchor_values():
    assert symanzik_psi(tree_to_graph(ladder(3))) == MultiPoly.unit()
    assert symanzik_psi(triangle()) == w(1) + w(2) + w(3)
    assert symanzik_psi(MultiGraph(1, [(0, 0)])) == w(1)
    assert symanzik_psi(MultiGraph(2, [(0, 1), (0, 1)])) == w(1) + w(2)
    # two-loop sunset: three parallel edges
    sunset = MultiGraph(2, [(0, 1)] * 3)
    assert symanzik_psi(sunset) == (w(1) * w(2) + w(1) * w(3) + w(2) * w(3))


def test_psi_homogeneous_of_loop_degree():
    for g in generate_connected_multigraphs(4):
        psi = symanzik_psi(g)
        ell = loop_number(g)
        assert psi.is_homogeneous(ell)
        if ell == 0:
            assert psi == MultiPoly.unit()


def test_loop_number():
    assert loop_number(triangle()) == 1
    assert loop_number(tree_to_graph(ladder(4))) == 0
    assert loop_number(MultiGraph(1, [(0, 0)])) == 1
    assert loop_number(MultiGraph(4, [(0, 1), (2, 3)])) == 0
    assert loop_number(k4()) == 3


def test_psi_disconnected_warns_and_factors():
    g = MultiGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.warns(DisconnectedNotice):
        psi = symanzik_psi(g)
    assert psi == (w(1) + w(2) + w(3)) * (w(4) + w(5) + w(6))


def test_psi_counts_the_components_once(monkeypatch):
    # the notice reads the component count off the forests themselves
    calls = []
    component_count = MultiGraph.component_count

    def counting(self, edge_subset=None):
        calls.append(self)
        return component_count(self, edge_subset)

    monkeypatch.setattr(MultiGraph, "component_count", counting)
    for g, notices in ((triangle(), 0), (MultiGraph(0, []), 0),
                       (MultiGraph(4, [(0, 1), (2, 3)]), 1),
                       (MultiGraph(3, []), 1)):
        calls.clear()
        with warnings.catch_warnings(record=True) as notes:
            warnings.simplefilter("always")
            symanzik_psi(g)
        assert calls == [g]
        assert [n.category for n in notes] == [DisconnectedNotice] * notices, g


def test_isolated_vertices_cost_nothing():
    # a triangle among 10**6 vertices is its own triangle plus 999 997
    # one-vertex components: forests, cycles, polynomials, contractions
    # and Psi splits are the relabelled triangle's, found without a list
    # over all the vertices
    import tracemalloc
    edges = [(5, 999_999), (70_000, 999_999), (5, 70_000)]
    g = MultiGraph(10 ** 6, edges)
    tri = MultiGraph(3, [(0, 2), (1, 2), (0, 1)])

    def contractions(h):
        # vertex count less the graph's, then the contraction on its core
        return [(c.n - h.n, graphpoly._core(c.n, c.edges), c.evars)
                for c in map(h.contract, range(3))]

    tracemalloc.start()
    try:
        with pytest.warns(DisconnectedNotice):
            psi = symanzik_psi(g)
        got = (tutte(g), psi, loop_number(g), g.component_count(),
               list(spanning_forests(g)), symanzik_det_poly(g),
               [graphpoly._cycle_space(g, s) for s in range(3)],
               [symanzik_det(g, {1: 2, 2: 3, 3: F(5, 7)}, s) for s in range(3)],
               [g.is_bridge(i) for i in range(3)], contractions(g),
               [psi_deletion_contraction(g, i) for i in range(3)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6  # under a byte per vertex
    assert got == (tutte(tri), symanzik_psi(tri), loop_number(tri), 10 ** 6 - 2,
                   list(spanning_forests(tri)), symanzik_psi(tri),
                   [graphpoly._cycle_space(tri, s) for s in range(3)],
                   [symanzik_det(tri, {1: 2, 2: 3, 3: F(5, 7)}, s) for s in range(3)],
                   [False] * 3, contractions(tri),
                   [psi_deletion_contraction(tri, i) for i in range(3)])


def test_an_isolated_vertex_gives_no_spanning_tree_without_a_laplacian():
    # two or more vertices, one of them isolated: disconnected, so 0, found
    # before the n x n Laplacian (9 * 10**6 entries at n = 3000) is built
    import tracemalloc
    n = 3000
    graphs = [MultiGraph(n, []), MultiGraph(n, [(0, 1), (1, 1)] * 5),
              MultiGraph(2, [(0, 0)])]
    tracemalloc.start()
    try:
        got = [spanning_tree_count(g) for g in graphs]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [0] * 3
    assert peak < 10 ** 5
    # without an isolated vertex: the cofactor on a connected graph, and 0
    # on two vertices that meet only loops
    assert [spanning_tree_count(g) for g in (MultiGraph(1, []), MultiGraph(1, [(0, 0)]),
                                             MultiGraph(2, [(0, 0), (1, 1)]),
                                             MultiGraph(2, [(0, 1), (0, 1), (1, 1)]))] \
        == [1, 1, 0, 2]


def test_a_disconnected_graph_gives_no_spanning_tree_without_a_laplacian():
    # every vertex meets an edge, yet the graph is disconnected: 0, found by
    # a component count before the n x n Laplacian (6.4 * 10**5 entries at
    # n = 800) is built
    import tracemalloc
    n = 800
    graphs = [MultiGraph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)]),
              MultiGraph(n, [(i, i + 1) for i in range(n - 1) if i != n // 2]),
              MultiGraph(4, [(0, 1), (0, 1), (2, 3), (3, 3)])]
    tracemalloc.start()
    try:
        got = [spanning_tree_count(g) for g in graphs]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [0] * 3
    assert peak < 2 * 10 ** 5
    # joined up, the same pieces have their cofactor counts
    assert [spanning_tree_count(MultiGraph(8, [(i, i + 1) for i in range(7)])),
            spanning_tree_count(MultiGraph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 3)]))] \
        == [1, 2]


def test_spanning_trees_enumeration():
    trees = list(spanning_forests(triangle()))
    assert sorted(trees) == [(0, 1), (0, 2), (1, 2)]
    # self-loops never enter a spanning tree
    g = MultiGraph(2, [(0, 0), (0, 1)])
    assert list(spanning_forests(g)) == [(1,)]


def test_det_matches_psi_on_corpus():
    # every rotation of the spanning-tree scan, at signed rational points
    rng = random.Random(11)
    for g in generate_connected_multigraphs(5):
        psi = symanzik_psi(g)
        for trial in range(max(g.m, 3)):
            assignment = {v: F(rng.randint(-9, 9) or 1, rng.randint(1, 12))
                          for v in g.evars}
            values = {f"w{v}": a for v, a in assignment.items()}
            got = symanzik_det(g, assignment, tree_choice=trial)
            assert type(got) is F
            assert got == psi.eval(values)


def test_det_requires_connected_and_full_assignment():
    g = MultiGraph(4, [(0, 1), (2, 3)])
    with pytest.warns(DisconnectedNotice):
        psi = symanzik_psi(g)
    assert symanzik_det(g, {1: F(1), 2: F(1)}) == psi.eval({"w1": F(1), "w2": F(1)})
    with pytest.raises(ValueError):
        symanzik_det(triangle(), {1: F(1), 2: F(1)})


def test_det_on_the_empty_graph_and_a_bouquet():
    empty = MultiGraph(0, [])
    assert symanzik_det(empty, {}) == 1 == symanzik_psi(empty).eval({})
    bouquet = MultiGraph(1, [(0, 0)] * 3)
    assignment = {1: F(2, 3), 2: F(-5), 3: F(7, 2)}
    psi = symanzik_psi(bouquet)
    assert psi == w(1) * w(2) * w(3)
    for choice in range(4):
        assert symanzik_det(bouquet, assignment, tree_choice=choice) == F(-35, 3)


def _random_connected_multigraph(rng, max_n: int, extra: int) -> MultiGraph:
    """A random spanning tree plus up to ``extra`` edges (loops and
    parallel edges among them), in shuffled order and orientation."""
    n = rng.randint(1, max_n)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(0, extra)):
        u = rng.randrange(n)
        edges.append(rng.choice([(u, u), (u, rng.randrange(n))] + edges[:1]))
    rng.shuffle(edges)
    perm = list(range(n))
    rng.shuffle(perm)
    return MultiGraph(n, [(perm[v], perm[u]) if rng.random() < 0.5 else (perm[u], perm[v])
                          for u, v in edges])


def test_det_matches_psi_at_every_tree_choice_on_random_multigraphs():
    # K4, K5 and K3,3 add bases whose signs no row or column flip removes
    rng = random.Random(13)
    k5 = MultiGraph(5, list(itertools.combinations(range(5), 2)))
    k33 = MultiGraph(6, [(a, b) for a in range(3) for b in range(3, 6)])
    for g in [k4(), k5, k33] + [_random_connected_multigraph(rng, 6, 6) for _ in range(80)]:
        psi = symanzik_psi(g)
        assignment = {v: F(rng.randint(-9, 9) or 1, rng.randint(1, 12)) for v in g.evars}
        want = psi.eval({f"w{v}": a for v, a in assignment.items()})
        for choice in range(g.m + 1):
            assert symanzik_det(g, assignment, tree_choice=choice) == want, (g, choice)
        # a second component, even an isolated vertex, leaves Psi as it is
        h = MultiGraph(g.n + 1, g.edges)
        with pytest.warns(DisconnectedNotice):
            assert symanzik_psi(h) == psi
        for choice in range(g.m + 1):
            assert symanzik_det(h, assignment, tree_choice=choice) == want, (h, choice)


def _random_disconnected_multigraph(rng) -> MultiGraph:
    """Two or three random connected multigraphs (loops and parallel edges
    among them) and up to two isolated vertices, with the vertices and the
    edges of the union shuffled."""
    parts = [_random_connected_multigraph(rng, 4, 3) for _ in range(rng.randint(2, 3))]
    n = sum(p.n for p in parts) + rng.randint(0, 2)
    perm = list(range(n))
    rng.shuffle(perm)
    edges, base = [], 0
    for p in parts:
        edges += [(perm[u + base], perm[v + base]) for u, v in p.edges]
        base += p.n
    rng.shuffle(edges)
    return MultiGraph(n, edges)


def test_one_spanning_forest_path_on_disconnected_multigraphs():
    # Psi is the product of the components' Psi, the cycle-basis determinant
    # equals it at every tree choice, and the forests are exactly the
    # acyclic (n - c)-edge subsets
    rng = random.Random(15)
    graphs = [MultiGraph(0, [])] + [_random_disconnected_multigraph(rng) for _ in range(60)]
    for g in graphs:
        c = g.component_count()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DisconnectedNotice)
            psi = symanzik_psi(g)
            want = MultiPoly.product(symanzik_psi(h) for h in g.components())
        assert psi == want, g
        brute = [s for s in itertools.combinations(range(g.m), g.n - c)
                 if g.component_count(s) == c]
        assert list(spanning_forests(g)) == brute, g
        for _ in range(2):
            assignment = {v: F(rng.randint(-9, 9) or 1, rng.randint(1, 12)) for v in g.evars}
            value = psi.eval({f"w{v}": a for v, a in assignment.items()})
            for choice in range(g.m + 1):
                assert symanzik_det(g, assignment, tree_choice=choice) == value, (g, choice)
    assert sum(g.component_count() > 1 for g in graphs) == 60


def _per_subset_spanning_forests(g: MultiGraph):
    """The forests as enumerated before the backtracking pass: every
    (n - c)-edge subset in ``itertools.combinations`` order whose union-find
    leaves c components, so that no edge of it closes a cycle."""
    def components(edges) -> int:
        find = dsu_find(g.n, edges)
        return len({find(w) for w in range(g.n)})

    c = components(g.edges)
    for subset in itertools.combinations(range(g.m), g.n - c):
        if components([g.edges[i] for i in subset]) == c:
            yield subset


def test_spanning_forests_match_the_per_subset_enumeration():
    # the same tuples in the same order, on random multigraphs with loops,
    # parallel edges, several components and isolated vertices
    rng = random.Random(21)
    graphs = [MultiGraph(0, []), MultiGraph(3, []), MultiGraph(1, [(0, 0), (0, 0)]),
              MultiGraph(2, [(0, 1), (0, 1), (1, 1)])]
    graphs += [_random_connected_multigraph(rng, 6, 6) for _ in range(60)]
    graphs += [_random_disconnected_multigraph(rng) for _ in range(60)]
    for _ in range(60):
        n = rng.randint(1, 7)
        graphs.append(MultiGraph(n, [(rng.randrange(n), rng.randrange(n))
                                     for _ in range(rng.randint(0, 9))]))
    for g in graphs:
        assert list(spanning_forests(g)) == list(_per_subset_spanning_forests(g)), g


def _brute_force_cauchy_binet(g: MultiGraph, eta) -> MultiPoly:
    """sum over every ell-subset S of the edges of det(eta_S)^2 prod_{e in
    S} w_e, one Bareiss determinant per minor of the cycle matrix eta."""
    out = MultiPoly.zero()
    for subset in itertools.combinations(range(g.m), len(eta)):
        d = _bareiss_det([[c.get(j, 0) for j in subset] for c in eta])
        if d:
            out = out + MultiPoly.product(w(g.evars[j]) for j in subset) * (d * d)
    return out


def _det_poly_graphs(rng) -> list[MultiGraph]:
    """The empty graph, a bouquet, K4, K5, K3,3, a graph whose edges share
    variables, and random connected and disconnected multigraphs with
    loops, parallel edges and isolated vertices."""
    graphs = [MultiGraph(0, []), MultiGraph(3, []), MultiGraph(1, [(0, 0)] * 3), k4(),
              MultiGraph(5, list(itertools.combinations(range(5), 2))),
              MultiGraph(6, [(a, b) for a in range(3) for b in range(3, 6)]),
              MultiGraph(3, [(0, 1), (1, 2), (0, 2), (1, 1)], evars=(1, 1, 2, 2))]
    graphs += [_random_connected_multigraph(rng, 6, 6) for _ in range(40)]
    return graphs + [_random_disconnected_multigraph(rng) for _ in range(40)]


def test_det_poly_equals_psi_on_the_corpus():
    corpus = generate_connected_multigraphs(6)
    assert len(corpus) == 471
    for g in corpus:
        assert symanzik_det_poly(g) == symanzik_psi(g), g


def test_det_poly_equals_psi_on_random_multigraphs():
    # shared edge variables give exponents above 1 and sets that meet in
    # one monomial; K5 and K3,3 give bases whose signs no row or column
    # flip removes
    for g in _det_poly_graphs(random.Random(17)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DisconnectedNotice)
            psi = symanzik_psi(g)
        assert symanzik_det_poly(g) == psi, g
    shared = MultiGraph(3, [(0, 1), (1, 2), (0, 2), (1, 1)], evars=(1, 1, 2, 2))
    assert symanzik_det_poly(shared) == 2 * w(1) * w(2) + w(2) * w(2)


def test_det_poly_equals_brute_force_cauchy_binet():
    rng = random.Random(19)
    for g in _det_poly_graphs(rng):
        eta = graphpoly._cycle_space(g, 0)
        assert symanzik_det_poly(g) == _brute_force_cauchy_binet(g, eta), g


def test_det_poly_does_not_assume_a_unimodular_cycle_matrix(monkeypatch):
    # integer matrices with entries up to 3 in place of the cycles: pivots
    # that do not divide give Fraction quotients, and the squared minors
    # still come out exact; rows (2, 3) and (3, 1) reduce by 3/2 to det -7
    two = MultiGraph(1, [(0, 0)] * 2)
    cases = [(two, [{0: 2, 1: 3}, {0: 3, 1: 1}])]
    rng = random.Random(23)
    for _ in range(60):
        g = MultiGraph(1, [(0, 0)] * rng.randint(0, 6))
        cases.append((g, [{j: x for j in range(g.m) if (x := rng.randint(-3, 3))}
                          for _ in range(rng.randint(0, g.m))]))
    squares = set()
    for g, eta in cases:
        monkeypatch.setattr(graphpoly, "_cycle_space", lambda g, shift, eta=eta: eta)
        want = _brute_force_cauchy_binet(g, eta)
        assert symanzik_det_poly(g) == want, (g, eta)
        squares.update(want.terms.values())
    assert _brute_force_cauchy_binet(*cases[0]) == 49 * w(1) * w(2)
    assert max(squares) > 100  # minors far from +-1


def test_det_poly_evaluates_to_symanzik_det_at_every_tree_choice():
    rng = random.Random(29)
    for g in _det_poly_graphs(rng):
        poly = symanzik_det_poly(g)
        for choice in range(g.m + 1):
            assignment = {v: F(rng.randint(-9, 9) or 1, rng.randint(1, 12)) for v in g.evars}
            got = symanzik_det(g, assignment, tree_choice=choice)
            assert got == poly.eval({f"w{v}": a for v, a in assignment.items()}), (g, choice)


def test_psi_deletion_contraction_split():
    rep = psi_deletion_contraction(triangle(), 0)
    assert rep.degenerate is None
    assert rep.identity_holds
    assert rep.psi == MultiPoly.var(rep.variable) * rep.deleted + rep.contracted
    bridge_rep = psi_deletion_contraction(tree_to_graph(ladder(2)), 0)
    assert bridge_rep.degenerate == "bridge"
    assert bridge_rep.identity_holds is None
    loop_rep = psi_deletion_contraction(MultiGraph(1, [(0, 0)]), 0)
    assert loop_rep.degenerate == "loop"
    with pytest.raises(ValueError):
        psi_deletion_contraction(triangle(), 3)


def test_psi_split_on_all_ordinary_corpus_edges():
    for g in generate_connected_multigraphs(3):
        for i in range(g.m):
            u, v = g.edges[i]
            if u == v or g.is_bridge(i):
                continue
            rep = psi_deletion_contraction(g, i)
            assert rep.identity_holds


# -- corpus -------------------------------------------------------------------------

def test_corpus_counts_frozen():
    # OEIS A007719: connected multigraphs with loops, by edge count
    graphs = generate_connected_multigraphs(6)
    by_m = {}
    for g in graphs:
        by_m[g.m] = by_m.get(g.m, 0) + 1
    assert by_m == {0: 1, 1: 2, 2: 4, 3: 11, 4: 30, 5: 95, 6: 328}


def test_corpus_graphs_are_connected_and_distinct():
    graphs = generate_connected_multigraphs(3)
    keys = [g.canonical_key() for g in graphs]
    assert len(set(keys)) == len(keys)
    for g in graphs:
        assert is_connected(g)
        assert g.m <= 3
    again = generate_connected_multigraphs(3)
    assert [g.canonical_key() for g in again] == keys


def test_corpus_rejects_negative_bound():
    with pytest.raises(ValueError):
        generate_connected_multigraphs(-1)


def test_orbit_pruned_growth_matches_keying_every_candidate():
    # the same keys in the same order, each with the same first graph
    # (edges included) and the same parent
    for e in range(8):
        assert list(graphpoly._grow(e).items()) == list(grow_unpruned(e).items()), e


def test_growth_keys_one_candidate_per_orbit(monkeypatch):
    # one pair per orbit of the parent's automorphisms leaves 5785
    # candidates at 7 edges (7417 with every pair); of these, 3845 have
    # sorted edges not met before and are refined (5450 without the orbit
    # pruning, 5785 without the sorted-edge lookup); a candidate whose
    # certificate matches one met before is a relabelling of it and is
    # skipped, so the full search runs once per class, the seed included,
    # and on no candidate of a class already found
    calls = {"_refinement": 0, "_search": 0}
    for name in calls:
        def spy(*args, _f=getattr(graphpoly, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(graphpoly, name, spy)
    assert len(graphpoly._grow(7)) == calls["_search"] == 1682
    assert calls["_refinement"] == 1 + 3845


def test_equal_growth_certificates_give_equal_keys():
    # the certificate (the edge code under the vertex order sorted by
    # refined colour, then id) of every pair candidate of every class up
    # to 5 edges, a superset of what the growth pass meets up to 6 edges:
    # candidates with one certificate have one canonical key
    keys: dict = {}
    candidates = 0
    for g, _ in graphpoly._grow(5).values():
        for u in range(g.n):
            for v in range(u, g.n + 1):
                h = MultiGraph._trusted(g.n + (v == g.n), g.edges + ((u, v),))
                cells = graphpoly._refinement(h.n, h.edges, refine=True)
                cert = (h.n, graphpoly._edge_code(h.n, h.edges, cells[3]))
                key = h.canonical_key()
                assert keys.setdefault(cert, key) == key, h
                candidates += 1
    # every class with 1 to 6 edges, each with one certificate here (the
    # growth pass first searches a class twice at 9 edges)
    assert len(set(keys.values())) == len(keys) == 2 + 4 + 11 + 30 + 95 + 328 < candidates


# -- canonical key against the exhaustive search -----------------------------------

def _oracle_key(g: MultiGraph):
    """The least sorted edge code over every permutation of each colour
    cell (cells in colour order), with colour refinement run until the
    colouring repeats: the exhaustive search the pruned one replaced."""
    loops = [0] * g.n
    adj = [dict() for _ in range(g.n)]
    for (u, v) in g.edges:
        if u == v:
            loops[u] += 1
        else:
            adj[u][v] = adj[u].get(v, 0) + 1
            adj[v][u] = adj[v].get(u, 0) + 1
    sig0 = [(loops[w], sum(adj[w].values())) for w in range(g.n)]
    rank0 = {s: i for i, s in enumerate(sorted(set(sig0)))}
    colors = [rank0[s] for s in sig0]
    for _ in range(g.n):
        sig = [(colors[w], loops[w],
                tuple(sorted((colors[u], k) for u, k in adj[w].items())))
               for w in range(g.n)]
        ranking = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [ranking[s] for s in sig]
        if new == colors:
            break
        colors = new
    cells = {}
    for w, c in enumerate(colors):
        cells.setdefault(c, []).append(w)
    best = None
    for parts in itertools.product(*(itertools.permutations(cells[c])
                                     for c in sorted(cells))):
        pos = {w: i for i, w in enumerate(w for part in parts for w in part)}
        code = tuple(sorted((min(pos[u], pos[v]), max(pos[u], pos[v]))
                            for (u, v) in g.edges))
        if best is None or code < best:
            best = code
    return (g.n, best)


def _random_multigraph(rng, max_n, max_m):
    n = rng.randint(1, max_n)
    return MultiGraph(n, [(rng.randrange(n), rng.randrange(n))
                          for _ in range(rng.randint(0, max_m))])


def _relabel(g: MultiGraph, perm, edge_order):
    return MultiGraph(g.n, [(perm[g.edges[i][1]], perm[g.edges[i][0]])
                            for i in edge_order])


def test_canonical_key_matches_exhaustive_search_on_corpus_and_minors():
    for g in generate_connected_multigraphs(6):
        for h in [g] + [g.delete(i) for i in range(g.m)] + [g.contract(i) for i in range(g.m)]:
            assert h.canonical_key() == _oracle_key(h), h


def test_canonical_key_matches_exhaustive_search_on_random_multigraphs():
    rng = random.Random(20)
    for _ in range(300):
        g = _random_multigraph(rng, 7, 11)
        assert g.canonical_key() == _oracle_key(g), g


def _oracle_least_code(g: MultiGraph):
    """The least sorted edge code over all n! vertex orders."""
    return min(tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for (u, v) in g.edges))
               for p in itertools.permutations(range(g.n)))


def test_least_edge_code_matches_exhaustive_search_on_random_multigraphs():
    # loops and parallel edges: vertices of one cell differ in loops and
    # degree, so twins must agree on both
    rng = random.Random(21)
    graphs = [MultiGraph(3, [(0, 1), (1, 2), (2, 2)])]
    graphs += [_random_multigraph(rng, 6, 9) for _ in range(200)]
    for g in graphs:
        assert least_edge_code(g) == _oracle_least_code(g), g


def _search_families(rng, count):
    """Regular multigraphs (loops and parallel edges from random stub
    pairings) and cycles with chords: large colour cells, where the
    search has real choices to make."""
    for trial in range(count):
        n = rng.randint(4, 8)
        if trial % 2:
            d = rng.choice([3, 4]) if n % 2 == 0 else 4
            stubs = [v for v in range(n) for _ in range(d)]
            rng.shuffle(stubs)
            yield MultiGraph(n, list(zip(stubs[::2], stubs[1::2])))
        else:
            edges = _cycle(n)
            for _ in range(rng.randint(1, 3)):
                a = rng.randrange(n)
                edges.append((a, (a + rng.randint(1, n - 1)) % n))
            yield MultiGraph(n, edges)


@pytest.mark.parametrize("tries", ["preferred", "reversed", "shuffled"])
def test_canonical_key_does_not_depend_on_the_search_order(monkeypatch, tries):
    """The order in which candidates are tried changes only how fast the
    search ends.  Reversed and shuffled orders make the first leaves poor,
    so the lower bounds and the automorphism pruning do the work."""
    rng = random.Random(30)
    if tries == "reversed":
        monkeypatch.setattr(graphpoly, "_try_order",
                            lambda cell, near, loops: cell.sort(
                                key=lambda v: (-(near or {}).get(v, 0), -loops[v], v)))
    elif tries == "shuffled":
        monkeypatch.setattr(graphpoly, "_try_order",
                            lambda cell, near, loops: rng.shuffle(cell))
    graphs = list(_search_families(random.Random(31), 160))
    graphs += [g for g in generate_connected_multigraphs(5) if g.n >= 4]
    for g in graphs:
        assert g.canonical_key() == _oracle_key(g), g


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=14),
    st.permutations(range(n)),
    st.randoms(use_true_random=False))))
def test_canonical_key_ignores_relabelling(data):
    n, edges, perm, rnd = data
    g = MultiGraph(n, edges)
    order = list(range(g.m))
    rnd.shuffle(order)
    assert _relabel(g, perm, order).canonical_key() == g.canonical_key()


def _nx(g: MultiGraph):
    h = nx.MultiGraph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def test_equal_keys_iff_isomorphic():
    rng = random.Random(4)
    graphs = list(generate_connected_multigraphs(6))
    for g in list(graphs[::4]):
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(_relabel(g, perm, range(g.m)))
    graphs += [_random_multigraph(rng, 6, 7) for _ in range(300)]
    by_size = {}
    for g in graphs:
        by_size.setdefault((g.n, g.m, tuple(sorted(degree_view(g)))), []).append(g)
    pairs = equal = 0
    for group in by_size.values():
        for a, b in itertools.combinations(group, 2):
            same = a.canonical_key() == b.canonical_key()
            assert same == nx.is_isomorphic(_nx(a), _nx(b)), (a, b)
            pairs += 1
            equal += same
    assert pairs > 2000 and equal > 100


def _cycle(n, start=0):
    return [(start + i, start + (i + 1) % n) for i in range(n)]


SYMMETRIC = {
    # name: (graph, spanning trees)
    "K1,24": (MultiGraph(25, [(0, i) for i in range(1, 25)]), 1),
    "C24": (MultiGraph(24, _cycle(24)), 24),
    "Petersen": (MultiGraph(10, _cycle(5) + [(i, i + 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]), 2000),
    "K4,4": (MultiGraph(8, [(i, j) for i in range(4) for j in range(4, 8)]), 4096),
    "3-cube": (MultiGraph(8, [(i, i ^ b) for i in range(8) for b in (1, 2, 4)
                              if i < i ^ b]), 384),
    "Q4": (MultiGraph(16, [(i, i ^ b) for i in range(16) for b in (1, 2, 4, 8)
                           if i < i ^ b]), 42_467_328),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_canonical_key_on_symmetric_graphs_beyond_the_old_cap(name):
    """Their colour cells allow more than 8! orders, where the exhaustive
    search used to give up; the pruned search is exact and quick."""
    g, trees = SYMMETRIC[name]
    rng = random.Random(name)
    start = time.perf_counter()
    key = g.canonical_key()
    for _ in range(3):
        perm = list(range(g.n))
        rng.shuffle(perm)
        order = list(range(g.m))
        rng.shuffle(order)
        assert _relabel(g, perm, order).canonical_key() == key
    assert time.perf_counter() - start < 5.0
    assert spanning_tree_count(g) == trees


# search nodes (calls of _try_order) of canonical_key on the labellings
# above; without the automorphism pruning C24, Petersen, the 3-cube and Q4
# took 1081, 761, 273 and 4881
SEARCH_NODES = {"K1,24": 0, "C24": 91, "Petersen": 61, "K4,4": 15, "3-cube": 42,
                "Q4": 146}


def test_automorphisms_prune_the_canonical_search(monkeypatch):
    """The automorphisms found at tied leaves keep the search within twice
    its recorded node counts."""
    nodes = [0]
    search = graphpoly._try_order

    def spy(cell, near, loops):
        nodes[0] += 1
        search(cell, near, loops)

    monkeypatch.setattr(graphpoly, "_try_order", spy)
    for name, recorded in SEARCH_NODES.items():
        nodes[0] = 0
        SYMMETRIC[name][0].canonical_key()
        assert nodes[0] <= 2 * recorded, (name, nodes[0])


def test_canonical_key_separates_graphs_with_equal_degrees():
    # C24 against two C12; Petersen against the pentagonal prism; the 3-cube
    # against the Moebius ladder on 8 vertices
    prism = MultiGraph(10, _cycle(5) + _cycle(5, 5) + [(i, i + 5) for i in range(5)])
    moebius = MultiGraph(8, _cycle(8) + [(i, i + 4) for i in range(4)])
    for a, b in ((SYMMETRIC["C24"][0], MultiGraph(24, _cycle(12) + _cycle(12, 12))),
                 (SYMMETRIC["Petersen"][0], prism),
                 (SYMMETRIC["3-cube"][0], moebius)):
        assert a.canonical_key() != b.canonical_key()
        assert not nx.is_isomorphic(_nx(a), _nx(b))


# -- integer kernels against exact oracles ----------------------------------------

def test_bareiss_det_matches_sympy():
    rng = random.Random(8)
    cases = [[], [[0]], [[5]], [[-3]], [[0, 1], [1, 0]], [[0, 2, 1], [0, 1, 1], [3, 0, 0]],
             [[1, 2], [2, 4]], [[0, 0], [0, 7]], [[2, 0, 0], [0, 0, 1], [0, 1, 0]]]
    for _ in range(300):
        n = rng.randint(0, 7)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        kind = rng.randrange(4)
        if n > 1 and kind == 0:  # singular: a repeated row
            m[rng.randrange(1, n)] = list(m[0])
        elif n > 1 and kind == 1:  # a zero pivot that needs a row swap
            for row in m[:n - 1]:
                row[0] = 0
        cases.append(m)
    for m in cases:
        n = len(m)
        before = [list(row) for row in m]
        want = sympy.Matrix(m).det()
        assert _bareiss_det(m) == want, m
        assert m == before
    assert _bareiss_det([]) == 1
    assert _bareiss_det([[0, 1], [1, 0]]) == -1
    assert _bareiss_det([[1, 2], [2, 4]]) == 0


def test_multipoly_eval_matches_fraction_fold():
    rng = random.Random(9)
    names = ["x", "y", "z", "w1"]
    for _ in range(300):
        terms = {}
        for _ in range(rng.randint(0, 7)):
            mono = tuple(sorted((v, rng.randint(1, 4))
                                for v in rng.sample(names, rng.randint(0, 3))))
            terms[mono] = F(rng.randint(-6, 6), rng.randint(1, 5))
        p = MultiPoly(terms)
        values = {v: F(rng.randint(-8, 8), rng.randint(1, 9)) for v in names}
        if rng.random() < 0.3:
            values["x"] = rng.randint(-3, 3)
        want = F(0)
        for mono, c in p.terms.items():
            term = F(c)
            for v, e in mono:
                term *= F(values[v]) ** e
            want += term
        got = p.eval(values)
        assert type(got) is F and got == want, (p, values)
    with pytest.raises(ValueError):
        (X * Y + 1).eval({"x": F(1)})
    assert MultiPoly().eval({}) == 0
    assert MultiPoly({(): F(3, 2)}).eval({}) == F(3, 2)
