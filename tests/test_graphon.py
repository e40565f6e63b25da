"""Step graphons: cut norm/distance against a literal subset-pair oracle,
exact homomorphism densities against direct counting, sampling, and the
diagonal-block graphon model of solution partial sums.

The cut-norm oracle below enumerates every pair of block subsets
directly from the definition; the production code's component/Gray-code
enumeration must agree with it exactly.
"""

import functools
import itertools
import random
import statistics
from fractions import Fraction as F

import networkx as nx
import pytest

from dsegraphon.trees import ForestSum, ladder, leaf
from dsegraphon.dse import Cocycle, DSESpec, solve, structural_sum
from dsegraphon.graphpoly import MultiGraph
from dsegraphon.graphon import (DensityFingerprint, RefinementError,
                                SimpleGraph, SizeError, StepGraphon,
                                _cut_norm_exact_matrix, _difference_matrix,
                                _overlay, _weighted_map_sum,
                                common_refinement, complete_graph,
                                connected_graphs_up_to, convergence_trace,
                                cut_distance, cut_norm, density_fingerprint,
                                direction, feynman_graphon,
                                gateaux_density_derivative, graphon_from_graph,
                                hom_density, hom_density_graph, path_graph,
                                perturb, sample_random_graph)


def oracle_cut_norm(w: StepGraphon) -> F:
    """max over all subset pairs S,T of |sum_{i in S, j in T} mu_i mu_j W_ij|."""
    k = w.k
    mass = [[w.measures[i] * w.measures[j] * w.values[i][j] for j in range(k)]
            for i in range(k)]
    best = F(0)
    for tbits in range(1 << k):
        cols = [sum(mass[i][j] for j in range(k) if tbits >> j & 1)
                for i in range(k)]
        for sbits in range(1 << k):
            tot = sum(cols[i] for i in range(k) if sbits >> i & 1)
            if abs(tot) > best:
                best = abs(tot)
    return best


def sparse_values(rng: random.Random, k: int, lo: int = 0) -> list[list[F]]:
    """Symmetric k x k values in [lo/8, 1], about half of them zero."""
    vals = [[F(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            if rng.random() < 0.5:
                vals[i][j] = vals[j][i] = F(rng.randint(lo, 8), 8)
    return vals


def random_measures(rng: random.Random, k: int) -> list[F]:
    raw = [rng.randint(1, 9) for _ in range(k)]
    return [F(r, sum(raw)) for r in raw]


def random_graphon(rng: random.Random, k: int, equal: bool = False) -> StepGraphon:
    if equal:
        mu = [F(1, k)] * k
    else:
        mu = random_measures(rng, k)
    vals = [[F(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            v = F(rng.randint(0, 8), 8)
            vals[i][j] = vals[j][i] = v
    return StepGraphon(mu, vals)


# -- construction and validation -------------------------------------------------

def test_step_graphon_validation():
    with pytest.raises(ValueError):
        StepGraphon([], [])
    with pytest.raises(ValueError):
        StepGraphon([F(1, 2), F(1, 3)], [[0, 0], [0, 0]])  # mass != 1
    with pytest.raises(ValueError):
        StepGraphon([F(1), F(0)], [[0, 0], [0, 0]])  # zero block
    with pytest.raises(ValueError):
        StepGraphon([F(1, 2), F(1, 2)], [[0, 1], [0, 0]])  # asymmetric
    with pytest.raises(ValueError):
        StepGraphon([F(1, 2), F(1, 2)], [[0, 2], [2, 0]])  # out of range
    # perturbation directions may leave [0,1]
    d = direction([F(1, 2), F(1, 2)], [[1, -1], [-1, 1]])
    assert d.values[0][1] == -1


def test_step_graphon_helpers():
    w = StepGraphon.constant(F(1, 3), k=2)
    assert w.is_constant()
    assert w.total_mass() == F(1, 3)
    assert w.boundaries() == [F(0), F(1, 2), F(1)]
    g = graphon_from_graph(path_graph(3))
    assert not g.is_constant()
    p = g.permute([2, 1, 0])
    assert p.values == g.values  # palindromic path
    with pytest.raises(ValueError):
        g.permute([0, 0, 1])


def test_simple_graph_validation_and_codes():
    with pytest.raises(ValueError):
        SimpleGraph(2, [(0, 0)])
    with pytest.raises(ValueError):
        SimpleGraph(2, [(0, 2)])
    g = SimpleGraph(3, [(2, 1), (1, 2), (0, 1)])
    assert g.edges == ((0, 1), (1, 2))  # dedup + canonical storage
    a = SimpleGraph(4, [(0, 1), (1, 2), (2, 3)])
    b = SimpleGraph(4, [(3, 2), (2, 0), (0, 1)])  # relabeled path
    assert a.canonical_code() == b.canonical_code()
    assert SimpleGraph(9, []).canonical_code() == "9:"
    u = complete_graph(2).disjoint_union(complete_graph(2))
    assert u.n == 4 and u.edges == ((0, 1), (2, 3))


def test_has_edge_matches_the_edge_list():
    rng = random.Random(3)
    for n in (1, 2, 5, 9):
        g = SimpleGraph(n, [e for e in itertools.combinations(range(n), 2)
                            if rng.random() < 0.5])
        edges = set(g.edges)
        for u in range(n):
            for v in range(n):
                assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edges), (g, u, v)


def test_simple_graph_rejects_non_integer_vertices():
    for edges in ([(1.0, 0)], [(0.5, 1)], [(True, 1)], [(0, "1")]):
        with pytest.raises(ValueError):
            SimpleGraph(2, edges)


def test_simple_graph_is_a_multigraph():
    g = SimpleGraph(3, [(1, 2), (0, 2), (0, 1), (2, 1)])
    assert isinstance(g, MultiGraph)
    assert g.edges == ((0, 1), (0, 2), (1, 2)) and g.evars == (1, 2, 3)
    assert g == MultiGraph(3, g.edges) and hash(g) == hash(MultiGraph(3, g.edges))
    assert g.is_connected() and not SimpleGraph(3, [(0, 1)]).is_connected()
    # minors and components may have loops or parallel edges
    minors = [g.delete(0), g.contract(0)] + g.components()
    assert all(type(h) is MultiGraph for h in minors)
    assert g.contract(0).edges == ((0, 1), (0, 1))
    assert repr(g) == "SimpleGraph(n=3, edges=[(0, 1), (0, 2), (1, 2)])"
    with pytest.raises(AttributeError, match="SimpleGraph is immutable"):
        g.n = 4


@functools.lru_cache(maxsize=None)
def _permutations(n: int):
    import numpy as np
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64).reshape(-1, n)


def brute_force_code(g: SimpleGraph) -> str:
    """The least sorted edge list over all n! relabelings, as n:u-v,...
    Each relabeled edge (a, b), a < b, is the integer a*n + b, so a row of
    sorted integers compares as the sorted edge list does."""
    import numpy as np
    n = g.n
    if not g.m:
        return f"{n}:"
    perms = _permutations(n)
    a = perms[:, [u for u, _ in g.edges]]
    b = perms[:, [v for _, v in g.edges]]
    codes = np.sort(np.minimum(a, b) * n + np.maximum(a, b), axis=1)
    rows = np.arange(len(codes))
    for j in range(g.m):
        col = codes[rows, j]
        rows = rows[col == col.min()]
    return f"{n}:" + ",".join(f"{c // n}-{c % n}" for c in codes[rows[0]].tolist())


def test_canonical_code_equals_brute_force_on_all_small_graphs():
    count = 0
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = SimpleGraph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
            assert g.canonical_code() == brute_force_code(g), g
            count += 1
    assert count == 1 + 1 + 2 + 8 + 64 + 1024  # every labelled graph, n <= 5


def test_canonical_code_equals_brute_force_on_random_graphs():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(6, 8)
        p = rng.random()
        g = SimpleGraph(n, [e for e in itertools.combinations(range(n), 2)
                            if rng.random() < p])
        assert g.canonical_code() == brute_force_code(g), g


def test_graphon_from_graph_examples():
    w = graphon_from_graph(complete_graph(2))
    assert w.measures == (F(1, 2), F(1, 2))
    assert w.values == ((F(0), F(1)), (F(1), F(0)))
    e = graphon_from_graph(SimpleGraph(2, []))
    assert e.values == ((F(0), F(0)), (F(0), F(0)))
    p = graphon_from_graph(path_graph(3))
    assert p.values[0][1] == 1 and p.values[1][2] == 1 and p.values[0][2] == 0
    with pytest.raises(ValueError):
        graphon_from_graph(SimpleGraph(0, []))


# -- Feynman graphons ---------------------------------------------------------------

def test_feynman_graphon_single_vertex():
    w = feynman_graphon(ForestSum.of(leaf("g")), F(1, 2))
    assert w.k == 1
    assert w.values == ((F(0),),)


def test_feynman_graphon_blocks_and_values():
    y = ForestSum.of(leaf("g")) + 2 * ForestSum.of(ladder(2))
    w = feynman_graphon(y, F(1))
    # one 1-vertex block + two copies of the 2-vertex chain: 5 vertex
    # cells of measure 1/5 (the copy blocks have masses 1/5, 2/5, 2/5)
    assert w.measures == (F(1, 5),) * 5
    assert w.values[0] == (F(0),) * 5
    assert w.values[1][2] == 1 and w.values[3][4] == 1
    assert w.values[1][3] == 0 and w.values[2][4] == 0
    half = feynman_graphon(y, F(1, 2))
    # grade-2 blocks carry edge value (1/2)^2
    assert half.values[1][2] == F(1, 4) and half.values[3][4] == F(1, 4)
    assert half.values[1][2] == half.values[2][1]


def test_feynman_graphon_rejects_bad_input():
    with pytest.raises(ValueError):
        feynman_graphon(F(1, 2) * ForestSum.of(leaf("g")), F(1))
    with pytest.raises(ValueError):
        feynman_graphon(-1 * ForestSum.of(leaf("g")), F(1))
    with pytest.raises(ValueError):
        feynman_graphon(ForestSum.unit(), F(1))
    with pytest.raises(ValueError):
        feynman_graphon(ForestSum.zero(), F(1))
    with pytest.raises(ValueError):
        feynman_graphon(ForestSum.of(leaf("g")), F(0))
    with pytest.raises(ValueError):
        feynman_graphon(ForestSum.of(leaf("g")), F(3, 2))


# -- cut norm -------------------------------------------------------------------------

def test_cut_norm_anchor_values():
    assert cut_norm(StepGraphon.constant(F(0))) == 0
    for k in range(1, 5):
        for c in (F(1, 3), F(1), F(2, 7)):
            w = StepGraphon.constant(c, k=k)
            assert cut_norm(w) == c
            assert oracle_cut_norm(w) == c
    # the complete-graph-on-two graphon: the full-square rectangle wins
    assert cut_norm(graphon_from_graph(complete_graph(2))) == F(1, 2)


def test_cut_norm_matches_subset_oracle():
    rng = random.Random(314)
    cases = [random_graphon(rng, rng.randint(1, 5)) for _ in range(40)]
    cases += [graphon_from_graph(g) for g in connected_graphs_up_to(3)]
    cases.append(direction([F(1, 2), F(1, 2)], [[1, -1], [-1, 1]]))
    cases.append(direction([F(1, 4), F(3, 4)], [[F(-1, 2), F(1, 3)],
                                                [F(1, 3), F(1, 5)]]))
    for w in cases:
        assert cut_norm(w, "exact") == oracle_cut_norm(w)


def test_cut_norm_signed_direction_value():
    d = direction([F(1, 2), F(1, 2)], [[1, -1], [-1, 1]])
    # best rectangle is a single diagonal block: 1/4; the full square cancels
    assert cut_norm(d) == F(1, 4)


def test_cut_norm_bounds_and_heuristic_lower_bound():
    rng = random.Random(2718)
    for trial in range(60):
        w = random_graphon(rng, rng.randint(1, 6))
        exact = cut_norm(w, "exact")
        heur = cut_norm(w, "heuristic", seed=trial, restarts=6)
        assert 0 <= exact <= max(abs(v) for row in w.values for v in row) \
            or w.k == 0
        assert heur <= exact
        assert heur >= 0


def test_sign_definite_cut_norm_matches_subset_oracle():
    rng = random.Random(4242)
    for _ in range(30):
        k = rng.randint(1, 5)
        mu = random_measures(rng, k)
        vals = sparse_values(rng, k)
        for w in (StepGraphon(mu, vals),
                  direction(mu, [[-v for v in row] for row in vals])):
            want = oracle_cut_norm(w)
            assert want == abs(w.total_mass())
            assert cut_norm(w, "exact") == want
            assert cut_norm(w, "heuristic", seed=1, restarts=2) == want


def test_feynman_graphon_exact_cut_norm_is_total_mass():
    sol = solve(DSESpec((Cocycle("g", F(1)),), order=4, coupling=F(1, 2)))
    w = feynman_graphon(structural_sum(sol, 4), sol.coupling)
    assert w.k == 76  # beyond the 20-block subset enumeration
    mass = sum(w.measures[i] * w.measures[j] * w.values[i][j]
               for i in range(w.k) for j in range(w.k))
    assert cut_norm(w, "exact") == mass == w.total_mass()


def test_cut_norm_size_guard():
    w = StepGraphon.constant(F(1, 2), k=21)
    # nonnegative: the closed form |total mass| holds at any size
    assert cut_norm(w, "exact") == F(1, 2)
    assert cut_norm(w, "heuristic", seed=0, restarts=2) == F(1, 2)
    signed = direction([F(1, 21)] * 21,
                       [[(-1) ** (i + j) for j in range(21)] for i in range(21)])
    with pytest.raises(SizeError):
        cut_norm(signed, "exact")
    with pytest.raises(ValueError):
        cut_norm(StepGraphon.constant(F(1, 2)), "fancy")


# -- refinement and cut distance ---------------------------------------------------

def test_common_refinement_alignment():
    w = StepGraphon([F(1, 3), F(2, 3)], [[F(1), F(0)], [F(0), F(1, 2)]])
    u = StepGraphon.constant(F(1, 2), k=2)
    wr, ur = common_refinement(w, u)
    assert wr.k == ur.k == 6
    assert wr.measures == (F(1, 6),) * 6
    assert wr.total_mass() == w.total_mass()
    assert ur.is_constant()
    with pytest.raises(RefinementError):
        common_refinement(w, u, max_cells=3)


def test_cut_distance_anchor_values():
    w = graphon_from_graph(complete_graph(3))
    assert cut_distance(w, w) == 0
    assert cut_distance(StepGraphon.constant(F(0)),
                        StepGraphon.constant(F(1))) == 1
    # distance to the constant with the same mass
    assert cut_distance(graphon_from_graph(complete_graph(2)),
                        StepGraphon.constant(F(1, 2))) == F(1, 8)


def test_cut_distance_vanishes_on_relabelings():
    star = graphon_from_graph(SimpleGraph(4, [(0, 1), (0, 2), (0, 3)]))
    for perm in ([1, 0, 2, 3], [3, 2, 1, 0], [1, 2, 3, 0]):
        moved = star.permute(perm)
        assert cut_distance(star, moved, "exact") == 0
        assert cut_distance(star, moved, "heuristic", seed=2) == 0


def test_cut_distance_is_symmetric_and_triangular():
    rng = random.Random(55)
    gs = [random_graphon(rng, rng.choice([2, 3]), equal=True) for _ in range(6)]
    for a, b in itertools.combinations(gs, 2):
        assert cut_distance(a, b) == cut_distance(b, a)
    for a, b, c in itertools.combinations(gs, 3):
        dab = cut_distance(a, b)
        dbc = cut_distance(b, c)
        dac = cut_distance(a, c)
        assert dac <= dab + dbc


def test_cut_distance_heuristic_upper_bounds_exact():
    # on small instances every alignment the heuristic inspects is
    # evaluated exactly, so its minimum cannot undercut the true one
    rng = random.Random(77)
    for trial in range(30):
        a = random_graphon(rng, rng.choice([2, 3]), equal=True)
        b = random_graphon(rng, rng.choice([2, 3]), equal=True)
        exact = cut_distance(a, b, "exact")
        heur = cut_distance(a, b, "heuristic", seed=trial, restarts=4)
        assert heur >= exact


def test_cut_distance_guards():
    w = graphon_from_graph(path_graph(5))
    u = StepGraphon((F(1, 2), F(1, 2)),
                    [[F(3, 4), F(1, 4)], [F(1, 4), F(1, 2)]])
    with pytest.raises(SizeError):
        cut_distance(w, u, "exact")
    assert cut_distance(w, u, "heuristic", seed=1, restarts=4) > 0
    odd = StepGraphon((F(1, 4099), F(4098, 4099)),
                      [[F(1), F(0)], [F(0), F(0)]])
    # 8198 equal cells: aligned on the 3-cell overlay, where the identity
    # attains the mass gap 7/16 - 1/4099^2
    assert cut_distance(odd, u) == F(117612591, 268828816)
    odd2 = StepGraphon((F(1, 4099), F(4098, 4099)),
                       [[F(0), F(1)], [F(1), F(0)]])
    corner = StepGraphon((F(1, 2), F(1, 2)), [[F(1), F(0)], [F(0), F(0)]])
    with pytest.raises(RefinementError):
        cut_distance(odd2, corner)
    with pytest.raises(ValueError):
        cut_distance(w, u, "fancy")


def test_overlay_identity_norm_matches_equal_refinement():
    # partitions cut at multiples of 1/10, so the equal-cell refinement
    # has at most 10 cells and its exact norm is enumerable
    rng = random.Random(808)
    tried = 0
    while tried < 30:
        parts = []
        for _ in range(2):
            cuts = sorted(rng.sample(range(1, 10), rng.randint(1, 3)))
            bounds = [0] + cuts + [10]
            parts.append([F(b - a, 10) for a, b in zip(bounds, bounds[1:])])
        pw, pu = parts
        if set(itertools.accumulate(pw)) <= set(itertools.accumulate(pu)) or \
                set(itertools.accumulate(pu)) <= set(itertools.accumulate(pw)):
            continue  # nested partitions: one is already the overlay
        tried += 1
        w = StepGraphon(pw, sparse_values(rng, len(pw)))
        u = StepGraphon(pu, sparse_values(rng, len(pu)))
        wo, uo = _overlay(w, u)
        assert wo.measures == uo.measures
        assert wo.k <= w.k + u.k - 1
        assert wo.total_mass() == w.total_mass()
        assert uo.total_mass() == u.total_mass()
        wr, ur = common_refinement(w, u)
        assert _cut_norm_exact_matrix(_difference_matrix(wo, uo)) == \
            _cut_norm_exact_matrix(_difference_matrix(wr, ur))


# -- homomorphism densities -----------------------------------------------------------

def test_density_anchor_values():
    wk2 = graphon_from_graph(complete_graph(2))
    assert hom_density(complete_graph(2), wk2) == F(1, 2)
    assert hom_density(complete_graph(3), wk2) == 0
    assert hom_density(path_graph(3), wk2) == F(1, 4)
    zero = StepGraphon.constant(F(0))
    one = StepGraphon.constant(F(1))
    for h in (complete_graph(2), path_graph(3), complete_graph(4)):
        assert hom_density(h, zero) == 0
        assert hom_density(h, one) == 1
    assert hom_density(SimpleGraph(1, []), zero) == 1
    # t(H, const c) = c^{|E(H)|}
    c = StepGraphon.constant(F(1, 3))
    assert hom_density(complete_graph(3), c) == F(1, 27)


def test_density_graph_anchor_values():
    assert hom_density_graph(SimpleGraph(1, []), complete_graph(3)) == 1
    assert hom_density_graph(complete_graph(2), complete_graph(2)) == F(1, 2)
    assert hom_density_graph(complete_graph(2), complete_graph(3)) == F(2, 3)
    with pytest.raises(ValueError):
        hom_density_graph(complete_graph(2), SimpleGraph(0, []))


def _all_graphs_up_to_five_vertices() -> list[SimpleGraph]:
    seen = {}
    for n in range(1, 6):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for r in range(len(pairs) + 1):
            for subset in itertools.combinations(pairs, r):
                g = SimpleGraph(n, subset)
                seen.setdefault(g.canonical_code(), g)
    return list(seen.values())


def test_graph_density_equals_graphon_density_exhaustively():
    hosts = _all_graphs_up_to_five_vertices()
    assert len(hosts) == 52  # unlabeled graphs on 1..5 vertices
    patterns = connected_graphs_up_to(4)
    for g in hosts:
        w = graphon_from_graph(g)
        for h in patterns:
            assert hom_density(h, w) == hom_density_graph(h, g)


def dense_map_sum(nv, edge_mats, k, mu) -> F:
    """Every map [nv] -> [k], all k colours per vertex."""
    total = F(0)
    for phi in itertools.product(range(k), repeat=nv):
        term = F(1)
        for v in range(nv):
            term *= mu[phi[v]]
        for (a, b, mat) in edge_mats:
            term *= mat[phi[a]][phi[b]]
        total += term
    return total


def test_sparse_map_sum_matches_dense_reference():
    rng = random.Random(1618)
    patterns = connected_graphs_up_to(4) + [
        SimpleGraph(4, [(0, 3), (1, 2)]), SimpleGraph(5, [(1, 4), (2, 4), (0, 3)])]
    for _ in range(15):
        k = rng.randint(1, 4)
        mu = random_measures(rng, k)
        w = sparse_values(rng, k)
        signed = sparse_values(rng, k, lo=-8)
        d = sparse_values(rng, k)
        for h in patterns:
            for choose in (lambda i: w, lambda i: signed,
                           lambda i: d if i % 2 else w):
                mats = [(a, b, choose(i)) for i, (a, b) in enumerate(h.edges)]
                assert _weighted_map_sum(h.n, mats, k, mu) == \
                    dense_map_sum(h.n, mats, k, mu)


def test_density_multiplicative_over_disjoint_unions():
    rng = random.Random(13)
    parts = [g for g in connected_graphs_up_to(3) if g.m]
    for _ in range(20):
        h1 = rng.choice(parts)
        h2 = rng.choice(parts)
        w = random_graphon(rng, rng.randint(1, 4))
        assert hom_density(h1.disjoint_union(h2), w) == \
            hom_density(h1, w) * hom_density(h2, w)
    # and on the counting side
    g = complete_graph(4)
    h1, h2 = complete_graph(2), path_graph(3)
    assert hom_density_graph(h1.disjoint_union(h2), g) == \
        hom_density_graph(h1, g) * hom_density_graph(h2, g)


# -- fingerprints ----------------------------------------------------------------------

def test_connected_graph_catalogue_counts():
    # OEIS A002905 summed: 1, 1, 1, 3, 5, 12 connected graphs with 0..5 edges
    for level, count in [(0, 1), (1, 2), (2, 3), (3, 6), (4, 11), (5, 23)]:
        assert len(connected_graphs_up_to(level)) == count
    by_m = {}
    for g in connected_graphs_up_to(5):
        by_m[g.m] = by_m.get(g.m, 0) + 1
    assert by_m == {0: 1, 1: 1, 2: 1, 3: 3, 4: 5, 5: 12}
    with pytest.raises(SizeError):
        connected_graphs_up_to(6)
    with pytest.raises(ValueError):
        connected_graphs_up_to(-1)


def _nx(g: SimpleGraph):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def test_equal_codes_iff_isomorphic_on_the_catalogue():
    rng = random.Random(5)
    graphs = list(connected_graphs_up_to(5))
    for g in graphs[:]:
        for _ in range(2):
            perm = list(range(g.n))
            rng.shuffle(perm)
            graphs.append(SimpleGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges]))
    equal = 0
    for a, b in itertools.combinations(graphs, 2):
        same = a.canonical_code() == b.canonical_code()
        assert same == nx.is_isomorphic(_nx(a), _nx(b)), (a, b)
        equal += same
    assert equal == 23 * 3  # each class with its two relabelled copies


def _cycle(n: int, offset: int = 0):
    return [(offset + i, offset + (i + 1) % n) for i in range(n)]


def test_equal_codes_iff_isomorphic_beyond_eight_vertices():
    """Codes of 9 to 16 vertices, where an exhaustive search over n!
    orders cannot finish: equal exactly when networkx finds an
    isomorphism, on regular graphs with equal degree sequences and on
    relabelled random graphs."""
    petersen = SimpleGraph(10, _cycle(5) + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                           + [(i, i + 5) for i in range(5)])
    prism = SimpleGraph(10, _cycle(5) + _cycle(5, 5) + [(i, i + 5) for i in range(5)])
    c12 = SimpleGraph(12, _cycle(12))
    two_c6 = SimpleGraph(12, _cycle(6) + _cycle(6, 6))
    graphs = [petersen, prism, c12, two_c6]
    rng = random.Random(16)
    for n in range(9, 17):
        g = SimpleGraph(n, [e for e in itertools.combinations(range(n), 2)
                            if rng.random() < 0.25])
        graphs.append(g)
        perm = list(range(n))
        rng.shuffle(perm)
        graphs.append(SimpleGraph(n, [(perm[u], perm[v]) for u, v in g.edges]))
    codes = [g.canonical_code() for g in graphs]
    for (a, ca), (b, cb) in itertools.combinations(zip(graphs, codes), 2):
        assert (ca == cb) == nx.is_isomorphic(_nx(a), _nx(b)), (a, b)
    assert codes[0] != codes[1] and codes[2] != codes[3]
    assert all(codes[i] == codes[i + 1] for i in range(4, len(codes), 2))


def test_fingerprint_anchor_values():
    zero = StepGraphon.constant(F(0))
    fp = density_fingerprint(zero, level=3)
    vals = fp.as_dict()
    k1 = SimpleGraph(1, []).canonical_code()
    assert vals[k1] == 1
    assert all(v == 0 for code, v in vals.items() if code != k1)
    fp3 = density_fingerprint(graphon_from_graph(complete_graph(3)), level=3)
    d = fp3.as_dict()
    assert d[complete_graph(2).canonical_code()] == F(2, 3)
    assert d[complete_graph(3).canonical_code()] == F(6, 27)


def test_fingerprint_relabeling_invariance():
    star = graphon_from_graph(SimpleGraph(4, [(0, 1), (0, 2), (0, 3)]))
    moved = star.permute([2, 0, 3, 1])
    a = density_fingerprint(star, level=3)
    b = density_fingerprint(moved, level=3)
    assert a.densities == b.densities
    assert a.indistinguishable_from(b)


def test_fingerprint_separation_depth():
    # the two-block checkerboard and the constant 1/2 share all densities
    # of patterns up to two edges but differ on triangles
    wk2 = graphon_from_graph(complete_graph(2))
    half = StepGraphon.constant(F(1, 2))
    low_a = density_fingerprint(wk2, level=2)
    low_b = density_fingerprint(half, level=2)
    assert low_a.indistinguishable_from(low_b)
    hi_a = density_fingerprint(wk2, level=3)
    hi_b = density_fingerprint(half, level=3)
    assert not hi_a.indistinguishable_from(hi_b)
    # mixed levels compare at the common depth
    assert low_a.indistinguishable_from(hi_b)


# -- Gateaux derivatives -----------------------------------------------------------

def test_gateaux_anchor_values():
    w = StepGraphon.constant(F(1, 2), k=2)
    d = direction([F(1, 2), F(1, 2)], [[1, 1], [1, 1]])
    # one edge: derivative is the block-weighted mean of D
    assert gateaux_density_derivative(complete_graph(2), w, d) == 1
    # two edges at constant 1/2 in direction 1: 2 * 1/2
    assert gateaux_density_derivative(path_graph(3), w, d) == 1
    zero_dir = direction([F(1, 2), F(1, 2)], [[0, 0], [0, 0]])
    assert gateaux_density_derivative(path_graph(3), w, zero_dir) == 0
    mixed = direction([F(1, 2), F(1, 2)], [[F(1, 2), F(-1, 2)],
                                           [F(-1, 2), F(1, 2)]])
    assert gateaux_density_derivative(complete_graph(2), w, mixed) == 0


def test_gateaux_matches_central_difference():
    rng = random.Random(99)
    patterns = [g for g in connected_graphs_up_to(3) if g.m]
    eps = F(1, 10 ** 4)
    for _ in range(100):
        h = rng.choice(patterns)
        k = rng.choice([2, 3])
        mu = [F(1, k)] * k
        wv = [[F(0)] * k for _ in range(k)]
        dv = [[F(0)] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                wv[i][j] = wv[j][i] = F(rng.randint(1, 3), 4)
                dv[i][j] = dv[j][i] = F(rng.randint(-1, 1), 4)
        w = StepGraphon(mu, wv)
        d = direction(mu, dv)
        analytic = gateaux_density_derivative(h, w, d)
        plus = hom_density(h, perturb(w, d, eps))
        minus = hom_density(h, perturb(w, d, -eps))
        fd = (plus - minus) / (2 * eps)
        denom = abs(analytic) if analytic else F(1)
        assert abs(fd - analytic) / denom <= F(1, 10 ** 6)


def test_perturb_stays_in_range():
    w = StepGraphon.constant(F(1, 2))
    d = direction([F(1)], [[1]])
    assert perturb(w, d, F(1, 4)).values[0][0] == F(3, 4)
    with pytest.raises(ValueError):
        perturb(w, d, F(3, 4))  # leaves [0,1]


def test_gateaux_aligns_mismatched_partitions():
    w = StepGraphon([F(1, 2), F(1, 2)], [[F(1, 2), F(1, 4)],
                                         [F(1, 4), F(1, 2)]])
    d = direction([F(1, 3), F(2, 3)], [[1, 0], [0, 1]])
    got = gateaux_density_derivative(complete_graph(2), w, d)
    # refine by hand to sixths and apply the one-edge formula
    wr = StepGraphon((F(1, 6),) * 6,
                     [[w.values[i // 3][j // 3] for j in range(6)]
                      for i in range(6)])
    dr = direction((F(1, 6),) * 6,
                   [[d.values[min(i // 2, 1)][min(j // 2, 1)] for j in range(6)]
                    for i in range(6)])
    want = sum(dr.values[i][j] * F(1, 36) for i in range(6) for j in range(6))
    assert got == want
    assert gateaux_density_derivative(complete_graph(2), wr, dr) == want


# -- sampling ---------------------------------------------------------------------------

def test_sampling_determinism_and_extremes():
    w = StepGraphon.constant(F(1, 2))
    a = sample_random_graph(30, w, seed=5)
    b = sample_random_graph(30, w, seed=5)
    assert a == b
    c = sample_random_graph(30, w, seed=6)
    assert c != a
    full = sample_random_graph(12, StepGraphon.constant(F(1)), seed=0)
    assert full == complete_graph(12)
    empty = sample_random_graph(12, StepGraphon.constant(F(0)), seed=0)
    assert empty.m == 0
    with pytest.raises(ValueError):
        sample_random_graph(0, w)


def test_sampled_graph_equals_validated_construction():
    # sample_random_graph skips SimpleGraph's checks; the graph it builds
    # must be the one the validating constructor builds from its edges
    blocks = [StepGraphon.constant(F(1, 2)),
              StepGraphon([F(1, 3), F(2, 3)], [[F(1, 5), F(7, 8)],
                                               [F(7, 8), F(0)]]),
              StepGraphon([F(1, 4), F(1, 4), F(1, 2)],
                          [[F(1), F(1, 3), F(0)], [F(1, 3), F(1, 2), F(2, 3)],
                           [F(0), F(2, 3), F(1, 9)]]),
              StepGraphon.constant(F(0)), StepGraphon.constant(F(1), k=2),
              feynman_graphon(ForestSum.of(leaf("g")) + 2 * ForestSum.of(ladder(2)),
                              F(1, 2))]
    for w in blocks:
        for n, seed in ((1, 0), (2, 3), (5, 1), (17, 11), (60, 4)):
            g = sample_random_graph(n, w, seed=seed)
            ref = SimpleGraph(n, list(g.edges))
            assert type(g) is SimpleGraph
            assert g == ref and hash(g) == hash(ref)
            assert g.edges == ref.edges and g.evars == ref.evars and g.m == ref.m
            for i in range(n):
                for j in range(n):
                    assert g.has_edge(i, j) == ref.has_edge(i, j)


def loop_sample(n: int, w: StepGraphon, seed: int) -> list:
    """The edges of sample_random_graph by a Python loop over the pairs,
    each coin against its block's threshold int(v * 2^64)."""
    import numpy as np
    rng = np.random.Generator(np.random.Philox(key=seed))
    scale = 1 << 64
    cuts = [int(b * scale) for b in w.boundaries()[1:]]
    draws = rng.integers(0, scale, size=n, dtype=np.uint64).tolist()
    types = [next(i for i, c in enumerate(cuts) if x < c or i == w.k - 1)
             for x in draws]
    thresholds = [[int(v * scale) for v in row] for row in w.values]
    coins = iter(rng.integers(0, scale, size=n * (n - 1) // 2,
                              dtype=np.uint64).tolist())
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if next(coins) < thresholds[types[i]][types[j]]]


def test_sampling_matches_pair_loop():
    rng = random.Random(7)
    halves = (F(1, 2), F(1, 2))
    graphons = [StepGraphon.constant(c, k=k) for c in (F(0), F(1), F(1, 2), F(1, 3))
                for k in (1, 2)]
    graphons += [graphon_from_graph(g) for g in (
        path_graph(3), path_graph(5), complete_graph(2), complete_graph(3),
        SimpleGraph(2, []), SimpleGraph(4, [(0, 1), (0, 2), (0, 3)]))]
    graphons += [
        feynman_graphon(ForestSum.of(leaf("g")) + 2 * ForestSum.of(ladder(2)), F(1, 2)),
        StepGraphon([F(1, 3), F(2, 3)], [[F(1), F(0)], [F(0), F(1, 2)]]),
        StepGraphon([F(1, 3), F(2, 3)], [[F(1, 5), F(7, 8)], [F(7, 8), F(0)]]),
        StepGraphon([F(1, 4), F(1, 4), F(1, 2)],
                    [[F(1), F(1, 3), F(0)], [F(1, 3), F(1, 2), F(2, 3)],
                     [F(0), F(2, 3), F(1, 9)]]),
        StepGraphon(halves, [[F(0), F(1)], [F(1), F(1)]]),
        StepGraphon(halves, [[F(3, 4), F(1, 4)], [F(1, 4), F(1, 2)]]),
        StepGraphon(halves, [[F(1, 2), F(1, 4)], [F(1, 4), F(1, 2)]]),
        StepGraphon(halves, [[F(1), F(0)], [F(0), F(0)]]),
        StepGraphon((F(1, 4099), F(4098, 4099)), [[F(1), F(0)], [F(0), F(0)]]),
        StepGraphon((F(1, 4099), F(4098, 4099)), [[F(0), F(1)], [F(1), F(0)]]),
        random_graphon(rng, 4), random_graphon(rng, 5, equal=True)]
    for w in graphons:
        for n, seed in ((1, 0), (2, 3), (9, 1), (40, 5), (101, 8)):
            assert list(sample_random_graph(n, w, seed=seed).edges) == \
                loop_sample(n, w, seed), (w, n, seed)


def test_sampling_edge_density_statistics():
    w = StepGraphon.constant(F(1, 2))
    g = sample_random_graph(1000, w, seed=42)
    pairs = 1000 * 999 // 2
    density = F(g.m, pairs)
    sigma = (F(1, 4) / pairs) ** F(1, 2)  # exactly representable? no: use float
    assert abs(float(density) - 0.5) <= 3 * (0.25 / pairs) ** 0.5


def test_sampling_respects_block_structure():
    # a two-block graphon with an empty diagonal block yields no edges
    # inside that block's vertex set
    w = StepGraphon([F(1, 2), F(1, 2)], [[F(0), F(1)], [F(1), F(1)]])
    g = sample_random_graph(400, w, seed=9)
    # vertices of type 0 form an independent set; type-1 vertices form a
    # clique joined to everything, so every non-edge has both ends in the
    # independent part: check the complement is a disjoint union pattern
    comp_edges = set()
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if not g.has_edge(i, j):
                comp_edges.add((i, j))
    touched = {v for e in comp_edges for v in e}
    for (i, j) in itertools.combinations(sorted(touched), 2):
        assert not g.has_edge(i, j)


def test_sampling_consistency_median_trend():
    w = StepGraphon.constant(F(1, 2))
    medians = []
    for n in (50, 200, 800):
        ds = []
        for trial in range(20):
            g = sample_random_graph(n, w, seed=n * 100 + trial)
            ds.append(cut_distance(graphon_from_graph(g), w))
        medians.append(statistics.median(ds))
    assert medians[0] > medians[1] > medians[2]


# -- solution traces ---------------------------------------------------------------------

def test_convergence_trace_fixture():
    sol = solve(DSESpec((Cocycle("g", F(1)),), order=4, coupling=F(1, 2)))
    assert convergence_trace(sol, 1) == []
    tr = convergence_trace(sol, 3, "heuristic", seed=3, restarts=2)
    assert tr == [F(1, 25), F(53, 1600)]
    assert all(d > 0 for d in tr)
    assert tr[0] > tr[1]


def test_convergence_trace_grows_with_coupling():
    lo = solve(DSESpec((Cocycle("g", F(1)),), order=3, coupling=F(1, 2)))
    hi = solve(DSESpec((Cocycle("g", F(1)),), order=3, coupling=F(3, 4)))
    tl = convergence_trace(lo, 3, "heuristic", seed=3, restarts=2)
    th = convergence_trace(hi, 3, "heuristic", seed=3, restarts=2)
    assert all(a < b for a, b in zip(tl, th))


def test_convergence_trace_range_checks():
    sol = solve(DSESpec((Cocycle("g", F(1)),), order=3))
    with pytest.raises(ValueError):
        convergence_trace(sol, 0)
    with pytest.raises(ValueError):
        convergence_trace(sol, 4)
