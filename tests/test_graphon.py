"""Step graphons: cut norm/distance against a literal subset-pair oracle,
exact homomorphism densities against direct counting, sampling, and the
diagonal-block graphon model of solution partial sums.

The cut-norm oracle below enumerates every pair of block subsets
directly from the definition; the production code's component/Gray-code
enumeration must agree with it exactly.
"""

import bisect
import functools
import itertools
import math
import os
import random
import statistics
import subprocess
import sys
from fractions import Fraction as F

import networkx as nx
import pytest

import dsegraphon
from dsegraphon.trees import ForestSum, ladder, leaf
from dsegraphon.dse import Cocycle, DSESpec, solve, structural_sum
from dsegraphon.graphpoly import MultiGraph
from dsegraphon.graphon import (RefinementError, SimpleGraph, SizeError,
                                StepGraphon, _block_sequences, _cell_blocks,
                                _cut_norm_exact_matrix, _difference_matrix,
                                _overlay, _weighted_map_sum,
                                common_refinement, connected_graphs_up_to,
                                convergence_trace, cut_distance, cut_norm,
                                density_fingerprint, direction, feynman_graphon,
                                gateaux_density_derivative, graphon_from_graph,
                                hom_density, perturb)
from graph_oracles import (complete_graph, constant_graphon, graphon_values,
                           hom_density_graph, is_connected, path_graph, permute,
                           sample_random_graph)


def oracle_cut_norm(w: StepGraphon) -> F:
    """max over all subset pairs S,T of |sum_{i in S, j in T} mu_i mu_j W_ij|."""
    k, vals = w.k, graphon_values(w)
    mass = [[w.measures[i] * w.measures[j] * vals[i][j] for j in range(k)]
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
    assert graphon_values(d)[0][1] == -1


def test_step_graphon_helpers():
    w = constant_graphon(F(1, 3), k=2)
    assert w.is_constant()
    assert w.total_mass() == F(1, 3)
    assert w.boundaries() == [F(0), F(1, 2), F(1)]
    g = graphon_from_graph(path_graph(3))
    assert not g.is_constant()
    p = permute(g, [2, 1, 0])
    assert p == g  # palindromic path
    with pytest.raises(ValueError):
        permute(g, [0, 0, 1])


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


def test_simple_graph_rejects_non_integer_vertices():
    for edges in ([(1.0, 0)], [(0.5, 1)], [(True, 1)], [(0, "1")]):
        with pytest.raises(ValueError):
            SimpleGraph(2, edges)


def test_simple_graph_builds_edge_variables_on_first_read():
    """A sampled graph stores no edge variables, and hashing, comparing
    and reading them store and retain nothing: a read builds 1..m anew.
    Minors stay plain MultiGraphs carrying their variables."""
    import tracemalloc
    g = sample_random_graph(300, constant_graphon(F(1, 2)), seed=4)
    plain = MultiGraph(g.n, g.edges)
    assert g._evars is None
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        hashed = hash(g) == hash(plain)
        equal = g == plain and plain == g
        read = g.evars == tuple(range(1, g.m + 1))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert hashed and equal and read
    assert retained == 0 and g._evars is None
    for h in (g, SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])):
        ev = h.evars
        d, c = h.delete(1), h.contract(0)
        assert type(d) is type(c) is MultiGraph
        assert d.evars == ev[:1] + ev[2:] and c.evars == ev[1:]
        assert h == MultiGraph(h.n, h.edges, ev)
        assert h._evars is None
    with pytest.raises(AttributeError):
        g.no_such_attribute


def test_simple_graph_is_a_multigraph():
    g = SimpleGraph(3, [(1, 2), (0, 2), (0, 1), (2, 1)])
    assert isinstance(g, MultiGraph)
    assert g.edges == ((0, 1), (0, 2), (1, 2)) and g.evars == (1, 2, 3)
    assert g == MultiGraph(3, g.edges) and hash(g) == hash(MultiGraph(3, g.edges))
    assert is_connected(g) and not is_connected(SimpleGraph(3, [(0, 1)]))
    # minors and components may have loops or parallel edges
    minors = [g.delete(0), g.contract(0)] + g.components()
    assert all(type(h) is MultiGraph for h in minors)
    assert g.contract(0).edges == ((0, 1), (0, 1))
    assert repr(g) == "SimpleGraph(n=3, edges=[(0, 1), (0, 2), (1, 2)])"
    with pytest.raises(AttributeError, match="SimpleGraph is immutable"):
        g.n = 4


def test_simple_graph_compares_and_hashes_without_storing_its_variables():
    g = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    twin = SimpleGraph(4, list(g.edges))
    plain = MultiGraph(4, g.edges)
    explicit = MultiGraph(4, g.edges, (1, 2, 3, 4))
    assert g == twin and twin == g and g == plain and plain == g
    assert g == explicit and explicit == g
    assert hash(g) == hash(twin) == hash(plain) == hash(explicit)
    assert g != MultiGraph(4, g.edges, (4, 3, 2, 1))
    assert MultiGraph(4, g.edges, (4, 3, 2, 1)) != g
    assert g != SimpleGraph(4, g.edges[:3]) and g != MultiGraph(5, g.edges)
    assert g != g.edges
    for h in (g, twin, plain, explicit):
        assert h._evars is None
    # a graph whose variables were read still stores none, and compares
    # and hashes alike
    assert twin.evars == (1, 2, 3, 4)
    assert twin._evars is None
    assert g == twin and hash(g) == hash(twin)


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
    assert graphon_values(w) == ((F(0), F(1)), (F(1), F(0)))
    e = graphon_from_graph(SimpleGraph(2, []))
    assert graphon_values(e) == ((F(0), F(0)), (F(0), F(0)))
    p = graphon_from_graph(path_graph(3))
    pv = graphon_values(p)
    assert pv[0][1] == 1 and pv[1][2] == 1 and pv[0][2] == 0
    with pytest.raises(ValueError):
        graphon_from_graph(SimpleGraph(0, []))


# -- Feynman graphons ---------------------------------------------------------------

def test_feynman_graphon_single_vertex():
    w = feynman_graphon(ForestSum.of(leaf("g")), F(1, 2))
    assert w.k == 1
    assert graphon_values(w) == ((F(0),),)


def test_feynman_graphon_blocks_and_values():
    y = ForestSum.of(leaf("g")) + 2 * ForestSum.of(ladder(2))
    w = feynman_graphon(y, F(1))
    # one 1-vertex block + two copies of the 2-vertex chain: 5 vertex
    # cells of measure 1/5 (the copy blocks have masses 1/5, 2/5, 2/5)
    assert w.measures == (F(1, 5),) * 5
    wv = graphon_values(w)
    assert wv[0] == (F(0),) * 5
    assert wv[1][2] == 1 and wv[3][4] == 1
    assert wv[1][3] == 0 and wv[2][4] == 0
    half = feynman_graphon(y, F(1, 2))
    # grade-2 blocks carry edge value (1/2)^2
    hv = graphon_values(half)
    assert hv[1][2] == F(1, 4) and hv[3][4] == F(1, 4)
    assert hv[1][2] == hv[2][1]


def test_feynman_graphon_refuses_more_cells_than_its_dense_matrix_holds(monkeypatch):
    # 2049 two-vertex ladders are 4098 cells, just past the limit of 4096:
    # refused before the matrix is allocated
    with pytest.raises(SizeError) as exc:
        feynman_graphon(2049 * ForestSum.of(ladder(2)), F(1, 2))
    assert "4098 cells" in str(exc.value)
    monkeypatch.setattr("dsegraphon.graphon._FEYNMAN_CELL_CAP", 4)
    assert len(feynman_graphon(2 * ForestSum.of(ladder(2)), F(1, 2)).measures) == 4
    with pytest.raises(SizeError):
        feynman_graphon(2 * ForestSum.of(ladder(2)) + ForestSum.of(leaf("g")), F(1, 2))


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
    assert cut_norm(constant_graphon(F(0))) == 0
    for k in range(1, 5):
        for c in (F(1, 3), F(1), F(2, 7)):
            w = constant_graphon(c, k=k)
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
    # mixed signs on unequal measures: the Gray-code extrema run on the
    # integer-scaled mass matrix, the oracle on Fractions
    cases += [direction(random_measures(rng, k), sparse_values(rng, k, lo=-8))
              for k in (2, 3, 4, 5, 5, 6) for _ in range(3)]
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
        assert 0 <= exact <= max(abs(v) for row in graphon_values(w) for v in row) \
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
    vals = graphon_values(w)
    mass = sum(w.measures[i] * w.measures[j] * vals[i][j]
               for i in range(w.k) for j in range(w.k))
    assert cut_norm(w, "exact") == mass == w.total_mass()


def test_cut_norm_size_guard():
    w = constant_graphon(F(1, 2), k=21)
    # nonnegative: the closed form |total mass| holds at any size
    assert cut_norm(w, "exact") == F(1, 2)
    assert cut_norm(w, "heuristic", seed=0, restarts=2) == F(1, 2)
    signed = direction([F(1, 21)] * 21,
                       [[(-1) ** (i + j) for j in range(21)] for i in range(21)])
    with pytest.raises(SizeError):
        cut_norm(signed, "exact")
    with pytest.raises(ValueError):
        cut_norm(constant_graphon(F(1, 2)), "fancy")


# -- refinement and cut distance ---------------------------------------------------

def test_common_refinement_alignment():
    w = StepGraphon([F(1, 3), F(2, 3)], [[F(1), F(0)], [F(0), F(1, 2)]])
    u = constant_graphon(F(1, 2), k=2)
    wr, ur = common_refinement(w, u)
    assert wr.k == ur.k == 6
    assert wr.measures == (F(1, 6),) * 6
    assert wr.total_mass() == w.total_mass()
    assert ur.is_constant()


def test_cut_distance_anchor_values():
    w = graphon_from_graph(complete_graph(3))
    assert cut_distance(w, w) == 0
    assert cut_distance(constant_graphon(F(0)),
                        constant_graphon(F(1))) == 1
    # distance to the constant with the same mass
    assert cut_distance(graphon_from_graph(complete_graph(2)),
                        constant_graphon(F(1, 2))) == F(1, 8)


def test_cut_distance_vanishes_on_relabelings():
    star = graphon_from_graph(SimpleGraph(4, [(0, 1), (0, 2), (0, 3)]))
    for perm in ([1, 0, 2, 3], [3, 2, 1, 0], [1, 2, 3, 0]):
        moved = permute(star, perm)
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


def test_exact_cut_distance_builds_one_matrix_per_block_sequence(monkeypatch):
    # the minimum over all k! relabelings, and the distinct block
    # sequences they give, against the multiset enumeration: a's blocks
    # of 1/2 and b's 1/6, 1/3, 1/2 make 6 equal cells, with C(6,3) = 20
    # distinct block sequences of a; 7 cells give C(7,3) = 35 and 8 cells
    # C(8,4) = 70
    built = []

    def counting(*args, **kwargs):
        built.append(1)
        return _difference_matrix(*args, **kwargs)

    for mu_a, mu_b in (((F(1, 2), F(1, 2)), (F(1, 6), F(1, 3), F(1, 2))),
                       ((F(3, 7), F(4, 7)), (F(1, 7), F(4, 7), F(2, 7))),
                       ((F(1, 2), F(1, 2)), (F(1, 8), F(3, 8), F(1, 2)))):
        rng = random.Random(0)
        a = StepGraphon(mu_a, graphon_values(random_graphon(rng, 2, equal=True)))
        b = StepGraphon(mu_b, graphon_values(random_graphon(rng, 3)))
        wr, ur = common_refinement(a, b)
        k = wr.k
        blocks = _cell_blocks(a, k)
        mats = {}
        keys = set()
        for perm in itertools.permutations(range(k)):
            keys.add(tuple(map(blocks.__getitem__, perm)))
            mat, scale = _difference_matrix(wr, ur, perm)
            mats[tuple(map(tuple, mat))] = scale
        assert list(_block_sequences(blocks)) == sorted(keys - {tuple(blocks)})
        want = min(_cut_norm_exact_matrix([list(r) for r in m], s)
                   for m, s in mats.items())
        assert want > abs(a.total_mass() - b.total_mass())  # no early exit
        built.clear()
        with monkeypatch.context() as mp:
            mp.setattr("dsegraphon.graphon._difference_matrix", counting)
            assert cut_distance(a, b, "exact") == want
        assert len(built) == len(keys) == math.comb(k, blocks.count(0))


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


def test_exact_cut_distance_refuses_what_it_cannot_certify():
    # W-random graphs against their constant: the identity's difference
    # has one support component of n cells, too large to evaluate
    # exactly, so exact mode refuses where it used to return the
    # certified rectangle, a lower bound only; heuristic mode still does
    half = constant_graphon(F(1, 2))
    for n, rectangle in ((30, F(31, 600)), (100, F(151, 5000))):
        g = graphon_from_graph(sample_random_graph(n, half, seed=7))
        with pytest.raises(SizeError):
            cut_distance(g, half, "exact")
        assert cut_distance(g, half, "heuristic") == rectangle


def test_exact_cut_distance_certifies_the_identity_at_any_cell_count():
    # 4096 equal cells, far beyond enumeration: W >= U everywhere, so the
    # identity attains the mass gap, the lower bound on every alignment;
    # it is evaluated on the 3-cell overlay, where its norm is the same
    w = StepGraphon((F(1, 4096), F(4095, 4096)), [[F(1), F(1, 2)], [F(1, 2), F(1, 2)]])
    u = StepGraphon((F(1, 2), F(1, 2)), [[F(1, 2), F(1, 4)], [F(1, 4), F(1, 2)]])
    assert cut_distance(w, u, "exact") == w.total_mass() - u.total_mass()
    assert cut_distance(u, w, "exact") == w.total_mass() - u.total_mass()


def _brute_force_distance(w: StepGraphon, u: StepGraphon, cells: int) -> F:
    """min over all cells! relabelings of the equal cells of the largest
    |sum over S x T| of the difference, with the best T for each S."""
    den = math.lcm(w.den, u.den)
    wn = [[n * (den // w.den) for n in row] for row in w.nums]
    un = [[n * (den // u.den) for n in row] for row in u.nums]
    blocks_w = [i for i, m in enumerate(w.measures) for _ in range(int(m * cells))]
    blocks_u = [i for i, m in enumerate(u.measures) for _ in range(int(m * cells))]
    best = {}
    for perm in itertools.permutations(range(cells)):
        seq = tuple(blocks_w[p] for p in perm)  # all the difference depends on
        if seq in best:
            continue
        diff = [[wn[a][b] - un[x][y] for b, y in zip(seq, blocks_u)]
                for a, x in zip(seq, blocks_u)]
        norm = 0
        for sbits in range(1 << cells):
            cols = [sum(diff[i][j] for i in range(cells) if sbits >> i & 1)
                    for j in range(cells)]
            norm = max(norm, sum(c for c in cols if c > 0), -sum(c for c in cols if c < 0))
        best[seq] = norm
    return F(min(best.values()), den * cells * cells)


def test_exact_cut_distance_is_the_minimum_over_cell_permutations(monkeypatch):
    """Exact values on at most 7 equal cells, from the identity
    certificate and from block-sequence enumeration alike, against a
    brute-force minimum over every permutation of the cells."""
    import dsegraphon.graphon as graphon_mod
    enumerated = []
    sequences = graphon_mod._block_sequences

    def spy(blocks):
        enumerated.append(1)
        return sequences(blocks)

    monkeypatch.setattr(graphon_mod, "_block_sequences", spy)
    rng = random.Random(2024)
    paths = {"certificate": 0, "enumeration": 0}
    for trial in range(48):
        cells = 2 + trial % 6
        parts = []
        for _ in range(2):
            cuts = sorted(rng.sample(range(1, cells), rng.randint(1, min(3, cells - 1))))
            bounds = [0, *cuts, cells]
            parts.append([F(b - a, cells) for a, b in zip(bounds, bounds[1:])])
        kind = trial % 8
        if kind < 6:
            w, u = (StepGraphon(mu, graphon_values(random_graphon(rng, len(mu)))) for mu in parts)
        elif kind == 6:
            w = StepGraphon(parts[0], sparse_values(rng, len(parts[0])))
            u = constant_graphon(F(rng.randint(0, 8), 8))
        else:  # below w everywhere: the identity attains the mass gap
            w = StepGraphon(parts[0], sparse_values(rng, len(parts[0])))
            scale = sparse_values(rng, w.k)
            u = StepGraphon(parts[0], [[v * x for v, x in zip(row, xs)]
                                       for row, xs in zip(graphon_values(w), scale)])
        enumerated.clear()
        got = cut_distance(w, u, "exact")
        paths["enumeration" if enumerated else "certificate"] += 1
        assert got == _brute_force_distance(w, u, cells), trial
    assert min(paths.values()) >= 10, paths


def test_exact_cut_distance_imports_no_numpy():
    """Certificate, enumeration, overlay certificate and both refusals run
    on integers only: numpy stays out of a fresh interpreter."""
    script = (
        "import sys\n"
        "from fractions import Fraction as F\n"
        "from dsegraphon.graphon import (RefinementError, SizeError, StepGraphon,\n"
        "    cut_distance, graphon_from_graph)\n"
        "from graph_oracles import complete_graph, constant_graphon, path_graph\n"
        "half = constant_graphon(F(1, 2))\n"
        "u = StepGraphon((F(1, 2), F(1, 2)), [[F(3, 4), F(1, 4)], [F(1, 4), F(1, 2)]])\n"
        "assert cut_distance(graphon_from_graph(complete_graph(2)), half) == F(1, 8)\n"
        "assert cut_distance(graphon_from_graph(path_graph(3)), u) > 0\n"
        "odd = StepGraphon((F(1, 4099), F(4098, 4099)), [[F(1), F(0)], [F(0), F(0)]])\n"
        "assert cut_distance(odd, u) == F(117612591, 268828816)\n"
        "for w, v, err in ((graphon_from_graph(path_graph(5)), u, SizeError),\n"
        "                  (graphon_from_graph(complete_graph(20)), half, SizeError),\n"
        "                  (StepGraphon((F(1, 4099), F(4098, 4099)),\n"
        "                               [[F(0), F(1)], [F(1), F(0)]]),\n"
        "                   StepGraphon((F(1, 2), F(1, 2)),\n"
        "                               [[F(1), F(0)], [F(0), F(0)]]), RefinementError)):\n"
        "    try:\n"
        "        cut_distance(w, v, 'exact')\n"
        "    except err:\n"
        "        pass\n"
        "    else:\n"
        "        sys.exit('no refusal')\n"
        "assert 'numpy' not in sys.modules, 'numpy imported by exact cut_distance'\n")
    src = os.path.dirname(os.path.dirname(dsegraphon.__file__))
    here = os.path.dirname(os.path.abspath(__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, here, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr + proc.stdout


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
        assert _cut_norm_exact_matrix(*_difference_matrix(wo, uo)) == \
            _cut_norm_exact_matrix(*_difference_matrix(wr, ur))


# -- homomorphism densities -----------------------------------------------------------

def test_density_anchor_values():
    wk2 = graphon_from_graph(complete_graph(2))
    assert hom_density(complete_graph(2), wk2) == F(1, 2)
    assert hom_density(complete_graph(3), wk2) == 0
    assert hom_density(path_graph(3), wk2) == F(1, 4)
    zero = constant_graphon(F(0))
    one = constant_graphon(F(1))
    for h in (complete_graph(2), path_graph(3), complete_graph(4)):
        assert hom_density(h, zero) == 0
        assert hom_density(h, one) == 1
    assert hom_density(SimpleGraph(1, []), zero) == 1
    # t(H, const c) = c^{|E(H)|}
    c = constant_graphon(F(1, 3))
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
            # the integer map sums behind the densities and the Gateaux
            # derivative, against the Fraction map sums checked above
            wg, dg = StepGraphon(mu, w), direction(mu, signed)
            assert hom_density(h, wg) == \
                _weighted_map_sum(h.n, [(a, b, w) for (a, b) in h.edges], k, mu)
            assert gateaux_density_derivative(h, wg, dg) == sum(
                (_weighted_map_sum(h.n, [(a, b, signed if i == e else w)
                                         for i, (a, b) in enumerate(h.edges)], k, mu)
                 for e in range(h.m)), F(0))


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


def test_equal_codes_iff_isomorphic_beyond_eight_vertices(monkeypatch):
    """Codes of 9 to 16 vertices, where an exhaustive search over n!
    orders cannot finish: equal exactly when networkx finds an
    isomorphism, on regular graphs with equal degree sequences and on
    relabelled random graphs.  The search's lower bound keeps it within
    30 000 nodes (calls of ``_try_order``): these codes take 13 933, and
    without the bound the test ran for 223 s."""
    from dsegraphon import graphpoly
    nodes = [0]
    search = graphpoly._try_order

    def spy(cell, near, loops):
        nodes[0] += 1
        assert nodes[0] <= 30_000, "canonical search beyond 30 000 nodes"
        search(cell, near, loops)

    monkeypatch.setattr(graphpoly, "_try_order", spy)
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
    zero = constant_graphon(F(0))
    fp = density_fingerprint(zero, level=3)
    vals = dict(fp.densities)
    k1 = SimpleGraph(1, []).canonical_code()
    assert vals[k1] == 1
    assert all(v == 0 for code, v in vals.items() if code != k1)
    fp3 = density_fingerprint(graphon_from_graph(complete_graph(3)), level=3)
    d = dict(fp3.densities)
    assert d[complete_graph(2).canonical_code()] == F(2, 3)
    assert d[complete_graph(3).canonical_code()] == F(6, 27)


def test_fingerprint_relabeling_invariance():
    star = graphon_from_graph(SimpleGraph(4, [(0, 1), (0, 2), (0, 3)]))
    moved = permute(star, [2, 0, 3, 1])
    a = density_fingerprint(star, level=3)
    b = density_fingerprint(moved, level=3)
    assert a.densities == b.densities


def test_fingerprint_separation_depth():
    # the two-block checkerboard and the constant 1/2 share all densities
    # of patterns up to two edges but differ on triangles
    wk2 = graphon_from_graph(complete_graph(2))
    half = constant_graphon(F(1, 2))
    low_a = density_fingerprint(wk2, level=2)
    low_b = density_fingerprint(half, level=2)
    assert low_a.densities == low_b.densities
    hi_a = density_fingerprint(wk2, level=3)
    hi_b = density_fingerprint(half, level=3)
    assert hi_a.densities != hi_b.densities


# -- Gateaux derivatives -----------------------------------------------------------

def test_gateaux_anchor_values():
    w = constant_graphon(F(1, 2), k=2)
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
    w = constant_graphon(F(1, 2))
    d = direction([F(1)], [[1]])
    assert graphon_values(perturb(w, d, F(1, 4)))[0][0] == F(3, 4)
    with pytest.raises(ValueError):
        perturb(w, d, F(3, 4))  # leaves [0,1]


def _value_at(w: StepGraphon, x, y):
    bounds = w.boundaries()
    i, j = (bisect.bisect_right(bounds, t) - 1 for t in (x, y))
    return F(w.nums[i][j], w.den)


def test_perturb_aligns_mismatched_partitions_on_the_overlay():
    rng = random.Random(21)
    # the first pair has 8198 equal cells and a 3-cell overlay
    pairs = [(StepGraphon((F(1, 4099), F(4098, 4099)), [[F(1, 2), F(1, 4)], [F(1, 4), F(0)]]),
              direction((F(1, 2), F(1, 2)), [[1, 1], [1, 0]]))]

    def symmetric(mu, lo, hi, den):
        v = [[F(rng.randint(lo, hi), den) for _ in mu] for _ in mu]
        return [[v[min(i, j)][max(i, j)] for j in range(len(mu))] for i in range(len(mu))]

    while len(pairs) < 12:  # values in [1/4, 3/4] stay in [0,1] under eps*D
        mu = random_measures(rng, rng.choice([2, 3]))
        w = StepGraphon(mu, symmetric(mu, 2, 6, 8))
        mu = random_measures(rng, rng.choice([2, 3]))
        d = direction(mu, symmetric(mu, -2, 2, 1))
        if d.measures != w.measures and math.lcm(*(
                b.denominator for b in w.boundaries() + d.boundaries())) <= 24:
            pairs.append((w, d))
    eps = F(1, 16)
    for n, (w, d) in enumerate(pairs):
        got = perturb(w, d, eps)
        assert got.k <= w.k + d.k - 1
        cuts = got.boundaries()
        for lo, hi in zip(cuts, cuts[1:]):
            for lo2, hi2 in zip(cuts, cuts[1:]):
                x, y = (lo + hi) / 2, (lo2 + hi2) / 2
                assert _value_at(got, x, y) == _value_at(w, x, y) + eps * _value_at(d, x, y)
        if n:  # the equal-cell construction, on the common refinement
            wr, dr = common_refinement(w, d)
            equal = perturb(wr, direction(dr.measures, graphon_values(dr)), eps)
            for h in (complete_graph(2), path_graph(3), complete_graph(3)):
                assert hom_density(h, got) == hom_density(h, equal)


def test_gateaux_aligns_mismatched_partitions():
    w = StepGraphon([F(1, 2), F(1, 2)], [[F(1, 2), F(1, 4)],
                                         [F(1, 4), F(1, 2)]])
    d = direction([F(1, 3), F(2, 3)], [[1, 0], [0, 1]])
    got = gateaux_density_derivative(complete_graph(2), w, d)
    # refine by hand to sixths and apply the one-edge formula
    wv, dv = graphon_values(w), graphon_values(d)
    wr = StepGraphon((F(1, 6),) * 6,
                     [[wv[i // 3][j // 3] for j in range(6)] for i in range(6)])
    dr = direction((F(1, 6),) * 6,
                   [[dv[min(i // 2, 1)][min(j // 2, 1)] for j in range(6)]
                    for i in range(6)])
    want = sum(v * F(1, 36) for row in graphon_values(dr) for v in row)
    assert got == want
    assert gateaux_density_derivative(complete_graph(2), wr, dr) == want


# -- sampling ---------------------------------------------------------------------------

def test_sampling_determinism_and_extremes():
    w = constant_graphon(F(1, 2))
    a = sample_random_graph(30, w, seed=5)
    b = sample_random_graph(30, w, seed=5)
    assert a == b
    c = sample_random_graph(30, w, seed=6)
    assert c != a
    full = sample_random_graph(12, constant_graphon(F(1)), seed=0)
    assert full == complete_graph(12)
    empty = sample_random_graph(12, constant_graphon(F(0)), seed=0)
    assert empty.m == 0
    with pytest.raises(ValueError):
        sample_random_graph(0, w)


def test_sampled_graph_equals_validated_construction():
    # sample_random_graph skips SimpleGraph's checks; the graph it builds
    # must be the one the validating constructor builds from its edges
    blocks = [constant_graphon(F(1, 2)),
              StepGraphon([F(1, 3), F(2, 3)], [[F(1, 5), F(7, 8)],
                                               [F(7, 8), F(0)]]),
              StepGraphon([F(1, 4), F(1, 4), F(1, 2)],
                          [[F(1), F(1, 3), F(0)], [F(1, 3), F(1, 2), F(2, 3)],
                           [F(0), F(2, 3), F(1, 9)]]),
              constant_graphon(F(0)), constant_graphon(F(1), k=2),
              feynman_graphon(ForestSum.of(leaf("g")) + 2 * ForestSum.of(ladder(2)),
                              F(1, 2))]
    for w in blocks:
        for n, seed in ((1, 0), (2, 3), (5, 1), (17, 11), (60, 4)):
            g = sample_random_graph(n, w, seed=seed)
            ref = SimpleGraph(n, list(g.edges))
            assert type(g) is SimpleGraph
            assert g == ref and hash(g) == hash(ref)
            assert g.edges == ref.edges and g.evars == ref.evars and g.m == ref.m


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
    thresholds = [[int(v * scale) for v in row] for row in graphon_values(w)]
    coins = iter(rng.integers(0, scale, size=n * (n - 1) // 2,
                              dtype=np.uint64).tolist())
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if next(coins) < thresholds[types[i]][types[j]]]


def test_sampling_matches_pair_loop():
    rng = random.Random(7)
    halves = (F(1, 2), F(1, 2))
    graphons = [constant_graphon(c, k=k) for c in (F(0), F(1), F(1, 2), F(1, 3))
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
    w = constant_graphon(F(1, 2))
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
    edges = set(g.edges)
    comp_edges = set()
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if (i, j) not in edges:
                comp_edges.add((i, j))
    touched = {v for e in comp_edges for v in e}
    for (i, j) in itertools.combinations(sorted(touched), 2):
        assert (i, j) not in edges


def test_sampling_consistency_median_trend():
    w = constant_graphon(F(1, 2))
    medians = []
    for n in (50, 200, 800):
        ds = []
        for trial in range(20):
            g = sample_random_graph(n, w, seed=n * 100 + trial)
            ds.append(cut_distance(graphon_from_graph(g), w, "heuristic"))
        medians.append(statistics.median(ds))
    assert medians[0] > medians[1] > medians[2]


# -- solution traces ---------------------------------------------------------------------

def test_convergence_trace_fixture():
    sol = solve(DSESpec((Cocycle("g", F(1)),), order=4, coupling=F(1, 2)))
    assert convergence_trace(sol, 1) == []
    tr = convergence_trace(sol, 3, "heuristic", seed=3)
    assert tr == [F(1, 25), F(53, 1600)]
    assert all(d > 0 for d in tr)
    assert tr[0] > tr[1]


def test_convergence_trace_grows_with_coupling():
    lo = solve(DSESpec((Cocycle("g", F(1)),), order=3, coupling=F(1, 2)))
    hi = solve(DSESpec((Cocycle("g", F(1)),), order=3, coupling=F(3, 4)))
    tl = convergence_trace(lo, 3, "heuristic", seed=3)
    th = convergence_trace(hi, 3, "heuristic", seed=3)
    assert all(a < b for a, b in zip(tl, th))


def test_convergence_trace_range_checks():
    sol = solve(DSESpec((Cocycle("g", F(1)),), order=3))
    with pytest.raises(ValueError):
        convergence_trace(sol, 0)
    with pytest.raises(ValueError):
        convergence_trace(sol, 4)


# -- the float path of the heuristics ------------------------------------------------------

def test_heuristic_floats_are_rounded_once_beyond_two_to_the_53(monkeypatch):
    """Entries over 3^40 have numerators beyond 2^53 over the common
    denominator, where float(n) / den would round twice.  The search must
    see the correctly rounded floats of the Fraction entries, and its
    results are pinned."""
    import dsegraphon.graphon as graphon_mod
    seen = []
    search = graphon_mod._heuristic_pair

    def spy(mf, rng, restarts):
        seen.append(mf.copy())
        return search(mf, rng, restarts)

    monkeypatch.setattr(graphon_mod, "_heuristic_pair", spy)
    big = 3 ** 40
    d = direction([F(1, 6), F(1, 3), F(1, 4), F(1, 4)],
                  [[F((-1) ** (i + j) * (big // 2 + 7 * i * j + i + j + 1), big)
                    for j in range(4)] for i in range(4)])
    assert max(abs(n) for row in d.nums for n in row) > 2 ** 53
    assert cut_norm(d, "heuristic", seed=3, restarts=4) == \
        F(148931401873447378507, 875351913052098873672)
    vals = graphon_values(d)
    mass = [[float(d.measures[i] * d.measures[j] * vals[i][j]) for j in range(4)]
            for i in range(4)]
    assert seen[0].tolist() == mass

    w = StepGraphon([F(1, 5), F(3, 10), F(1, 2)],
                    [[F(big - 1, big), F(2, big), F(big // 3 + 5, big)],
                     [F(2, big), F(big // 2 - 4, big), F(1, big)],
                     [F(big // 3 + 5, big), F(1, big), F(big // 7, big)]])
    u = StepGraphon([F(1, 2), F(1, 2)],
                    [[F(big // 2 + 3, big), F(1, big)],
                     [F(1, big), F(big - 11, big)]])
    seen.clear()
    assert cut_distance(w, u, "heuristic", seed=5, restarts=4) == \
        F(114050480734962617671, 607883272952846440050)
    assert len(seen) == 50  # the identity, 4 restarts, 45 swaps
    # the first search scores the identity alignment on the 10 equal cells
    wr, ur = common_refinement(w, u)
    cell_sq = float(F(1, 100))
    assert seen[0].tolist() == [[(float(x) - float(y)) * cell_sq
                                 for x, y in zip(wrow, urow)]
                                for wrow, urow in zip(graphon_values(wr), graphon_values(ur))]
    far = StepGraphon([F(1, 67), F(66, 67)],
                      [[F(big - 2, big), F(big // 4 + 1, big)],
                       [F(big // 4 + 1, big), F(big // 11, big)]])
    # 134 equal cells: certified rectangles of the aligned search
    assert cut_distance(far, u, "heuristic", seed=2, restarts=2) == \
        F(20333695480272713410165, 72767680327608737850252)
