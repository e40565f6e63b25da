"""Graph oracles and helpers that the package does not run: the
rank-nullity sum of the Tutte polynomial over all edge subsets, the
deletion-contraction split of the first Symanzik polynomial at one
edge, the growth pass that keys every candidate, the fundamental cycles of
``graphpoly._cycle_space`` from whole signed root paths, the Tutte
polynomial of
a structural sum's forests, the connectivity and degree reads of a
graph, the homomorphism density t(H, G) counted on the graph itself, and
the test inputs: complete and path graphs, W-random graphs, constant
graphons, block relabelings and the Fraction view of a graphon's values.
The rank-nullity sum counts components with its own union-find, so that
a defect in the package's cannot hide from both sides.
"""

from fractions import Fraction

from dsegraphon.dse import structural_sum
from dsegraphon.graphon import SimpleGraph, StepGraphon
from dsegraphon.graphpoly import MultiGraph, MultiPoly, _core, symanzik_psi
from dsegraphon.trees import Record

RANK_NULLITY_EDGE_LIMIT = 20


def dsu_find(n: int, edges):
    """The root finder of a union-find over ``edges`` on n vertices."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return find


def tutte_rank_nullity(g: MultiGraph) -> MultiPoly:
    """The rank-nullity expansion over all edge subsets.

    T(G;x,y) = sum_{A <= E} (x-1)^(r(E)-r(A)) (y-1)^(n(A)) with
    r(A) = |V| - components(A) and n(A) = |A| - r(A).
    """
    if g.m > RANK_NULLITY_EDGE_LIMIT:
        raise ValueError(f"graph has {g.m} edges, oracle limit is {RANK_NULLITY_EDGE_LIMIT}")

    def rank(edges) -> int:
        find = dsu_find(g.n, edges)
        return g.n - len({find(w) for w in range(g.n)})

    r_full = rank(g.edges)
    # count the subsets per (rank deficit, nullity), then expand each
    # bucket once
    counts: dict[tuple[int, int], int] = {}
    for bits in range(1 << g.m):
        subset = [e for i, e in enumerate(g.edges) if bits >> i & 1]
        r = rank(subset)
        key = (r_full - r, len(subset) - r)
        counts[key] = counts.get(key, 0) + 1
    xm1 = MultiPoly.var("x") - 1
    ym1 = MultiPoly.var("y") - 1
    return sum((xm1 ** a * ym1 ** b * n for (a, b), n in sorted(counts.items())),
               MultiPoly.zero())


class PsiSplitReport(Record):
    """Deletion-contraction split of Psi at one edge.

    For an ordinary edge, psi == w_e * deleted + contracted holds with
    deleted = Psi(G-e) = dPsi/dw_e and contracted = Psi(G/e) = Psi at
    w_e = 0.  For bridges and self-loops the identity degenerates and
    ``degenerate`` names the case.
    """

    _fields = ("edge_index", "variable", "psi", "deleted", "contracted",
               "identity_holds", "degenerate")


def psi_deletion_contraction(g: MultiGraph, i: int) -> PsiSplitReport:
    if not (0 <= i < g.m):
        raise ValueError(f"edge index {i} out of range")
    u, v = g.edges[i]
    degenerate = None
    if u == v:
        degenerate = "loop"
    elif g.is_bridge(i):
        degenerate = "bridge"
    var = f"w{g.evars[i]}"
    psi = symanzik_psi(g)
    deleted = symanzik_psi(g.delete(i))
    contracted = symanzik_psi(g.contract(i))
    holds = None
    if degenerate is None:
        holds = psi == MultiPoly.var(var) * deleted + contracted
    return PsiSplitReport(edge_index=i, variable=var, psi=psi,
                          deleted=deleted, contracted=contracted,
                          identity_holds=holds, degenerate=degenerate)


def grow_unpruned(max_edges: int) -> dict:
    """``graphpoly._grow`` keying every candidate pair (u, v), u <= v <= n,
    of every class: the same keys, order, representatives and parents."""
    seed = MultiGraph(1, [])
    grown = {seed.canonical_key(): (seed, None)}
    frontier = list(grown.items())
    for _ in range(max_edges):
        nxt = []
        for parent, (g, _) in frontier:
            for u in range(g.n):
                for v in range(u, g.n + 1):
                    h = MultiGraph._trusted(g.n + (v == g.n), g.edges + ((u, v),))
                    key = h.canonical_key()
                    if key not in grown:
                        grown[key] = (h, parent)
                        nxt.append((key, grown[key]))
        frontier = nxt
    return grown


def cycle_space_by_root_paths(g: MultiGraph, shift: int) -> list[dict[int, int]]:
    """``graphpoly._cycle_space`` as each vertex's whole signed root path:
    the same spanning forest, grown in edge-scan order from position
    ``shift``, and each edge left out of it gives the cycle
    edge + path[u] - path[v], the shared prefix cancelling.  Time and
    memory grow with the sum of the depths."""
    n, edges = _core(g.n, g.edges)
    order = list(range(shift, g.m)) + list(range(shift))
    adj: list[list[int]] = [[] for _ in range(n)]
    for j in order:
        u, v = edges[j]
        if u != v:
            adj[u].append(j)
            adj[v].append(j)
    path: list = [None] * n
    in_tree = [False] * g.m
    for r in range(n):
        if path[r] is not None:
            continue
        path[r] = {}
        stack = [r]
        while stack:
            x = stack.pop()
            for j in adj[x]:
                u, v = edges[j]
                y = v if x == u else u
                if path[y] is None:
                    path[y] = {**path[x], j: 1 if x == u else -1}
                    in_tree[j] = True
                    stack.append(y)
    cycles = []
    for j in order:
        if not in_tree[j]:
            pu, pv = (path[x] for x in edges[j])
            cyc = {e: s for e, s in pu.items() if e not in pv}
            cyc.update((e, -s) for e, s in pv.items() if e not in pu)
            cyc[j] = 1
            cycles.append(cyc)
    return cycles


def tutte_of_partial_sum(sol, m: int) -> MultiPoly:
    """Tutte polynomial of the disjoint union underlying Y_m.

    The structural sum X_1 + ... + X_m must have nonnegative integer
    coefficients; each coefficient-c forest monomial stands for c copies
    of its forest.  Every edge of a forest is a bridge, so the result is
    x^E with E the total edge count: a forest of grade k with t trees has
    k - t edges, and E = sum c (k - t).
    """
    edges = 0
    for forest, c in structural_sum(sol, m).terms.items():
        if c.denominator != 1 or c < 0:
            raise ValueError(f"coefficient {c} is not a nonnegative integer")
        edges += int(c) * (forest.grade - len(forest.trees))
    return MultiPoly.var("x", edges)


def is_connected(g: MultiGraph) -> bool:
    return g.n <= 1 or g.component_count() == 1


def degree_view(g: MultiGraph) -> list[int]:
    deg = [0] * g.n
    for (u, v) in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


# -- graphs and graphons --------------------------------------------------------

def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


def constant_graphon(c, k: int = 1) -> StepGraphon:
    """The value c on k equal blocks."""
    return StepGraphon([Fraction(1, k)] * k, [[c] * k for _ in range(k)])


def graphon_values(w: StepGraphon) -> tuple:
    """The values of w as Fractions, row by row."""
    return tuple(tuple(Fraction(n, w.den) for n in row) for row in w.nums)


def permute(w: StepGraphon, perm) -> StepGraphon:
    """Relabel blocks: block i of the result is block perm[i] of w."""
    if sorted(perm) != list(range(w.k)):
        raise ValueError("not a permutation of the blocks")
    vals = graphon_values(w)
    return StepGraphon([w.measures[p] for p in perm],
                       [[vals[p][q] for q in perm] for p in perm])


def hom_density_graph(h: SimpleGraph, g: SimpleGraph) -> Fraction:
    """t(H, G) = hom(H, G) / n^{|V(H)|}, counted exactly."""
    if g.n == 0:
        raise ValueError("density into the empty graph is undefined")
    adj = [[0] * g.n for _ in range(g.n)]
    for (u, v) in g.edges:
        adj[u][v] = 1
        adj[v][u] = 1
    edges_at: list[list[int]] = [[] for _ in range(h.n)]
    for (a, b) in h.edges:
        edges_at[max(a, b)].append(min(a, b))
    count = 0
    assign = [0] * h.n

    def rec(depth: int):
        nonlocal count
        if depth == h.n:
            count += 1
            return
        for c in range(g.n):
            assign[depth] = c
            if all(adj[assign[a]][c] for a in edges_at[depth]):
                rec(depth + 1)

    rec(0)
    return Fraction(count, g.n ** h.n)


def sample_random_graph(n: int, w: StepGraphon, seed: int = 0) -> SimpleGraph:
    """W-random graph on n vertices.

    Vertex types and edge coins come from one counter-based stream keyed
    by the seed (vertex draws first, then edges in lexicographic order),
    so identical seeds give identical graphs independent of scheduling.
    Coins are compared against 64-bit dyadic approximations of the
    rational thresholds; the bias is 2^-64 per comparison.
    """
    import numpy as np
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = np.random.Generator(np.random.Philox(key=seed))
    scale = 1 << 64
    cuts = [int(b * scale) for b in w.boundaries()[1:]]
    vert_draws = rng.integers(0, scale, size=n, dtype=np.uint64,
                              endpoint=False).tolist()
    types = np.array([next(i for i, c in enumerate(cuts) if x < c or i == w.k - 1)
                      for x in vert_draws])
    # a coin is an edge when it lies below floor(v * 2^64), which is
    # x * 2^64 // den for v = x / den; for v = 1 that is 2^64, beyond
    # uint64, and every coin is an edge
    den = w.den
    below = np.array([[min(x * scale // den, scale - 1) for x in row]
                      for row in w.nums], dtype=np.uint64)
    always = np.array([[x == den for x in row] for row in w.nums])
    edge_draws = rng.integers(0, scale, size=n * (n - 1) // 2, dtype=np.uint64,
                              endpoint=False)
    # the pairs i < j in lexicographic order, as the coins were drawn and
    # as the trusted constructor needs them
    first, second = np.triu_indices(n, k=1)
    ti, tj = types[first], types[second]
    hit = np.flatnonzero((edge_draws < below[ti, tj]) | always[ti, tj])
    return SimpleGraph._trusted(n, tuple(zip(first[hit].tolist(),
                                             second[hit].tolist())))
