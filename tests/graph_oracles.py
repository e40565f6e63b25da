"""Graph oracles and helpers that the package does not run: the
rank-nullity sum of the Tutte polynomial over all edge subsets, the
deletion-contraction split of the first Symanzik polynomial at one
edge, the growth pass that keys every candidate, the Tutte polynomial of
a structural sum's forests, and the connectivity and degree reads of a
graph.  The rank-nullity sum counts components with its own union-find,
so that a defect in the package's cannot hide from both sides.
"""

import warnings

from dsegraphon.dse import structural_sum
from dsegraphon.graphpoly import DisconnectedNotice, MultiGraph, MultiPoly, symanzik_psi
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DisconnectedNotice)
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
        edges += int(c) * (forest.grade - len(forest))
    return MultiPoly.var("x", edges)


def is_connected(g: MultiGraph) -> bool:
    return g.n <= 1 or g.component_count() == 1


def degree_view(g: MultiGraph) -> list[int]:
    deg = [0] * g.n
    for (u, v) in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg
