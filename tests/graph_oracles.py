"""Graph-polynomial oracles that the package does not run: the
rank-nullity sum of the Tutte polynomial over all edge subsets, and the
deletion-contraction split of the first Symanzik polynomial at one
edge.  The rank-nullity sum counts components with its own union-find,
so that a defect in the package's cannot hide from both sides.
"""

import warnings

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
