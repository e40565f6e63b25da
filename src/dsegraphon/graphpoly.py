"""Tutte polynomials and Kirchhoff-Symanzik polynomials of multigraphs.

Multigraphs allow parallel edges and self-loops.  Each edge carries a
stable variable index so that deletion and contraction keep the naming
of Symanzik variables intact.

Cycles come from one spanning-forest pass, ``_cycle_space``: the number
of roots and one fundamental cycle per edge left out of the forest.  A
bridge is an edge that is not a loop and lies on none of these cycles.

The Tutte polynomial is computed by deletion-contraction with the
highest-index ordinary edge on a cycle pivoted first, splitting into
connected components, and memoizing minors under a canonical key; with
no such edge it is x^(bridges) y^(loops).  An independent rank-nullity
sum over all edge subsets is provided as an oracle.  The key is exact:
two graphs get the same key exactly when they are isomorphic.  It is
the least sorted edge code over all vertex orders that list the
colour-refinement cells in colour order, found by a depth-first search
that places one position at a time and drops a branch as soon as a
lower bound on its code exceeds the best code found (twins and
automorphisms found at tied leaves prune it further).  The
corpus generator keys candidates the same way, so its order and its
representatives are fixed by the key.

The same search started from one cell holding every vertex gives
``least_edge_code``, the least sorted edge code over all vertex orders;
``graphon.SimpleGraph.canonical_code`` prints it.  The two starting
partitions give different codes (the path on three vertices reads
0-2,1-2 from its refined cells and 0-1,0-2 from one cell), so each
caller keeps its own.

The first Kirchhoff-Symanzik polynomial is the spanning-tree sum
Psi(w) = sum_T prod_{e not in T} w_e, homogeneous of degree equal to the
loop number.  It factors over components (spanning forests) and equals
the determinant of the cycle-basis matrix M with entries
M_kr = sum_i w_i eta_ik eta_ir, for any choice of spanning tree
(Bogner-Weinzierl, arXiv:1002.3458): the Gram matrix of the pass's
cycles under the weights.  The determinants here (cycle basis and
matrix-tree cofactor) are taken over the integers by fraction-free
elimination, the cycle basis after scaling the weights by the lcm of
their denominators.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .trees import SparseSum, Tree, _accumulate, _as_coeff, _bareiss_det, _is_int

TUTTE_EDGE_LIMIT = 24
RANK_NULLITY_EDGE_LIMIT = 20


class DisconnectedNotice(UserWarning):
    """Emitted when a per-component product stands in for a connected input."""


# -- multivariate polynomials -------------------------------------------------

class MultiPoly(SparseSum):
    """Sparse multivariate polynomial with exact rational coefficients.

    Terms are keyed by sorted tuples of (variable, exponent) pairs; the
    empty key is the constant term, and bare rationals are constants.
    """

    __slots__ = ()
    _UNIT = ()
    _SCALARS = True

    @staticmethod
    def _check_key(mono):
        mono = tuple(sorted((v, e) for v, e in mono if e))
        if any(e < 0 for _, e in mono):
            raise ValueError("exponents must be nonnegative")
        return mono

    @staticmethod
    def _key_mul(m1, m2):
        exps = dict(m1)
        for v, e in m2:
            exps[v] = exps.get(v, 0) + e
        return tuple(sorted(exps.items()))

    @staticmethod
    def const(c) -> "MultiPoly":
        return MultiPoly({(): c})

    @staticmethod
    def var(name: str, exp: int = 1, coeff=1) -> "MultiPoly":
        return MultiPoly({((name, exp),): coeff})

    def coeff(self, mono: dict[str, int]) -> Fraction:
        key = tuple(sorted((v, e) for v, e in mono.items() if e))
        return self.terms.get(key, Fraction(0))

    def eval(self, values: dict[str, Fraction]) -> Fraction:
        """Exact value at ``values``.  The values are put over their least
        common denominator D; the monomials of each total degree d are
        summed as integers S_d, and the value is sum_d S_d / D**d."""
        num: dict[str, Fraction] = {}
        for mono in self.terms:
            for v, _ in mono:
                if v not in num:
                    if v not in values:
                        raise ValueError(f"no value supplied for variable {v!r}")
                    num[v] = _as_coeff(values[v])
        scale = math.lcm(*(q.denominator for q in num.values()))
        ints = {v: q.numerator * (scale // q.denominator) for v, q in num.items()}
        sums: dict[int, int] = {}
        for mono, c in self.terms.items():
            d = 0
            for v, e in mono:
                c *= ints[v] ** e
                d += e
            sums[d] = sums.get(d, 0) + c
        top = max(sums, default=0)
        return Fraction(sum(s * scale ** (top - d) for d, s in sums.items()),
                        scale ** top)

    def substitute_zero(self, name: str) -> "MultiPoly":
        """Drop every term containing ``name``."""
        return MultiPoly._make({m: c for m, c in self.terms.items()
                                if all(v != name for v, _ in m)})

    def partial(self, name: str) -> "MultiPoly":
        out: dict[tuple[tuple[str, int], ...], Fraction] = {}
        for mono, c in self.terms.items():
            exps = dict(mono)
            e = exps.get(name, 0)
            if not e:
                continue
            exps[name] = e - 1
            key = tuple(sorted((v, k) for v, k in exps.items() if k))
            _accumulate(out, ((key, c * e),))
        return MultiPoly._make(out)

    def variables(self) -> set[str]:
        return {v for mono in self.terms for v, _ in mono}

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degs = {sum(e for _, e in mono) for mono in self.terms}
        if degree is None:
            return len(degs) <= 1
        return degs <= {degree}

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (sum(e for _, e in m), m)):
            c = self.terms[mono]
            if not mono:
                bits.append(f"{c}")
                continue
            vs = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)
            bits.append(vs if c == 1 else f"{c}*{vs}")
        return " + ".join(bits)


# -- multigraphs ---------------------------------------------------------------

class MultiGraph:
    """Multigraph on vertices 0..n-1 with loops and parallel edges.

    ``evars`` are the stable Symanzik variable indices of the edges
    (1-based positions by default); minors keep them.
    """

    __slots__ = ("n", "edges", "evars")

    def __init__(self, n: int, edges, evars=None):
        if not _is_int(n) or n < 0:
            raise ValueError("vertex count must be a nonnegative integer")
        es = []
        for (u, v) in edges:
            if not (_is_int(u) and _is_int(v)):
                raise ValueError(f"edge ({u!r},{v!r}) needs integer endpoints")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            es.append((min(u, v), max(u, v)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(es))
        if evars is None:
            evars = tuple(range(1, len(es) + 1))
        else:
            evars = tuple(evars)
            if len(evars) != len(es):
                raise ValueError("evars length must match edge count")
        object.__setattr__(self, "evars", evars)

    @classmethod
    def _trusted(cls, n: int, edges: tuple, evars: tuple) -> "MultiGraph":
        """A graph from in-range edges already stored as (min, max) and
        their variables, without the checks: minors and corpus growth."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        object.__setattr__(g, "evars", evars)
        return g

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return (isinstance(other, MultiGraph) and self.n == other.n
                and self.edges == other.edges and self.evars == other.evars)

    def __hash__(self):
        return hash((self.n, self.edges, self.evars))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, edges={list(self.edges)})"

    @property
    def m(self) -> int:
        return len(self.edges)

    def delete(self, i: int) -> "MultiGraph":
        es = self.edges[:i] + self.edges[i + 1:]
        ev = self.evars[:i] + self.evars[i + 1:]
        return MultiGraph._trusted(self.n, es, ev)

    def contract(self, i: int) -> "MultiGraph":
        """Contract edge i (identify endpoints, drop the edge itself)."""
        u, v = self.edges[i]
        if u == v:
            return self.delete(i)
        relabel = {}
        nxt = 0
        for w in range(self.n):
            if w == v:
                continue
            relabel[w] = nxt
            nxt += 1
        relabel[v] = relabel[u]
        es = tuple((x, y) if x <= y else (y, x)
                   for x, y in ((relabel[a], relabel[b]) for a, b in self.edges))
        ev = self.evars
        return MultiGraph._trusted(self.n - 1, es[:i] + es[i + 1:], ev[:i] + ev[i + 1:])

    def degree_view(self) -> list[int]:
        deg = [0] * self.n
        for (u, v) in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def component_count(self, edge_subset=None) -> int:
        dsu = _DSU(self.n)
        edges = self.edges if edge_subset is None else [self.edges[i] for i in edge_subset]
        for (u, v) in edges:
            dsu.union(u, v)
        return dsu.count

    def is_connected(self) -> bool:
        return self.n <= 1 or self.component_count() == 1

    def components(self) -> list["MultiGraph"]:
        dsu = _DSU(self.n)
        for (u, v) in self.edges:
            dsu.union(u, v)
        groups: dict[int, list[int]] = {}
        for w in range(self.n):
            groups.setdefault(dsu.find(w), []).append(w)
        out = []
        for verts in groups.values():
            index = {w: i for i, w in enumerate(verts)}
            vset = set(verts)
            es = []
            ev = []
            for j, (u, v) in enumerate(self.edges):
                if u in vset:
                    es.append((index[u], index[v]))
                    ev.append(self.evars[j])
            out.append(MultiGraph._trusted(len(verts), tuple(es), tuple(ev)))
        return out

    def is_bridge(self, i: int) -> bool:
        """Not a loop and on no cycle."""
        u, v = self.edges[i]
        return u != v and all(i not in c for c in _cycle_space(self, 0)[1])

    def canonical_key(self):
        """Exact isomorphism certificate: equal exactly for isomorphic graphs."""
        return _canonical_key(self)


class _DSU:
    __slots__ = ("parent", "count")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.count = n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        self.count -= 1
        return True


def _cycle_space(g: MultiGraph, shift: int) -> tuple[int, list[dict[int, int]]]:
    """(number of roots, fundamental cycles) of a spanning forest grown in
    edge-scan order starting at position ``shift``, from vertex 0 and then
    from each vertex not yet reached.

    Each vertex keeps its signed root path (edge -> +1 where the path runs
    from the lower to the higher endpoint, -1 against it).  Each edge left
    out of the forest gives the cycle edge + path[u] - path[v]: the shared
    prefix cancels, so every entry is +-1, and a loop gives a cycle of one
    edge.  The cycles are a basis of the cycle space, so their supports
    cover exactly the edges that lie on some cycle.
    """
    order = list(range(shift, g.m)) + list(range(shift))
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for j in order:
        u, v = g.edges[j]
        if u != v:
            adj[u].append(j)
            adj[v].append(j)
    path: list[dict[int, int] | None] = [None] * g.n
    in_tree = [False] * g.m
    roots = 0
    for r in range(g.n):
        if path[r] is not None:
            continue
        roots += 1
        path[r] = {}
        stack = [r]
        while stack:
            x = stack.pop()
            for j in adj[x]:
                u, v = g.edges[j]
                y = v if x == u else u
                if path[y] is None:
                    path[y] = {**path[x], j: 1 if x == u else -1}
                    in_tree[j] = True
                    stack.append(y)
    cycles = []
    for j in order:
        if not in_tree[j]:
            pu, pv = (path[x] for x in g.edges[j])
            cyc = {e: s for e, s in pu.items() if e not in pv}
            cyc.update((e, -s) for e, s in pv.items() if e not in pu)
            cyc[j] = 1
            cycles.append(cyc)
    return roots, cycles


def _refine_colors(n: int, loops: list[int], adj: list[dict[int, int]]) -> list[int]:
    """Colour refinement from (loops, degree): split each colour by the
    multiset of (neighbour colour, multiplicity) until the number of
    colours stops growing.  A colour is the rank of its signature, and a
    signature starts with the previous colour, so cells keep their order."""
    sig = [(loops[w], sum(adj[w].values())) for w in range(n)]
    ranking = {s: i for i, s in enumerate(sorted(set(sig)))}
    colors = [ranking[s] for s in sig]
    count = len(ranking)
    while count < n:
        sig = [(colors[w], tuple(sorted([(colors[u], k) for u, k in adj[w].items()])))
               for w in range(n)]
        ranking = {s: i for i, s in enumerate(sorted(set(sig)))}
        if len(ranking) == count:
            break
        colors = [ranking[s] for s in sig]
        count = len(ranking)
    return colors


def _canonical_key(g: MultiGraph):
    """(n, smallest edge code over all vertex orders that list the refined
    colour cells in colour order), an exact isomorphism certificate."""
    return (g.n, _least_code(g, refine=True))


def least_edge_code(g: MultiGraph) -> tuple:
    """The least sorted edge code over all vertex orders: the search of
    ``_canonical_key`` started from one cell holding every vertex."""
    return _least_code(g, refine=False)


def _least_code(g: MultiGraph, refine: bool) -> tuple:
    """Least edge code over the vertex orders that list the starting
    cells in order: the colour-refinement cells, or one cell."""
    n = g.n
    loops = [0] * n
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for (u, v) in g.edges:
        if u == v:
            loops[u] += 1
        else:
            a, b = adj[u], adj[v]
            a[v] = a.get(v, 0) + 1
            b[u] = b.get(u, 0) + 1
    colors = _refine_colors(n, loops, adj) if refine else [0] * n
    order = sorted(range(n), key=colors.__getitem__)
    if n and colors[order[-1]] < n - 1:
        order = _least_order(n, loops, adj, colors, order)
    return _edge_code(g, order)


def _least_order(n, loops, adj, colors, cell_order):
    """Depth-first search for a vertex order of least edge code.

    Position k may hold any vertex of the cell of ``cell_order[k]``, and
    positions are placed in increasing order.  The sorted edge code is
    read as rows: row a lists, ascending, the positions b >= a joined to
    the vertex at position a, then a sentinel n.  With positions 0..k
    placed, rows 0..k have known lengths, and the least values they can
    still take are found one row at a time: the row's unplaced neighbours
    take the least free positions open to them, heaviest first, and keep
    those blocks for the later rows.  A branch is dropped as soon as these
    least values, read after the settled prefix, exceed the best code
    found so far.

    Two symmetries are used.  Twins (vertices whose transposition is an
    automorphism) are placed in increasing id order.  A leaf that ties
    the best code gives an automorphism; a candidate that one of them,
    fixing every placed vertex, maps from a candidate already tried at
    the same node is skipped.  Neither changes the least code.
    """
    members: dict[int, list[int]] = {}
    first: dict[int, int] = {}  # first position of each cell
    for k, w in enumerate(cell_order):
        members.setdefault(colors[w], []).append(w)
        first.setdefault(colors[w], k)
    after = [-1] * n  # the twin that must be placed first
    forced = True
    for cell in members.values():
        last: list[int] = []  # latest member of each twin class so far
        for v in cell:
            for i, u in enumerate(last):
                if loops[u] == loops[v] and _without(adj[u], v) == _without(adj[v], u):
                    after[v] = u
                    last[i] = v
                    break
            else:
                last.append(v)
        forced = forced and len(last) == 1
    if forced:  # every cell is one twin class, placed in id order
        return cell_order

    pos = [-1] * n
    order: list[int] = []
    rows: list[list[int]] = []
    rem: list[int] = []  # edge ends of each row still unplaced
    prefix: list[int] = []  # the settled prefix of the code
    undo: list[tuple] = []
    best: list[int] | None = None  # None while a branch is known better
    best_order = cell_order
    autos: list[list[int]] = []
    open_row = done = 0  # first unsettled row, its entries already in prefix

    def candidates(k):
        cell = [v for v in members[colors[cell_order[k]]]
                if pos[v] < 0 and (after[v] < 0 or pos[after[v]] >= 0)]
        _try_order(cell, adj[order[open_row]] if open_row < k else None, loops)
        return cell, []

    def bound(k):
        # the least rows open_row..k any completion gives: one row at a
        # time, the unplaced neighbours take the least positions left to
        # them, heaviest first; the blocks so taken are then fixed to them
        group: dict[int, int] = {}
        slots: list[list[int]] = []
        for col, cell in members.items():
            free = [w for w in cell if pos[w] < 0]
            if free:
                lo = max(first[col], k + 1)
                for w in free:
                    group[w] = len(slots)
                slots.append(list(range(lo, lo + len(free))))
        out: list[int] = []
        for a in range(open_row, k + 1):
            if a > open_row:
                out += rows[a]
            split: dict[int, list[tuple[int, int]]] = {}
            for w, c in adj[order[a]].items():
                if pos[w] < 0:
                    split.setdefault(group[w], []).append((-c, w))
            entries: list[int] = []
            for gid, nbrs in split.items():
                nbrs.sort()
                free = slots[gid]
                i = 0
                while i < len(nbrs):
                    c = nbrs[i][0]
                    j = i
                    while j < len(nbrs) and nbrs[j][0] == c:
                        group[nbrs[j][1]] = len(slots)
                        j += 1
                    slots.append(free[i:j])
                    entries += [q for q in free[i:j] for _ in range(-c)]
                    i = j
                slots[gid] = free[i:]
            entries.sort()
            out += entries
            out.append(n)
        if k + 1 < n:
            out.append(k + 1)  # row k + 1 starts at k + 1 or later
        return out

    def moved(v, tried):
        gens = [g for g in autos if all(g[w] == w for w in order)]
        orbit = set(tried)
        stack = list(tried)
        while stack and gens:
            x = stack.pop()
            for g in gens:
                if g[x] not in orbit:
                    orbit.add(g[x])
                    stack.append(g[x])
        return v in orbit

    todo = [candidates(0)]
    while todo:
        cands, tried = todo[-1]
        if not cands:
            todo.pop()
            if undo:
                v, placed, size, open_row, done = undo.pop()
                for a, c in placed:
                    del rows[a][-c:]
                    rem[a] += c
                rows.pop()
                rem.pop()
                order.pop()
                pos[v] = -1
                del prefix[size:]
            continue
        v = cands.pop()
        if tried and autos and moved(v, tried):
            continue
        tried.append(v)
        k = len(order)
        placed = [(pos[u], c) for u, c in adj[v].items() if pos[u] >= 0]
        for a, c in placed:
            rows[a] += [k] * c
            rem[a] -= c
        rows.append([k] * loops[v])
        rem.append(sum(adj[v].values()) - sum(c for _, c in placed))
        pos[v] = k
        order.append(v)
        undo.append((v, placed, len(prefix), open_row, done))
        start = len(prefix)
        while open_row <= k:
            row = rows[open_row]
            prefix += row[done:]
            if rem[open_row]:
                done = len(row)
                break
            prefix.append(n)
            open_row += 1
            done = 0
        if best is not None:
            got = prefix[start:]
            want = best[start:len(prefix)]
            if got < want:
                best = None  # strictly better: run down to a leaf
            # best[len(prefix)] <= k is the cheap case of the bound
            elif got > want or k + 1 < n and (best[len(prefix)] <= k
                                              or bound(k) > best[len(prefix):]):
                todo.append(([], []))  # drop the branch: it unwinds at once
                continue
        if k + 1 < n:
            todo.append(candidates(k + 1))
            continue
        if best is None:
            best = prefix[:]
            best_order = order[:]
        else:  # a tie: best_order -> order is an automorphism
            g = [0] * n
            for b, o in zip(best_order, order):
                g[b] = o
            autos.append(g)
        todo.append(([], []))
    return best_order


def _try_order(cell: list[int], near: dict[int, int] | None, loops: list[int]) -> None:
    """Sort the candidates for the next position so that the one giving the
    open row (neighbours ``near``; None when the next row is the new
    vertex's own) its least next entry comes last: the search pops from the
    end.  Only the search's speed depends on this order."""
    if near is not None:
        cell.sort(key=lambda v: (near.get(v, 0), -v))
    else:
        cell.sort(key=lambda v: (loops[v], -v))


def _without(nbrs: dict[int, int], w: int) -> dict[int, int]:
    if w not in nbrs:
        return nbrs
    out = dict(nbrs)
    del out[w]
    return out


def _edge_code(g: MultiGraph, order: list[int]):
    pos = [0] * g.n
    for i, w in enumerate(order):
        pos[w] = i
    return tuple(sorted([(pos[u], pos[v]) if pos[u] <= pos[v] else (pos[v], pos[u])
                         for (u, v) in g.edges]))


# -- Tutte polynomial ----------------------------------------------------------

_TUTTE_CACHE: dict[object, MultiPoly] = {}


def tutte(g: MultiGraph) -> MultiPoly:
    """Tutte polynomial by deletion-contraction.

    Empty edge set gives 1; a bridge contributes a factor x, a loop a
    factor y, and the polynomial is multiplicative over connected
    components (and hence over disjoint unions and one-point joins).
    """
    if g.m > TUTTE_EDGE_LIMIT:
        raise ValueError(f"graph has {g.m} edges, limit is {TUTTE_EDGE_LIMIT}")
    return _tutte_rec(g)


def _tutte_rec(g: MultiGraph) -> MultiPoly:
    if not g.edges:
        return MultiPoly.const(1)
    comps = [c for c in g.components() if c.m]
    if len(comps) > 1:
        return MultiPoly.product(map(_tutte_rec, comps))
    g = comps[0]
    key = _canonical_key(g)
    got = _TUTTE_CACHE.get(key)
    if got is not None:
        return got
    on_cycle = set().union(*_cycle_space(g, 0)[1])
    pivot = max((i for i in on_cycle if g.edges[i][0] != g.edges[i][1]), default=None)
    if pivot is None:  # only loops lie on cycles; every other edge is a bridge
        loops = len(on_cycle)
        res = MultiPoly({(("x", g.m - loops), ("y", loops)): 1})
    else:
        res = _tutte_rec(g.delete(pivot)) + _tutte_rec(g.contract(pivot))
    _TUTTE_CACHE[key] = res
    return res


def tutte_rank_nullity(g: MultiGraph) -> MultiPoly:
    """Independent oracle: the rank-nullity expansion over all edge subsets.

    T(G;x,y) = sum_{A <= E} (x-1)^(r(E)-r(A)) (y-1)^(n(A)) with
    r(A) = |V| - components(A) and n(A) = |A| - r(A).
    """
    if g.m > RANK_NULLITY_EDGE_LIMIT:
        raise ValueError(f"graph has {g.m} edges, oracle limit is {RANK_NULLITY_EDGE_LIMIT}")
    r_full = g.n - g.component_count()
    # count the subsets per (rank deficit, nullity), then expand each
    # bucket once
    counts: dict[tuple[int, int], int] = {}
    for bits in range(1 << g.m):
        subset = [i for i in range(g.m) if bits >> i & 1]
        r = g.n - g.component_count(subset)
        key = (r_full - r, len(subset) - r)
        counts[key] = counts.get(key, 0) + 1
    xm1 = MultiPoly.var("x") - 1
    ym1 = MultiPoly.var("y") - 1
    return sum((xm1 ** a * ym1 ** b * n for (a, b), n in sorted(counts.items())),
               MultiPoly.zero())


def tree_to_graph(t: Tree) -> MultiGraph:
    """Underlying multigraph of a rooted tree (root gets index 0)."""
    edges = []
    counter = [0]

    def walk(node: Tree, idx: int):
        for child in node.children:
            counter[0] += 1
            cidx = counter[0]
            edges.append((idx, cidx))
            walk(child, cidx)

    walk(t, 0)
    return MultiGraph(counter[0] + 1, edges)


def tutte_of_partial_sum(sol, m: int) -> MultiPoly:
    """Tutte polynomial of the disjoint union underlying Y_m.

    The structural sum X_1 + ... + X_m must have nonnegative integer
    coefficients; each coefficient-c forest monomial stands for c copies
    of its forest.  Every edge of a forest is a bridge, so the result is
    x^E with E the total edge count: a forest of grade k with t trees has
    k - t edges, and E = sum c (k - t).  Deletion-contraction per tree is
    the test oracle.
    """
    from .dse import structural_sum
    edges = 0
    for forest, c in structural_sum(sol, m).terms.items():
        if c.denominator != 1 or c < 0:
            raise ValueError(f"coefficient {c} is not a nonnegative integer")
        edges += int(c) * (forest.grade - len(forest))
    return MultiPoly.var("x", edges)


@dataclass(frozen=True)
class SubtreeFormulaReport:
    """Diagnostic comparison of the subtree-sum formula against
    deletion-contraction on a rooted tree.

    The subtree sum runs over all subtrees s of the underlying tree
    (connected subgraphs with at least one edge, plus the single-vertex
    subtrees counted with zero edges and zero leaves) and adds
    x^|E(s)| (y+1)^(|E(s)|-|L(s)|), where L(s) counts the childless
    vertices of s under the root orientation; that reading keeps the
    exponents nonnegative.  The sum does not satisfy the bridge rule,
    so it generally disagrees with the Tutte polynomial.  The report
    carries both values and their difference.
    """

    tree: Tree
    subtree_formula: MultiPoly
    deletion_contraction: MultiPoly
    agree: bool

    @property
    def discrepancy(self) -> MultiPoly:
        return self.subtree_formula - self.deletion_contraction


def tutte_subtree_formula_diagnostic(t: Tree) -> SubtreeFormulaReport:
    """Evaluate the subtree-sum expression for T(t;x,y) and compare it
    with the deletion-contraction value.  Diagnostic only."""
    g = tree_to_graph(t)
    ypl = MultiPoly.var("y") + 1
    # single-vertex subtrees: no edges, no leaves
    total = MultiPoly.const(g.n)
    # connected edge subsets (subtrees of a tree = connected subgraphs)
    for r in range(1, len(g.edges) + 1):
        for subset in itertools.combinations(range(g.m), r):
            verts = set()
            for i in subset:
                u, v = g.edges[i]
                verts.add(u)
                verts.add(v)
            if len(verts) != r + 1:  # acyclic, so connected iff |V| = |E| + 1
                continue
            children: dict[int, int] = {}
            for i in subset:
                u, v = g.edges[i]  # stored parent-first by tree_to_graph
                children[u] = children.get(u, 0) + 1
            leaves = sum(1 for w in verts if children.get(w, 0) == 0)
            total = total + MultiPoly.var("x", r) * ypl ** (r - leaves)
    dc = tutte(g)
    return SubtreeFormulaReport(tree=t, subtree_formula=total,
                                deletion_contraction=dc, agree=total == dc)


# -- Kirchhoff-Symanzik polynomials ---------------------------------------------

def _wvar(i: int) -> str:
    return f"w{i}"


def spanning_trees(g: MultiGraph):
    """Yield spanning trees of a connected multigraph as index tuples."""
    need = g.n - 1
    if need < 0:
        return
    for subset in itertools.combinations(range(g.m), need):
        dsu = _DSU(g.n)
        ok = True
        for i in subset:
            u, v = g.edges[i]
            if u == v or not dsu.union(u, v):
                ok = False
                break
        if ok and dsu.count == 1:
            yield subset


def symanzik_psi(g: MultiGraph) -> MultiPoly:
    """First Symanzik polynomial: sum over spanning trees of the product
    of the complementary edge variables.

    Disconnected graphs are handled per component (spanning forests) and
    multiplied, with a notice.
    """
    comps = g.components()
    if len(comps) > 1:
        warnings.warn("disconnected graph: Symanzik polynomial computed per "
                      "component and multiplied", DisconnectedNotice,
                      stacklevel=2)
    out = MultiPoly.const(1)
    for comp in comps:
        terms: dict = {}
        for tree in spanning_trees(comp):
            tset = set(tree)
            exps: dict[str, int] = {}
            for j in range(comp.m):
                if j not in tset:
                    v = _wvar(comp.evars[j])
                    exps[v] = exps.get(v, 0) + 1
            _accumulate(terms, ((tuple(sorted(exps.items())), 1),))
        out = out * MultiPoly._make(terms)
    return out


def loop_number(g: MultiGraph) -> int:
    return g.m - g.n + g.component_count()


def symanzik_det(g: MultiGraph, assignment: dict[int, Fraction],
                 tree_choice: int = 0) -> Fraction:
    """Evaluate Psi as the determinant of the cycle-basis matrix.

    ``assignment`` maps edge variable indices to rational values.  The
    matrix is the weighted Gram matrix M_kr = sum_j w_j eta_kj eta_rj of
    the fundamental cycles eta_k of ``_cycle_space``; ``tree_choice``
    rotates its edge scan, changing the spanning tree and the basis but
    (provably, and tested) not the determinant.  The graph must be
    connected; the graph without vertices gives 1.
    """
    roots, eta = _cycle_space(g, tree_choice % g.m if g.m else 0)
    if roots > 1:
        raise ValueError("cycle-basis determinant needs a connected graph")
    w = [None] * g.m
    for j in range(g.m):
        var = g.evars[j]
        if var not in assignment:
            raise ValueError(f"no value assigned to edge variable w{var}")
        w[j] = _as_coeff(assignment[var])

    # scale the weights by the lcm D of their denominators: the integer
    # matrix is D times M, so det M = det / D**ell
    scale = math.lcm(*(x.denominator for x in w))
    w = [x.numerator * (scale // x.denominator) for x in w]
    ell = len(eta)
    mat = [[0] * ell for _ in range(ell)]
    for k in range(ell):
        for r in range(k, ell):
            s = 0
            for j, sk in eta[k].items():
                sr = eta[r].get(j)
                if sr:
                    s += w[j] * sk * sr
            mat[k][r] = s
            mat[r][k] = s
    return Fraction(_bareiss_det(mat), scale ** ell)


@dataclass(frozen=True)
class PsiSplitReport:
    """Deletion-contraction split of Psi at one edge.

    For an ordinary edge, psi == w_e * deleted + contracted holds with
    deleted = Psi(G-e) = dPsi/dw_e and contracted = Psi(G/e) = Psi at
    w_e = 0.  For bridges and self-loops the identity degenerates and
    ``degenerate`` names the case.
    """

    edge_index: int
    variable: str
    psi: MultiPoly
    deleted: MultiPoly
    contracted: MultiPoly
    identity_holds: bool | None
    degenerate: str | None


def psi_deletion_contraction(g: MultiGraph, i: int) -> PsiSplitReport:
    if not (0 <= i < g.m):
        raise ValueError(f"edge index {i} out of range")
    u, v = g.edges[i]
    degenerate = None
    if u == v:
        degenerate = "loop"
    elif g.is_bridge(i):
        degenerate = "bridge"
    var = _wvar(g.evars[i])
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


def spanning_tree_count(g: MultiGraph) -> int:
    """Spanning trees via the matrix-tree cofactor; 0 if disconnected."""
    if g.n == 0:
        return 0
    if not g.is_connected():
        return 0
    if g.n == 1:
        return 1
    lap = [[0] * g.n for _ in range(g.n)]
    for (u, v) in g.edges:
        if u == v:
            continue
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    return _bareiss_det([row[1:] for row in lap[1:]])


# -- corpus generation -----------------------------------------------------------

def generate_connected_multigraphs(max_edges: int) -> list[MultiGraph]:
    """All connected multigraphs with at most ``max_edges`` edges, up to
    isomorphism, grown one edge at a time from a single vertex.

    Every connected multigraph with e+1 edges has a removable edge (a
    non-cut edge, or the pendant edge of a degree-1 vertex) whose removal
    leaves a connected multigraph with e edges, so edge growth reaches
    everything.
    """
    if max_edges < 0:
        raise ValueError("edge bound must be nonnegative")
    seed = MultiGraph(1, [])
    seen = {(_canonical_key(seed)): seed}
    frontier = [seed]
    for _ in range(max_edges):
        nxt = []
        for g in frontier:
            ev = tuple(range(1, g.m + 2))
            candidates = []
            for u in range(g.n):
                for v in range(u, g.n):
                    candidates.append(MultiGraph._trusted(g.n, g.edges + ((u, v),), ev))
                candidates.append(MultiGraph._trusted(g.n + 1, g.edges + ((u, g.n),), ev))
            for h in candidates:
                key = _canonical_key(h)
                if key not in seen:
                    seen[key] = h
                    nxt.append(h)
        frontier = nxt
    ordered = sorted(seen.items(), key=lambda kg: (kg[1].m, kg[1].n, kg[0][1]))
    return [g for _, g in ordered]
