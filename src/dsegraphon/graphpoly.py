"""Tutte polynomials and Kirchhoff-Symanzik polynomials of multigraphs.

Multigraphs allow parallel edges and self-loops.  Each edge carries a
stable variable index so that deletion and contraction keep the naming
of Symanzik variables intact.

Components come from one union-find pass, ``_groups``, which also gives
``graphon``'s support components.  Cycles come from one spanning-forest
pass, ``_cycle_space``: one fundamental cycle per edge left out of the
forest.  A bridge is an edge that is not a loop and lies on none of these
cycles.  These passes, the spanning forests and the Tutte polynomial run
on ``_core``, the vertices that meet an edge relabelled in increasing
order, and count each isolated vertex as one component: the edges keep
their indices, so the forests, cycles and polynomials are those of the
whole graph, at a cost in its edges rather than its vertex count.

The Tutte polynomial is the product over the connected components of
one ``functools.cache`` entry per isomorphism class, keyed by
``MultiGraph.canonical_key``: deletion-contraction on the representative whose
edges are the key's code, with its highest-index ordinary edge on a
cycle pivoted first; with no such edge it is x^(bridges) y^(loops).
Deleting or contracting an edge on a cycle keeps a graph connected, so
the components are split once.  The key is exact: two graphs get the
same key exactly when they are isomorphic.  It is the least sorted edge
code over all vertex orders that list the colour-refinement cells in
colour order, found by a depth-first search that places one position
at a time and drops a branch as soon as a lower bound on its code
exceeds the best code found (twins and automorphisms found at tied
leaves prune it further).  The corpus generator keys candidates the
same way, so its order and its representatives are fixed by the key.
Its growth pass keys one candidate edge per orbit of vertex pairs under
the automorphisms that the search found while keying the parent, skips a
candidate whose sorted edges or certificate (its edge code under the
vertex order sorted by refined colour, then id) match those of one met
before, since either is a relabelling, and records each class's parent,
from which ``corpus_tutte`` reads the corpus's Tutte polynomials with
one key per cycle-closing class and no minors.

The search of ``MultiGraph.canonical_key`` started from one cell holding
every vertex gives ``least_edge_code``, the least sorted edge code over
all vertex orders; ``graphon.SimpleGraph.canonical_code`` prints it.
The two starting partitions give different codes (the path on three
vertices reads 0-2,1-2 from its refined cells and 0-1,0-2 from one
cell), so each caller keeps its own.

The first Kirchhoff-Symanzik polynomial is the spanning-forest sum
Psi(w) = sum_F prod_{e not in F} w_e over the maximal spanning forests F
(n - c edges, no cycle, for c components), homogeneous of degree equal to
the loop number.  On a connected graph the forests are the spanning
trees; on any graph the sum is the product of the components' sums.  It
equals the determinant of the cycle-basis matrix M with entries
M_kr = sum_i w_i eta_ik eta_ir, for any choice of spanning forest
(Bogner-Weinzierl, arXiv:1002.3458): the Gram matrix of the pass's
cycles under the weights, block-diagonal by component.  The
determinants here (cycle basis and matrix-tree cofactor) are taken
over the integers by fraction-free elimination, the cycle basis after
scaling the weights by the lcm of their denominators.
``symanzik_det_poly`` checks the identity exactly, as polynomials: it
expands det M(w) by Cauchy-Binet over the ell-column minors of the cycle
matrix, without reading Psi or the spanning forests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .trees import Frozen, SparseSum, Tree, _accumulate, _as_coeff, _bareiss_det, \
    _is_int

TUTTE_EDGE_LIMIT = 24


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
    def var(name: str, exp: int = 1, coeff=1) -> "MultiPoly":
        return MultiPoly({((name, exp),): coeff})

    def eval(self, values: dict[str, Fraction]) -> Fraction:
        """Exact value at ``values``."""
        total = Fraction(0)
        for mono, c in self.terms.items():
            term = Fraction(c)
            for v, e in mono:
                if v not in values:
                    raise ValueError(f"no value supplied for variable {v!r}")
                term *= _as_coeff(values[v]) ** e
            total += term
        return total

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

class MultiGraph(Frozen):
    """Multigraph on vertices 0..n-1 with loops and parallel edges.

    ``evars`` are the stable Symanzik variable indices of the edges, and
    minors keep them.  An edge's variable is its 1-based position unless
    others are given; only variables that differ from 1..m are stored,
    so a graph given 1..m is the one built without variables.
    """

    __slots__ = ("n", "edges", "_evars")

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
        if evars is not None:
            evars = tuple(evars)
            if len(evars) != len(es):
                raise ValueError("evars length must match edge count")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(es))
        object.__setattr__(self, "_evars", self._stored(evars))

    @classmethod
    def _trusted(cls, n: int, edges: tuple, evars=None) -> "MultiGraph":
        """A graph from in-range edges already stored as (min, max) and
        their variables (None for 1..m), without the checks: minors,
        corpus growth and sampled graphs."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        object.__setattr__(g, "_evars", cls._stored(evars))
        return g

    @staticmethod
    def _stored(evars):
        """What is stored for the variables ``evars``: None for 1..m."""
        if evars is None or evars == tuple(range(1, len(evars) + 1)):
            return None
        return evars

    @property
    def evars(self) -> tuple:
        """The edge variables, 1..m when none are stored; a loop reads
        them once, since each read of 1..m builds the tuple."""
        ev = self._evars
        return tuple(range(1, len(self.edges) + 1)) if ev is None else ev

    def __eq__(self, other):
        return (isinstance(other, MultiGraph) and self.n == other.n
                and self.edges == other.edges and self._evars == other._evars)

    def __hash__(self):
        return hash((self.n, self.edges, self._evars))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, edges={list(self.edges)})"

    @property
    def m(self) -> int:
        return len(self.edges)

    def delete(self, i: int) -> "MultiGraph":
        ev = self.evars
        return MultiGraph._trusted(self.n, self.edges[:i] + self.edges[i + 1:],
                                   ev[:i] + ev[i + 1:])

    def contract(self, i: int) -> "MultiGraph":
        """Contract edge i (identify endpoints, drop the edge itself): v
        merges into u < v and the vertices above v move down by one, so
        the cost is in the edges, not the vertex count."""
        u, v = self.edges[i]
        if u == v:
            return self.delete(i)
        es = tuple((x, y) if x <= y else (y, x) for x, y in
                   ((a if a < v else u if a == v else a - 1,
                     b if b < v else u if b == v else b - 1) for a, b in self.edges))
        ev = self.evars
        return MultiGraph._trusted(self.n - 1, es[:i] + es[i + 1:], ev[:i] + ev[i + 1:])

    def component_count(self) -> int:
        k, edges = _core(self.n, self.edges)
        return len(_groups(k, edges)) + self.n - k

    def components(self) -> list["MultiGraph"]:
        """Connected components as plain MultiGraphs; a connected one is itself."""
        groups = _groups(self.n, self.edges)
        if len(groups) == 1 and type(self) is MultiGraph:
            return [self]
        evars = self.evars
        out = []
        for verts in groups:
            index = {w: i for i, w in enumerate(verts)}
            es = []
            ev = []
            for (u, v), var in zip(self.edges, evars):
                if u in index:
                    es.append((index[u], index[v]))
                    ev.append(var)
            out.append(MultiGraph._trusted(len(verts), tuple(es), tuple(ev)))
        return out

    def is_bridge(self, i: int) -> bool:
        """Not a loop and on no cycle."""
        u, v = self.edges[i]
        return u != v and all(i not in c for c in _cycle_space(self, 0))

    def canonical_key(self):
        """(n, smallest edge code over all vertex orders that list the
        refined colour cells in colour order), an exact isomorphism
        certificate: equal exactly for isomorphic graphs."""
        n, edges = self.n, self.edges
        return (n, _search(n, edges, _refinement(n, edges, True))[0])


def _core(n: int, edges) -> tuple[int, tuple]:
    """(k, edges relabelled): the k vertices of 0..n-1 that meet ``edges``,
    renumbered 0..k-1 in increasing order, and the edges in the same
    order on them.  Vertex order and edge indices are kept, so a pass
    over the core visits what a pass over all n vertices would, less the
    n - k isolated vertices."""
    touched = {w for e in edges for w in e}
    if len(touched) == n:
        return n, tuple(edges)
    index = {w: i for i, w in enumerate(sorted(touched))}
    return len(index), tuple((index[u], index[v]) for u, v in edges)


def _groups(n: int, edges) -> list[list[int]]:
    """The vertex sets of the connected components of the graph on n
    vertices with ``edges``, each in increasing order, listed by their
    least vertex: one union-find pass over ``edges``, with path halving."""
    parent = list(range(n))
    for (u, v) in edges:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        parent[u] = v
    groups: dict[int, list[int]] = {}
    for w in range(n):
        x = w
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        groups.setdefault(x, []).append(w)
    return list(groups.values())


def _cycle_space(g: MultiGraph, shift: int) -> list[dict[int, int]]:
    """The fundamental cycles of a spanning forest grown in edge-scan
    order starting at position ``shift``, from vertex 0 and then from
    each vertex not yet reached.

    Each vertex keeps its depth, its parent, and its forest edge with the
    sign of its way down (+1 from the lower to the higher endpoint, -1
    against it).  Each edge (u, v) left out of the forest gives the cycle
    edge + path(u) - path(v), the signed forest paths down to u and v from
    their common ancestor, found by a walk up from both ends: every entry
    is +-1, a loop gives a cycle of one edge, and the cost is linear in the
    edges and the cycles' lengths.  The cycles are a basis of the cycle
    space, so their supports cover exactly the edges on some cycle.
    """
    n, edges = _core(g.n, g.edges)
    order = list(range(shift, g.m)) + list(range(shift))
    adj: list[list[int]] = [[] for _ in range(n)]
    for j in order:
        u, v = edges[j]
        if u != v:
            adj[u].append(j)
            adj[v].append(j)
    depth = [-1] * n  # -1 until reached
    parent = [0] * n
    down: list = [None] * n  # (forest edge, sign) into each vertex
    in_tree = [False] * g.m
    for r in range(n):
        if depth[r] >= 0:
            continue
        depth[r] = 0
        stack = [r]
        while stack:
            x = stack.pop()
            for j in adj[x]:
                u, v = edges[j]
                y = v if x == u else u
                if depth[y] < 0:
                    depth[y] = depth[x] + 1
                    parent[y] = x
                    down[y] = (j, 1 if x == u else -1)
                    in_tree[j] = True
                    stack.append(y)
    cycles = []
    for j in order:
        if not in_tree[j]:
            x, y = edges[j]
            up_x, up_y = [], []  # the forest edges up to the common ancestor
            while x != y:
                if depth[x] >= depth[y]:
                    up_x.append(down[x])
                    x = parent[x]
                else:
                    up_y.append(down[y])
                    y = parent[y]
            cyc = dict(reversed(up_x))
            cyc.update((e, -s) for e, s in reversed(up_y))
            cyc[j] = 1
            cycles.append(cyc)
    return cycles


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


def least_edge_code(g: MultiGraph) -> tuple:
    """The least sorted edge code over all vertex orders: the search of
    ``MultiGraph.canonical_key`` started from one cell holding every vertex."""
    return _search(g.n, g.edges, _refinement(g.n, g.edges, False))[0]


def _refinement(n: int, edges: tuple, refine: bool) -> tuple:
    """(loops, adjacency, colours, cell order) of the graph on n vertices
    with ``edges``: the loops and the neighbour multiplicities of each
    vertex, the refined colours (or one colour), and the vertices sorted
    by (colour, id)."""
    loops = [0] * n
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for (u, v) in edges:
        if u == v:
            loops[u] += 1
        else:
            a, b = adj[u], adj[v]
            a[v] = a.get(v, 0) + 1
            b[u] = b.get(u, 0) + 1
    colors = _refine_colors(n, loops, adj) if refine else [0] * n
    return loops, adj, colors, sorted(range(n), key=colors.__getitem__)


def _search(n: int, edges: tuple, refinement: tuple) -> tuple[tuple, list[list[int]]]:
    """(code, automorphisms) of the graph on n vertices with ``edges``,
    from its ``_refinement``: the least edge code over the vertex orders
    that list the starting cells (the colour-refinement cells, or one
    cell) in order, and the automorphisms that the search found, as vertex
    maps: its twin transpositions and the maps between tied leaves.  Cells
    of one vertex each leave none to find."""
    loops, adj, colors, order = refinement
    if n and colors[order[-1]] < n - 1:
        order, autos = _least_order(n, loops, adj, colors, order)
        return _edge_code(n, edges, order), autos
    return _edge_code(n, edges, order), []


def _least_order(n, loops, adj, colors, cell_order):
    """Depth-first search for a vertex order of least edge code, returned
    with the automorphisms it found.

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
    swaps = []  # the twin transpositions
    for v, u in enumerate(after):
        if u >= 0:
            g = list(range(n))
            g[u], g[v] = v, u
            swaps.append(g)
    if forced:  # every cell is one twin class, placed in id order
        return cell_order, swaps

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
    return best_order, swaps + autos


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


def _edge_code(n: int, edges: tuple, order: list[int]):
    pos = [0] * n
    for i, w in enumerate(order):
        pos[w] = i
    return tuple(sorted([(pos[u], pos[v]) if pos[u] <= pos[v] else (pos[v], pos[u])
                         for (u, v) in edges]))


# -- Tutte polynomial ----------------------------------------------------------

def tutte(g: MultiGraph) -> MultiPoly:
    """Tutte polynomial by deletion-contraction.

    Empty edge set gives 1; a bridge contributes a factor x, a loop a
    factor y, and the polynomial is multiplicative over connected
    components (and hence over disjoint unions and one-point joins).
    An isolated vertex contributes 1, so components are only formed over
    the vertices that meet an edge.
    """
    if g.m > TUTTE_EDGE_LIMIT:
        raise ValueError(f"graph has {g.m} edges, limit is {TUTTE_EDGE_LIMIT}")
    core = MultiGraph._trusted(*_core(g.n, g.edges))
    return MultiPoly.product(_tutte_of(c.canonical_key()) for c in core.components())


@cache
def _tutte_of(key) -> MultiPoly:
    """Tutte polynomial of the connected class with canonical key
    (n, code) and at least one edge, taken on the class's representative
    whose edges are the code."""
    n, code = key
    g = MultiGraph._trusted(n, code)
    on_cycle = set().union(*_cycle_space(g, 0))
    pivot = max((i for i in on_cycle if g.edges[i][0] != g.edges[i][1]), default=None)
    if pivot is None:  # only loops lie on cycles; every other edge is a bridge
        loops = len(on_cycle)
        return MultiPoly({(("x", g.m - loops), ("y", loops)): 1})
    return (_tutte_of(g.delete(pivot).canonical_key())
            + _tutte_of(g.contract(pivot).canonical_key()))


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


# -- Kirchhoff-Symanzik polynomials ---------------------------------------------

def _wvar(i: int) -> str:
    return f"w{i}"


def _edge_monomial(names: list[str], idx) -> tuple:
    """The monomial key of the product of the variables ``names[j]`` over
    the edge positions j in ``idx``; edges that share a variable raise its
    exponent."""
    exps: dict[str, int] = {}
    for j in idx:
        v = names[j]
        exps[v] = exps.get(v, 0) + 1
    return tuple(sorted(exps.items()))


def spanning_forests(g: MultiGraph):
    """Yield the maximal spanning forests of a multigraph as index tuples:
    the (n - c)-edge subsets with no cycle, for c components.  On a
    connected graph they are the spanning trees."""
    need = g.n - g.component_count()
    n, edges = _core(g.n, g.edges)
    slack = g.m - need  # the edges a forest leaves out
    # One backtracking pass over the edges in index order, so the forests
    # come in ``itertools.combinations`` order.  A union-find by size
    # without path compression undoes its last union when an edge is taken
    # back; an edge that closes a cycle (a loop included) is skipped, and
    # with it every subset that holds it with the edges chosen so far.
    parent = list(range(n))
    size = [1] * n
    chosen: list[int] = []
    merged: list[tuple[int, int]] = []
    i = 0
    while True:
        if len(chosen) == need:
            yield tuple(chosen)
        elif i - len(chosen) <= slack:  # edges skipped so far
            u, v = edges[i]
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u != v:
                if size[u] > size[v]:
                    u, v = v, u
                parent[u] = v
                size[v] += size[u]
                chosen.append(i)
                merged.append((u, v))
            i += 1
            continue
        if not chosen:
            return
        i = chosen.pop() + 1
        u, v = merged.pop()
        parent[u] = u
        size[v] -= size[u]


def symanzik_psi(g: MultiGraph) -> MultiPoly:
    """First Symanzik polynomial: sum over maximal spanning forests of the
    product of the complementary edge variables; on a disconnected graph
    the product of its components'."""
    terms: dict = {}
    names = [_wvar(v) for v in g.evars]
    m = g.m
    for forest in spanning_forests(g):
        fset = set(forest)
        mono = _edge_monomial(names, [j for j in range(m) if j not in fset])
        _accumulate(terms, ((mono, 1),))
    return MultiPoly._make(terms)


def loop_number(g: MultiGraph) -> int:
    return g.m - g.n + g.component_count()


def symanzik_det(g: MultiGraph, assignment: dict[int, Fraction],
                 tree_choice: int = 0) -> Fraction:
    """Evaluate Psi as the determinant of the cycle-basis matrix.

    ``assignment`` maps edge variable indices to rational values.  The
    matrix is the weighted Gram matrix M_kr = sum_j w_j eta_kj eta_rj of
    the fundamental cycles eta_k of ``_cycle_space``; ``tree_choice``
    rotates its edge scan, changing the spanning forest and the basis but
    (provably, and tested) not the determinant.  The graph without cycles
    gives 1.
    """
    eta = _cycle_space(g, tree_choice % g.m if g.m else 0)
    w = [None] * g.m
    for j, var in enumerate(g.evars):
        if var not in assignment:
            raise ValueError(f"no value assigned to edge variable w{var}")
        w[j] = _as_coeff(assignment[var])

    # scale the weights by the lcm D of their denominators: the integer
    # matrix is D times M, so det M = det / D**ell
    scale = math.lcm(*(x.denominator for x in w))
    w = [x.numerator * (scale // x.denominator) for x in w]
    gram = [[sum(w[j] * s * cr[j] for j, s in ck.items() if j in cr) for cr in eta]
            for ck in eta]
    return Fraction(_bareiss_det(gram), scale ** len(eta))


def symanzik_det_poly(g: MultiGraph) -> MultiPoly:
    """det M(w) of ``symanzik_det`` as a polynomial, on the cycles eta of
    ``_cycle_space(g, 0)``: by Cauchy-Binet, the sum over the ell-sets S of
    edges of det(eta_S)^2 prod_{e in S} w_e, eta_S the columns S of eta.

    One depth-first pass over the edges in index order chooses S.  Each
    chosen column is a pivot, and the later columns are reduced against it
    once (not against the last of S); a column reduced to zero is dropped
    with every set that holds it, so only sets with det(eta_S) != 0 are
    reached, and det(eta_S) is the product of their pivots up to sign.  A
    quotient is an int when it divides exactly, else a Fraction, so eta
    need not be unimodular.  Neither Psi nor the spanning forests are read.
    """
    eta = _cycle_space(g, 0)
    ell, m = len(eta), g.m
    names = [_wvar(v) for v in g.evars]
    slack = m - ell  # the columns a set leaves out
    terms: dict = {}
    chosen: list[int] = []

    def visit(i: int, cols: list[list], det) -> None:
        k = len(chosen)
        if k == ell:
            _accumulate(terms, ((_edge_monomial(names, chosen), det * det),))
            return
        while i - k <= slack:  # the columns left out so far
            col = cols[i]
            i += 1
            for p, piv in enumerate(col):
                if piv:
                    later = cols
                    if k + 1 < ell:  # a full set reads no later column
                        later = cols[:]
                        for j in range(i, m):
                            c = cols[j]
                            f = c[p]
                            if f:
                                q = f // piv if not f % piv else Fraction(f, piv)
                                later[j] = [a - q * b for a, b in zip(c, col)]
                    chosen.append(i - 1)
                    visit(i, later, det * piv)
                    chosen.pop()
                    break

    visit(0, [[c.get(j, 0) for c in eta] for j in range(m)], 1)
    return MultiPoly._make(terms)


def spanning_tree_count(g: MultiGraph) -> int:
    """Spanning trees via the matrix-tree cofactor.  A disconnected graph
    has none, and the graph without vertices none: both are read from a
    component count over the edges, so the n x n Laplacian is built only
    for a connected graph."""
    return _matrix_tree_count(g) if g.component_count() == 1 else 0


def _matrix_tree_count(g: MultiGraph) -> int:
    """The Laplacian cofactor of a connected graph: its spanning trees."""
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
    grown = _grow(max_edges)
    return [grown[key][0] for key in _corpus_order(grown)]


def corpus_tutte(max_edges: int) -> list[tuple[MultiGraph, MultiPoly]]:
    """The graphs of ``generate_connected_multigraphs(max_edges)``, in its
    order, each with its Tutte polynomial, read from the growth pass.

    A class h = g + e grown from its parent g has T(h) = y T(g) when e is
    a loop, x T(g) when e is a pendant edge to a new vertex, and
    T(g) + T(h/e) otherwise, since e then closes a cycle (Tutte 1954);
    h/e is a corpus class with one edge fewer, found by its key.
    """
    grown = _grow(max_edges)
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    polys: dict = {}
    for key, (h, parent) in grown.items():  # parents and h/e come first
        if parent is None:
            polys[key] = MultiPoly.unit()
            continue
        u, v = h.edges[-1]
        if u == v:
            polys[key] = y * polys[parent]
        elif parent[0] < h.n:
            polys[key] = x * polys[parent]
        else:
            polys[key] = polys[parent] + polys[h.contract(h.m - 1).canonical_key()]
    return [(grown[key][0], polys[key]) for key in _corpus_order(grown)]


def _grow(max_edges: int) -> dict:
    """The growth pass: the canonical key of every class, in the order
    found, mapped to (its first graph h, the key of the class h grew
    from).  The edge added is the last edge of h; the seed, one vertex,
    has no parent.

    A class g grows by every pair (u, v), u <= v <= n, with n the new
    vertex.  The automorphisms that keying g found, fixing n, map a pair
    to one that gives an isomorphic graph, so of each orbit of pairs
    under them only the first in loop order is keyed: only it could be
    new.

    Before its search, a candidate h = g + (u, v) is looked up among the
    labelled graphs met at its edge count: first its sorted edges, then
    its certificate, the edge code of h under the vertex order sorted by
    (refined colour, id).  Both are h relabelled, so a match makes h
    isomorphic to a candidate met before, whose class is already grown,
    and h is skipped.  Only a candidate that misses both is searched, from
    the refinement just built.  The certificate is sufficient, not exact:
    isomorphic candidates can differ in it, and the search, run on each,
    finds their one key.  So the keys, order, representatives and parents
    are those of keying every candidate, and the search runs once per
    class up to 8 edges (26 366 times for 26 363 classes at 9)."""
    if max_edges < 0:
        raise ValueError("edge bound must be nonnegative")
    seed = MultiGraph(1, [])
    key = seed.canonical_key()
    grown = {key: (seed, None)}
    frontier = [(key, grown[key], [])]
    for _ in range(max_edges):
        nxt = []
        met: set = set()  # labelled graphs isomorphic to a candidate met
        for parent, (g, _), autos in frontier:
            n = g.n
            autos = [a + [n] for a in autos]
            moved = {w for a in autos for w in range(n) if a[w] != w}
            seen: set = set()
            for u in range(n):
                for v in range(u, n + 1):
                    if u in moved or v in moved:  # else the orbit is (u, v) alone
                        if (u, v) in seen:
                            continue
                        _add_orbit((u, v), autos, seen)
                    k, edges = n + (v == n), g.edges + ((u, v),)
                    labelled = (k, tuple(sorted(edges)))
                    if labelled in met:
                        continue
                    cells = _refinement(k, edges, refine=True)
                    cert = (k, _edge_code(k, edges, cells[3]))
                    if cert in met:
                        continue
                    met.add(labelled)
                    met.add(cert)
                    code, found = _search(k, edges, cells)
                    key = (k, code)
                    if key not in grown:
                        grown[key] = (MultiGraph._trusted(k, edges), parent)
                        nxt.append((key, grown[key], found))
        frontier = nxt
    return grown


def _add_orbit(pair: tuple[int, int], autos: list[list[int]], seen: set) -> None:
    """Add to ``seen`` the orbit of the vertex pair ``pair``, as (min, max)
    pairs, under the group that the vertex maps ``autos`` generate."""
    stack = [pair]
    while stack:
        a, b = stack.pop()
        for p in autos:
            x, y = p[a], p[b]
            q = (x, y) if x <= y else (y, x)
            if q not in seen:
                seen.add(q)
                stack.append(q)


def _corpus_order(grown: dict) -> list:
    """The keys by edge count, vertex count and edge code."""
    return sorted(grown, key=lambda key: (grown[key][0].m, key[0], key[1]))
