"""Step-function graphons: construction, cut metric, densities, sampling.

A step graphon is a symmetric block-constant function on [0,1]^2 with
rational block measures and rational values in [0,1].  Everything that
can be exact is exact: cut norms in exact mode, homomorphism densities,
Gateaux derivatives and refinements all run over the rationals.

Cut norm follows the block form of the rectangle supremum,

    cut_norm(W) = max_{S,T}  | sum_{i in S, j in T} mu_i mu_j W_ij |

over all pairs of block subsets.  When the mass matrix has no negative
entry (every validated graphon) or no positive entry, the full square
attains the maximum, so the cut norm is |total mass|; both modes return
that closed form in O(k^2) at any number of blocks.  Mixed-sign matrices
(perturbation directions, differences of graphons) take the general
path.  Exact mode decomposes the support into connected components (the
maximum splits across components) and enumerates subsets per component
with Gray-code updates, up to 20 blocks; heuristic mode runs randomized
alternating maximization and certifies the best pair it finds with exact
arithmetic, so it reports a true lower bound.

Cut distance minimizes the cut norm of the difference over block
relabelings.  Up to 4096 cells, both graphons are refined to a common
equal-measure partition whose cells are relabeled.  Whenever the
identity alignment already attains the permutation-invariant lower
bound |total mass difference|, that value is returned as the provable
exact minimum without any search; this is what makes the rescaling
diagnostics exact even at twenty blocks.  Beyond 4096 equal cells the
two graphons are aligned on the overlay of their block boundaries
instead: at most k1 + k2 - 1 cells of unequal measure, on which only the
identity alignment is evaluated, because relabeling cells of unequal
measure does not preserve measure.

Homomorphism densities sum over block colourings of the pattern's
vertices.  A vertex with an earlier neighbour only takes the colours in
the support of that neighbour's row, so the work follows the support of
W rather than all k colours per vertex.

Simple graphs are ``graphpoly.MultiGraph``s without loops or parallel
edges.  Their canonical code is the least sorted edge list over all
relabelings, found by the multigraph key's pruned search started from
one cell instead of the colour-refinement cells.  The fingerprint
catalogue is the loop-free, simple part of the multigraph corpus.

Sampling uses a counter-based generator keyed by the master seed, so a
sample is reproducible regardless of how the work would be scheduled.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .trees import Forest, ForestSum, _as_coeff
from .graphpoly import MultiGraph, generate_connected_multigraphs, \
    least_edge_code, tree_to_graph

EXACT_CUTNORM_BLOCK_LIMIT = 20
EXACT_DISTANCE_BLOCK_LIMIT = 8
HEURISTIC_RESTARTS = 32
_EXACT_COMPONENT_CAP = 16  # exact norm per support component in distance search
_EQUAL_CELL_CAP = 4096  # beyond this, cut distance aligns on the interval overlay


class SizeError(ValueError):
    """Exact mode requested beyond its size guard."""


class RefinementError(ValueError):
    """Two graphons cannot be aligned exactly: the common equal-measure
    partition is too fine and the overlay alignment is not certified."""


class StepGraphon:
    """Symmetric block step function with rational measures and values."""

    __slots__ = ("measures", "values", "k")

    def __init__(self, measures, values, _direction: bool = False):
        mu = tuple(_as_coeff(m) for m in measures)
        if not mu:
            raise ValueError("graphon needs at least one block")
        if any(m <= 0 for m in mu):
            raise ValueError("block measures must be positive")
        if sum(mu) != 1:
            raise ValueError(f"block measures sum to {sum(mu)}, expected 1")
        vals = tuple(tuple(_as_coeff(v) for v in row) for row in values)
        k = len(mu)
        if len(vals) != k or any(len(row) != k for row in vals):
            raise ValueError("value matrix shape must match the number of blocks")
        for i in range(k):
            for j in range(k):
                if vals[i][j] != vals[j][i]:
                    raise ValueError("value matrix must be symmetric")
                if not _direction and not (0 <= vals[i][j] <= 1):
                    raise ValueError("graphon values must lie in [0,1]")
        object.__setattr__(self, "measures", mu)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "k", k)

    def __setattr__(self, name, value):
        raise AttributeError("StepGraphon is immutable")

    def __eq__(self, other):
        return (isinstance(other, StepGraphon) and self.measures == other.measures
                and self.values == other.values)

    def __hash__(self):
        return hash((self.measures, self.values))

    def __repr__(self):
        return f"StepGraphon(k={self.k}, measures={[str(m) for m in self.measures]})"

    @staticmethod
    def constant(c, k: int = 1) -> "StepGraphon":
        c = _as_coeff(c)
        mu = [Fraction(1, k)] * k
        return StepGraphon(mu, [[c] * k for _ in range(k)])

    def is_constant(self) -> bool:
        v = self.values[0][0]
        return all(x == v for row in self.values for x in row)

    def total_mass(self) -> Fraction:
        mu = self.measures
        return sum((mu[i] * sum((mu[j] * v for j, v in enumerate(row) if v),
                                Fraction(0))
                    for i, row in enumerate(self.values)), Fraction(0))

    def permute(self, perm) -> "StepGraphon":
        """Relabel blocks: block i of the result is block perm[i] of self."""
        if sorted(perm) != list(range(self.k)):
            raise ValueError("not a permutation of the blocks")
        mu = [self.measures[perm[i]] for i in range(self.k)]
        vals = [[self.values[perm[i]][perm[j]] for j in range(self.k)]
                for i in range(self.k)]
        return StepGraphon(mu, vals)

    def boundaries(self) -> list[Fraction]:
        return [Fraction(0), *itertools.accumulate(self.measures)]


def _trusted_graphon(measures: tuple, values: tuple) -> StepGraphon:
    """Internal constructor for matrices already known to be valid;
    skips the quadratic symmetry/range validation."""
    w = StepGraphon.__new__(StepGraphon)
    object.__setattr__(w, "measures", measures)
    object.__setattr__(w, "values", values)
    object.__setattr__(w, "k", len(measures))
    return w


def direction(measures, values) -> StepGraphon:
    """A symmetric step function used as a perturbation direction; values
    may leave [0,1]."""
    return StepGraphon(measures, values, _direction=True)


# -- simple graphs --------------------------------------------------------------

class SimpleGraph(MultiGraph):
    """Simple undirected graph on vertices 0..n-1: a ``MultiGraph``
    without loops or parallel edges, its edges stored once each as
    (min, max) in sorted order, so an edge test is a bisection.  Minors
    and components are plain ``MultiGraph``s, since they may have loops
    or parallel edges."""

    __slots__ = ()

    def __init__(self, n: int, edges):
        super().__init__(n, edges)
        if any(u == v for (u, v) in self.edges):
            raise ValueError("simple graphs have no loops")
        es = sorted(set(self.edges))
        object.__setattr__(self, "edges", tuple(es))
        object.__setattr__(self, "evars", tuple(range(1, len(es) + 1)))

    @classmethod
    def _trusted(cls, n: int, edges: list) -> "SimpleGraph":
        """Graph from an edge list already sorted, duplicate-free, in range
        and with u < v in every pair; nothing is checked."""
        return super()._trusted(n, tuple(edges), tuple(range(1, len(edges) + 1)))

    def has_edge(self, u: int, v: int) -> bool:
        """Whether {u, v} is an edge, by bisection of the sorted edges."""
        e = (min(u, v), max(u, v))
        i = bisect_left(self.edges, e)
        return i < len(self.edges) and self.edges[i] == e

    def canonical_code(self) -> str:
        """Labeling-invariant encoding: the smallest sorted edge list over
        all relabelings, as ``n:u-v,...``."""
        return f"{self.n}:" + ",".join(f"{u}-{v}" for (u, v) in least_edge_code(self))

    def disjoint_union(self, other: "SimpleGraph") -> "SimpleGraph":
        shifted = [(u + self.n, v + self.n) for (u, v) in other.edges]
        return SimpleGraph(self.n + other.n, list(self.edges) + shifted)


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


def graphon_from_graph(g: SimpleGraph) -> StepGraphon:
    """Equal blocks of measure 1/n with the adjacency matrix as values."""
    if g.n == 0:
        raise ValueError("empty graph has no graphon")
    zero, one = Fraction(0), Fraction(1)
    vals = [[zero] * g.n for _ in range(g.n)]
    for (u, v) in g.edges:
        vals[u][v] = vals[v][u] = one
    return _trusted_graphon((Fraction(1, g.n),) * g.n,
                            tuple(tuple(row) for row in vals))


# -- Feynman graphons ------------------------------------------------------------

def feynman_graphon(y: ForestSum, coupling) -> StepGraphon:
    """Diagonal-block graphon model of a forest sum.

    Each grade-n monomial with integer coefficient c contributes c
    copies of its forest adjacency pattern as diagonal blocks with edge
    value (coupling)^n in (0, 1]; block measures are proportional
    to vertex counts (every vertex cell gets measure 1/total).
    """
    coupling = _as_coeff(coupling)
    if not (0 < coupling <= 1):
        raise ValueError("coupling must lie in (0, 1]")
    monomials = []
    total = 0
    for f, c in sorted(y.terms.items(), key=lambda kv: (kv[0].grade, kv[0].code)):
        if c.denominator != 1 or c < 0:
            raise ValueError(
                f"forest sum must have nonnegative integer coefficients, got {c}")
        if f.grade == 0:
            raise ValueError("the empty forest has no graphon block")
        monomials.append((f, int(c)))
        total += f.grade * int(c)
    if total == 0:
        raise ValueError("cannot build a graphon from the zero sum")
    vals = [[Fraction(0)] * total for _ in range(total)]
    offset = 0
    for f, c in monomials:
        value = coupling ** f.grade  # <= 1: the coupling lies in (0, 1]
        for _ in range(c):
            for t in f:
                g = tree_to_graph(t)
                for (u, v) in g.edges:
                    vals[offset + u][offset + v] = vals[offset + v][offset + u] = value
                offset += g.n
    return _trusted_graphon((Fraction(1, total),) * total,
                            tuple(tuple(row) for row in vals))


# -- cut norm ---------------------------------------------------------------------

def _mass_matrix(w: StepGraphon) -> list[list[Fraction]]:
    return [[w.measures[i] * w.measures[j] * w.values[i][j] for j in range(w.k)]
            for i in range(w.k)]


def _support_components(mat: list[list[Fraction]]) -> list[list[int]]:
    k = len(mat)
    seen = [False] * k
    comps = []
    for s in range(k):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in range(k):
                if not seen[v] and (mat[u][v] or mat[v][u]):
                    seen[v] = True
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def _component_extrema(mat: list[list[Fraction]], comp: list[int]):
    """(max, min) of sum_{i in S, j in T} mat[i][j] over S,T subsets of comp."""
    p = len(comp)
    sub = [[mat[a][b] for b in comp] for a in comp]
    colsum = [Fraction(0)] * p
    pos = Fraction(0)  # sum_j max(0, colsum_j)
    neg = Fraction(0)  # sum_j min(0, colsum_j)
    best_max = Fraction(0)
    best_min = Fraction(0)
    state = 0
    for step in range(1, 1 << p):
        r = (step & -step).bit_length() - 1  # the Gray-code bit that flips
        sign = -1 if state >> r & 1 else 1
        state ^= 1 << r
        row = sub[r]
        for j in range(p):
            v = row[j]
            if not v:
                continue
            old = colsum[j]
            new = old + v if sign > 0 else old - v
            colsum[j] = new
            if old > 0:
                pos -= old
            elif old < 0:
                neg -= old
            if new > 0:
                pos += new
            elif new < 0:
                neg += new
        if pos > best_max:
            best_max = pos
        if neg < best_min:
            best_min = neg
    return best_max, best_min


def _sign_definite(rows) -> bool:
    """No entry is negative, or no entry is positive.  With positive
    block measures this is also the sign pattern of the mass matrix."""
    return (all(v >= 0 for row in rows for v in row)
            or all(v <= 0 for row in rows for v in row))


def _cut_norm_exact_matrix(mat: list[list[Fraction]]) -> Fraction:
    if _sign_definite(mat):
        # the full square sums every entry with one sign: nothing beats it
        return abs(sum(map(sum, mat)))
    comps = _support_components(mat)
    total_max = Fraction(0)
    total_min = Fraction(0)
    for comp in comps:
        cmax, cmin = _component_extrema(mat, comp)
        total_max += cmax
        total_min += cmin
    return max(total_max, -total_min)


def _heuristic_pair(mf: np.ndarray, rng, restarts: int):
    """Alternating maximization of |s·M·t| over subset indicator pairs.

    Returns (float value, s, t); the caller certifies the pair exactly.
    """
    import numpy as np
    k = mf.shape[0]
    best_val = -1.0
    best_pair = (np.ones(k, bool), np.ones(k, bool))
    for sign in (1.0, -1.0):
        m = sign * mf
        starts = [np.ones(k, bool)]
        for _ in range(restarts):
            starts.append(rng.integers(0, 2, k).astype(bool))
        for s in starts:
            for _ in range(40):
                t = m.T @ s > 0
                s_new = m @ t > 0
                if (s_new == s).all():
                    break
                s = s_new
            t = m.T @ s > 0
            val = float(s @ m @ t)
            if val > best_val:
                best_val = val
                best_pair = (s.copy(), t.copy())
    return best_val, best_pair[0], best_pair[1]


def _value_codes(rows, table: dict) -> np.ndarray:
    """Matrix of the positions of the entries of ``rows`` in ``table``
    (distinct value -> position, extended in place).  Each entry object is
    hashed once however often it is shared, as refinements share them."""
    import numpy as np
    objs: dict = {}
    for row in rows:
        objs.update(zip(map(id, row), row))
    pos = {i: table.setdefault(v, len(table)) for i, v in objs.items()}
    return np.array([list(map(pos.__getitem__, map(id, row))) for row in rows],
                    dtype=np.intp)


def _rectangle_sum(table: dict, plus, minus=None) -> Fraction:
    """Exact sum of the coded entries of ``plus`` minus those of ``minus``:
    one product per distinct value, by its count."""
    import numpy as np
    counts = np.bincount(plus.ravel(), minlength=len(table))
    if minus is not None:
        counts -= np.bincount(minus.ravel(), minlength=len(table))
    return sum((int(n) * v for n, v in zip(counts, table) if n), Fraction(0))


def _cut_norm_heuristic_matrix(mat, restarts: int, seed: int) -> Fraction:
    """Randomized search on floats, exact evaluation of the chosen pair."""
    import numpy as np
    table: dict = {}
    codes = _value_codes(mat, table)
    rng = np.random.Generator(np.random.Philox(key=seed))
    _, s, t = _heuristic_pair(np.array([float(v) for v in table])[codes], rng,
                              restarts)
    return abs(_rectangle_sum(table, codes[np.ix_(s, t)]))


def cut_norm(w: StepGraphon, mode: str = "exact", *, seed: int = 0,
             restarts: int = HEURISTIC_RESTARTS):
    """Cut norm of a step graphon, as a Fraction.

    When no value of W is negative (every validated graphon) or none is
    positive, the cut norm is |total mass|, returned in O(k^2) by both
    modes at any size.  Otherwise exact mode returns the exact norm by
    block-subset enumeration (limit 20 blocks, else SizeError), and
    heuristic mode returns the exactly evaluated best pair found by
    alternating maximization: a certified lower bound on the norm.
    """
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}")
    if _sign_definite(w.values):
        return abs(w.total_mass())
    if mode == "exact":
        if w.k > EXACT_CUTNORM_BLOCK_LIMIT:
            raise SizeError(
                f"exact cut norm limited to {EXACT_CUTNORM_BLOCK_LIMIT} blocks "
                f"(got {w.k}); use heuristic mode")
        return _cut_norm_exact_matrix(_mass_matrix(w))
    return _cut_norm_heuristic_matrix(_mass_matrix(w), restarts, seed)


# -- refinement and cut distance ---------------------------------------------------

def _equal_refinement_count(w: StepGraphon, u: StepGraphon) -> int:
    dens = [b.denominator for b in w.boundaries()] + \
           [b.denominator for b in u.boundaries()]
    return lcm(*dens)


def _refine_equal(w: StepGraphon, cells: int) -> StepGraphon:
    reps = []
    for i, m in enumerate(w.measures):
        cnt = m * cells
        if cnt.denominator != 1:
            raise RefinementError(
                f"block of measure {m} does not split into cells of 1/{cells}")
        reps.extend([i] * int(cnt))
    # cells of one block share its (immutable) refined row
    rows = [tuple(row[b] for b in reps) for row in w.values]
    vals = tuple(rows[a] for a in reps)
    return _trusted_graphon((Fraction(1, cells),) * cells, vals)


def common_refinement(w: StepGraphon, u: StepGraphon,
                      max_cells: int | None = None):
    """Refine both graphons to the same equal-measure partition."""
    cells = _equal_refinement_count(w, u)
    if max_cells is not None and cells > max_cells:
        raise RefinementError(
            f"common equal-measure partition needs {cells} blocks, "
            f"limit is {max_cells}")
    return _refine_equal(w, cells), _refine_equal(u, cells)


def _overlay(w: StepGraphon, u: StepGraphon):
    """Both graphons on the overlay of their block boundaries: the
    coarsest common partition, at most w.k + u.k - 1 cells of unequal
    measure.  Every integral of a graphon is unchanged by the lift."""
    cuts = sorted(set(w.boundaries()) | set(u.boundaries()))
    mu = tuple(hi - lo for lo, hi in zip(cuts, cuts[1:]))

    def lift(g: StepGraphon) -> StepGraphon:
        bounds = g.boundaries()
        idx = [bisect_right(bounds, lo) - 1 for lo in cuts[:-1]]
        rows = tuple(tuple(g.values[a][b] for b in idx) for a in idx)
        return _trusted_graphon(mu, rows)

    return lift(w), lift(u)


def _difference_matrix(w: StepGraphon, u: StepGraphon, perm=None):
    k = w.k
    mu = w.measures
    if perm is None:
        perm = range(k)
    zero = Fraction(0)
    out = []
    for i in range(k):
        wrow, urow = w.values[perm[i]], u.values[i]
        out.append([mu[i] * mu[j] * (wrow[perm[j]] - urow[j])
                    if wrow[perm[j]] or urow[j] else zero for j in range(k)])
    return out


def _distance_eval(mat, seed: int):
    """Exact norm if the support decomposes small enough, else heuristic."""
    comps = _support_components(mat)
    if all(len(c) <= _EXACT_COMPONENT_CAP for c in comps):
        return _cut_norm_exact_matrix(mat), True
    return _cut_norm_heuristic_matrix(mat, HEURISTIC_RESTARTS, seed), False


def cut_distance(w: StepGraphon, u: StepGraphon, mode: str = "exact", *,
                 seed: int = 0, restarts: int = 8):
    """Cut distance: minimum over block relabelings of the difference norm.

    When the common equal-measure partition has at most 4096 cells, both
    graphons are refined to it.  If the identity alignment attains the
    permutation-invariant bound |mass(W) - mass(U)| the exact minimum is
    returned at once (in either mode).  Otherwise exact mode enumerates
    the distinct relabelings (limit 8 blocks, else SizeError) and returns
    the exact distance; heuristic mode descends by pairwise swaps from
    the identity plus seeded random restarts and returns the norm of the
    best alignment it found: exact when every support component of the
    difference has at most 16 cells, else the certified rectangle of that
    alignment (above 64 cells always the certified rectangle), which is a
    lower bound on that alignment's norm.

    Beyond 4096 cells both graphons are aligned on the overlay of their
    block boundaries and only the identity is evaluated there.
    Heuristic mode returns that value, exact or certified as above.
    Exact mode returns it only when it is provably the distance: exact
    and equal to the mass gap, or one side constant; otherwise it raises
    RefinementError.
    """
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}")
    import numpy as np
    if _equal_refinement_count(w, u) > _EQUAL_CELL_CAP:
        return _overlay_distance(w, u, mode, seed)
    wr, ur = common_refinement(w, u)
    k = wr.k
    rng = np.random.Generator(np.random.Philox(key=seed))
    cell_sq = wr.measures[0] * wr.measures[0]  # refinement cells are equal
    table: dict = {}
    wc, uc = _value_codes(wr.values, table), _value_codes(ur.values, table)
    floats = np.array([float(v) for v in table])
    wf, uf = floats[wc], floats[uc]

    def certified(perm) -> Fraction:
        # float search for a good rectangle, exact evaluation of that
        # rectangle: a true lower bound on the norm, reported as the
        # distance value for this alignment
        idx = np.asarray(perm)
        mfd = (wf[np.ix_(idx, idx)] - uf) * float(cell_sq)
        _, s, t = _heuristic_pair(mfd, rng, 6)
        rows, cols = np.flatnonzero(s), np.flatnonzero(t)
        total = _rectangle_sum(table, wc[np.ix_(idx[rows], idx[cols])],
                               uc[np.ix_(rows, cols)])
        return abs(total) * cell_sq

    small = k <= 64
    if small:
        id_mat = _difference_matrix(wr, ur)
        id_val, id_exact = _distance_eval(id_mat, seed)
        mass_gap = abs(sum((v for row in id_mat for v in row), Fraction(0)))
        # |mass(W)-mass(U)| lower-bounds the norm of every alignment, so
        # an exact identity value attaining it is the exact distance
        if id_exact and id_val == mass_gap:
            return id_val
    else:
        id_val = certified(list(range(k)))
        id_exact = False

    # a constant graphon is invariant under every relabeling
    if w.is_constant() or u.is_constant():
        return id_val

    if mode == "exact":
        if k > EXACT_DISTANCE_BLOCK_LIMIT:
            raise SizeError(
                f"exact cut distance limited to {EXACT_DISTANCE_BLOCK_LIMIT} "
                f"equal blocks after refinement (got {k}); use heuristic mode")
        best = id_val
        seen = {tuple(map(tuple, id_mat))}
        for perm in itertools.permutations(range(k)):
            mat = _difference_matrix(wr, ur, perm)
            key = tuple(map(tuple, mat))
            if key in seen:
                continue
            seen.add(key)
            val = _cut_norm_exact_matrix(mat)
            if val < best:
                best = val
                if best == mass_gap:
                    break
        return best

    # heuristic: search permutations on a float score, then evaluate the
    # winner once with exact arithmetic (or a certified lower bound)
    def score(perm) -> float:
        idx = np.asarray(perm)
        val, _, _ = _heuristic_pair((wf[np.ix_(idx, idx)] - uf) * float(cell_sq),
                                    rng, 4)
        return val

    best_perm = list(range(k))
    best_score = score(best_perm)
    for _ in range(restarts):
        perm = list(rng.permutation(k))
        val = score(perm)
        if val < best_score:
            best_score = val
            best_perm = perm
    improved = k <= 24  # pairwise-swap descent only at workable sizes
    rounds = 0
    while improved and rounds < 3:
        improved = False
        rounds += 1
        for a in range(k):
            for b in range(a + 1, k):
                perm = list(best_perm)
                perm[a], perm[b] = perm[b], perm[a]
                val = score(perm)
                if val < best_score - 1e-12:
                    best_score = val
                    best_perm = perm
                    improved = True
    if small:
        final, _ = _distance_eval(_difference_matrix(wr, ur, best_perm), seed)
    else:
        final = certified(best_perm)
    if best_perm != list(range(k)) and id_val < final:
        return id_val
    return final


def _overlay_distance(w: StepGraphon, u: StepGraphon, mode: str,
                      seed: int) -> Fraction:
    """Identity alignment on the overlay; see ``cut_distance``.  There is
    no relabeling search: permuting cells of unequal measure is not
    measure-preserving."""
    wo, uo = _overlay(w, u)
    val, exact = _distance_eval(_difference_matrix(wo, uo), seed)
    if mode == "heuristic":
        return val
    # |mass(W)-mass(U)| lower-bounds every alignment, and a constant side
    # makes every alignment equal to the identity
    if exact and (val == abs(w.total_mass() - u.total_mass())
                  or w.is_constant() or u.is_constant()):
        return val
    raise RefinementError(
        f"common equal-measure partition needs "
        f"{_equal_refinement_count(w, u)} blocks, limit is {_EQUAL_CELL_CAP}, "
        f"and the identity alignment on the {wo.k}-cell overlay is not "
        f"certified exact")


# -- homomorphism densities ----------------------------------------------------------

def _weighted_map_sum(nv: int, edge_mats, k: int, mu):
    """sum over maps [nv] -> [k] of prod mu_phi(v) prod mat_e[phi(a)][phi(b)].

    ``edge_mats`` is a list of (a, b, matrix) with a < b.  A vertex with
    earlier neighbours only takes the colours in the support of one of
    their rows (the shortest): every other colour makes the product zero.
    """
    supports = {}
    edges_at: list[list[tuple[int, object, list]]] = [[] for _ in range(nv)]
    for (a, b, mat) in edge_mats:
        supp = supports.get(id(mat))
        if supp is None:
            supp = supports[id(mat)] = [[j for j, v in enumerate(row) if v]
                                        for row in mat]
        edges_at[max(a, b)].append((min(a, b), mat, supp))
    every = range(k)
    total = Fraction(0)
    assign = [0] * nv

    def rec(depth: int, acc: Fraction):
        nonlocal total
        if depth == nv:
            total += acc
            return
        at = edges_at[depth]
        colours = min((supp[assign[a]] for (a, _, supp) in at), key=len) \
            if at else every
        for c in colours:
            term = acc * mu[c]
            if not term:
                continue
            assign[depth] = c
            ok = True
            for (a, mat, _) in at:
                term = term * mat[assign[a]][c]
                if not term:
                    ok = False
                    break
            if ok:
                rec(depth + 1, term)

    rec(0, Fraction(1))
    return total


def hom_density(h: SimpleGraph, w: StepGraphon) -> Fraction:
    """Exact homomorphism density t(H, W)."""
    mats = [(a, b, w.values) for (a, b) in h.edges]
    return _weighted_map_sum(h.n, mats, w.k, w.measures)


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


def gateaux_density_derivative(h: SimpleGraph, w: StepGraphon,
                               d: StepGraphon) -> Fraction:
    """Directional derivative of t(H, .) at W in direction D.

    Exactly the edge-sum formula: for each edge of H replace W by D on
    that edge and keep W on the others.  When D lives on another
    partition, both are lifted to the overlay of their boundaries first.
    """
    if d.measures != w.measures:
        w, d = _overlay(w, d)
    total = Fraction(0)
    edges = list(h.edges)
    for idx in range(len(edges)):
        mats = [(a, b, d.values if i == idx else w.values)
                for i, (a, b) in enumerate(edges)]
        total += _weighted_map_sum(h.n, mats, w.k, w.measures)
    return total


def perturb(w: StepGraphon, d: StepGraphon, eps) -> StepGraphon:
    """W + eps*D on the common partition (values must stay in [0,1])."""
    eps = _as_coeff(eps)
    if d.measures != w.measures:
        cells = _equal_refinement_count(w, d)
        w = _refine_equal(w, cells)
        d = _refine_equal(d, cells)
    vals = [[w.values[i][j] + eps * d.values[i][j] for j in range(w.k)]
            for i in range(w.k)]
    return StepGraphon(w.measures, vals)


# -- enumeration of small connected graphs -------------------------------------------

def connected_graphs_up_to(max_edges: int) -> list[SimpleGraph]:
    """All connected simple graphs with at most ``max_edges`` edges (and
    no isolated vertices), up to isomorphism; K1 included.  They are the
    classes of the multigraph corpus without loops or parallel edges.

    The 5-edge guard is a cost bound, not a limit of the search: the
    catalogue holds 23, 53 and 132 graphs at 5, 6 and 7 edges, and each
    one is a homomorphism density against the whole graphon, so a level-6
    fingerprint of the order-5 Feynman graphon already takes about 4 s.
    """
    if max_edges < 0:
        raise ValueError("edge bound must be nonnegative")
    if max_edges > 5:
        raise SizeError("fingerprint levels supported up to 5 edges")
    out = [SimpleGraph(g.n, g.edges) for g in generate_connected_multigraphs(max_edges)
           if all(u != v for (u, v) in g.edges) and len(set(g.edges)) == g.m]
    out.sort(key=lambda g: (g.m, g.n, g.canonical_code()))
    return out


@dataclass(frozen=True)
class DensityFingerprint:
    """Homomorphism densities against all connected graphs with at most
    ``level`` edges, keyed by canonical graph code."""

    level: int
    densities: tuple[tuple[str, Fraction], ...]

    def as_dict(self) -> dict[str, Fraction]:
        return dict(self.densities)

    def indistinguishable_from(self, other: "DensityFingerprint") -> bool:
        """Same densities at the common level."""
        level = min(self.level, other.level)
        a = {k: v for k, v in self.densities if _code_edges(k) <= level}
        b = {k: v for k, v in other.densities if _code_edges(k) <= level}
        return a == b


def _code_edges(code: str) -> int:
    _, _, rest = code.partition(":")
    return 0 if not rest else rest.count(",") + 1


def density_fingerprint(w: StepGraphon, level: int = 4) -> DensityFingerprint:
    """Fingerprint of W by densities of connected graphs up to ``level`` edges."""
    rows = []
    for h in connected_graphs_up_to(level):
        rows.append((h.canonical_code(), hom_density(h, w)))
    return DensityFingerprint(level=level, densities=tuple(rows))


# -- sampling -------------------------------------------------------------------------

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
    # a coin is an edge when it lies below int(v * 2^64); for v = 1 that
    # is 2^64, beyond uint64, and every coin is an edge
    below = np.array([[min(int(v * scale), scale - 1) for v in row]
                      for row in w.values], dtype=np.uint64)
    always = np.array([[v == 1 for v in row] for row in w.values])
    edge_draws = rng.integers(0, scale, size=n * (n - 1) // 2, dtype=np.uint64,
                              endpoint=False)
    # the pairs i < j in lexicographic order, as the coins were drawn and
    # as the trusted constructor needs them
    first, second = np.triu_indices(n, k=1)
    ti, tj = types[first], types[second]
    hit = np.flatnonzero((edge_draws < below[ti, tj]) | always[ti, tj])
    return SimpleGraph._trusted(n, list(zip(first[hit].tolist(),
                                            second[hit].tolist())))


# -- solution-series diagnostics --------------------------------------------------------

def convergence_trace(sol, m: int, mode: str = "heuristic", *, seed: int = 0,
                      restarts: int = 2) -> list:
    """Successive cut distances of the Feynman graphons of the partial
    structural sums Y_1..Y_m at the solution's coupling."""
    from .dse import structural_sum
    if m < 1 or m > sol.order:
        raise ValueError(f"trace needs 1 <= m <= {sol.order}")
    graphons = [feynman_graphon(structural_sum(sol, i), sol.coupling)
                for i in range(1, m + 1)]
    out = []
    for i in range(m - 1):
        out.append(cut_distance(graphons[i], graphons[i + 1], mode,
                                seed=seed, restarts=restarts))
    return out
