"""Step-function graphons: construction, cut metric, densities.

A step graphon is a symmetric block-constant function on [0,1]^2 with
rational block measures and rational values in [0,1].  Everything that
can be exact is exact: cut norms in exact mode, homomorphism densities,
Gateaux derivatives and refinements all run over the rationals.

What is an integer and what stays a Fraction:

- the values are integer numerators ``nums`` over one least common
  denominator ``den``; equality and hashing use (measures, den, nums);
- the block measures stay Fractions; a computation that weighs by them
  takes their least common denominator M and the integers M * mu_i;
- so a mass matrix, a difference matrix or a map sum is an integer
  matrix or sum over one known scale (such as M^2 den), and a result is
  one Fraction formed at the end, never a Fraction per entry.

The heuristic searches run on floats.  Each float is formed once per
distinct integer n, as the Python division n / scale, which is correctly
rounded and so equals float(Fraction(n, scale)).  Never form it as
float(n) / scale: beyond 2^53 that rounds twice.

Cut norm follows the block form of the rectangle supremum,

    cut_norm(W) = max_{S,T}  | sum_{i in S, j in T} mu_i mu_j W_ij |

over all pairs of block subsets.  When the mass matrix has no negative
entry (every validated graphon) or no positive entry, the full square
attains the maximum, so the cut norm is |total mass|; both modes return
that closed form in O(k^2) at any number of blocks.  Mixed-sign matrices
(perturbation directions, differences of graphons) take the general
path.  Exact mode groups the support into connected components with
``graphpoly``'s union-find (the maximum splits across components) and
enumerates subsets per component with Gray-code updates, up to 20
blocks; heuristic mode runs randomized alternating maximization and
certifies the best pair it finds with exact arithmetic, so it reports a
true lower bound.

Cut distance minimizes the cut norm of the difference over
measure-preserving relabelings of the cells of the common equal-measure
refinement, up to 4096 cells; beyond that only the overlay of the block
boundaries is left, at most k1 + k2 - 1 cells of unequal measure that no
relabeling may permute.  Exact mode gives the exact distance or refuses,
with no float: the identity alignment, whose norm is the same on every
common partition and so is evaluated on the overlay, is the distance
when it attains the permutation-invariant lower bound |total mass
difference| (this makes the rescaling diagnostics exact even at twenty
blocks) or when one side is constant; otherwise the relabelings of at
most 8 equal cells are enumerated.  Heuristic mode searches relabelings
of the equal cells on floats and reports the norm of the best alignment
it finds, exact or a certified rectangle.

Homomorphism densities sum over block colourings of the pattern's
vertices.  A vertex with an earlier neighbour only takes the colours in
the support of that neighbour's row, so the work follows the support of
W rather than all k colours per vertex.

Simple graphs are ``graphpoly.MultiGraph``s without loops or parallel
edges.  Their canonical code is the least sorted edge list over all
relabelings, found by the multigraph key's pruned search started from
one cell instead of the colour-refinement cells.  The fingerprint
catalogue is the loop-free, simple part of the multigraph corpus.
W-random graphs, the complete and path graphs, constant graphons, block
relabelings and the graph-to-graph density t(H, G) are test oracles and
inputs, in ``tests/graph_oracles.py``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .trees import ForestSum, Frozen, _as_coeff
from .graphpoly import MultiGraph, _groups, generate_connected_multigraphs, \
    least_edge_code, tree_to_graph

EXACT_CUTNORM_BLOCK_LIMIT = 20
EXACT_DISTANCE_BLOCK_LIMIT = 8
HEURISTIC_RESTARTS = 32
_EXACT_COMPONENT_CAP = 16  # exact norm per support component in distance search
_EQUAL_CELL_CAP = 4096  # beyond this, cut distance aligns on the interval overlay
_FEYNMAN_CELL_CAP = 4096  # feynman_graphon refuses more cells: its matrix is dense
_TRACE_RESTARTS = 2  # random restarts of each heuristic distance in a trace


class SizeError(ValueError):
    """A computation requested beyond its size guard."""


class RefinementError(ValueError):
    """Two graphons cannot be aligned exactly: the common equal-measure
    partition is too fine and the overlay alignment is not certified."""


class StepGraphon(Frozen):
    """Symmetric block step function with rational measures and values.

    The values are stored as integer numerators ``nums`` over one least
    common denominator ``den``."""

    __slots__ = ("measures", "den", "nums", "k")

    def __init__(self, measures, values, _direction: bool = False):
        vals = [[_as_coeff(v) for v in row] for row in values]
        den = lcm(*(v.denominator for row in vals for v in row))
        self._assign(measures, den,
                     [[v.numerator * (den // v.denominator) for v in row] for row in vals],
                     _direction)

    def _assign(self, measures, den: int, nums, direction: bool) -> None:
        """Validate and store; ``nums`` over ``den`` are reduced to the
        least common denominator."""
        mu = tuple(_as_coeff(m) for m in measures)
        if not mu:
            raise ValueError("graphon needs at least one block")
        if any(m <= 0 for m in mu):
            raise ValueError("block measures must be positive")
        if sum(mu) != 1:
            raise ValueError(f"block measures sum to {sum(mu)}, expected 1")
        k = len(mu)
        if len(nums) != k or any(len(row) != k for row in nums):
            raise ValueError("value matrix shape must match the number of blocks")
        g = gcd(den, *itertools.chain.from_iterable(nums))
        nums = tuple(tuple(n // g for n in row) for row in nums)
        for i, row in enumerate(nums):
            if any(row[j] != nums[j][i] for j in range(i)):
                raise ValueError("value matrix must be symmetric")
        den //= g
        if not direction and (min(map(min, nums)) < 0 or max(map(max, nums)) > den):
            raise ValueError("graphon values must lie in [0,1]")
        _set_slots(self, mu, den, nums)

    def __eq__(self, other):
        return (isinstance(other, StepGraphon) and self.measures == other.measures
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.measures, self.den, self.nums))

    def __repr__(self):
        return f"StepGraphon(k={self.k}, measures={[str(m) for m in self.measures]})"

    def is_constant(self) -> bool:
        v = self.nums[0][0]
        return all(row.count(v) == self.k for row in self.nums)

    def total_mass(self) -> Fraction:
        scale, m = _measure_weights(self)
        return Fraction(sum(mi * sum(map(mul, m, row)) for mi, row in zip(m, self.nums)),
                        scale * scale * self.den)

    def boundaries(self) -> list[Fraction]:
        return [Fraction(0), *itertools.accumulate(self.measures)]


def _trusted_graphon(measures: tuple, den: int, nums: tuple) -> StepGraphon:
    """Internal constructor for numerators already valid and over their
    least common denominator; nothing is checked."""
    return _set_slots(StepGraphon.__new__(StepGraphon), measures, den, nums)


def _set_slots(w: StepGraphon, measures: tuple, den: int, nums: tuple) -> StepGraphon:
    """Store the measures, numerators and block count of ``w``."""
    for name, value in (("measures", measures), ("den", den), ("nums", nums),
                        ("k", len(measures))):
        object.__setattr__(w, name, value)
    return w


def _measure_weights(w: StepGraphon):
    """(M, m): the least common denominator M of the block measures and
    the integers m_i = M * mu_i."""
    scale = lcm(*(m.denominator for m in w.measures))
    return scale, [m.numerator * (scale // m.denominator) for m in w.measures]


def direction(measures, values) -> StepGraphon:
    """A symmetric step function used as a perturbation direction; values
    may leave [0,1]."""
    return StepGraphon(measures, values, _direction=True)


# -- simple graphs --------------------------------------------------------------

class SimpleGraph(MultiGraph):
    """Simple undirected graph on vertices 0..n-1: a ``MultiGraph``
    without loops or parallel edges, its edges stored once each as
    (min, max) in sorted order.  Minors and components are plain
    ``MultiGraph``s, since they may have loops or parallel edges.  Its
    edge variables are ``MultiGraph``'s default 1..m, which is never
    stored, so a simple graph equals and hashes like the ``MultiGraph`` on
    its edges.  ``_trusted`` takes a tuple of edges already sorted,
    duplicate-free, in range and with u < v."""

    __slots__ = ()

    def __init__(self, n: int, edges):
        super().__init__(n, edges)
        if any(u == v for (u, v) in self.edges):
            raise ValueError("simple graphs have no loops")
        object.__setattr__(self, "edges", tuple(sorted(set(self.edges))))

    def canonical_code(self) -> str:
        """Labeling-invariant encoding: the smallest sorted edge list over
        all relabelings, as ``n:u-v,...``."""
        return f"{self.n}:" + ",".join(f"{u}-{v}" for (u, v) in least_edge_code(self))

    def disjoint_union(self, other: "SimpleGraph") -> "SimpleGraph":
        shifted = [(u + self.n, v + self.n) for (u, v) in other.edges]
        return SimpleGraph(self.n + other.n, list(self.edges) + shifted)


def graphon_from_graph(g: SimpleGraph) -> StepGraphon:
    """Equal blocks of measure 1/n with the adjacency matrix as values."""
    if g.n == 0:
        raise ValueError("empty graph has no graphon")
    rows = [[0] * g.n for _ in range(g.n)]
    for (u, v) in g.edges:
        rows[u][v] = rows[v][u] = 1
    return _trusted_graphon((Fraction(1, g.n),) * g.n, 1, tuple(map(tuple, rows)))


# -- Feynman graphons ------------------------------------------------------------

def feynman_graphon(y: ForestSum, coupling) -> StepGraphon:
    """Diagonal-block graphon model of a forest sum.

    Each grade-n monomial with integer coefficient c contributes c
    copies of its forest adjacency pattern as diagonal blocks with edge
    value (coupling)^n in (0, 1]; block measures are proportional
    to vertex counts (every vertex cell gets measure 1/total).  More
    than 4096 cells raise SizeError before the dense matrix is built.
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
    if total > _FEYNMAN_CELL_CAP:
        raise SizeError(f"Feynman graphon of {total} cells exceeds the limit of "
                        f"{_FEYNMAN_CELL_CAP} cells of its dense matrix")
    blocks = []  # (offset, edges, grade) of every tree copy with an edge
    offset = 0
    for f, c in monomials:
        graphs = [tree_to_graph(t) for t in f]
        for _ in range(c):
            for g in graphs:
                if g.edges:
                    blocks.append((offset, g.edges, f.grade))
                offset += g.n
    # edge values (coupling)^n <= 1 over the least common denominator of
    # the grades that have an edge
    value = {n: coupling ** n for _, _, n in blocks}
    den = lcm(*(v.denominator for v in value.values()))
    num = {n: v.numerator * (den // v.denominator) for n, v in value.items()}
    rows = [[0] * total for _ in range(total)]
    for offset, edges, n in blocks:
        x = num[n]
        for (u, v) in edges:
            rows[offset + u][offset + v] = rows[offset + v][offset + u] = x
    return _trusted_graphon((Fraction(1, total),) * total, den, tuple(map(tuple, rows)))


# -- cut norm ---------------------------------------------------------------------
#
# The matrices below are integer numerators over one scale, passed along
# with it: an entry n of a matrix with scale s stands for the mass n / s.

def _mass_numerators(w: StepGraphon):
    """The mass matrix mu_i mu_j W_ij of w as integers m_i m_j n_ij, and
    its scale M^2 den."""
    scale, m = _measure_weights(w)
    return ([[mi * mj * n for mj, n in zip(m, row)] for mi, row in zip(m, w.nums)],
            scale * scale * w.den)


def _component_extrema(mat: list[list[int]], comp: list[int]):
    """(max, min) of sum_{i in S, j in T} mat[i][j] over S,T subsets of comp."""
    p = len(comp)
    sub = [[mat[a][b] for b in comp] for a in comp]
    colsum = [0] * p
    pos = 0  # sum_j max(0, colsum_j)
    neg = 0  # sum_j min(0, colsum_j)
    best_max = 0
    best_min = 0
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
    return min(map(min, rows)) >= 0 or max(map(max, rows)) <= 0


def _cut_norm_exact_matrix(mat, scale: int, cap: int | None = None):
    """Exact cut norm of ``mat`` over ``scale`` as a Fraction, or None when
    a support component has more than ``cap`` cells."""
    k = len(mat)
    comps = _groups(k, [(i, j) for i, row in enumerate(mat)
                        for j in itertools.compress(range(i + 1, k), row[i + 1:])])
    if cap is not None and max(map(len, comps)) > cap:
        return None
    if _sign_definite(mat):
        # the full square sums every entry with one sign: nothing beats it
        return Fraction(abs(sum(map(sum, mat))), scale)
    total_max = 0
    total_min = 0
    for comp in comps:
        cmax, cmin = _component_extrema(mat, comp)
        total_max += cmax
        total_min += cmin
    return Fraction(max(total_max, -total_min), scale)


def _heuristic_pair(mf: np.ndarray, rng, restarts: int):
    """Alternating maximization of |s·M·t| over subset indicator pairs.

    Returns (float value, s, t) with boolean s and t; the caller
    certifies the pair exactly.  The indicators are multiplied as float64
    vectors, which every NumPy sends to BLAS (a bool operand need not be).
    """
    import numpy as np
    k = mf.shape[0]
    best_val = -1.0
    best_pair = (np.ones(k), np.ones(k))
    for sign in (1.0, -1.0):
        m = sign * mf
        mt = m.T
        starts = [np.ones(k)]
        for _ in range(restarts):
            starts.append(rng.integers(0, 2, k).astype(np.float64))
        for s in starts:
            for _ in range(40):
                t = (mt @ s > 0).astype(np.float64)
                s_new = (m @ t > 0).astype(np.float64)
                if s_new.tobytes() == s.tobytes():  # 0/1 entries: equal bytes
                    break
                s = s_new
            t = (mt @ s > 0).astype(np.float64)
            val = float(s @ m @ t)
            if val > best_val:
                best_val = val
                best_pair = (s, t)
    return best_val, best_pair[0] > 0, best_pair[1] > 0


def _value_codes(rows):
    """The distinct integers of ``rows`` and the matrix of their positions
    in that list."""
    import numpy as np
    pos = {n: i for i, n in enumerate(set().union(*rows))}
    k = len(rows)
    codes = np.fromiter(map(pos.__getitem__, itertools.chain.from_iterable(rows)),
                        dtype=np.intp, count=k * k)
    return list(pos), codes.reshape(k, k)


def _floats(table: list, scale: int):
    """The floats of table[i] / scale, each formed as a Python int
    division: correctly rounded, so equal to float(Fraction(n, scale))."""
    import numpy as np
    return np.array([n / scale for n in table])


def _rectangle_sum(table: list, codes) -> int:
    """Exact sum of the coded entries: one product per distinct value."""
    import numpy as np
    counts = np.bincount(codes.ravel(), minlength=len(table)).tolist()
    return sum(c * n for c, n in zip(counts, table) if c)


def _cut_norm_heuristic_matrix(mat, scale: int, restarts: int, seed: int) -> Fraction:
    """Randomized search on floats, exact evaluation of the chosen pair."""
    import numpy as np
    table, codes = _value_codes(mat)
    rng = np.random.Generator(np.random.Philox(key=seed))
    _, s, t = _heuristic_pair(_floats(table, scale)[codes], rng, restarts)
    return Fraction(abs(_rectangle_sum(table, codes[np.ix_(s, t)])), scale)


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
    if _sign_definite(w.nums):
        return abs(w.total_mass())
    if mode == "exact":
        if w.k > EXACT_CUTNORM_BLOCK_LIMIT:
            raise SizeError(
                f"exact cut norm limited to {EXACT_CUTNORM_BLOCK_LIMIT} blocks "
                f"(got {w.k}); use heuristic mode")
        return _cut_norm_exact_matrix(*_mass_numerators(w))
    return _cut_norm_heuristic_matrix(*_mass_numerators(w), restarts, seed)


# -- refinement and cut distance ---------------------------------------------------

def _equal_refinement_count(w: StepGraphon, u: StepGraphon) -> int:
    return lcm(*(b.denominator for g in (w, u) for b in g.boundaries()))


def _cell_blocks(w: StepGraphon, cells: int) -> list[int]:
    """The block of each of ``cells`` equal cells; ``cells`` is a multiple
    of every boundary denominator, so each block holds whole cells."""
    return [i for i, m in enumerate(w.measures)
            for _ in range(m.numerator * (cells // m.denominator))]


def _lift(g: StepGraphon, idx: list[int], measures: tuple) -> StepGraphon:
    """g on a finer partition whose cell c lies in block idx[c]; idx is
    non-decreasing and meets every block, so the denominator stays.
    Cells of one block share that block's (immutable) row."""
    if len(idx) == g.k:
        return g
    rows = [tuple(map(row.__getitem__, idx)) for row in g.nums]
    return _trusted_graphon(measures, g.den, tuple(rows[a] for a in idx))


def common_refinement(w: StepGraphon, u: StepGraphon):
    """Refine both graphons to the same equal-measure partition."""
    cells = _equal_refinement_count(w, u)
    mu = (Fraction(1, cells),) * cells
    return _lift(w, _cell_blocks(w, cells), mu), _lift(u, _cell_blocks(u, cells), mu)


def _overlay(w: StepGraphon, u: StepGraphon):
    """Both graphons on the overlay of their block boundaries: the
    coarsest common partition, at most w.k + u.k - 1 cells of unequal
    measure.  Every integral of a graphon is unchanged by the lift."""
    cuts = sorted(set(w.boundaries()) | set(u.boundaries()))
    mu = tuple(hi - lo for lo, hi in zip(cuts, cuts[1:]))

    def lift(g: StepGraphon) -> StepGraphon:
        bounds = g.boundaries()
        return _lift(g, [bisect_right(bounds, lo) - 1 for lo in cuts[:-1]], mu)

    return lift(w), lift(u)


def _difference_matrix(w: StepGraphon, u: StepGraphon, perm=None):
    """The mass matrix of W relabeled by ``perm`` minus that of U, on
    their common partition, as integers with their scale."""
    scale, m = _measure_weights(w)
    den = lcm(w.den, u.den)
    a, b = den // w.den, den // u.den
    if perm is None:
        perm = range(w.k)
    out = []
    for mi, p, urow in zip(m, perm, u.nums):
        wrow = w.nums[p]
        out.append([mi * mj * (a * wrow[q] - b * y) for mj, q, y in zip(m, perm, urow)])
    return out, scale * scale * den


def _distance_eval(mat, scale: int, seed: int) -> Fraction:
    """The exact norm when every support component has at most
    _EXACT_COMPONENT_CAP cells, else the certified heuristic rectangle."""
    val = _cut_norm_exact_matrix(mat, scale, _EXACT_COMPONENT_CAP)
    return _cut_norm_heuristic_matrix(mat, scale, HEURISTIC_RESTARTS, seed) \
        if val is None else val


def cut_distance(w: StepGraphon, u: StepGraphon, mode: str = "exact", *,
                 seed: int = 0, restarts: int = 8):
    """Cut distance: minimum over measure-preserving relabelings of the
    cut norm of the difference.  Relabelings permute the cells of the
    common equal-measure refinement, up to 4096 cells; beyond that only
    the overlay of the block boundaries is left, whose cells of unequal
    measure are never relabeled.

    Exact mode returns the distance or raises, and forms no float.  The
    identity alignment, evaluated on the overlay when every support
    component of its difference has at most 16 cells, is the distance
    when it equals the mass gap |mass(W) - mass(U)| (a lower bound on
    every alignment) or when one side is constant.  Otherwise the
    relabelings of at most 8 equal cells are enumerated; else SizeError
    is raised, or RefinementError beyond 4096 equal cells.

    Heuristic mode evaluates only the identity beyond 4096 equal cells.
    Otherwise it returns the identity when that is exact and attains the
    mass gap (at most 64 cells) or when one side is constant, else the
    best alignment of a seeded float search (swap descent from the
    identity plus random restarts).  A value is exact when the support
    components of its difference have at most 16 cells (and there are at
    most 64 cells), else that alignment's certified rectangle: a lower
    bound on its norm only.
    """
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}")
    cells = _equal_refinement_count(w, u)
    if mode == "heuristic":
        if cells > _EQUAL_CELL_CAP:
            return _distance_eval(*_difference_matrix(*_overlay(w, u)), seed)
        return _heuristic_distance(w, u, cells, seed, restarts)
    # the identity's norm is the same on every common partition: use the coarsest
    mat, scale = _difference_matrix(*_overlay(w, u))
    val = _cut_norm_exact_matrix(mat, scale, _EXACT_COMPONENT_CAP)
    mass_gap = Fraction(abs(sum(map(sum, mat))), scale)
    if val is not None and (val == mass_gap or w.is_constant() or u.is_constant()):
        return val
    if cells <= EXACT_DISTANCE_BLOCK_LIMIT:
        # cells of one block of w share their row, so the matrix depends
        # only on the block of each relabeled cell, and the first cell of
        # a block stands for all of them: one matrix per distinct block
        # sequence, the identity's already evaluated
        wr, ur = common_refinement(w, u)
        blocks = _cell_blocks(w, cells)
        first = {b: blocks.index(b) for b in set(blocks)}
        for seq in _block_sequences(blocks):
            val = min(val, _cut_norm_exact_matrix(
                *_difference_matrix(wr, ur, [first[b] for b in seq])))
            if val == mass_gap:
                break
        return val
    if cells > _EQUAL_CELL_CAP:
        raise RefinementError(
            f"common equal-measure partition needs {cells} blocks, limit is "
            f"{_EQUAL_CELL_CAP}, and the identity on the {len(mat)}-cell overlay "
            f"is not certified exact")
    raise SizeError(f"exact cut distance limited to {EXACT_DISTANCE_BLOCK_LIMIT} "
                    f"equal cells (got {cells}) when the identity alignment is "
                    f"not certified exact; use heuristic mode")


def _heuristic_distance(w, u, k: int, seed: int, restarts: int) -> Fraction:
    """Heuristic cut distance of w and u on their common refinement into
    k equal cells, which is built only when k is at most 64; see
    ``cut_distance``."""
    import numpy as np
    rng = np.random.Generator(np.random.Philox(key=seed))
    # a difference numerator over this scale is a cell's mass: cells are equal
    den = lcm(w.den, u.den)
    sw, su, scale = den // w.den, den // u.den, k * k * den
    # the distinct numerators of each side and the matrix of their
    # positions on the equal cells, coded once per block pair
    coded = []
    for g in (w, u):
        table, codes = _value_codes(g.nums)
        idx = np.asarray(_cell_blocks(g, k))
        coded.append((table, codes[np.ix_(idx, idx)]))
    (wt, wc), (ut, uc) = coded
    wf, uf = _floats(wt, w.den)[wc], _floats(ut, u.den)[uc]
    cell_sq = 1 / (k * k)

    def search_matrix(perm):
        idx = np.asarray(perm)
        return idx, (wf[np.ix_(idx, idx)] - uf) * cell_sq

    def certified(perm) -> Fraction:
        # float search for a good rectangle, exact evaluation of that
        # rectangle: a true lower bound on the norm, reported as the
        # distance value for this alignment
        idx, mfd = search_matrix(perm)
        _, s, t = _heuristic_pair(mfd, rng, 6)
        rows, cols = np.flatnonzero(s), np.flatnonzero(t)
        total = sw * _rectangle_sum(wt, wc[np.ix_(idx[rows], idx[cols])]) \
            - su * _rectangle_sum(ut, uc[np.ix_(rows, cols)])
        return Fraction(abs(total), scale)

    small = k <= 64
    if small:
        wr, ur = common_refinement(w, u)
        id_mat, _ = _difference_matrix(wr, ur)
        id_val = _cut_norm_exact_matrix(id_mat, scale, _EXACT_COMPONENT_CAP)
        if id_val is None:
            id_val = _cut_norm_heuristic_matrix(id_mat, scale, HEURISTIC_RESTARTS, seed)
        elif id_val == Fraction(abs(sum(map(sum, id_mat))), scale):
            return id_val  # exact and attaining the mass gap: the distance
    else:
        id_val = certified(list(range(k)))

    # a constant graphon is invariant under every relabeling
    if w.is_constant() or u.is_constant():
        return id_val

    # search permutations on a float score, then evaluate the winner once
    # with exact arithmetic (or a certified lower bound)
    def score(perm) -> float:
        val, _, _ = _heuristic_pair(search_matrix(perm)[1], rng, 4)
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
        final = _distance_eval(*_difference_matrix(wr, ur, best_perm), seed)
    else:
        final = certified(best_perm)
    if best_perm != list(range(k)) and id_val < final:
        return id_val
    return final


def _block_sequences(blocks: list[int]):
    """The distinct rearrangements of the non-decreasing ``blocks`` after
    ``blocks`` itself, in lexicographic order (the multiset permutations,
    by the next-permutation step)."""
    a = list(blocks)
    while True:
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]
        yield tuple(a)


# -- homomorphism densities ----------------------------------------------------------

def _weighted_map_sum(nv: int, edge_mats, k: int, mu):
    """sum over maps [nv] -> [k] of prod mu_phi(v) prod mat_e[phi(a)][phi(b)].

    ``edge_mats`` is a list of (a, b, matrix) with a < b.  A vertex with
    earlier neighbours only takes the colours in the support of one of
    their rows (the shortest): every other colour makes the product zero.
    Exact for int or Fraction entries.
    """
    supports = {}
    edges_at: list[list[tuple[int, object, list]]] = [[] for _ in range(nv)]
    for (a, b, mat) in edge_mats:
        supp = supports.get(id(mat))
        if supp is None:
            supp = supports[id(mat)] = [list(itertools.compress(range(k), row))
                                        for row in mat]
        edges_at[max(a, b)].append((min(a, b), mat, supp))
    every = range(k)
    total = 0
    assign = [0] * nv

    def rec(depth: int, acc):
        nonlocal total
        if depth == nv:
            total += acc
            return
        at = edges_at[depth]
        colours = min((supp[assign[a]] for (a, _, supp) in at), key=len) \
            if at else every
        for c in colours:
            term = acc * mu[c]
            assign[depth] = c
            ok = True
            for (a, mat, _) in at:
                term = term * mat[assign[a]][c]
                if not term:
                    ok = False
                    break
            if ok:
                rec(depth + 1, term)

    rec(0, 1)
    return total


def hom_density(h: SimpleGraph, w: StepGraphon) -> Fraction:
    """Exact homomorphism density t(H, W): an integer map sum over the
    integer measures and numerators, divided once."""
    scale, m = _measure_weights(w)
    mats = [(a, b, w.nums) for (a, b) in h.edges]
    return Fraction(_weighted_map_sum(h.n, mats, w.k, m),
                    scale ** h.n * w.den ** len(mats))


def gateaux_density_derivative(h: SimpleGraph, w: StepGraphon,
                               d: StepGraphon) -> Fraction:
    """Directional derivative of t(H, .) at W in direction D.

    Exactly the edge-sum formula: for each edge of H replace W by D on
    that edge and keep W on the others.  When D lives on another
    partition, both are lifted to the overlay of their boundaries first.
    Every term is an integer map sum over the same scale, divided once.
    """
    if d.measures != w.measures:
        w, d = _overlay(w, d)
    edges = list(h.edges)
    if not edges:
        return Fraction(0)
    scale, m = _measure_weights(w)
    total = 0
    for idx in range(len(edges)):
        mats = [(a, b, d.nums if i == idx else w.nums)
                for i, (a, b) in enumerate(edges)]
        total += _weighted_map_sum(h.n, mats, w.k, m)
    return Fraction(total, scale ** h.n * w.den ** (len(edges) - 1) * d.den)


def perturb(w: StepGraphon, d: StepGraphon, eps) -> StepGraphon:
    """W + eps*D (values must stay in [0,1]); when D lives on another
    partition, both are lifted to the overlay of their boundaries first."""
    eps = _as_coeff(eps)
    if d.measures != w.measures:
        w, d = _overlay(w, d)
    # over w.den * d.den * eps.denominator
    a, b = d.den * eps.denominator, eps.numerator * w.den
    out = StepGraphon.__new__(StepGraphon)
    out._assign(w.measures, w.den * a,
                [[a * x + b * y for x, y in zip(wrow, drow)]
                 for wrow, drow in zip(w.nums, d.nums)], False)
    return out


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


def density_fingerprint(w: StepGraphon, level: int) -> tuple:
    """Fingerprint of W: the (canonical code, homomorphism density) rows of
    the connected graphs with at most ``level`` edges."""
    return tuple((h.canonical_code(), hom_density(h, w))
                 for h in connected_graphs_up_to(level))


# -- solution-series diagnostics --------------------------------------------------------

def convergence_trace(sol, m: int, mode: str = "heuristic", *, seed: int = 0) -> list:
    """Successive cut distances of the Feynman graphons of the partial
    structural sums Y_1..Y_m at the solution's coupling.  Y_m, the
    largest, is built first, so a size refusal comes before any other
    work; then two graphons are live at a time."""
    from .dse import structural_sum
    if m < 1 or m > sol.order:
        raise ValueError(f"trace needs 1 <= m <= {sol.order}")
    last = feynman_graphon(structural_sum(sol, m), sol.coupling)
    out, prev = [], None
    for i in range(1, m + 1):
        cur = last if i == m else feynman_graphon(structural_sum(sol, i), sol.coupling)
        if prev is not None:
            out.append(cut_distance(prev, cur, mode, seed=seed, restarts=_TRACE_RESTARTS))
        prev = cur
    return out
