"""Compact abelian model of solution space: ranked universe, invariant
metric, symmetric-difference group, and Haar sampling.

A universe is a countable set of items ranked 1, 2, ..., truncated at
depth m.  Points are subsets, encoded as bitmasks over ranks 1..m.
The metric weights rank r by base^(-r) for a rational base >= 1; at
base 2 the norm map sends the Haar (fair-coin product) measure to
Lebesgue measure on [0,1], which is what the ball-measure Monte Carlo
checks: mu(ball of radius r around the identity) = r up to a 2^-m
truncation term and binomial noise.  The metric is invariant under the
group, d(x, y) = norm(x + y), so a ball around any point has the
measure of the ball around the identity; at depth m that is an exact
count over all 2^m points, which acceptance criterion 9 makes at m = 10.

Each run draws its sample once: the norms of ``samples`` coin vectors
come from one Philox stream, drawn in fixed row chunks so memory stays
bounded, and the last draw is kept sorted, so every radius of a sweep is
one binary search and the Kolmogorov-Smirnov statistic one chunked walk
over the same array.  A sweep holds 8 bytes per sample (one uint64 norm)
plus a fixed working set of about 2 MB.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import sqrt

from .trees import Record, _as_coeff


class VertexUniverse(Record):
    """Ranked universe truncated at ``depth``; ranks run 1..depth."""

    _fields = ("depth",)

    def __init__(self, depth: int):
        if not isinstance(depth, int) or depth < 1:
            raise ValueError("depth must be a positive integer")
        super().__init__(depth)

    def point_from_ranks(self, ranks=()) -> "SolutionPoint":
        mask = 0
        for r in ranks:
            if not (1 <= r <= self.depth):
                raise ValueError(f"rank {r} outside 1..{self.depth}")
            mask |= 1 << (r - 1)
        return SolutionPoint(self, mask)

    def identity(self) -> "SolutionPoint":
        return SolutionPoint(self, 0)


class SolutionPoint(Record):
    """Subset of a ranked universe, the bitmask of its ranks; a group
    element under symmetric difference with the empty set as identity."""

    _fields = ("universe", "mask")

    def __init__(self, universe: VertexUniverse, mask: int):
        if not (0 <= mask < (1 << universe.depth)):
            raise ValueError("bitset exceeds universe depth")
        super().__init__(universe, mask)


def _require_shared(x: SolutionPoint, y: SolutionPoint):
    if x.universe != y.universe:
        raise ValueError("points live in different universes")


def _base(g, eps) -> Fraction:
    g = _as_coeff(g)
    eps = _as_coeff(eps)
    if g < 1:
        raise ValueError("coupling weight g must be >= 1")
    if eps <= 0:
        raise ValueError("regulator must be positive")
    return g + eps


def group_op(x: SolutionPoint, y: SolutionPoint) -> SolutionPoint:
    """Symmetric difference; every element is its own inverse."""
    _require_shared(x, y)
    return SolutionPoint(x.universe, x.mask ^ y.mask)


def distance(x: SolutionPoint, y: SolutionPoint, g=1, eps=1) -> Fraction:
    """d(X, Y) = sum over the symmetric difference of (g+eps)^-rank."""
    _require_shared(x, y)
    b = _base(g, eps)
    diff = x.mask ^ y.mask
    total = Fraction(0)
    r = 1
    while diff:
        if diff & 1:
            total += b ** (-r)
        diff >>= 1
        r += 1
    return total


def norm(x: SolutionPoint, g=1, eps=1) -> Fraction:
    """Distance from the identity; the binary-expansion map when g+eps=2."""
    return distance(x, x.universe.identity(), g, eps)


def sample_haar(depth: int, seed: int = 0) -> SolutionPoint:
    """One Haar sample: an independent fair coin per rank."""
    norm_int = int(_draw_norm_ints(depth, 1, seed)[0])
    # the integer holds the coin of rank r at weight 2^(depth-r)
    return VertexUniverse(depth).point_from_ranks(
        r for r in range(1, depth + 1) if norm_int >> (depth - r) & 1)


# rows of coins drawn, and sorted norms walked, at a time: 2^12 rows of
# 62 uint64 coins are 2 MB
_CHUNK_ROWS = 1 << 12


def _draw_norm_ints(depth: int, n: int, seed: int) -> np.ndarray:
    """n independent samples in draw order, each reduced to the integer
    round(2^depth * norm): the bit at rank r contributes 2^(depth-r).

    One counter-based stream per master seed.  The coin matrix is drawn
    in row chunks; the stream is sequential, so the norms equal those of
    a single (n, depth) block.
    """
    import numpy as np
    if depth < 1 or depth > 62:
        raise ValueError("depth must lie in 1..62")
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.Generator(np.random.Philox(key=seed))
    weights = np.array([1 << (depth - r) for r in range(1, depth + 1)],
                       dtype=np.uint64)
    out = np.empty(n, dtype=np.uint64)
    for lo in range(0, n, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, n)
        np.matmul(rng.integers(0, 2, size=(hi - lo, depth), dtype=np.uint64),
                  weights, out=out[lo:hi])
    return out


@lru_cache(maxsize=1)
def _sample_norm_ints(depth: int, n: int, seed: int) -> np.ndarray:
    """The run's shared draw: ``_draw_norm_ints`` sorted in place.  The
    last draw is cached and returned read-only, so callers sharing it
    cannot corrupt it."""
    out = _draw_norm_ints(depth, n, seed)
    out.sort()
    out.flags.writeable = False
    return out


class BallEstimate(Record):
    """Monte-Carlo estimate of the Haar measure of a closed ball around
    the identity at base 2."""

    _fields = ("r", "hits", "samples", "depth", "seed")

    @property
    def estimate(self) -> Fraction:
        return Fraction(self.hits, self.samples)

    @property
    def stderr(self) -> float:
        p = self.hits / self.samples
        return sqrt(max(p * (1 - p), 1e-12) / self.samples)

    def tolerance(self) -> float:
        """3 sigma plus the 2^-depth truncation bias."""
        return 3 * self.stderr + 2.0 ** (-self.depth)

    def within_tolerance(self) -> bool:
        return abs(float(self.estimate) - float(self.r)) <= self.tolerance()


def ball_measure_mc(r, depth: int = 24, samples: int = 100_000,
                    seed: int = 0) -> BallEstimate:
    """Fraction of Haar samples with norm <= r at base 2.

    The comparison norm <= r is exact: norms are integers over 2^depth
    and the threshold is floor(r * 2^depth).
    """
    r = _as_coeff(r)
    if not (0 <= r <= 1):
        raise ValueError("radius must lie in [0, 1]")
    import numpy as np
    ints = _sample_norm_ints(depth, samples, seed)
    threshold = (r.numerator << depth) // r.denominator
    hits = int(np.searchsorted(ints, np.uint64(threshold), side="right"))
    return BallEstimate(r=r, hits=hits, samples=samples, depth=depth, seed=seed)


def norm_uniformity_statistic(depth: int = 24, samples: int = 100_000,
                              seed: int = 0) -> float:
    """Kolmogorov-Smirnov statistic of the empirical norm distribution
    against uniform [0,1]; small iff the norm map pushes Haar to
    Lebesgue, as claimed.

    Walks the run's sorted shared draw x_1 <= ... <= x_n in chunks and
    computes D = max(D+, D-) directly, D+ = max(i/n - x_i) and
    D- = max(x_i - (i-1)/n), in the float arithmetic of
    ``scipy.stats.kstest(values, "uniform")``, which the tests hold it to.
    No array of n floats is built: each chunk forms its own x_i and i/n.
    """
    import numpy as np
    ints = _sample_norm_ints(depth, samples, seed)
    n = ints.shape[0]
    scale = float(1 << depth)
    d_plus = d_minus = -np.inf
    for lo in range(0, n, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, n)
        x = ints[lo:hi].astype(np.float64)
        x /= scale
        steps = np.arange(lo, hi + 1, dtype=np.float64)
        steps /= n  # steps[k] = (lo + k)/n
        d_plus = max(d_plus, (steps[1:] - x).max())
        d_minus = max(d_minus, (x - steps[:-1]).max())  # x_1 - 0/n = x_1
    return float(max(d_plus, d_minus))


def ks_critical_value(samples: int, alpha: float = 0.01) -> float:
    """Asymptotic one-sample KS critical value."""
    coeff = {0.10: 1.224, 0.05: 1.358, 0.01: 1.628}.get(alpha)
    if coeff is None:
        raise ValueError("alpha must be one of 0.10, 0.05, 0.01")
    if samples < 1:
        raise ValueError("need at least one sample")
    return coeff / sqrt(samples)
