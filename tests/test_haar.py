"""Ranked-universe metric group and its fair-coin product measure.

Statistical assertions use pinned seeds, so every bound below was
checked once against the frozen stream and is deterministic in CI.
"""

import itertools
import json
from fractions import Fraction as F
from math import sqrt

import numpy as np
import pytest

from dsegraphon import haar
from dsegraphon.cli import main
from dsegraphon.haar import (BallEstimate, SolutionPoint, VertexUniverse,
                             ball_measure_mc, distance, group_op,
                             ks_critical_value, norm,
                             norm_uniformity_statistic, sample_haar)


U8 = VertexUniverse(8)


def test_universe_validation():
    with pytest.raises(ValueError):
        VertexUniverse(0)


def test_points_from_ranks():
    u = VertexUniverse(4)
    assert u.point_from_ranks([1, 3]) == SolutionPoint(u, 0b101)
    assert u.point_from_ranks() == u.identity() == SolutionPoint(u, 0)
    with pytest.raises(ValueError):
        u.point_from_ranks([5])
    with pytest.raises(ValueError):
        SolutionPoint(u, 1 << 4)


def test_group_op_examples():
    x = U8.point_from_ranks([1, 2])
    y = U8.point_from_ranks([2, 3])
    assert group_op(x, y) == U8.point_from_ranks([1, 3])
    assert group_op(x, U8.identity()) == x
    assert group_op(x, x) == U8.identity()
    assert group_op(x, y) == group_op(y, x)
    with pytest.raises(ValueError):
        group_op(x, VertexUniverse(9).identity())


def test_distance_examples():
    x = U8.point_from_ranks([1])
    assert distance(x, x) == 0
    assert distance(x, U8.identity()) == F(1, 2)
    a = U8.point_from_ranks([1, 2])
    b = U8.point_from_ranks([2, 3])
    assert distance(a, b) == F(5, 8)  # symmetric difference {1, 3}
    # base g + eps = 3
    assert distance(a, U8.identity(), g=2, eps=1) == F(1, 3) + F(1, 9)
    with pytest.raises(ValueError):
        distance(a, b, g=F(1, 2))
    with pytest.raises(ValueError):
        distance(a, b, eps=0)


def test_norm_examples():
    assert norm(U8.identity()) == 0
    assert norm(U8.point_from_ranks([1])) == F(1, 2)
    full = SolutionPoint(U8, 2 ** 8 - 1)
    assert norm(full) == 1 - F(1, 256)
    assert norm(SolutionPoint(VertexUniverse(20), 2 ** 20 - 1)) == 1 - F(1, 2 ** 20)
    assert norm(full, g=2, eps=1) == (1 - F(1, 3 ** 8)) / 2


def test_metric_properties_random_triples():
    import random
    rng = random.Random(424242)
    u = VertexUniverse(16)
    for _ in range(200):
        x = SolutionPoint(u, rng.getrandbits(16))
        y = SolutionPoint(u, rng.getrandbits(16))
        z = SolutionPoint(u, rng.getrandbits(16))
        g, e = rng.choice([(1, 1), (1, F(1, 2)), (2, F(1, 3))])
        dxy = distance(x, y, g, e)
        # translation invariance
        assert distance(group_op(x, z), group_op(y, z), g, e) == dxy
        # symmetry, identity, triangle
        assert distance(y, x, g, e) == dxy
        assert (dxy == 0) == (x == y)
        assert distance(x, z, g, e) <= dxy + distance(y, z, g, e)


def test_sampling_determinism():
    a = sample_haar(24, seed=7)
    b = sample_haar(24, seed=7)
    assert a == b
    assert sample_haar(24, seed=8) != a


def test_sampling_rank_frequencies_and_independence():
    n, depth = 100_000, 8
    masks = np.array([sample_haar(depth, seed=s).mask for s in range(n)],
                     dtype=np.uint64)
    bits = np.stack([(masks >> np.uint64(r - 1)) & np.uint64(1)
                     for r in range(1, depth + 1)], axis=1).astype(np.float64)
    freqs = bits.mean(axis=0)
    three_sigma = 3 * sqrt(0.25 / n)
    assert np.all(np.abs(freqs - 0.5) <= three_sigma)
    corr = np.corrcoef(bits, rowvar=False)
    for i, j in itertools.combinations(range(depth), 2):
        assert abs(corr[i, j]) <= 3 / sqrt(n)


def test_ball_measure_examples():
    est = ball_measure_mc(F(1, 2), depth=24, samples=100_000, seed=0)
    assert isinstance(est, BallEstimate)
    assert est.samples == 100_000
    assert abs(float(est.estimate) - 0.5) <= 3 * est.stderr + 2 ** -24
    assert est.within_tolerance()
    assert ball_measure_mc(F(1), depth=20, samples=1000).estimate == 1
    low = ball_measure_mc(F(0), depth=20, samples=1000)
    assert low.estimate <= F(low.tolerance()).limit_denominator(10 ** 9)


def test_ball_measure_sweep():
    for r in (F(1, 10), F(1, 4), F(1, 2), F(3, 4), F(9, 10)):
        est = ball_measure_mc(r, depth=24, samples=100_000, seed=0)
        assert est.within_tolerance(), (r, est.estimate, est.tolerance())


def test_ball_measure_validation():
    with pytest.raises(ValueError):
        ball_measure_mc(F(3, 2))
    with pytest.raises(ValueError):
        ball_measure_mc(F(1, 2), samples=0)
    with pytest.raises(ValueError):
        ball_measure_mc(F(1, 2), depth=63)


def test_norm_pushforward_is_uniform():
    stat = norm_uniformity_statistic(depth=24, samples=100_000, seed=0)
    assert stat < ks_critical_value(100_000, alpha=0.01)
    with pytest.raises(ValueError):
        ks_critical_value(100_000, alpha=0.02)


def test_sample_size_validation():
    for n in (0, -5):
        with pytest.raises(ValueError, match="at least one sample"):
            norm_uniformity_statistic(depth=24, samples=n)
        with pytest.raises(ValueError, match="at least one sample"):
            ks_critical_value(n)


# -- one shared, chunked draw per run ---------------------------------------------------

def _one_block_norms(depth, n, seed):
    """The whole (n, depth) coin matrix in one draw, reduced to norms."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    weights = np.array([1 << (depth - r) for r in range(1, depth + 1)],
                       dtype=np.uint64)
    return rng.integers(0, 2, (n, depth), dtype=np.uint64) @ weights


@pytest.mark.parametrize("depth", [1, 7, 24, 62])
def test_chunked_draw_equals_one_block(depth):
    chunk = haar._CHUNK_ROWS
    for n in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        got = haar._draw_norm_ints(depth, n, 3)
        assert got.dtype == np.uint64 and got.shape == (n,)
        assert np.array_equal(got, _one_block_norms(depth, n, 3)), n
        shared = haar._sample_norm_ints(depth, n, 3)
        assert np.array_equal(shared, np.sort(_one_block_norms(depth, n, 3))), n
        assert not shared.flags.writeable


def test_ks_statistic_matches_scipy():
    from scipy import stats
    for depth in (1, 24, 62):
        for samples in (1, 2, 100_000):
            for seed in (0, 1, 7):
                ints = haar._sample_norm_ints(depth, samples, seed)
                values = ints.astype(np.float64) / float(1 << depth)
                want = float(stats.kstest(values, "uniform").statistic)
                got = norm_uniformity_statistic(depth, samples, seed)
                # bit for bit: the document records repr(statistic)
                assert repr(got) == repr(want), (depth, samples, seed)


def test_haar_run_draws_once(monkeypatch, capsys):
    draws = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        draws.append(kwargs.get("key"))
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    haar._sample_norm_ints.cache_clear()
    assert main(["haar", "--samples", "5000", "--seed", "9"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["results"]["balls"]) == 5  # the default radii
    assert draws == [9]


def test_shared_draw_is_read_only():
    ints = haar._sample_norm_ints(24, 1000, 0)
    assert not ints.flags.writeable
    with pytest.raises(ValueError):
        ints[0] = 1
    assert haar._sample_norm_ints(24, 1000, 0) is ints


def test_sweep_holds_eight_bytes_per_sample():
    """Three radii and the KS statistic over one draw trace at most one
    uint64 per sample plus a fixed working set of chunks."""
    import tracemalloc
    n = 200_000
    haar._sample_norm_ints.cache_clear()
    tracemalloc.start()
    try:
        for r in (F(1, 4), F(1, 2), F(3, 4)):
            ball_measure_mc(r, depth=24, samples=n, seed=0)
        norm_uniformity_statistic(24, n, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n + (4 << 20), peak
