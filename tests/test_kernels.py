import math
import random

import numpy as np
import pytest

from apexp.circmath import (METRIC_CYLINDER, METRIC_EUCLIDEAN, METRIC_TORUS,
                            dist)
from apexp.kernels import (FIRST_CHUNK, _chunks, almost_period_sup,
                           kron_scan_grid, kron_scan_integer)

# ---------------------------------------------------------------------------
# brute-force oracles in pure Python, one point or one time at a time


def _circ(d):
    d = d % 1.0
    return min(d, 1.0 - d)


def _first(ts, vals, targs, eps):
    """First t of the iterable ts with every frac(vals[j]*t) within eps
    of targs[j] on the circle; NaN if none.  The test is inlined so the
    long oracle scans below stay affordable."""
    pairs = list(zip(vals, targs))
    for t in ts:
        for v, x in pairs:
            d = (v * t - x) % 1.0
            if not min(d, 1.0 - d) < eps:
                break
        else:
            return t
    return math.nan


def oracle_scan_grid(vals, targs, eps, t0, t1, step):
    n = math.floor((t1 - t0) / step) + 1
    return _first((t0 + i * step for i in range(n)), vals, targs, eps)


def oracle_scan_integer(vals, targs, eps, offset, n0, n1):
    return _first((n + offset for n in range(n0, n1 + 1)), vals, targs, eps)


def oracle_dist(p, q, kind):
    circ = [_circ(a - b) for a, b in zip(p, q)]
    if kind == METRIC_EUCLIDEAN:
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))
    if kind == METRIC_TORUS:
        return max(circ)
    return max(circ[0], math.sqrt(sum((a - b) ** 2 for a, b in zip(p[1:], q[1:]))))


def same(got, ref):
    """Bit-exact equality, with NaN (no hit) equal to NaN."""
    return got == ref or (math.isnan(got) and math.isnan(ref))


class TestBackendAgreement:
    """The numpy kernels agree with the brute-force oracles above: the
    scans bit for bit, the almost-period sweep within 1e-12."""

    def test_grid_scan(self):
        vals = [math.sqrt(2.0) / 2.0, math.sqrt(3.0)]
        targs = [0.1, 0.7]
        for eps in (0.2, 0.05, 0.01):
            got = kron_scan_grid(vals, targs, eps, 0.0, 5e3, eps / 8.0)
            assert not math.isnan(got)
            assert got == oracle_scan_grid(vals, targs, eps, 0.0, 5e3, eps / 8.0)

    def test_grid_scan_past_first_chunk(self):
        # the first hit lies beyond the first 2**18 grid points
        vals = [math.sqrt(2.0) / 2.0, math.sqrt(3.0)]
        targs = [0.05, 0.7]
        eps = 0.002
        got = kron_scan_grid(vals, targs, eps, 0.0, 5e3, eps / 8.0)
        assert got > 2 ** 18 * eps / 8.0
        assert got == oracle_scan_grid(vals, targs, eps, 0.0, 5e3, eps / 8.0)

    def test_grid_scan_miss(self):
        vals = [1.0, 2.0]
        targs = [0.0, 0.5]  # unreachable combination
        got = kron_scan_grid(vals, targs, 0.01, 0.0, 100.0, 0.001)
        assert math.isnan(got)
        assert math.isnan(oracle_scan_grid(vals, targs, 0.01, 0.0, 100.0, 0.001))

    def test_scan_ranges_include_their_end(self):
        assert kron_scan_grid([1.0], [0.5], 0.01, 0.0, 0.5, 0.25) == 0.5
        assert kron_scan_integer([0.5], [0.5], 0.01, 0.0, 2, 3) == 3.0

    def test_integer_scan(self):
        vals = [math.sqrt(2.0) / 2.0]
        targs = [0.3]
        for eps in (0.1, 0.01, 0.002):
            got = kron_scan_integer(vals, targs, eps, 0.25, 1, 10 ** 6)
            assert not math.isnan(got) and got == int(got) + 0.25
            assert got == oracle_scan_integer(vals, targs, eps, 0.25, 1, 10 ** 6)

    def test_integer_scan_negative_range(self):
        vals = [math.pi]
        targs = [0.4]
        got = kron_scan_integer(vals, targs, 0.05, 0.0, -500, 500)
        assert got < 0
        assert got == oracle_scan_integer(vals, targs, 0.05, 0.0, -500, 500)

    def test_integer_scan_seeded(self):
        rng = random.Random(5)
        firsts = set()
        for _ in range(12):
            d = rng.randint(0, 2)
            vals = [math.sqrt(rng.choice([2, 3, 5, 7, 11])) / rng.randint(1, 4)
                    for _ in range(d)]
            targs = [rng.random() for _ in range(d)]
            eps = rng.choice([0.2, 0.05, 0.01])
            offset = rng.random()
            n0 = rng.randint(-2000, 2000)
            n1 = n0 + rng.randint(0, 3000)
            got = kron_scan_integer(vals, targs, eps, offset, n0, n1)
            ref = oracle_scan_integer(vals, targs, eps, offset, n0, n1)
            assert same(got, ref), (vals, targs, eps, offset, n0, n1)
            if not math.isnan(got):
                firsts.add(got)
        assert len(firsts) > 6  # the cases do not all share one answer

    def test_grid_scan_seeded(self):
        rng = random.Random(8)
        firsts = set()
        for _ in range(12):
            vals = [math.sqrt(rng.choice([2, 3, 5, 7])) * rng.choice([-1, 1])
                    for _ in range(rng.randint(1, 2))]
            targs = [rng.random() for _ in vals]
            eps = rng.choice([0.2, 0.05, 0.02])
            t0 = rng.uniform(-50.0, 50.0)
            step = eps / rng.choice([4.0, 8.0])
            got = kron_scan_grid(vals, targs, eps, t0, t0 + 200.0, step)
            ref = oracle_scan_grid(vals, targs, eps, t0, t0 + 200.0, step)
            assert same(got, ref), (vals, targs, eps, t0, step)
            if not math.isnan(got):
                firsts.add(got)
        assert len(firsts) > 6

    @pytest.mark.parametrize("kind", [METRIC_EUCLIDEAN, METRIC_TORUS,
                                      METRIC_CYLINDER])
    def test_almost_period_sup(self, kind):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 1, size=(120, 3))
        n_tau = 50
        base = len(pts) - n_tau
        ref = [max(oracle_dist(pts[i], pts[i + k], kind) for i in range(base))
               for k in range(1, n_tau + 1)]
        np.testing.assert_allclose(almost_period_sup(pts, n_tau, kind), ref,
                                   rtol=0, atol=1e-12)


# first and last point of each of the first three chunks (1024, 2048 and
# 4096 points)
CHUNK_EDGES = [0, 2 ** 10 - 1, 2 ** 10, 3 * 2 ** 10 - 1, 3 * 2 ** 10,
               7 * 2 ** 10 - 1]


class TestChunkSchedule:
    """The scans grow their chunk from FIRST_CHUNK points, doubling up to
    a cap; hits at the chunk edges, short and empty ranges and a miss
    past the cap agree bit for bit with the oracles."""

    def test_chunk_sizes(self):
        assert FIRST_CHUNK == 2 ** 10
        n = 2 ** 21 + 2 ** 20 + 5000
        chunks = list(_chunks(n, 2 ** 20))
        assert [b - a for a, b in chunks] == [2 ** k for k in range(10, 21)] + [
            2 ** 20, 5000 + 2 ** 10]
        assert chunks[0][0] == 0 and chunks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))

    # v = 2**-16 makes every v * t exact, so the only hit in range is the
    # planted point at index k

    @pytest.mark.parametrize("k", CHUNK_EDGES)
    def test_integer_hit_at_chunk_edge(self, k):
        n0, offset, v = -3000, 0.25, 2.0 ** -16
        targ = (v * (n0 + k + offset)) % 1.0
        args = ([v], [targ], 2.0 ** -17, offset, n0, n0 + 8 * 2 ** 10)
        got = kron_scan_integer(*args)
        assert got == n0 + k + offset
        assert got == oracle_scan_integer(*args)

    @pytest.mark.parametrize("k", CHUNK_EDGES)
    def test_grid_hit_at_chunk_edge(self, k):
        t0, step, v = -37.5, 0.5, 2.0 ** -16
        targ = (v * (t0 + k * step)) % 1.0
        args = ([v], [targ], 2.0 ** -18, t0, t0 + 8 * 2 ** 10 * step, step)
        got = kron_scan_grid(*args)
        assert got == t0 + k * step
        assert got == oracle_scan_grid(*args)

    def test_range_shorter_than_first_chunk(self):
        v = 2.0 ** -16
        hit = ([v], [(v * 300) % 1.0], 2.0 ** -17, 0.0, 5, 300)
        assert kron_scan_integer(*hit) == oracle_scan_integer(*hit) == 300.0
        miss = ([v], [(v * 301) % 1.0], 2.0 ** -17, 0.0, 5, 300)
        assert math.isnan(kron_scan_integer(*miss))
        assert math.isnan(oracle_scan_integer(*miss))
        hit = ([v], [(v * 74.5) % 1.0], 2.0 ** -18, 2.0, 74.5, 0.5)
        assert kron_scan_grid(*hit) == oracle_scan_grid(*hit) == 74.5

    def test_empty_range(self):
        assert math.isnan(kron_scan_integer([], [], 0.5, 0.0, 5, 4))
        assert math.isnan(oracle_scan_integer([], [], 0.5, 0.0, 5, 4))
        assert math.isnan(kron_scan_grid([1.0], [0.0], 0.5, 5.0, 4.0, 0.25))
        assert math.isnan(oracle_scan_grid([1.0], [0.0], 0.5, 5.0, 4.0, 0.25))

    def test_miss_past_the_cap(self):
        # frac(1.0 * t) stays 0 on integer times, never near the target 0.5
        n1 = 2 ** 21 + 5000  # past the 2**20-point cap of the integer scan
        assert math.isnan(kron_scan_integer([1.0], [0.5], 0.25, 0.0, 0, n1))
        assert math.isnan(oracle_scan_integer([1.0], [0.5], 0.25, 0.0, 0, n1))
        t1 = 2.0 ** 19 + 1000  # past the 2**18-point cap of the grid scan
        assert math.isnan(kron_scan_grid([1.0], [0.5], 0.25, 0.0, t1, 1.0))
        assert math.isnan(oracle_scan_grid([1.0], [0.5], 0.25, 0.0, t1, 1.0))


@pytest.mark.parametrize("kind,d", [(METRIC_EUCLIDEAN, 1), (METRIC_EUCLIDEAN, 3),
                                    (METRIC_TORUS, 1), (METRIC_TORUS, 3),
                                    (METRIC_CYLINDER, 1), (METRIC_CYLINDER, 2),
                                    (METRIC_CYLINDER, 3)])
def test_dist_matches_scalar_loop(kind, d):
    rng = np.random.default_rng(10 * kind + d)
    a = rng.uniform(-3, 3, size=(40, d))
    b = rng.uniform(-3, 3, size=(40, d))
    ref = [oracle_dist(p, q, kind) for p, q in zip(a, b)]
    rows = dist(a, b, kind)
    assert rows.shape == (40,)
    np.testing.assert_allclose(rows, ref, rtol=0, atol=1e-12)
    # one point against another, and many points against one target
    assert dist(a[0], b[0], kind).shape == ()
    np.testing.assert_allclose(dist(a[0], b[0], kind), ref[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(dist(a, b[0], kind),
                               [oracle_dist(p, b[0], kind) for p in a],
                               rtol=0, atol=1e-12)


class TestAlmostPeriodWindow:
    def test_window_semantics(self):
        # shift k compares the first n - n_tau samples against the same
        # window shifted by k, so a k-periodic sampling gives sup 0
        t = np.arange(30) % 5
        pts = (t / 5.0)[:, None]
        sup = almost_period_sup(pts, 10, METRIC_TORUS)
        assert sup.shape == (10,)
        assert sup[4] == 0.0 and sup[9] == 0.0
        assert sup[0] > 0.1

    def test_1d_input_promoted(self):
        pts = np.linspace(0, 1, 20)
        sup = almost_period_sup(pts, 5, METRIC_EUCLIDEAN)
        assert sup.shape == (5,)
        assert sup[0] == pytest.approx(1.0 / 19.0)
