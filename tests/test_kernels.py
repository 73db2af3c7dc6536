import math
import random
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from apexp.circmath import (METRIC_CYLINDER, METRIC_EUCLIDEAN, METRIC_TORUS,
                            circle_dist, circular_gaps, dist, frac)
from apexp import kernels
from apexp.kernels import (BLOCK, FIRST_CHUNK, _chunks, _scan, almost_period_sup,
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
    ts = (t0 + i * step for i in range(n))
    return _first((t for t in ts if t <= t1), vals, targs, eps)


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
        # the first hit lies beyond the first 2**18 grid points, many blocks in
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

    def test_grid_scan_stops_at_its_end(self):
        # floor((t1 - t0) / step) rounds up to 567, and t0 + 567 * step
        # lies past t1: that point is not part of the grid
        t0, t1, step = -75.60527573992451, -30.718433247621256, 0.07916550704109922
        last = t0 + 567 * step
        assert math.floor((t1 - t0) / step) == 567 and last > t1
        args = ([1.0], [last % 1.0], 1e-13, t0, t1, step)
        assert math.isnan(kron_scan_grid(*args))
        assert math.isnan(oracle_scan_grid(*args))
        before = t0 + 566 * step
        args = ([1.0], [before % 1.0], 1e-13, t0, t1, step)
        assert kron_scan_grid(*args) == oracle_scan_grid(*args) == before

    def test_integer_scan(self):
        vals = [math.sqrt(2.0) / 2.0]
        targs = [0.3]
        for eps in (0.1, 0.01, 0.002):
            got = kron_scan_integer(vals, targs, eps, 0.25, 1, 10 ** 6)
            assert not math.isnan(got) and got == int(got) + 0.25
            assert got == oracle_scan_integer(vals, targs, eps, 0.25, 1, 10 ** 6)

    def test_integer_scan_past_2_53(self):
        # float(2**53 + 1) + 1.0 rounds to 2**53, float(2**53 + 2) does not:
        # each point is rounded once from its own integer
        n0 = 2 ** 53 + 1
        args = ([0.25], [0.5], 0.1, 0.0, n0, n0 + 1)
        assert kron_scan_integer(*args) == oracle_scan_integer(*args) == 2.0 ** 53 + 2
        # and below -2**53: float(-(2**53 + 3)) + 1.0 rounds to -(2**53 + 4)
        args = ([0.25], [0.5], 0.1, 0.0, -(n0 + 2), -(n0 + 1))
        assert kron_scan_integer(*args) == oracle_scan_integer(*args) == -(2.0 ** 53 + 2)

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
# 4096 points) and of the first two full blocks (2**14 points each, from
# 2**14 - 2**10 on)
FULL = BLOCK - FIRST_CHUNK
CHUNK_EDGES = [0, 2 ** 10 - 1, 2 ** 10, 3 * 2 ** 10 - 1, 3 * 2 ** 10,
               7 * 2 ** 10 - 1, FULL, FULL + BLOCK - 1, FULL + BLOCK,
               FULL + 2 * BLOCK - 1]
SPAN = FULL + 3 * BLOCK  # every test range below covers the edges above


class TestChunkSchedule:
    """The scans grow their chunk from FIRST_CHUNK points, doubling up to
    BLOCK points; hits at the chunk edges, hits that only a later
    coordinate decides, short and empty ranges and a long miss agree bit
    for bit with the oracles."""

    def test_chunk_sizes(self):
        assert FIRST_CHUNK == 2 ** 10 and BLOCK == 2 ** 14
        n = 3 * BLOCK + 5000
        chunks = list(_chunks(n))
        assert [b - a for a, b in chunks] == [2 ** k for k in range(10, 15)] + [
            BLOCK, 5000 + 2 ** 10]
        assert chunks[0][0] == 0 and chunks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        assert [b - a for a, b in _chunks(700)] == [700]
        assert list(_chunks(0)) == []

    # v = 2**-16 makes every v * t exact, so the only hit in range is the
    # planted point at index k

    @pytest.mark.parametrize("k", CHUNK_EDGES)
    def test_integer_hit_at_chunk_edge(self, k):
        n0, offset, v = -3000, 0.25, 2.0 ** -16
        targ = (v * (n0 + k + offset)) % 1.0
        args = ([v], [targ], 2.0 ** -17, offset, n0, n0 + SPAN)
        got = kron_scan_integer(*args)
        assert got == n0 + k + offset
        assert got == oracle_scan_integer(*args)

    @pytest.mark.parametrize("k", CHUNK_EDGES)
    def test_grid_hit_at_chunk_edge(self, k):
        t0, step, v = -37.5, 0.5, 2.0 ** -16
        targ = (v * (t0 + k * step)) % 1.0
        args = ([v], [targ], 2.0 ** -18, t0, t0 + SPAN * step, step)
        got = kron_scan_grid(*args)
        assert got == t0 + k * step
        assert got == oracle_scan_grid(*args)

    # three coordinates at exactly representable points: the first passes
    # every other point, the second every 2**12-th point, and only the
    # third singles out the planted point k, so most blocks carry
    # survivors of the first two coordinates that the third rejects

    @pytest.mark.parametrize("k", CHUNK_EDGES[-4:] + [SPAN - 1])
    def test_integer_hit_decided_by_a_later_coordinate(self, k):
        n0, offset = -3000, 0.25
        vals = [0.5, 2.0 ** -12, 2.0 ** -16]
        targs = [(v * (n0 + k + offset)) % 1.0 for v in vals]
        args = (vals, targs, 2.0 ** -17, offset, n0, n0 + SPAN)
        got = kron_scan_integer(*args)
        assert got == n0 + k + offset
        assert got == oracle_scan_integer(*args)
        # the first two coordinates alone pass an earlier point
        assert kron_scan_integer(vals[:2], targs[:2], *args[2:]) < got

    @pytest.mark.parametrize("k", CHUNK_EDGES[-4:] + [SPAN - 1])
    def test_grid_hit_decided_by_a_later_coordinate(self, k):
        t0, step = -37.5, 0.5
        vals = [1.0, 2.0 ** -11, 2.0 ** -16]
        targs = [(v * (t0 + k * step)) % 1.0 for v in vals]
        args = (vals, targs, 2.0 ** -18, t0, t0 + SPAN * step, step)
        got = kron_scan_grid(*args)
        assert got == t0 + k * step
        assert got == oracle_scan_grid(*args)
        assert kron_scan_grid(vals[:2], targs[:2], *args[2:]) < got

    def test_no_free_frequency(self):
        # with no coordinate to test, the first point of the range is the hit
        assert kron_scan_integer([], [], 2.0 ** -17, 0.25, 5, 9) == 5.25
        assert oracle_scan_integer([], [], 2.0 ** -17, 0.25, 5, 9) == 5.25
        assert kron_scan_grid([], [], 2.0 ** -17, -2.0, 3.0, 0.5) == -2.0
        assert oracle_scan_grid([], [], 2.0 ** -17, -2.0, 3.0, 0.5) == -2.0

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
        assert math.isnan(kron_scan_grid([], [], 0.5, 5.0, 4.0, 0.25))

    def test_miss_past_the_cap(self):
        # frac(1.0 * t) stays 0 on integer times, never near the target 0.5
        n1 = 2 ** 21 + 5000  # over a hundred blocks of the BLOCK-point cap
        assert math.isnan(kron_scan_integer([1.0], [0.5], 0.25, 0.0, 0, n1))
        assert math.isnan(oracle_scan_integer([1.0], [0.5], 0.25, 0.0, 0, n1))
        t1 = 2.0 ** 19 + 1000
        assert math.isnan(kron_scan_grid([1.0], [0.5], 0.25, 0.0, t1, 1.0))
        assert math.isnan(oracle_scan_grid([1.0], [0.5], 0.25, 0.0, t1, 1.0))

    @pytest.mark.parametrize("path", ["integer", "grid", "runs"])
    def test_long_miss_stays_small(self, path):
        # a 3e6-point miss keeps its scratch arrays to one block: the
        # traced peak stays far below one array of the whole range (24 MB);
        # the runs of a 3e7-point grid miss hold 1e5 points in all
        vals, targs, eps = [math.sqrt(2.0), math.sqrt(3.0)], [0.1, 0.2], 1e-9
        tracemalloc.start()
        try:
            if path == "integer":
                got = kron_scan_integer(vals, targs, eps, 0.5, 0, 3 * 10 ** 6)
            elif path == "grid":
                got = kron_scan_grid(vals, targs, eps, 0.0, 3e3, 1e-3)
            else:  # frac(v*t) near 0 puts frac(2*v*t) near 0, never near 0.5
                v, eps = math.sqrt(2.0), 1e-3
                step = eps / (8 * v)
                got = kron_scan_grid([v, 2 * v], [0.0, 0.5], eps, 0.0,
                                     3e7 * step, step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isnan(got)
        assert peak < 2 * 2 ** 20, peak


@st.composite
def scan_queries(draw):
    """A scan over a range of two to four blocks, possibly negative, with
    0-3 coordinates whose targets are often planted on one of its points,
    so that hits fall in any block and later coordinates decide them."""
    d = draw(st.integers(0, 3))
    roots = st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13, 14, 15])
    vals = [math.sqrt(draw(roots)) * draw(st.sampled_from([-1, 1]))
            / draw(st.integers(1, 4)) for _ in range(d)]
    # a point passes by chance with probability (2*eps)**d: one every
    # `spacing` points on average
    spacing = draw(st.sampled_from([BLOCK // 8, BLOCK, 8 * BLOCK]))
    eps = 0.5 * spacing ** (-1.0 / max(d, 1))
    n = draw(st.integers(2 * BLOCK, 4 * BLOCK))
    i = draw(st.integers(0, n - 1))
    integer = draw(st.booleans())
    if integer:
        offset, n0 = draw(st.floats(0.0, 1.0)), draw(st.integers(-10 ** 6, 10 ** 6))
        args, point = (offset, n0, n0 + n - 1), (n0 + i) + offset
    else:
        t0, step = draw(st.floats(-1e4, 1e4)), draw(st.floats(1e-4, 0.1))
        args, point = (t0, t0 + (n - 1) * step, step), t0 + i * step
    if draw(st.booleans()):
        targs = [(v * point) % 1.0 for v in vals]
    else:
        targs = [draw(st.floats(0.0, 1.0)) for _ in vals]
    return integer, vals, targs, eps, args


@settings(max_examples=50, deadline=None)
@given(scan_queries())
def test_scans_match_oracles_across_blocks(query):
    integer, vals, targs, eps, args = query
    scan, oracle = ((kron_scan_integer, oracle_scan_integer) if integer
                    else (kron_scan_grid, oracle_scan_grid))
    got = scan(vals, targs, eps, *args)
    ref = oracle(vals, targs, eps, *args)
    assert same(got, ref), (vals, targs, eps, args)


# ---------------------------------------------------------------------------
# the grid scan tests only runs of points; a test of every point is its oracle


def dense_scan_grid(vals, targs, eps, t0, t1, step):
    """kron_scan_grid's range and times, every point tested by the block
    scan _scan."""
    n = math.floor((t1 - t0) / step) + 1
    while n > 0 and t0 + (n - 1) * step > t1:
        n -= 1

    def to_time(ts):
        np.multiply(ts, step, out=ts)
        np.add(t0, ts, out=ts)

    return _scan(vals, targs, eps, 0, n, to_time)


@pytest.fixture
def scan_calls(monkeypatch):
    """(first, n) of every call of the block scan _scan."""
    calls = []

    def recording_scan(vals, targs, eps, first, n, to_time):
        calls.append((first, n))
        return _scan(vals, targs, eps, first, n, to_time)

    monkeypatch.setattr(kernels, "_scan", recording_scan)
    return calls


@pytest.fixture
def tested_points(monkeypatch):
    """How many points the scans pass through the survivor filter."""
    count = [0]
    first_pass = kernels._first_pass

    def counting(vals, targs, eps, t, d, e):
        count[0] += t.size
        return first_pass(vals, targs, eps, t, d, e)

    monkeypatch.setattr(kernels, "_first_pass", counting)
    return count


# v = 3/4, step = 2**-12 and |t| < 1 keep every t, v*t - x and its
# reduction mod 1 exact, so a point at distance eps * (1 -+ 2**-40) passes
# or fails exactly; 5000 points make 0.92 of a revolution, so one run
EDGE_V, EDGE_EPS, EDGE_STEP, EDGE_T0, EDGE_N = 0.75, 3 * 2.0 ** -12, 2.0 ** -12, -0.5, 5000


def edge_target(v, point, eps, scale):
    """The target whose run, on v's grid, opens at point: there v*t - x
    is -eps*scale, moving toward 0 as t grows."""
    return ((v * point) % 1.0 + math.copysign(eps * scale, v)) % 1.0


class TestGridRuns:
    """The runs of kron_scan_grid against a test of every grid point."""

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("k", [0, 1, 2047, 4990, EDGE_N - 1])
    def test_hit_at_the_edge_of_a_run(self, scan_calls, sign, k):
        v, eps, step, t0 = sign * EDGE_V, EDGE_EPS, EDGE_STEP, EDGE_T0
        t1 = t0 + (EDGE_N - 1) * step
        point = t0 + k * step
        # the point opens its run when scale < 1, and the next one when not
        for scale, first in ((1 - 2.0 ** -40, point), (1 + 2.0 ** -40, point + step)):
            args = ([v], [edge_target(v, point, eps, scale)], eps, t0, t1, step)
            want = first if first <= t1 else math.nan
            assert same(kron_scan_grid(*args), want)
            assert same(dense_scan_grid(*args), want)
        assert scan_calls == []  # the runs path, not the test of every point

    @pytest.mark.parametrize("scale", [1 - 2.0 ** -40, 1 + 2.0 ** -40])
    @pytest.mark.parametrize("t0", [-9.3e6, -1234.5, 0.0, 77.25, 4.1e6])
    def test_edge_within_rounding(self, scale, t0):
        # at |t| up to 1e7 rounding exceeds eps * 2**-40, so whether the edge
        # point passes is decided by the float formula, padded in the runs
        v = [-math.sqrt(2.0), math.sqrt(3.0) / 3]
        eps = 1e-4
        step = eps / (4 * math.sqrt(2.0))
        for k in (0, 3, 977, 20_000):
            point = t0 + k * step
            targs = [edge_target(v[0], point, eps, scale), (v[1] * point) % 1.0]
            args = (v, targs, eps, t0, t0 + 50_000 * step, step)
            got = kron_scan_grid(*args)
            assert same(got, dense_scan_grid(*args))
            assert point - 2 * step <= got <= point + 2 * step

    @pytest.mark.parametrize("sign", [1, -1])
    def test_end_cuts_a_run(self, sign):
        v, eps, step, t0 = sign * EDGE_V, EDGE_EPS, EDGE_STEP, EDGE_T0
        t1 = t0 + (EDGE_N - 1) * step
        for end, want in ((t1, t1), (t1 + step / 2, t1)):
            # the run opens on the last grid point ...
            args = ([v], [edge_target(v, t1, eps, 1 - 2.0 ** -40)], eps, t0, end, step)
            assert kron_scan_grid(*args) == dense_scan_grid(*args) == want
            # ... or one point past it, so there is no hit
            args = ([v], [edge_target(v, t1 + step, eps, 1 - 2.0 ** -40)],
                    eps, t0, end, step)
            assert math.isnan(kron_scan_grid(*args))
            assert math.isnan(dense_scan_grid(*args))

    def test_range_shorter_than_a_run(self):
        v, eps, step, t0 = EDGE_V, EDGE_EPS, EDGE_STEP, EDGE_T0
        for n in (1, 2, 3):
            t1 = t0 + (n - 1) * step
            for k in range(-10, n + 3):
                targ = edge_target(v, t0 + k * step, eps, 1 - 2.0 ** -40)
                args = ([v], [targ], eps, t0, t1, step)
                got = kron_scan_grid(*args)
                assert same(got, dense_scan_grid(*args))
                # v*t - x moves alpha = eps/4 per point, so the run is 8 points
                assert same(got, t0 + max(k, 0) * step if -8 < k < n else math.nan)

    def test_fast_coordinate_scans_every_point(self, scan_calls):
        # alpha = v*step above eps/2 leaves runs under 4 points: every
        # point is tested instead; at eps/2 exactly the runs still serve
        v, eps, t0 = math.sqrt(2.0), 1e-3, 5.0
        for step, dense in ((eps / (2 * v), False), (0.51 * eps / v, True),
                            (eps / v, True), (1.0, True)):
            scan_calls.clear()
            targs = [(v * (t0 + 300 * step)) % 1.0]
            args = ([v], targs, eps, t0, t0 + 1000 * step, step)
            got = kron_scan_grid(*args)
            assert got == dense_scan_grid(*args) <= t0 + 300 * step
            assert [first for first, _ in scan_calls] == ([0] if dense else [])

    def test_runs_wider_than_a_block(self, scan_calls):
        # at eps = 1e-12 and |t| near 5e6 rounding moves v*t by far more
        # than eps, so each run is padded past a block and scanned in blocks
        v, eps = [math.sqrt(3.0), -math.sqrt(2.0)], 1e-12
        step = eps / (4 * math.sqrt(3.0))
        t0, n = 5e6, 2_000_000
        for k in (0, 123_456, n - 1):
            scan_calls.clear()
            point = t0 + k * step
            targs = [(x * point) % 1.0 for x in v]
            args = (v, targs, eps, t0, t0 + (n - 1) * step, step)
            assert kron_scan_grid(*args) == dense_scan_grid(*args) <= point
            assert scan_calls and all(0 < m < n for _, m in scan_calls)
            assert max(m for _, m in scan_calls) > BLOCK

    def test_runs_test_few_points(self, tested_points):
        # a miss over 4e6 grid points tests about 3.3 eps n of them: runs
        # of 8 points, padded by 2 on each side, plus 1, per revolution
        v, eps = [math.sqrt(2.0), 2 * math.sqrt(2.0)], 1e-3
        step = eps / (4 * 2 * math.sqrt(2.0))
        n = 4 * 10 ** 6
        # frac(v*t) near 0 puts frac(2*v*t) near 0, never near 0.5
        args = (v, [0.0, 0.5], eps, 0.0, (n - 1) * step, step)
        assert math.isnan(kron_scan_grid(*args))
        assert 2 * eps * n < tested_points[0] < 4 * eps * n


@st.composite
def grid_queries(draw):
    """kronecker_solve's grid: step eps / (4 max |v|), 1-3 coordinates of
    either sign, |t0| up to 1e7, and targets often planted near a point."""
    d = draw(st.integers(1, 3))
    roots = st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13])
    vals = [math.sqrt(draw(roots)) * draw(st.sampled_from([-1, 1]))
            / draw(st.integers(1, 4)) for _ in range(d)]
    # about 2 eps of the revolutions pass each later coordinate by chance
    eps = 10 ** draw(st.floats(-6.0 if d == 1 else -3.0, -0.7))
    step = eps / (4 * max(abs(v) for v in vals))
    t0 = draw(st.one_of(st.floats(-1e7, 1e7), st.floats(-100.0, 100.0)))
    n = draw(st.integers(1, 200_000))
    t1 = t0 + (n - 1) * step + draw(st.floats(0.0, 0.999)) * step
    if draw(st.booleans()):
        point = t0 + draw(st.integers(0, n - 1)) * step
        shift = draw(st.sampled_from([0.0, 1.0, -1.0, 1 - 2.0 ** -40, 0.5]))
        targs = [(v * point + shift * eps) % 1.0 for v in vals]
    else:
        targs = [draw(st.floats(0.0, 1.0)) for _ in vals]
    return vals, targs, eps, t0, t1, step


@settings(max_examples=150, deadline=None)
@given(grid_queries())
def test_grid_runs_match_dense_scan(query):
    assert same(kron_scan_grid(*query), dense_scan_grid(*query)), query


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



# signed zeros, the smallest subnormal, tiny negatives that round to 1.0,
# integers beyond 2^53 and the floats next to +-1
MOD1_EDGES = [-0.0, 0.0, -5e-324, 5e-324, -1e-300, 1e-300, 1e17, -1e17,
              1 - 2 ** -53, -(1 - 2 ** -53), -0.5, 0.5, -3.0]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=30))
def test_mod1_reduction_is_bit_for_bit(xs):
    """frac, circle_dist, dist and circular_gaps give the bits of Python's
    % 1.0 loops, on arrays and on Python scalars alike; a % 1.0 that
    rounds up to 1.0 is the point 0.0, so frac stays in [0, 1)."""
    xs = xs + MOD1_EDGES
    arr = np.array(xs)

    def bits(values):
        return [struct.pack("<d", v) for v in values]

    def mod1(x):
        r = x % 1.0
        return 0.0 if r == 1.0 else r

    ref = bits(mod1(x) for x in xs)
    assert bits(frac(arr).tolist()) == ref
    assert bits(frac(x) for x in xs) == ref
    assert bits(circle_dist(x, 0.0) for x in xs) == bits(_circ(x) for x in xs)
    for kind in (METRIC_TORUS, METRIC_CYLINDER):
        assert bits(dist(arr[:, None], [0.0], kind).tolist()) == bits(
            oracle_dist([x], [0.0], kind) for x in xs)
    v = sorted(mod1(x) for x in xs)
    gaps = [q - p for p, q in zip(v, v[1:] + [v[0] + 1.0])]
    assert [bits(a.tolist()) for a in circular_gaps(arr)] == [bits(v), bits(gaps)]

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
