"""Hot scanning kernels, vectorised with numpy over blocks of the range.

The Kronecker scans test their range block by block and stop at the
first block with a hit.  Hits usually come early, so the first block
has FIRST_CHUNK points and each later one is twice the one before, up to
BLOCK points, small enough that a block's scratch arrays stay in a
core's L2 cache.  The scratch arrays are allocated once per call, at
min(n, BLOCK) points, and reused through ``out=`` ufuncs.

Within a block the first coordinate is tested on every point and each
later coordinate only on the points that passed the ones before it (a
fraction of about 2*eps survives each coordinate).  Every point is
still computed from its global index, and every coordinate with the
same float formula, d = v*t - x, then d - floor(d), then
min(d, 1 - d) < eps, so the hits do not depend on the blocks.
"""

from __future__ import annotations

import numpy as np

from .circmath import dist

__all__ = ["BACKEND", "kron_scan_grid", "kron_scan_integer", "almost_period_sup"]

BACKEND = "numpy"

FIRST_CHUNK = 1 << 10
BLOCK = 1 << 14

_INDEX = np.arange(BLOCK, dtype=float)
_INDEX.flags.writeable = False


def _chunks(n):
    """(start, stop) index pairs covering range(n): FIRST_CHUNK points
    first, then each chunk twice the one before, at most BLOCK points."""
    start, size = 0, FIRST_CHUNK
    while start < n:
        stop = min(start + size, n)
        yield start, stop
        start, size = stop, min(2 * size, BLOCK)


def _scan(vals, targs, eps, first, n, to_time) -> float:
    """First of the points for the integers first .. first+n-1 with every
    circle coordinate frac(vals[j]*t) within eps of targs[j]; NaN if none.
    to_time(ts) turns an array of those integers, as floats, into the
    points in place."""
    vals = np.asarray(vals, dtype=float)
    targs = np.asarray(targs, dtype=float)
    # integers below 2**53 add exactly as floats; past that they are added
    # as ints and rounded once, as float(n) rounds them.  The float index
    # stays for the usual case because adding an int64 index into float ts
    # takes about three times as long.
    m = min(max(n, 0), BLOCK)
    index = _INDEX if abs(first) + n <= 2 ** 53 else np.arange(m, dtype=np.int64)
    ts, ds, es = np.empty((3, m))
    for start, stop in _chunks(n):
        k = stop - start
        t, d, e = ts[:k], ds[:k], es[:k]
        np.add(index[:k], first + start, out=t)
        to_time(t)
        if not vals.size:
            return float(t[0])
        np.multiply(vals[0], t, out=d)
        np.subtract(d, targs[0], out=d)
        np.floor(d, out=e)
        np.subtract(d, e, out=d)  # bit for bit d % 1.0, without numpy's slow float remainder
        np.subtract(1.0, d, out=e)
        np.minimum(d, e, out=e)
        hits = (e < eps).nonzero()[0]
        for v, x in zip(vals[1:], targs[1:]):
            if not hits.size:
                break
            dh = v * t[hits] - x
            dh -= np.floor(dh)
            hits = hits[np.minimum(dh, 1.0 - dh) < eps]
        if hits.size:
            return float(t[hits[0]])
    return float("nan")


def kron_scan_grid(vals, targs, eps, t0, t1, step) -> float:
    """First t in the grid t0, t0+step, ... <= t1 with every circle
    coordinate frac(vals[j]*t) within eps of targs[j]; NaN if none."""
    n = int(np.floor((t1 - t0) / step)) + 1
    # rounding in the quotient or in t0 + i*step can carry the last point past t1
    while n > 0 and t0 + (n - 1) * step > t1:
        n -= 1

    def to_time(ts):
        np.multiply(ts, step, out=ts)
        np.add(t0, ts, out=ts)

    return _scan(vals, targs, eps, 0, n, to_time)


def kron_scan_integer(vals, targs, eps, offset, n0, n1) -> float:
    """Like kron_scan_grid but over t = n + offset for integers n0 <= n <= n1."""
    n0, n1 = int(n0), int(n1)
    return _scan(vals, targs, eps, n0, n1 - n0 + 1,
                 lambda ts: np.add(ts, offset, out=ts))


def almost_period_sup(pts, n_tau, kind) -> np.ndarray:
    """For each shift k = 1..n_tau return the sup of dist(p[i], p[i+k])
    over the sampled orbit points (rows of pts)."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n_tau = int(n_tau)
    base = pts.shape[0] - n_tau  # t ranges over the first base samples for every shift
    out = np.empty(n_tau)
    for k in range(1, n_tau + 1):
        out[k - 1] = dist(pts[:base], pts[k:k + base], kind).max()
    return out
