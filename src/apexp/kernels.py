"""Hot scanning kernels, vectorised with numpy over chunks of the range.

The Kronecker scans test their range chunk by chunk and stop at the
first chunk with a hit.  Hits usually come early, so the first chunk has
FIRST_CHUNK points and each later one is twice the one before, up to a
cap; every point is still computed from its global index, so the
scanned values do not depend on the chunk boundaries.
"""

from __future__ import annotations

import numpy as np

from .circmath import dist

__all__ = ["BACKEND", "kron_scan_grid", "kron_scan_integer", "almost_period_sup"]

BACKEND = "numpy"

FIRST_CHUNK = 1 << 10


def _chunks(n, cap):
    """(start, stop) index pairs covering range(n): FIRST_CHUNK points
    first, then each chunk twice the one before, at most cap points."""
    start, size = 0, FIRST_CHUNK
    while start < n:
        stop = min(start + size, n)
        yield start, stop
        start, size = stop, min(2 * size, cap)


def _first_hit(ts, vals, targs, eps):
    """First t in ts with every frac(vals[j]*t) within eps of targs[j]
    on the circle, or None."""
    ok = np.ones(ts.shape, dtype=bool)
    for v, x in zip(vals, targs):
        d = v * ts - x
        d -= np.floor(d)  # bit for bit d % 1.0, without numpy's slow float remainder
        ok &= np.minimum(d, 1.0 - d) < eps
    hits = np.nonzero(ok)[0]
    return float(ts[hits[0]]) if hits.size else None


def kron_scan_grid(vals, targs, eps, t0, t1, step) -> float:
    """First t in the grid t0, t0+step, ... <= t1 with every circle
    coordinate frac(vals[j]*t) within eps of targs[j]; NaN if none."""
    vals = np.asarray(vals, dtype=float)
    targs = np.asarray(targs, dtype=float)
    n = int(np.floor((t1 - t0) / step)) + 1
    for start, stop in _chunks(n, 1 << 18):
        ts = t0 + np.arange(start, stop) * step
        t = _first_hit(ts, vals, targs, eps)
        if t is not None:
            return t
    return float("nan")


def kron_scan_integer(vals, targs, eps, offset, n0, n1) -> float:
    """Like kron_scan_grid but over t = n + offset for integers n0 <= n <= n1."""
    vals = np.asarray(vals, dtype=float)
    targs = np.asarray(targs, dtype=float)
    n0, n1 = int(n0), int(n1)
    for start, stop in _chunks(n1 - n0 + 1, 1 << 20):
        ts = np.arange(n0 + start, n0 + stop, dtype=np.int64) + offset
        t = _first_hit(ts, vals, targs, eps)
        if t is not None:
            return t
    return float("nan")


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
