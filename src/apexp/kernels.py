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

The grid scan visits only runs of points.  On the grid t0 + k*step its
fastest coordinate c moves alpha = v_c*step per point, so it can pass
only for k near (j - c0 +- eps)/alpha, where c0 = v_c*t0 - x_c and j
runs over the whole revolutions: about 2*eps/|alpha| consecutive points
per revolution.  Each run is widened by a bound on the float error of
t0 + k*step and of v*t - x, taken in whole points, and every point of
the runs goes through the same test on all coordinates as above.  So
the first hit is the one a scan of every point finds, bit for bit, at
a cost of about 2*eps*n points plus one index computation per
revolution.
"""

from __future__ import annotations

import math

import numpy as np

from .circmath import dist

__all__ = ["BACKEND", "kron_scan_grid", "kron_scan_integer", "almost_period_sup"]

BACKEND = "numpy"

FIRST_CHUNK = 1 << 10
BLOCK = 1 << 14

_INDEX = np.arange(BLOCK, dtype=float)
_INDEX.flags.writeable = False


def _chunks(n, first=FIRST_CHUNK, cap=BLOCK):
    """(start, stop) index pairs covering range(n): `first` points first,
    then each chunk twice the one before, at most `cap` points."""
    start, size = 0, first
    while start < n:
        stop = min(start + size, n)
        yield start, stop
        start, size = stop, min(2 * size, cap)


def _first_pass(vals, targs, eps, t, d, e) -> int:
    """Index of the first of the points t with every circle coordinate
    frac(vals[j]*t) within eps of targs[j]; -1 if none.  The first
    coordinate is tested on every point and each later one only on the
    survivors; d and e are scratch arrays as long as t."""
    if not vals.size:
        return 0
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
    return int(hits[0]) if hits.size else -1


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
        t = ts[:k]
        np.add(index[:k], first + start, out=t)
        to_time(t)
        i = _first_pass(vals, targs, eps, t, ds[:k], es[:k])
        if i >= 0:
            return float(t[i])
    return float("nan")


def kron_scan_grid(vals, targs, eps, t0, t1, step) -> float:
    """First t in the grid t0, t0+step, ... <= t1 with every circle
    coordinate frac(vals[j]*t) within eps of targs[j]; NaN if none.

    Only the runs of points where the fastest coordinate can pass are
    tested (see the module docstring), with the bits of a scan of every
    point.  Every point is scanned instead only when that coordinate
    moves more than eps/2 per point, so that its runs are under about 4
    points: the coarse grids of the kernel tests, never the grid of
    kronecker_solve, whose fastest coordinate moves eps/4 per point.
    """
    vals = np.asarray(vals, dtype=float)
    targs = np.asarray(targs, dtype=float)
    n = int(np.floor((t1 - t0) / step)) + 1
    # rounding in the quotient or in t0 + i*step can carry the last point past t1
    while n > 0 and t0 + (n - 1) * step > t1:
        n -= 1

    def to_time(ts):
        np.multiply(ts, step, out=ts)
        np.add(t0, ts, out=ts)

    c = int(np.abs(vals).argmax()) if vals.size else 0
    alpha = float(vals[c] * step) if vals.size else 0.0
    if n <= 0 or not 0.0 < abs(alpha) <= eps / 2:
        return _scan(vals, targs, eps, 0, n, to_time)
    # coordinate c is c0 + k*alpha at point k; flip both signs so it grows
    v, x = float(vals[c]), float(targs[c])
    c0, alpha = math.copysign(1.0, alpha) * (v * t0 - x), abs(alpha)
    # with u = 2**-53 and |t| <= tmax, the computed distance of coordinate
    # c at a grid point is off by under 8u*(|v|*tmax + |x| + 1), and so is
    # c0; the run starts are computed to within 4u*(n + 2*eps/alpha)
    # points.  pad covers all of it in whole points, with a point to spare.
    tmax = max(abs(t0), abs(t0 + n * step))
    slack = 2.0 ** -49 * (abs(v) * tmax + abs(x) + eps + 1.0)
    pad = math.floor(slack / alpha + n * 2.0 ** -50) + 2
    width = math.floor(2 * eps / alpha) + 2 * pad + 1  # points in a run, at most
    j0 = math.floor(c0 - eps - pad * alpha) - 1
    revs = math.ceil(c0 + eps + (n + pad) * alpha) + 2 - j0
    for a, b in _chunks(revs, max(1, FIRST_CHUNK // width), max(1, BLOCK // width)):
        # the first point of the run of each revolution; each run starts no
        # earlier than the one before, so the first of their points to pass
        # is the first point of the grid to pass, where runs overlap too
        lo = np.arange(j0 + a, j0 + b, dtype=float)
        lo -= c0 + eps
        lo /= alpha
        np.ceil(lo, out=lo)
        lo -= pad
        if width > BLOCK:  # runs longer than a block are scanned block by block
            for first in lo.tolist():
                first = max(int(first), 0)
                t = _scan(vals, targs, eps, first, min(first + width, n) - first, to_time)
                if not math.isnan(t):
                    return t
            continue
        t = (lo[:, None] + _INDEX[:width]).ravel()
        np.maximum(t, 0.0, out=t)
        np.minimum(t, n - 1, out=t)
        to_time(t)
        i = _first_pass(vals, targs, eps, t, np.empty(t.size), np.empty(t.size))
        if i >= 0:
            return float(t[i])
    return float("nan")


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
