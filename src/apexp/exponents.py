"""Numeric exponent probes: f-sequence search, almost-period scanning,
candidate accept/reject evidence, and simultaneous-approximation
searches used to build oscillating breaker sequences.

Verdicts are three-valued.  A float computation cannot decide
convergence, so ACCEPTED/REJECTED report strong finite evidence
(tail spreads and verified oscillation gaps), never proofs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .circmath import (METRIC_TORUS, circle_dist, circular_gaps,
                       circular_mean, circular_spread, dist, frac)
from .groups import VerificationError
from .kernels import almost_period_sup, kron_scan_grid, kron_scan_integer
from .realfield import RealVector

__all__ = [
    "OrbitEvaluator",
    "ExponentProbeReport",
    "AlmostPeriodReport",
    "KroneckerQuery",
    "IncompatibleTargetsError",
    "NonConvergentError",
    "find_f_sequences",
    "interleaved_sequences",
    "presented_limits",
    "probe_exponent",
    "scan_almost_periods",
    "kronecker_solve",
    "build_breaker_sequence",
    "induced_circle_map",
]

TOL_ORBIT = 1e-6
TOL_LIMIT = 1e-3
GAP_MIN = 0.1
LATE_MIN = 2  # trace values among the last `tail` each cluster needs to reject
CAUCHY_TOL = 0.05
BREAKER_GAP = 1.0  # least spacing of consecutive breaker times


class IncompatibleTargetsError(ValueError):
    """A declared integer relation fails the target compatibility check."""


class NonConvergentError(ValueError):
    """A trace required to converge has too large a tail spread."""


def _freq_value(x) -> float:
    return x.eval() if isinstance(x, RealVector) else float(x)


def trace_limit(val: float, times: np.ndarray, tol_limit: float, tail: int,
                what: str) -> float:
    """The numeric limit of frac(val * t_i): the circular mean over the
    last `tail` times.  Raises NonConvergentError, naming `what`, when
    their circular spread exceeds tol_limit."""
    trace = frac(val * times[-tail:])
    spread = circular_spread(trace)
    if spread > tol_limit:
        raise NonConvergentError(
            f"{what}: tail spread {spread:.3g} exceeds {tol_limit:.3g}")
    return circular_mean(trace)


def presented_limits(orbit: OrbitEvaluator, times, freqs: dict[str, float], *,
                     tol_orbit: float, tol_limit: float, tail: int) -> list[float]:
    """The trace_limit of each frequency of `freqs`, named by its key, at
    the point the f-sequence `times` presents.  The one f-sequence check:
    raises NonConvergentError when the orbit points at the last `tail`
    times spread more than tol_orbit."""
    times = np.asarray(times, dtype=float)
    spread = orbit.spread(times[-tail:])
    if spread > tol_orbit:
        raise NonConvergentError(
            f"times are not an f-sequence: orbit tail spread {spread:.3g} "
            f"exceeds {tol_orbit:.3g}")
    return [trace_limit(v, times, tol_limit, tail, what)
            for what, v in freqs.items()]


@dataclass
class OrbitEvaluator:
    """An orbit, as a map from an (n,) array of times to the (n, d) array
    of its points, together with the metric of its target space."""

    points: Callable[[np.ndarray], np.ndarray]
    metric_kind: int

    def metric(self, p, q) -> float:
        return float(dist(p, q, self.metric_kind))

    def batch(self, ts) -> np.ndarray:
        return np.asarray(self.points(np.asarray(ts, dtype=float)))

    def eval(self, t: float) -> np.ndarray:
        return self.batch([t])[0]

    def spread(self, times) -> float:
        """Largest pairwise distance between the orbit points at the
        given times."""
        pts = self.batch(times)
        return float(dist(pts[:, None], pts[None], self.metric_kind).max())


def interleaved_sequences(times, count: int) -> list[np.ndarray]:
    """Deal return times into `count` interleaved sequences; one left
    empty is dropped."""
    return [times[j::count] for j in range(min(count, len(times)))]


def find_f_sequences(orbit: OrbitEvaluator, target, count: int = 1,
                     t_max: float = 1000.0, tol_orbit: float = TOL_ORBIT,
                     grid: float = 0.01, t_min: float = 0.0) -> list[np.ndarray]:
    """Grid-scan [t_min, t_max] for near-returns to the target, refine
    each local minimum of the distance, and split the accepted return
    times, in increasing order, into `count` interleaved sequences.

    May return fewer than count sequences when not enough returns beat
    tol_orbit (the NONE_FOUND case, flagged by the shorter result).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    ts = np.arange(t_min, t_max, grid)
    pts = orbit.batch(ts)
    dists = dist(pts, target, orbit.metric_kind)
    interior = (dists[1:-1] <= dists[:-2]) & (dists[1:-1] < dists[2:])
    idx = np.nonzero(interior)[0] + 1
    idx = idx[dists[idx] <= 10 * tol_orbit + 0.2]  # others are not worth refining
    if not idx.size:
        return []
    # 60 golden-section steps shrink each bracket by 0.618**60, about 3e-13
    t, d = _refine_minima(orbit, target, ts[idx] - grid, ts[idx] + grid, 60)
    return interleaved_sequences(np.sort(t[d <= tol_orbit]), count)


def _refine_minima(orbit, target, lo, hi, iters):
    """Golden-section refinement of the distance minima bracketed by
    [lo[k], hi[k]], all brackets at once: each step evaluates the one new
    point of every bracket in a single batch.  Returns the refined times
    and their distances to the target."""

    def d(t):
        return dist(orbit.batch(t), target, orbit.metric_kind)

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, dd = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = np.split(d(np.concatenate([c, dd])), 2)
    for _ in range(iters):
        left = fc < fd  # the minimum lies in [a, dd]: drop (dd, b]
        a, b = np.where(left, a, c), np.where(left, dd, b)
        new = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        fnew = d(new)
        c, dd = np.where(left, new, dd), np.where(left, c, new)
        fc, fd = np.where(left, fnew, fd), np.where(left, fc, fnew)
    t = 0.5 * (a + b)
    return t, d(t)


@dataclass
class ExponentProbeReport:
    candidate: object
    verdict: str  # ACCEPTED | REJECTED | INCONCLUSIVE
    max_tail_spread: float | None = None         # ACCEPTED evidence
    rejection_times: np.ndarray | None = None    # REJECTED evidence
    rejection_clusters: tuple | None = None
    rejection_gap: float | None = None
    rejection_orbit_spread: float | None = None
    notes: str = ""


def _two_clusters(values):
    """Split circle values at their two largest circular gaps.

    Returns (center1, spread1, center2, spread2, gap) or None when the
    values do not form two groups."""
    v, gaps = circular_gaps(values)
    if v.size < 4:
        return None
    top = np.argsort(gaps)[-2:]
    i, j = sorted(top)
    if i == j:
        return None
    first = v[i + 1:j + 1]
    second = np.concatenate([v[j + 1:], v[:i + 1]])
    if first.size == 0 or second.size == 0:
        return None
    c1, c2 = circular_mean(first), circular_mean(second)
    return (c1, circular_spread(first), c2, circular_spread(second),
            circle_dist(c1, c2))


def probe_exponent(orbit: OrbitEvaluator, candidate, sequences: Sequence,
                   tol_limit: float = TOL_LIMIT, cauchy_tol: float = CAUCHY_TOL,
                   tail: int = 10) -> ExponentProbeReport:
    """Three-valued membership evidence for a candidate exponent.

    ACCEPTED: frac(candidate * t_i) has tail spread <= tol_limit on
    every sequence of times, and every sequence has at least `tail`
    times (a shorter tail is no evidence of a limit).  REJECTED: some
    sequence (typically a breaker) passes the orbit Cauchy check while
    its last 2 * tail trace values cluster at two values >= GAP_MIN
    apart, and each cluster holds at least LATE_MIN of the last `tail`
    values, so the oscillation persists (a trace that settles late is no
    oscillation).  INCONCLUSIVE otherwise.
    """
    if not sequences:
        raise ValueError("at least one sequence is required")
    val = _freq_value(candidate)
    worst_spread = 0.0
    inconclusive = faded = False
    seqs = [np.asarray(seq, dtype=float) for seq in sequences]
    shortest = min(seq.size for seq in seqs)
    for seq in seqs:
        trace = frac(val * seq)[-2 * tail:]
        late = trace[-tail:]
        spread = circular_spread(late)
        if spread <= tol_limit and seq.size >= tail:
            worst_spread = max(worst_spread, spread)
            continue
        inconclusive = True
        split = _two_clusters(trace)
        if split is None:
            continue
        c1, s1, c2, s2, gap = split
        if not (gap >= GAP_MIN and max(s1, s2) < gap / 2):
            continue
        # with spreads below gap / 2 each value is nearer its own center
        first = int(np.count_nonzero(dist(late[:, None], c1, METRIC_TORUS)
                                     < dist(late[:, None], c2, METRIC_TORUS)))
        if min(first, late.size - first) < LATE_MIN:
            faded = True
            continue
        orbit_spread = orbit.spread(seq[-tail:])
        if orbit_spread <= cauchy_tol:
            return ExponentProbeReport(
                candidate, "REJECTED",
                rejection_times=seq,
                rejection_clusters=(c1, c2),
                rejection_gap=gap,
                rejection_orbit_spread=orbit_spread,
                notes=(f"trace oscillates on a verified f-sequence; each "
                       f"cluster holds at least {LATE_MIN} of the last "
                       f"{tail} values"))
    if inconclusive:
        if shortest < tail:
            notes = (f"a sequence has {shortest} times, fewer than "
                     f"tail = {tail}")
        elif faded:
            notes = (f"a trace splits into two clusters, but one holds fewer "
                     f"than {LATE_MIN} of the last {tail} values")
        else:
            notes = "trace neither settles nor splits into two verified clusters"
        return ExponentProbeReport(candidate, "INCONCLUSIVE", notes=notes)
    return ExponentProbeReport(candidate, "ACCEPTED",
                               max_tail_spread=worst_spread)


@dataclass
class AlmostPeriodReport:
    epsilon: float
    taus: np.ndarray
    max_gap: float
    relatively_dense_at: float | None


def scan_almost_periods(orbit: OrbitEvaluator, epsilon: float,
                        t_max: float, grid: float) -> AlmostPeriodReport:
    """Detect sampled epsilon-almost periods tau in (0, t_max]: grid
    points where sup over t in [0, t_max] of d(f(t), f(t+tau)) <= eps."""
    if grid <= 0:
        raise ValueError("grid must be positive")
    n_tau = int(round(t_max / grid))
    ts = np.arange(0, (2 * n_tau + 1)) * grid
    pts = orbit.batch(ts)
    sup = almost_period_sup(pts, n_tau, orbit.metric_kind)
    ks = np.nonzero(sup <= epsilon)[0] + 1
    taus = ks * grid
    anchors = np.concatenate([[0.0], taus])
    max_gap = float(np.diff(anchors).max()) if taus.size else float("inf")
    return AlmostPeriodReport(epsilon=epsilon, taus=taus, max_gap=max_gap,
                              relatively_dense_at=max_gap if taus.size else None)


@dataclass
class KroneckerQuery:
    """Simultaneous approximation: find t with frac(freq_i * t) within
    epsilon of target_i for all i, subject to the targets satisfying the
    frequencies' integer relations."""

    frequencies: list
    targets: list[float]
    epsilon: float
    search_bound: float = 1e6
    relations: list[list[int]] = field(default_factory=list)
    t_min: float = 0.0
    negate_time: bool = False

    def values(self) -> np.ndarray:
        return np.array([_freq_value(f) for f in self.frequencies])

    def validate(self, tol: float = 1e-9):
        """Raise ValueError unless epsilon is a positive finite number,
        search_bound and t_min are finite and some frequency is nonzero,
        and IncompatibleTargetsError unless the targets satisfy every
        relation within tol."""
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(
                f"epsilon must be positive and finite, got {self.epsilon!r}")
        for name, x in (("search_bound", self.search_bound), ("t_min", self.t_min)):
            if not -np.inf < x < np.inf:
                raise ValueError(f"{name} must be finite, got {x!r}")
        if not any(map(_freq_value, self.frequencies)):
            raise ValueError("at least one frequency must be nonzero")
        for rel in self.relations:
            resid = sum(l * x for l, x in zip(rel, self.targets))
            if circle_dist(resid, 0.0) > tol:
                raise IncompatibleTargetsError(
                    f"relation {rel} maps the targets to {frac(resid):.3g} != 0")


def kronecker_solve(query: KroneckerQuery):
    """Scan for a solution time; None when the bound is exhausted.

    When some frequency equals 1 the scan runs over t = n + lift(target)
    for integers n (exact in that coordinate), testing every n.
    Otherwise the scan runs over a uniform grid of resolution
    epsilon / (4 max |freq|), on which the fastest coordinate moves
    epsilon/4 per point and can pass only in runs of about 8 points
    per revolution.  kron_scan_grid tests just those runs, each widened
    by a bound on its float error, so it costs about 2*epsilon*n of the
    grid's n points and returns the first hit of a scan of every point.
    Both scans stop at the last point not past search_bound.  Every
    returned t is rechecked exactly against the requested epsilon.  A
    float hit that fails the recheck is skipped and the scan goes on
    from the next integer, or on the grid path from t + step; a kernel
    that returns a point before its range, or a t that t + step does
    not pass, raises VerificationError.  An epsilon that is not positive
    and finite, a search_bound or t_min that is not finite, or
    frequencies that are all zero, raise ValueError.
    """
    query.validate()
    vals = query.values()
    targs = np.asarray(query.targets, dtype=float) % 1.0
    if query.negate_time:
        inner = KroneckerQuery(query.frequencies, list((-targs) % 1.0),
                               query.epsilon, query.search_bound,
                               query.relations and [list(r) for r in query.relations],
                               t_min=query.t_min)
        # negated targets satisfy the same integer relations
        t = kronecker_solve(inner)
        return None if t is None else -t
    eps = query.epsilon
    unit = np.nonzero(np.abs(vals - 1.0) < 1e-12)[0]
    if unit.size:
        offset = float(targs[unit[0]])
        others = np.delete(np.arange(vals.size), unit[0])
        n0 = int(np.ceil(query.t_min - offset))
        n1 = int(np.floor(query.search_bound - offset))
        # rounding in n + offset can carry an end point out of the range
        while float(n0) + offset < query.t_min:
            n0 += 1
        while float(n1) + offset > query.search_bound:
            n1 -= 1
        while True:
            t = kron_scan_integer(vals[others], targs[others], eps, offset, n0, n1)
            if np.isnan(t) or _exactly_within(vals, targs, eps, t):
                break
            # rounding in v*t let a float hit through: go on from the
            # next integer, so every point is still built from its n
            n_hit = round(Fraction(float(t)) - Fraction(offset))
            if n_hit < n0:
                raise VerificationError(f"scan returned t = {t!r} before n = {n0}")
            n0 = n_hit + 1
    else:
        step = eps / (4.0 * np.max(np.abs(vals)))
        t0 = query.t_min
        while True:
            t = kron_scan_grid(vals, targs, eps, t0, float(query.search_bound), step)
            if np.isnan(t) or _exactly_within(vals, targs, eps, t):
                break
            # rounding let a float hit through: scan on from the next grid
            # point, which must lie past the rejected one
            if t < t0 or not t + step > t:
                raise VerificationError(f"scan returned t = {t!r}, "
                                        f"which does not advance from t0 = {t0!r}")
            t0 = t + step
    return None if np.isnan(t) else float(t)


def _exactly_within(vals, targs, eps, t) -> bool:
    """Whether every frac(vals[j]*t) is within eps of targs[j], decided
    on the Fractions of the float inputs, so rounding in v*t cannot pass."""
    ft, feps = Fraction(float(t)), Fraction(eps)
    for v, x in zip(vals, targs):
        d = (Fraction(float(v)) * ft - Fraction(float(x))) % 1
        if not min(d, 1 - d) < feps:
            return False
    return True


def build_breaker_sequence(orbit: OrbitEvaluator, gamma,
                           frequencies: list, fixed_targets: list[float],
                           two_targets: tuple, count: int = 24,
                           relations: list[list[int]] = (),
                           search_bound: float = 1e7,
                           eps_schedule: Callable[[int], float] | None = None,
                           cauchy_tol: float = CAUCHY_TOL,
                           negate_time: bool = False):
    """Interleave solution times whose frequency traces converge to the
    fixed targets while the gamma trace alternates between two_targets
    with tolerance shrinking like 1/i; each |t_i| exceeds the last by at
    least BREAKER_GAP.  Returns the array of times.

    Returns None (NOT_FOUND) when the targets cannot oscillate: either
    they are closer than GAP_MIN (the consistency-refusal case) or a
    relation compatibility check fails.  Raises NonConvergentError when
    the orbit points at the last 8 times spread more than cauchy_tol.
    """
    if circle_dist(two_targets[0], two_targets[1]) < GAP_MIN:
        return None
    if eps_schedule is None:
        eps_schedule = lambda i: 1.0 / i
    times = []
    t_prev = 0.0
    for i in range(1, count + 1):
        eps = eps_schedule(i)
        gtarget = two_targets[0] if i % 2 == 1 else two_targets[1]
        query = KroneckerQuery(
            frequencies=list(frequencies) + [gamma],
            targets=list(fixed_targets) + [gtarget],
            epsilon=eps,
            search_bound=search_bound,
            relations=[list(r) for r in relations],
            t_min=t_prev + BREAKER_GAP,
            negate_time=negate_time)
        try:
            t = kronecker_solve(query)
        except IncompatibleTargetsError:
            return None
        if t is None:
            return None
        times.append(t)
        t_prev = abs(t)
    times = np.array(times)
    presented_limits(orbit, times, {}, tol_orbit=cauchy_tol,
                     tol_limit=TOL_LIMIT, tail=8)
    return times


def induced_circle_map(orbit: OrbitEvaluator, alpha,
                       presentations: Sequence,
                       tol_limit: float = TOL_LIMIT,
                       tail: int = 10) -> list[float]:
    """For each presentation of a point, an array of times t_i, the
    numeric limit of frac(alpha * t_i); two presentations of one point
    must agree within 2 * tol_limit (checked by the caller against each
    other).

    Raises NonConvergentError when a presentation's last `tail` orbit
    points spread more than TOL_ORBIT, so it is no f-sequence of `orbit`.
    """
    val = _freq_value(alpha)
    return [presented_limits(orbit, seq, {"trace": val}, tol_orbit=TOL_ORBIT,
                             tol_limit=tol_limit, tail=tail)[0]
            for seq in presentations]
