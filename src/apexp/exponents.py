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

from .circmath import circle_dist, circular_mean, circular_spread, dist, frac
from .groups import VerificationError
from .kernels import almost_period_sup, kron_scan_grid, kron_scan_integer
from .realfield import RealVector

__all__ = [
    "OrbitEvaluator",
    "FSequence",
    "ExponentProbeReport",
    "AlmostPeriodReport",
    "KroneckerQuery",
    "IncompatibleTargetsError",
    "NonConvergentError",
    "find_f_sequences",
    "probe_exponent",
    "scan_almost_periods",
    "kronecker_solve",
    "build_breaker_sequence",
    "induced_circle_map",
]

TOL_ORBIT = 1e-6
TOL_LIMIT = 1e-3
GAP_MIN = 0.1
UNBOUNDED_THRESHOLD = 100.0


class IncompatibleTargetsError(ValueError):
    """A declared integer relation fails the target compatibility check."""


class NonConvergentError(ValueError):
    """A trace required to converge has too large a tail spread."""


def _freq_value(x) -> float:
    return x.eval() if isinstance(x, RealVector) else float(x)


@dataclass
class OrbitEvaluator:
    """A map t -> point together with the metric of its target space."""

    eval: Callable[[float], np.ndarray]
    metric_kind: int
    base_time: float = 0.0
    eval_batch: Callable | None = None
    forward_only: bool = False  # restrict searches to t >= 0 (semi-orbits)

    def metric(self, p, q) -> float:
        return float(dist(p, q, self.metric_kind))

    def batch(self, ts: np.ndarray) -> np.ndarray:
        if self.eval_batch is not None:
            return np.asarray(self.eval_batch(np.asarray(ts, dtype=float)))
        return np.array([np.atleast_1d(self.eval(float(t))) for t in ts])


@dataclass
class FSequence:
    """Times whose orbit values converge to a target."""

    times: np.ndarray
    target: np.ndarray
    cauchy_profile: np.ndarray  # d(f(t_i), target)
    unbounded: bool = False

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.target = np.atleast_1d(np.asarray(self.target, dtype=float))
        self.cauchy_profile = np.asarray(self.cauchy_profile, dtype=float)
        self.unbounded = bool(np.max(np.abs(self.times)) > UNBOUNDED_THRESHOLD) \
            if self.times.size else False

    def verify_cauchy(self, orbit: OrbitEvaluator, tail: int = 8) -> float:
        """Recompute the tail spread of the orbit values; the sequence is
        (desk-scale) Cauchy when this is small."""
        pts = [np.atleast_1d(orbit.eval(float(t))) for t in self.times[-tail:]]
        return max(orbit.metric(p, q) for p in pts for q in pts)


def find_f_sequences(orbit: OrbitEvaluator, target, count: int = 1,
                     t_max: float = 1000.0, tol_orbit: float = TOL_ORBIT,
                     grid: float = 0.01, t_min: float = 0.0,
                     refine_iters: int = 60) -> list[FSequence]:
    """Grid-scan [t_min, t_max] for near-returns to the target, refine
    each local minimum of the distance, and split the accepted return
    times into `count` interleaved sequences.

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
    hits = []
    for i in idx:
        if dists[i] > 10 * tol_orbit + 0.2:
            continue  # not worth refining
        t, d = _refine_minimum(orbit, target, ts[i] - grid, ts[i] + grid,
                               refine_iters)
        if d <= tol_orbit:
            hits.append((t, d))
    hits.sort()
    if not hits:
        return []
    times = np.array([t for t, _ in hits])
    profile = np.array([d for _, d in hits])
    target = np.atleast_1d(np.asarray(target, dtype=float))
    out = []
    for j in range(count):
        if times[j::count].size:
            out.append(FSequence(times[j::count], target, profile[j::count]))
    return out


def _refine_minimum(orbit, target, lo, hi, iters):
    """Golden-section refinement of a bracketed distance minimum."""
    target = np.atleast_1d(np.asarray(target, dtype=float))

    def d(t):
        return orbit.metric(np.atleast_1d(orbit.eval(t)), target)

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, dd = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = d(c), d(dd)
    for _ in range(iters):
        if fc < fd:
            b, dd, fd = dd, c, fc
            c = b - invphi * (b - a)
            fc = d(c)
        else:
            a, c, fc = c, dd, fd
            dd = a + invphi * (b - a)
            fd = d(dd)
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
    v = np.sort(np.asarray(values, dtype=float) % 1.0)
    if v.size < 4:
        return None
    gaps = np.diff(v, append=v[0] + 1.0)
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


def probe_exponent(orbit: OrbitEvaluator, candidate,
                   sequences: Sequence[FSequence],
                   breakers: Sequence[FSequence] = (),
                   tol_limit: float = TOL_LIMIT, gap_min: float = GAP_MIN,
                   cauchy_tol: float = 0.05, tail: int = 10) -> ExponentProbeReport:
    """Three-valued membership evidence for a candidate exponent.

    ACCEPTED: frac(candidate * t_i) has tail spread <= tol_limit on
    every supplied sequence.  REJECTED: some sequence (typically a
    breaker) passes the orbit Cauchy check while its trace clusters at
    two values >= gap_min apart.  INCONCLUSIVE otherwise.
    """
    if not sequences and not breakers:
        raise ValueError("at least one sequence is required")
    val = _freq_value(candidate)
    worst_spread = 0.0
    inconclusive = False
    for seq in list(sequences) + list(breakers):
        trace = frac(val * seq.times)[-2 * tail:]
        spread = circular_spread(trace[-tail:])
        if spread <= tol_limit:
            worst_spread = max(worst_spread, spread)
            continue
        split = _two_clusters(trace)
        if split is not None:
            c1, s1, c2, s2, gap = split
            if gap >= gap_min and max(s1, s2) < gap / 2:
                orbit_spread = seq.verify_cauchy(orbit, tail=tail)
                if orbit_spread <= cauchy_tol:
                    return ExponentProbeReport(
                        candidate, "REJECTED",
                        rejection_times=seq.times,
                        rejection_clusters=(c1, c2),
                        rejection_gap=gap,
                        rejection_orbit_spread=orbit_spread,
                        notes="trace oscillates on a verified f-sequence")
        inconclusive = True
    if inconclusive:
        return ExponentProbeReport(candidate, "INCONCLUSIVE",
                                   notes="trace neither settles nor splits "
                                         "into two verified clusters")
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
        for rel in self.relations:
            resid = sum(l * x for l, x in zip(rel, self.targets))
            if circle_dist(resid, 0.0) > tol:
                raise IncompatibleTargetsError(
                    f"relation {rel} maps the targets to {frac(resid):.3g} != 0")


def kronecker_solve(query: KroneckerQuery):
    """Scan for a solution time; None when the bound is exhausted.

    When some frequency equals 1 the scan runs over t = n + lift(target)
    for integers n (exact in that coordinate); otherwise a uniform grid
    of resolution epsilon / (4 max |freq|) is scanned.  Every returned t
    is post-verified against the requested epsilon.
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
        t = kron_scan_integer(vals[others], targs[others], eps, offset,
                              n0, int(query.search_bound))
    else:
        step = eps / (4.0 * np.max(np.abs(vals)))
        t = kron_scan_grid(vals, targs, eps, query.t_min,
                           float(query.search_bound), step)
    if np.isnan(t):
        return None
    # never trust the search: recheck the epsilon exactly, on the
    # Fractions of the float inputs, so rounding in v*t cannot pass
    ft, feps = Fraction(float(t)), Fraction(eps)
    for v, x in zip(vals, targs):
        d = (Fraction(float(v)) * ft - Fraction(float(x))) % 1
        if not min(d, 1 - d) < feps:
            raise VerificationError(f"scan returned t = {t!r}, not within {eps!r}")
    return float(t)


@dataclass
class BreakerSequence(FSequence):
    """An f-sequence whose gamma-trace alternates between two targets."""

    gamma_targets: tuple = (0.0, 0.5)


def build_breaker_sequence(orbit: OrbitEvaluator, gamma,
                           frequencies: list, fixed_targets: list[float],
                           two_targets: tuple, count: int = 24,
                           relations: list[list[int]] = (),
                           search_bound: float = 1e7,
                           eps_schedule: Callable[[int], float] | None = None,
                           gap_min: float = GAP_MIN,
                           min_time_gap: float = 1.0,
                           cauchy_tol: float = 0.05,
                           target_point=None,
                           negate_time: bool = False):
    """Interleave solution times whose frequency traces converge to the
    fixed targets while the gamma trace alternates between two_targets
    with tolerance shrinking like 1/i.

    Returns None (NOT_FOUND) when the targets cannot oscillate: either
    they are closer than gap_min (the consistency-refusal case) or a
    relation compatibility check fails.  Raises NonConvergentError when
    the collected times fail the orbit Cauchy check.
    """
    if circle_dist(two_targets[0], two_targets[1]) < gap_min:
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
            t_min=t_prev + min_time_gap,
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
    if target_point is None:
        target_point = np.atleast_1d(orbit.eval(float(times[-1])))
    pts = [np.atleast_1d(orbit.eval(float(t))) for t in times]
    profile = np.array([orbit.metric(p, target_point) for p in pts])
    seq = BreakerSequence(times=times, target=target_point,
                          cauchy_profile=profile,
                          gamma_targets=tuple(two_targets))
    spread = seq.verify_cauchy(orbit)
    if spread > cauchy_tol:
        raise NonConvergentError(
            f"breaker times are not an f-sequence: orbit tail spread {spread:.3g}")
    return seq


def induced_circle_map(orbit: OrbitEvaluator, alpha,
                       presentations: Sequence[FSequence],
                       tol_limit: float = TOL_LIMIT,
                       tail: int = 10) -> list[float]:
    """For each presentation {t_i} of a point, the numeric limit of
    frac(alpha * t_i); two presentations of one point must agree within
    2 * tol_limit (checked by the caller against each other)."""
    val = _freq_value(alpha)
    out = []
    for seq in presentations:
        trace = frac(val * seq.times)[-tail:]
        spread = circular_spread(trace)
        if spread > tol_limit:
            raise NonConvergentError(
                f"trace spread {spread:.3g} exceeds {tol_limit:.3g}")
        out.append(circular_mean(trace))
    return out
