"""Scenario harness: end-to-end reproductions of the worked examples,
runnable from the CLI with JSON parameters and machine-readable reports.

Each scenario builds an orbit, runs the exponent probes (and any
structural checks), and records one Expectation per claim.  Runs are
deterministic given their parameters.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .circle import build_denjoy, rotation_bracket
from .circmath import (METRIC_CYLINDER, METRIC_EUCLIDEAN, METRIC_TORUS,
                       circle_dist, circular_gaps, dist, frac)
from .exponents import (OrbitEvaluator, build_breaker_sequence,
                        find_f_sequences, interleaved_sequences, probe_exponent)
from .groups import build_b_sequence
from .realfield import SymbolBasis
from .solenoid import TOL_CONSIST, SolenoidSystem, pi_solenoid

__all__ = [
    "Expectation",
    "RunReport",
    "Scenario",
    "SCENARIOS",
    "run_scenario",
    "example1_map",
    "example1_returns",
    "spiral_orbit",
    "spiral_returns",
    "denjoy_suspension_orbit",
    "denjoy_suspension_returns",
]

LN2 = math.log(2.0)
EXP_ARG_MAX = math.log(sys.float_info.max)  # largest x with finite exp(x)


@dataclass
class Expectation:
    name: str
    passed: bool
    measured: object
    detail: str = ""

    def to_json(self):
        return {"name": self.name, "passed": self.passed,
                "measured": self.measured, "detail": self.detail}


@dataclass
class RunReport:
    scenario: str
    params: dict
    expectations: list[Expectation] = field(default_factory=list)
    runtime: float = 0.0

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.expectations)

    def check(self, name, passed, measured, detail=""):
        if isinstance(measured, (np.floating, np.bool_)):
            measured = measured.item()
        self.expectations.append(Expectation(name, bool(passed), measured, detail))

    def to_json(self):
        return {"scenario": self.scenario, "params": self.params,
                "passed": self.passed, "runtime": round(self.runtime, 3),
                "expectations": [e.to_json() for e in self.expectations]}


@dataclass
class Scenario:
    name: str
    description: str
    defaults: dict
    runner: Callable[[dict], RunReport]
    # orbit-and-sequences builder of a probe scenario: params -> (orbit, seqs)
    returns: Callable[[dict], tuple] | None = None

    def run(self, params: dict | None = None) -> RunReport:
        merged = dict(self.defaults)
        merged.update(params or {})
        start = time.perf_counter()
        report = self.runner(merged)
        report.runtime = time.perf_counter() - start
        return report


# ---------------------------------------------------------------------------
# planar two-branch map (decaying sawtooth into the segment {0} x [0,1])


def example1_map(ts: np.ndarray) -> np.ndarray:
    """g(t) = (d/2^(k+1) + (1-d)/2^k, d or 1-d) with k = floor(t),
    d = t - k, for each t of an (n,) array; the second branch flips on
    odd k."""
    ks = np.floor(ts)
    ds = ts - ks
    first = ds * 2.0 ** (-(ks + 1)) + (1.0 - ds) * 2.0 ** (-ks)
    second = np.where(ks.astype(np.int64) % 2 == 0, ds, 1.0 - ds)
    return np.stack([first, second], axis=1)


def example1_returns(params: dict):
    """The sawtooth orbit and two interleaved return sequences to
    (0, 1/2), found on params' grid over [t_min, t_max]."""
    orbit = OrbitEvaluator(example1_map, METRIC_EUCLIDEAN)
    seqs = find_f_sequences(orbit, np.array([0.0, 0.5]), count=2,
                            t_min=params["t_min"], t_max=params["t_max"],
                            grid=params["grid"])
    return orbit, seqs


def _rational_breaker(q: int, p: int, count: int = 24) -> np.ndarray:
    """Times q*i + 1/2 (odd i) and q*i + 3/2 (even i): the orbit heads
    into (0, 1/2) while frac((p/q) * t_i) alternates between p/2q and
    p/2q + p/q."""
    i = np.arange(1, count + 1)
    return np.where(i % 2 == 1, q * i + 0.5, q * i + 1.5)


def _run_example1(params: dict) -> RunReport:
    report = RunReport("example1", params)
    orbit, seqs = example1_returns(params)
    basis = SymbolBasis([("1", 1.0), ("sqrt2", math.sqrt(2.0))])
    one = basis.symbol("1")
    sqrt2 = basis.symbol("sqrt2")

    g_half = orbit.eval(0.5)
    report.check("g(0.5) = (0.75, 0.5)",
                 np.allclose(g_half, [0.75, 0.5], atol=1e-12),
                 g_half.tolist(), "closed form")
    n = 30
    d_return = float(np.linalg.norm(orbit.eval(n + 0.5) - [0.0, 0.5]))
    report.check("f(n + 1/2) -> (0, 1/2)", d_return <= 2.0 ** (-n + 1),
                 d_return, f"n = {n}")

    report.check("two return sequences found", len(seqs) == 2, len(seqs))

    tol_limit = params["tol_limit"]
    for cand, name in [(one, "1"), (one.scale(2), "2")]:
        rep = probe_exponent(orbit, cand, seqs, tol_limit=tol_limit)
        report.check(f"candidate {name} accepted", rep.verdict == "ACCEPTED",
                     rep.verdict, f"spread {rep.max_tail_spread:.2e}"
                     if rep.max_tail_spread is not None else "")

    for p, q, min_gap in [(1, 2, 0.45), (1, 3, 0.3)]:
        breaker = _rational_breaker(q, p)
        rep = probe_exponent(orbit, Fraction(p, q), seqs + [breaker],
                             tol_limit=tol_limit)
        ok = rep.verdict == "REJECTED" and rep.rejection_gap >= min_gap
        report.check(f"candidate {p}/{q} rejected",
                     ok, {"verdict": rep.verdict,
                          "clusters": list(rep.rejection_clusters or ()),
                          "gap": rep.rejection_gap})

    # irrational candidate: times n + 1/2 with frac(sqrt2 * n) steered
    # alternately toward 0 and 1/3, so the trace splits by 1/3
    s2 = math.sqrt(2.0)
    breaker = build_breaker_sequence(
        orbit, sqrt2, frequencies=[one], fixed_targets=[0.5],
        two_targets=(frac(s2 / 2.0), frac(s2 / 2.0 + 1.0 / 3.0)),
        count=params["breaker_count"],
        search_bound=params["search_bound"])
    rep = probe_exponent(orbit, sqrt2, seqs + [breaker], tol_limit=tol_limit)
    ok = rep.verdict == "REJECTED" and abs(rep.rejection_gap - 1 / 3) < 0.05
    report.check("candidate sqrt2 rejected (targets 0 and 1/3)", ok,
                 {"verdict": rep.verdict, "gap": rep.rejection_gap})
    return report


# ---------------------------------------------------------------------------
# planar spiral between two invariant circles


def spiral_orbit(alpha: float, beta: float) -> OrbitEvaluator:
    """Orbit t -> (frac(angle(t)), r(t)) on the cylinder, with
    angle = alpha*ln(e^t + 1) - beta*ln(e^-t + 1) + (beta - alpha)*ln 2
    and r = e^t / (e^t + 1): spirals from the circle r = 0 (rotation
    speed beta) to the circle r = 1 (rotation speed alpha)."""

    def angle(ts):
        soft = np.log1p(np.exp(-np.abs(ts)))  # = ln(e^t+1) - max(t, 0)
        la = np.maximum(ts, 0.0) + soft
        lb = np.maximum(-ts, 0.0) + soft
        return alpha * la - beta * lb + (beta - alpha) * LN2

    def batch(ts):
        # exp(-t) overflows to inf for t < -EXP_ARG_MAX, where r is 0
        e = np.exp(-ts, out=np.full_like(ts, np.inf), where=ts >= -EXP_ARG_MAX)
        r = 1.0 / (1.0 + e)
        return np.stack([frac(angle(ts)), r], axis=1)

    return OrbitEvaluator(batch, METRIC_CYLINDER)


def spiral_returns(params: dict):
    """The spiral orbit with speeds params["alpha"] and params["beta"],
    and two return sequences to a fixed angle on its forward limit
    circle r = 1, found on params' grid over [t_min, t_max]."""
    a, b = float(params["alpha"]), float(params["beta"])
    orbit = spiral_orbit(a, b)
    target = np.array([frac((b - a) * LN2), 1.0])
    seqs = find_f_sequences(orbit, target, count=2, t_min=params["t_min"],
                            t_max=params["t_max"], grid=params["grid"])
    return orbit, seqs


def _run_spiral(params: dict) -> RunReport:
    report = RunReport("spiral", params)
    basis = SymbolBasis([("1", 1.0), ("alpha", math.sqrt(2.0)),
                         ("beta", math.sqrt(3.0))])
    alpha, beta = basis.symbol("alpha"), basis.symbol("beta")
    orbit, seqs = spiral_returns({**params, "alpha": alpha.eval(),
                                  "beta": beta.eval()})

    p0 = orbit.eval(0.0)
    report.check("f(0) = (0, 1/2)",
                 circle_dist(p0[0], 0.0) < 1e-12 and abs(p0[1] - 0.5) < 1e-12,
                 p0.tolist())
    r_far = orbit.eval(30.0)[1], orbit.eval(-30.0)[1]
    report.check("r(t) -> 1 and 0 at the ends",
                 abs(r_far[0] - 1) < 1e-9 and abs(r_far[1]) < 1e-9,
                 [float(v) for v in r_far])

    report.check("forward return sequences found", len(seqs) == 2, len(seqs))

    rep = probe_exponent(orbit, alpha, seqs, tol_limit=params["tol_limit"])
    report.check("forward probe accepts alpha", rep.verdict == "ACCEPTED",
                 rep.verdict)

    # forward breaker: angle trace pinned, frac(beta * t) alternates
    fwd_breaker = build_breaker_sequence(
        orbit, beta, frequencies=[alpha], fixed_targets=[0.0],
        two_targets=(0.0, 0.5), count=params["breaker_count"],
        eps_schedule=lambda i: 0.5 / i, cauchy_tol=params["cauchy_tol"],
        search_bound=params["search_bound"])
    rep = probe_exponent(orbit, beta, seqs + [fwd_breaker],
                         cauchy_tol=params["cauchy_tol"])
    report.check("forward probe rejects beta", rep.verdict == "REJECTED",
                 rep.verdict)

    # backward breaker: the t -> -inf end rotates at speed beta, so the
    # same trick run backwards breaks alpha on the full orbit
    bwd_breaker = build_breaker_sequence(
        orbit, alpha, frequencies=[beta], fixed_targets=[0.0],
        two_targets=(0.0, 0.5), count=params["breaker_count"],
        eps_schedule=lambda i: 0.5 / i, cauchy_tol=params["cauchy_tol"],
        search_bound=params["search_bound"], negate_time=True)
    rep = probe_exponent(orbit, alpha, seqs + [bwd_breaker],
                         cauchy_tol=params["cauchy_tol"])
    report.check("full-orbit probe rejects alpha", rep.verdict == "REJECTED",
                 rep.verdict)
    rep = probe_exponent(orbit, beta, seqs + [fwd_breaker],
                         cauchy_tol=params["cauchy_tol"])
    report.check("full-orbit probe rejects beta", rep.verdict == "REJECTED",
                 rep.verdict)
    return report


# ---------------------------------------------------------------------------
# suspension of the blown-up rotation


def denjoy_suspension_orbit(d, w_star: float):
    """Suspension orbit through (0, embed(w_star)).

    On the invariant Cantor set the return map acts as the rotation
    pulled through the embedding, so the fiber at time t is
    embed(frac(w_star + floor(t) * theta)) in closed form.
    """

    def batch(ts):
        ks = np.floor(ts)
        return np.stack([ts - ks, d.embed(w_star + ks * d.theta_val)], axis=1)

    return OrbitEvaluator(batch, METRIC_TORUS)


def _widest_gap_midpoint(points: np.ndarray) -> tuple[float, float]:
    """Midpoint of the largest circular gap between the given circle
    points, and the half-width of that gap."""
    p, gaps = circular_gaps(points)
    k = int(np.argmax(gaps))
    return frac(p[k] + gaps[k] / 2.0), float(gaps[k] / 2.0)


def _integer_returns(orbit: OrbitEvaluator, base: np.ndarray, n_max: int,
                     tol: float, count: int = 2) -> list[np.ndarray]:
    ns = np.arange(1, n_max + 1, dtype=float)
    dists = dist(orbit.batch(ns), base, orbit.metric_kind)
    return interleaved_sequences(ns[dists <= tol], count)


def _denjoy_suspension(params: dict):
    """The suspension orbit of the rotation by params["theta"] blown up
    with ratio 1/2 to depth trunc, its integer return sequences (n_max,
    tol_return), the blown-up rotation, and the half-width of the gap
    around the orbit's base point."""
    basis = SymbolBasis([("1", 1.0), ("theta", float(params["theta"]))])
    d = build_denjoy(basis.symbol("theta"), Fraction(1, 2),
                     trunc=int(params["trunc"]))
    # base the orbit at a Cantor point far from every blown-up orbit
    # point, so small rotation errors translate to small fiber distances
    w_star, half_gap = _widest_gap_midpoint(d.pos)
    orbit = denjoy_suspension_orbit(d, w_star)
    seqs = _integer_returns(orbit, orbit.eval(0.0), int(params["n_max"]),
                            float(params["tol_return"]))
    return orbit, seqs, d, half_gap


def denjoy_suspension_returns(params: dict):
    """The suspension orbit and its integer return sequences; see
    _denjoy_suspension."""
    return _denjoy_suspension(params)[:2]


def _run_denjoy_suspension(params: dict) -> RunReport:
    report = RunReport("denjoy-suspension", params)
    basis = SymbolBasis([("1", 1.0), ("theta", math.sqrt(2.0) / 2.0),
                         ("sqrt3", math.sqrt(3.0))])
    one, theta, sqrt3 = (basis.symbol(n) for n in ("1", "theta", "sqrt3"))
    orbit, seqs, d, half_gap = _denjoy_suspension(
        {**params, "theta": theta.eval()})
    report.check("base point clears the blown-up orbit", half_gap > 0.005,
                 half_gap)
    report.check("return sequences found",
                 len(seqs) == 2 and min(len(s) for s in seqs) >= 4,
                 [len(s) for s in seqs])

    members = [("1", one), ("theta", theta), ("1+theta", one + theta),
               ("2theta-1", theta.scale(2) - one)]
    for name, cand in members:
        rep = probe_exponent(orbit, cand, seqs, tol_limit=params["tol_limit"])
        report.check(f"member {name} accepted", rep.verdict == "ACCEPTED",
                     rep.verdict)

    # shrink like 1/i but stay below the base point's clearance, so
    # approximate returns never cross an inserted interval
    eps_floor = 0.8 * half_gap
    eps_sched = lambda i: max(min(0.25 / i, eps_floor), eps_floor / 4)
    common = dict(frequencies=[one, theta], fixed_targets=[0.0, 0.0],
                  count=params["breaker_count"], eps_schedule=eps_sched,
                  cauchy_tol=params["cauchy_tol"],
                  search_bound=params["search_bound"])
    # rationally dependent candidates: q*gamma = p + r*theta pins the
    # compatible target pair to 0 and 1/q
    non_members = [
        ("1/2", one.scale(Fraction(1, 2)), [[-1, 0, 2]]),
        ("(1+theta)/2", (one + theta).scale(Fraction(1, 2)), [[-1, -1, 2]]),
        ("sqrt3", sqrt3, []),
    ]
    for name, cand, relations in non_members:
        breaker = build_breaker_sequence(
            orbit, cand, two_targets=(0.0, 0.5), relations=relations, **common)
        rep = probe_exponent(orbit, cand, seqs + [breaker],
                             cauchy_tol=params["cauchy_tol"],
                             tol_limit=params["tol_limit"])
        report.check(f"non-member {name} rejected",
                     rep.verdict == "REJECTED",
                     {"verdict": rep.verdict, "gap": rep.rejection_gap,
                      "orbit_spread": rep.rejection_orbit_spread})

    # a candidate already in the exponent lattice cannot oscillate while
    # the generator traces converge: the builder must refuse
    refused = build_breaker_sequence(orbit, one + theta,
                                     two_targets=(0.0, 0.5),
                                     relations=[[-1, -1, 1]], **common)
    report.check("breaker refuses lattice member", refused is None, refused)

    # theta inside an exact rotation bracket as narrow as the 2/rot_n
    # bound of a rot_n-step orbit average
    width = 2.0 / params["rot_n"]
    br = rotation_bracket(d.lift, width=width)
    report.check("rotation number matches theta",
                 br.lo <= theta.eval() <= br.hi and br.width <= width,
                 {"estimate": br.estimate, "bound": br.width / 2,
                  "bracket": [str(br.lo), str(br.hi)]})
    return report


# ---------------------------------------------------------------------------
# dyadic solenoid


def _dyadic_bsequence(depth: int = 8):
    basis = SymbolBasis([("1", 1.0)])
    one = basis.symbol("1")
    elements = [basis.zero()] + [one.scale(Fraction(1, 2 ** i))
                                 for i in range(1, depth)]
    return build_b_sequence([one], elements, basis)


def _run_dyadic_solenoid(params: dict) -> RunReport:
    report = RunReport("dyadic-solenoid", params)
    depth = params["depth"]
    seq = _dyadic_bsequence(depth)
    mats = seq.matrices()
    report.check("all bonding matrices are [2]",
                 all(m == [[2]] for m in mats), mats)

    system = SolenoidSystem.from_bsequence(seq)
    pt = pi_solenoid(system, 1.0)
    expected = [frac(2.0 ** (-i)) for i in range(depth)]
    report.check("t = 1 stage coordinates halve",
                 all(circle_dist(float(s[0]), e) < 1e-12
                     for s, e in zip(pt.stages, expected)),
                 [float(s[0]) for s in pt.stages])

    ts = np.linspace(-100.0, 100.0, params["n_grid"])
    worst = pi_solenoid(system, ts).consistency_residual(system)
    report.check("consistency residual over the grid", worst <= TOL_CONSIST, worst)

    dual = system.dual_generator_group()
    report.check("dual generators recover the stage group",
                 dual.same_group(seq.group()), dual.rank)
    return report


# ---------------------------------------------------------------------------
# registry


SCENARIOS: dict[str, Scenario] = {}


def _register(name, description, defaults, runner, returns=None):
    SCENARIOS[name] = Scenario(name, description, defaults, runner, returns)


_register("example1",
          "planar sawtooth map: integer exponents accepted, rational and "
          "irrational candidates rejected by oscillating return times",
          {"t_min": 21.0, "t_max": 200.0, "grid": 0.01, "tol_limit": 1e-3,
           "breaker_count": 32, "search_bound": 1e6},
          _run_example1, example1_returns)
_register("spiral",
          "cylinder spiral between two invariant circles: forward exponents "
          "are generated by alpha, the full orbit has none",
          {"t_min": 14.0, "t_max": 40.0, "grid": 0.005, "tol_limit": 1e-3,
           "breaker_count": 40, "cauchy_tol": 0.1, "search_bound": 2e4},
          _run_spiral, spiral_returns)
_register("denjoy-suspension",
          "suspension of the blown-up rotation: exponents are exactly the "
          "integer span of theta and 1",
          {"trunc": 40, "n_max": 300000, "tol_return": 2e-5,
           "tol_limit": 1e-3, "breaker_count": 40, "cauchy_tol": 0.05,
           "search_bound": 1e7, "rot_n": 10000},
          _run_denjoy_suspension, denjoy_suspension_returns)
_register("dyadic-solenoid",
          "depth-8 dyadic refinement tower, its solenoid and linear flow",
          {"depth": 8, "n_grid": 10000},
          _run_dyadic_solenoid)


def run_scenario(name: str, params: dict | None = None) -> RunReport:
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; have {sorted(SCENARIOS)}")
    return SCENARIOS[name].run(params)
