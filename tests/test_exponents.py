import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from apexp.circmath import (METRIC_EUCLIDEAN, METRIC_TORUS, circle_dist,
                            circular_spread, dist, frac)
from apexp import exponents, solenoid
from apexp.exponents import (IncompatibleTargetsError,
                             KroneckerQuery, NonConvergentError,
                             OrbitEvaluator, _refine_minima,
                             build_breaker_sequence, find_f_sequences,
                             induced_circle_map, interleaved_sequences,
                             kronecker_solve, presented_limits,
                             probe_exponent, scan_almost_periods)
from apexp.scenarios import _dyadic_bsequence, example1_map, spiral_orbit
from apexp.solenoid import (SolenoidSystem, pi_solenoid,
                            semiconjugacy_to_solenoid)

THETA = math.sqrt(2.0) / 2.0


def circle_orbit(speed=1.0):
    """frac(speed * t) on the circle, with a vectorized evaluator."""
    return OrbitEvaluator(lambda ts: frac(speed * ts)[:, None], METRIC_TORUS)


def torus_orbit(omega):
    omega = np.asarray(omega, dtype=float)
    return OrbitEvaluator(lambda ts: frac(np.outer(ts, omega)), METRIC_TORUS)


class TestFindFSequences:
    def test_periodic_returns_at_integers(self):
        orbit = circle_orbit()
        seqs = find_f_sequences(orbit, target=[0.0], count=1,
                                t_max=10.5, grid=0.05)
        assert len(seqs) == 1
        times = seqs[0]
        assert len(times) >= 9
        assert np.allclose(times, np.round(times), atol=1e-6)
        assert np.all(dist(orbit.batch(times), [0.0], orbit.metric_kind) <= 1e-6)

    def test_interleaved_split(self):
        seqs = find_f_sequences(circle_orbit(), target=[0.0], count=2,
                                t_max=12.5, grid=0.05)
        assert len(seqs) == 2
        # consecutive returns alternate between the two sequences
        assert np.allclose(np.diff(seqs[0]), 2.0, atol=1e-6)
        assert np.allclose(seqs[1] - seqs[0], 1.0, atol=1e-6)

    def test_rotation_returns_near_denominators(self):
        # near-returns to the start of t -> t*theta happen close to the
        # denominators of the continued-fraction convergents of theta
        seqs = find_f_sequences(torus_orbit([THETA]), target=[0.0],
                                t_max=120.0, grid=0.01, tol_orbit=5e-3,
                                t_min=0.5)
        hits = set(np.round(seqs[0]).astype(int))
        assert {41, 99} <= hits
        assert 5 not in hits

    def test_none_found(self):
        orbit = OrbitEvaluator(lambda ts: ts[:, None], METRIC_EUCLIDEAN)
        assert find_f_sequences(orbit, target=[-3.0], t_max=30.0,
                                grid=0.1) == []

    def test_interleaved_sequences_drop_empty_ones(self):
        times = np.arange(5.0)
        seqs = interleaved_sequences(times, 7)
        assert [s.tolist() for s in seqs] == [[t] for t in range(5)]
        assert interleaved_sequences(times[:0], 2) == []


def scalar_refine(orbit, target, lo, hi, iters):
    """Reference golden-section refinement of one bracketed distance
    minimum, one orbit point and one metric call at a time."""
    target = np.atleast_1d(np.asarray(target, dtype=float))

    def d(t):
        return orbit.metric(orbit.eval(t), target)

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


# (orbit, target, time range) of the sawtooth, the spiral and a torus line
ORBITS = {
    "example1": (OrbitEvaluator(example1_map, METRIC_EUCLIDEAN),
                 [0.0, 0.5], (21.0, 200.0)),
    "spiral": (spiral_orbit(math.sqrt(2.0), math.sqrt(3.0)),
               [frac((math.sqrt(3.0) - math.sqrt(2.0)) * math.log(2.0)), 1.0],
               (-40.0, 40.0)),
    "torus": (torus_orbit([1.0, THETA]), [0.0, 0.0], (0.5, 120.0)),
}


class TestBatchedEvaluation:
    @pytest.mark.parametrize("name", sorted(ORBITS))
    def test_refinement_matches_scalar_loop(self, name):
        # all brackets refined at once give the bits of one-by-one loops
        orbit, target, (t0, t1) = ORBITS[name]
        rng = np.random.default_rng(len(name))
        centers = rng.uniform(t0, t1, 40)
        half = rng.uniform(1e-3, 0.05, 40)
        lo, hi = centers - half, centers + half
        ts, ds = _refine_minima(orbit, target, lo, hi, 60)
        ref = [scalar_refine(orbit, target, a, b, 60) for a, b in zip(lo, hi)]
        assert ts.tolist() == [t for t, _ in ref]
        assert ds.tolist() == [d for _, d in ref]

    @pytest.mark.parametrize("name", sorted(ORBITS))
    def test_spread_is_max_pairwise_metric(self, name):
        orbit, _, (t0, t1) = ORBITS[name]
        times = np.random.default_rng(len(name)).uniform(t0, t1, 12)
        pts = [orbit.eval(t) for t in times]
        ref = max(orbit.metric(p, q) for p in pts for q in pts)
        assert orbit.spread(times) == ref
        assert orbit.spread(times[:1]) == 0.0

    def test_eval_is_the_batch_row(self):
        orbit, _, _ = ORBITS["example1"]
        ts = np.array([0.5, 1.5, 30.5])
        assert [orbit.eval(t).tolist() for t in ts] == orbit.batch(ts).tolist()


class TestProbeExponent:
    def returns(self, orbit, **kw):
        return find_f_sequences(orbit, target=[0.0], t_max=40.5, grid=0.05,
                                **kw)

    def test_integer_accepted(self):
        orbit = circle_orbit()
        seqs = self.returns(orbit)
        for cand in (1.0, 2.0, 5.0):
            rep = probe_exponent(orbit, cand, seqs)
            assert rep.verdict == "ACCEPTED"
            assert rep.max_tail_spread <= 1e-3

    def test_half_rejected_with_cluster_evidence(self):
        orbit = circle_orbit()
        seqs = self.returns(orbit)
        rep = probe_exponent(orbit, 0.5, seqs)
        assert rep.verdict == "REJECTED"
        c1, c2 = sorted(rep.rejection_clusters)
        assert abs(c1 - 0.0) < 1e-9 and abs(c2 - 0.5) < 1e-9
        assert rep.rejection_gap == pytest.approx(0.5)
        assert rep.rejection_orbit_spread <= 1e-9

    def test_irrational_inconclusive_without_breaker(self):
        orbit = circle_orbit()
        seqs = self.returns(orbit)
        rep = probe_exponent(orbit, THETA, seqs)
        # the theta-trace over consecutive integers equidistributes: it
        # neither settles nor splits into two tight clusters
        assert rep.verdict == "INCONCLUSIVE"

    def test_rejection_requires_cauchy_sequence(self):
        # a fake sequence whose orbit values spread out must not be
        # usable as rejection evidence
        orbit = circle_orbit()
        rep = probe_exponent(orbit, 0.5, [np.arange(1, 25) * 0.5])
        assert rep.verdict == "INCONCLUSIVE"

    def test_accepted_candidates_form_a_group(self):
        orbit = circle_orbit()
        seqs = self.returns(orbit)
        accepted = [c for c in (1.0, 2.0, 3.0)
                    if probe_exponent(orbit, c, seqs).verdict == "ACCEPTED"]
        assert accepted == [1.0, 2.0, 3.0]
        for a in accepted:
            for b in accepted:
                assert probe_exponent(orbit, a + b, seqs).verdict == "ACCEPTED"
            assert probe_exponent(orbit, -a, seqs).verdict == "ACCEPTED"
        assert probe_exponent(orbit, 0.0, seqs).verdict == "ACCEPTED"

    def test_too_few_times_is_inconclusive(self):
        # one integer return of the T^2 translation within 2e-4: a one-point
        # tail has spread 0 for every candidate, which is no evidence
        omega = [math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0]
        orbit = torus_orbit(omega)
        t = kronecker_solve(KroneckerQuery([1.0, *omega], [0.0, 0.0, 0.0], 2e-4,
                                           search_bound=3e6, t_min=1.0))
        for cand in (math.pi, math.sqrt(5.0), 0.5, 1.0 / 3.0):
            rep = probe_exponent(orbit, cand, [[t]])
            assert rep.verdict == "INCONCLUSIVE"
            assert "1 times, fewer than tail = 10" in rep.notes

    @pytest.mark.parametrize("a", [2.0, 1.0 / 3.0])
    def test_scaling_covariance(self, a):
        # reparametrize time by t -> a*t: candidates scale by 1/a with
        # identical verdicts
        orbit = circle_orbit()
        scaled = circle_orbit(speed=a)
        seqs = self.returns(orbit)
        sseqs = find_f_sequences(scaled, target=[0.0],
                                 t_max=40.5 / a, grid=0.05 / a)
        for cand, expect in ((1.0, "ACCEPTED"), (2.0, "ACCEPTED"),
                             (0.5, "REJECTED")):
            assert probe_exponent(orbit, cand, seqs).verdict == expect
            assert probe_exponent(scaled, cand * a, sseqs).verdict == expect

    def test_late_settling_trace_is_not_rejected(self):
        # the depth-48 dyadic solenoid flow, each stage circle embedded as
        # 2^-i (cos, sin): on the breaker-shaped times 4^n the trace of
        # 2^-30 splits early but its last 7 values are exactly 0
        depth = 48
        system = SolenoidSystem.from_bsequence(_dyadic_bsequence(depth))
        weight = 2.0 ** -np.arange(depth)

        def points(ts):
            angle = 2 * np.pi * pi_solenoid(system, ts).stages[..., 0]
            return np.concatenate([weight * np.cos(angle),
                                   weight * np.sin(angle)], axis=-1)

        orbit = OrbitEvaluator(points, METRIC_EUCLIDEAN)
        n = np.arange(10, 44)
        seqs = [2.0 ** n, 3 * 2.0 ** n, 4.0 ** np.arange(5, 22)]
        late = probe_exponent(orbit, 2.0 ** -30, seqs)
        assert late.verdict == "INCONCLUSIVE"
        assert "fewer than 2 of the last 10 values" in late.notes
        third = probe_exponent(orbit, 1.0 / 3.0, seqs)
        assert third.verdict == "REJECTED"
        assert "at least 2 of the last 10 values" in third.notes

    @settings(max_examples=60, deadline=None)
    @given(early=st.lists(st.integers(0, 63), min_size=0, max_size=20),
           value=st.integers(0, 63), tail=st.integers(4, 12),
           lead=st.integers(-1, 0), tol_limit=st.sampled_from([0.0, 1e-3]))
    def test_trace_constant_over_tail_never_rejected(self, early, value, tail,
                                                     lead, tol_limit):
        # a constant orbit passes every Cauchy check, so only the trace
        # decides; times n + k/64 give the trace k/64 exactly.  Each
        # cluster needs two of the last `tail` values, so a trace constant
        # over its last tail - 1 values (lead = -1), let alone its last
        # tail, never splits into a persistent oscillation
        orbit = OrbitEvaluator(lambda ts: np.zeros((ts.size, 1)), METRIC_TORUS)
        run = tail + lead
        fracs = np.array(early + [value] * run, dtype=float) / 64.0
        times = np.arange(1, fracs.size + 1) + fracs
        rep = probe_exponent(orbit, 1.0, [times], tol_limit=tol_limit, tail=tail)
        assert rep.verdict != "REJECTED"


class TestAlmostPeriods:
    def test_periodic_flow(self):
        rep = scan_almost_periods(circle_orbit(), epsilon=0.01, t_max=5.0,
                                  grid=0.25)
        assert np.allclose(sorted(set(np.round(rep.taus / 0.25) * 0.25)
                                  & {1.0, 2.0, 3.0, 4.0, 5.0}),
                           [1.0, 2.0, 3.0, 4.0, 5.0])
        assert rep.max_gap == pytest.approx(1.0)
        assert rep.relatively_dense_at == pytest.approx(1.0)

    def test_rigid_rotation_almost_periods(self):
        rep = scan_almost_periods(torus_orbit([1.0, THETA]), epsilon=0.05,
                                  t_max=60.0, grid=1.0)
        taus = set(np.round(rep.taus).astype(int))
        assert {17, 41} <= taus  # convergent denominators of theta
        assert rep.max_gap <= 25.0

    def test_divergent_flow_has_none(self):
        orbit = OrbitEvaluator(lambda ts: ts[:, None], METRIC_EUCLIDEAN)
        rep = scan_almost_periods(orbit, epsilon=0.1, t_max=20.0, grid=0.5)
        assert rep.taus.size == 0
        assert rep.max_gap == float("inf")
        assert rep.relatively_dense_at is None


class TestKroneckerSolve:
    def test_unit_frequency_specialization(self):
        q = KroneckerQuery(frequencies=[1.0, THETA], targets=[0.25, 0.5],
                           epsilon=0.01, search_bound=1e5)
        t = kronecker_solve(q)
        assert t is not None
        assert circle_dist(t, 0.25) < 1e-12  # exact in the unit coordinate
        assert circle_dist(THETA * t, 0.5) < 0.01

    def test_grid_scan(self):
        q = KroneckerQuery(frequencies=[THETA, math.sqrt(3.0)],
                           targets=[0.1, 0.2], epsilon=0.05,
                           search_bound=1e4)
        t = kronecker_solve(q)
        assert t is not None
        assert circle_dist(THETA * t, 0.1) < 0.05
        assert circle_dist(math.sqrt(3.0) * t, 0.2) < 0.05

    def test_t_min_respected(self):
        q = KroneckerQuery(frequencies=[1.0], targets=[0.5], epsilon=0.01,
                           search_bound=1e4, t_min=7.2)
        t = kronecker_solve(q)
        assert t >= 7.2 and circle_dist(t, 0.5) < 0.01

    def test_relation_compatibility_enforced(self):
        ok = KroneckerQuery(frequencies=[1.0, 2.0], targets=[0.1, 0.2],
                            epsilon=0.01, relations=[[2, -1]],
                            search_bound=1e4)
        assert kronecker_solve(ok) is not None
        bad = KroneckerQuery(frequencies=[1.0, 2.0], targets=[0.1, 0.3],
                             epsilon=0.01, relations=[[2, -1]],
                             search_bound=1e4)
        with pytest.raises(IncompatibleTargetsError):
            kronecker_solve(bad)

    def test_exhaustion_returns_none(self):
        # frac(2t) = 0.5 is impossible on times with frac(t) near 0
        q = KroneckerQuery(frequencies=[1.0, 2.0], targets=[0.0, 0.5],
                           epsilon=0.01, search_bound=2000)
        assert kronecker_solve(q) is None

    def test_integer_scan_stops_at_the_bound(self):
        # t = n + 0.75 for n = int(search_bound) = 100 is the one hit, but
        # 100.75 lies past the bound 100.5, so there is none
        v = math.sqrt(2)
        q = KroneckerQuery(frequencies=[1.0, v], targets=[0.75, (v * 100.75) % 1],
                           epsilon=1e-9, search_bound=100.5, t_min=99.0)
        assert kronecker_solve(q) is None
        q.targets = [0.75, (v * 99.75) % 1]
        assert kronecker_solve(q) == 99.75
        # search_bound - 0.75 rounds up to n = 2**51 + 7, whose t = n + 0.75
        # rounds up past the bound; epsilon 0.6 accepts every point
        q = KroneckerQuery(frequencies=[1.0], targets=[0.75], epsilon=0.6,
                           search_bound=2.0 ** 51 + 7.5, t_min=2.0 ** 51 + 7.5)
        assert kronecker_solve(q) is None

    def test_integer_scan_starts_at_t_min(self):
        # t_min - 0.5 rounds down to n = 2**52, whose t = n + 0.5 rounds to
        # 2**52 < t_min; epsilon 0.6 accepts every point, so the answer is
        # the first point of the range
        q = KroneckerQuery(frequencies=[1.0], targets=[0.5], epsilon=0.6,
                           search_bound=2.0 ** 52 + 8, t_min=2.0 ** 52 + 1)
        assert kronecker_solve(q) == 2.0 ** 52 + 2

    def test_post_check_rejects_a_bad_scan(self, monkeypatch):
        from apexp import exponents
        from apexp.groups import VerificationError
        monkeypatch.setattr(exponents, "kron_scan_integer", lambda *args: 3.0)
        q = KroneckerQuery(frequencies=[1.0, THETA], targets=[0.25, 0.5],
                           epsilon=0.01, search_bound=1e5)
        with pytest.raises(VerificationError):
            kronecker_solve(q)

    def test_post_check_is_exact(self):
        # near t = 1e7 the float residual of sqrt(2)*t rounds below epsilon,
        # but the exact residual of the float inputs is 3.25e-9 >= epsilon;
        # the scan goes on past 9999991.5 and finds no exact hit up to 1e7
        q = KroneckerQuery(frequencies=[1.0, math.sqrt(2)],
                           targets=[0.5, 0.6029156680334374],
                           epsilon=2.556322598046279e-09, search_bound=1e7,
                           t_min=9999991.5)
        assert kronecker_solve(q) is None

    def test_rejected_float_hit_is_followed_by_a_true_hit(self, monkeypatch):
        # at n = 9000046 the exact residual is epsilon + 1e-10, yet the
        # float scan passes it; the solver must go on to the first exact hit
        from fractions import Fraction
        from apexp import exponents
        from apexp.kernels import kron_scan_integer
        v, x, eps, n1 = math.sqrt(2), 0.8212885065581959, 1e-3, 9000046
        assert kron_scan_integer([v], [x], eps, 0.5, n1, n1) == n1 + 0.5
        starts = []

        def recording_scan(vals, targs, eps, offset, n0, n_end):
            starts.append(n0)
            return kron_scan_integer(vals, targs, eps, offset, n0, n_end)

        monkeypatch.setattr(exponents, "kron_scan_integer", recording_scan)
        q = KroneckerQuery(frequencies=[1.0, v], targets=[0.5, x],
                           epsilon=eps, search_bound=n1 + 10 ** 5,
                           t_min=n1 + 0.5)
        t = kronecker_solve(q)
        # one resumed scan, from the integer after the rejected hit
        assert starts == [n1, n1 + 1]

        def exact(t):
            d = (Fraction(v) * Fraction(t) - Fraction(x)) % 1
            return min(d, 1 - d) < Fraction(eps)

        # the same points, t = float(n) + 0.5, checked one by one
        first = next(float(n) + 0.5 for n in range(n1, n1 + 10 ** 5)
                     if exact(float(n) + 0.5))
        assert not exact(n1 + 0.5) and t == first > n1 + 0.5

    def test_grid_scan_resumes_after_a_rejected_hit(self, monkeypatch):
        # no frequency is 1, so the grid path runs; its first float hit,
        # t_min itself, is epsilon + 1e-10 away exactly
        from fractions import Fraction
        from apexp import exponents
        from apexp.kernels import kron_scan_grid
        v, x, eps, t_min = math.sqrt(2), 0.07076549629492597, 1e-3, 9000004.25
        starts = []

        def recording_scan(vals, targs, eps, t0, t1, step):
            starts.append(t0)
            if len(starts) > 10:
                raise RuntimeError("the solver keeps rescanning")
            return kron_scan_grid(vals, targs, eps, t0, t1, step)

        def exact(t):
            d = (Fraction(v) * Fraction(t) - Fraction(x)) % 1
            return min(d, 1 - d) < Fraction(eps)

        monkeypatch.setattr(exponents, "kron_scan_grid", recording_scan)
        t = kronecker_solve(KroneckerQuery([v], [x], eps, search_bound=t_min + 100,
                                           t_min=t_min))
        step = eps / (4.0 * v)
        assert kron_scan_grid([v], [x], eps, t_min, t_min, step) == t_min
        assert not exact(t_min)
        assert starts == [t_min, t_min + step]
        assert t == 9000004.955869343 and exact(t)

    @pytest.mark.parametrize("bad_t", [3.0, 2.0 ** 60])
    def test_grid_resume_must_advance(self, monkeypatch, bad_t):
        # a kernel that keeps returning one rejected t raises, not loops:
        # 3.0 lies before the resumed range, and 2**60 + step == 2**60
        from apexp import exponents
        from apexp.groups import VerificationError
        calls = []

        def stuck_scan(*args):
            calls.append(args)
            if len(calls) > 3:
                raise RuntimeError("the solver keeps rescanning")
            return bad_t

        monkeypatch.setattr(exponents, "kron_scan_grid", stuck_scan)
        q = KroneckerQuery(frequencies=[THETA], targets=[0.5], epsilon=0.01,
                           search_bound=1e4)
        with pytest.raises(VerificationError, match="does not advance"):
            kronecker_solve(q)

    @pytest.mark.parametrize("eps", [0.0, -0.0, -0.1, math.nan, math.inf])
    def test_degenerate_epsilon_is_rejected(self, eps):
        # before validation, 0 overflowed in the grid length, -0.1 gave
        # NOT_FOUND and NaN failed to convert to an integer
        for freqs in ([THETA, math.sqrt(3.0)], [1.0, THETA]):
            q = KroneckerQuery(frequencies=freqs, targets=[0.1, 0.2],
                               epsilon=eps, search_bound=1e4)
            with pytest.raises(ValueError, match="epsilon must be positive"):
                q.validate()
            with pytest.raises(ValueError, match="epsilon must be positive"):
                kronecker_solve(q)

    @pytest.mark.parametrize("field", ["search_bound", "t_min"])
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_search_range_is_rejected(self, field, x):
        # before validation, both scan paths failed to convert x to an
        # integer, with OverflowError or ValueError
        for freqs in ([THETA, math.sqrt(3.0)], [1.0, THETA]):
            q = KroneckerQuery(frequencies=freqs, targets=[0.1, 0.2],
                               epsilon=0.01, **{"search_bound": 1e4, field: x})
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                q.validate()
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                kronecker_solve(q)

    @pytest.mark.parametrize("freqs", [[], [0.0], [0.0, -0.0]])
    def test_all_zero_frequencies_are_rejected(self, freqs):
        q = KroneckerQuery(frequencies=freqs, targets=[0.0] * len(freqs),
                           epsilon=0.01, search_bound=1e4)
        with pytest.raises(ValueError, match="one frequency must be nonzero"):
            kronecker_solve(q)
        # a zero frequency next to a nonzero one is a valid query
        q = KroneckerQuery(frequencies=freqs + [THETA],
                           targets=[0.0] * len(freqs) + [0.5],
                           epsilon=0.01, search_bound=1e4)
        t = kronecker_solve(q)
        assert t is not None and circle_dist(THETA * t, 0.5) < 0.01

    def test_negate_time(self):
        q = KroneckerQuery(frequencies=[THETA], targets=[0.3], epsilon=0.01,
                           search_bound=1e4, t_min=1.0, negate_time=True)
        t = kronecker_solve(q)
        assert t is not None and t <= -1.0
        assert circle_dist(THETA * t, 0.3) < 0.01

    def test_negate_time_tiny_target(self, monkeypatch):
        # -1e-20 % 1.0 rounds to 1.0; the scan must be given 0.0 instead
        from apexp import exponents
        from apexp.kernels import kron_scan_grid
        seen = []

        def recording_scan(vals, targs, *args):
            seen.append(list(targs))
            return kron_scan_grid(vals, targs, *args)

        monkeypatch.setattr(exponents, "kron_scan_grid", recording_scan)
        ts = [kronecker_solve(KroneckerQuery(
                  frequencies=[THETA], targets=[x], epsilon=0.01,
                  search_bound=1e4, t_min=1.0, negate_time=True))
              for x in (1e-20, 0.0)]
        assert seen == [[0.0], [0.0]]
        assert ts[0] == ts[1] <= -1.0
        assert circle_dist(THETA * ts[0], 1e-20) < 0.01


class TestBreakerSequences:
    def test_breaker_rejects_half(self):
        orbit = circle_orbit()
        br = build_breaker_sequence(orbit, 0.5, frequencies=[1.0],
                                    fixed_targets=[0.0],
                                    two_targets=(0.0, 0.5), count=16,
                                    search_bound=1e5)
        assert br is not None
        assert orbit.spread(br[-8:]) <= 1e-9
        rep = probe_exponent(orbit, 0.5, [br])
        assert rep.verdict == "REJECTED"
        assert rep.rejection_gap >= 0.45
        assert rep.rejection_times.tolist() == br.tolist()

    def test_refuses_close_targets(self):
        orbit = circle_orbit()
        assert build_breaker_sequence(orbit, 0.5, frequencies=[1.0],
                                      fixed_targets=[0.0],
                                      two_targets=(0.1, 0.15)) is None

    def test_refuses_relation_incompatible_gamma(self):
        # gamma = 2 satisfies 2*freq - gamma = 0, so its trace is pinned
        # by the fixed target and cannot oscillate
        orbit = circle_orbit()
        br = build_breaker_sequence(orbit, 2.0, frequencies=[1.0],
                                    fixed_targets=[0.0],
                                    two_targets=(0.0, 0.5), count=8,
                                    relations=[[2, -1]], search_bound=1e4)
        assert br is None

    def test_non_convergent_times_raise(self):
        slow = circle_orbit(speed=1.0 / 3.0)
        with pytest.raises(NonConvergentError, match="not an f-sequence"):
            build_breaker_sequence(slow, 0.5, frequencies=[1.0],
                                   fixed_targets=[0.0],
                                   two_targets=(0.0, 0.5), count=12,
                                   search_bound=1e5)

    def test_times_strictly_spread_out(self):
        orbit = circle_orbit()
        br = build_breaker_sequence(orbit, 0.5, frequencies=[1.0],
                                    fixed_targets=[0.0],
                                    two_targets=(0.0, 0.5), count=10,
                                    search_bound=1e5)
        assert np.all(np.diff(br) >= 1.0)


class TestInducedCircleMap:
    def test_well_defined_on_presentations(self):
        orbit = circle_orbit()
        p1, p2 = np.arange(1, 13) * 10.0, np.arange(1, 13) * 30.0
        vals = induced_circle_map(orbit, 0.1, [p1, p2], tol_limit=1e-9)
        assert circle_dist(vals[0], 0.0) < 1e-9
        assert circle_dist(vals[0], vals[1]) < 2e-9

    def test_rejects_a_presentation_that_is_not_an_f_sequence(self):
        # frac(2 t) settles at 0 on the half integers, but the orbit
        # points frac(t) alternate between 0 and 1/2
        orbit = circle_orbit()
        halves = np.arange(1, 13) * 0.5
        with pytest.raises(NonConvergentError, match="not an f-sequence"):
            induced_circle_map(orbit, 2.0, [halves])

    def test_divergent_trace_raises(self):
        orbit = circle_orbit()
        p1 = np.arange(1, 13) * 10.0
        with pytest.raises(NonConvergentError, match="trace: tail spread"):
            induced_circle_map(orbit, 1.0 / 3.0, [p1])


def oracle_presented_limits(omega, times, freqs, tol_orbit, tol_limit, tail):
    """Pure-Python presented_limits on the torus line t -> frac(omega t):
    the largest pairwise distance of the last `tail` orbit points, then
    per frequency the sorted-gap spread and the exp(2 pi i v) circular
    mean of its trace.  Returns ("orbit",), ("trace", name) or
    ("limits", values), and every spread it compared with a tolerance."""

    def d1(a, b):
        d = (a - b) % 1.0
        return min(d, 1.0 - d)

    last = [float(t) for t in times[-tail:]]
    pts = [[(w * t) % 1.0 for w in omega] for t in last]
    spread = max(max(d1(a, b) for a, b in zip(p, q)) for p in pts for q in pts)
    spreads = [(spread, tol_orbit)]
    if spread > tol_orbit:
        return ("orbit",), spreads
    values = []
    for name, v in freqs.items():
        trace = sorted((v * t) % 1.0 for t in last)
        gaps = [b - a for a, b in zip(trace, trace[1:])]
        gaps.append(trace[0] + 1.0 - trace[-1])
        spread = 1.0 - max(gaps) if len(trace) > 1 else 0.0
        spreads.append((spread, tol_limit))
        if spread > tol_limit:
            return ("trace", name), spreads
        z = sum(cmath.exp(2j * math.pi * x) for x in trace) / len(trace)
        values.append((cmath.phase(z) / (2 * math.pi)) % 1.0)
    return ("limits", values), spreads


class TestPresentedLimits:
    @settings(max_examples=200, deadline=None)
    @given(omega=st.lists(st.integers(-4, 4), min_size=1, max_size=3),
           x0=st.floats(-50.0, 50.0),
           gaps=st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=20),
           noise=st.lists(st.floats(-1.0, 1.0), min_size=20, max_size=20),
           width=st.sampled_from([0.0, 1e-9, 1e-6, 1e-4, 1e-2, 0.3]),
           freqs=st.lists(st.one_of(st.integers(-6, 6),
                                    st.floats(-6.0, 6.0)), max_size=4),
           tol_orbit=st.sampled_from([1e-6, 1e-3, 0.05]),
           tol_limit=st.sampled_from([1e-6, 1e-3, 0.05, 0.3]),
           tail=st.integers(1, 12))
    def test_matches_pure_python_oracle(self, omega, x0, gaps, noise, width,
                                        freqs, tol_orbit, tol_limit, tail):
        # integer returns x0 + k_i, moved by up to `width`: an f-sequence
        # of the torus line when width is small against tol_orbit
        times = x0 + np.cumsum(gaps) + width * np.array(noise[:len(gaps)])
        freqs = {f"f{k}": float(v) for k, v in enumerate(freqs)}
        want, spreads = oracle_presented_limits(
            [float(w) for w in omega], times, freqs, tol_orbit, tol_limit, tail)
        # rounding decides a spread this close to its tolerance
        assume(all(abs(s - tol) > 1e-12 for s, tol in spreads))
        event(want[0])
        orbit = torus_orbit(omega)
        kw = dict(tol_orbit=tol_orbit, tol_limit=tol_limit, tail=tail)
        if want[0] == "orbit":
            with pytest.raises(NonConvergentError, match="not an f-sequence"):
                presented_limits(orbit, times, freqs, **kw)
        elif want[0] == "trace":
            with pytest.raises(NonConvergentError,
                               match=f"^{want[1]}: tail spread"):
                presented_limits(orbit, times, freqs, **kw)
        else:
            got = presented_limits(orbit, times, freqs, **kw)
            assert len(got) == len(want[1])
            for g, w in zip(got, want[1]):
                assert circle_dist(g, w) <= 1e-12

    def test_one_trace_limit_per_frequency(self, monkeypatch):
        seen = []
        real = exponents.trace_limit

        def spy(val, times, tol_limit, tail, what):
            seen.append(what)
            return real(val, times, tol_limit, tail, what)

        monkeypatch.setattr(exponents, "trace_limit", spy)
        got = presented_limits(circle_orbit(), np.arange(1.0, 13.0),
                               {"a": 2.0, "b": 0.25, "c": 3.0},
                               tol_orbit=1e-9, tol_limit=1.0, tail=8)
        assert seen == ["a", "b", "c"]
        assert got == [real(v, np.arange(1.0, 13.0), 1.0, 8, "")
                       for v in (2.0, 0.25, 3.0)]


# Each caller of presented_limits at its default tolerances, on times
# that are no f-sequence of the orbit (frac(t) at the half integers, and
# frac(t / 3) at the integers a breaker for 1/2 returns), with the
# tol_orbit and tail it keeps.
NOT_F_SEQUENCE = {
    "induced_circle_map": (lambda: induced_circle_map(
        circle_orbit(), 2.0, [np.arange(1, 13) * 0.5]),
        exponents.TOL_ORBIT, 10),
    "semiconjugacy_to_solenoid": (lambda: semiconjugacy_to_solenoid(
        circle_orbit(), _dyadic_bsequence(3), np.arange(1, 13) * 0.5),
        exponents.TOL_ORBIT, 8),
    "build_breaker_sequence": (lambda: build_breaker_sequence(
        circle_orbit(speed=1.0 / 3.0), 0.5, frequencies=[1.0],
        fixed_targets=[0.0], two_targets=(0.0, 0.5), count=12,
        search_bound=1e5), exponents.CAUCHY_TOL, 8),
}


@pytest.mark.parametrize("caller", sorted(NOT_F_SEQUENCE))
def test_each_caller_takes_the_one_path(caller, monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append((kwargs["tol_orbit"], kwargs["tail"]))
        return presented_limits(*args, **kwargs)

    monkeypatch.setattr(exponents, "presented_limits", spy)
    monkeypatch.setattr(solenoid, "presented_limits", spy)
    call, tol_orbit, tail = NOT_F_SEQUENCE[caller]
    with pytest.raises(NonConvergentError,
                       match="^times are not an f-sequence: orbit tail spread"):
        call()
    assert calls == [(tol_orbit, tail)]


def test_spread_helper_consistency():
    # sanity anchor for the tolerances used throughout this file
    assert circular_spread(np.array([0.999, 0.001, 0.0])) < 0.005
    assert circular_spread(np.array([0.0, 0.5])) == pytest.approx(0.5)
