import math

import numpy as np
import pytest

from apexp.circmath import (METRIC_EUCLIDEAN, METRIC_TORUS, circle_dist,
                            circular_spread, frac)
from apexp.exponents import (FSequence, IncompatibleTargetsError,
                             KroneckerQuery, NonConvergentError,
                             OrbitEvaluator, build_breaker_sequence,
                             find_f_sequences, induced_circle_map,
                             kronecker_solve, probe_exponent,
                             scan_almost_periods)

THETA = math.sqrt(2.0) / 2.0


def circle_orbit(speed=1.0):
    """frac(speed * t) on the circle, with a vectorized evaluator."""
    return OrbitEvaluator(
        eval=lambda t: np.array([frac(speed * t)]),
        metric_kind=METRIC_TORUS,
        eval_batch=lambda ts: frac(speed * ts)[:, None])


def torus_orbit(omega):
    omega = np.asarray(omega, dtype=float)
    return OrbitEvaluator(
        eval=lambda t: frac(omega * t),
        metric_kind=METRIC_TORUS,
        eval_batch=lambda ts: frac(np.outer(ts, omega)))


class TestFindFSequences:
    def test_periodic_returns_at_integers(self):
        seqs = find_f_sequences(circle_orbit(), target=[0.0], count=1,
                                t_max=10.5, grid=0.05)
        assert len(seqs) == 1
        times = seqs[0].times
        assert len(times) >= 9
        assert np.allclose(times, np.round(times), atol=1e-6)
        assert np.all(seqs[0].cauchy_profile <= 1e-6)

    def test_interleaved_split(self):
        seqs = find_f_sequences(circle_orbit(), target=[0.0], count=2,
                                t_max=12.5, grid=0.05)
        assert len(seqs) == 2
        # consecutive returns alternate between the two sequences
        assert np.allclose(np.diff(seqs[0].times), 2.0, atol=1e-6)
        assert np.allclose(seqs[1].times - seqs[0].times, 1.0, atol=1e-6)

    def test_rotation_returns_near_denominators(self):
        # near-returns to the start of t -> t*theta happen close to the
        # denominators of the continued-fraction convergents of theta
        seqs = find_f_sequences(torus_orbit([THETA]), target=[0.0],
                                t_max=120.0, grid=0.01, tol_orbit=5e-3,
                                t_min=0.5)
        hits = set(np.round(seqs[0].times).astype(int))
        assert {41, 99} <= hits
        assert 5 not in hits

    def test_none_found(self):
        orbit = OrbitEvaluator(eval=lambda t: np.array([t]),
                               metric_kind=METRIC_EUCLIDEAN)
        assert find_f_sequences(orbit, target=[-3.0], t_max=30.0,
                                grid=0.1) == []

    def test_unbounded_flag(self):
        assert FSequence(np.array([5.0, 200.0]), [0.0], [0, 0]).unbounded
        assert not FSequence(np.array([5.0, 20.0]), [0.0], [0, 0]).unbounded


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
        bad = FSequence(np.arange(1, 25) * 0.5, [0.0],
                        np.zeros(24))
        rep = probe_exponent(orbit, 0.5, [bad])
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
        orbit = OrbitEvaluator(eval=lambda t: np.array([t]),
                               metric_kind=METRIC_EUCLIDEAN,
                               eval_batch=lambda ts: ts[:, None])
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
        # but the exact residual of the float inputs is 3.25e-9 >= epsilon
        from apexp.groups import VerificationError
        q = KroneckerQuery(frequencies=[1.0, math.sqrt(2)],
                           targets=[0.5, 0.6029156680334374],
                           epsilon=2.556322598046279e-09, search_bound=1e7,
                           t_min=9999991.5)
        with pytest.raises(VerificationError, match="9999991.5"):
            kronecker_solve(q)

    def test_negate_time(self):
        q = KroneckerQuery(frequencies=[THETA], targets=[0.3], epsilon=0.01,
                           search_bound=1e4, t_min=1.0, negate_time=True)
        t = kronecker_solve(q)
        assert t is not None and t <= -1.0
        assert circle_dist(THETA * t, 0.3) < 0.01


class TestBreakerSequences:
    def test_breaker_rejects_half(self):
        orbit = circle_orbit()
        br = build_breaker_sequence(orbit, 0.5, frequencies=[1.0],
                                    fixed_targets=[0.0],
                                    two_targets=(0.0, 0.5), count=16,
                                    search_bound=1e5)
        assert br is not None
        assert br.verify_cauchy(orbit) <= 1e-9
        rep = probe_exponent(orbit, 0.5, [br])
        assert rep.verdict == "REJECTED"
        assert rep.rejection_gap >= 0.45

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
        with pytest.raises(NonConvergentError):
            build_breaker_sequence(slow, 0.5, frequencies=[1.0],
                                   fixed_targets=[0.0],
                                   two_targets=(0.0, 0.5), count=12,
                                   search_bound=1e5)

    def test_times_strictly_spread_out(self):
        orbit = circle_orbit()
        br = build_breaker_sequence(orbit, 0.5, frequencies=[1.0],
                                    fixed_targets=[0.0],
                                    two_targets=(0.0, 0.5), count=10,
                                    search_bound=1e5, min_time_gap=2.0)
        assert np.all(np.diff(br.times) >= 2.0)


class TestInducedCircleMap:
    def test_well_defined_on_presentations(self):
        orbit = circle_orbit()
        p1 = FSequence(np.arange(1, 13) * 10.0, [0.0], np.zeros(12))
        p2 = FSequence(np.arange(1, 13) * 30.0, [0.0], np.zeros(12))
        vals = induced_circle_map(orbit, 0.1, [p1, p2], tol_limit=1e-9)
        assert circle_dist(vals[0], 0.0) < 1e-9
        assert circle_dist(vals[0], vals[1]) < 2e-9

    def test_divergent_trace_raises(self):
        orbit = circle_orbit()
        p1 = FSequence(np.arange(1, 13) * 10.0, [0.0], np.zeros(12))
        with pytest.raises(NonConvergentError):
            induced_circle_map(orbit, 1.0 / 3.0, [p1])


def test_spread_helper_consistency():
    # sanity anchor for the tolerances used throughout this file
    assert circular_spread(np.array([0.999, 0.001, 0.0])) < 0.005
    assert circular_spread(np.array([0.0, 0.5])) == pytest.approx(0.5)
