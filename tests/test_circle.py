import math
from fractions import Fraction

import numpy as np
import pytest

from apexp.circle import (CircleLift, NotMonotoneError, PrecisionError,
                          RationalThetaError, SuspensionPoint, build_denjoy,
                          closed_form_lift, mu_rotation, rotation_lift,
                          rotation_number, sampled_lift, suspension_flow,
                          suspension_semiconjugacy)
from apexp.circmath import circle_dist, frac
from apexp.realfield import SymbolBasis

THETA = math.sqrt(2.0) / 2.0


@pytest.fixture(scope="module")
def theta_basis():
    return SymbolBasis([("1", 1.0), ("theta", THETA)])


@pytest.fixture(scope="module")
def denjoy(theta_basis):
    return build_denjoy(theta_basis.symbol("theta"), Fraction(1, 2), 40)


class TestLifts:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            CircleLift(lambda x: x + 1.5)

    def test_monotonicity_enforced(self):
        with pytest.raises(NotMonotoneError):
            CircleLift(lambda x: x - 0.5 * math.sin(2 * math.pi * x) / math.pi
                       * 2.2)

    def test_degree_one_enforced(self):
        with pytest.raises(ValueError):
            CircleLift(lambda x: 2 * x)

    def test_closed_form_grammar(self):
        lift = closed_form_lift("x + 0.3 + sin(2 * pi * x) / 10")
        assert abs(lift(0.0) - 0.3) < 1e-15
        with pytest.raises(ValueError):
            closed_form_lift("__import__('os')")
        with pytest.raises(ValueError):
            closed_form_lift("x ** 2")

    def test_sampled_lift_interpolates(self):
        xs = np.linspace(0, 1, 33, endpoint=False)
        ys = xs + 0.25
        lift = sampled_lift(xs, ys)
        assert abs(lift(0.5) - 0.75) < 1e-12
        assert abs(lift(1.5) - 1.75) < 1e-12

    def test_inverse_bisection(self):
        lift = closed_form_lift("x + 0.3 + sin(2 * pi * x) / 10")
        for y in (0.1, 0.9, 2.3, -1.1):
            assert abs(lift(lift.inverse(y)) - y) < 1e-9

    def test_negative_iterates(self):
        lift = rotation_lift(0.3)
        x = lift.circle_iterate(0.1, -3)
        assert circle_dist(x, frac(0.1 - 0.9)) < 1e-12


class TestRotationNumber:
    def test_rigid_rotation_exact(self):
        lift = rotation_lift(0.25)
        for n in (1, 10, 100):
            est, _ = rotation_number(lift, x0=0.7, n=n)
            assert abs(est - 0.25) < 1e-12

    def test_rigid_irrational(self):
        est, _ = rotation_number(rotation_lift(THETA), n=10 ** 5)
        assert abs(est - THETA) < 1e-12

    def test_monotone_consistency(self):
        lift = closed_form_lift("x + 0.3 + sin(2 * pi * x) / 10")
        for n in (100, 400):
            e1, _ = rotation_number(lift, n=n)
            e2, _ = rotation_number(lift, n=2 * n)
            assert abs(e1 - e2) <= 3.0 / n

    def test_denjoy_estimate(self, denjoy):
        for n in (100, 1000, 10000):
            est, bound = rotation_number(denjoy.lift, n=n)
            assert abs(est - THETA) <= bound


class TestDenjoy:
    def test_rejects_rational_theta(self, theta_basis):
        with pytest.raises(RationalThetaError):
            build_denjoy(theta_basis.vector({"1": "1/3"}))

    def test_rejects_shallow_truncation(self, theta_basis):
        with pytest.raises(PrecisionError):
            build_denjoy(theta_basis.symbol("theta"), Fraction(1, 2),
                         trunc=12, precision=1e-9)

    def test_tail_bound(self, denjoy):
        c = (1 - 0.5) / (1 + 0.5)
        assert denjoy.tail_bound == pytest.approx(2 * c * 0.5 ** 41 / 0.5)
        assert denjoy.tail_bound < 1e-6

    def test_semiconjugacy_defect(self, denjoy):
        ys = np.linspace(0, 1, 1000, endpoint=False)
        worst = max(circle_dist(denjoy.collapse(frac(denjoy.lift(y))),
                                frac(denjoy.collapse(y) + THETA))
                    for y in ys)
        assert worst <= 1e-6

    def test_collapse_is_monotone(self, denjoy):
        ys = np.linspace(0, 0.999, 500)
        hs = [denjoy.collapse(float(y)) for y in ys]
        lifted = np.array(hs) + (np.diff(hs, prepend=hs[0]) < -0.5).cumsum()
        assert np.all(np.diff(lifted) >= 0)

    def test_interval_collapses_to_point(self, denjoy):
        a, b = denjoy.interval(0)
        mid = (a + b) / 2
        assert denjoy.collapse(a) == denjoy.collapse(mid)
        eps = 1e-9
        assert circle_dist(denjoy.collapse(b - eps), denjoy.collapse(a)) < 1e-6

    def test_interval_maps_onto_next(self, denjoy):
        a0, b0 = denjoy.interval(0)
        a1, b1 = denjoy.interval(1)
        assert abs(frac(denjoy.lift(a0)) - a1) < 1e-12
        assert abs(frac(denjoy.lift(b0 - 1e-12)) - b1) < 1e-9

    def test_lift_inverse(self, denjoy):
        for y in (0.05, 0.33, 0.71, 1.42, -0.3):
            assert abs(denjoy.lift(denjoy.lift.inverse(y)) - y) < 1e-9

    def test_wandering_orbit_never_returns(self, denjoy):
        # interior points of the inserted intervals are wandering: the
        # forward orbit of the middle of interval 0 stays away from it
        a, b = denjoy.interval(0)
        x = (a + b) / 2
        width = b - a
        y = x
        for _ in range(25):
            y = frac(denjoy.lift(y))
            assert circle_dist(y, x) > width / 4


class TestSuspension:
    def test_identity(self):
        lift = rotation_lift(0.3)
        p = SuspensionPoint(0.25, 0.6)
        q = suspension_flow(lift, 0.0, p)
        assert (q.s, q.x) == (0.25, 0.6)

    def test_unit_time_applies_map(self):
        lift = rotation_lift(0.3)
        q = suspension_flow(lift, 1.0, SuspensionPoint(0.0, 0.2))
        assert q.s == 0.0 and abs(q.x - 0.5) < 1e-12

    def test_no_wrap(self):
        lift = rotation_lift(0.3)
        q = suspension_flow(lift, 0.5, SuspensionPoint(0.25, 0.6))
        assert (q.s, q.x) == (0.75, 0.6)

    def test_cocycle(self):
        lift = rotation_lift(THETA)
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = SuspensionPoint(float(rng.uniform(0, 1)),
                                float(rng.uniform(0, 1)))
            s, t = rng.uniform(-5, 5, size=2)
            a = suspension_flow(lift, t + s, p)
            b = suspension_flow(lift, t, suspension_flow(lift, s, p))
            assert abs(a.s - b.s) < 1e-9
            assert circle_dist(a.x, b.x) < 1e-9


class TestMu:
    def test_base_point(self, theta_basis):
        assert mu_rotation(theta_basis.symbol("theta"),
                           SuspensionPoint(0.0, 0.0)) == (0.0, 0.0)

    def test_closed_form_value(self):
        a, b = mu_rotation(0.3, SuspensionPoint(0.5, 0.2))
        assert (a, b) == pytest.approx((0.35, 0.5))

    def test_equivariance_spot(self):
        lift = rotation_lift(0.3)
        lhs = mu_rotation(0.3, suspension_flow(lift, 1.0,
                                               SuspensionPoint(0.0, 0.2)))
        assert lhs == pytest.approx((0.5, 0.0))

    def test_equivariance_random(self):
        theta = THETA
        lift = rotation_lift(theta)
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(10000):
            p = SuspensionPoint(float(rng.uniform(0, 1)),
                                float(rng.uniform(0, 1)))
            t = float(rng.uniform(-10, 10))
            a1, b1 = mu_rotation(theta, suspension_flow(lift, t, p))
            a0, b0 = mu_rotation(theta, p)
            a2, b2 = frac(a0 + t * theta), frac(b0 + t)
            worst = max(worst, circle_dist(a1, a2), circle_dist(b1, b2))
        assert worst <= 1e-9


class TestDenjoySuspensionSemiconjugacy:
    def test_base_point_normalized(self, denjoy):
        base = SuspensionPoint(0.0, 0.123)
        assert suspension_semiconjugacy(denjoy, base, base) == (0.0, 0.0)

    def test_collapsed_interval_endpoints_agree(self, denjoy):
        a, b = denjoy.interval(0)
        pa = SuspensionPoint(0.0, a)
        pb = SuspensionPoint(0.0, b - 1e-9)
        ga = suspension_semiconjugacy(denjoy, pa)
        gb = suspension_semiconjugacy(denjoy, pb)
        assert circle_dist(ga[0], gb[0]) < 1e-6 and ga[1] == gb[1]

    def test_equivariance(self, denjoy):
        rng = np.random.default_rng(5)
        base = SuspensionPoint(0.0, 0.4)
        worst = 0.0
        for _ in range(1000):
            p = SuspensionPoint(float(rng.uniform(0, 1)),
                                float(rng.uniform(0, 1)))
            t = float(rng.uniform(-8, 8))
            g1 = suspension_semiconjugacy(denjoy, suspension_flow(
                denjoy.lift, t, p), base)
            g0 = suspension_semiconjugacy(denjoy, p, base)
            target = (frac(g0[0] + t * THETA), frac(g0[1] + t))
            worst = max(worst, circle_dist(g1[0], target[0]),
                        circle_dist(g1[1], target[1]))
        assert worst <= 1e-5
