import math
from fractions import Fraction

import numpy as np
import pytest

from apexp.circle import SuspensionPoint, mu_rotation, rotation_lift
from apexp.circmath import METRIC_TORUS, circle_dist
from apexp.exponents import OrbitEvaluator
from apexp.groups import build_b_sequence
from apexp.realfield import SymbolBasis
from apexp.solenoid import (InconsistentPointError,
                            NonConvergentError, SolenoidPoint, SolenoidSystem,
                            flow_step, pi_solenoid, point_add,
                            semiconjugacy_to_solenoid)


@pytest.fixture(scope="module")
def dyadic():
    ctx = SymbolBasis([("1", 1.0)])
    one = ctx.symbol("1")
    elements = [ctx.zero()] + [one.scale(Fraction(1, 2 ** i))
                               for i in range(1, 8)]
    seq = build_b_sequence([one], elements, ctx)
    return seq, SolenoidSystem.from_bsequence(seq)


def test_pi_solenoid_values(dyadic):
    _, system = dyadic
    zero = SolenoidPoint(np.zeros((system.depth, system.kappa)))
    assert pi_solenoid(system, 0.0).dist(zero) == 0.0
    pt = pi_solenoid(system, 1.0)
    assert [float(s[0]) for s in pt.stages[:3]] == [0.0, 0.5, 0.25]
    pt4 = pi_solenoid(system, 4.0)
    assert [float(s[0]) for s in pt4.stages[:3]] == [0.0, 0.0, 0.0]


def test_consistency_residual_grid(dyadic):
    _, system = dyadic
    worst = max(pi_solenoid(system, t).consistency_residual(system)
                for t in np.linspace(-100, 100, 2000))
    assert worst <= 1e-9


def _residual_loop(system, stages):
    """Reference for consistency_residual: one stage, one coordinate and
    one matrix entry at a time."""
    worst = 0.0
    for m, coarse, fine in zip(system.matrices, stages[:-1], stages[1:]):
        for r in range(system.kappa):
            image = sum(int(m[r, s]) * float(fine[s]) for s in range(system.kappa))
            worst = max(worst, circle_dist(image, float(coarse[r])))
    return worst


@pytest.mark.parametrize("which", ["dyadic", "kappa2"])
def test_pi_solenoid_batch_matches_pointwise(dyadic, which):
    if which == "dyadic":
        system = dyadic[1]
    else:  # depth 3, bonding matrices that are not symmetric
        system = _bonded_system([[2, 1], [0, 3]], [[1, 0], [2, 1]])
    ts = np.linspace(-100, 100, 501)
    batch = pi_solenoid(system, ts)
    assert batch.stages.shape == (len(ts), system.depth, system.kappa)
    points = [pi_solenoid(system, float(t)) for t in ts]
    assert points[0].stages.shape == (system.depth, system.kappa)
    stacked = np.stack([p.stages for p in points])
    assert np.array_equal(batch.stages.view(np.int64), stacked.view(np.int64))
    # the batch residual is the worst residual of its points
    residuals = [p.consistency_residual(system) for p in points]
    assert batch.consistency_residual(system) == max(residuals)
    # the stacked matmul may sum in another order than the loop: 1e-12 is
    # far above that rounding and far below the 1e-9 consistency tolerance
    assert max(residuals) == pytest.approx(
        max(_residual_loop(system, p.stages) for p in points), rel=0, abs=1e-12)
    if which == "kappa2":
        assert max(residuals) > 0.0  # rounding in M @ x shows, so the max is real
    batch.check_consistent(system)


def test_corrupted_point_fails_batch_check(dyadic):
    _, system = dyadic
    batch = pi_solenoid(system, np.linspace(-10, 10, 200))
    batch.stages[137, 3, 0] = (batch.stages[137, 3, 0] + 0.01) % 1.0
    # the shifted coordinate enters two bonding checks: doubled by [2]
    # against the coarser stage (0.02), as is against the finer one (0.01)
    assert batch.consistency_residual(system) == pytest.approx(0.02)
    with pytest.raises(InconsistentPointError):
        batch.check_consistent(system)


def test_flow_identity_and_cocycle(dyadic):
    _, system = dyadic
    rng = np.random.default_rng(2)
    for _ in range(200):
        s, t = rng.uniform(-20, 20, size=2)
        x = pi_solenoid(system, float(rng.uniform(-5, 5)))
        one_step = flow_step(system, t + s, x)
        two_step = flow_step(system, t, flow_step(system, s, x))
        assert one_step.dist(two_step) <= 1e-9
    x = pi_solenoid(system, 0.37)
    assert flow_step(system, 0.0, x).dist(x) == 0.0


def test_group_structure(dyadic):
    _, system = dyadic
    e = SolenoidPoint(np.zeros((system.depth, system.kappa)))
    x = pi_solenoid(system, 1.0)
    assert point_add(x, e).dist(x) == 0.0
    assert point_add(x, SolenoidPoint(-x.stages)).dist(e) == 0.0
    two_x = point_add(x, x)
    assert [float(s[0]) for s in two_x.stages[:3]] == [0.0, 0.0, 0.5]
    two_x.check_consistent(system)


def test_inconsistent_point_rejected(dyadic):
    _, system = dyadic
    bad = SolenoidPoint([np.array([0.0]), np.array([0.3]), np.array([0.0]),
                         *[np.array([0.0])] * 5])
    with pytest.raises(InconsistentPointError):
        flow_step(system, 1.0, bad)


def test_stage_identity_enforced(dyadic):
    seq, system = dyadic
    with pytest.raises(ValueError):
        SolenoidSystem(kappa=1, matrices=[np.array([[3]])] * 7,
                       stage_bases=[list(s.basis) for s in seq.stages])


def _bonded_system(*matrices):
    """kappa-2 system whose last stage is {1, sqrt2} and whose stage i is
    matrices[i] times stage i+1."""
    ctx = SymbolBasis([("1", 1.0), ("sqrt2", math.sqrt(2.0))])
    bases = [[ctx.symbol("1"), ctx.symbol("sqrt2")]]
    for m in reversed(matrices):
        fine = bases[0]
        bases.insert(0, [fine[0].scale(r0) + fine[1].scale(r1) for r0, r1 in m])
    return SolenoidSystem(kappa=2, matrices=list(matrices), stage_bases=bases)


def test_large_unimodular_matrix_accepted():
    # det = 1, but the float determinant of these entries rounds to 0
    m = [[3037000499, 3037000500], [3037000498, 3037000499]]
    assert _bonded_system(m).matrices[0].tolist() == m


def test_singular_matrix_rejected():
    with pytest.raises(ValueError, match="singular"):
        _bonded_system([[2, 4], [1, 2]])


def test_dual_generators_recover_group(dyadic):
    seq, system = dyadic
    assert system.dual_generator_group().same_group(seq.group())


def test_json_roundtrip(dyadic):
    _, system = dyadic
    system2 = SolenoidSystem.from_json(system.to_json())
    assert pi_solenoid(system, 2.7).dist(pi_solenoid(system2, 2.7)) == 0.0


class TestSemiconjugacy:
    def setup_method(self):
        self.ctx = SymbolBasis([("1", 1.0), ("theta", math.sqrt(2) / 2)])
        self.seq = build_b_sequence(
            [self.ctx.symbol("1"), self.ctx.symbol("theta")],
            [self.ctx.zero()], self.ctx)
        self.th = self.ctx.symbol("theta").eval()
        lift = rotation_lift(self.th)

        def points(ts):
            p = SuspensionPoint(0.0, 0.0)
            from apexp.circle import suspension_flow
            qs = [suspension_flow(lift, float(t), p) for t in ts]
            return np.array([[q.s, q.x] for q in qs])

        self.orbit = OrbitEvaluator(points, METRIC_TORUS)

    def test_constant_sequence_maps_to_identity(self):
        times = np.zeros(12)
        pt = semiconjugacy_to_solenoid(self.orbit, self.seq, times)
        assert float(pt.stages[0][0]) == 0.0 and float(pt.stages[0][1]) == 0.0

    def test_matches_straightening_map(self):
        # times drifting to a fixed suspension point: the stage limits
        # must agree with the closed-form torus image of that point
        rng = np.random.default_rng(7)
        for _ in range(25):
            s = float(rng.uniform(0, 1))
            # returns to fiber coordinate x0 + k*theta happen at t = k + s
            ks = np.array([3363, 6726, 8119, 11482, 16238, 19601, 22964])
            times = ks + s
            pt = semiconjugacy_to_solenoid(self.orbit, self.seq, times,
                                           tol_orbit=2e-3, tol_limit=2e-3)
            p = SuspensionPoint(s, float((ks[-1] * self.th) % 1.0))
            a, b = mu_rotation(self.ctx.symbol("theta"), p)
            assert circle_dist(float(pt.stages[0][0]), b) <= 1e-2
            assert circle_dist(float(pt.stages[0][1]), a) <= 1e-2

    def test_orbit_tail_spread_rejected(self):
        # one time of the 8-point tail leaves the orbit's limit point
        times = np.zeros(12)
        times[-5] = 0.5
        with pytest.raises(NonConvergentError, match="not an f-sequence"):
            semiconjugacy_to_solenoid(self.orbit, self.seq, times)

    def test_non_convergent_rejected(self):
        # every time is an f-sequence time of a constant orbit, so the
        # stage traces decide
        still = OrbitEvaluator(lambda ts: np.zeros((len(ts), 2)), METRIC_TORUS)
        times = np.arange(1.0, 13.0) * 0.37
        with pytest.raises(NonConvergentError,
                           match=r"^stage 0 coord \d: tail spread"):
            semiconjugacy_to_solenoid(still, self.seq, times)


def test_one_convergence_error_and_tolerance():
    from apexp import exponents, solenoid
    assert solenoid.NonConvergentError is exponents.NonConvergentError
    assert solenoid.TOL_LIMIT is exponents.TOL_LIMIT
