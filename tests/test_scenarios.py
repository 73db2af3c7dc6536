import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from apexp.circle import build_denjoy
from apexp.realfield import SymbolBasis
from apexp.scenarios import (SCENARIOS, denjoy_suspension_orbit, example1_map,
                             run_scenario, spiral_orbit)


def test_registry_names():
    assert set(SCENARIOS) == {"example1", "spiral", "denjoy-suspension",
                              "dyadic-solenoid"}
    for sc in SCENARIOS.values():
        assert sc.description and sc.defaults


def test_unknown_scenario():
    with pytest.raises(KeyError):
        run_scenario("no-such-thing")


@pytest.fixture(scope="module")
def reports():
    return {name: run_scenario(name) for name in SCENARIOS}


class TestScenarioRuns:
    def test_all_pass(self, reports):
        for name, rep in reports.items():
            failed = [e.name for e in rep.expectations if not e.passed]
            assert rep.passed, f"{name}: failing expectations {failed}"

    def test_example1_rejection_gaps(self, reports):
        by_name = {e.name: e for e in reports["example1"].expectations}
        gap = by_name["candidate 1/2 rejected"].measured["gap"]
        assert gap >= 0.45
        gap = by_name["candidate sqrt2 rejected (targets 0 and 1/3)"]
        assert abs(gap.measured["gap"] - 1.0 / 3.0) < 0.05

    def test_denjoy_rotation_bracket(self, reports):
        by_name = {e.name: e for e in reports["denjoy-suspension"].expectations}
        rot = by_name["rotation number matches theta"].measured
        lo, hi = (Fraction(v) for v in rot["bracket"])
        theta = math.sqrt(2.0) / 2.0
        assert lo <= theta <= hi and hi - lo <= 2 * Fraction(1, 10000)
        assert rot["estimate"] == float((lo + hi) / 2)
        assert rot["bound"] == float((hi - lo) / 2)
        assert abs(rot["estimate"] - theta) <= rot["bound"]

    def test_dyadic_matrices(self, reports):
        by_name = {e.name: e for e in reports["dyadic-solenoid"].expectations}
        mats = by_name["all bonding matrices are [2]"].measured
        assert mats == [[[2]]] * 7

    def test_report_json_shape(self, reports):
        data = reports["spiral"].to_json()
        assert data["scenario"] == "spiral"
        assert data["passed"] is True
        assert data["runtime"] > 0
        for e in data["expectations"]:
            assert set(e) == {"name", "passed", "measured", "detail"}

    def test_deterministic_given_params(self):
        a = run_scenario("dyadic-solenoid").to_json()
        b = run_scenario("dyadic-solenoid").to_json()
        a.pop("runtime"), b.pop("runtime")
        assert a == b

    def test_param_overrides_merge(self):
        rep = run_scenario("dyadic-solenoid", {"n_grid": 50})
        assert rep.params["n_grid"] == 50
        assert rep.params["depth"] == 8
        assert rep.passed


def test_long_spiral_run_emits_no_warning():
    # 80 breakers reach backward times below -709, where exp(-t) overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_scenario("spiral", {"breaker_count": 80}).passed


class TestOrbitHelpers:
    def test_example1_map_values(self):
        g = example1_map(np.array([0.5, 1.5, 20.25]))
        assert np.allclose(g[0], [0.75, 0.5])
        assert np.allclose(g[1], [0.375, 0.5])
        # distance to the limit segment {0} x [0,1] decays like 2^-k
        assert g[2, 0] < 2.0 ** -19

    def test_example1_second_branch_flips(self):
        g = example1_map(np.array([2.25, 3.25]))
        assert g[0, 1] == pytest.approx(0.25)
        assert g[1, 1] == pytest.approx(0.75)

    def test_spiral_limits(self):
        a, b = math.sqrt(2.0), math.sqrt(3.0)
        orbit = spiral_orbit(a, b)
        # forward end: angle ~ a*t + (b - a)*ln 2 on the circle r = 1
        for t in (25.0, 31.0):
            p = orbit.eval(t)
            pred = (a * t + (b - a) * math.log(2.0)) % 1.0
            assert abs(p[1] - 1.0) < 1e-9
            assert min(abs(p[0] - pred), 1 - abs(p[0] - pred)) < 1e-8
        # backward end rotates at speed b instead
        for t in (-25.0, -31.0):
            p = orbit.eval(t)
            pred = (b * t + (b - a) * math.log(2.0)) % 1.0
            assert abs(p[1]) < 1e-9
            assert min(abs(p[0] - pred), 1 - abs(p[0] - pred)) < 1e-8

    def test_spiral_far_backward_has_no_overflow(self):
        orbit = spiral_orbit(math.sqrt(2.0), math.sqrt(3.0))
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            pts = orbit.batch([-800.0, -709.0, 0.0])
        assert pts[0, 1] == 0.0 and 0.0 < pts[1, 1] < 1e-300
        assert pts[2, 1] == 0.5

    def test_spiral_batch_matches_scalar(self):
        orbit = spiral_orbit(math.sqrt(2.0), math.sqrt(3.0))
        ts = np.linspace(-5, 5, 41)
        batch = orbit.batch(ts)
        single = np.array([orbit.eval(float(t)) for t in ts])
        np.testing.assert_allclose(batch, single, atol=1e-14)

    def test_denjoy_batch_matches_table_formula(self):
        basis = SymbolBasis([("1", 1.0), ("theta", math.sqrt(2.0) / 2.0)])
        d = build_denjoy(basis.symbol("theta"), Fraction(1, 2), 40)
        # the closed form on the breakpoint tables, written out
        cum = np.concatenate([[0.0], np.cumsum(d.lens)])
        total = 1.0 + cum[-1]
        ts = np.concatenate([np.linspace(-1000.0, 1e6, 20001),
                             np.arange(-50.0, 51.0)])
        # w_star = 0 puts integer times on the blown-up orbit points
        for w_star in (0.0, 0.123456):
            ks = np.floor(ts)
            ws = (w_star + ks * d.theta_val) % 1.0
            idx = np.searchsorted(d.pos, ws, side="left")
            want = np.stack([ts - ks, (ws + cum[idx]) / total], axis=1)
            got = denjoy_suspension_orbit(d, w_star).batch(ts)
            assert got.tobytes() == want.tobytes()
