"""The benchmark's own checks: each checker accepts apexp's answer and
flags a corrupted one, and the tracer accounts for the time it records.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import math
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from apexp import exponents, groups, kernels, scenarios  # noqa: E402


@pytest.fixture(scope="module")
def solved():
    rng = random.Random(5)
    out = []
    for kind in workloads.KINDS["kronecker"]:
        for negate in (False, True):
            spec = workloads.kronecker_spec(rng, kind, 300, negate)
            out.append((spec, exponents.kronecker_solve(spec.query())))
    return out


def test_kronecker_answers_pass(solved):
    for spec, t in solved:
        assert checks.check_kronecker(spec, t) == []


def test_kronecker_check_flags_corruption(solved):
    for spec, t in solved:
        assert checks.check_kronecker(spec, None)
        # one eps of time moves some coordinate by at least eps / 4
        assert checks.check_kronecker(spec, t + 4 * spec.eps / min(abs(v) for v in spec.freqs))
        inner = -t if spec.negate else t
        assert checks.check_kronecker(replace(spec, t_min=inner + 1e-3), t)
        assert checks.check_kronecker(replace(spec, search_bound=inner - 1e-3), t)


def test_kronecker_check_flags_a_later_hit(solved):
    later = 0
    for spec, t in solved:
        if 1.0 not in spec.freqs:
            continue
        inner = -t if spec.negate else t
        t2 = exponents.kronecker_solve(replace(spec, t_min=inner + 0.5).query())
        if t2 is None:
            continue
        # a valid hit, but not the first one after t_min
        assert any("earlier hit" in e for e in checks.check_kronecker(spec, t2))
        later += 1
    assert later >= 2


def test_circle_dists_dd_matches_fractions():
    rng = random.Random(1)
    ts = [float(rng.randrange(10 ** 7)) + 0.5 for _ in range(50)]
    v, x = math.sqrt(3), 0.25
    got = checks.circle_dists_dd(v, np.array(ts), x)
    for t, d in zip(ts, got):
        exact = checks.circle_dist_exact(Fraction(v) * Fraction(t) - Fraction(x))
        assert abs(d - float(exact)) < 1e-15


@pytest.fixture(scope="module")
def session():
    spec = workloads.exact_spec(random.Random(3), 2, 10)
    return spec, workloads.exact_answer(workloads.exact_session(spec))


def test_exact_answer_passes(session):
    spec, ans = session
    assert checks.check_exact(spec, ans) == []


def _corrupt(ans, path, value):
    bad = copy.deepcopy(ans)
    obj = bad
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value(obj[path[-1]])
    return bad


@pytest.mark.parametrize("path, value", [
    (("matrices", 3, 0, 0), lambda v: v + 1),
    (("stage_bases", 5, 0, 1), lambda q: q + Fraction(1, 7)),
    (("system_matrices", 2, 1, 1), lambda v: -v),
    (("members", 0), lambda b: not b),
    (("non_members", 4), lambda b: not b),
    (("rescaled",), lambda r: (r[0], r[1] * 2)),
    (("rescaled",), lambda r: ("UNDECIDED", None)),
    (("other_rank",), lambda s: "EQUIVALENT"),
])
def test_exact_check_flags_corruption(session, path, value):
    spec, ans = session
    assert checks.check_exact(spec, _corrupt(ans, path, value))


def test_exact_check_flags_a_wrong_index(session):
    # twice a bonding matrix has a determinant 2**kappa times the index
    spec, ans = session
    bad = copy.deepcopy(ans)
    bad["matrices"][-1] = [[2 * v for v in row] for row in bad["matrices"][-1]]
    errs = checks.check_exact(spec, bad)
    assert any("det" in e for e in errs)


def _report(name, measured):
    return {"scenario": name, "passed": True,
            "expectations": [{"name": k, "passed": True, "measured": v, "detail": ""}
                             for k, v in measured.items()]}


def test_lab_check():
    dyadic = scenarios.run_scenario("dyadic-solenoid", {"n_grid": 20}).to_json()
    assert checks.check_lab("dyadic-solenoid", dyadic) == []
    bad = copy.deepcopy(dyadic)
    bad["expectations"][1]["measured"][3] += 1e-6
    assert checks.check_lab("dyadic-solenoid", bad)
    bad = copy.deepcopy(dyadic)
    bad["expectations"][0]["passed"] = False
    assert checks.check_lab("dyadic-solenoid", bad)

    rot = "rotation number matches theta"
    good = _report("denjoy-suspension", {rot: {"estimate": 0.7072, "bound": 2e-4}})
    assert checks.check_lab("denjoy-suspension", good) == []
    off = _report("denjoy-suspension", {rot: {"estimate": 0.7075, "bound": 2e-4}})
    assert checks.check_lab("denjoy-suspension", off)

    gap = "candidate sqrt2 rejected (targets 0 and 1/3)"
    good = _report("example1", {gap: {"verdict": "REJECTED", "gap": 0.33}})
    assert checks.check_lab("example1", good) == []
    for meas in ({"verdict": "REJECTED", "gap": 0.25},
                 {"verdict": "INCONCLUSIVE", "gap": 0.33}):
        assert checks.check_lab("example1", _report("example1", {gap: meas}))


def test_tracer_wraps_callers_and_accounts_for_time():
    spec = workloads.kronecker_spec(random.Random(2), "integer d=2", 500, True)
    orig = kernels.kron_scan_integer
    tracer = spans.Tracer()
    tracer.install()
    try:
        # exponents binds the kernel by name, so the wrapper sits there too
        assert exponents.kron_scan_integer.__wrapped__ is orig
        t = exponents.kronecker_solve(spec.query())
        g = groups.FinGenSubgroup(*_small_group())
        assert g.basis()[0] in g
    finally:
        tracer.uninstall()
    assert exponents.kron_scan_integer is orig
    assert not hasattr(groups.FinGenSubgroup.__init__, "__wrapped__")
    layers, top = tracer.self_times()
    # negate_time solves through one nested call
    assert layers["exponents.kronecker_solve"][0] == 2
    assert layers["kernels.kron_scan_integer"][0] == 1
    assert layers["groups.contains"][0] == 1
    assert layers["groups.FinGenSubgroup"][0] == 1
    assert layers["intlinalg.hnf_rows"][0] == 1
    n_hit = round(-t - ((-spec.targets[0]) % 1.0))
    n0 = math.ceil(spec.t_min - ((-spec.targets[0]) % 1.0))
    assert tracer.counters["kernels.kron_scan_integer.steps"] == n_hit - n0 + 1
    assert abs(sum(s for _, s in layers.values()) - top) < 1e-9
    parents = {name: parent for name, _, _, parent in tracer.spans}
    assert tracer.spans[parents["kernels.kron_scan_integer"]][0] == "exponents.kronecker_solve"


def _small_group():
    from apexp import SymbolBasis
    ctx = SymbolBasis([("1", 1.0), ("sqrt2", math.sqrt(2))])
    return ctx, [ctx.symbol("1"), ctx.symbol("sqrt2", Fraction(1, 3))]
