"""Acceptance gate: one test per release criterion, each printing a
single [PASS]/[FAIL] line with its headline measurement.

These tests are deliberately independent re-derivations: they rebuild
their fixtures from scratch and re-verify evidence rather than trusting
intermediate library state.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from apexp.circle import (SuspensionPoint, build_denjoy, mu_rotation,
                          rotation_lift, rotation_number, suspension_flow)
from apexp.circmath import METRIC_TORUS, circle_dist, frac
from apexp.exponents import (KroneckerQuery, OrbitEvaluator,
                             find_f_sequences, kronecker_solve,
                             probe_exponent)
from apexp.groups import FinGenSubgroup, build_b_sequence, decide_equivalence
from apexp.realfield import SymbolBasis
from apexp.scenarios import run_scenario
from apexp.solenoid import (SolenoidPoint, SolenoidSystem, flow_step,
                            pi_solenoid)

THETA = math.sqrt(2.0) / 2.0


def test_criterion_01_dyadic_tower(criterion_report):
    start = time.perf_counter()
    basis = SymbolBasis([("1", 1.0)])
    one = basis.symbol("1")
    elements = [basis.zero()] + [one.scale(Fraction(1, 2 ** i))
                                 for i in range(1, 8)]
    seq = build_b_sequence([one], elements, basis)
    seq.verify()  # exact stage identities
    elapsed = time.perf_counter() - start
    ok = seq.matrices() == [[[2]]] * 7 and elapsed < 1.0
    criterion_report(1, "dyadic tower has all bonding matrices [2] in under 1 s",
           ok, f"{elapsed:.3f} s")


def test_criterion_02_mixed_tower_vs_oracle(criterion_report):
    ctx = SymbolBasis([("1", 1.0)])
    one = ctx.symbol("1")
    seq = build_b_sequence(
        [one], [ctx.zero(), one.scale(Fraction(1, 2)),
                one.scale(Fraction(1, 3))], ctx)
    ok = (seq.matrices() == [[[2]], [[3]]]
          and seq.stages[0].basis == [one]
          and seq.stages[1].basis == [one.scale(Fraction(1, 2))]
          and seq.stages[2].basis == [one.scale(Fraction(1, 6))])

    big = SymbolBasis([("1", 1.0), ("u", math.sqrt(2.0)),
                       ("v", math.sqrt(3.0))], check_independence=False)
    names = ["1", "u", "v"]
    rng = random.Random(101)
    checked = 0
    for _ in range(20):
        kappa = rng.randint(1, 3)
        b = [big.symbol(n) for n in names[:kappa]]
        elements = [big.zero()]
        for _ in range(rng.randint(1, 3)):
            elements.append(big.vector(
                {names[j]: Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                 for j in range(kappa)}))
        tower = build_b_sequence(b, elements, big)
        tower.verify()
        for i, stage in enumerate(tower.stages):
            oracle = FinGenSubgroup(big, b + elements[1:i + 1])
            if not oracle.same_group(stage.lattice):
                ok = False
            checked += 1
    criterion_report(2, "mixed tower gives M = [2], [3] and 20 random prefixes "
              "match the lattice oracle", ok, f"{checked} stages checked")


def test_criterion_03_equivalence_decider(criterion_report):
    ctx = SymbolBasis([("1", 1.0), ("u", math.sqrt(2.0))],
                      check_independence=False)
    rng = random.Random(103)
    false_verdicts = 0
    for _ in range(20):
        gens = [ctx.vector({"1": Fraction(rng.randint(1, 5), rng.randint(1, 4)),
                            "u": Fraction(rng.randint(-3, 3), rng.randint(1, 3))}),
                ctx.vector({"u": Fraction(rng.randint(1, 4))})]
        m = FinGenSubgroup(ctx, gens)
        a = Fraction(rng.choice([p for p in range(-6, 7) if p]),
                     rng.randint(1, 6))
        n = FinGenSubgroup(ctx, [g.scale(a) for g in gens])
        v = decide_equivalence(m, n)
        if v.status != "EQUIVALENT":
            false_verdicts += 1
            continue
        # re-verify the returned scalar from scratch
        scaled = FinGenSubgroup(ctx, [g.scale(v.scalar) for g in n.basis()])
        if not scaled.same_group(m):
            false_verdicts += 1
    for _ in range(20):
        m = FinGenSubgroup(ctx, [ctx.vector(
            {"1": Fraction(rng.randint(1, 6), rng.randint(1, 4))})])
        n = FinGenSubgroup(ctx, [ctx.symbol("1"), ctx.vector(
            {"u": Fraction(rng.randint(1, 6), rng.randint(1, 3))})])
        if decide_equivalence(m, n).status != "NOT_EQUIVALENT":
            false_verdicts += 1
    criterion_report(3, "20 scaled pairs EQUIVALENT with verified scalars, 20 rank "
              "mismatches NOT_EQUIVALENT", false_verdicts == 0,
           f"{false_verdicts} false verdicts")


def test_criterion_04_rotation_numbers(criterion_report):
    start = time.perf_counter()
    ok = True
    for n in (10, 100, 1000, 10000):
        est, _ = rotation_number(rotation_lift(0.25), n=n)
        ok &= abs(est - 0.25) < 1e-12
    basis = SymbolBasis([("1", 1.0), ("theta", THETA)],
                        check_independence=False)
    d = build_denjoy(basis.symbol("theta"), Fraction(1, 2), 40)
    errs = []
    for n in (100, 1000, 10000):
        est, bound = rotation_number(d.lift, n=n)
        errs.append(abs(est - THETA))
        ok &= abs(est - THETA) <= bound and bound == 2.0 / n
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    criterion_report(4, "rigid rotation number exact, blown-up rotation within 2/n "
              "for n in {1e2, 1e3, 1e4}", ok,
           f"errors {', '.join(f'{e:.1e}' for e in errs)}; {elapsed:.2f} s")


def test_criterion_05_mu_equivariance(criterion_report):
    lift = rotation_lift(THETA)
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(10000):
        p = SuspensionPoint(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        t = float(rng.uniform(-10, 10))
        a1, b1 = mu_rotation(THETA, suspension_flow(lift, t, p))
        a0, b0 = mu_rotation(THETA, p)
        worst = max(worst, circle_dist(a1, frac(a0 + t * THETA)),
                    circle_dist(b1, frac(b0 + t)))
    criterion_report(5, "suspension straightening map equivariant over 1e4 random "
              "(t, p)", worst <= 1e-9, f"max defect {worst:.2e}")


def test_criterion_06_denjoy_semiconjugacy(criterion_report):
    basis = SymbolBasis([("1", 1.0), ("theta", THETA)],
                        check_independence=False)
    d = build_denjoy(basis.symbol("theta"), Fraction(1, 2), 40)
    worst = max(circle_dist(d.collapse(frac(d.lift(y))),
                            frac(d.collapse(y) + THETA))
                for y in np.linspace(0, 1, 1000, endpoint=False))
    criterion_report(6, "collapse semiconjugates the blown-up rotation to the rigid "
              "one within 1e-6 on 1e3 samples", worst <= 1e-6,
           f"max defect {worst:.2e}")


def test_criterion_07_example1_verdicts(criterion_report):
    start = time.perf_counter()
    rep = run_scenario("example1")
    elapsed = time.perf_counter() - start
    by_name = {e.name: e for e in rep.expectations}
    ok = rep.passed and elapsed < 30.0
    gap_half = by_name["candidate 1/2 rejected"].measured["gap"]
    ok &= gap_half >= 0.45
    ok &= by_name["candidate 1/3 rejected"].measured["verdict"] == "REJECTED"
    sqrt2_gap = by_name["candidate sqrt2 rejected (targets 0 and 1/3)"] \
        .measured["gap"]
    ok &= abs(sqrt2_gap - 1.0 / 3.0) < 0.05
    criterion_report(7, "sawtooth scenario: 1, 2 accepted; 1/2, 1/3, sqrt2 rejected "
              "with the expected gaps",
           ok, f"gap(1/2) = {gap_half:.3f}, gap(sqrt2) = {sqrt2_gap:.3f}, "
               f"{elapsed:.1f} s")


def test_criterion_08_denjoy_suspension_scenario(criterion_report):
    start = time.perf_counter()
    rep = run_scenario("denjoy-suspension")
    elapsed = time.perf_counter() - start
    by_name = {e.name: e for e in rep.expectations}
    ok = rep.passed and elapsed < 120.0
    members = ["1", "theta", "1+theta", "2theta-1"]
    non_members = ["1/2", "(1+theta)/2", "sqrt3"]
    ok &= all(by_name[f"member {m} accepted"].passed for m in members)
    spreads = []
    for nm in non_members:
        e = by_name[f"non-member {nm} rejected"]
        ok &= e.passed
        # rejection evidence must itself have passed the orbit Cauchy
        # check, recorded as the spread of the breaker's orbit values
        spread = e.measured["orbit_spread"]
        ok &= spread is not None and spread <= 0.05
        spreads.append(spread)
    criterion_report(8, "suspension scenario accepts the integer span of {1, theta} "
              "and rejects all tested non-members on Cauchy-checked evidence",
           ok, f"evidence spreads {', '.join(f'{s:.1e}' for s in spreads)}; "
               f"{elapsed:.1f} s")


def test_criterion_09_spiral_scenario(criterion_report):
    rep = run_scenario("spiral")
    by_name = {e.name: e for e in rep.expectations}
    ok = (rep.passed
          and by_name["forward probe accepts alpha"].measured == "ACCEPTED"
          and by_name["forward probe rejects beta"].measured == "REJECTED"
          and by_name["full-orbit probe rejects alpha"].measured == "REJECTED"
          and by_name["full-orbit probe rejects beta"].measured == "REJECTED")
    criterion_report(9, "spiral: forward semi-orbit accepts alpha and rejects beta; "
              "the full orbit rejects both", ok)


def test_criterion_10_solenoid_flow(criterion_report):
    basis = SymbolBasis([("1", 1.0)])
    one = basis.symbol("1")
    seq = build_b_sequence([one], [basis.zero()] + [
        one.scale(Fraction(1, 2 ** i)) for i in range(1, 8)], basis)
    system = SolenoidSystem.from_bsequence(seq)
    worst_res = max(pi_solenoid(system, float(t)).consistency_residual(system)
                    for t in np.linspace(-100, 100, 10000))
    ok = worst_res <= 1e-9

    rng = np.random.default_rng(110)
    worst_coc = 0.0
    for _ in range(1000):
        s, t, u = rng.uniform(-20, 20, size=3)
        x = pi_solenoid(system, float(u))
        worst_coc = max(worst_coc,
                        flow_step(system, t + s, x)
                        .dist(flow_step(system, t, flow_step(system, s, x))))
    ok &= worst_coc <= 1e-9

    # rotation-suspension case: the straightening map into the rank-2
    # solenoid must intertwine the suspension flow with the linear flow
    ctx = SymbolBasis([("1", 1.0), ("theta", THETA)],
                      check_independence=False)
    seq2 = build_b_sequence([ctx.symbol("1"), ctx.symbol("theta")],
                            [ctx.zero()], ctx)
    sys2 = SolenoidSystem.from_bsequence(seq2)
    lift = rotation_lift(THETA)

    def h(p):
        a, b = mu_rotation(THETA, p)
        return SolenoidPoint([np.array([b, a])])

    worst_h = 0.0
    for _ in range(1000):
        p = SuspensionPoint(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        t = float(rng.uniform(-10, 10))
        moved = h(suspension_flow(lift, t, p))
        pushed = flow_step(sys2, t, h(p))
        worst_h = max(worst_h, moved.dist(pushed))
    ok &= worst_h <= 1e-5
    criterion_report(10, "depth-8 solenoid flow: grid residual and cocycle defect "
               "below 1e-9, straightening equivariance below 1e-5",
           ok, f"residual {worst_res:.1e}, cocycle {worst_coc:.1e}, "
               f"equivariance {worst_h:.1e}")


def test_criterion_11_property_suites(criterion_report):
    ok = True
    rng = random.Random(111)
    ctx = SymbolBasis([("1", 1.0), ("u", math.e)], check_independence=False)

    def rand_vec():
        return ctx.vector({"1": Fraction(rng.randint(-50, 50),
                                         rng.randint(1, 20)),
                           "u": Fraction(rng.randint(-50, 50),
                                         rng.randint(1, 20))})

    # exact group axioms
    for _ in range(200):
        x, y, z = rand_vec(), rand_vec(), rand_vec()
        ok &= (x + y) + z == x + (y + z)
        ok &= x + y == y + x
        ok &= x + ctx.zero() == x and (x + (-x)).is_zero()

    # exact membership closure under subtraction
    g = FinGenSubgroup(ctx, [ctx.vector({"1": "1/3"}),
                             ctx.vector({"u": "2/5"})])
    for _ in range(100):
        a = sum((gen.scale(rng.randint(-9, 9)) for gen in g.generators),
                ctx.zero())
        b = sum((gen.scale(rng.randint(-9, 9)) for gen in g.generators),
                ctx.zero())
        ok &= (a - b) in g

    # verdict-level covariance of the probe under time rescaling
    def orbit(speed):
        return OrbitEvaluator(lambda ts: frac(speed * ts)[:, None],
                              METRIC_TORUS)

    base = orbit(1.0)
    base_seqs = find_f_sequences(base, [0.0], t_max=40.5, grid=0.05)
    for a in (2.0, 1.0 / 3.0):
        fast = orbit(a)
        fast_seqs = find_f_sequences(fast, [0.0], t_max=40.5 / a,
                                     grid=0.05 / a)
        for cand in (1.0, 2.0, 0.5):
            v0 = probe_exponent(base, cand, base_seqs).verdict
            v1 = probe_exponent(fast, cand * a, fast_seqs).verdict
            ok &= v0 == v1

    # simultaneous-approximation outputs verified against their epsilon
    for freqs, targets, eps in [([1.0, THETA], [0.25, 0.5], 0.01),
                                ([THETA, math.sqrt(3.0)], [0.1, 0.2], 0.05),
                                ([math.pi], [0.9], 0.005)]:
        t = kronecker_solve(KroneckerQuery(freqs, targets, eps,
                                           search_bound=1e5))
        ok &= t is not None
        ok &= all(circle_dist(f * t, x) < eps for f, x in zip(freqs, targets))

    criterion_report(11, "property suites: exact group axioms and membership closure, "
               "probe covariance under a in {2, 1/3}, verified "
               "approximation outputs", ok)
