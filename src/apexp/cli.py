"""Command-line interface.

Subcommands mirror the library layers: `bseq` / `group` for the exact
algebra, `solenoid` for flows on truncated inverse limits, `rotnum` /
`denjoy` / `suspend` for circle dynamics, `exponents` / `kronecker` for
the numeric probes, and `lab` for the scenario harness.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .circle import (SuspensionPoint, build_denjoy, closed_form_lift,
                     rotation_bracket, rotation_lift, rotation_number,
                     sampled_lift, suspension_flow)
from .exponents import KroneckerQuery, kronecker_solve
from .groups import FinGenSubgroup, build_b_sequence, decide_equivalence
from .realfield import RealVector, SymbolBasis, format_rational, parse_rational
from .scenarios import SCENARIOS, run_scenario
from .solenoid import SolenoidSystem, pi_solenoid


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _dump_json(data, path=None):
    text = json.dumps(data, indent=2, default=str)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


_NAMED_REALS = {"sqrt2": math.sqrt(2.0), "sqrt3": math.sqrt(3.0),
                "sqrt5": math.sqrt(5.0), "pi": math.pi, "e": math.e}


def parse_real_token(token: str):
    """Parse 'sqrt2/2', '3/4', 'pi', '0.25' into (name or None, value).

    Named irrationals return a symbol name plus value; plain rationals
    and floats return (None, value).  Raises ValueError on a token it
    cannot read or whose denominator is zero.
    """
    head, _, denom = token.partition("/")
    if denom and float(denom) == 0.0:
        raise ValueError(f"zero denominator in {token!r}")
    scale = 1.0 / float(denom) if denom else 1.0
    if head in _NAMED_REALS:
        return token, _NAMED_REALS[head] * scale
    try:
        return None, float(Fraction(token))
    except ValueError:
        return None, float(token)


def _lift_from_spec(spec: dict):
    kind = spec.get("kind", "closed_form")
    if kind == "rotation":
        return rotation_lift(float(spec["theta"]))
    if kind == "closed_form":
        return closed_form_lift(spec["expr"])
    if kind == "sampled":
        return sampled_lift(spec["xs"], spec["ys"])
    if kind == "denjoy":
        basis = SymbolBasis([("1", 1.0), ("theta", float(spec["theta"]))])
        d = build_denjoy(basis.symbol("theta"),
                         parse_rational(spec.get("lambda", "1/2")),
                         int(spec.get("trunc", 40)))
        return d.lift
    raise ValueError(f"unknown lift kind {kind!r}")


def _t_grid(arg: str) -> np.ndarray:
    """The argparse type of --t-grid: 'a:b:n' is n times from a to b."""
    try:
        a, b, n = arg.split(":")
        return np.linspace(float(a), float(b), int(n))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a:b:n with a whole n >= 0, got {arg!r}") from None


def _checked(parse, ok, expected: str):
    """An argparse type: `parse` reads the argument, and one it cannot
    read, or whose value fails `ok`, is a usage error naming `expected`."""

    def convert(arg: str):
        try:
            value = parse(arg)
        except (ValueError, ZeroDivisionError, OverflowError):
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {arg!r}")
        return value

    return convert


def _all_finite(values) -> bool:
    return all(map(math.isfinite, values))


def _add_t_grid(parser):
    parser.add_argument("--t-grid", required=True, metavar="a:b:n",
                        type=_t_grid, help="n evenly spaced times from a to "
                        "b; write a negative start as --t-grid=-50:500:1001")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_bseq_build(args):
    data = _load_json(args.infile)
    ctx = SymbolBasis.from_json(data["basis"])
    b = [RealVector.from_json(ctx, v) for v in data["B"]]
    elements = [RealVector.from_json(ctx, v) for v in data["elements"]]
    seq = build_b_sequence(b, elements, ctx)
    _dump_json(seq.to_json(), args.out)
    return 0


def _cmd_group_member(args):
    group = FinGenSubgroup.from_json(_load_json(args.group))
    x = RealVector.from_json(group.basis_ctx, json.loads(args.element))
    print("true" if group.contains(x) else "false")
    return 0


def _cmd_group_equiv(args):
    m = FinGenSubgroup.from_json(_load_json(args.m))
    n = FinGenSubgroup.from_json(_load_json(args.n))
    verdict = decide_equivalence(m, n, candidate=args.candidate)
    out = {"status": verdict.status, "notes": verdict.notes}
    if verdict.scalar is not None:
        out["scalar"] = (format_rational(verdict.scalar)
                         if isinstance(verdict.scalar, Fraction)
                         else repr(verdict.scalar))
    if verdict.witness:
        out["witness"] = verdict.witness
    _dump_json(out)
    return 0 if verdict.status != "UNDECIDED" else 2


def _cmd_solenoid_flow(args):
    system = SolenoidSystem.from_json(_load_json(args.system))
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        print("t,stage," + ",".join(f"coord{j}" for j in range(system.kappa)),
              file=out)
        ts = args.t_grid
        for t, stages in zip(ts, pi_solenoid(system, ts).stages):
            for i, stage in enumerate(stages):
                row = ",".join(f"{c:.12f}" for c in stage)
                print(f"{t:.6f},{i + 1},{row}", file=out)
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_rotnum(args):
    lift = _lift_from_spec(_load_json(args.lift))
    est, bound = rotation_number(lift, x0=args.x0, n=args.n)
    br = rotation_bracket(lift, x0=args.x0, width=bound)
    _dump_json({"estimate": est, "error_bound": bound, "n": args.n,
                "bracket": [str(br.lo), str(br.hi)],
                "bracket_width": br.width, "bracket_stop": br.stop})
    return 0


def _cmd_denjoy_build(args):
    name, val = parse_real_token(args.theta)
    if name is None:
        print("error: theta must be a named irrational like sqrt2/2",
              file=sys.stderr)
        return 1
    basis = SymbolBasis([("1", 1.0), (name, val)])
    d = build_denjoy(basis.symbol(name), parse_rational(args.lam), args.N)
    est, bound = rotation_number(d.lift, n=2000)
    br = rotation_bracket(d.lift, width=bound)
    a0, b0 = d.interval(0)
    _dump_json({"theta": d.theta_val, "lambda": d.lam, "trunc": d.trunc,
                "tail_bound": d.tail_bound,
                "interval_0": [a0, b0],
                "rotation_number_estimate": est,
                "rotation_number_bound": bound,
                "rotation_number_bracket": [str(br.lo), str(br.hi)],
                "rotation_number_bracket_width": br.width,
                "rotation_number_bracket_stop": br.stop}, args.out)
    return 0


def _cmd_suspend_orbit(args):
    lift = _lift_from_spec(_load_json(args.lift))
    p = SuspensionPoint(args.s, args.x)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        print("t,s,x", file=out)
        for t in args.t_grid:
            q = suspension_flow(lift, float(t), p)
            print(f"{t:.6f},{q.s:.12f},{q.x:.12f}", file=out)
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_exponents_probe(args):
    from .exponents import probe_exponent
    spec = _load_json(args.orbit)
    kind = spec["kind"]
    kinds = sorted(k for k, s in SCENARIOS.items() if s.returns)
    if kind not in kinds:
        print(f"error: unknown orbit kind {kind!r}; have {kinds}", file=sys.stderr)
        return 1
    try:
        orbit, seqs = SCENARIOS[kind].returns({**SCENARIOS[kind].defaults, **spec})
    except KeyError as exc:
        print(f"error: orbit kind {kind!r} needs {exc.args[0]!r}", file=sys.stderr)
        return 1
    candidates = _load_json(args.candidates)
    reports = []
    for cand in candidates:
        _, val = parse_real_token(str(cand))
        rep = probe_exponent(orbit, val, seqs)
        out = {"candidate": cand, "verdict": rep.verdict,
               "max_tail_spread": rep.max_tail_spread, "notes": rep.notes}
        if rep.verdict == "REJECTED":
            out.update(rejection_gap=rep.rejection_gap,
                       rejection_orbit_spread=rep.rejection_orbit_spread,
                       rejection_clusters=rep.rejection_clusters,
                       rejection_times=rep.rejection_times.tolist())
        reports.append(out)
    _dump_json(reports, args.report)
    return 0


def _cmd_kronecker_solve(args):
    query = KroneckerQuery(frequencies=args.freqs, targets=args.targets,
                           epsilon=args.eps, search_bound=args.bound)
    t = kronecker_solve(query)
    if t is None:
        print("NOT_FOUND")
        return 2
    from .circmath import circle_dist
    _dump_json({"t": t,
                "residuals": [circle_dist(f * t, x) for f, x in
                              zip(args.freqs, args.targets)]})
    return 0


def _cmd_lab_list(args):
    for name in sorted(SCENARIOS):
        print(f"{name}: {SCENARIOS[name].description}")
    return 0


def _cmd_lab_run(args):
    params = _load_json(args.params) if args.params else None
    report = run_scenario(args.scenario, params)
    _dump_json(report.to_json(), args.out)
    for e in report.expectations:
        status = "PASS" if e.passed else "FAIL"
        print(f"[{status}] {e.name}", file=sys.stderr)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="apexp",
                                description="exact subgroup algebra, "
                                "solenoid flows, circle dynamics and "
                                "exponent probes")
    sub = p.add_subparsers(dest="command", required=True)

    bseq = sub.add_parser("bseq", help="staged refinement towers")
    bsub = bseq.add_subparsers(dest="sub", required=True)
    bb = bsub.add_parser("build", help="build stages and bonding matrices")
    bb.add_argument("--in", dest="infile", required=True,
                    help='JSON {"basis", "B", "elements"}')
    bb.add_argument("--out")
    bb.set_defaults(func=_cmd_bseq_build)

    group = sub.add_parser("group", help="finitely generated subgroups of R")
    gsub = group.add_subparsers(dest="sub", required=True)
    gm = gsub.add_parser("member", help="exact membership test")
    gm.add_argument("--group", required=True)
    gm.add_argument("--element", required=True, help='JSON {"coords": ...}')
    gm.set_defaults(func=_cmd_group_member)
    ge = gsub.add_parser("equiv", help="decide M = a*N for a scalar a")
    ge.add_argument("--m", required=True)
    ge.add_argument("--n", required=True)
    ge.add_argument("--candidate")
    ge.set_defaults(func=_cmd_group_equiv)

    sol = sub.add_parser("solenoid", help="flows on truncated inverse limits")
    ssub = sol.add_subparsers(dest="sub", required=True)
    sf = ssub.add_parser("flow", help="CSV of the one-parameter subgroup")
    sf.add_argument("--system", required=True)
    _add_t_grid(sf)
    sf.add_argument("--out")
    sf.set_defaults(func=_cmd_solenoid_flow)

    rn = sub.add_parser("rotnum", help="rotation number of a lift: the "
                        "n-step estimate and an exact bracket 2/n wide")
    rn.add_argument("--lift", required=True, help="lift spec JSON")
    rn.add_argument("--n", type=int, default=100000)
    rn.add_argument("--x0", type=float, default=0.0)
    rn.set_defaults(func=_cmd_rotnum)

    dj = sub.add_parser("denjoy", help="blown-up rotation")
    dsub = dj.add_subparsers(dest="sub", required=True)
    db = dsub.add_parser("build")
    db.add_argument("--theta", required=True, help="e.g. sqrt2/2")
    db.add_argument("--lambda", dest="lam", default="1/2")
    db.add_argument("-N", type=int, default=40)
    db.add_argument("--out")
    db.set_defaults(func=_cmd_denjoy_build)

    susp = sub.add_parser("suspend", help="suspension flows")
    spsub = susp.add_subparsers(dest="sub", required=True)
    so = spsub.add_parser("orbit", help="CSV orbit of a suspension point")
    so.add_argument("--lift", required=True)
    _add_t_grid(so)
    so.add_argument("--s", type=float, default=0.0)
    so.add_argument("--x", type=float, default=0.0)
    so.add_argument("--out")
    so.set_defaults(func=_cmd_suspend_orbit)

    expn = sub.add_parser("exponents", help="numeric exponent probes")
    esub = expn.add_subparsers(dest="sub", required=True)
    ep = esub.add_parser("probe")
    ep.add_argument("--orbit", required=True, help="orbit spec JSON")
    ep.add_argument("--candidates", required=True, help="JSON list")
    ep.add_argument("--report")
    ep.set_defaults(func=_cmd_exponents_probe)

    kr = sub.add_parser("kronecker", help="simultaneous approximation")
    ksub = kr.add_subparsers(dest="sub", required=True)
    ks = ksub.add_parser("solve")
    ks.add_argument("--freqs", required=True, help="comma list, e.g. 1,sqrt2",
                    type=_checked(
                        lambda a: [parse_real_token(t)[1] for t in a.split(",")],
                        _all_finite, "a comma list of finite reals like 1,sqrt2/2"))
    ks.add_argument("--targets", required=True, help="comma list of rationals",
                    type=_checked(
                        lambda a: [float(Fraction(t)) for t in a.split(",")],
                        _all_finite, "a comma list of rationals like 0,1/4"))
    ks.add_argument("--eps", required=True, type=_checked(
        float, lambda x: 0.0 < x < math.inf, "a positive finite number"))
    ks.add_argument("--bound", default=1e6,
                    type=_checked(float, math.isfinite, "a finite number"))
    ks.set_defaults(func=_cmd_kronecker_solve)

    lab = sub.add_parser("lab", help="scenario harness")
    lsub = lab.add_subparsers(dest="sub", required=True)
    ll = lsub.add_parser("list")
    ll.set_defaults(func=_cmd_lab_list)
    lr = lsub.add_parser("run")
    lr.add_argument("scenario", choices=sorted(SCENARIOS))
    lr.add_argument("--params", help="JSON parameter overrides")
    lr.add_argument("--out", help="write the report JSON here")
    lr.set_defaults(func=_cmd_lab_run)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
