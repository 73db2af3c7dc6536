"""Checks of apexp's answers that do not come from apexp.

Each check takes the inputs the benchmark generated and the program's
answer, recomputes what it can on its own (exact Fractions, a
brute-force scan, closed forms), and returns a list of error strings;
an empty list means the answer is correct.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# a brute-force step this close to epsilon is too near the boundary to
# call either way in float arithmetic
BOUNDARY = 1e-9
BRUTE_CHUNK = 1 << 16


# ---------------------------------------------------------------------------
# kronecker


def circle_dist_exact(x: Fraction) -> Fraction:
    """Distance from x to the nearest integer, exactly."""
    f = x - math.floor(x)
    return min(f, 1 - f)


def _split(a):
    c = 134217729.0 * a  # 2**27 + 1: Veltkamp split into 26-bit halves
    hi = c - (c - a)
    return hi, a - hi


def circle_dists_dd(v: float, ts: np.ndarray, x: float) -> np.ndarray:
    """Distance of v*t - x to the nearest integer for each t, with the
    product kept in double-double so that the error stays near 1e-16
    even where v*t is about 1e7."""
    p = v * ts
    vh, vl = _split(v)
    th, tl = _split(ts)
    perr = ((vh * th - p) + vh * tl + vl * th) + vl * tl
    s = p - x
    bb = s - p
    serr = (p - (s - bb)) + (-x - bb)
    f = s - np.floor(s)
    f = f + (serr + perr)
    f = f - np.floor(f)
    return np.minimum(f, 1.0 - f)


def _first_brute_hit(vals, targs, eps, offset, n0, n_end):
    """First integer n in [n0, n_end) with every coordinate of
    t = n + offset (rounded to float as a scan does) clearly within eps."""
    limit = eps - BOUNDARY
    for start in range(n0, n_end, BRUTE_CHUNK):
        ts = np.arange(start, min(start + BRUTE_CHUNK, n_end),
                       dtype=np.int64) + offset
        ok = np.ones(ts.shape, dtype=bool)
        for v, x in zip(vals, targs):
            ok &= circle_dists_dd(v, ts, x) < limit
        hits = np.nonzero(ok)[0]
        if hits.size:
            return start + int(hits[0])
    return None


def check_kronecker(spec, t) -> list[str]:
    """A returned time must be within epsilon of every target (exactly),
    respect t_min and the search bound, and on the integer path be the
    first such time."""
    if t is None:
        return ["no solution reported, but one was planted within the bound"]
    errs = []
    eps = Fraction(spec.eps)
    tt = Fraction(t)
    for v, x in zip(spec.freqs, spec.targets):
        d = circle_dist_exact(Fraction(v) * tt - Fraction(x))
        if d >= eps:
            errs.append(f"coordinate {v!r}: distance {float(d):.3e} >= eps {spec.eps:.3e}")
    # negate_time solves the problem for -t with negated targets
    inner = -t if spec.negate else t
    if inner < spec.t_min:
        errs.append(f"time {inner!r} is below t_min {spec.t_min!r}")
    if inner > spec.search_bound:
        errs.append(f"time {inner!r} is beyond the bound {spec.search_bound!r}")
    if errs or 1.0 not in spec.freqs:
        return errs
    targs = [((-x) % 1.0) % 1.0 if spec.negate else x for x in spec.targets]
    unit = spec.freqs.index(1.0)
    offset = targs[unit]
    n_hit = round(Fraction(inner) - Fraction(offset))
    if float(n_hit) + offset != inner:
        return [f"time {inner!r} is not an integer plus the offset {offset!r}"]
    n0 = math.ceil(Fraction(spec.t_min) - Fraction(offset))
    others = [i for i in range(len(targs)) if i != unit]
    earlier = _first_brute_hit([spec.freqs[i] for i in others],
                               [targs[i] for i in others],
                               spec.eps, offset, n0, n_hit)
    if earlier is not None:
        errs.append(f"brute force finds an earlier hit at n = {earlier} "
                    f"(returned n = {n_hit})")
    return errs


# ---------------------------------------------------------------------------
# exact layer


def _eliminate(rows, target=None):
    """Determinant of a square Fraction matrix, and, given a target,
    the coefficients c with sum_i c_i rows[i] = target (None if singular)."""
    n = len(rows)
    # columns of the system are the rows, so work on the transpose
    m = [[Fraction(rows[r][c]) for r in range(n)]
         + ([Fraction(target[c])] if target is not None else [])
         for c in range(n)]
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c] != 0), None)
        if p is None:
            return Fraction(0), None
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    coeffs = None if target is None else [m[i][n] / m[i][i] for i in range(n)]
    return det, coeffs


def check_exact(spec, out) -> list[str]:
    """Recheck a session: stage 1 is B, every bonding identity holds over
    Fractions, |det M_i| is the lattice index of stage i-1 in stage i,
    each adjoined element lies in its stage lattice, the solenoid keeps
    the matrices, membership matches the construction, and the
    equivalence verdicts are the known ones."""
    errs = []
    k = spec.kappa
    bases = out["stage_bases"]
    mats = out["matrices"]
    unit_rows = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    if bases[0] != unit_rows:
        errs.append("stage 1 basis is not B")
    if len(bases) != spec.depth or len(mats) != spec.depth - 1:
        errs.append(f"tower has {len(bases)} stages, expected {spec.depth}")
        return errs
    dets = [_eliminate(b)[0] for b in bases]
    for i, mat in enumerate(mats, start=1):
        prev, cur = bases[i - 1], bases[i]
        for r in range(k):
            acc = [sum(Fraction(mat[r][s]) * cur[s][j] for s in range(k))
                   for j in range(k)]
            if acc != prev[r]:
                errs.append(f"bonding identity fails at stage {i + 1} row {r}")
        index = abs(dets[i - 1] / dets[i]) if dets[i] else None
        det_m = abs(_eliminate(mat)[0])
        if index is None or det_m != index:
            errs.append(f"stage {i + 1}: |det M| = {det_m}, lattice index {index}")
        h = spec.elements[i]
        _, c = _eliminate(cur, h)
        if c is None or any(q.denominator != 1 for q in c):
            errs.append(f"element {i} is not in stage {i + 1}")
    if out["system_matrices"] != mats:
        errs.append("solenoid bonding matrices differ from the tower's")
    if out["members"] != [True] * len(spec.members):
        errs.append(f"members reported {out['members']}")
    if out["non_members"] != [False] * len(spec.non_members):
        errs.append(f"non-members reported {out['non_members']}")
    status, scalar = out["rescaled"]
    want = 1 / spec.rescale
    if status != "EQUIVALENT" or scalar not in (want, -want):
        errs.append(f"rescaling by {spec.rescale}: {status} {scalar}, "
                    f"expected EQUIVALENT +-{want}")
    if out["other_rank"] != "NOT_EQUIVALENT":
        errs.append(f"rank mismatch gave {out['other_rank']}")
    return errs


# ---------------------------------------------------------------------------
# lab


def check_lab(name: str, report: dict) -> list[str]:
    """Every expectation passes, and the figures a closed form gives are
    recomputed from the report."""
    errs = [f"expectation failed: {e['name']}"
            for e in report["expectations"] if not e["passed"]]
    if not report["passed"] or report["scenario"] != name:
        errs.append(f"report for {report['scenario']} did not pass")
    measured = {e["name"]: e["measured"] for e in report["expectations"]}
    if name == "dyadic-solenoid":
        coords = measured["t = 1 stage coordinates halve"]
        for i, c in enumerate(coords):
            want = Fraction(1, 2 ** i) % 1
            if circle_dist_exact(Fraction(c) - want) > Fraction(1, 10 ** 12):
                errs.append(f"stage {i} coordinate {c!r}, expected {want}")
    if name == "denjoy-suspension":
        rot = measured["rotation number matches theta"]
        if not abs(rot["estimate"] - math.sqrt(2.0) / 2.0) <= rot["bound"]:
            errs.append(f"rotation number {rot['estimate']!r} is not within "
                        f"{rot['bound']!r} of sqrt(2)/2")
    if name == "example1":
        rej = measured["candidate sqrt2 rejected (targets 0 and 1/3)"]
        if rej["verdict"] != "REJECTED" or not abs(rej["gap"] - 1 / 3) < 0.05:
            errs.append(f"sqrt2 breaker: {rej['verdict']} with gap {rej['gap']!r}, "
                        "expected REJECTED with gap 1/3")
    return errs
