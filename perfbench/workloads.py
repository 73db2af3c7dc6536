"""Seeded inputs and operations of the three workloads.

Every workload is a round of operations, each of one of four kinds; a
run repeats the same round.  Operations call apexp through module
attributes at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from apexp import exponents, groups, realfield, scenarios, solenoid

import checks

KINDS = {
    "lab": ["example1", "spiral", "denjoy-suspension", "dyadic-solenoid"],
    "kronecker": ["integer d=1", "integer d=2", "grid d=1", "grid d=2"],
    "exact": ["1 root", "2 roots", "3 roots", "4 roots"],
}


@dataclass
class Op:
    kind: int                          # index into KINDS[workload]
    run: Callable[[], object]          # the timed call into apexp
    check: Callable[[object], list]    # independent check of its answer
    fingerprint: Callable[[object], object]  # must repeat across rounds


def build(workload: str, seed: int):
    """(operations of one round, untimed warm-up, description of the inputs)."""
    return {"lab": _lab, "kronecker": _kronecker, "exact": _exact}[workload](seed)


# ---------------------------------------------------------------------------
# lab: the four scenarios at their registered defaults, as `apexp lab run`


def _lab_report_key(report):
    return {k: v for k, v in report.items() if k != "runtime"}


# dyadic-solenoid, the shortest scenario, runs three times a round so
# that its median rests on as many seconds as the others'
LAB_ROUND = [0, 1, 2, 3, 3, 3]


def _lab(seed):
    names = KINDS["lab"]
    order = list(LAB_ROUND)
    random.Random(seed).shuffle(order)
    ops = [Op(k, lambda name=names[k]: scenarios.run_scenario(name).to_json(),
              lambda rep, name=names[k]: checks.check_lab(name, rep),
              _lab_report_key)
           for k in order]

    def warmup():
        scenarios.run_scenario("dyadic-solenoid").to_json()

    return ops, warmup, {"order": [names[k] for k in order]}


# ---------------------------------------------------------------------------
# kronecker: simultaneous-approximation queries with a planted solution

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23]
QUERIES_PER_KIND = 25
NEGATE_EVERY = 8          # queries k = 3, 11, 19 of each kind run backwards
# log10 of the largest planted span per kind; the integer path keeps
# |v*t| * 2**-52 far below epsilon so float rounding cannot decide a hit
SPAN_LOG10 = {"integer d=1": 4.5, "integer d=2": 6.5, "grid d=1": 7.0, "grid d=2": 7.0}
NATURAL = 50              # expected first unplanted hit, in planted spans
SEARCH_BOUND = 1e7        # build_breaker_sequence's default bound


@dataclass
class KroneckerSpec:
    freqs: list[float]
    targets: list[float]
    eps: float
    search_bound: float
    t_min: float
    negate: bool
    span: int                 # planted hit, in scan steps from the start

    def query(self):
        return exponents.KroneckerQuery(
            frequencies=list(self.freqs), targets=list(self.targets),
            epsilon=self.eps, search_bound=self.search_bound,
            t_min=self.t_min, negate_time=self.negate)


def _quadratic_irrational(rng, primes):
    """(a + b*sqrt(p)) / c with 1/4 <= |value| <= 4, away from integers."""
    while True:
        p = rng.choice(primes)
        a, b, c = rng.randint(-3, 3), rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)
        v = (a + b * math.sqrt(p)) / c
        if 0.25 <= abs(v) <= 4.0 and abs(v - round(v)) > 0.05:
            return v, p


def _epsilon(kind, span):
    """Epsilon whose expected first unplanted hit is NATURAL spans away,
    so the planted span sets the scan length."""
    if kind == "integer d=1":   # one circle coordinate hits with chance 2*eps
        return 1.0 / (2 * NATURAL * span)
    if kind == "integer d=2":   # two coordinates: (2*eps)**2
        return 1.0 / (2 * math.sqrt(NATURAL * span))
    if kind == "grid d=1":      # the grid moves eps/4 per step toward the plant
        return 4.0 / (NATURAL * span)
    return 1.0 / math.sqrt(NATURAL * span)


def kronecker_spec(rng, kind, span, negate):
    """A query whose scan meets a solution `span` steps after its start."""
    d = int(kind[-1])
    vals, used = [], []
    for _ in range(d):
        v, p = _quadratic_irrational(rng, [q for q in PRIMES if q not in used])
        vals.append(v)
        used.append(p)
    eps = _epsilon(kind, span)
    t_min = rng.uniform(0.0, 100.0)
    if kind.startswith("integer"):
        offset = rng.random()
        n_hit = math.ceil(t_min - offset) + span - 1
        t_hit = float(n_hit) + offset   # as the scan forms n + offset
        freqs, inner = [1.0] + vals, [offset]
        bound = max(float(n_hit + 1), SEARCH_BOUND)
    else:
        step = eps / (4.0 * max(abs(v) for v in vals))
        t_hit = t_min + float(span - 1) * step
        freqs, inner = vals, []
        bound = max(t_hit + 2 * step, SEARCH_BOUND)
    inner += [(v * t_hit - rng.uniform(-eps / 2, eps / 2)) % 1.0 for v in vals]
    # negate_time scans -t against the negated targets
    targets = [(-y) % 1.0 for y in inner] if negate else inner
    return KroneckerSpec(freqs, targets, eps, bound, t_min, negate, span)


def _kronecker(seed):
    rng = random.Random(seed)
    specs = []
    for kind_index, kind in enumerate(KINDS["kronecker"]):
        top = SPAN_LOG10[kind]
        for k in range(QUERIES_PER_KIND):
            # stratified log-uniform span from 10 to 10**top
            u = (k + rng.random()) / QUERIES_PER_KIND
            span = round(10 ** (1 + (top - 1) * u))
            spec = kronecker_spec(rng, kind, span, k % NEGATE_EVERY == 3)
            specs.append((kind_index, spec))
    rng.shuffle(specs)
    ops = [Op(kind, lambda q=spec.query(): exponents.kronecker_solve(q),
              lambda t, spec=spec: checks.check_kronecker(spec, t),
              lambda t: t)
           for kind, spec in specs]
    warm = [kronecker_spec(random.Random(seed + 1), kind, 10, False)
            for kind in KINDS["kronecker"]]

    def warmup():
        for spec in warm:
            exponents.kronecker_solve(spec.query())

    info = {"spans": {kind: sorted(s.span for k, s in specs if KINDS["kronecker"][k] == kind)
                      for kind in KINDS["kronecker"]}}
    return ops, warmup, info


# ---------------------------------------------------------------------------
# exact: towers, solenoids, membership and equivalence over Q(sqrt p)

DEPTHS = [10, 20, 30]
MAX_DEN = 12              # element denominators; lcm(1..12) = 27720
OFF_LATTICE = 101         # prime not dividing 27720
MEMBERS = 6
SESSIONS_PER_SHAPE = 8    # per (roots, depth) in one round


@dataclass
class ExactSpec:
    primes: list[int]
    depth: int
    elements: list[list[Fraction]]   # dense coordinates over (1, sqrt p, ...)
    members: list[list[Fraction]]
    non_members: list[list[Fraction]]
    rescale: Fraction

    @property
    def kappa(self):
        return len(self.primes) + 1


def _rational(rng):
    q = rng.randint(1, MAX_DEN)
    return Fraction(rng.choice([p for p in range(-MAX_DEN, MAX_DEN + 1) if p]), q)


def exact_spec(rng, roots, depth):
    primes = sorted(rng.sample(PRIMES, roots))
    k = roots + 1
    elements = [[Fraction(0)] * k]
    for _ in range(depth - 1):
        h = [Fraction(0)] * k
        for j in rng.sample(range(k), rng.randint(1, 2)):
            h[j] = _rational(rng)
        elements.append(h)
    gens = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)] + elements[1:]
    members = []
    for _ in range(MEMBERS):
        m = [Fraction(0)] * k
        for g in rng.sample(gens, 4):
            c = rng.randint(-3, 3)
            m = [a + c * b for a, b in zip(m, g)]
        members.append(m)
    non_members = []
    for m in members:
        j = rng.randrange(k)
        non_members.append([a + (Fraction(1, OFF_LATTICE) if i == j else 0)
                            for i, a in enumerate(m)])
    while True:
        r = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        if r not in (0, 1):
            break
    return ExactSpec(primes, depth, elements, members, non_members, r)


def exact_session(spec):
    """Basis, tower, solenoid, membership and equivalence, as a user of
    the exact layer would run them."""
    names = ["1"] + [f"sqrt{p}" for p in spec.primes]
    ctx = realfield.SymbolBasis(
        [("1", 1.0)] + [(f"sqrt{p}", math.sqrt(p)) for p in spec.primes])

    def vec(coords):
        return ctx.vector({n: q for n, q in zip(names, coords) if q})

    b = [ctx.symbol(n) for n in names]
    seq = groups.build_b_sequence(b, [vec(h) for h in spec.elements], ctx)
    system = solenoid.SolenoidSystem.from_bsequence(seq)
    group = groups.FinGenSubgroup(ctx, b + [vec(h) for h in spec.elements[1:]])
    members = [group.contains(vec(m)) for m in spec.members]
    non_members = [group.contains(vec(m)) for m in spec.non_members]
    final = seq.stages[-1].basis
    scaled = groups.FinGenSubgroup(ctx, [v.scale(spec.rescale) for v in final])
    rescaled = groups.decide_equivalence(group, scaled)
    smaller = groups.FinGenSubgroup(ctx, final[:-1])
    other_rank = groups.decide_equivalence(group, smaller)
    return seq, system, members, non_members, rescaled, other_rank


def exact_answer(result):
    """Plain data of a session's answer."""
    seq, system, members, non_members, rescaled, other_rank = result
    return {
        "stage_bases": [[v.dense() for v in s.basis] for s in seq.stages],
        "matrices": seq.matrices(),
        "system_matrices": [m.tolist() for m in system.matrices],
        "members": members,
        "non_members": non_members,
        "rescaled": (rescaled.status, rescaled.scalar),
        "other_rank": other_rank.status,
    }


def _exact_fingerprint(result):
    a = exact_answer(result)
    return (a["matrices"], a["members"], a["non_members"], a["rescaled"], a["other_rank"])


def _exact(seed):
    rng = random.Random(seed)
    specs = [(roots - 1, exact_spec(rng, roots, depth))
             for roots in range(1, 5) for depth in DEPTHS
             for _ in range(SESSIONS_PER_SHAPE)]
    rng.shuffle(specs)
    ops = [Op(kind, lambda spec=spec: exact_session(spec),
              lambda res, spec=spec: checks.check_exact(spec, exact_answer(res)),
              _exact_fingerprint)
           for kind, spec in specs]
    warm = exact_spec(random.Random(seed + 1), 1, DEPTHS[0])

    def warmup():
        exact_session(warm)

    return ops, warmup, {"shapes": [(len(s.primes), s.depth) for _, s in specs]}
