"""Circle maps via lifts, rotation numbers, a constructive blown-up
rotation (Denjoy-style) example, and suspension flows.

A lift F is normalized by F(0) in [0, 1); the induced circle map is
x -> frac(F(x)).  The blown-up rotation inserts geometric intervals
along one rotation orbit; the inverse of the insertion is the monotone
collapse back onto the rotation.

Rotation numbers come two ways.  `rotation_number` is the orbit average
(F^n(x) - x)/n, good to 2/n.  `rotation_bracket` is exact in its
endpoints: by the sign test, F^q(x) > x + p at one point x gives
rho >= p/q and F^q(x) < x + p gives rho <= p/q (Katok and Hasselblatt,
Introduction to the Modern Theory of Dynamical Systems, Ch. 11), so a
descent of the Stern-Brocot tree keeps rho between two fractions.  A
test whose |F^q(x) - x - p| lies within the rounding that q float lift
steps can make is not decided; the descent stops there, and the bracket
is then a statement about the float lift.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .circmath import METRIC_TORUS, dist, frac
from .realfield import RealVector, parse_rational

__all__ = [
    "CircleLift",
    "DenjoyMap",
    "SuspensionPoint",
    "NotMonotoneError",
    "RationalThetaError",
    "PrecisionError",
    "rotation_lift",
    "closed_form_lift",
    "sampled_lift",
    "rotation_number",
    "RotationBracket",
    "rotation_bracket",
    "build_denjoy",
    "suspension_flow",
    "mu_rotation",
    "suspension_semiconjugacy",
]


class NotMonotoneError(ValueError):
    """The lift fails its strict-monotonicity sampling check."""


class RationalThetaError(ValueError):
    """The requested rotation number has no irrational part."""


class PrecisionError(ValueError):
    """The truncation tail bound exceeds the requested precision."""


class CircleLift:
    """Lift of a degree-one orientation-preserving circle map, validated
    on construction."""

    def __init__(self, f, inverse=None):
        self.f = f
        self._inverse = inverse
        self.validate()

    def __call__(self, x: float) -> float:
        return self.f(x)

    def validate(self, samples: int = 257, tol: float = 1e-9):
        f0 = self.f(0.0)
        if not 0.0 <= f0 < 1.0:
            raise ValueError(f"lift not normalized: F(0) = {f0}")
        xs = np.linspace(-1.0, 1.0, samples)
        ys = np.array([self.f(float(x)) for x in xs])
        if np.any(np.diff(ys) <= 0):
            raise NotMonotoneError("lift is not strictly increasing on samples")
        shifted = np.array([self.f(float(x) + 1.0) for x in xs])
        if np.max(np.abs(shifted - ys - 1.0)) > tol:
            raise ValueError("lift is not degree-one equivariant on samples")

    def inverse(self, y: float) -> float:
        """x with F(x) = y; bisection on the monotone lift if no closed
        form was supplied."""
        if self._inverse is not None:
            return self._inverse(y)
        lo, hi = y - 2.0, y + 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.f(mid) < y:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def iterate(self, x: float, n: int) -> float:
        """n-fold lift iterate, n may be negative."""
        for _ in range(n if n >= 0 else -n):
            x = self.f(x) if n >= 0 else self.inverse(x)
        return x

    def circle_iterate(self, x: float, n: int) -> float:
        return frac(self.iterate(frac(x), n))


def rotation_lift(theta: float) -> CircleLift:
    """Lift of the rigid rotation by theta."""
    t0 = frac(theta)
    return CircleLift(lambda x, _t=t0: x + _t, inverse=lambda y, _t=t0: y - _t)


_ALLOWED_FUNCS = {"sin": math.sin, "cos": math.cos}
_ALLOWED_NAMES = {"pi": math.pi}


def _eval_expr(node, x: float) -> float:
    if isinstance(node, ast.Expression):
        return _eval_expr(node.body, x)
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return float(node.value)
    if isinstance(node, ast.Name):
        if node.id == "x":
            return x
        if node.id in _ALLOWED_NAMES:
            return _ALLOWED_NAMES[node.id]
        raise ValueError(f"unknown name {node.id!r}")
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub,
                                                            ast.Mult, ast.Div)):
        a, b = _eval_expr(node.left, x), _eval_expr(node.right, x)
        if isinstance(node.op, ast.Add):
            return a + b
        if isinstance(node.op, ast.Sub):
            return a - b
        if isinstance(node.op, ast.Mult):
            return a * b
        return a / b
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        v = _eval_expr(node.operand, x)
        return -v if isinstance(node.op, ast.USub) else v
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _ALLOWED_FUNCS and len(node.args) == 1):
        return _ALLOWED_FUNCS[node.func.id](_eval_expr(node.args[0], x))
    raise ValueError("expression uses an unsupported construct")


def closed_form_lift(expr: str) -> CircleLift:
    """Lift from a tiny arithmetic grammar: x, numbers, + - * /, sin, cos, pi."""
    tree = ast.parse(expr, mode="eval")
    return CircleLift(lambda x: _eval_expr(tree, x))


def sampled_lift(xs, ys) -> CircleLift:
    """Monotone piecewise-linear lift through samples of F on [0, 1)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    order = np.argsort(xs)
    xs, ys = xs[order], ys[order]
    # extend by degree-one equivariance so interpolation covers [0, 1]
    xg = np.concatenate([xs, xs[:1] + 1.0])
    yg = np.concatenate([ys, ys[:1] + 1.0])

    def f(x):
        k = math.floor(x)
        return float(np.interp(x - k, xg, yg)) + k

    return CircleLift(f)


def rotation_number(lift: CircleLift, x0: float = 0.0, n: int = 10000):
    """(estimate, error_bound) with estimate = (F^n(x0) - x0)/n.

    The bound 2/n comes from applying |F^n(x) - x - n*rho| <= 1 twice.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = x0
    for _ in range(n):
        x = lift.f(x)
    return (x - x0) / n, 2.0 / n


BRACKET_MAX_STEPS = 20000  # lift steps one rotation_bracket may spend
BRACKET_PLAIN_RUN = 4      # mediant steps in one direction before doubling


@dataclass(frozen=True)
class RotationBracket:
    """lo <= rho <= hi for the rotation number rho of a lift, with the
    lift steps spent and why the descent stopped: "width" (hi - lo is
    at most the requested width), "margin" (a sign test fell within the
    float margin, so lo = hi) or "budget" (the next test would pass
    BRACKET_MAX_STEPS)."""

    lo: Fraction
    hi: Fraction
    lift_steps: int
    stop: str

    @property
    def width(self) -> float:
        return float(self.hi - self.lo)

    @property
    def estimate(self) -> float:
        """The midpoint, within width / 2 of rho."""
        return float((self.lo + self.hi) / 2)


def _float_margin(x0: float, q: int) -> float:
    """Rounding that q float lift steps from x0 can accumulate: each
    step rounds a value of size at most |x0| + q + 1 by half an ulp,
    taken 8 times over to spare."""
    return q * (abs(x0) + q + 1) * 2.0 ** -50


def rotation_bracket(lift: CircleLift, x0: float = 0.0,
                     width: float = 1e-6) -> RotationBracket:
    """Exact fractions lo <= rho <= hi around the rotation number of the
    lift, from sign tests of F^q(x0) - x0 - p along the Stern-Brocot tree.

    Each test costs q calls of lift.f.  F^q(x0) > x0 + p gives
    rho >= p/q, since G = F^q - p then has G^n(x0) >= x0 for all n; the
    reverse inequality gives rho <= p/q.  The bracket stays a pair of
    Farey neighbours, so its width is 1/(q q').  The descent stops when
    that width is at most `width`; when the next test would take the
    lift steps past BRACKET_MAX_STEPS; or when |F^q(x0) - x0 - p| is at
    most _float_margin(x0, q).  In the last case the float orbit of x0
    returns to x0 + p within its own rounding, so for the float lift
    rho = p/q, and lo = hi = p/q.  Every decided test sits outside the
    margin, so it holds for any lift whose q-step float iterate at x0 is
    within that margin of its exact one.

    A run of tests that all move the same end is a partial quotient of
    rho.  After BRACKET_PLAIN_RUN moves the run goes on by doubling its
    stride, then halves back onto the first failing mediant, so a large
    partial quotient a costs O(log a) tests instead of a, while small
    ones cost what the plain descent costs.
    """
    if not width > 0.0:
        raise ValueError("width must be positive")

    def judge(d: float, q: int) -> int:
        """+1 when rho >= p/q, -1 when rho <= p/q, 0 within the margin,
        for d = F^q(x0) - x0 - p."""
        if abs(d) <= _float_margin(x0, q):
            return 0
        return 1 if d > 0 else -1

    def side(p: int, q: int) -> int:
        nonlocal steps
        steps += q
        return judge(lift.iterate(x0, q) - x0 - p, q)

    def done(lo, hi, stop):
        return RotationBracket(Fraction(*lo), Fraction(*hi), steps, stop)

    def ahead(u, v, n):
        """The fraction (u_p + n v_p)/(u_q + n v_q), as a (p, q) pair."""
        return u[0] + n * v[0], u[1] + n * v[1]

    d1 = lift.f(x0) - x0
    steps = 1
    k = math.floor(d1)
    for p in (k, k + 1):
        if judge(d1 - p, 1) == 0:
            return done((p, 1), (p, 1), "margin")
    # a run moves the end a toward the fixed end b while the test gives
    # `sign`; then the ends swap roles
    a, b, sign = (k, 1), (k + 1, 1), 1
    while True:
        n, stride, growing = 0, 1, True
        while stride:
            c = ahead(a, b, n)
            lo, hi = (c, b) if sign > 0 else (b, c)
            if 1.0 / (c[1] * b[1]) <= width:
                return done(lo, hi, "width")
            m = ahead(c, b, stride)
            if steps + m[1] > BRACKET_MAX_STEPS:
                return done(lo, hi, "budget")
            s = side(*m)
            if s == 0:
                return done(m, m, "margin")
            if s == sign:
                n += stride
                if not growing:
                    stride //= 2
                elif n >= BRACKET_PLAIN_RUN:
                    stride *= 2
            elif growing and stride == 1:
                break
            else:
                # halve back: a + (n + 2 stride) b is known to fail
                growing = False
                stride //= 2
        # a + (n + 1) b failed, by its own test or as the point the last
        # halving success fell one short of
        a, b, sign = ahead(a, b, n + 1), ahead(a, b, n), -sign


# ---------------------------------------------------------------------------
# blown-up rotation (constructive non-transitive example)


@dataclass
class DenjoyMap:
    """Orientation-preserving circle homeomorphism with irrational
    rotation number and a Cantor minimal set, built by inserting
    intervals of geometric length along one rotation orbit."""

    theta: RealVector
    theta_val: float
    lam: float
    trunc: int                      # orbit indices |n| <= trunc are blown up
    tail_bound: float
    lift: CircleLift = field(repr=False)
    pos: np.ndarray = field(repr=False)    # orbit points frac(n*theta), sorted
    nidx: np.ndarray = field(repr=False)   # orbit index n per sorted slot
    lens: np.ndarray = field(repr=False)   # inserted lengths, same order
    _cum: np.ndarray = field(init=False, repr=False)    # prefix sums of lens
    _total: float = field(init=False, repr=False)       # 1 + sum of lens
    _start: np.ndarray = field(init=False, repr=False)  # left interval ends

    def __post_init__(self):
        self._cum = np.concatenate([[0.0], np.cumsum(self.lens)])
        self._total = 1.0 + self._cum[-1]
        self._start = self.embed(self.pos)

    def embed(self, x):
        """Position on the enlarged circle of base point x, or of each
        point of an array (the left endpoint when x is a blown-up orbit
        point)."""
        x = frac(x)
        return (x + self._cum[self.pos.searchsorted(x)]) / self._total

    def locate(self, y: float):
        """(base point, orbit index or None, interior coordinate)."""
        y = frac(y)
        k = self._start.searchsorted(y, side="right") - 1
        if k >= 0:
            end = self._start[k] + self.lens[k] / self._total
            if y < end:
                s = (y - self._start[k]) * self._total / self.lens[k]
                return float(self.pos[k]), int(self.nidx[k]), float(s)
        x = y * self._total - self._cum[k + 1]
        return float(frac(x)), None, 0.0

    def collapse(self, y: float) -> float:
        """The monotone semiconjugacy h onto the rigid rotation."""
        return self.locate(y)[0]

    def interval(self, n: int):
        """Endpoints [a, b] of the inserted interval for orbit index n."""
        k = int(np.nonzero(self.nidx == n)[0][0])
        a = float(self._start[k])
        return a, a + float(self.lens[k] / self._total)


def build_denjoy(theta: RealVector, lam=Fraction(1, 2), trunc: int = 40,
                 precision: float = 1e-6) -> DenjoyMap:
    """Blow up the orbit indices |n| <= trunc of the rotation by theta
    into intervals of length c*lam^|n| (c normalizes the total inserted
    length to 1) and build the induced circle homeomorphism."""
    unit = theta.basis.unit_index
    if all(i == unit for i in theta.coords):
        raise RationalThetaError("theta must have an irrational symbol part")
    lam = float(parse_rational(lam))
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    if trunc < 10:
        raise ValueError("truncation depth must be >= 10")
    th = theta.eval()
    c = (1.0 - lam) / (1.0 + lam)
    tail = 2.0 * c * lam ** (trunc + 1) / (1.0 - lam)
    if tail > precision:
        raise PrecisionError(f"tail bound {tail:.3g} exceeds {precision:.3g}")

    ns = np.arange(-trunc, trunc + 1)
    pos = frac(ns * th)
    order = np.argsort(pos)
    d = DenjoyMap(theta=theta, theta_val=th, lam=lam, trunc=trunc,
                  tail_bound=tail, lift=None, pos=pos[order], nidx=ns[order],
                  lens=c * lam ** np.abs(ns[order]))

    k_of_n = {int(n): k for k, n in enumerate(d.nidx)}
    ghost = c * lam ** (trunc + 1)  # virtual width beyond the truncation

    def shift(y: float, m: int) -> float:
        """The circle map (m = 1) or its inverse (m = -1) on the enlarged
        circle."""
        x, n, s = d.locate(y)
        if n is not None:
            k1 = k_of_n.get(n + m)
            if k1 is not None:
                return float(d._start[k1]) + s * float(d.lens[k1]) / d._total
            return d.embed((n + m) * th) + s * ghost / d._total
        return d.embed(x + m * th)

    y0 = shift(0.0, 1)

    def lift_f(x: float) -> float:
        k = math.floor(x)
        v = shift(x - k, 1)
        if v < y0:
            v += 1.0
        return v + k

    def lift_inv(y: float) -> float:
        # lift_f maps [k, k+1) onto [y0 + k, y0 + k + 1), and shift(., -1)
        # inverts the underlying circle map
        k = math.floor(y - y0)
        return shift((y - k) % 1.0, -1) + k

    d.lift = CircleLift(lift_f, inverse=lift_inv)
    return d


# ---------------------------------------------------------------------------
# suspensions


@dataclass
class SuspensionPoint:
    s: float  # in [0, 1)
    x: float  # circle coordinate in [0, 1)

    def __post_init__(self):
        if not 0.0 <= self.s < 1.0:
            raise ValueError("use suspension_flow / normalize for non-canonical s")
        self.x = frac(self.x)

    def dist(self, other: "SuspensionPoint") -> float:
        return float(dist([self.s, self.x], [other.s, other.x], METRIC_TORUS))


def suspension_flow(lift: CircleLift, t: float, p: SuspensionPoint) -> SuspensionPoint:
    """sigma(t, [s, x]) = [t + s, x], renormalized by applying the
    return map floor(t+s) times to the fiber coordinate."""
    total = t + p.s
    k = math.floor(total)
    return SuspensionPoint(total - k, lift.circle_iterate(p.x, k))


def mu_rotation(theta, p: SuspensionPoint):
    """Torus image <x + frac(s*theta), s> of a rotation-suspension point."""
    th = theta.eval() if isinstance(theta, RealVector) else float(theta)
    return frac(p.x + p.s * th), p.s


def suspension_semiconjugacy(d: DenjoyMap, p: SuspensionPoint,
                             base: SuspensionPoint | None = None):
    """Collapse the fiber, straighten to the torus, then translate the
    designated base point to <0, 0>."""
    a = frac(d.collapse(p.x) + p.s * d.theta_val)
    b = p.s
    if base is not None:
        a0 = frac(d.collapse(base.x) + base.s * d.theta_val)
        a, b = frac(a - a0), frac(b - base.s)
    return a, b
