"""In-memory spans and counters around apexp's public functions.

The tracer measures each layer from outside: it replaces a public
function by a wrapper in every apexp module that binds it by name (the
modules import each other with ``from .kernels import ...``), and it
wraps methods and constructors on their class.  A span records
(name, start, end, parent); a layer's self time is its spans' duration
minus the part covered by child spans.  Nothing is written until the
caller asks for the spans after the run.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name) of the public functions timed per layer
FUNCTIONS = [
    ("apexp.kernels", "kron_scan_integer", "kernels.kron_scan_integer"),
    ("apexp.kernels", "kron_scan_grid", "kernels.kron_scan_grid"),
    ("apexp.exponents", "kronecker_solve", "exponents.kronecker_solve"),
    ("apexp.exponents", "build_breaker_sequence", "exponents.build_breaker_sequence"),
    ("apexp.exponents", "find_f_sequences", "exponents.find_f_sequences"),
    ("apexp.exponents", "probe_exponent", "exponents.probe_exponent"),
    ("apexp.circle", "build_denjoy", "circle.build_denjoy"),
    ("apexp.circle", "rotation_number", "circle.rotation_number"),
    ("apexp.solenoid", "pi_solenoid", "solenoid.pi_solenoid"),
    ("apexp.groups", "build_b_sequence", "groups.build_b_sequence"),
    ("apexp.groups", "decide_equivalence", "groups.decide_equivalence"),
    ("apexp.intlinalg", "hnf_rows", "intlinalg.hnf_rows"),
    ("apexp.intlinalg", "solve_rational", "intlinalg.solve_rational"),
    ("apexp.intlinalg", "rational_rank", "intlinalg.rational_rank"),
    ("apexp.scenarios", "run_scenario", "scenarios.run_scenario"),
]

# (module, class, method names, span name) of methods and constructors
METHODS = [
    ("apexp.solenoid", "SolenoidPoint", ("consistency_residual",), "solenoid.consistency_residual"),
    ("apexp.solenoid", "SolenoidSystem", ("__init__",), "solenoid.SolenoidSystem"),
    ("apexp.groups", "FinGenSubgroup", ("__init__",), "groups.FinGenSubgroup"),
    ("apexp.groups", "FinGenSubgroup", ("contains", "__contains__"), "groups.contains"),
    ("apexp.groups", "BSequence", ("verify",), "groups.verify"),
    ("apexp.realfield", "SymbolBasis", ("__init__",), "realfield.SymbolBasis"),
]

SPAN_NAMES = [name for *_, name in FUNCTIONS] + [name for *_, name in METHODS]
COUNTER_NAMES = [
    "kernels.kron_scan_integer.steps",
    "kernels.kron_scan_grid.steps",
    "exponents.orbit_batch_points",
    "exponents.metric_calls",
    "circle.lift_evals",
]


def _scan_steps(fn, kind):
    """Steps a scan kernel walked, from its arguments and its result:
    up to and including the hit, or the whole range when it found none."""
    sig = inspect.signature(fn)

    def steps(args, kwargs, t):
        a = sig.bind(*args, **kwargs).arguments
        if kind == "integer":
            n0, n1 = int(a["n0"]), int(a["n1"])
            if math.isnan(t):
                return max(0, n1 - n0 + 1)
            return round(t - float(a["offset"])) - n0 + 1
        t0, step = float(a["t0"]), float(a["step"])
        if math.isnan(t):
            return int(math.floor((float(a["t1"]) - t0) / step)) + 1
        return round((t - t0) / step) + 1

    return steps


class Tracer:
    """Spans and counters of one traced stretch of work.

    ``install()`` puts the wrappers in place and ``uninstall()`` restores
    the original bindings, so untraced work runs the program unchanged.
    """

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, fn, amount):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += amount(args)
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- installing ----------------------------------------------------------

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        import apexp  # noqa: F401  (loads every module that binds the names)
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "apexp" or n.startswith("apexp.")) and m is not None]
        for mod_name, attr, name in FUNCTIONS:
            orig = getattr(sys.modules[mod_name], attr)
            after = self._after(name, orig)
            wrapper = self._span(name, orig, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapper)
        for mod_name, cls_name, attrs, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            wrapper = self._span(name, cls.__dict__[attrs[0]])
            for attr in attrs:
                self._set(cls, attr, wrapper)
        orbit = sys.modules["apexp.exponents"].OrbitEvaluator
        self._set(orbit, "batch", self._count(
            "exponents.orbit_batch_points", orbit.batch, lambda a: len(a[1])))
        self._set(orbit, "metric", self._count(
            "exponents.metric_calls", orbit.metric, lambda a: 1))

    def _after(self, name, orig):
        counters = self.counters
        if name.startswith("kernels."):
            steps = _scan_steps(orig, name.rsplit("_", 1)[1])
            key = name + ".steps"

            def after(args, kwargs, t):
                counters[key] += steps(args, kwargs, float(t))
            return after
        if name == "circle.build_denjoy":
            count = self._count

            def after(args, kwargs, d):
                # rotation_number calls lift.f directly, so count there
                d.lift.f = count("circle.lift_evals", d.lift.f, lambda a: 1)
            return after
        return None

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading -------------------------------------------------------------

    def self_times(self, first: int = 0):
        """{span name: [calls, self seconds]} over spans[first:], and the
        total duration of the top-level spans among them."""
        spans = self.spans
        child = defaultdict(float)
        for name, start, end, parent in spans[first:]:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0] for name in SPAN_NAMES}
        top = 0.0
        for i in range(first, len(spans)):
            name, start, end, parent = spans[i]
            agg = out[name]
            agg[0] += 1
            agg[1] += (end - start) - child[i]
            if parent < first:
                top += end - start
        return out, top
