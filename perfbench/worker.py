"""One workload in one process: set up, run whole rounds, check answers.

Started by run.py; prints one JSON object on stdout.  With --setup-only
it stops after the set-up and reports only its duration.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    # set-up: importing apexp (and numpy), generating the inputs, warm-up
    import workloads
    ops, warmup, info = workloads.build(args.workload, args.seed)
    warmup()
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = spans.Tracer() if args.trace else None
    rounds = []
    first_answers = {}
    failed = wrong = 0
    errors = []
    timed = 0.0
    clock = time.perf_counter
    # a traced run alternates traced and untraced rounds, so it measures
    # the tracing overhead against itself
    while len(rounds) < (2 if tracer else 1) or timed < args.seconds:
        traced = tracer is not None and len(rounds) % 2 == 0
        if traced:
            mark, before = len(tracer.spans), Counter(tracer.counters)
            tracer.install()
        results = []
        r0 = clock()
        for op in ops:
            s = clock()
            try:
                out, exc = op.run(), None
            except Exception:
                out, exc = None, traceback.format_exc(limit=3)
            results.append((clock() - s, out, exc))
        wall = clock() - r0
        if traced:
            tracer.uninstall()
        timed += wall
        # answers are checked outside the timed round: the first time
        # in full, afterwards against the first round's checked answer
        for i, (op, (dt, out, exc)) in enumerate(zip(ops, results)):
            if exc is not None:
                failed += 1
                errors.append(f"op {i}: {exc}")
                continue
            try:
                key = op.fingerprint(out)
                if i not in first_answers:
                    errs = op.check(out)
                    if not errs:
                        first_answers[i] = key
                elif key != first_answers[i]:
                    errs = ["answer differs from the first round's"]
                else:
                    errs = []
            except Exception:
                errs = ["check raised " + traceback.format_exc(limit=3)]
            if errs:
                failed += 1
                wrong += 1
                errors.append(f"op {i}: " + "; ".join(errs))
        rnd = {"wall_s": wall, "traced": traced,
               "op_s": [dt for dt, _, _ in results]}
        if traced:
            rnd["layers"], rnd["in_spans_s"] = tracer.self_times(mark)
            rnd["counters"] = dict(tracer.counters - before)
            rnd["spans"] = [mark, len(tracer.spans)]
        rounds.append(rnd)

    import numpy
    from apexp import kernels
    out = {
        "setup_s": setup_s,
        "kinds": [op.kind for op in ops],
        "rounds": rounds,
        "attempted": len(rounds) * len(ops),
        "failed": failed,
        "wrong": wrong,
        "errors": errors[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "backend": kernels.BACKEND,
        "inputs": info,
    }
    if tracer is not None and args.spans_out:
        path = Path(args.spans_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "fields": ["name", "start", "end", "parent"],
                       "rounds": [{"wall_s": r["wall_s"], "spans": r["spans"]}
                                  for r in rounds if r["traced"]],
                       "spans": tracer.spans}, fh)
    for rnd in rounds:
        rnd.pop("spans", None)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
