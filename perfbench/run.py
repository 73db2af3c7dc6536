#!/usr/bin/env python3
"""Benchmark of apexp: three seeded workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload lab|kronecker|exact --seed N \
        --seconds S --trace 0|1

Run from the repository root (the package is taken from ./src).  Each
workload runs in its own single-threaded worker process.  The command
prints every metric by name and unit, then, as its last line, one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones of a traced run.  Results, run metadata and the spans
of traced runs are written under perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("lab", "kronecker", "exact")
SETUP_PROBES = 4          # extra set-ups in fresh processes; median with the run's own
DEADLINE_S = 170.0        # the whole command, probes included

sys.path.insert(0, str(HERE))
import spans  # noqa: E402  (stdlib only; names the per-layer metrics)


def _worker(args, extra, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + extra
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metadata():
    meta = {"commit": None, "nproc": os.cpu_count()}
    if hasattr(os, "sched_getaffinity"):
        meta["cpus_usable"] = len(os.sched_getaffinity(0))
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if git.returncode == 0:
            meta["commit"] = git.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "apexp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    meta["source_sha256"] = digest.hexdigest()
    return meta


def _quantile(values, q):
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def end_to_end(res, setups):
    untraced = [r for r in res["rounds"] if not r["traced"]]
    by_kind = [[] for _ in range(4)]
    for r in untraced:
        for kind, dt in zip(res["kinds"], r["op_s"]):
            by_kind[kind].append(dt)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in untraced), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    for k, times in enumerate(by_kind):
        metrics[f"kind{k + 1}_s"] = (statistics.median(times), "s")
    ops = [dt for r in untraced for dt in r["op_s"]]
    extra = {"rounds": len(untraced), "ops": len(ops),
             "op_s_p50": _quantile(ops, 0.5)}
    if len(ops) >= 100:
        extra["op_s_p90"] = _quantile(ops, 0.9)
    return metrics, extra


def per_layer(res):
    traced = [r for r in res["rounds"] if r["traced"]]
    untraced = [r for r in res["rounds"] if not r["traced"]]
    n = len(traced)
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = (sum(r["layers"][name][0] for r in traced) / n, "count")
        metrics[f"{name}.self_s"] = (sum(r["layers"][name][1] for r in traced) / n, "s")
    for name in spans.COUNTER_NAMES:
        metrics[name] = (sum(r["counters"].get(name, 0) for r in traced) / n, "count")
    for kern in ("kernels.kron_scan_integer", "kernels.kron_scan_grid"):
        steps = metrics[kern + ".steps"][0]
        ns = metrics[kern + ".self_s"][0] / steps * 1e9 if steps else 0.0
        metrics[kern + ".ns_per_step"] = (ns, "ns")
    wall = sum(r["wall_s"] for r in traced) / n
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.outside_s"] = (wall - sum(r["in_spans_s"] for r in traced) / n, "s")
    base = sum(r["wall_s"] for r in untraced) / len(untraced)
    metrics["trace.overhead"] = (wall / base, "ratio")
    return metrics, {"traced_rounds": n, "untraced_rounds": len(untraced)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "apexp" / "__init__.py").is_file():
        raise SystemExit(f"no apexp package under {SRC}; run from a checkout of the repository")
    deadline = time.monotonic() + DEADLINE_S

    setups = [_worker(args, ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--spans-out", str(OUT / f"spans-{stem}.json.gz")]
    res = _worker(args, extra, deadline)
    setups.append(res["setup_s"])

    if args.trace:
        metrics, info = per_layer(res)
    else:
        metrics, info = end_to_end(res, setups)
    meta = _metadata()
    meta.update(python=res["python"], numpy=res["numpy"], backend=res["backend"])
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metadata": meta, "setups_s": setups,
              "info": info, "inputs": res["inputs"], "errors": res["errors"],
              "rounds": [{"traced": r["traced"], "wall_s": r["wall_s"],
                          "op_s": r["op_s"]} for r in res["rounds"]],
              "kinds": res["kinds"],
              "attempted": res["attempted"], "failed": res["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"# apexp benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, backend {res['backend']}, python {res['python']}, "
          f"numpy {res['numpy']}, nproc {meta['nproc']}, commit {meta['commit']}")
    for err in res["errors"]:
        print(f"# FAILED {err}")
    for key, value in info.items():
        print(f"# {key} {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": res["wrong"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()
