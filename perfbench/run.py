"""paraposet benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every pass of the workload runs in a
fresh interpreter (``worker.py``), one after the other, until the next
pass would end after ``--seconds``; a run makes at least one pass, so a
workload whose pass is longer than ``--seconds`` makes exactly one.
``--seed`` draws each gallery pass's command order; the two sweeps are
exhaustive and take no input from it. Before the passes, a few
interpreters are started that only import paraposet, so ``setup_s`` has
several samples even when there is one pass. All end-to-end times but
set-up are in reference seconds (see refclock.py): wall time scaled by
the speed of a fixed kernel sampled while the pass runs, so that a
drifting host does not drift the figures.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` each untraced pass is followed
by a traced pass in the same order, and the object holds the per-layer
metrics. The lines before it are for people. Exit code 0 when measured,
1 when a worker failed, 2 when the checkout holds no paraposet sources.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-n7", "omid-n7", "gallery")
SETUP_PROBES = 15
RUN_LIMIT_S = 170           # a run must end within 180 s


class WorkerFailed(RuntimeError):
    pass


def spawn(workload, *flags, end_by):
    """Run one worker and return its JSON result, with its set-up time."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, *flags],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, end_by - t0))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload} {' '.join(flags)}: over the run limit") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload} {' '.join(flags)}: exit {proc.returncode}\n"
                           + proc.stderr[-4000:])
    res = json.loads(proc.stdout.splitlines()[-1])
    res["setup"] = res["ready"] - t0
    return res


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(plain, setup):
    lat = sorted(x for p in plain for x in p["lat"])
    # the gallery runs no harness: there each command checks one structure
    instances = sum(p["instances"] or len(p["lat"]) for p in plain)
    attempted = len(lat)
    failed = sum(len(p["failed"]) for p in plain)
    return {
        "wall_s": (statistics.median(p["wall"] for p in plain), "s"),
        "instances_per_s": (instances / sum(lat), "1/s"),
        "cmd_p50_ms": (1000 * percentile(lat, 0.50), "ms"),
        "cmd_p95_ms": (1000 * percentile(lat, 0.95), "ms"),
        "peak_rss_mb": (statistics.median(p["rss_kb"] for p in plain) / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "ok_rate": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(plain, traced):
    names = traced[0]["layers"]
    metrics = {name: (statistics.fmean(t["layers"][name][0] for t in traced), unit)
               for name, (_, unit) in names.items()}
    metrics["trace.overhead_ratio"] = (
        sum(t["raw_wall"] for t in traced) / sum(p["raw_wall"] for p in plain), "ratio")
    return metrics


def problems_of(plain, traced):
    out = []
    for p in plain + traced:
        out += [f"output differs from golden: {m}" for m in p["mismatch"]]
        out += p["problems"]
    for p, t in zip(plain, traced):
        if (p["digest"], p["instances"]) != (t["digest"], t["instances"]):
            out.append("traced pass reports differ from the untraced pass")
    return sorted(set(out))


def measure(workload, seed, seconds, trace):
    end_by = time.perf_counter() + RUN_LIMIT_S
    setup = [spawn(workload, "--probe", end_by=end_by)["setup"]
             for _ in range(SETUP_PROBES)]
    rng = random.Random(seed)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        order = ["--order-seed", str(rng.randrange(2 ** 32))]
        plain.append(spawn(workload, *order, end_by=end_by))
        if trace:
            traced.append(spawn(workload, *order, "--trace", end_by=end_by))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            break
    setup += [p["setup"] for p in plain]
    metrics = per_layer(plain, traced) if trace else end_to_end(plain, setup)
    problems = problems_of(plain, traced)
    passes = plain + traced
    print(f"workload {workload}: seed {seed}, {len(plain)} pass(es)"
          + (f" and {len(traced)} traced" if trace else "")
          + f", {len(setup)} set-up samples; raw wall per pass "
          + " ".join(f"{p['raw_wall']:.3f}" for p in plain) + " s")
    for failure in sorted({f for p in passes for f in p["failed"]}):
        print(f"failed: {failure}")
    for problem in problems:
        print(f"problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>16.6f} {unit}")
    return {
        "correct": not problems,
        "attempted": sum(len(p["lat"]) for p in passes),
        "failed": sum(len(p["failed"]) for p in passes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "paraposet" / "cli.py").is_file():
        print(f"error: no paraposet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except WorkerFailed as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
