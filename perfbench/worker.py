"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD [--order-seed N] [--trace] [--probe]

Runs every command of the workload's golden file through
``paraposet.cli.main`` in this process, times each call, and compares its
exit code and standard output with the golden ones. Prints one JSON
line: when the interpreter was ready (``time.perf_counter``, which is
system-wide on Linux, so the parent can subtract its spawn time), the
latency and outcome of every command, the instances the ``verify``
reports name, the peak RSS and, with ``--trace``, the per-layer metrics.
Untraced latencies are in reference seconds (see ``refclock.py``).
``--probe`` stops right after the import, to sample set-up time.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from paraposet import cli  # noqa: E402

READY = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

from refclock import RefClock  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"
SAMPLE_PERIOD_S = 0.1       # how often an untraced pass samples the kernel
EXIT_CODES = (0, 1, 2, 3)       # documented in paraposet.cli
REPORT_LINE = re.compile(r"^(\S+): .* instances=(\d+)$", re.M)

# Pinned counts: instances summed over a workload's ``verify`` report,
# and the items each stream yields at n = 7.
PINNED_INSTANCES = {"sweep-n7": 15592, "omid-n7": 13592}
PINNED_N7 = {"bounded": 63, "ortho": 51, "sectioned": 50, "lattice-inv": 12296}


def load_golden(workload: str) -> list:
    with open(GOLDEN / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def theorem_ids() -> list:
    """The theorem ids named in the sweep's golden report."""
    report = load_golden("sweep-n7")[0]["stdout"]
    return [tid for tid, _ in REPORT_LINE.findall(report)]


def run_command(argv, clock):
    """(raw s, reference s, exit code or None, stdout, crash) for one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    code, crash = None, None
    with redirect_stdout(out), redirect_stderr(err):
        raw0, ref0 = clock.read()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:    # a crash is a counted failure, not an abort
            crash = f"{type(exc).__name__}: {exc}"
        raw1, ref1 = clock.read()
    return raw1 - raw0, ref1 - ref0, code, out.getvalue(), crash


def run_pass(entries, order_seed, clock):
    """Run every golden entry once, in an order drawn from ``order_seed``."""
    order = list(range(len(entries)))
    random.Random(order_seed).shuffle(order)
    outcome = [None] * len(entries)
    lat, raw_wall, instances = [], 0.0, 0
    digest = hashlib.sha256()
    for i in order:
        e = entries[i]
        raw, ref, code, out, crash = run_command(e["argv"], clock)
        lat.append(ref)
        raw_wall += raw
        instances += sum(int(n) for _, n in REPORT_LINE.findall(out))
        if crash is not None:
            outcome[i] = "crash"
        elif code not in EXIT_CODES:
            outcome[i] = "bad-exit"
        elif code != e["exit"] or out != e["stdout"]:
            outcome[i] = "mismatch"
        else:
            outcome[i] = "ok"
        outcome_key = crash or f"exit {code}"
        digest.update(json.dumps([e["argv"], outcome_key, out]).encode())
    return {
        "lat": lat,
        "wall": sum(lat),
        "raw_wall": raw_wall,
        "instances": instances,
        "failed": [" ".join(entries[i]["argv"]) + f" ({o})"
                   for i, o in enumerate(outcome) if o != "ok"],
        "mismatch": [" ".join(entries[i]["argv"])
                     for i, o in enumerate(outcome) if o == "mismatch"],
        "digest": digest.hexdigest(),
    }


def check_pins(workload, res, tracer=None) -> list:
    """Problems with the pinned counts; the n = 7 ones need a trace."""
    problems = []
    want = PINNED_INSTANCES.get(workload)
    if want is not None and res["instances"] != want:
        problems.append(f"instances {res['instances']} != {want}")
    if tracer is None or want is None:
        return problems
    from paraposet.harness import THEOREMS
    name = "universe.bounded_posets"
    calls = tracer.calls_at_n[name, 7]
    got = tracer.items_at_n[name, 7] / calls if calls else 0
    if got != PINNED_N7["bounded"]:
        problems.append(f"bounded posets at n=7: {got} != {PINNED_N7['bounded']}")
    for (tid, n), count in tracer.seen.items():
        stream = THEOREMS[tid].stream
        if n == 7 and count != PINNED_N7[stream]:
            problems.append(f"{tid}: {stream} items at n=7: {count} != {PINNED_N7[stream]}")
    return problems


def measure_pass(workload, entries, order_seed=0, tracer=None):
    """One pass with its pinned-count checks and, traced, its layer metrics."""
    if tracer is not None:
        tracer.reset()
    # a traced pass reads plain wall time: its figures have no bound
    with RefClock(None if tracer else SAMPLE_PERIOD_S) as clock:
        res = run_pass(entries, order_seed, clock)
    res["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    res["problems"] = check_pins(workload, res, tracer)
    if tracer is not None:
        wall = res["raw_wall"]
        layers = tracer.layer_metrics(theorem_ids(), wall)
        gap = layers["trace.gap_s"][0]
        if not -1e-9 <= gap <= 0.05 * wall:
            res["problems"].append(f"spans leave {gap:.6f} s of {wall:.6f} s untraced")
        res["layers"] = layers
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", help="name of a file in golden/, without .json")
    ap.add_argument("--order-seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)
    if args.probe:
        print(json.dumps({"ready": READY}))
        return 0
    entries = load_golden(args.workload)
    tracer = None
    if args.trace:
        from spans import Tracer, install
        tracer = Tracer()
        install(tracer)
    res = measure_pass(args.workload, entries, args.order_seed, tracer)
    res["ready"] = READY
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
