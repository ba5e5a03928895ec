"""Fast self-test of the benchmark, in one process (a few seconds).

    python3 perfbench/selftest.py

Runs one gallery pass and one ``verify --max-n 5`` pass untraced, then
both traced, and prints every end-to-end and per-layer metric named in
BENCHMARK.json with its unit. Fails (exit 1) when a named metric is
missing or unnamed, when a traced report differs from the untraced one,
when the gallery fails on other commands than the known crashes its
golden file records, or when a deliberately altered ``verify`` report
line is not counted as a failure.
"""

from __future__ import annotations

import copy
import json
import time

import run
import worker
from spans import Tracer, install


def altered(entries):
    """The golden entries with one report line changed."""
    entries = copy.deepcopy(entries)
    lines = entries[0]["stdout"].splitlines(keepends=True)
    lines[0] = lines[0].replace(": ok ", ": FAIL (1 violations) ", 1)
    entries[0]["stdout"] = "".join(lines)
    return entries


def check_names(kind, metrics, spec, errors):
    """Print ``metrics`` and require exactly the names and units of ``spec``."""
    print(f"-- {kind}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>16.6f} {unit}")
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        wrong = sorted(set(want.items()) ^ set(got.items()))
        errors.append(f"{kind} metrics differ from BENCHMARK.json: {wrong}")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    errors = []
    gallery = worker.load_golden("gallery")
    small = worker.load_golden("verify-n5")
    known = sorted(" ".join(e["argv"]) + " (crash)" for e in gallery if "raised" in e)

    plain = [worker.measure_pass("gallery", gallery, order_seed=1),
             worker.measure_pass("verify-n5", small)]
    if sorted(plain[0]["failed"]) != known:
        errors.append(f"gallery failures {plain[0]['failed']} != known {known}")
    if plain[1]["failed"]:
        errors.append(f"verify --max-n 5 failed: {plain[1]['failed']}")
    bad = worker.measure_pass("verify-n5", altered(small))
    if len(bad["failed"]) != 1 or len(bad["mismatch"]) != 1:
        errors.append("an altered report line was not counted as a failure")

    tracer = Tracer()
    install(tracer)
    traced = [worker.measure_pass("gallery", gallery, order_seed=1, tracer=tracer),
              worker.measure_pass("verify-n5", small, tracer=tracer)]
    errors += run.problems_of(plain, traced)

    setup = [run.spawn("gallery", "--probe", end_by=time.perf_counter() + 60)["setup"]]
    check_names("end_to_end", run.end_to_end(plain, setup), spec, errors)
    check_names("per_layer", run.per_layer(plain, traced), spec, errors)
    for error in errors:
        print(f"FAIL: {error}")
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
