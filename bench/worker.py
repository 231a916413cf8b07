"""One measured process of the benchmark; `run.py` starts it.

It imports `pentagon` from `<root>/src`, writes the workload's seeded
inputs, stamps the moment it is ready for its first timed operation, and
then runs passes over the workload's operations until `--seconds` have
gone by.  Its last stdout line is a JSON record of what it measured.
With `--probe` it stops at the ready stamp, which is how `run.py` takes
several set-up samples in one run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time

import spans
import workloads


def _cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop: how fast this machine runs now.

    Other tenants of a shared host change how fast the same code runs from
    one second to the next; run.py scales each operation's times by the
    readings taken just before and after it.
    """
    start = time.perf_counter()
    table = [(i % 7, i % 5) for i in range(64)]
    seen, acc = {}, 0
    for i in range(30000):
        a, b = table[i & 63]
        acc += a * b
        seen[i & 255] = acc
    return time.perf_counter() - start


def reference_median() -> float:
    return statistics.median(reference_seconds() for _ in range(3))


# Least time between two reference readings inside a pass.  Readings cost
# about 5% of a pass; sparser ones follow the host's speed less closely.
REFERENCE_EVERY_S = 0.1


def _read_after(timings: list[list[float]], readings: list[float]) -> None:
    """Take a reading; pair each timing with the mean of the readings around it."""
    readings.append(reference_seconds())
    for timing in timings:
        timing[2] = (timing[2] + readings[-1]) / 2


def _execute(pentagon, op) -> tuple[int, dict | None, float]:
    """Run one operation; returns (exit code, results, seconds)."""
    if op.call is not None:
        start = time.perf_counter()
        results = op.call(pentagon)
        return 0, results, time.perf_counter() - start
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = pentagon.cli.run(["--json"] + op.argv)  # looked up per call: tracing rebinds it
        seconds = time.perf_counter() - start
    try:
        results = json.loads(out.getvalue().splitlines()[-1])["results"]
    except (IndexError, ValueError, KeyError, TypeError):
        results = None
    return code, results, seconds


def _min_passes(ops_per_pass: int, percentile: float) -> int:
    """Passes needed for ten operations beyond the tail percentile."""
    return math.ceil(10 / (ops_per_pass * (1 - percentile / 100)))


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--passes", type=int, help="exact pass count; overrides --seconds")
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="expect a wrong exit code from the first operation")
    ap.add_argument("--out", required=True, help="directory for inputs and spans")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    import pentagon
    import pentagon.cli

    input_dir = os.path.join(args.out, f"inputs-{os.getpid()}")
    os.makedirs(input_dir)
    try:
        workload = workloads.build(args.workload, args.seed, input_dir)
        ready = time.monotonic()
        if args.probe:
            print(json.dumps({"ready": ready, "reference_s": reference_median()}))
            return 0
        record = _measure(pentagon, workload, args)
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)
    record["ready"] = ready
    record["pentagon_file"] = pentagon.__file__
    print(json.dumps(record))
    return 0


def _measure(pentagon, workload, args) -> dict:
    if args.corrupt_expected:
        workload.ops[0].code = 99
    order_rng = random.Random(f"{workload.name}:{args.seed}:order")
    percentile = workloads.TAIL_PERCENTILE[workload.name]
    if args.passes is not None:
        min_passes, seconds = args.passes, 0.0
    elif args.trace:
        min_passes, seconds = 4, args.seconds
    else:
        min_passes, seconds = _min_passes(len(workload.ops), percentile), args.seconds

    tracer = spans.Tracer() if args.trace else None
    passes, failures, layer_rows = [], [], []
    attempted = failed = 0
    origin = time.perf_counter()
    first_reference = reference_median()
    while len(passes) < min_passes or time.perf_counter() - origin < seconds:
        # a traced run alternates untraced and traced passes
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.pass_index = len(passes)
            tracer.install()
        outcomes, timings, readings = [], [], [reference_seconds()]
        last_reading = time.perf_counter()
        unpaired = 0  # first operation still waiting for the reading after it
        for op in workload.pass_order(order_rng):
            if traced:
                tracer.op = attempted + len(outcomes)
            cpu0 = _cpu_seconds()
            code, results, op_seconds = _execute(pentagon, op)
            timings.append([op_seconds, _cpu_seconds() - cpu0, readings[-1]])
            outcomes.append((op, code, results))
            if time.perf_counter() - last_reading >= REFERENCE_EVERY_S:
                _read_after(timings[unpaired:], readings)
                unpaired, last_reading = len(timings), time.perf_counter()
        if unpaired < len(timings):
            _read_after(timings[unpaired:], readings)
        if traced:
            tracer.uninstall()
            tracer.op = None
            layer_rows.append((len(passes), tracer.pass_metrics(tracer.pass_index)))
        for op, code, results in outcomes:
            attempted += 1
            problem = op.verdict(code, results)
            if problem:
                failed += 1
                if len(failures) < 10:
                    failures.append(problem)
        passes.append({"traced": traced, "reference_s": statistics.median(readings),
                       "ops": timings})

    record = {
        "passes": passes,
        "reference_s": first_reference,
        "tail_percentile": percentile,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record["layer_rows"] = layer_rows
        path = os.path.join(args.out, f"spans-{workload.name}-seed{args.seed}.jsonl")
        tracer.write(path, origin)
        record["spans_file"] = path
        record["spans"] = len(tracer.spans)
    return record


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
