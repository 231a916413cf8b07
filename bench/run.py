"""Benchmark of the `pentagon` package: three workloads driven through
`pentagon.cli.run`, end-to-end metrics from untraced runs and a per-layer
breakdown from a traced run.

    python3 bench/run.py --workload enum-search --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --smoke

Run it from the repository root.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; `--trace 0` reports
the end-to-end metrics of BENCHMARK.json and `--trace 1` its per-layer
metrics.  A full record of the run (machine, seed, sample counts, notes)
goes to `.bench_out/<workload>-seed<seed>-trace<t>.json`.  See
bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from worker import reference_median
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

# Set-up is sampled by SETUP_PROBES fresh processes that stop when ready,
# plus the measured process itself; one unmeasured probe runs first so that
# byte-code caches are written before any sample is taken.
SETUP_PROBES = 8

# A run must end within 180 s; workers still running at this point are killed.
RUN_DEADLINE_S = 170

# Nominal time of worker.reference_seconds(), about its median on a 2-CPU
# Xeon host.  Other tenants of a shared host make the same code run up to a
# third slower, from one second to the next and for minutes at a time;
# scaling each time by REFERENCE_S / (reference time measured next to it)
# cancels most of that, so runs at different moments compare.  The unscaled
# wall_s and setup_s stay in the record.
REFERENCE_S = 0.005

WORKERS_NOTE = (
    "enumerate --workers 2 runs its search in forked pool workers; only the "
    "parent-side enumerate_pruned span is attributed, nothing inside the workers"
)


class BenchError(RuntimeError):
    pass


def _spawn(root: str, out_dir: str, workload: str, seed: int, extra: list[str],
           deadline: float) -> dict:
    """Start a worker; returns its JSON record with `setup_s`, the time from
    its start to its ready stamp, and `setup_reference_s`, the mean of the
    reference readings taken just before the start and just after the stamp."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--out", out_dir, "--workload", workload, "--seed", str(seed)] + extra
    reference = reference_median()
    started = time.monotonic()
    timeout = max(1.0, deadline - started)
    # its own session, so that killing the group also ends any pool processes
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=root, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {workload} did not finish within {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            shutil.rmtree(os.path.join(out_dir, f"inputs-{proc.pid}"), ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited {proc.returncode}:\n{stderr}")
    rec = json.loads(stdout.splitlines()[-1])
    rec["setup_s"] = rec["ready"] - started
    rec["setup_reference_s"] = (reference + rec["reference_s"]) / 2
    return rec


def _percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile, and how many values lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100))
    return ordered[rank - 1], len(ordered) - rank


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def measure(root: str, spec: dict, workload: str, seed: int, seconds: float, trace: int,
            passes: int | None = None, probes: int = SETUP_PROBES,
            corrupt: bool = False) -> dict:
    """One benchmark run; returns the full record including `metrics`.

    Every time is scaled to the reference speed: multiplied by
    REFERENCE_S / (the reference loop's time measured around it).
    """
    deadline = time.monotonic() + RUN_DEADLINE_S
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    setups = []
    for i in range(probes + 1):
        rec = _spawn(root, out_dir, workload, seed, ["--probe"], deadline)
        if i:
            setups.append((rec["setup_s"], rec["setup_reference_s"]))
    extra = ["--seconds", str(seconds), "--trace", str(trace)]
    if passes is not None:
        extra += ["--passes", str(passes)]
    if corrupt:
        extra.append("--corrupt-expected")
    rec = _spawn(root, out_dir, workload, seed, extra, deadline)
    setups.append((rec["setup_s"], rec["setup_reference_s"]))

    expected_file = os.path.join(root, "src", "pentagon", "__init__.py")
    if os.path.realpath(rec["pentagon_file"]) != os.path.realpath(expected_file):
        raise BenchError(f"imported pentagon from {rec['pentagon_file']}, not this checkout")

    # scaled (wall, cpu) per operation, and per pass their sums
    passes = rec["passes"]
    scaled = [[(t * REFERENCE_S / ref, c * REFERENCE_S / ref) for t, c, ref in p["ops"]]
              for p in passes]
    plain = [i for i, p in enumerate(passes) if not p["traced"]]
    traced = [i for i, p in enumerate(passes) if p["traced"]]

    def pass_median(column: int, which: list[int]) -> float:
        return statistics.median(sum(op[column] for op in scaled[i]) for i in which)

    notes = []
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {}
        for name in rec["layer_rows"][0][1]:
            power = {"s": 1, "1/s": -1}.get(units.get(name), 0)
            value = statistics.median(row[name] * (REFERENCE_S / passes[i]["reference_s"]) ** power
                                      for i, row in rec["layer_rows"])
            metrics[name] = {"value": value, "samples": len(traced)}
        metrics["trace.overhead_s"] = {
            "value": pass_median(0, traced) - pass_median(0, plain),
            "samples": len(passes),
        }
        if workload == "enum-search":
            notes.append(WORKERS_NOTE)
        notes.append(f"spans: {rec['spans']} in {os.path.relpath(rec['spans_file'], root)}")
    else:
        lat = [op[0] * 1000.0 for i in plain for op in scaled[i]]
        p = rec["tail_percentile"]
        tail, beyond = _percentile(lat, p)
        metrics = {
            "wall_s": {"value": pass_median(0, plain), "samples": len(plain), "ops": len(lat),
                       "unscaled": statistics.median(
                           sum(op[0] for op in passes[i]["ops"]) for i in plain)},
            "cpu_s": {"value": pass_median(1, plain), "samples": len(plain), "ops": len(lat)},
            "op_p50_ms": {"value": statistics.median(lat), "samples": len(lat)},
            "op_tail_ms": {"value": tail, "samples": len(lat),
                           "percentile": p, "ops_beyond": beyond},
            "setup_s": {"value": statistics.median(t * REFERENCE_S / ref for t, ref in setups),
                        "samples": len(setups),
                        "unscaled": statistics.median(t for t, _ in setups)},
            "peak_rss_mib": {"value": rec["maxrss_kib"] / 1024.0, "samples": 1},
        }
        if beyond < 10:
            notes.append(f"op_tail_ms: only {beyond} operations beyond p{p}")
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "machine": machine(),
        "commit": git_commit(root),
        "reference_s": {"nominal": REFERENCE_S,
                        "measured_median": statistics.median(p["reference_s"] for p in passes)},
        "passes": len(passes),
        "pass_log": passes,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "fail_ratio": rec["failed"] / rec["attempted"],
        "failures": rec["failures"],
        "metrics": metrics,
        "notes": notes,
    }


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def final_line(record: dict, spec: dict) -> dict:
    """The contract's last line: declared metrics only, with their units."""
    kind = "per_layer" if record["trace"] else "end_to_end"
    metrics = {}
    for m in spec[kind]:
        if m["name"] not in record["metrics"]:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": record["metrics"][m["name"]]["value"], "unit": m["unit"]}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def report(record: dict, root: str) -> None:
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path = os.path.join(root, ".bench_out", name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    m = record["machine"]
    print(f"# {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['passes']} passes, {record['attempted']} operations, "
          f"fail_ratio {record['fail_ratio']:.4g}")
    print(f"# machine: {m['nproc']} CPUs, {m['cpu_model']}, Python {m['python']}, "
          f"commit {record['commit']}")
    for name, entry in record["metrics"].items():
        extra = ", ".join(f"{k} {v}" for k, v in entry.items() if k != "value")
        print(f"#   {name} = {entry['value']:.6g} ({extra})")
    for problem in record["failures"]:
        print(f"# FAIL {problem}")
    for note in record["notes"]:
        print(f"# note: {note}")
    print(f"# full record: {os.path.relpath(path, root)}")


def smoke(root: str) -> int:
    """One pass per workload and mode; every declared metric must appear, and
    a deliberately wrong expectation must count as a failure."""
    spec = load_spec(root)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            record = measure(root, spec, workload, 1, 0, trace, passes=1 + trace, probes=1)
            line = final_line(record, spec)
            if not all(math.isfinite(m["value"]) for m in line["metrics"].values()):
                problems.append(f"{workload} trace {trace}: a metric is not a finite number")
            if not line["correct"]:
                problems.append(f"{workload} trace {trace}: {record['failures']}")
            print(f"smoke {workload} trace {trace}: {len(line['metrics'])} metrics, "
                  f"{line['attempted']} operations, {line['failed']} failed")
    record = measure(root, spec, "verify-classify", 1, 0, 0, passes=1, probes=1, corrupt=True)
    if not record["fail_ratio"] > 0:
        problems.append("a wrong expected value did not raise fail_ratio above 0")
    print(f"smoke corrupted expectation: fail_ratio {record['fail_ratio']:.4g}")
    for problem in problems:
        print(f"smoke FAIL {problem}")
    print("smoke ok" if not problems else "smoke failed")
    return 0 if not problems else 1


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="fast self-check of the benchmark")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pentagon", "__init__.py")):
        print("error: run from the repository root; src/pentagon is missing", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke(root)
        if args.workload is None:
            ap.error("--workload is required")
        spec = load_spec(root)
        record = measure(root, spec, args.workload, args.seed, args.seconds, args.trace)
        line = final_line(record, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(record, root)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
