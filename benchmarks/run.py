"""Benchmark of kslab: three workloads, end-to-end metrics, a traced run.

Run from the repository root:

    python3 benchmarks/run.py --workload simulate-3d --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py): simulate-3d, sweep-2d-dense, thresholds-45d.
Each operation runs in a fresh interpreter (worker.py), one after another,
with one BLAS/OpenMP thread, KSLAB_WORKERS unset, kslab imported from src/
of this checkout and outputs in a temporary directory under .bench_tmp/.
Operations start until the next one would end after --seconds (at least one;
two in a traced run).

--trace 0 prints the end-to-end metrics, measured with tracing off:
  wall_s       median wall time of one operation
  setup_s      median time from starting an interpreter to "ready"
  peak_rss_mb  median peak resident memory of the worker process
and, as information, ops_failed_frac and cell_steps_per_s.
--trace 1 alternates traced and untraced operations and prints the
per-layer metrics: medians over the traced operations, plus
trace.overhead_frac from the two kinds' median wall times.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 1 means an operation failed the
correctness gate (gate.py); exit code 2 means the benchmark could not run,
and then no result is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402

WORKLOADS = ("simulate-3d", "sweep-2d-dense", "thresholds-45d")
HARD_LIMIT_S = 165.0  # the whole run ends well inside 180 s
MIN_SETUPS = 7  # set-up samples per untraced run; set-up-only workers top up


class BenchmarkError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "KSLAB_WORKERS"}
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def run_worker(workload: str, seed: int, out: Path, mode: str, deadline: float) -> dict:
    """Start one worker and wait for it; returns its record plus setup_s."""
    spawned = time.monotonic()
    timeout = deadline - spawned
    if timeout <= 0:
        return {"error": "time budget exhausted", "results": None}
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(out), mode]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker killed after {timeout:.0f} s", "results": None}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    elapsed = time.monotonic() - spawned
    if proc.returncode == 3:
        raise BenchmarkError(f"worker set-up failed:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"error": f"worker exit {proc.returncode}: " + " | ".join(tail), "results": None}
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready"] - spawned
    record["elapsed"] = elapsed
    record["mode"] = mode
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp: Path):
    """Operation records and set-up-only records of one run."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    ops, setups = [], []
    while True:
        mode = "traced" if trace and len(ops) % 2 == 0 else "plain"
        rec = run_worker(workload, seed, tmp / f"op{len(ops)}", mode, deadline)
        ops.append(rec)
        if "elapsed" not in rec:
            break
        typical = statistics.median(r["elapsed"] for r in ops if "elapsed" in r)
        if len(ops) >= (2 if trace else 1) and time.monotonic() - start + typical > seconds:
            break
    while not trace and len(ops) + len(setups) < MIN_SETUPS:
        rec = run_worker(workload, seed, tmp / f"setup{len(setups)}", "setup", deadline)
        if "setup_s" not in rec:
            break
        setups.append(rec)
    return ops, setups


def machine(versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), **versions}


def highest_percentile(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(values)[math.ceil(p / 100 * n) - 1]


def cell_steps(results: dict) -> int:
    if "steps" in results:
        return results["steps"] * results["cells"]
    # one diagnostics row per step plus the initial one
    return sum(p["rows"] - 1 for p in results.get("points", [])) * results.get("cells", 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kslab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        return report(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


def report(args) -> int:
    if not (ROOT / "src" / "kslab" / "__init__.py").is_file():
        raise BenchmarkError(f"no kslab sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pool = json.loads((HERE / "reference.json").read_text())[args.workload]
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        ops, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    done = [r for r in ops if "wall" in r]
    if not done:
        raise BenchmarkError("no operation completed: " + str(ops[0].get("error")))

    attempted = failed = 0
    problems = []
    for rec in ops:
        if rec.get("restored") is False:
            raise BenchmarkError("a traced attribute of kslab was not restored")
        n = gate.op_count(args.workload)
        attempted += n
        if rec.get("results") is None:
            failed += n
            problems.append(f"operation did not complete: {rec.get('error')}")
            continue
        for label, failures in gate.check(args.workload, rec["results"], pool):
            if failures:
                failed += 1
                problems.append(f"{label}: " + "; ".join(failures))

    print(
        f"kslab benchmark: workload={args.workload} seed={args.seed} "
        f"trace={args.trace} seconds={args.seconds:g}"
    )
    print("machine: " + json.dumps(machine(done[0]["versions"])))
    print(f"pool entries: {done[0]['results']['entries'] if done[0]['results'] else '?'}")
    print(f"workers: {len(ops)} operations, {len(setups)} set-up only")

    if args.trace:
        metrics = per_layer(done, pool, args.workload)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end(done, setups)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(metrics) != set(units):
        raise BenchmarkError(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    for name, value in metrics.items():
        print(f"{name:40s} {value!r} {units[name]}")
    print(f"{'ops_failed_frac':40s} {failed / attempted!r} ratio ({failed} of {attempted})")
    if not args.trace:
        walls = [r["wall"] for r in done]
        top = highest_percentile(walls)
        print(
            f"{'wall_s samples':40s} n={len(walls)}: " + " ".join(f"{w:.4f}" for w in walls)
            + (f"; p{top[0]}={top[1]!r}" if top else "; no percentile above p50 has 10 beyond it")
        )
        setup = [r["setup_s"] for r in done + setups]
        print(f"{'setup_s samples':40s} n={len(setup)}: " + " ".join(f"{s:.4f}" for s in setup))
        rates = [cell_steps(r["results"]) / r["wall"] for r in done if r["results"]]
        if rates and statistics.median(rates) > 0:
            print(f"{'cell_steps_per_s':40s} {statistics.median(rates)!r} cell-steps/s")
    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


def end_to_end(done, setups) -> dict:
    plain = [r for r in done if r["mode"] == "plain"]
    return {
        "wall_s": statistics.median(r["wall"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in plain + setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
    }


def per_layer(done, pool, workload) -> dict:
    traced = [r for r in done if r["mode"] == "traced"]
    plain = [r for r in done if r["mode"] == "plain"]
    if not traced or not plain:
        raise BenchmarkError("a traced run needs a traced and an untraced operation")
    names = traced[0]["layers"].keys()
    metrics = {n: statistics.median(r["layers"][n] for r in traced) for n in names}
    metrics["thresholds.selection_gap_count"] = statistics.median(
        gate.gap_count(r["results"], pool) if r["results"] and workload == "thresholds-45d" else 0
        for r in traced
    )
    metrics["trace.overhead_frac"] = (
        statistics.median(r["wall"] for r in traced) / statistics.median(r["wall"] for r in plain)
        - 1.0
    )
    return metrics


if __name__ == "__main__":
    sys.exit(main())
