"""Write reference.json: the workloads' input pool and the outputs the
current code gives for it.

The pool's inputs are drawn from fixed generator seeds; the thresholds-45d
damping rates are placed at 1.2, 1.6, 1.9 and 2.5 times each set's mu0,
which spans both sides of the certified floor (about 1.75 mu0).  Run it only
at a commit whose outputs are to be the reference (about three minutes):

    python3 benchmarks/record_reference.py
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import kslab.thresholds as th  # noqa: E402
from kslab.params import Parameters  # noqa: E402

import workloads  # noqa: E402

POOL_SIZES = {"simulate-3d": 8, "sweep-2d-dense": 8, "thresholds-45d": 48}
MULTIPLIERS = (1.2, 1.6, 1.9, 2.5)


def draw_bump(workload: str, k: int) -> dict:
    rng = random.Random(f"{workload}:{k}")
    return {
        "amplitude": round(rng.uniform(1.8, 2.2), 6),
        "width": round(rng.uniform(0.09, 0.11), 6),
    }


def draw_params(k: int) -> dict:
    rng = random.Random(f"thresholds-45d:{k}")

    def log_uniform(lo, hi):
        return round(math.exp(rng.uniform(math.log(lo), math.log(hi))), 6)

    return {
        "d1": log_uniform(0.5, 2.0),
        "d2": log_uniform(0.5, 2.0),
        "chi": log_uniform(0.5, 2.0),
        "alpha": log_uniform(0.5, 2.0),
        "beta": log_uniform(0.5, 2.0),
        "kappa": round(rng.uniform(0.5, 1.5), 6),
        "mu": 1.0,
        "n": rng.choice((4, 5)),
    }


def record_field_runs(workload: str, tmp: Path) -> list:
    pool = [{"input": draw_bump(workload, k)} for k in range(POOL_SIZES[workload])]
    for k, entry in enumerate(pool):
        inputs = workloads.prepare(workload, [k], pool, tmp / f"{workload}-{k}")
        r = workloads.collect(workload, inputs, workloads.execute(workload, inputs))
        if workload == "simulate-3d":
            assert r["steps"] == 50 and r["verdict"] == "pass", r
            assert not r["nonfinite"], r["nonfinite"]
            keys = ("exit_code", "outcome", "verdict", "steps", "clamps", "final_mass", "z3", "rows")
            entry["expect"] = {key: r[key] for key in keys}
        else:
            for p in r["points"]:
                assert p["rows"] == 1001 and not p["error"] and not p["nonfinite"], p
            keys = ("value", "outcome", "error", "fit_model", "fit_rate", "rows")
            entry["expect"] = {
                "exit_code": r["exit_code"],
                "points": [{key: p[key] for key in keys} for p in r["points"]],
            }
        print(workload, k, entry, flush=True)
    return pool


def record_thresholds() -> list:
    pool = []
    for k in range(POOL_SIZES["thresholds-45d"]):
        params = draw_params(k)
        mu0, _ = th.mu0_general(Parameters(**params))
        pool.append({"input": {"params": params, "mus": [m * mu0 for m in MULTIPLIERS]}})
    inputs = workloads.prepare("thresholds-45d", list(range(len(pool))), pool, Path("."))
    for s in inputs["sets"]:
        s["floor"] = True
    r = workloads.collect("thresholds-45d", inputs, workloads.execute("thresholds-45d", inputs))
    for entry, got in zip(pool, r["sets"]):
        assert len(set(got["mu0"])) == 1 and not got["nonfinite"], got
        assert got["found"] == got["verified"], got
        mus = entry["input"]["mus"]
        assert not any(f and mu <= got["floor"] for f, mu in zip(got["found"], mus)), got
        entry["expect"] = {"mu0": got["mu0"][0], "floor": got["floor"], "found": got["found"]}
        print("thresholds-45d", entry, flush=True)
    return pool


def main() -> None:
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        reference = {
            "recorded_at": commit or "unknown",
            "simulate-3d": record_field_runs("simulate-3d", tmp),
            "sweep-2d-dense": record_field_runs("sweep-2d-dense", tmp),
            "thresholds-45d": record_thresholds(),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
