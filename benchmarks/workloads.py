"""The three workloads, as run inside a fresh worker interpreter.

Every workload takes its inputs from a pool recorded in reference.json
together with the outputs the seed commit gave for them; the seed picks the
entries (gate.choose), so every seed's inputs have a reference.

  simulate-3d     ``kslab simulate`` on a 3-D 64^3 boundedness run (solver)
  sweep-2d-dense  ``kslab sweep`` over d1 on a 2-D 32^2 grid, a diagnostics
                  row per step (diagnostics)
  thresholds-45d  ``thresholds.report`` on a batch of n = 4, 5 parameter sets
                  at four multiples of mu0, and the certified floor of two
                  of them (thresholds)

Each workload has three phases: ``prepare`` (input generation and config
parse, counted as set-up), ``execute`` (the timed operation) and ``collect``
(reads the outputs back for the correctness gate; untimed).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import math
from pathlib import Path
from typing import Dict, Iterable, List

import kslab.cli
import kslab.harness
import kslab.thresholds
from kslab.params import Parameters

import gate

SIM_CELLS = 64
SWEEP_CELLS = 32
SWEEP_VALUES = "0.25,0.5,1,2"

# dt_initial is the binding step limit on every pool entry (the recorder
# checks it), so each entry does the same number of steps: 50 here and
# 1,000 per sweep point.
SIM_CONFIG = """\
[params]
d1 = 1.0
d2 = 1.0
chi = 1.0
alpha = 1.0
beta = 1.0
kappa = 1.0
mu = 9.2921
n = 3

[grid]
dim = 3
extents = 1 1 1
cells = {cells} {cells} {cells}

[solver]
dt_initial = 0.01
t_end = 0.5
snapshot_stride = 10

[ic]
kind = gaussian-bump
amplitude = {amplitude!r}
width = {width!r}

[scenario]
name = boundedness
output_dir = {out}
"""

SWEEP_CONFIG = """\
[params]
d1 = 1.0
d2 = 1.0
chi = 1.0
alpha = 1.0
beta = 1.0
kappa = 1.0
mu = 2.0
n = 2

[grid]
dim = 2
extents = 1 1
cells = {cells} {cells}

[solver]
dt_initial = 0.001
t_end = 1.0
snapshot_stride = 1

[ic]
kind = gaussian-bump
amplitude = {amplitude!r}
width = {width!r}

[scenario]
name = boundedness
output_dir = {out}
"""


def prepare(workload: str, entries: List[int], pool: List[dict], out: Path) -> dict:
    """Inputs from the chosen pool entries (gate.choose); counted as set-up."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "thresholds-45d":
        sets = []
        for rank, k in enumerate(entries):
            inp = pool[k]["input"]
            sets.append(
                {
                    "params": Parameters(**inp["params"]),
                    "mus": inp["mus"],
                    "floor": rank < gate.FLOOR_SETS,
                }
            )
        return {"entries": entries, "sets": sets}
    template, cells = (
        (SIM_CONFIG, SIM_CELLS) if workload == "simulate-3d" else (SWEEP_CONFIG, SWEEP_CELLS)
    )
    inp = pool[entries[0]]["input"]
    text = template.format(
        cells=cells, amplitude=inp["amplitude"], width=inp["width"], out=out / "run"
    )
    path = out / "run.cfg"
    path.write_text(text)
    cfg = kslab.harness.parse_config(text)
    return {"entries": entries, "config": str(path), "out": Path(cfg.output_dir)}


def execute(workload: str, inputs: dict):
    """The timed operation.  Calls go through module attributes so that a
    traced run sees them."""
    if workload == "thresholds-45d":
        th = kslab.thresholds
        reports, floors = [], []
        for s in inputs["sets"]:
            reports.append(
                [th.report(dataclasses.replace(s["params"], mu=mu)) for mu in s["mus"]]
            )
            floors.append(th.feasibility_floor_45d(s["params"]) if s["floor"] else None)
        return {"reports": reports, "floors": floors}
    if workload == "simulate-3d":
        argv = ["simulate", "--config", inputs["config"]]
    else:
        argv = ["sweep", "--config", inputs["config"], "--axis", "d1", "--values", SWEEP_VALUES]
    with contextlib.redirect_stdout(io.StringIO()):
        code = kslab.cli.cli(argv)
    return {"exit_code": code}


def _nonfinite(cells: Iterable) -> List[str]:
    """Names of numeric output cells that are NaN or infinite."""
    bad = []
    for name, text in cells:
        try:
            value = float(text)
        except (TypeError, ValueError):
            continue
        if not math.isfinite(value):
            bad.append(name)
    return bad


def _read_csv(path: Path) -> List[Dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _csv_cells(rows: List[Dict[str, str]], label: str):
    for i, row in enumerate(rows):
        for key, text in row.items():
            yield f"{label}[{i}].{key}", text


def _optional(text: str):
    return float(text) if text else None


def collect(workload: str, inputs: dict, raw) -> dict:
    """Read the operation's outputs back for the correctness gate."""
    if workload == "thresholds-45d":
        return _collect_thresholds(inputs, raw)
    out = inputs["out"]
    if workload == "simulate-3d":
        report = {}
        for line in (out / "report.txt").read_text().splitlines():
            key, _, value = line.partition(": ")
            report[key] = value
        rows = _read_csv(out / "diagnostics.csv")
        return {
            "entries": inputs["entries"],
            "exit_code": raw["exit_code"],
            "outcome": report.get("outcome"),
            "verdict": report.get("verdict"),
            "steps": int(report["steps"]),
            "clamps": int(report["clamp_total"]),
            "final_mass": float(rows[-1]["mass_u"]),
            "z3": _optional(rows[-1]["z3"]),
            "rows": len(rows),
            "cells": SIM_CELLS**3,
            "nonfinite": _nonfinite(report.items())
            + _nonfinite(_csv_cells(rows, "diagnostics")),
        }
    summary = _read_csv(out / "summary.csv")
    points = []
    for i, row in enumerate(summary):
        rows = _read_csv(out / f"point_{i:03d}" / "diagnostics.csv")
        points.append(
            {
                "value": float(row["value"]),
                "outcome": row["outcome"],
                "error": row["error"],
                "fit_model": row["fit_model"],
                "fit_rate": _optional(row["fit_rate"]),
                "rows": len(rows),
                "nonfinite": _nonfinite(row.items())
                + _nonfinite(_csv_cells(rows, "diagnostics")),
            }
        )
    return {
        "entries": inputs["entries"],
        "exit_code": raw["exit_code"],
        "points": points,
        "cells": SWEEP_CELLS**2,
    }


def _report_values(rep) -> Iterable:
    yield "mu0", rep.mu0
    yield "mu1", rep.mu1
    yield "gamma", rep.gamma
    yield "epsilon0", rep.epsilon0
    if rep.coeffs45 is not None:
        yield from dataclasses.asdict(rep.coeffs45).items()


def _collect_thresholds(inputs: dict, raw) -> dict:
    th = kslab.thresholds
    sets = []
    for s, reps, floor in zip(inputs["sets"], raw["reports"], raw["floors"]):
        verified = []
        for mu, rep in zip(s["mus"], reps):
            c = rep.coeffs45
            p = dataclasses.replace(s["params"], mu=mu)
            verified.append(c is not None and th.verify_system_45d(p, mu, c).passed)
        bad = [name for rep in reps for name in _nonfinite(_report_values(rep))]
        sets.append(
            {
                "mu0": [rep.mu0 for rep in reps],
                "found": [rep.coeffs45 is not None for rep in reps],
                "verified": verified,
                "floor": floor,
                "nonfinite": bad + _nonfinite([("floor", floor)]),
            }
        )
    return {"entries": inputs["entries"], "sets": sets}
