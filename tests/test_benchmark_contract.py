"""The benchmark's contract with the source: one operation of each workload,
prepared, executed and collected in process as the benchmark's worker does,
passes the benchmark's correctness gate.  The gate reads `steps` and
`clamp_total` from report.txt, the row count and the last `mass_u` and `z3`
of diagnostics.csv and the rows of summary.csv, so a change to those
outputs fails here first.  Every feasibility floor of the thresholds-45d pool
equals its reference bit for bit, where the gate compares two of them."""

import json
from pathlib import Path

import pytest

from kslab.params import Parameters
from kslab.thresholds import feasibility_floor_45d

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.mark.parametrize("workload", ["simulate-3d", "sweep-2d-dense", "thresholds-45d"])
def test_seed_1_passes_the_gate(workload, tmp_path, monkeypatch):
    monkeypatch.delenv("KSLAB_WORKERS", raising=False)
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import gate
    import workloads

    pool = json.loads((BENCHMARKS / "reference.json").read_text())[workload]
    inputs = workloads.prepare(workload, gate.choose(workload, 1, pool), pool, tmp_path)
    results = workloads.collect(workload, inputs, workloads.execute(workload, inputs))
    checked = gate.check(workload, results, pool)
    assert len(checked) == gate.op_count(workload)
    assert [(label, failures) for label, failures in checked if failures] == []


def test_every_pool_floor_equals_its_reference():
    pool = json.loads((BENCHMARKS / "reference.json").read_text())["thresholds-45d"]
    floors = [repr(feasibility_floor_45d(Parameters(**entry["input"]["params"])))
              for entry in pool]
    assert len(pool) == 48
    assert floors == [repr(entry["expect"]["floor"]) for entry in pool]
