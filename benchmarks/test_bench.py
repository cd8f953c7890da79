"""Self-tests of the benchmark (not part of the tier-1 suite).

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import copy
import json
import re
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gate  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class TestSelfTime:
    def test_union_length(self):
        assert tracing.union_length([]) == 0.0
        assert tracing.union_length([(0, 2), (1, 3), (5, 6), (6, 6)]) == 4.0
        assert tracing.union_length([(4, 5), (0, 10)]) == 10.0

    def test_synthetic_span_tree(self):
        S = tracing.Span
        spans = [
            S("root", None, 0.0, 10.0),
            S("a", 0, 1.0, 4.0),
            S("b", 0, 3.0, 6.0),  # overlaps a: the union counts once
            S("a.child", 1, 2.0, 3.0),
            S("late", 0, 9.0, 12.0),  # runs past its parent: clipped
        ]
        assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0]

    def test_tracer_records_nesting_and_failure(self):
        ticks = iter(range(100))
        tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
        mod = types.ModuleType("fake")

        def inner(x):
            if x < 0:
                raise ValueError(x)
            return x

        mod.inner = inner
        mod.outer = lambda x: mod.inner(x) + mod.inner(x)
        outer = mod.outer
        tracer.wrap(mod, "inner", "mod.inner")
        tracer.wrap(mod, "outer", "mod.outer", hook=lambda t, a, k, r: t.count("outs", r))
        assert mod.outer(2) == 4
        with pytest.raises(ValueError):
            mod.inner(-1)
        tracer.restore()
        names = [(s.name, s.parent, s.ok) for s in tracer.spans]
        assert names == [
            ("mod.outer", None, True),
            ("mod.inner", 0, True),
            ("mod.inner", 0, True),
            ("mod.inner", None, False),
        ]
        assert tracing.self_times(tracer.spans)[0] == 5.0 - 2.0
        assert tracer.counts == {"outs": 4}
        assert mod.inner is inner and mod.outer is outer


def test_traced_run_restores_every_attribute(tmp_path):
    import dataclasses

    import kslab.cli
    import kslab.thresholds
    from kslab.params import Parameters

    config = tmp_path / "tiny.cfg"
    config.write_text(
        "[params]\nd1 = 1\nd2 = 1\nchi = 1\nalpha = 1\nbeta = 1\nkappa = 1\n"
        "mu = 9.2921\nn = 3\n[grid]\ndim = 3\nextents = 1 1 1\ncells = 6 6 6\n"
        "[solver]\ndt_initial = 0.01\nt_end = 0.04\nsnapshot_stride = 2\n"
        f"[ic]\nkind = gaussian-bump\namplitude = 2\n[scenario]\nname = boundedness\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    before = tracing.originals()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert tracing.originals() != before
        assert kslab.cli.cli(["simulate", "--config", str(config)]) == 0
        p = Parameters(d1=1, d2=1, chi=1, alpha=1, beta=1, kappa=1, mu=1, n=4)
        kslab.thresholds.report(dataclasses.replace(p, mu=30.0))
    finally:
        tracer.restore()
    after = tracing.originals()
    assert all(after[name] is before[name] for name in before)
    seen = {s.name for s in tracer.spans}
    assert {"cli.cli", "harness.run_scenario", "solver.step", "diagnostics.sample",
            "thresholds.report", "thresholds.minimize_h"} <= seen
    m = tracing.layer_metrics(tracer, wall=max(s.end for s in tracer.spans) - tracer.spans[0].start)
    assert m["solver.step.calls"] == 4 and m["solver.step.ns_per_cell_step"] > 0
    assert 0.95 <= m["trace.coverage_frac"] <= 1.0 + 1e-9


def _simulate_results(k):
    return {"entries": [k], "nonfinite": [], **copy.deepcopy(REFERENCE["simulate-3d"][k]["expect"])}


def _threshold_results(entries):
    sets = []
    for k in entries:
        want = REFERENCE["thresholds-45d"][k]["expect"]
        sets.append(
            {"mu0": [want["mu0"]] * 4, "found": list(want["found"]),
             "verified": list(want["found"]), "floor": want["floor"], "nonfinite": []}
        )
    return {"entries": entries, "sets": sets}


def _failures(workload, results, pool):
    return [f for _, fs in gate.check(workload, results, pool) for f in fs]


class TestGate:
    def test_reference_passes_itself(self):
        assert not _failures("simulate-3d", _simulate_results(2), REFERENCE["simulate-3d"])
        entries = gate.choose("thresholds-45d", 7, REFERENCE["thresholds-45d"])
        assert not _failures("thresholds-45d", _threshold_results(entries), REFERENCE["thresholds-45d"])

    @pytest.mark.parametrize(
        "key, value",
        [("final_mass", lambda x: x * (1 + 1e-6)), ("steps", lambda x: x + 1),
         ("z3", lambda x: x * (1 - 1e-6)), ("rows", lambda x: x - 1),
         ("verdict", lambda x: "fail")],
    )
    def test_perturbed_simulate_reference_fails(self, key, value):
        pool = copy.deepcopy(REFERENCE["simulate-3d"])
        pool[2]["expect"][key] = value(pool[2]["expect"][key])
        assert _failures("simulate-3d", _simulate_results(2), pool)

    def test_nonfinite_output_fails(self):
        results = _simulate_results(2)
        results["final_mass"] = float("nan")
        assert _failures("simulate-3d", results, REFERENCE["simulate-3d"])

    def test_perturbed_sweep_reference_fails(self):
        pool = copy.deepcopy(REFERENCE["sweep-2d-dense"])
        want = pool[1]["expect"]
        results = {"entries": [1], "exit_code": 0, "cells": 1024,
                   "points": [dict(p, nonfinite=[]) for p in copy.deepcopy(want["points"])]}
        assert not _failures("sweep-2d-dense", results, pool)
        want["points"][3]["fit_rate"] *= 1 + 1e-4
        assert len(_failures("sweep-2d-dense", results, pool)) == 1

    def test_threshold_rules(self):
        pool = copy.deepcopy(REFERENCE["thresholds-45d"])
        k = next(i for i, e in enumerate(pool) if e["expect"]["found"][3])
        results = _threshold_results([k])
        pool[k]["expect"]["floor"] *= 1 + 1e-3  # perturbed floor
        assert _failures("thresholds-45d", results, pool)
        pool = copy.deepcopy(REFERENCE["thresholds-45d"])
        results["sets"][0]["found"][3] = False  # refuses what the reference found
        assert _failures("thresholds-45d", results, pool)
        results = _threshold_results([k])
        results["sets"][0]["verified"][3] = False
        assert _failures("thresholds-45d", results, pool)
        results = _threshold_results([k])
        results["sets"][0]["found"][0] = results["sets"][0]["verified"][0] = True
        assert any("floor" in f for f in _failures("thresholds-45d", results, pool))


def test_seed_choice_is_deterministic():
    for workload in ("simulate-3d", "sweep-2d-dense", "thresholds-45d"):
        pool = REFERENCE[workload]
        chosen = gate.choose(workload, 5, pool)
        assert chosen == gate.choose(workload, 5, pool)
        assert len(chosen) == len(set(chosen)) and all(0 <= k < len(pool) for k in chosen)
    floors = gate.choose("thresholds-45d", 5, REFERENCE["thresholds-45d"])[: gate.FLOOR_SETS]
    assert floors == gate.choose("thresholds-45d", 6, REFERENCE["thresholds-45d"])[: gate.FLOOR_SETS]


def test_metric_names():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    produced = set(tracing.layer_metrics(tracing.Tracer(), wall=1.0))
    produced |= {"thresholds.selection_gap_count", "trace.overhead_frac"}
    assert produced == {m["name"] for m in SPEC["per_layer"]}
