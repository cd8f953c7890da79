"""Span tracing for the benchmark's traced runs.

The tracer wraps public attributes of kslab's layer modules from outside the
package: every call through a wrapped attribute records a span (name, parent
span, start, end, whether it returned) and, through an optional hook, counts
of the work it did.  Nothing under src/ knows about it, and ``restore`` puts
every original attribute back.

Layers are the modules cli, harness, solver, diagnostics and thresholds;
params holds only value objects, so its cost shows up in its callers.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

LAYERS = ("cli", "harness", "solver", "diagnostics", "thresholds")


@dataclass
class Span:
    name: str
    parent: Optional[int]  # index into Tracer.spans; None for a root span
    start: float
    end: float = 0.0
    ok: bool = True


Hook = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """Records spans in memory; callers read them after the traced call."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._clock = clock

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, owner, attr: str, span_name: str, hook: Optional[Hook] = None):
        """Replace ``owner.attr`` (a module or class attribute) by a traced
        wrapper.  The hook runs after the span closes, on the call's result."""
        original = vars(owner)[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(span_name, parent, self._clock())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = self._clock()
                self._stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    run_start = run_end = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if run_end is None or lo > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = lo, hi
        else:
            run_end = max(run_end, hi)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: List[List[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered = union_length(
            [
                (max(spans[c].start, span.start), min(spans[c].end, span.end))
                for c in children[index]
            ]
        )
        out.append((span.end - span.start) - covered)
    return out


# ---------------------------------------------------------------------------
# What the traced run wraps in kslab
# ---------------------------------------------------------------------------


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_step(tracer, args, kwargs, result):
    tracer.count("solver.step.cells", _arg(args, kwargs, 0, "state").u.size)


def _count_run(tracer, args, kwargs, result):
    tracer.count("solver.clamps", result.clamp_total)


def _count_snapshot(tracer, args, kwargs, result):
    tracer.count("solver.snapshot_bytes", sum(os.path.getsize(p) for p in result))


def _count_sample(tracer, args, kwargs, result):
    # args[0] is the DiagnosticsSeries itself
    tracer.count("diagnostics.sample.cells", _arg(args, kwargs, 1, "state").u.size)


def _count_csv(tracer, args, kwargs, result):
    tracer.count("diagnostics.csv_rows", len(args[0].times))


# (module, class or None, attribute, span name, hook)
TARGETS = (
    ("kslab.cli", None, "cli", "cli.cli", None),
    ("kslab.harness", None, "parse_config", "harness.parse_config", None),
    ("kslab.harness", None, "run_scenario", "harness.run_scenario", None),
    ("kslab.harness", None, "run_sweep", "harness.run_sweep", None),
    ("kslab.solver", None, "run", "solver.run", _count_run),
    ("kslab.solver", None, "step", "solver.step", _count_step),
    ("kslab.solver", None, "compute_dt", "solver.compute_dt", None),
    ("kslab.solver", None, "write_snapshot", "solver.write_snapshot", _count_snapshot),
    ("kslab.diagnostics", "DiagnosticsSeries", "sample", "diagnostics.sample", _count_sample),
    ("kslab.diagnostics", "DiagnosticsSeries", "to_csv", "diagnostics.to_csv", _count_csv),
    ("kslab.thresholds", None, "report", "thresholds.report", None),
    ("kslab.thresholds", None, "select_coefficients_45d", "thresholds.select_coefficients_45d", None),
    ("kslab.thresholds", None, "minimize_h", "thresholds.minimize_h", None),
    ("kslab.thresholds", None, "feasibility_floor_45d", "thresholds.feasibility_floor_45d", None),
)


def _owner(module: str, cls: Optional[str]):
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)


def install(tracer: Tracer) -> None:
    for module, cls, attr, name, hook in TARGETS:
        tracer.wrap(_owner(module, cls), attr, name, hook)


def originals() -> Dict[str, object]:
    """The current object behind every wrapped attribute, by span name."""
    return {
        name: vars(_owner(module, cls))[attr]
        for module, cls, attr, name, _ in TARGETS
    }


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced operation
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer, wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced operation that took ``wall`` seconds.

    Rates whose base is zero (no calls of that kind) read 0.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    calls: Dict[str, int] = {}
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    ok: Dict[str, int] = {}
    durations: Dict[str, List[float]] = {}
    for span, self_s in zip(spans, selfs):
        duration = span.end - span.start
        calls[span.name] = calls.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0.0) + duration
        own[span.name] = own.get(span.name, 0.0) + self_s
        ok[span.name] = ok.get(span.name, 0) + int(span.ok)
        durations.setdefault(span.name, []).append(duration)
    counts = tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    step_cells = counts.get("solver.step.cells", 0)
    sample_cells = counts.get("diagnostics.sample.cells", 0)
    rows = counts.get("diagnostics.csv_rows", 0)
    select = "thresholds.select_coefficients_45d"
    reports = durations.get("thresholds.report", [])
    m = {
        "solver.run.s": total.get("solver.run", 0.0),
        "solver.step.calls": calls.get("solver.step", 0),
        "solver.step.self_s": own.get("solver.step", 0.0),
        "solver.step.ns_per_cell_step": ratio(own.get("solver.step", 0.0) * 1e9, step_cells),
        "solver.compute_dt.s": total.get("solver.compute_dt", 0.0),
        "solver.write_snapshot.s": total.get("solver.write_snapshot", 0.0),
        "solver.snapshot_bytes": counts.get("solver.snapshot_bytes", 0),
        "solver.clamps": counts.get("solver.clamps", 0),
        "diagnostics.sample.calls": calls.get("diagnostics.sample", 0),
        "diagnostics.sample.s": total.get("diagnostics.sample", 0.0),
        "diagnostics.sample.ns_per_cell": ratio(total.get("diagnostics.sample", 0.0) * 1e9, sample_cells),
        "diagnostics.to_csv.s": total.get("diagnostics.to_csv", 0.0),
        "diagnostics.csv_rows": rows,
        "diagnostics.to_csv.us_per_row": ratio(total.get("diagnostics.to_csv", 0.0) * 1e6, rows),
        "thresholds.report.calls": calls.get("thresholds.report", 0),
        "thresholds.report.ms_p50": statistics.median(reports) * 1e3 if reports else 0.0,
        "thresholds.select_coefficients_45d.s": total.get(select, 0.0),
        "thresholds.minimize_h.calls": calls.get("thresholds.minimize_h", 0),
        "thresholds.minimize_h.s": total.get("thresholds.minimize_h", 0.0),
        "thresholds.feasibility_floor_45d.calls": calls.get("thresholds.feasibility_floor_45d", 0),
        "thresholds.feasibility_floor_45d.s": total.get("thresholds.feasibility_floor_45d", 0.0),
        "thresholds.selection_found_ratio": ratio(ok.get(select, 0), calls.get(select, 0)),
        "harness.parse_config.s": total.get("harness.parse_config", 0.0),
        "harness.run_scenario.self_s": own.get("harness.run_scenario", 0.0),
        "harness.run_sweep.self_s": own.get("harness.run_sweep", 0.0),
        "cli.cli.self_s": own.get("cli.cli", 0.0),
    }
    for layer in LAYERS:
        layer_self = sum(s for name, s in own.items() if name.split(".")[0] == layer)
        m[f"{layer}.self_share"] = ratio(layer_self, wall)
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    m["trace.coverage_frac"] = ratio(union_length(roots), wall)
    return m
