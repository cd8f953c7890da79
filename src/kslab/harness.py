"""Experiment configuration, scenario orchestration, and parameter sweeps.

Config files are flat key = value text under five [section] headers.  One
schema table (_SCHEMA) names every key with its converter; the keys are the
field names of Parameters, Grid, SolverConfig, ICSpec and ExperimentConfig,
whose defaults apply to unset keys.  The format round-trips bit-exactly and
unknown keys are hard errors.  Scenario runs write a line-oriented
report.txt, the diagnostics CSV, and raw field snapshots into the
configured output directory.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import diagnostics as diag
from . import solver as sv
from . import thresholds as th
from .params import Grid, Parameters, SourceFunction, validate

__all__ = [
    "ConfigError",
    "ICSpec",
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
    "ScenarioResult",
    "run_scenario",
    "run_sweep",
    "SCENARIOS",
    "EXIT_PASS",
    "EXIT_BLOWUP",
    "EXIT_CONFIG",
    "EXIT_AUDIT",
]

EXIT_PASS = 0
EXIT_BLOWUP = 2
EXIT_CONFIG = 3
EXIT_AUDIT = 4

SCENARIOS = (
    "boundedness",
    "convergence-positive-kappa",
    "decay-zero-kappa",
    "decay-negative-kappa",
    "convex-comparison",
    "small-diffusion-sweep",
    "manufactured-order",
)


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ICSpec:
    kind: str = "constant-plus-perturbation"
    base_u: float = 1.0
    base_v: float = 0.0
    amplitude: float = 0.0
    width: float = 0.1


@dataclass(frozen=True)
class ExperimentConfig:
    params: Parameters
    grid: Grid
    solver: sv.SolverConfig
    ic: ICSpec
    scenario: str
    convex: bool = False
    output_dir: str = "out"
    seed: int = 0
    sweep_axis: Optional[str] = None
    sweep_values: Optional[Tuple[float, ...]] = None


def _number(value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ValueError(f"expected a number, got {value!r}")
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _integer(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"expected an integer, got {value!r}")


def _boolean(value: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _list_of(convert, noun: str):
    def parse(value: str) -> tuple:
        parts = value.replace(",", " ").split()
        if not parts:
            raise ValueError(f"expected a list of {noun}")
        return tuple(convert(part) for part in parts)

    return parse


_numbers = _list_of(_number, "numbers")

# The config schema, section -> {key: converter}, in file order.  Keys are
# the field names of the section's dataclass (the scenario section fills
# ExperimentConfig, its name key renamed by _FIELD); defaults and
# required keys (fields without a default) come from those dataclasses.
_SCHEMA = {
    "params": {
        **dict.fromkeys(("d1", "d2", "chi", "alpha", "beta", "kappa", "mu"), _number),
        "n": _integer,
    },
    "grid": {"dim": _integer, "extents": _numbers, "cells": _list_of(_integer, "integers")},
    "solver": {
        **dict.fromkeys(
            ("dt_initial", "dt_min", "t_end", "cfl_safety", "blowup_linf_threshold"),
            _number,
        ),
        "snapshot_stride": _integer,
    },
    "ic": {"kind": str, **dict.fromkeys(("base_u", "base_v", "amplitude", "width"), _number)},
    "scenario": {
        "name": str, "convex": _boolean, "output_dir": str, "seed": _integer,
        "sweep_axis": str, "sweep_values": _numbers,
    },
}
_FIELD = {"name": "scenario"}
_TYPES = {
    "params": Parameters, "grid": Grid, "solver": sv.SolverConfig,
    "ic": ICSpec, "scenario": ExperimentConfig,
}


def _required(section: str) -> set:
    no_default = {
        f.name for f in dataclasses.fields(_TYPES[section])
        if f.default is dataclasses.MISSING
    }
    return {key for key in _SCHEMA[section] if _FIELD.get(key, key) in no_default}


def _sections(text: str) -> Dict[str, Dict[str, str]]:
    sections: Dict[str, Dict[str, str]] = {name: {} for name in _SCHEMA}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA[current]:
            raise ConfigError(f"unknown key {key!r} in section [{current}]")
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in section [{current}]")
        sections[current][key] = value
    for name, have in sections.items():
        missing = _required(name) - set(have)
        if missing:
            raise ConfigError(
                f"section [{name}] missing required keys: {sorted(missing)}"
            )
    return sections


def _convert(section: str, key: str, value: str):
    try:
        return _SCHEMA[section][key](value)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}")


def _build(section: str, make, fields: dict):
    try:
        return make(**fields)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate an experiment configuration.

    Errors come in the order: layout and keys (_sections), converted values,
    the Grid, Parameters and SolverConfig checks, then the rules of _rules
    over the built config (the [ic] kind, values and finite bases, the
    scenario name, n = grid dim, the scenario's requirements) and last, for
    the sweep scenario, each sweep value (_validate_sweep_axis).
    """
    p, g, s, i, sc = (
        {_FIELD.get(key, key): _convert(name, key, value) for key, value in raw.items()}
        for name, raw in _sections(text).items()
    )
    grid = _build("grid", Grid, g)
    p.setdefault("n", grid.dim)
    params = _build("params", lambda **kw: validate(Parameters(**kw)), p)
    solver_cfg = _build("solver", sv.SolverConfig, s)

    # unset bases default to the homogeneous equilibrium: u = kappa/mu for
    # kappa > 0 (else 1) and v = alpha u / beta, which may overflow
    if params.kappa > 0.0:
        i.setdefault("base_u", params.kappa / params.mu)
        beta_mu = params.beta * params.mu
        i.setdefault("base_v", params.alpha * params.kappa / beta_mu if beta_mu else math.inf)
    i.setdefault("base_v", params.alpha / params.beta)
    cfg = ExperimentConfig(params=params, grid=grid, solver=solver_cfg, ic=ICSpec(**i), **sc)
    for message, holds in _rules(cfg):
        if not holds:
            raise ConfigError(message)
    if cfg.scenario == "small-diffusion-sweep":
        _validate_sweep_axis(cfg.sweep_axis, cfg.sweep_values, cfg)
    return cfg


def _rules(cfg: ExperimentConfig):
    """The config rules as (message, holds), in the order parse_config checks
    them.  A rule is stated only once those before it hold, so mu1 is
    computed only for a convergence config with kappa > 0 and chi != 0."""
    params, ic, name = cfg.params, cfg.ic, cfg.scenario
    kinds = ("constant-plus-perturbation", "gaussian-bump")
    yield f"[ic]: unknown kind {ic.kind!r}", ic.kind in kinds
    yield "[ic]: bases and amplitude must be nonnegative, width positive", not (
        ic.base_u < 0 or ic.base_v < 0 or ic.amplitude < 0 or ic.width <= 0)
    yield (  # set bases are finite; a default one may not be
        f"[ic]: the equilibrium bases base_u = {ic.base_u}, base_v = {ic.base_v} "
        "are not finite; set base_u and base_v"
    ), math.isfinite(ic.base_u) and math.isfinite(ic.base_v)
    yield f"[scenario]: unknown scenario {name!r}", name in SCENARIOS
    yield f"params n = {params.n} must match grid dim = {cfg.grid.dim}", params.n == cfg.grid.dim
    if name != "manufactured-order":  # its study sets its own dt, 0.2 h^2
        yield _solvable(cfg, params)
        yield _bounded_steps(cfg, cfg.solver.dt_initial, "dt_initial")
    if name == "convergence-positive-kappa":
        yield f"{name} requires kappa > 0", params.kappa > 0.0
        yield (f"{name} requires chi != 0 (the rate formula degenerates without "
               "chemotaxis)", params.chi != 0.0)
        threshold = th.mu1(params)
        yield f"{name} requires mu > mu1 = {threshold}", not params.mu <= threshold  # a nan mu1 holds
    elif name == "decay-zero-kappa":
        yield f"{name} requires kappa = 0", params.kappa == 0.0
    elif name == "decay-negative-kappa":
        yield f"{name} requires kappa < 0", params.kappa < 0.0
    elif name == "convex-comparison":
        yield (f"{name} requires n in {{3, 4, 5}} (mu0 is defined only there), "
               f"got n = {params.n}", params.n in (3, 4, 5))
        yield f"{name} requires d1 = d2 and chi > 0", params.d1 == params.d2 and params.chi > 0.0
    elif name == "small-diffusion-sweep":
        yield (f"{name} requires sweep_axis and sweep_values",
               bool(cfg.sweep_axis and cfg.sweep_values))
    elif name == "manufactured-order":  # refined to 4 times cfg's cells per axis
        theta = 0.2 * max(params.d1, params.d2)  # its dt is 0.2 h^2
        yield (f"{name}: [params] d1 = {params.d1}, d2 = {params.d2} give theta = 0.2 "
               f"max(d1, d2) = {theta}, which must lie below 2^52"), theta < 2.0 ** 52
        h = min(cfg.grid.spacing) / 4
        yield _bounded_steps(cfg, 0.2 * h * h, "the finest grid's dt = 0.2 h^2")


def _solvable(cfg: ExperimentConfig, params: Parameters):
    """The rule that keeps the implicit diffusion solvable: theta = dt d /
    h^2, largest at dt_initial, max(d1, d2) and min(h), below 2^52, under
    which 1 + 2 theta, the line matrix's diagonal, is exact; beyond it the
    no-flux line matrix rounds to a singular one."""
    dt, d, h = cfg.solver.dt_initial, max(params.d1, params.d2), min(cfg.grid.spacing)
    theta = dt * d / (h * h) if h * h else math.inf
    return (f"[solver] dt_initial = {dt}, [params] d1 = {params.d1}, d2 = {params.d2} and "
            f"the [grid] spacing {h} give theta = dt_initial max(d1, d2) / min(h)^2 = "
            f"{theta}, which must lie below 2^52 for the implicit diffusion solve"
            ), theta < 2.0 ** 52


def _bounded_steps(cfg: ExperimentConfig, dt: float, name: str):
    """The rule that bounds a run's step count: t_end / dt, dt its largest
    step, at most 2^24, three orders above the longest canonical or
    benchmark run (5,120 steps).  A CFL-limited run may take more."""
    steps = cfg.solver.t_end / dt if dt > 0.0 else math.inf
    return (f"[solver] t_end = {cfg.solver.t_end} and {name} = {dt} ask for "
            f"{steps} steps, more than 2^24"), steps <= 2 ** 24


def _validate_sweep_axis(axis: str, values: Tuple[float, ...], cfg: ExperimentConfig):
    if axis not in {f.name for f in dataclasses.fields(Parameters)}:
        raise ConfigError(f"sweep axis {axis!r} is not a parameter field")
    if not values:
        raise ConfigError("sweep values list is empty")
    for value in values:
        if axis == "n" and value != cfg.grid.dim:  # the points run on cfg's grid
            raise ConfigError(f"sweep value {value}: n must equal grid dim {cfg.grid.dim}")
        try:
            swept = validate(dataclasses.replace(cfg.params, **{axis: value}))
        except ValueError as exc:
            raise ConfigError(f"sweep value {value} inadmissible: {exc}")
        message, holds = _solvable(cfg, swept)
        if axis in ("d1", "d2") and not holds:
            raise ConfigError(f"sweep value {value} inadmissible: {message}")


def _render(value) -> str:
    if isinstance(value, tuple):
        return " ".join(_render(v) for v in value)
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a config that parses back to an identical object."""
    blocks = []
    for name, keys in _SCHEMA.items():
        source = cfg if name == "scenario" else getattr(cfg, name)
        lines = [f"[{name}]"]
        for key in keys:
            value = getattr(source, _FIELD.get(key, key))
            if value is not None:
                lines.append(f"{key} = {_render(value)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------


@dataclass
class ScenarioResult:
    exit_code: int
    outcome: Optional[str]
    report: Dict[str, object]
    output_dir: Path


def _source(params: Parameters) -> SourceFunction:
    return SourceFunction.standard_logistic(params.kappa, params.mu)


def _initial_state(cfg: ExperimentConfig):
    ic = cfg.ic
    return sv.initial_condition(
        ic.kind, cfg.grid, base_u=ic.base_u, base_v=ic.base_v,
        amplitude=ic.amplitude, width=ic.width, seed=cfg.seed,
    )


def _output_dir(cfg: ExperimentConfig) -> Path:
    """cfg's output directory, made with its parents if missing."""
    try:
        Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"[scenario] output_dir {cfg.output_dir!r}: {exc}")
    return Path(cfg.output_dir)


def _zstability(series: diag.DiagnosticsSeries):
    """The z3 maximum over the last third of the run may exceed its maximum
    over the first third by at most 5 %."""
    t = series.column("t")
    z = series.column("z3")
    if np.all(np.isnan(z)):
        return None
    t_end = t[-1]
    early_mask = (t >= 0.0) & (t <= t_end / 3.0) & ~np.isnan(z)
    late_mask = (t >= 2.0 * t_end / 3.0) & (t <= t_end) & ~np.isnan(z)
    if not early_mask.any() or not late_mask.any():
        return None
    early_max = float(np.max(z[early_mask]))
    late_max = float(np.max(z[late_mask]))
    return {
        "z3_early_max": early_max,
        "z3_late_max": late_max,
        "z3_stable": late_max <= 1.05 * early_max,
    }


# exit code and verdict of a run that stopped before t_end; no audit runs
_STOPPED = {
    sv.OUTCOME_BLOWUP: (EXIT_BLOWUP, "blow-up detected"),
    sv.OUTCOME_DT_COLLAPSE: (EXIT_AUDIT, "time step collapsed"),
    sv.OUTCOME_NONFINITE: (EXIT_AUDIT, "fail"),
}


def run_scenario(cfg: ExperimentConfig) -> ScenarioResult:
    """Execute thresholds, simulation, diagnostics, and the scenario audit.

    Exit code 0 on audit pass, 2 on blow-up, 3 on config error (raised by
    parse_config, or here for an output_dir that cannot be made), 4 on audit
    failure, dt collapse or a non-finite u or v.
    """
    out = _output_dir(cfg)
    lines: Dict[str, object] = {"scenario": cfg.scenario}

    if cfg.scenario == "small-diffusion-sweep":
        return _finish(out, lines, _sweep_scenario(cfg, lines))
    if cfg.scenario == "manufactured-order":
        return _finish(out, lines, _order_scenario(cfg, lines))

    report = _report_thresholds(lines, cfg)
    if cfg.scenario == "convex-comparison":
        value_c, _ = th.mu0_general(cfg.params, convex=True)
        value_g, _ = th.mu0_general(cfg.params, convex=False)
        lines["mu0_convex_branch"] = value_c
        lines["mu0_general_branch"] = value_g
        lines["mu_exceeds_convex_mu0"] = cfg.params.mu > value_c
        lines["mu_exceeds_general_mu0"] = cfg.params.mu > value_g

    source, state0 = _source(cfg.params), _initial_state(cfg)
    traj = sv.run(state0, cfg.params, source, cfg.grid, cfg.solver, report.coeffs3)
    series = traj.diagnostics
    lines["outcome"] = traj.outcome
    lines["steps"] = traj.steps
    lines["clamp_total"] = traj.clamp_total
    lines["sup_linf_u"] = float(np.max(series.column("Linf_u")))

    (out / "diagnostics.csv").write_text(series.to_csv())
    snap_dir = out / "snapshots"
    for index, state in enumerate(traj.states):
        sv.write_snapshot(snap_dir, state, cfg.grid, index)

    passed = traj.outcome not in _STOPPED and _audit_completed_run(
        cfg, report, traj, source, state0, lines
    )
    return _finish(out, lines, passed, traj.outcome)


def _finish(out: Path, lines, passed: bool, outcome: Optional[str] = None):
    """Record the verdict and exit code, then write report.txt."""
    code, lines["verdict"] = _STOPPED.get(
        outcome, (EXIT_PASS, "pass") if passed else (EXIT_AUDIT, "fail")
    )
    lines["exit_code"] = code
    (out / "report.txt").write_text("".join(f"{k}: {v}\n" for k, v in lines.items()))
    return ScenarioResult(code, outcome, lines, out)


_BOUNDED = ("mass_bound_pass", "clamp_check", "z3_stable")
_DECAY = ("mass_bound_pass", "audit_rate_pass")
# the report lines of the checks that each simulated scenario's verdict rests on
_CHECKS = {
    "boundedness": _BOUNDED, "convex-comparison": _BOUNDED,
    "convergence-positive-kappa": _DECAY + ("H_monotone",),
    "decay-zero-kappa": _DECAY, "decay-negative-kappa": _DECAY,
}


def _audit_completed_run(cfg, report, traj, source, state0, lines) -> bool:
    """Write each check of cfg's scenario as its report line, with its
    details, and return the verdict: all of the scenario's _CHECKS.  A check
    without data (z3 without a coefficient set) writes no line and does not
    count; a series that the rate fit cannot use writes audit_error and
    fails."""
    series = traj.diagnostics
    u0_mass = float(np.sum(state0.u) * cfg.grid.cell_volume)
    mass = diag.mass_bound_check(series, source, u0_mass, cfg.grid.volume)
    lines["mass_bound_pass"] = mass.passed
    lines["mass_bound_value"] = mass.bound
    lines["mass_bound_worst_margin"] = mass.worst_margin
    if cfg.scenario in ("boundedness", "convex-comparison"):
        lines["clamp_check"] = traj.clamp_total == 0
        lines.update(_zstability(series) or {})
    else:
        try:
            audit = diag.convergence_audit(series, cfg.params, report, cfg.grid.dim)
        except ValueError as exc:  # e.g. too few samples in the fitting window
            lines["audit_error"] = str(exc)
            return False
        lines.update(audit.details)
        lines["audit_rate_pass"] = audit.passed
        if cfg.scenario == "convergence-positive-kappa":
            lines["H_monotone"], lines["H_worst_increase"] = diag.h_monotonicity_check(
                series, tol_factor=1e-8 * cfg.solver.snapshot_stride
            )
    return all(lines.get(name, True) for name in _CHECKS[cfg.scenario])


def _order_scenario(cfg, lines) -> bool:
    source = (
        SourceFunction.zero()
        if cfg.params.kappa == 0.0 and cfg.params.chi == 0.0
        else SourceFunction.standard_logistic(cfg.params.kappa, cfg.params.mu)
    )
    try:
        result = sv.refinement_study(cfg.params, source, cfg.grid, t_end=cfg.solver.t_end)
    except RuntimeError as exc:  # a run that did not complete, or errors with no order
        lines["audit_error"] = str(exc)
        return False
    lines["cells"] = " ".join("x".join(map(str, cells)) for cells in result.cells)
    lines["errors"] = " ".join("%.6e" % e for e in result.errors)
    lines["orders"] = " ".join("%.4f" % o for o in result.orders)
    lines["observed_order"] = result.observed_order
    if cfg.params.chi == 0.0:
        return abs(result.observed_order - 2.0) <= 0.2
    return 0.8 <= result.observed_order <= 2.0


def _sweep_scenario(cfg, lines) -> bool:
    rows = run_sweep(cfg, cfg.sweep_axis, cfg.sweep_values)
    lines["sweep_axis"] = cfg.sweep_axis
    lines["points"] = len(rows)
    passed = all(r["outcome"] == sv.OUTCOME_COMPLETED for r in rows)
    if cfg.sweep_axis == "d1":
        # qualitative small-diffusion trend: late peaks (t >= t_end/3, past
        # the initial transient) grow as d1 shrinks
        pairs = sorted(
            (r["value"], r["late_linf_u"]) for r in rows
            if isinstance(r["late_linf_u"], float)
        )
        peaks = [s for _, s in pairs]  # ascending d1
        trend = all(peaks[i] >= peaks[i + 1] - 1e-12 for i in range(len(peaks) - 1))
        lines["late_linf_u_by_d1"] = " ".join("%.6e" % s for s in peaks)
        lines["trend_nondecreasing_as_d1_shrinks"] = trend
        passed = passed and trend
    return passed


def _report_thresholds(lines, cfg: ExperimentConfig) -> th.ThresholdReport:
    """Write cfg's threshold lines, as in report.txt, and return its report;
    a boundedness config also states its hypothesis mu > mu0."""
    report = th.report(cfg.params, cfg.convex)
    undefined = math.isnan(report.mu0)  # n outside {3, 4, 5}
    lines["mu0"] = report.mu0
    lines["mu0_branch"] = "undefined" if undefined else report.branch
    if cfg.scenario == "boundedness":
        lines["mu_exceeds_mu0"] = "undefined" if undefined else cfg.params.mu > report.mu0
    lines["mu1"] = report.mu1
    lines["gamma"] = report.gamma if report.gamma is not None else "undefined"
    lines["epsilon0"] = (
        report.epsilon0 if report.epsilon0 is not None else "undefined"
    )
    for label, coeffs in (("coeff3", report.coeffs3), ("coeff45", report.coeffs45)):
        if coeffs is None:
            continue
        for fld in dataclasses.fields(coeffs):
            lines[f"{label}_{fld.name}"] = getattr(coeffs, fld.name)
    return report


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------


_SUMMARY_COLUMNS = ("value", "outcome", "sup_linf_u", "late_linf_u", "fit_model",
                    "fit_rate", "mu_gt_mu0", "error")

def _sweep_chunk(args) -> List[Dict[str, object]]:
    """Summary rows of a contiguous chunk of sweep points, given as (index,
    value) pairs.  Each point is set up on its own (validation, threshold
    report, source; the initial state depends on no parameter and is made
    once); a point whose set-up raises keeps its error row and stays out of
    the batch.  The rest march in batches within sv._BATCH_ELEMENTS
    (sv.run_batch); an error in a batch's run lands in the rows of all its
    points, one in a point's output in that point's row."""
    base, axis, points, out = args
    grid = base.grid
    size = max(1, sv._BATCH_ELEMENTS // (math.prod(grid.cells) + sum(n * n for n in grid.cells)))
    rows, state0 = [], None
    for first in range(0, len(points), size):
        ready = []
        for index, value in points[first:first + size]:
            row: Dict[str, object] = dict.fromkeys(_SUMMARY_COLUMNS, "")
            row["value"] = value
            rows.append(row)
            try:
                cfg = dataclasses.replace(
                    base, params=validate(dataclasses.replace(base.params, **{axis: value}))
                )
                report = th.report(cfg.params, base.convex)
                if state0 is None:
                    state0 = _initial_state(base)
                point_dir = out / f"point_{index:03d}"
                ready.append((row, cfg, report, _source(cfg.params), point_dir))
            except Exception as exc:  # recorded per point, never fatal to the sweep
                row["error"] = str(exc)
        if not ready:
            continue
        batch_rows, cfgs, reports, sources, dirs = zip(*ready)
        try:
            trajectories = sv.run_batch(
                [state0] * len(ready), [cfg.params for cfg in cfgs], sources, grid,
                base.solver, [report.coeffs3 for report in reports],
            )
        except Exception as exc:
            for row in batch_rows:
                row["error"] = str(exc)
            continue
        trajectories.reverse()  # popped in point order, so each is freed when done
        for row, cfg, report, point_dir in zip(batch_rows, cfgs, reports, dirs):
            try:
                _sweep_result(row, cfg.params, report, trajectories.pop(), point_dir)
            except Exception as exc:
                row["error"] = str(exc)
    return rows


def _sweep_result(row, params: Parameters, report, traj, point_dir: Path) -> None:
    """Write a sweep point's diagnostics.csv and fill in its summary row."""
    series = traj.diagnostics
    point_dir.mkdir(parents=True, exist_ok=True)
    (point_dir / "diagnostics.csv").write_text(series.to_csv())
    t = series.column("t")
    linf = series.column("Linf_u")
    row["outcome"] = traj.outcome
    row["sup_linf_u"] = float(np.max(linf))
    row["late_linf_u"] = float(np.max(linf[t >= t[-1] / 3.0]))
    if not math.isnan(report.mu0):
        row["mu_gt_mu0"] = int(params.mu > report.mu0)
    if traj.outcome == sv.OUTCOME_COMPLETED and np.all(linf > 0):
        try:
            fit = diag.fit_decay(t, linf, (t[-1] / 2.0, t[-1]))
            row["fit_model"] = fit.model
            row["fit_rate"] = fit.rate
        except ValueError:
            pass


def _sweep_workers(setting: Optional[str], points: int, cpus: int) -> int:
    """Sweep worker count from the KSLAB_WORKERS setting (None when unset:
    serial), capped at cpus, the CPUs that the sweep may use, and at the
    number of points."""
    if setting is None:
        return 1
    if not setting.strip().isdecimal() or int(setting) < 1:
        raise ConfigError(f"KSLAB_WORKERS: expected an integer >= 1, got {setting!r}")
    return min(int(setting), cpus, points)


def run_sweep(
    base: ExperimentConfig, axis: str, values: Tuple[float, ...]
) -> List[Dict[str, object]]:
    """Run base with each value of the parameter axis, one output row per
    requested value in order; summary.csv goes to base.output_dir and each
    point's diagnostics.csv to point_<index>.

    The points march in lockstep batches (sv.run_batch) under a fixed
    budget of stacked elements, sv._BATCH_ELEMENTS, with outputs identical to
    solo runs.  With KSLAB_WORKERS set (default: serial), up to that many
    processes, and no more than the CPUs of this process's affinity mask,
    each take a contiguous chunk of the points.  Per-point
    failures, in set-up, run or output, land in the row's error column.
    """
    _validate_sweep_axis(axis, values, base)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)  # the CPUs this process may run on
    workers = _sweep_workers(os.environ.get("KSLAB_WORKERS"), len(values), cpus)
    out = _output_dir(base)
    points = list(enumerate(values))
    bounds = [len(points) * k // workers for k in range(workers + 1)]
    chunks = [(base, axis, points[a:b], out) for a, b in zip(bounds, bounds[1:])]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # with multiprocessing: only here

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = [row for chunk in pool.map(_sweep_chunk, chunks) for row in chunk]
    else:
        rows = _sweep_chunk(chunks[0])
    lines = [",".join(_SUMMARY_COLUMNS)] + [
        ",".join(
            "%.17e" % row[key] if isinstance(row[key], float) else str(row[key])
            for key in _SUMMARY_COLUMNS
        )
        for row in rows
    ]
    (out / "summary.csv").write_text("\n".join(lines) + "\n")
    return rows
