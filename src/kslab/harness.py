"""Experiment configuration, scenario orchestration, and parameter sweeps.

Config files are flat key = value text under five [section] headers; the
format round-trips bit-exactly and unknown keys are hard errors.  Scenario
runs write a line-oriented report.txt, the diagnostics CSV, and raw field
snapshots into the configured output directory.
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import diagnostics as diag
from . import solver as sv
from . import thresholds as th
from .params import Grid, Parameters, SourceFunction, State, validate

__all__ = [
    "ConfigError",
    "ICSpec",
    "ExperimentConfig",
    "SweepSpec",
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
    order_grids: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    values: Tuple[float, ...]
    base: ExperimentConfig


_SECTION_KEYS = {
    "params": {"d1", "d2", "chi", "alpha", "beta", "kappa", "mu", "n"},
    "grid": {"dim", "extents", "cells"},
    "solver": {
        "dt_initial", "dt_min", "t_end", "cfl_safety",
        "blowup_linf_threshold", "snapshot_stride",
    },
    "ic": {"kind", "base_u", "base_v", "amplitude", "width"},
    "scenario": {
        "name", "convex", "output_dir", "seed", "sweep_axis",
        "sweep_values", "grids",
    },
}

_REQUIRED = {
    "params": {"d1", "d2", "chi", "alpha", "beta", "kappa", "mu"},
    "grid": {"dim", "extents", "cells"},
    "scenario": {"name"},
}


def _sections(text: str) -> Dict[str, Dict[str, str]]:
    sections: Dict[str, Dict[str, str]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTION_KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SECTION_KEYS[current]:
            raise ConfigError(f"unknown key {key!r} in section [{current}]")
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in section [{current}]")
        sections[current][key] = value
    for name, keys in _REQUIRED.items():
        have = sections.get(name, {})
        missing = keys - set(have)
        if missing:
            raise ConfigError(
                f"section [{name}] missing required keys: {sorted(missing)}"
            )
    return sections


def _as_float(sec: str, key: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"[{sec}] {key}: expected a number, got {value!r}")
    if not math.isfinite(number):
        raise ConfigError(f"[{sec}] {key}: expected a finite number, got {value!r}")
    return number


def _as_int(sec: str, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"[{sec}] {key}: expected an integer, got {value!r}")


def _as_bool(sec: str, key: str, value: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"[{sec}] {key}: expected a boolean, got {value!r}")


def _as_floats(sec: str, key: str, value: str) -> Tuple[float, ...]:
    parts = value.replace(",", " ").split()
    if not parts:
        raise ConfigError(f"[{sec}] {key}: expected a list of numbers")
    return tuple(_as_float(sec, key, p) for p in parts)


def _as_ints(sec: str, key: str, value: str) -> Tuple[int, ...]:
    parts = value.replace(",", " ").split()
    if not parts:
        raise ConfigError(f"[{sec}] {key}: expected a list of integers")
    return tuple(_as_int(sec, key, p) for p in parts)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate an experiment configuration."""
    sec = _sections(text)

    p = sec["params"]
    g = sec["grid"]
    dim = _as_int("grid", "dim", g["dim"])
    try:
        grid = Grid(
            dim=dim,
            extents=_as_floats("grid", "extents", g["extents"]),
            cells=_as_ints("grid", "cells", g["cells"]),
        )
    except ValueError as exc:
        raise ConfigError(f"[grid]: {exc}")
    try:
        params = validate(
            Parameters(
                d1=_as_float("params", "d1", p["d1"]),
                d2=_as_float("params", "d2", p["d2"]),
                chi=_as_float("params", "chi", p["chi"]),
                alpha=_as_float("params", "alpha", p["alpha"]),
                beta=_as_float("params", "beta", p["beta"]),
                kappa=_as_float("params", "kappa", p["kappa"]),
                mu=_as_float("params", "mu", p["mu"]),
                n=_as_int("params", "n", p.get("n", str(dim))),
            )
        )
    except ValueError as exc:
        raise ConfigError(f"[params]: {exc}")

    s = sec.get("solver", {})
    try:
        solver_cfg = sv.SolverConfig(
            dt_initial=_as_float("solver", "dt_initial", s.get("dt_initial", "0.01")),
            dt_min=_as_float("solver", "dt_min", s.get("dt_min", "1e-10")),
            t_end=_as_float("solver", "t_end", s.get("t_end", "1.0")),
            cfl_safety=_as_float("solver", "cfl_safety", s.get("cfl_safety", "0.5")),
            blowup_linf_threshold=_as_float(
                "solver", "blowup_linf_threshold",
                s.get("blowup_linf_threshold", "1e8"),
            ),
            snapshot_stride=_as_int(
                "solver", "snapshot_stride", s.get("snapshot_stride", "10")
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"[solver]: {exc}")

    i = sec.get("ic", {})
    kind = i.get("kind", "constant-plus-perturbation")
    if kind == "custom-field":
        raise ConfigError(
            "[ic]: custom-field initial data cannot be described in a config file"
        )
    if kind not in ("constant-plus-perturbation", "gaussian-bump"):
        raise ConfigError(f"[ic]: unknown kind {kind!r}")
    if params.kappa > 0.0:
        default_u = params.kappa / params.mu
        default_v = params.alpha * params.kappa / (params.beta * params.mu)
    else:
        default_u = 1.0
        default_v = params.alpha * 1.0 / params.beta
    ic = ICSpec(
        kind=kind,
        base_u=_as_float("ic", "base_u", i.get("base_u", repr(default_u))),
        base_v=_as_float("ic", "base_v", i.get("base_v", repr(default_v))),
        amplitude=_as_float("ic", "amplitude", i.get("amplitude", "0")),
        width=_as_float("ic", "width", i.get("width", "0.1")),
    )
    if ic.base_u < 0 or ic.base_v < 0 or ic.amplitude < 0 or ic.width <= 0:
        raise ConfigError("[ic]: bases and amplitude must be nonnegative, width positive")

    sc = sec["scenario"]
    name = sc["name"]
    if name not in SCENARIOS:
        raise ConfigError(f"[scenario]: unknown scenario {name!r}")
    cfg = ExperimentConfig(
        params=params,
        grid=grid,
        solver=solver_cfg,
        ic=ic,
        scenario=name,
        convex=_as_bool("scenario", "convex", sc.get("convex", "false")),
        output_dir=sc.get("output_dir", "out"),
        seed=_as_int("scenario", "seed", sc.get("seed", "0")),
        sweep_axis=sc.get("sweep_axis"),
        sweep_values=(
            _as_floats("scenario", "sweep_values", sc["sweep_values"])
            if "sweep_values" in sc
            else None
        ),
        order_grids=(
            _as_ints("scenario", "grids", sc["grids"]) if "grids" in sc else None
        ),
    )
    _check_scenario_constraints(cfg)
    return cfg


def _check_scenario_constraints(cfg: ExperimentConfig) -> None:
    params, name = cfg.params, cfg.scenario
    if name != "manufactured-order" and params.n != cfg.grid.dim:
        raise ConfigError(
            f"params n = {params.n} must match grid dim = {cfg.grid.dim}"
        )
    if name == "convergence-positive-kappa":
        if params.kappa <= 0.0:
            raise ConfigError("convergence-positive-kappa requires kappa > 0")
        if params.chi == 0.0:
            raise ConfigError(
                "convergence-positive-kappa requires chi != 0 (the rate "
                "formula degenerates without chemotaxis)"
            )
        threshold = th.mu1(params)
        if params.mu <= threshold:
            raise ConfigError(
                f"convergence-positive-kappa requires mu > mu1 = {threshold}"
            )
    elif name == "decay-zero-kappa":
        if params.kappa != 0.0:
            raise ConfigError("decay-zero-kappa requires kappa = 0")
    elif name == "decay-negative-kappa":
        if params.kappa >= 0.0:
            raise ConfigError("decay-negative-kappa requires kappa < 0")
    elif name == "convex-comparison":
        if params.n not in (3, 4, 5):
            raise ConfigError(
                f"convex-comparison requires n in {{3, 4, 5}} (mu0 is defined "
                f"only there), got n = {params.n}"
            )
        if params.d1 != params.d2 or params.chi <= 0.0:
            raise ConfigError(
                "convex-comparison requires d1 = d2 and chi > 0"
            )
    elif name == "small-diffusion-sweep":
        if not cfg.sweep_axis or not cfg.sweep_values:
            raise ConfigError(
                "small-diffusion-sweep requires sweep_axis and sweep_values"
            )
        _validate_sweep_axis(cfg.sweep_axis, cfg.sweep_values, params)
    elif name == "manufactured-order":
        if not cfg.order_grids:
            raise ConfigError("manufactured-order requires grids (cell counts)")
        if len(cfg.order_grids) < 3:
            raise ConfigError("manufactured-order needs at least 3 grids")


def _validate_sweep_axis(axis: str, values: Tuple[float, ...], params: Parameters):
    if axis not in {f.name for f in dataclasses.fields(Parameters)}:
        raise ConfigError(f"sweep axis {axis!r} is not a parameter field")
    if not values:
        raise ConfigError("sweep values list is empty")
    for value in values:
        try:
            validate(dataclasses.replace(params, **{axis: value}))
        except ValueError as exc:
            raise ConfigError(f"sweep value {value} inadmissible: {exc}")


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a config that parses back to an identical object."""
    p, g, s, i = cfg.params, cfg.grid, cfg.solver, cfg.ic
    lines = [
        "[params]",
        *(f"{k} = {getattr(p, k)!r}" for k in
          ("d1", "d2", "chi", "alpha", "beta", "kappa", "mu")),
        f"n = {p.n}",
        "",
        "[grid]",
        f"dim = {g.dim}",
        "extents = " + " ".join(repr(e) for e in g.extents),
        "cells = " + " ".join(str(c) for c in g.cells),
        "",
        "[solver]",
        f"dt_initial = {s.dt_initial!r}",
        f"dt_min = {s.dt_min!r}",
        f"t_end = {s.t_end!r}",
        f"cfl_safety = {s.cfl_safety!r}",
        f"blowup_linf_threshold = {s.blowup_linf_threshold!r}",
        f"snapshot_stride = {s.snapshot_stride}",
        "",
        "[ic]",
        f"kind = {i.kind}",
        f"base_u = {i.base_u!r}",
        f"base_v = {i.base_v!r}",
        f"amplitude = {i.amplitude!r}",
        f"width = {i.width!r}",
        "",
        "[scenario]",
        f"name = {cfg.scenario}",
        f"convex = {str(cfg.convex).lower()}",
        f"output_dir = {cfg.output_dir}",
        f"seed = {cfg.seed}",
    ]
    if cfg.sweep_axis is not None:
        lines.append(f"sweep_axis = {cfg.sweep_axis}")
    if cfg.sweep_values is not None:
        lines.append("sweep_values = " + " ".join(repr(v) for v in cfg.sweep_values))
    if cfg.order_grids is not None:
        lines.append("grids = " + " ".join(str(c) for c in cfg.order_grids))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------


@dataclass
class ScenarioResult:
    exit_code: int
    outcome: Optional[str]
    report: Dict[str, object]
    output_dir: Path


def _build_initial_state(cfg: ExperimentConfig) -> State:
    return sv.initial_condition(
        cfg.ic.kind,
        cfg.grid,
        base_u=cfg.ic.base_u,
        base_v=cfg.ic.base_v,
        amplitude=cfg.ic.amplitude,
        width=cfg.ic.width,
        seed=cfg.seed,
    )


def _simulate(cfg: ExperimentConfig, report: th.ThresholdReport):
    params = cfg.params
    source = SourceFunction.standard_logistic(params.kappa, params.mu)
    state0 = _build_initial_state(cfg)
    coeffs3 = report.coeffs3 if cfg.grid.dim == 3 else None
    coeffs45 = report.coeffs45
    traj = sv.run(
        state0, params, source, cfg.grid, cfg.solver,
        coeffs3=coeffs3, coeffs45=coeffs45,
    )
    return traj, source, state0


def _zstability(series: diag.DiagnosticsSeries):
    """The z3 maximum over the last third of the run may exceed its maximum
    over the first third by at most 5 %."""
    t = series.column("t")
    z = series.column("z3")
    if np.all(np.isnan(z)):
        return None
    t_end = t[-1]
    early = (0.0, t_end / 3.0)
    late = (2.0 * t_end / 3.0, t_end)
    early_mask = (t >= early[0]) & (t <= early[1]) & ~np.isnan(z)
    late_mask = (t >= late[0]) & (t <= late[1]) & ~np.isnan(z)
    if not early_mask.any() or not late_mask.any():
        return None
    early_max = float(np.max(z[early_mask]))
    late_max = float(np.max(z[late_mask]))
    return {
        "early_max": early_max,
        "late_max": late_max,
        "passed": late_max <= 1.05 * early_max,
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
    parse_config before we get here), 4 on audit failure, dt collapse or a
    non-finite u or v.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines: Dict[str, object] = {"scenario": cfg.scenario}

    if cfg.scenario == "small-diffusion-sweep":
        return _run_sweep_scenario(cfg, out, lines)
    if cfg.scenario == "manufactured-order":
        return _run_order_scenario(cfg, out, lines)

    report = th.report(cfg.params, cfg.convex)
    _report_thresholds(lines, report)
    if cfg.scenario == "convex-comparison":
        value_c, _ = th.mu0_general(cfg.params, convex=True)
        value_g, _ = th.mu0_general(cfg.params, convex=False)
        lines["mu0_convex_branch"] = value_c
        lines["mu0_general_branch"] = value_g
        lines["mu_exceeds_convex_mu0"] = cfg.params.mu > value_c
        lines["mu_exceeds_general_mu0"] = cfg.params.mu > value_g

    traj, source, state0 = _simulate(cfg, report)
    series = traj.diagnostics
    lines["outcome"] = traj.outcome
    lines["steps"] = traj.steps
    lines["clamp_total"] = traj.clamp_total
    lines["sup_linf_u"] = float(np.max(series.column("Linf_u")))

    (out / "diagnostics.csv").write_text(series.to_csv())
    snap_dir = out / "snapshots"
    for index, state in enumerate(traj.states):
        sv.write_snapshot(snap_dir, state, cfg.grid, index)

    if traj.outcome in _STOPPED:
        code, lines["verdict"] = _STOPPED[traj.outcome]
        _write_report(out, lines, code)
        return ScenarioResult(code, traj.outcome, lines, out)

    passed = _audit_completed_run(cfg, report, traj, source, state0, lines)
    code = EXIT_PASS if passed else EXIT_AUDIT
    _write_report(out, lines, code)
    return ScenarioResult(code, traj.outcome, lines, out)


def _audit_completed_run(cfg, report, traj, source, state0, lines) -> bool:
    params, series = cfg.params, traj.diagnostics
    checks: List[bool] = []

    if source.kind != "zero":
        u0_mass = float(np.sum(state0.u) * cfg.grid.cell_volume)
        mass = diag.mass_bound_check(series, source, u0_mass, cfg.grid.volume)
        lines["mass_bound_pass"] = mass.passed
        lines["mass_bound_value"] = mass.bound
        lines["mass_bound_worst_margin"] = mass.worst_margin
        checks.append(mass.passed)

    if cfg.scenario in ("boundedness", "convex-comparison"):
        lines["clamp_check"] = traj.clamp_total == 0
        checks.append(traj.clamp_total == 0)
        zcheck = _zstability(series)
        if zcheck is not None:
            lines["z3_early_max"] = zcheck["early_max"]
            lines["z3_late_max"] = zcheck["late_max"]
            lines["z3_stable"] = zcheck["passed"]
            checks.append(zcheck["passed"])
    elif cfg.scenario == "convergence-positive-kappa":
        audit = _safe_audit(series, params, report, cfg.grid.dim, lines)
        if audit is None:
            return False
        fit = audit.details["fit"]
        lines["audit_fit_model"] = fit.model
        lines["audit_fit_rate"] = fit.rate
        lines["audit_gamma"] = report.gamma
        lines["audit_rate_pass"] = audit.passed
        checks.append(audit.passed)
        h_ok, worst = diag.h_monotonicity_check(
            series, tol_factor=1e-8 * cfg.solver.snapshot_stride
        )
        lines["H_monotone"] = h_ok
        lines["H_worst_increase"] = worst
        checks.append(h_ok)
    elif cfg.scenario == "decay-zero-kappa":
        audit = _safe_audit(series, params, report, cfg.grid.dim, lines)
        if audit is None:
            return False
        lines["audit_fit_u"] = audit.details["fit_u"].rate
        lines["audit_fit_v"] = audit.details["fit_v"].rate
        lines["audit_target_exponent"] = audit.details["target"]
        lines["audit_rate_pass"] = audit.passed
        checks.append(audit.passed)
    elif cfg.scenario == "decay-negative-kappa":
        audit = _safe_audit(series, params, report, cfg.grid.dim, lines)
        if audit is None:
            return False
        lines["audit_fit_u"] = audit.details["fit_u"].rate
        lines["audit_fit_v"] = audit.details["fit_v"].rate
        lines["audit_target_u"] = audit.details["target_u"]
        lines["audit_target_v"] = audit.details["target_v"]
        lines["audit_rate_pass"] = audit.passed
        checks.append(audit.passed)

    verdict = all(checks) if checks else True
    lines["verdict"] = "pass" if verdict else "fail"
    return verdict


def _safe_audit(series, params, report, dim, lines):
    """Audit with degradation: an unusable series is a failed audit, not a
    crash (e.g. too few samples in the fitting window)."""
    try:
        return diag.convergence_audit(series, params, report, dim)
    except ValueError as exc:
        lines["audit_error"] = str(exc)
        lines["verdict"] = "fail"
        return None


def _run_order_scenario(cfg, out: Path, lines) -> ScenarioResult:
    source = (
        SourceFunction.zero()
        if cfg.params.kappa == 0.0 and cfg.params.chi == 0.0
        else SourceFunction.standard_logistic(cfg.params.kappa, cfg.params.mu)
    )
    grids = [
        Grid(dim=1, extents=(cfg.grid.extents[0],), cells=(c,))
        for c in cfg.order_grids
    ]
    try:
        result = sv.refinement_study(
            cfg.params, source, grids, t_end=cfg.solver.t_end
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    lines["cells"] = " ".join(str(c) for c in result.cells)
    lines["errors"] = " ".join("%.6e" % e for e in result.errors)
    lines["orders"] = " ".join("%.4f" % o for o in result.orders)
    lines["observed_order"] = result.observed_order
    if cfg.params.chi == 0.0:
        passed = abs(result.observed_order - 2.0) <= 0.2
    else:
        passed = 0.8 <= result.observed_order <= 2.0
    lines["verdict"] = "pass" if passed else "fail"
    code = EXIT_PASS if passed else EXIT_AUDIT
    _write_report(out, lines, code)
    return ScenarioResult(code, None, lines, out)


def _run_sweep_scenario(cfg, out: Path, lines) -> ScenarioResult:
    spec = SweepSpec(axis=cfg.sweep_axis, values=cfg.sweep_values, base=cfg)
    rows = run_sweep(spec)
    lines["sweep_axis"] = spec.axis
    lines["points"] = len(rows)
    passed = all(r["outcome"] == sv.OUTCOME_COMPLETED for r in rows)
    if spec.axis == "d1":
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
    lines["verdict"] = "pass" if passed else "fail"
    code = EXIT_PASS if passed else EXIT_AUDIT
    _write_report(out, lines, code)
    return ScenarioResult(code, None, lines, out)


def _report_thresholds(lines, report: th.ThresholdReport) -> None:
    lines["mu0"] = report.mu0
    lines["mu0_branch"] = report.branch
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


def _write_report(out: Path, lines: Dict[str, object], code: int) -> None:
    lines["exit_code"] = code
    text = "".join(f"{k}: {v}\n" for k, v in lines.items())
    (out / "report.txt").write_text(text)


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------


def _sweep_point(args) -> Dict[str, object]:
    cfg_text, axis, value, point_dir = args
    row: Dict[str, object] = {"value": value, "outcome": "", "sup_linf_u": "",
                              "late_linf_u": "", "fit_model": "", "fit_rate": "",
                              "mu_gt_mu0": "", "error": ""}
    try:
        base = parse_config(cfg_text)
        params = validate(
            dataclasses.replace(base.params, **{axis: value})
        )
        cfg = dataclasses.replace(
            base, params=params, output_dir=point_dir,
            scenario="boundedness", sweep_axis=None, sweep_values=None,
        )
        report = th.report(params, cfg.convex)
        traj, _, _ = _simulate(cfg, report)
        series = traj.diagnostics
        Path(point_dir).mkdir(parents=True, exist_ok=True)
        (Path(point_dir) / "diagnostics.csv").write_text(series.to_csv())
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
    except Exception as exc:  # recorded per point, never fatal to the sweep
        row["error"] = str(exc)
    return row


def _sweep_workers(setting: Optional[str], points: int, cpus: int) -> int:
    """Sweep worker count from the KSLAB_WORKERS setting (None when unset:
    serial), capped at the CPU count and the number of points."""
    if setting is None:
        return 1
    if not setting.strip().isdecimal() or int(setting) < 1:
        raise ConfigError(f"KSLAB_WORKERS: expected an integer >= 1, got {setting!r}")
    return min(int(setting), cpus, points)


def run_sweep(spec: SweepSpec) -> List[Dict[str, object]]:
    """Run every sweep point, one output row per requested value in order.

    Points run concurrently up to the KSLAB_WORKERS cap (default: serial);
    per-point failures land in the row's error column.
    """
    _validate_sweep_axis(spec.axis, spec.values, spec.base.params)
    workers = _sweep_workers(
        os.environ.get("KSLAB_WORKERS"), len(spec.values), os.cpu_count() or 1
    )
    out = Path(spec.base.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg_text = serialize_config(spec.base)
    jobs = [
        (cfg_text, spec.axis, value, str(out / f"point_{i:03d}"))
        for i, value in enumerate(spec.values)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, jobs))
    else:
        rows = [_sweep_point(job) for job in jobs]
    header = ("value", "outcome", "sup_linf_u", "fit_model", "fit_rate",
              "mu_gt_mu0", "error")
    lines = [",".join(header)]
    for row in rows:
        rendered = []
        for key in header:
            value = row[key]
            if isinstance(value, float):
                rendered.append("%.17e" % value)
            else:
                rendered.append(str(value))
        lines.append(",".join(rendered))
    (out / "summary.csv").write_text("\n".join(lines) + "\n")
    return rows
