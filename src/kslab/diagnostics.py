"""Norms, coupled functionals, Lyapunov monitoring, and decay-rate fits.

All quadrature is the midpoint rule on cell-centered fields; gradients of
the signal are reconstructed from face differences so the monitored
functionals see exactly the discrete fields the solver evolves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .params import Grid, Parameters, SourceFunction, State
from .thresholds import CoefficientSet3D, CoefficientSet45D, ThresholdReport

__all__ = [
    "lp_norm",
    "face_gradients",
    "grad_magnitude_squared",
    "functional_z3",
    "functional_z45",
    "lyapunov_H",
    "DiagnosticsSeries",
    "CSV_COLUMNS",
    "MassBoundResult",
    "mass_bound_check",
    "DecayFit",
    "fit_decay",
    "h_monotonicity_check",
    "AuditResult",
    "convergence_audit",
]

SUPPORTED_P = (1, 2, 3, 4, 6, math.inf)


def lp_norm(fld: np.ndarray, p, grid: Grid) -> float:
    """Midpoint-rule L^p norm, sum |f|^p as <|f|^a, |f|^b>; max for p = inf."""
    if p not in SUPPORTED_P:
        raise ValueError(f"unsupported norm order p = {p}")
    a = np.abs(np.asarray(fld, dtype=float))
    if p == math.inf:
        return float(np.max(a))
    x = a if p < 4 else a * a
    total = np.sum(a) if p == 1 else np.vdot(x, x if p in (2, 4) else x * x)
    return float((total * grid.cell_volume) ** (1.0 / p))


def face_gradients(v: np.ndarray, grid: Grid, out=None) -> List[np.ndarray]:
    """Face difference quotients of v per axis; into out (an earlier result) if given."""
    if out is None:  # shaped by np.diff; the loop writes the values
        out = [np.diff(v, axis=k) for k in range(v.ndim)]
    for k, g in enumerate(out):
        pre = (slice(None),) * k
        np.subtract(v[pre + (slice(1, None),)], v[pre + (slice(-1),)], out=g)
        g /= grid.spacing[k]
    return out


def grad_magnitude_squared(v: np.ndarray, grid: Grid, out=None, tmp=None) -> np.ndarray:
    """Cell-centered |grad v|^2 from central differences (v_{i+1} - v_{i-1})
    / 2h with v_{-1} = v_0 and v_n = v_{n-1}: the average of the two face
    differences around a cell, with zero difference on the boundary faces
    (the solver's no-flux closure).  out and tmp (contiguous, shaped like
    v) take the result and the per-axis differences when given."""
    v = np.asarray(v, dtype=float)
    out, tmp = (np.empty_like(v) if a is None else a for a in (out, tmp))
    for axis in range(v.ndim):
        def at(*bounds):
            return (slice(None),) * axis + (slice(*bounds),)
        np.subtract(v[at(2, None)], v[at(-2)], out=tmp[at(1, -1)])
        np.subtract(v[at(1, 2)], v[at(1)], out=tmp[at(1)])
        np.subtract(v[at(-1, None)], v[at(-2, -1)], out=tmp[at(-1, None)])
        tmp *= 0.5 / grid.spacing[axis]
        np.multiply(tmp, tmp, out=tmp if axis else out)
        if axis:
            out += tmp
    return out


def _moments(state: State, grid: Grid, scratch=None, c3=None, c45=None) -> Dict:
    """Cell sums of products of u and g = |grad v|^2 keyed by their factors
    ("ugg" sums u g^2), "|u|^3", and "z3" / "z45" (over the cell volume) for
    the coefficient sets given; scratch is two fields, for g and for work."""
    u = state.u
    g, a = scratch or (np.empty_like(u), np.empty_like(u))
    grad_magnitude_squared(state.v, grid, out=g, tmp=a)
    m = {"g": np.sum(g), "ug": np.vdot(u, g)}
    np.multiply(g, g, out=a)
    m.update(gg=np.sum(a), ggg=np.vdot(a, g), ugg=np.vdot(u, a))
    np.multiply(u, u, out=a)
    m.update(uu=np.sum(a), uuu=np.vdot(a, u), uug=np.vdot(a, g))
    m["|u|^3"] = np.vdot(a, np.abs(u, out=g))
    if c3:
        m["z3"] = c3.delta1 * m["uu"] + c3.delta2 * m["ug"] + c3.delta3 * m["gg"]
    if c45:
        m["z45"] = (c45.delta1 * m["uuu"] + c45.delta2 * m["uug"]
                    + c45.delta3 * m["ugg"] + c45.delta4 * m["ggg"])
    return m


def functional_z3(state: State, grid: Grid, c: CoefficientSet3D) -> float:
    """delta1 int u^2 + delta2 int u |grad v|^2 + delta3 int |grad v|^4."""
    return float(_moments(state, grid, c3=c)["z3"] * grid.cell_volume)


def functional_z45(state: State, grid: Grid, c: CoefficientSet45D) -> float:
    """Four-term coupled functional with cubic leading weight."""
    return float(_moments(state, grid, c45=c)["z45"] * grid.cell_volume)


def lyapunov_H(state: State, params: Parameters, grid: Grid, scratch=None) -> float:
    """Entropy-like distance to the positive equilibrium.

    H = int (u - c - c ln(u/c)) + delta int (v - alpha kappa/(beta mu))^2
    with c = kappa/mu and delta = kappa chi^2 / (8 d1 d2 mu); nonnegative,
    zero exactly at the equilibrium.  Requires kappa > 0 and u > 0.
    scratch is two fields to work in instead of fresh ones.
    """
    if params.kappa <= 0.0:
        raise ValueError("H is defined only for kappa > 0")
    u = state.u
    if np.min(u) <= 0.0:
        raise ValueError("H undefined at vacuum")
    c = params.kappa / params.mu
    v_eq = params.alpha * params.kappa / (params.beta * params.mu)
    delta = params.kappa * params.chi**2 / (
        8.0 * params.d1 * params.d2 * params.mu
    )
    a, b = scratch or (np.empty_like(u), np.empty_like(u))
    np.multiply(np.log(np.divide(u, c, out=a), out=a), c, out=a)
    np.subtract(np.subtract(u, c, out=b), a, out=b)  # u - c - c ln(u/c)
    np.subtract(state.v, v_eq, out=a)
    return float((np.sum(b) + delta * np.vdot(a, a)) * grid.cell_volume)


CSV_COLUMNS = (
    "t", "mass_u", "L2_u", "L3_u", "Linf_u", "L2_gradv", "L4_gradv",
    "L6_gradv", "z3", "z45", "H", "clamp_count",
)

# Below this pointwise floor on u the entropy term is treated as undefined
# (vacuum) rather than evaluated into the log divergence.
VACUUM_FLOOR = 1e-12


# Sampled alongside the CSV table for the convergence audit only.
_AUDIT_COLUMNS = ("Linf_v", "dev_linf_u", "dev_linf_v")


@dataclass
class DiagnosticsSeries:
    """Time-indexed table of norms and functionals along one run.

    One list per column, keyed by the CSV_COLUMNS names plus the
    audit-only Linf_v, dev_linf_u and dev_linf_v (the sup norm of v and the
    sup deviations from the positive equilibrium), which the convergence
    audit reads and the CSV table leaves out.
    """

    columns: Dict[str, list] = field(
        default_factory=lambda: {name: [] for name in CSV_COLUMNS + _AUDIT_COLUMNS}
    )
    _scratch: tuple = field(default=(), init=False, repr=False, compare=False)

    @property
    def times(self) -> List[float]:
        return self.columns["t"]

    def sample(
        self,
        state: State,
        grid: Grid,
        params: Parameters,
        clamp_total: int,
        coeffs3: Optional[CoefficientSet3D] = None,
        coeffs45: Optional[CoefficientSet45D] = None,
    ) -> None:
        """Append one row.  |grad v|^2 and the sums of powers are formed once
        (_moments) in two reused scratch fields; sup norms come from extremes."""
        u, v = state.u, state.v
        if not self._scratch or self._scratch[0].shape != u.shape:
            self._scratch = (np.empty(u.shape), np.empty(u.shape))
        m = _moments(state, grid, self._scratch, coeffs3, coeffs45)
        vol = grid.cell_volume
        u_lo, u_hi, v_lo, v_hi = u.min(), u.max(), v.min(), v.max()
        row = {
            "t": float(state.t), "mass_u": float(np.sum(u) * vol),
            "L2_u": (m["uu"] * vol) ** 0.5, "L3_u": (m["|u|^3"] * vol) ** (1 / 3),
            "Linf_u": max(u_hi, -u_lo), "L2_gradv": (m["g"] * vol) ** 0.5,
            "L4_gradv": (m["gg"] * vol) ** 0.25, "L6_gradv": (m["ggg"] * vol) ** (1 / 6),
            "z3": m["z3"] * vol if coeffs3 else math.nan,
            "z45": m["z45"] * vol if coeffs45 else math.nan,
            "H": math.nan, "clamp_count": int(clamp_total), "Linf_v": max(v_hi, -v_lo),
            "dev_linf_u": math.nan, "dev_linf_v": math.nan,
        }
        if params.kappa > 0.0:
            if u_lo > VACUUM_FLOOR:
                row["H"] = lyapunov_H(state, params, grid, self._scratch)
            u_eq = params.kappa / params.mu
            v_eq = params.alpha * params.kappa / (params.beta * params.mu)
            # exact: |x - c| over a field peaks at the field's min or max
            row["dev_linf_u"] = max(u_hi - u_eq, u_eq - u_lo)
            row["dev_linf_v"] = max(v_hi - v_eq, v_eq - v_lo)
        for name, value in row.items():
            self.columns[name].append(value if name == "clamp_count" else float(value))

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(f"unknown diagnostics column {name!r}")
        return np.asarray(self.columns[name], dtype=float)

    def to_csv(self) -> str:
        """Render the specified diagnostic table; empty cells for undefined
        functionals, full double precision otherwise."""
        lines = [",".join(CSV_COLUMNS)]
        lines.extend(
            ",".join(map(_csv_cell, CSV_COLUMNS, row))
            for row in zip(*(self.columns[name] for name in CSV_COLUMNS))
        )
        return "\n".join(lines) + "\n"


def _csv_cell(name: str, value) -> str:
    if name == "clamp_count":
        return "%d" % value
    return "" if math.isnan(value) else "%.17e" % value


@dataclass(frozen=True)
class MassBoundResult:
    passed: bool
    bound: float
    worst_margin: float
    first_violation: Optional[int]


def mass_bound_check(
    series: DiagnosticsSeries,
    source: SourceFunction,
    u0_mass: float,
    volume: float,
    tol: float = 1e-6,
) -> MassBoundResult:
    """Check the integrated-density ceiling from the damping certificate.

    The total mass may never exceed ||u0||_1 + (a + 1/(4 mu)) |Omega| for
    any certificate pair (a, mu) of the source.  A NaN mass is a violation.
    """
    if source.kind == "zero":
        raise ValueError("mass bound needs a damping certificate; f == 0 has none")
    bound = u0_mass + (source.a_cert + 1.0 / (4.0 * source.mu_cert)) * volume + tol
    margins = bound - series.column("mass_u")
    worst = float(np.min(margins)) if margins.size else math.inf
    bad = np.nonzero(~(margins >= 0.0))[0]
    return MassBoundResult(
        passed=bad.size == 0,
        bound=bound,
        worst_margin=worst,
        first_violation=int(bad[0]) if bad.size else None,
    )


@dataclass(frozen=True)
class DecayFit:
    model: str  # "exponential", "algebraic", or "none"
    rate: float
    goodness: float
    window: Tuple[float, float]


def _line_fit(x: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
    """Least-squares slope and R^2; zero-variance targets score 0."""
    sxx = np.sum((x - x.mean()) ** 2)
    syy = np.sum((y - y.mean()) ** 2)
    if syy == 0.0 or sxx == 0.0:
        return 0.0, 0.0
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    resid = y - (y.mean() + slope * (x - x.mean()))
    r2 = 1.0 - float(np.sum(resid**2) / syy)
    return slope, max(0.0, min(1.0, r2))


def fit_decay(
    times: Sequence[float],
    values: Sequence[float],
    window: Optional[Tuple[float, float]] = None,
) -> DecayFit:
    """Fit exponential (ln y vs t) and algebraic (ln y vs ln(1+t)) decay.

    The model with the higher coefficient of determination wins; both
    below 0.9 means no credible decay model ("none").  Non-finite times or
    values are rejected.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise ValueError("decay fitting requires finite times and values")
    if window is None:
        window = (float(t[0]), float(t[-1])) if t.size else (0.0, 0.0)
    mask = (t >= window[0]) & (t <= window[1])
    t, y = t[mask], y[mask]
    if t.size < 10:
        raise ValueError(f"need at least 10 samples in window, got {t.size}")
    if np.any(y <= 0.0):
        raise ValueError("decay fitting requires strictly positive values")
    log_y = np.log(y)
    slope_exp, r2_exp = _line_fit(t, log_y)
    slope_alg, r2_alg = _line_fit(np.log1p(t), log_y)
    if r2_exp < 0.9 and r2_alg < 0.9:
        return DecayFit(model="none", rate=0.0, goodness=0.0, window=window)
    if r2_exp >= r2_alg:
        return DecayFit(
            model="exponential", rate=-slope_exp, goodness=r2_exp, window=window
        )
    return DecayFit(
        model="algebraic", rate=-slope_alg, goodness=r2_alg, window=window
    )


def h_monotonicity_check(
    series: DiagnosticsSeries, tol_factor: float = 1e-8
) -> Tuple[bool, float]:
    """Sampled H(t) may only increase by discretization noise.

    Allows tol_factor * H(0) of increase per elapsed step between samples;
    returns (ok, worst increase observed).
    """
    h = series.column("H")
    valid = ~np.isnan(h)
    h = h[valid]
    if h.size < 2:
        return True, 0.0
    increments = np.diff(h)
    worst = float(np.max(increments))
    return bool(worst <= tol_factor * h[0]), worst


@dataclass(frozen=True)
class AuditResult:
    regime: str
    passed: bool
    details: dict


def convergence_audit(
    series: DiagnosticsSeries,
    params: Parameters,
    threshold_report: Optional[ThresholdReport],
    dim: int,
) -> AuditResult:
    """Check fitted decay rates against the regime's guaranteed rates over
    the second half of the run.

    kappa > 0: exponential rate of the equilibrium deviation must reach
    gamma (a conservative lower bound, so fits normally clear it widely).
    kappa = 0: algebraic exponents of the sup norms must reach 1/(dim+1).
    kappa < 0: exponential rates must reach -kappa/(dim+1) for u and
    min(beta, -kappa)/(2 (dim+1)) for v.

    details holds the report lines of the regime: audit_fit_model,
    audit_fit_rate and audit_gamma for kappa > 0; the fitted rates
    audit_fit_u and audit_fit_v, plus audit_target_exponent for kappa = 0
    or audit_target_u and audit_target_v for kappa < 0.
    """
    t = series.column("t")
    window = (float(t[-1]) / 2.0, float(t[-1]))
    if params.kappa > 0.0:
        if threshold_report is None or threshold_report.gamma is None:
            raise ValueError("kappa > 0 audit needs a report carrying gamma")
        dev = series.column("dev_linf_u") + series.column("dev_linf_v")
        fit = fit_decay(t, dev, window)
        gamma = threshold_report.gamma
        ok = fit.model == "exponential" and fit.rate >= gamma
        details = {"audit_fit_model": fit.model, "audit_fit_rate": fit.rate,
                   "audit_gamma": gamma}
        return AuditResult(regime="kappa>0", passed=ok, details=details)
    fit_u = fit_decay(t, series.column("Linf_u"), window)
    fit_v = fit_decay(t, series.column("Linf_v"), window)
    details = {"audit_fit_u": fit_u.rate, "audit_fit_v": fit_v.rate}
    if params.kappa == 0.0:
        target = 1.0 / (dim + 1.0)
        details["audit_target_exponent"] = target
        ok = (
            fit_u.model == "algebraic"
            and fit_u.rate >= target
            and fit_v.model == "algebraic"
            and fit_v.rate >= target
        )
        return AuditResult(regime="kappa=0", passed=ok, details=details)
    target_u = -params.kappa / (dim + 1.0)
    target_v = min(params.beta, -params.kappa) / (2.0 * (dim + 1.0))
    details.update(audit_target_u=target_u, audit_target_v=target_v)
    ok = (
        fit_u.model == "exponential"
        and fit_u.rate >= target_u
        and fit_v.model == "exponential"
        and fit_v.rate >= target_v
    )
    return AuditResult(regime="kappa<0", passed=ok, details=details)
