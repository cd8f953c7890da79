"""Norms, coupled functionals, Lyapunov monitoring, and decay-rate fits.

All quadrature is the midpoint rule on cell-centered fields; gradients of
the signal are reconstructed from face differences so the monitored
functionals see exactly the discrete fields the solver evolves.  The
coupled functional sampled is the paper's z3 (n = 3); the 4/5-D sets of the
thresholds layer concern domains that no 1- to 3-D grid holds, so no run
samples them.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .params import Grid, Parameters, SourceFunction, State
from .thresholds import CoefficientSet3D, ThresholdReport

__all__ = [
    "grad_magnitude_squared",
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


def grad_magnitude_squared(v: np.ndarray, grid: Grid, out=None, tmp=None) -> np.ndarray:
    """Cell-centered |grad v|^2 from central differences (v_{i+1} - v_{i-1})
    / 2h with v_{-1} = v_0 and v_n = v_{n-1}: the average of the two face
    differences around a cell, with zero difference on the boundary faces
    (the solver's no-flux closure).  v may stack points along a leading
    axis.  out and tmp (contiguous, shaped like v) take the result and the
    per-axis differences when given."""
    v = np.asarray(v, dtype=float)
    lead = v.ndim - grid.dim
    out, tmp = (np.empty_like(v) if a is None else a for a in (out, tmp))
    flat = v.reshape(-1)
    for axis in range(grid.dim):
        def at(*bounds):
            return (slice(None),) * (lead + axis) + (slice(*bounds),)
        # interior cells in one flat pass; the two boundary planes, where the
        # shifted pass crosses lines or points, are overwritten next
        stride = math.prod(grid.cells[axis + 1:])
        interior = tmp.reshape(-1)[stride:-stride]
        np.subtract(flat[2 * stride:], flat[:-2 * stride], out=interior)
        np.subtract(v[at(1, 2)], v[at(1)], out=tmp[at(1)])
        np.subtract(v[at(-1, None)], v[at(-2, -1)], out=tmp[at(-1, None)])
        tmp *= 0.5 / grid.spacing[axis]
        np.multiply(tmp, tmp, out=tmp if axis else out)
        if axis:
            out += tmp
    return out


def _sums(x: np.ndarray) -> np.ndarray:
    """Per-point sums of a stack: one pairwise sum each, as np.sum of the point."""
    return x.reshape(len(x), -1).sum(axis=1)


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-point <x, y> of two stacks in numpy's loop: BLAS rounds by its thread count."""
    return np.einsum("ij,ij->i", x.reshape(len(x), -1), y.reshape(len(y), -1))


def _moments(u, v, grid: Grid, scratch=None, c3=()) -> List[Dict[str, float]]:
    """Per point of the stacks u and v (leading point axis): cell sums of
    products of u and g = |grad v|^2 keyed by their factors ("ug" sums
    u g), "|u|^3", and "z3" (over the cell volume) for the points'
    coefficient sets in c3 (None: no set); scratch is two stacks, for g and
    for work."""
    g, a = scratch or (np.empty_like(u), np.empty_like(u))
    grad_magnitude_squared(v, grid, out=g, tmp=a)
    m = {"u": _sums(u), "g": _sums(g), "ug": _dots(u, g)}
    np.multiply(g, g, out=a)
    m.update(gg=_sums(a), ggg=_dots(a, g))
    np.multiply(u, u, out=a)
    m["uu"] = _sums(a)
    m["|u|^3"] = _dots(a, np.abs(u, out=g))
    points = [dict(zip(m, sums)) for sums in zip(*(x.tolist() for x in m.values()))]
    for p, c in zip(points, c3):
        if c:
            p["z3"] = c.delta1 * p["uu"] + c.delta2 * p["ug"] + c.delta3 * p["gg"]
    return points


def _entropy(u, v, params: Sequence[Parameters], grid: Grid, scratch=None) -> List[float]:
    """The paper's Lyapunov functional per point of the stacks u and v, one
    Parameters per point: an entropy-like distance to the positive equilibrium,
    H = int (u - c - c ln(u/c)) + delta int (v - alpha kappa/(beta mu))^2
    with c = kappa/mu and delta = kappa chi^2 / (8 d1 d2 mu), nonnegative and
    zero exactly there.  Defined only for kappa > 0 and u > 0 (sample writes
    NaN elsewhere); scratch is two stacks to work in instead of fresh ones."""
    column = (len(u),) + (1,) * grid.dim
    c = np.reshape([p.kappa / p.mu for p in params], column)
    v_eq = np.reshape([p.alpha * p.kappa / (p.beta * p.mu) for p in params], column)
    delta = [p.kappa * p.chi**2 / (8.0 * p.d1 * p.d2 * p.mu) for p in params]
    a, b = scratch or (np.empty_like(u), np.empty_like(u))
    with np.errstate(over="ignore"):  # u/c past the largest double: redone below
        np.divide(u, c, out=a)
    np.multiply(np.log(a, out=a), c, out=a)
    np.subtract(np.subtract(u, c, out=b), a, out=b)  # u - c - c ln(u/c)
    np.subtract(v, v_eq, out=a)
    vol = grid.cell_volume
    sums, squares = _sums(b).tolist(), _dots(a, a).tolist()
    for i, s in enumerate(sums):
        if s == -math.inf:  # an overflowed u/c; ln u - ln c forms no quotient
            ci = c.flat[i]
            sums[i] = float(np.sum(u[i] - ci - ci * (np.log(u[i]) - math.log(ci))))
    return [(s + d * q) * vol for s, d, q in zip(sums, delta, squares)]


CSV_COLUMNS = (
    "t", "mass_u", "L2_u", "L3_u", "Linf_u", "L2_gradv", "L4_gradv",
    "L6_gradv", "z3", "H", "clamp_count",
)

# Below this pointwise floor on u the entropy term is treated as undefined
# (vacuum) rather than evaluated into the log divergence.
VACUUM_FLOOR = 1e-12


# Sampled alongside the CSV table for the convergence audit only.
_AUDIT_COLUMNS = ("Linf_v", "dev_linf_u", "dev_linf_v")


@dataclass
class DiagnosticsSeries:
    """Time-indexed table of norms and functionals along one run.

    One compact array per column (8 bytes a value: "d" doubles, "q" for
    clamp_count), keyed by the CSV_COLUMNS names plus the audit-only Linf_v,
    dev_linf_u and dev_linf_v (the sup norm of v and the sup deviations from
    the positive equilibrium), which the convergence audit reads and the CSV
    table leaves out.
    """

    columns: Dict[str, array] = field(
        default_factory=lambda: {
            name: array("q" if name == "clamp_count" else "d")
            for name in CSV_COLUMNS + _AUDIT_COLUMNS
        }
    )

    @property
    def times(self) -> array:
        return self.columns["t"]

    @staticmethod
    def sample(
        series: Sequence["DiagnosticsSeries"],
        state: State,
        grid: Grid,
        params: Sequence[Parameters],
        clamp_total: Sequence[int],
        coeffs3: Optional[Sequence[Optional[CoefficientSet3D]]] = None,
        scratch: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        """Append a row to series[i] from row i of a stacked state (fields
        (P, *grid.cells), an array t) for every row i; params, clamp_total
        and the z3 sets coeffs3 hold one entry per row (None: no set).  A
        series may sit at several rows, and then takes their rows in row
        order.  Every reduction is per row, so a row's values do not depend
        on the other rows of the call.  scratch is two contiguous stacks
        shaped like the fields to work in; without it the call allocates
        two.
        """
        u, v = state.u, state.v
        sets3 = coeffs3 or [None] * len(series)
        scratch = scratch or (np.empty(u.shape), np.empty(u.shape))
        moments = _moments(u, v, grid, scratch, sets3)
        u_lo, u_hi, v_lo, v_hi = (
            reduce(x.reshape(len(x), -1), axis=1).tolist()
            for x in (u, v) for reduce in (np.min, np.max)
        )
        # H only where it is defined; other points' fields stay out of the logs
        entropic = [
            i for i, p in enumerate(params) if p.kappa > 0.0 and u_lo[i] > VACUUM_FLOOR
        ]
        h = {}
        if entropic:
            rows = slice(None) if len(entropic) == len(params) else entropic
            scratch = tuple(a[: len(entropic)] for a in scratch)
            values = _entropy(u[rows], v[rows], [params[i] for i in entropic], grid, scratch)
            h = dict(zip(entropic, values))
        times = state.t.tolist()
        vol = grid.cell_volume
        for i, (target, p, m) in enumerate(zip(series, params, moments)):
            dev_u = dev_v = math.nan
            if p.kappa > 0.0:
                u_eq = p.kappa / p.mu
                v_eq = p.alpha * p.kappa / (p.beta * p.mu)
                # exact: |x - c| over a field peaks at the field's min or max
                dev_u = max(u_hi[i] - u_eq, u_eq - u_lo[i])
                dev_v = max(v_hi[i] - v_eq, v_eq - v_lo[i])
            c = target.columns
            c["t"].append(times[i])
            c["mass_u"].append(m["u"] * vol)
            c["L2_u"].append((m["uu"] * vol) ** 0.5)
            c["L3_u"].append((m["|u|^3"] * vol) ** (1 / 3))
            c["Linf_u"].append(max(u_hi[i], -u_lo[i]))
            c["L2_gradv"].append((m["g"] * vol) ** 0.5)
            c["L4_gradv"].append((m["gg"] * vol) ** 0.25)
            c["L6_gradv"].append((m["ggg"] * vol) ** (1 / 6))
            c["z3"].append(m["z3"] * vol if sets3[i] else math.nan)
            c["H"].append(h.get(i, math.nan))
            c["clamp_count"].append(int(clamp_total[i]))
            c["Linf_v"].append(max(v_hi[i], -v_lo[i]))
            c["dev_linf_u"].append(dev_u)
            c["dev_linf_v"].append(dev_v)

    def column(self, name: str) -> np.ndarray:
        """A copy of the column as floats: a view of the live array would
        block its appends."""
        if name not in self.columns:
            raise KeyError(f"unknown diagnostics column {name!r}")
        return np.array(self.columns[name], dtype=float)

    def to_csv(self) -> str:
        """Render the specified diagnostic table; empty cells for undefined
        functionals, full double precision otherwise."""
        lines = [",".join(CSV_COLUMNS)]
        lines.extend(
            ",".join(map(_csv_cell, CSV_COLUMNS, row))
            for row in zip(*(self.columns[name] for name in CSV_COLUMNS))
        )
        lines.append("")  # the final newline, without a copy of the text
        return "\n".join(lines)


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
    if source.mu_cert == 0.0:
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
