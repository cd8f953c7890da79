"""Closed-form damping thresholds, coefficient selection, and system checks.

Implements the damping threshold mu0 (below which aggregation may win) for
n = 3, 4, 5, the convergence threshold mu1 with its explicit exponential
rate gamma, the two-variable minimization h(n, d1, d2) entering the 4/5-D
threshold, and the selection/verification of the epsilon/delta coefficients
that make the coupled Gronwall inequality systems feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .params import Parameters, validate

__all__ = [
    "BRANCH_CONVEX",
    "BRANCH_GENERAL",
    "mu0_general",
    "mu1",
    "gamma_rate",
    "h_objective",
    "minimize_h",
    "HMinimum",
    "CoefficientSet3D",
    "CoefficientSet45D",
    "InequalityCheck",
    "SystemCheck",
    "coefficient_recipe_3d",
    "select_coefficients_3d",
    "verify_system_3d",
    "select_coefficients_45d",
    "verify_system_45d",
    "ThresholdReport",
    "report",
]

BRANCH_CONVEX = "convex-equal-diffusion"
BRANCH_GENERAL = "general"

# Strict inequalities pass when margin > REL_MARGIN * scale, non-strict when
# margin >= -REL_MARGIN * scale; keeps verdicts robust near the threshold.
REL_MARGIN = 1e-12

# the search grid's axis as fractions of (d1, d2), and select_coefficients_45d's
# eps3 multiples of chi^2/mu
_GRID_FACTORS = np.geomspace(1e-3, 0.999, 64)
_EPS3_FACTORS = np.geomspace(1e-3, 1e3, 17)


def _require_dimension(n: int) -> None:
    if n not in (3, 4, 5):
        raise ValueError(
            "n must be 3, 4, or 5: the damping threshold in higher dimensions "
            "is conjectural and deliberately unsupported"
        )


def _nonconvex_base(n: int, d1: float, d2: float) -> float:
    return n / (math.sqrt(2.0 * n + 4.0) - 2.0) * (1.0 / d1 + 2.0 / d2)


def _interior(eps, eta, d1: float, d2: float):
    """(inside, e, g) over the broadcast shape of eps and eta: the mask of
    the open rectangle (0, d1) x (0, d2), and eps and eta with the
    rectangle's centre at points outside it."""
    eps, eta = np.broadcast_arrays(np.asarray(eps, float), np.asarray(eta, float))
    inside = (eps > 0.0) & (eps < d1) & (eta > 0.0) & (eta < d2)
    return inside, np.where(inside, eps, 0.5 * d1), np.where(inside, eta, 0.5 * d2)


def h_objective(n, d1, d2, eps, eta):
    """Objective of the 4/5-D threshold minimization over (eps, eta).

    Infinite outside the open rectangle (0, d1) x (0, d2); diverges at every
    edge, so the minimizer is strictly interior.  Returns an array of the
    broadcast shape of eps and eta (0-d for scalars).
    """
    inside, e, g = _interior(eps, eta, d1, d2)
    t1 = np.sqrt(n / (18.0 * d2 * e))
    t2 = np.sqrt((1.0 / (2.0 * e)) * (1.0 / g + n / (2.0 * d2)))
    bracket = math.sqrt(2.0) + (d1 + d2) / (2.0 * np.sqrt((d1 - e) * (d2 - g)))
    t3 = np.sqrt((1.0 / (d2 - g)) * (2.0 / g + n / (2.0 * d2))) * bracket
    return np.where(inside, t1 + t2 + t3, np.inf)


@dataclass(frozen=True)
class HMinimum:
    value: float
    eps: float
    eta: float


def _grid_compass_min(
    f, d1: float, d2: float, stop: Optional[float] = None
) -> Tuple[float, float, float]:
    """Minimize f(eps, eta) over (0, d1) x (0, d2); returns (value, eps, eta).

    The best cell of a 64x64 logarithmic grid (f must accept arrays) seeds a
    compass search: 40 rounds with steps (d1, d2)/8 halved each round.  An
    iteration polls (x +- sx, y) and (x, y +- sy) around its starting point
    in that order, moving to each poll that beats the best value so far; a
    round repeats while an iteration moves, at most 200 times.  One call of
    f evaluates the polls at the current step and at every later one; the
    result is bit-identical to polling one point per call as long as f's
    array operations round like its scalar ones.

    With stop, the search returns as soon as its best value is at most
    stop, after the grid or after an iteration that moved.  The best value
    never rises, so whether the minimum is <= stop is the full search's
    answer.  A NaN best value never satisfies <=, so such a search runs to
    the end.
    """
    ee, gg = np.meshgrid(d1 * _GRID_FACTORS, d2 * _GRID_FACTORS, indexing="ij")
    vals = f(ee, gg)
    k = int(np.argmin(vals))
    x, y, fx = float(ee.flat[k]), float(gg.flat[k]), float(vals.flat[k])
    rounds, polls = 0, 0
    while rounds < 40 and not (stop is not None and fx <= stop):
        halving = 0.5 ** np.arange(rounds, 40)[:, None]
        cx = x + d1 / 8.0 * halving * (1.0, -1.0, 0.0, 0.0)
        cy = y + d2 / 8.0 * halving * (0.0, 0.0, 1.0, -1.0)
        vals = f(cx, cy).tolist()
        for row, polled in enumerate(vals):
            polls += 1
            moved = False
            for col, fc in enumerate(polled):
                if fc < fx:
                    x, y, fx = float(cx[row, col]), float(cy[row, col]), fc
                    moved = True
            if moved:
                if polls >= 200:
                    rounds, polls = rounds + 1, 0
                break
            rounds, polls = rounds + 1, 0
    return fx, x, y


@lru_cache(maxsize=256)
def minimize_h(n: int, d1: float, d2: float) -> HMinimum:
    """Global minimum of the threshold objective over (0, d1) x (0, d2)."""
    if n not in (4, 5):
        raise ValueError(f"h(n, d1, d2) is defined for n in {{4, 5}}, got {n}")
    if d1 <= 0.0 or d2 <= 0.0:
        raise ValueError("d1 and d2 must be positive")
    value, eps, eta = _grid_compass_min(
        lambda e, g: h_objective(n, d1, d2, e, g), d1, d2
    )
    return HMinimum(value=value, eps=eps, eta=eta)


def mu0_general(params: Parameters, convex: bool = False) -> Tuple[float, str]:
    """Damping threshold for n in {3, 4, 5}; returns (value, branch).

    The clean branch (n/(4 d1)) alpha chi applies only for equal diffusion,
    attractive chemotaxis, and a convex domain.  Otherwise the general
    branch is n/(sqrt(2n+4)-2) (1/d1 + 2/d2) alpha |chi|, raised for
    n = 4, 5 to h(n, d1, d2)/3 alpha |chi| when that is larger: for d1/d2
    above 19.86 (n = 4) or 21.22 (n = 5).  There mu0 rises with d1, so it
    is not monotone in d1, unlike the abstract's claim for mu0.
    """
    validate(params)
    _require_dimension(params.n)
    if convex and params.d1 == params.d2 and params.chi > 0.0:
        value = params.n / (4.0 * params.d1) * params.alpha * params.chi
        return value, BRANCH_CONVEX
    base = _nonconvex_base(params.n, params.d1, params.d2)
    if params.n > 3:
        base = max(minimize_h(params.n, params.d1, params.d2).value / 3.0, base)
    return base * params.alpha * abs(params.chi), BRANCH_GENERAL


def mu1(params: Parameters) -> float:
    """Convergence threshold: 0 for kappa <= 0, else the explicit formula."""
    validate(params)
    if params.kappa <= 0.0:
        return 0.0
    return (
        params.alpha
        * abs(params.chi)
        / 4.0
        * math.sqrt(params.kappa / (params.d1 * params.d2 * params.beta))
    )


def gamma_rate(params: Parameters) -> Tuple[float, float]:
    """Exponential convergence rate gamma and its auxiliary constant eps0.

    Defined for kappa > 0, chi != 0, and mu > mu1; both outputs are strictly
    positive there.  The rate is a conservative lower bound on the observed
    decay speed.
    """
    validate(params)
    if params.kappa <= 0.0:
        raise ValueError("gamma is defined only for kappa > 0")
    if params.chi == 0.0:
        raise ValueError(
            "gamma's closed form degenerates at chi = 0 (eps0 is unbounded); "
            "the decoupled system converges at the linear rates instead"
        )
    threshold = mu1(params)
    if params.mu <= threshold:
        raise ValueError(
            f"gamma requires mu > mu1 = {threshold}, got mu = {params.mu}"
        )
    d1, d2, chi = params.d1, params.d2, params.chi
    alpha, beta, kappa, mu_ = params.alpha, params.beta, params.kappa, params.mu
    chi2 = chi * chi
    eps0 = 0.5 * (alpha / (4.0 * beta) + 4.0 * d1 * d2 * mu_ * mu_ / (alpha * kappa * chi2))
    coeff = kappa * chi2 / (4.0 * d1 * d2 * mu_)
    numerator = min(
        mu_ - alpha * coeff * eps0,
        coeff * (beta - alpha / (4.0 * eps0)),
    )
    denominator = (params.n + 2) * max(mu_ / kappa, kappa * chi2 / (8.0 * d1 * d2 * mu_))
    gamma = numerator / denominator
    return gamma, eps0


# ---------------------------------------------------------------------------
# Coefficient sets and inequality-system verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientSet3D:
    """Weights for the 3-D coupled functional and its dissipation system."""

    eps1: float
    eps2: float
    eps3: float
    eps4: float
    delta1: float
    delta2: float
    delta3: float

    def __post_init__(self):
        if not (self.eps1 > 0 and self.eps2 > 0 and self.eps3 > 0 and self.eps4 > 0):
            raise ValueError("all eps must be positive")
        if not (self.delta1 > 0 and self.delta2 > 0 and self.delta3 > 0):
            raise ValueError("all delta must be positive")


@dataclass(frozen=True)
class CoefficientSet45D:
    """Weights for the 4/5-D coupled functional and its dissipation system."""

    eps: float
    eta: float
    eps1: float
    eps2: float
    eps3: float
    eps4: float
    delta1: float
    delta2: float
    delta3: float
    delta4: float

    def __post_init__(self):
        vals = (
            self.eps, self.eta, self.eps1, self.eps2, self.eps3, self.eps4,
            self.delta1, self.delta2, self.delta3, self.delta4,
        )
        if not all(v > 0 for v in vals):
            raise ValueError("all coefficients must be positive")


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    margin: float
    scale: float
    strict: bool

    @property
    def passed(self) -> bool:
        tol = REL_MARGIN * self.scale
        return self.margin > tol if self.strict else self.margin >= -tol


@dataclass(frozen=True)
class SystemCheck:
    checks: Tuple[InequalityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def margins(self) -> Tuple[float, ...]:
        return tuple(c.margin for c in self.checks)

    def failed_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)


def _check(name: str, terms, strict: bool) -> InequalityCheck:
    margin = float(sum(terms))
    scale = float(sum(abs(t) for t in terms))
    return InequalityCheck(name=name, margin=margin, scale=scale, strict=strict)


def verify_system_3d(
    params: Parameters, mu: float, c: CoefficientSet3D
) -> SystemCheck:
    """Evaluate the four dissipation inequalities of the 3-D system.

    The first three are strict, the fourth non-strict; failure is a valid
    result and is reported through the per-inequality margins.
    """
    validate(params)
    n, d1, d2 = params.n, params.d1, params.d2
    alpha, chi2 = params.alpha, params.chi * params.chi
    dsum2 = (d1 + d2) ** 2
    checks = (
        _check(
            "gradient-dissipation",
            (2.0 * (d1 - c.eps1) * c.delta1, -dsum2 / (4.0 * c.eps4) * c.delta2),
            strict=True,
        ),
        _check(
            "cubic-damping",
            (2.0 * mu * c.delta1, -n * alpha**2 / (8.0 * d2) * c.delta2),
            strict=True,
        ),
        _check(
            "signal-gradient-dissipation",
            (2.0 * (d2 - c.eps2) * c.delta3, -(c.eps3 + c.eps4) * c.delta2),
            strict=True,
        ),
        _check(
            "cross-term-absorption",
            (
                (mu - chi2 / (4.0 * c.eps3)) * c.delta2,
                -2.0 * (n / (2.0 * d2) + 1.0 / c.eps2) * alpha**2 * c.delta3,
                -chi2 / (2.0 * c.eps1) * c.delta1,
            ),
            strict=False,
        ),
    )
    return SystemCheck(checks=checks)


def coefficient_recipe_3d(params: Parameters, mu: float) -> CoefficientSet3D:
    """Deterministic epsilon/delta recipe for the 3-D system at a given mu.

    The eps values are the unique minimizers of the threshold expression:

        eps1 = d1/2
        eps2 = (sqrt(10)-2) d2 / 3
        eps3 = (sqrt(10)-2) d2 |chi| / (6 alpha)
        eps4 = (sqrt(10)-2) (d1+d2) d2 |chi| / (6 d1 alpha)

    With delta2 = 1, the deltas sit just above their binding lower bounds
    from the first three inequalities.  The increment is scaled to the
    damping slack mu - mu0: with these eps the fourth inequality reads
    mu >= mu0 + (B + C) * s for increment s, so s = (mu - mu0)/(2(B + C))
    leaves exactly half of the slack as the fourth margin.  A fixed
    increment would overrun the slack for mu near mu0.  At mu <= mu0 a
    small positive increment is used so the recipe stays well defined; the
    fourth inequality then fails, as it must.
    """
    validate(params)
    if params.n != 3:
        raise ValueError(f"3-D coefficient recipe requires n = 3, got {params.n}")
    if params.chi == 0.0:
        raise ValueError(
            "coefficient selection is undefined at chi = 0 (eps3 and eps4 "
            "degenerate); boundedness without chemotaxis needs no weights"
        )
    d1, d2, alpha = params.d1, params.d2, params.alpha
    abs_chi = abs(params.chi)
    chi2 = params.chi * params.chi
    root = math.sqrt(10.0) - 2.0

    eps1 = d1 / 2.0
    eps2 = root * d2 / 3.0
    eps3 = root * d2 * abs_chi / (6.0 * alpha)
    eps4 = root * (d1 + d2) * d2 * abs_chi / (6.0 * d1 * alpha)

    low3 = (eps3 + eps4) / (2.0 * (d2 - eps2))
    low1_grad = (d1 + d2) ** 2 / (8.0 * eps4 * (d1 - eps1))
    low1_damp = (alpha**2 / (16.0 * d2)) * root / ((1.0 / d1 + 2.0 / d2) * alpha * abs_chi)
    low1 = max(low1_grad, low1_damp)

    b_coeff = 2.0 * (3.0 / (2.0 * d2) + 1.0 / eps2) * alpha**2
    c_coeff = chi2 / (2.0 * eps1)
    mu_floor = chi2 / (4.0 * eps3) + b_coeff * low3 + c_coeff * low1
    slack = mu - mu_floor
    if slack > 0.0:
        s = slack / (2.0 * (b_coeff + c_coeff))
    else:
        s = 1e-3 * (low1 + low3)
    return CoefficientSet3D(
        eps1=eps1,
        eps2=eps2,
        eps3=eps3,
        eps4=eps4,
        delta1=low1 + s,
        delta2=1.0,
        delta3=low3 + s,
    )


def _require_above_mu0(params: Parameters, mu: float) -> float:
    """mu0 on the general branch; raises unless mu exceeds it."""
    threshold, _ = mu0_general(params, convex=False)
    if mu <= threshold:
        raise ValueError(
            f"coefficient selection requires mu > mu0 = {threshold}, got {mu}"
        )
    return threshold


def select_coefficients_3d(params: Parameters, mu: float) -> CoefficientSet3D:
    """Select a coefficient set that verifies the 3-D system for mu > mu0."""
    _require_above_mu0(params, mu)
    coeffs = coefficient_recipe_3d(params, mu)
    check = verify_system_3d(params, mu, coeffs)
    if not check.passed:
        raise RuntimeError(
            f"recipe produced a non-verifying set: {check.failed_names()}"
        )
    return coeffs


def verify_system_45d(
    params: Parameters, mu: float, c: CoefficientSet45D
) -> SystemCheck:
    """Evaluate the seven 4/5-D dissipation inequalities plus the ratio
    constraint coupling the third and fourth of them."""
    validate(params)
    return _system_45d(params, mu, c)


def _system_45d(params: Parameters, mu: float, c: CoefficientSet45D) -> SystemCheck:
    """verify_system_45d on params already validated."""
    n, d1, d2 = params.n, params.d1, params.d2
    alpha, chi2 = params.alpha, params.chi * params.chi
    dsum2 = (d1 + d2) ** 2
    checks = (
        _check(
            "cell-gradient-dissipation",
            (6.0 * (d1 - c.eps) * c.delta1, -2.0 * c.eps4 * c.delta2),
            strict=True,
        ),
        _check(
            "signal-gradient-dissipation",
            (6.0 * (d2 - c.eta) * c.delta4, -2.0 * (c.eps1 + c.eps2) * c.delta3),
            strict=True,
        ),
        _check(
            "mixed-gradient-u",
            (2.0 * (d1 - c.eps) * c.delta2, -dsum2 / (2.0 * c.eps2) * c.delta3),
            strict=False,
        ),
        _check(
            "mixed-gradient-v",
            (
                2.0 * (d2 - c.eta) * c.delta3,
                -(2.0 * c.eps3 + dsum2 / (2.0 * c.eps4)) * c.delta2,
            ),
            strict=False,
        ),
        _check(
            "quartic-damping",
            (3.0 * mu * c.delta1, -n * alpha**2 / (18.0 * d2) * c.delta2),
            strict=False,
        ),
        _check(
            "cubic-cross-absorption",
            (
                (2.0 * mu - chi2 / (2.0 * c.eps3)) * c.delta2,
                -3.0 * chi2 / (2.0 * c.eps) * c.delta1,
                -alpha**2 / 2.0 * (1.0 / c.eta + n / (2.0 * d2)) * c.delta3,
            ),
            strict=False,
        ),
        _check(
            "quadratic-cross-absorption",
            (
                (mu - chi2 / (2.0 * c.eps1)) * c.delta3,
                -chi2 / (2.0 * c.eps) * c.delta2,
                -3.0 * (2.0 * alpha**2 / c.eta + n * alpha**2 / (2.0 * d2)) * c.delta4,
            ),
            strict=False,
        ),
        _ratio_window_check(d1, d2, dsum2, c),
    )
    return SystemCheck(checks=checks)


def _ratio_window_check(d1, d2, dsum2, c: CoefficientSet45D) -> InequalityCheck:
    # degenerate eps >= d1 or eta >= d2 leaves no admissible ratio at all
    denom = 4.0 * c.eps2 * (d1 - c.eps)
    if denom <= 0.0 or c.eta >= d2:
        return InequalityCheck(
            name="delta-ratio-window", margin=-math.inf, scale=1.0, strict=False
        )
    return _check(
        "delta-ratio-window",
        (
            2.0 * (d2 - c.eta) / (2.0 * c.eps3 + dsum2 / (2.0 * c.eps4)),
            -dsum2 / denom,
        ),
        strict=False,
    )


def _candidates_45d(params, mu, eps, eta, eps3, w=1e-6):
    """Enumerate verifying coefficient sets for fixed (eps, eta, eps3).

    With delta2 normalized to 1, eps1 at its cross-term minimizer, and eps2
    tied to delta3 through the mixed-gradient-u inequality, the
    quadratic-cross-absorption inequality confines delta3 to an explicit
    window; eps4 is then derived from the mixed-gradient-v equality at each
    trial delta3 (the required eps4 spans many orders of magnitude, so it
    cannot be gridded).  Yields (min normalized margin, coefficient set).
    """
    n, d1, d2 = params.n, params.d1, params.d2
    alpha, chi2 = params.alpha, params.chi * params.chi
    if not (0.0 < eps < d1 and 0.0 < eta < d2 and eps3 > 0.0):
        return
    dsum2 = (d1 + d2) ** 2
    a_cross = alpha**2 * (2.0 / eta + n / (2.0 * d2))
    a_mixed = alpha**2 * (1.0 / eta + n / (2.0 * d2))
    eps1 = abs(params.chi) * math.sqrt((d2 - eta) / (2.0 * a_cross))

    # quadratic-cross-absorption window: -E d3^2 + M d3 - K >= 0
    m_lin = mu - chi2 / (2.0 * eps1) - (1.0 + w) * a_cross * eps1 / (d2 - eta)
    if m_lin <= 0.0:
        return
    e_quad = (1.0 + w) ** 2 * a_cross * dsum2 / (4.0 * (d1 - eps) * (d2 - eta))
    k_const = chi2 / (2.0 * eps)
    disc = m_lin * m_lin - 4.0 * e_quad * k_const
    if disc < 0.0:
        return
    root = math.sqrt(disc)
    lo = (m_lin - root) / (2.0 * e_quad) * (1.0 + w)
    # cubic-cross-absorption cap, optimistic in delta1 (rechecked by verify)
    num6 = (
        2.0 * mu
        - chi2 / (2.0 * eps3)
        - 3.0 * chi2 / (2.0 * eps) * n * alpha**2 / (54.0 * d2 * mu)
    )
    if num6 <= 0.0:
        return
    hi = min((m_lin + root) / (2.0 * e_quad), num6 / (a_mixed / 2.0))
    if lo > hi:
        return
    for q in (0.5, 0.8, 0.2, 0.95):
        delta3 = lo * (hi / lo) ** q
        gap = (d2 - eta) * delta3 / (1.0 + w) ** 2 - eps3
        if gap <= 0.0:
            continue
        eps4 = dsum2 / (4.0 * gap)
        delta1 = (1.0 + w) * max(
            eps4 / (3.0 * (d1 - eps)), n * alpha**2 / (54.0 * d2 * mu)
        )
        eps2 = (1.0 + w) * dsum2 * delta3 / (4.0 * (d1 - eps))
        delta4 = (1.0 + w) * (eps1 + eps2) * delta3 / (3.0 * (d2 - eta))
        try:
            cand = CoefficientSet45D(
                eps=eps, eta=eta, eps1=eps1, eps2=eps2, eps3=eps3, eps4=eps4,
                delta1=delta1, delta2=1.0, delta3=delta3, delta4=delta4,
            )
        except ValueError:
            continue
        check = _system_45d(params, mu, cand)
        if not check.passed:
            continue
        score = min(
            c.margin / c.scale if c.scale > 0.0 else math.inf
            for c in check.checks
        )
        yield score, cand


def _relaxed_overlap_45d(params, mu, eps, eta):
    """Feasibility margin of a provable relaxation of the 4/5-D system.

    For fixed (eps, eta) the relaxation keeps, with delta2 = 1:
      * quadratic-cross-absorption with delta4 at its dissipation bound,
        eps2 at its mixed-gradient-u bound, and eps1 at its minimizer:
        -E d3^2 + M d3 - K >= 0;
      * cubic-cross-absorption with delta1 at its damping bound and eps3 at
        its mixed-gradient-v ceiling eta3 <= d3 (d2 - eta):
        -B d3^2 + C d3 - D >= 0.
    Every verifying coefficient set yields a d3 in both windows, so a
    negative overlap for all (eps, eta) certifies infeasibility at this mu.
    Returns the overlap length (negative when the windows miss), or -inf.
    """
    n, d1, d2 = params.n, params.d1, params.d2
    alpha, chi2 = params.alpha, params.chi * params.chi
    inside, e, g = _interior(eps, eta, d1, d2)
    dsum2 = (d1 + d2) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        xt2 = (2.0 / g + n / (2.0 * d2)) / (d2 - g)
        a_cross = alpha**2 * xt2 * (d2 - g)
        a_mixed = alpha**2 * (1.0 / g + n / (2.0 * d2))
        m_lin = mu - alpha * abs(params.chi) * math.sqrt(2.0) * np.sqrt(xt2)
        e_quad = a_cross * dsum2 / (4.0 * (d1 - e) * (d2 - g))
        k_const = chi2 / (2.0 * e)
        disc7 = m_lin * m_lin - 4.0 * e_quad * k_const
        ok7 = inside & (m_lin > 0.0) & (disc7 >= 0.0)
        root7 = np.sqrt(np.where(ok7, disc7, 0.0))
        lo7 = (m_lin - root7) / (2.0 * e_quad)
        hi7 = (m_lin + root7) / (2.0 * e_quad)

        b_quad = a_mixed / 2.0
        c_lin = 2.0 * mu - chi2 * n * alpha**2 / (36.0 * d2 * mu * e)
        d_const = chi2 / (2.0 * (d2 - g))
        disc6 = c_lin * c_lin - 4.0 * b_quad * d_const
        ok6 = inside & (c_lin > 0.0) & (disc6 >= 0.0)
        root6 = np.sqrt(np.where(ok6, disc6, 0.0))
        lo6 = (c_lin - root6) / (2.0 * b_quad)
        hi6 = (c_lin + root6) / (2.0 * b_quad)

        overlap = np.minimum(hi7, hi6) - np.maximum(lo7, lo6)
    return np.where(ok6 & ok7, overlap, -np.inf)


def _max_relaxed_overlap_45d(params, mu, stop=None):
    """Maximize the relaxed overlap over (eps, eta); returns (value, eps, eta).

    stop bounds the negated overlap as in _grid_compass_min.
    """
    value, eps, eta = _grid_compass_min(
        lambda e, g: -_relaxed_overlap_45d(params, mu, e, g), params.d1, params.d2, stop
    )
    return -value, eps, eta


def _relaxation_feasible(params, mu) -> bool:
    """Whether the maximized relaxed overlap at mu is nonnegative, decided
    by the first point with overlap >= 0 (stop = -0.0 on its negation)."""
    return _max_relaxed_overlap_45d(params, mu, -0.0)[0] >= 0.0


def feasibility_floor_45d(params: Parameters) -> float:
    """The damping up to which a search finds the 4/5-D relaxation
    infeasible: a search result, not a proven lower bound.

    Every verifying mu gives a nonempty overlap of two quadratic windows in
    delta3 (_relaxed_overlap_45d).  40 geometric bisection steps over
    [mu0, 64 mu0], each on the sign of the overlap maximized by
    _grid_compass_min (stopped at the first point with overlap >= 0, so the
    decisions are those of full searches bit for bit), return the largest mu
    found infeasible.  The search samples (eps, eta) and can miss a feasible
    region smaller than its grid cells, so a finer one may find overlap >= 0
    below the floor.
    """
    validate(params)
    if params.n not in (4, 5):
        raise ValueError("the feasibility floor applies to n in {4, 5}")
    if params.chi == 0.0:
        return 0.0
    mu0_value, _ = mu0_general(params, convex=False)
    lo, hi = mu0_value, 64.0 * mu0_value
    if _relaxation_feasible(params, lo):
        return lo
    if not _relaxation_feasible(params, hi):
        return hi
    for _ in range(40):
        mid = math.sqrt(lo * hi)
        if _relaxation_feasible(params, mid):
            hi = mid
        else:
            lo = mid
    return lo


def select_coefficients_45d(params: Parameters, mu: float) -> CoefficientSet45D:
    """Select a verifying coefficient set for the 4/5-D system at mu > mu0.

    eps1 minimizes chi^2/(2 eps1) + (2 alpha^2/eta + n alpha^2/(2 d2))
    eps1/(d2 - eta), eps2 is tied to the mixed-gradient-u bound and the
    deltas sit just above their binding lower bounds.  (eps, eta) is seeded
    from the h-minimizer and, when its overlap is nonnegative, from the
    relaxation's best point; eps3 runs over 17 geometric steps of chi^2/mu
    times 1e-3 .. 1e3, and _candidates_45d tries 4 delta3 quantiles of its
    window for each.  The set with the best worst normalized margin wins.
    Raises RuntimeError when no candidate verifies.
    """
    validate(params)
    if params.n not in (4, 5):
        raise ValueError("4/5-D coefficient selection requires n in {4, 5}")
    if params.chi == 0.0:
        raise ValueError(
            "coefficient selection is undefined at chi = 0 (eps1 degenerates)"
        )
    threshold = _require_above_mu0(params, mu)
    chi2 = params.chi * params.chi

    hmin = minimize_h(params.n, params.d1, params.d2)
    seeds = [(hmin.eps, hmin.eta)]
    overlap, ex, ey = _max_relaxed_overlap_45d(params, mu)
    if overlap >= 0.0:
        seeds.append((ex, ey))

    best_score, best = -math.inf, None
    for eps_seed, eta_seed in seeds:
        for eps3 in chi2 / mu * _EPS3_FACTORS:
            for score, cand in _candidates_45d(params, mu, eps_seed, eta_seed, eps3):
                if score > best_score:
                    best_score, best = score, cand
    if best is None:
        raise RuntimeError(
            f"no verifying coefficient set found at mu = {mu} (mu0 = "
            f"{threshold}); the relaxation's search finds the system infeasible "
            f"below feasibility_floor_45d's floor, which is not a proven bound"
        )
    return best


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdReport:
    mu0: float
    branch: str
    mu1: float
    gamma: Optional[float]
    epsilon0: Optional[float]
    coeffs3: Optional[CoefficientSet3D] = None
    coeffs45: Optional[CoefficientSet45D] = None


def report(params: Parameters, convex: bool = False) -> ThresholdReport:
    """Aggregate thresholds, rate, and (best effort) coefficient sets.

    mu0 is nan, on the general branch, outside n in {3, 4, 5}, and no
    coefficient set is selected there.
    """
    validate(params)
    if params.n in (3, 4, 5):
        mu0_value, branch = mu0_general(params, convex)
    else:
        mu0_value, branch = math.nan, BRANCH_GENERAL
    mu1_value = mu1(params)
    gamma = eps0 = None
    if params.kappa > 0.0 and params.chi != 0.0 and params.mu > mu1_value:
        gamma, eps0 = gamma_rate(params)
    coeffs3 = coeffs45 = None
    if params.chi != 0.0 and params.mu > mu0_value:
        try:
            if params.n == 3:
                coeffs3 = select_coefficients_3d(params, params.mu)
            else:
                coeffs45 = select_coefficients_45d(params, params.mu)
        except (ValueError, RuntimeError):
            pass
    return ThresholdReport(
        mu0=mu0_value,
        branch=branch,
        mu1=mu1_value,
        gamma=gamma,
        epsilon0=eps0,
        coeffs3=coeffs3,
        coeffs45=coeffs45,
    )
