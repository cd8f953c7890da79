"""Independent brute-force oracles shared by the unit and acceptance tests.

These deliberately avoid the library's own search routines: the h oracle
is a dense uniform grid scan with local refinement, nothing smarter, and
the compass oracle polls one point per objective call.  The floor oracle
runs the library's full search at every bisection step.  The step and
sample oracles are the solver and diagnostics formulas as first written,
one fresh array per intermediate.  The run oracle samples each state of a
solo run as soon as it exists.
"""

import math

import numpy as np

from kslab.diagnostics import DiagnosticsSeries
from kslab.params import State
from kslab.solver import CLAMP_TOLERANCE, _line_inverse, step
from kslab.thresholds import _max_relaxed_overlap_45d, h_objective, mu0_general


def h_bruteforce(n, d1, d2, cells=2000, refine=2):
    """Dense-grid minimum of the threshold objective with local zoom.

    Scans cells x cells midpoints of (0, d1) x (0, d2), then re-grids a
    +/- 2 cell neighborhood of the argmin, `refine` times.
    """
    lo_e, hi_e, lo_g, hi_g = 0.0, d1, 0.0, d2
    best = (np.inf, None, None)
    for _ in range(refine + 1):
        de = (hi_e - lo_e) / cells
        dg = (hi_g - lo_g) / cells
        es = lo_e + (np.arange(cells) + 0.5) * de
        gs = lo_g + (np.arange(cells) + 0.5) * dg
        value_min, arg = np.inf, (0, 0)
        chunk = 250  # keep peak memory bounded
        for i0 in range(0, cells, chunk):
            ee, gg = np.meshgrid(es[i0 : i0 + chunk], gs, indexing="ij")
            vals = h_objective(n, d1, d2, ee, gg)
            k = int(np.argmin(vals))
            if vals.flat[k] < value_min:
                value_min = float(vals.flat[k])
                arg = (i0 + k // cells, k % cells)
        e_star, g_star = float(es[arg[0]]), float(gs[arg[1]])
        if value_min < best[0]:
            best = (value_min, e_star, g_star)
        lo_e, hi_e = max(0.0, e_star - 2 * de), min(d1, e_star + 2 * de)
        lo_g, hi_g = max(0.0, g_star - 2 * dg), min(d2, g_star + 2 * dg)
    return best


def compass_reference(f, d1, d2):
    """The grid-plus-compass search with one scalar objective call per poll.

    Same 64x64 logarithmic grid and compass rule as the library's search
    (4 polls per iteration around its starting point, steps (d1, d2)/8
    halved over 40 rounds, at most 200 iterations per round).  Returns
    ((value, eps, eta), number of iterations that moved).
    """
    grid_e = d1 * np.geomspace(1e-3, 0.999, 64)
    grid_g = d2 * np.geomspace(1e-3, 0.999, 64)
    ee, gg = np.meshgrid(grid_e, grid_g, indexing="ij")
    vals = f(ee, gg)
    k = int(np.argmin(vals))
    x, y, fx = float(ee.flat[k]), float(gg.flat[k]), float(vals.flat[k])
    sx, sy = d1 / 8.0, d2 / 8.0
    moved_iterations = 0
    for _ in range(40):
        moved = True
        polls = 0
        while moved and polls < 200:
            moved = False
            polls += 1
            for cx, cy in ((x + sx, y), (x - sx, y), (x, y + sy), (x, y - sy)):
                fc = float(f(cx, cy))
                if fc < fx:
                    x, y, fx = cx, cy, fc
                    moved = True
            moved_iterations += moved
        sx *= 0.5
        sy *= 0.5
    return (fx, x, y), moved_iterations


def floor_reference(params):
    """The certified 4/5-D floor with a full search at every bisection step:
    40 geometric bisection steps over [mu0, 64 mu0] on whether the
    maximized relaxed overlap is nonnegative."""
    if params.chi == 0.0:
        return 0.0
    lo = mu0_general(params)[0]
    hi = 64.0 * lo

    def feasible(mu):
        return _max_relaxed_overlap_45d(params, mu)[0] >= 0.0

    if feasible(lo):
        return lo
    if not feasible(hi):
        return hi
    for _ in range(40):
        mid = math.sqrt(lo * hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return lo


def _two_slices(axis, ndim):
    lo = tuple(slice(None, -1) if k == axis else slice(None) for k in range(ndim))
    hi = tuple(slice(1, None) if k == axis else slice(None) for k in range(ndim))
    return lo, hi


def _diffusion_reference(f, coef, dt, grid):
    """Per-axis products with the cached line inverses, into new arrays."""
    base = f.flat[0]
    out = f - base
    shape = f.shape
    for axis, n in enumerate(shape):
        inv = _line_inverse(n, dt * coef / grid.spacing[axis] ** 2)
        if axis == f.ndim - 1:
            out = out.reshape(-1, n) @ inv
        else:
            out = inv @ out.reshape(math.prod(shape[:axis]), n, -1)
        out = out.reshape(shape)
    return out + base


def step_reference(state, params, source, cfg, grid):
    """One unforced step: dt from the maxima of |grad v| and of
    |kappa - 2 mu u|, the upwind flux by np.where, the divergence as two
    slice updates of a zero array, reaction kappa u - mu u^2.

    Returns (u, v, dt, clamp_u, clamp_v): the clamped fields and the masks
    of cells below -CLAMP_TOLERANCE before the clamp.
    """
    u, v, chi = state.u, state.v, params.chi
    faces = [np.diff(v, axis=k) / grid.spacing[k] for k in range(grid.dim)]
    dt = cfg.dt_initial
    for axis, g in enumerate(faces):
        speed = grid.dim * abs(chi) * float(np.max(np.abs(g)))
        if speed > 0.0:
            dt = min(dt, cfg.cfl_safety * grid.spacing[axis] / speed)
    lipschitz = float(np.max(np.abs(source.kappa - 2.0 * source.mu * u)))
    dt = min(dt, cfg.cfl_safety / max(lipschitz, params.beta))
    dt = min(dt, cfg.t_end - state.t)
    du = source.kappa * u - source.mu * u * u
    dv = -params.beta * v + params.alpha * u
    div = np.zeros_like(u)
    for axis, g in enumerate(faces):
        lo, hi = _two_slices(axis, u.ndim)
        w = chi * g
        flux = w * np.where(w > 0.0, u[lo], u[hi])
        div[lo] += flux / grid.spacing[axis]
        div[hi] -= flux / grid.spacing[axis]
    u = _diffusion_reference(u + dt * (du - div), params.d1, dt, grid)
    v = _diffusion_reference(v + dt * dv, params.d2, dt, grid)
    clamp_u, clamp_v = u < -CLAMP_TOLERANCE, v < -CLAMP_TOLERANCE
    return np.maximum(u, 0.0), np.maximum(v, 0.0), dt, clamp_u, clamp_v


def grad_squared_reference(v, grid):
    """|grad v|^2 as the square of the averaged face differences, with the
    boundary faces padded by zeros."""
    total = np.zeros_like(v)
    for axis, g in enumerate(np.diff(v, axis=k) / grid.spacing[k] for k in range(v.ndim)):
        padded = np.zeros(tuple(c + (k == axis) for k, c in enumerate(v.shape)))
        padded[tuple(slice(1, -1) if k == axis else slice(None) for k in range(v.ndim))] = g
        lo, hi = _two_slices(axis, v.ndim)
        total += (0.5 * (padded[lo] + padded[hi])) ** 2
    return total


def sample_reference(state, grid, params, c3, c45):
    """The numeric diagnostics columns from np.abs(f) ** p norms, a fresh
    |grad v|^2 per functional and pointwise integrands."""
    u, v, vol = state.u, state.v, grid.cell_volume

    def norm(f, p):
        if p == math.inf:
            return float(np.max(np.abs(f)))
        return float((np.sum(np.abs(f) ** p) * vol) ** (1.0 / p))

    g2 = grad_squared_reference(v, grid)
    gmag = np.sqrt(g2)
    row = {
        "mass_u": float(np.sum(u) * vol), "L2_u": norm(u, 2), "L3_u": norm(u, 3),
        "Linf_u": norm(u, math.inf), "L2_gradv": norm(gmag, 2),
        "L4_gradv": norm(gmag, 4), "L6_gradv": norm(gmag, 6),
        "z3": float(np.sum(c3.delta1 * u * u + c3.delta2 * u * g2
                           + c3.delta3 * g2 * g2) * vol),
        "z45": float(np.sum(c45.delta1 * u**3 + c45.delta2 * u * u * g2
                            + c45.delta3 * u * g2 * g2 + c45.delta4 * g2**3) * vol),
        "Linf_v": norm(v, math.inf),
        "H": math.nan, "dev_linf_u": math.nan, "dev_linf_v": math.nan,
    }
    if params.kappa > 0.0:
        c = params.kappa / params.mu
        v_eq = params.alpha * params.kappa / (params.beta * params.mu)
        if np.min(u) > 1e-12:
            delta = params.kappa * params.chi**2 / (8.0 * params.d1 * params.d2 * params.mu)
            entropy = u - c - c * np.log(u / c)
            row["H"] = float((np.sum(entropy) + delta * np.sum((v - v_eq) ** 2)) * vol)
        row["dev_linf_u"] = float(np.max(np.abs(u - c)))
        row["dev_linf_v"] = float(np.max(np.abs(v - v_eq)))
    return row


def sampled_run_reference(state0, params, source, grid, cfg, c3=None, c45=None):
    """The diagnostics of a solo run, each row taken the moment its state
    exists by a one-point DiagnosticsSeries.sample call: the initial state,
    every snapshot_stride-th step still short of t_end, a blown-up state,
    and the state reaching t_end (at t = t_end); nothing after a dt collapse
    or a non-finite field.  Returns (series, outcome, steps)."""
    series = DiagnosticsSeries()
    end = cfg.t_end - 1e-9 * max(1.0, cfg.t_end)
    state = State(u=state0.u[None], v=state0.v[None], t=np.array([state0.t]))
    clamps, steps = 0, 0

    def sample(at):
        DiagnosticsSeries.sample([series], at, grid, [params], [clamps], [c3], [c45])

    sample(state)
    if np.max(state.u) > cfg.blowup_linf_threshold:
        return series, "blowup-detected", 0
    while True:
        if not state.t[0] < end:
            sample(State(u=state.u, v=state.v, t=np.array([cfg.t_end])))
            return series, "completed", steps
        new, info = step(state, [params], [source], cfg, grid)
        steps += 1
        clamps += int(info.clamped[0])
        if info.dt_collapse[0]:
            return series, "dt-collapse", steps - 1
        if not (np.all(np.isfinite(new.u)) and np.all(np.isfinite(new.v))):
            return series, "non-finite", steps
        if np.max(new.u) > cfg.blowup_linf_threshold:
            sample(new)
            return series, "blowup-detected", steps
        if steps % cfg.snapshot_stride == 0 and new.t[0] < end:
            sample(new)
        state = new
