"""Time integration of the chemotaxis-growth system on box grids.

Scheme: conservative finite volumes with mirror-ghost (no-flux) closure.
Diffusion is implicit, one axis at a time, by multiplying each line with
the cached dense inverse of its constant-coefficient line matrix (2n flops
per cell per axis for lines of n cells); the chemotactic flux is explicit
first-order upwind in conservative form, and reactions are explicit.
A step takes its intermediates (face gradients of v, one scratch field) and
its output (u, v) pair from a workspace: run keeps one with two pairs that
alternate, so a warm run allocates no full-grid arrays; step alone stays pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .diagnostics import DiagnosticsSeries, face_gradients
from .params import Grid, Parameters, SourceFunction, State
from .thresholds import CoefficientSet3D, CoefficientSet45D

__all__ = [
    "SolverConfig",
    "Trajectory",
    "StepInfo",
    "initial_condition",
    "compute_dt",
    "step",
    "run",
    "RefinementResult",
    "refinement_study",
    "manufactured_problem",
    "write_snapshot",
    "read_snapshot",
    "OUTCOME_COMPLETED",
    "OUTCOME_BLOWUP",
    "OUTCOME_DT_COLLAPSE",
    "OUTCOME_NONFINITE",
]

OUTCOME_COMPLETED = "completed"
OUTCOME_BLOWUP = "blowup-detected"
OUTCOME_DT_COLLAPSE = "dt-collapse"
OUTCOME_NONFINITE = "non-finite"

CLAMP_TOLERANCE = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    dt_initial: float = 1e-2
    dt_min: float = 1e-10
    t_end: float = 1.0
    cfl_safety: float = 0.5
    blowup_linf_threshold: float = 1e8
    snapshot_stride: int = 10

    def __post_init__(self):
        if not self.dt_min < self.dt_initial:
            raise ValueError("dt_min must be below dt_initial")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.blowup_linf_threshold <= 0.0:
            raise ValueError("blowup_linf_threshold must be positive")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")


@dataclass
class Trajectory:
    states: List[State]
    diagnostics: DiagnosticsSeries
    outcome: str
    steps: int
    clamp_total: int


def initial_condition(
    kind: str,
    grid: Grid,
    base_u: float = 1.0,
    base_v: float = 0.0,
    amplitude: float = 0.0,
    width: float = 0.1,
    seed: int = 0,
) -> State:
    """Build a nonnegative initial state.

    constant-plus-perturbation: u = base_u + uniform noise in
    [-amplitude, amplitude] (seeded), shifted up if the noise dips below
    zero; v = base_v.
    gaussian-bump: u = base_u + amplitude * exp(-r^2 / (2 width^2)) around
    the domain center; v = base_v.
    """
    if base_u < 0.0 or base_v < 0.0:
        raise ValueError("base values must be nonnegative")
    if kind == "constant-plus-perturbation":
        rng = np.random.default_rng(seed)
        noise = rng.uniform(-amplitude, amplitude, size=grid.cells)
        u = base_u + noise
        low = float(np.min(u))
        if low < 0.0:
            u = u - low
        v = np.full(grid.cells, base_v)
        return State(u=u, v=v, t=0.0).check(grid)
    if kind == "gaussian-bump":
        if amplitude < 0.0:
            raise ValueError("bump amplitude must be nonnegative")
        mesh = grid.meshgrid()
        r2 = np.zeros(grid.cells)
        for axis, coord in enumerate(mesh):
            r2 = r2 + (coord - 0.5 * grid.extents[axis]) ** 2
        u = base_u + amplitude * np.exp(-r2 / (2.0 * width * width))
        v = np.full(grid.cells, base_v)
        return State(u=u, v=v, t=0.0).check(grid)
    raise ValueError(f"unknown initial-condition kind {kind!r}")


def compute_dt(
    state: State,
    params: Parameters,
    source: SourceFunction,
    cfg: SolverConfig,
    grid: Grid,
    face_grads: Optional[List[np.ndarray]] = None,
) -> float:
    """CFL-limited step before the end-of-run cap.

    Advection: dt <= cfl * h / (dim |chi| max|dv|) per axis, so the upwind
    outflow through a cell's 2 dim faces removes at most 2 cfl of its
    content.  Reaction: dt <= cfl / L with L a local Lipschitz estimate
    covering both reactions, which removes at most cfl more.  The IMEX
    update is therefore clamp-free for cfl <= 1/3; above that, a signal
    with steep gradients on both sides of a cell can drive the cell
    negative, and step clamps and counts it.  Implicit diffusion adds no
    restriction.  max|dv| and L come from the extremes of the face gradients
    and of u: no |.| copies, and exact, so dt is bit-identical.
    """
    if face_grads is None:
        face_grads = face_gradients(state.v, grid)
    dt = cfg.dt_initial
    abs_chi = abs(params.chi)
    if abs_chi > 0.0:
        for axis, g in enumerate(face_grads):
            gmax = float(max(g.max(), -g.min())) if g.size else 0.0
            speed = grid.dim * abs_chi * gmax  # 0 on underflow, not only at rest
            if speed > 0.0:
                dt = min(dt, cfg.cfl_safety * grid.spacing[axis] / speed)
    lipschitz = max(source.lipschitz_bound(state.u), params.beta)
    if lipschitz > 0.0:
        dt = min(dt, cfg.cfl_safety / lipschitz)
    return dt


def _subtract_advection(du, u, face_grads: List[np.ndarray], chi: float, grid: Grid, tmp):
    """du -= div(chi u grad v) with upwind u on faces; zero boundary flux.
    With w = chi g / h, the flux over h, w * (u_lo if w > 0 else u_hi), is
    max(w, 0) u_lo + min(w, 0) u_hi: no gather.  It overwrites face_grads;
    tmp is a scratch field."""
    for axis, w in enumerate(face_grads):
        lo, hi = ((slice(None),) * axis + (s,) for s in (slice(-1), slice(1, None)))
        w *= chi / grid.spacing[axis]
        up = np.maximum(w, 0.0, out=tmp.reshape(-1)[: w.size].reshape(w.shape))
        up *= u[lo]
        np.minimum(w, 0.0, out=w)
        w *= u[hi]
        w += up
        du[lo] -= w
        du[hi] += w


@lru_cache(maxsize=8)
def _line_inverse(n: int, theta: float) -> np.ndarray:
    """Read-only inverse of the n-cell no-flux line matrix I - theta Lap.

    The matrix has 1 + 2 theta on the diagonal, 1 + theta in the two end
    rows and -theta off the diagonal; it and its inverse are symmetric.
    """
    a = np.diag(np.full(n, 1.0 + 2.0 * theta))
    a[0, 0] = a[-1, -1] = 1.0 + theta
    off = np.arange(n - 1)
    a[off, off + 1] = a[off + 1, off] = -theta
    inv = np.linalg.inv(a)
    inv.setflags(write=False)
    return inv


def _implicit_diffusion(f: np.ndarray, coef: float, dt: float, grid: Grid, tmp) -> np.ndarray:
    """Sequential per-axis solves of (I - dt coef Lap_axis) x = f, in place.

    Each axis is one matrix product with the line inverse cached per
    (cells on the axis, theta = dt coef / h_axis^2): 2n flops per cell per
    axis, plus O(n^3) for an inverse not in the cache.  The no-flux rows
    make each line matrix an M-matrix with unit row sums, so the discrete
    mass is conserved up to rounding for any dt.  The products act on the
    deviation from the first cell's value, which makes constants exact
    fixed points: rounded products alone miss them by an ulp or so.  The
    products alternate between f and tmp (contiguous) so the last lands in f.
    """
    if coef <= 0.0 or dt <= 0.0:
        return f
    base = f.flat[0]
    shape = f.shape
    src, dst = (f, tmp) if f.ndim % 2 == 0 else (tmp, f)
    np.subtract(f, base, out=src)
    for axis, n in enumerate(shape):
        inv = _line_inverse(n, dt * coef / grid.spacing[axis] ** 2)
        if axis == f.ndim - 1:  # lines as rows; inv is symmetric
            np.matmul(src.reshape(-1, n), inv, out=dst.reshape(-1, n))
        else:
            lines = (math.prod(shape[:axis]), n, -1)
            np.matmul(inv, src.reshape(lines), out=dst.reshape(lines))
        src, dst = dst, src
    f += base
    return f


@dataclass(frozen=True)
class StepInfo:
    dt: float
    clamped: int
    dt_collapse: bool = False
    peaks: Tuple[float, float] = (0.0, 0.0)  # max u, max v after the clamp


class _Workspace:
    """Intermediates of steps on one grid shape; see the module notes."""

    def __init__(self, shape: Tuple[int, ...], pairs: int):
        self.faces: Optional[List[np.ndarray]] = None  # set by face_gradients
        self.tmp = np.empty(shape)
        self.pairs = [(np.empty(shape), np.empty(shape)) for _ in range(pairs)]


ForcingFn = Callable[[Tuple[np.ndarray, ...], float], np.ndarray]


def step(
    state: State,
    params: Parameters,
    source: SourceFunction,
    cfg: SolverConfig,
    grid: Grid,
    forcing_u: Optional[ForcingFn] = None,
    forcing_v: Optional[ForcingFn] = None,
    mesh: Optional[Tuple[np.ndarray, ...]] = None,
    *,
    work: Optional[_Workspace] = None,
) -> Tuple[State, StepInfo]:
    """Advance one adaptive step; the homogeneous equilibrium is an exact
    fixed point of the update.  run passes its workspace as work, and the
    result lives in the pair not holding state.u until the step after next.
    """
    u, v = state.u, state.v
    work = work or _Workspace(u.shape, pairs=1)
    faces = work.faces = face_gradients(v, grid, work.faces)
    dt_cfl = compute_dt(state, params, source, cfg, grid, faces)
    if dt_cfl < cfg.dt_min:
        return state, StepInfo(dt=0.0, clamped=0, dt_collapse=True)
    remaining = cfg.t_end - state.t
    dt = min(dt_cfl, remaining) if remaining > 0.0 else dt_cfl

    new_u, new_v = next(pair for pair in work.pairs if pair[0] is not u)
    source(u, out=new_u)
    if params.chi != 0.0:
        _subtract_advection(new_u, u, faces, params.chi, grid, work.tmp)
    np.multiply(v, -params.beta, out=new_v)
    new_v += np.multiply(u, params.alpha, out=work.tmp)
    if mesh is None and (forcing_u or forcing_v):
        mesh = grid.meshgrid()
    for new, forcing in ((new_u, forcing_u), (new_v, forcing_v)):
        if forcing is not None:
            new += forcing(mesh, state.t)
    clamped, peaks = 0, []
    for new, old, coef in ((new_u, u, params.d1), (new_v, v, params.d2)):
        new *= dt
        new += old
        _implicit_diffusion(new, coef, dt, grid, work.tmp)
        low = new.min()  # NaN: the field's clamps are still counted
        if not low >= -CLAMP_TOLERANCE:
            clamped += int(np.count_nonzero(new < -CLAMP_TOLERANCE))
        if low < 0.0:
            np.maximum(new, 0.0, out=new)
        peaks.append(float(new.max()))
    info = StepInfo(dt=dt, clamped=clamped, peaks=tuple(peaks))
    return State(u=new_u, v=new_v, t=state.t + dt), info


def run(
    state0: State,
    params: Parameters,
    source: SourceFunction,
    grid: Grid,
    cfg: SolverConfig,
    coeffs3: Optional[CoefficientSet3D] = None,
    coeffs45: Optional[CoefficientSet45D] = None,
    forcing_u: Optional[ForcingFn] = None,
    forcing_v: Optional[ForcingFn] = None,
) -> Trajectory:
    """March to t_end, blow-up, dt collapse, or a non-finite u or v,
    sampling diagnostics every snapshot_stride steps and at blow-up.  The
    trajectory keeps the initial and final states only, so memory does not
    grow with the run length, and never writes into state0's arrays; a
    non-finite final state is kept but not sampled.
    """
    state = state0.check(grid)
    work = _Workspace(grid.cells, pairs=2)
    series = DiagnosticsSeries()
    clamp_total = 0
    series.sample(state, grid, params, clamp_total, coeffs3, coeffs45)
    states = [state]
    mesh = grid.meshgrid() if (forcing_u or forcing_v) else None
    outcome = OUTCOME_COMPLETED
    steps = 0
    end_tol = 1e-9 * max(1.0, cfg.t_end)
    if float(np.max(state.u)) > cfg.blowup_linf_threshold:
        return Trajectory(
            states=states, diagnostics=series, outcome=OUTCOME_BLOWUP,
            steps=0, clamp_total=0,
        )
    while state.t < cfg.t_end - end_tol:
        state, info = step(
            state, params, source, cfg, grid, forcing_u, forcing_v, mesh, work=work
        )
        if info.dt_collapse:
            outcome = OUTCOME_DT_COLLAPSE
            break
        steps += 1
        clamp_total += info.clamped
        if not all(map(math.isfinite, info.peaks)):
            outcome = OUTCOME_NONFINITE
            break
        blowup = info.peaks[0] > cfg.blowup_linf_threshold
        if blowup or (steps % cfg.snapshot_stride == 0 and state.t < cfg.t_end - end_tol):
            series.sample(state, grid, params, clamp_total, coeffs3, coeffs45)
        if blowup:
            outcome = OUTCOME_BLOWUP
            break
    if outcome == OUTCOME_COMPLETED:
        if state.t >= cfg.t_end - end_tol:
            state = State(u=state.u, v=state.v, t=cfg.t_end)
        series.sample(state, grid, params, clamp_total, coeffs3, coeffs45)
    states.append(state)
    return Trajectory(
        states=states, diagnostics=series, outcome=outcome,
        steps=steps, clamp_total=clamp_total,
    )


# ---------------------------------------------------------------------------
# Manufactured solutions and the refinement study
# ---------------------------------------------------------------------------


def manufactured_problem(params: Parameters, source: SourceFunction):
    """1-D manufactured pair u* = v* = 2 + cos(pi x) e^{-t}.

    Both fields have zero normal derivative at x = 0 and x = 1 and are
    mirror-symmetric across the boundaries, so the ghost closure is exact
    for them.  Returns (exact_u, exact_v, forcing_u, forcing_v) with the
    forcings chosen so the pair solves the forced system exactly.
    """
    pi = math.pi
    d1, d2, chi = params.d1, params.d2, params.chi
    alpha, beta = params.alpha, params.beta

    def profile(x, t):
        return 2.0 + np.cos(pi * x) * math.exp(-t)

    def exact(mesh, t):
        return profile(mesh[0], t)

    def forcing_u(mesh, t):
        x = mesh[0]
        c = np.cos(pi * x) * math.exp(-t)
        s = np.sin(pi * x) * math.exp(-t)
        u_t = -c
        lap_u = -pi * pi * c
        # div(u grad v) = grad u . grad v + u lap v for the identical pair
        adv = pi * pi * s * s + (2.0 + c) * lap_u
        return u_t - d1 * lap_u + chi * adv - source(2.0 + c)

    def forcing_v(mesh, t):
        x = mesh[0]
        c = np.cos(pi * x) * math.exp(-t)
        v_t = -c
        lap_v = -pi * pi * c
        return v_t - d2 * lap_v + beta * (2.0 + c) - alpha * (2.0 + c)

    return exact, exact, forcing_u, forcing_v


@dataclass(frozen=True)
class RefinementResult:
    cells: Tuple[int, ...]
    errors: Tuple[float, ...]
    orders: Tuple[float, ...]
    observed_order: float


def refinement_study(
    params: Parameters,
    source: SourceFunction,
    grids: Sequence[Grid],
    t_end: float = 0.25,
) -> RefinementResult:
    """Measure the spatial convergence order on nested grids.

    The time step is tied to h^2 (dt = 0.2 h^2) so the first-order-in-time
    splitting error refines at the same rate as the second-order space
    error and does not pollute the observed order.
    """
    if len(grids) < 3:
        raise ValueError("need at least 3 nested grids")
    for a, b in zip(grids, grids[1:]):
        if a.extents != b.extents:
            raise ValueError("grids must share extents")
        if any(cb != 2 * ca for ca, cb in zip(a.cells, b.cells)):
            raise ValueError(
                "grids must be nested with doubled cells per axis "
                f"(got {a.cells} then {b.cells})"
            )
    exact_u, _, forcing_u, forcing_v = manufactured_problem(params, source)
    errors = []
    for grid in grids:
        mesh = grid.meshgrid()
        state = State(u=exact_u(mesh, 0.0), v=exact_u(mesh, 0.0), t=0.0)
        h = min(grid.spacing)
        cfg = SolverConfig(
            dt_initial=0.2 * h * h,
            dt_min=1e-14,
            t_end=t_end,
            cfl_safety=0.5,
            blowup_linf_threshold=1e8,
            snapshot_stride=10**9,
        )
        traj = run(
            state, params, source, grid, cfg,
            forcing_u=forcing_u, forcing_v=forcing_v,
        )
        if traj.outcome != OUTCOME_COMPLETED:
            raise RuntimeError(f"manufactured run ended with {traj.outcome}")
        final = traj.states[-1]
        diff = final.u - exact_u(mesh, t_end)
        errors.append(
            float(np.sqrt(np.sum(diff * diff) * grid.cell_volume))
        )
    orders = tuple(
        math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)
    )
    return RefinementResult(
        cells=tuple(g.cells[0] for g in grids),
        errors=tuple(errors),
        orders=orders,
        observed_order=float(np.mean(orders)),
    )


# ---------------------------------------------------------------------------
# Field snapshots: raw little-endian doubles plus a text sidecar header
# ---------------------------------------------------------------------------


def write_snapshot(
    directory, state: State, grid: Grid, index: int
) -> List[Path]:
    """One .raw file per field per sample (axis-major float64, little
    endian) with a .hdr text sidecar."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, fld in (("u", state.u), ("v", state.v)):
        stem = directory / f"{name}_{index:06d}"
        raw = stem.with_suffix(".raw")
        np.ascontiguousarray(fld, dtype="<f8").tofile(raw)
        header = "\n".join(
            [
                f"field: {name}",
                f"dim: {grid.dim}",
                "cells: " + " ".join(str(c) for c in grid.cells),
                "extents: " + " ".join(repr(e) for e in grid.extents),
                f"time: {state.t!r}",
            ]
        )
        stem.with_suffix(".hdr").write_text(header + "\n")
        paths.extend([raw, stem.with_suffix(".hdr")])
    return paths


def read_snapshot(stem) -> Tuple[np.ndarray, dict]:
    stem = Path(stem)
    meta = {}
    for line in stem.with_suffix(".hdr").read_text().splitlines():
        key, _, value = line.partition(":")
        meta[key.strip()] = value.strip()
    cells = tuple(int(c) for c in meta["cells"].split())
    data = np.fromfile(stem.with_suffix(".raw"), dtype="<f8").reshape(cells)
    meta["cells"] = cells
    meta["extents"] = tuple(float(e) for e in meta["extents"].split())
    meta["time"] = float(meta["time"])
    meta["dim"] = int(meta["dim"])
    return data, meta
