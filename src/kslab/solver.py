"""Time integration of the chemotaxis-growth system on box grids.

Scheme: conservative finite volumes with mirror-ghost (no-flux) closure.
Diffusion is implicit, one axis at a time, by multiplying each line with
the cached dense inverse of its constant-coefficient line matrix (2n flops
per cell per axis for lines of n cells); the chemotactic flux is explicit
first-order upwind in conservative form, and reactions are explicit.

The kernels take stacks only: the fields of P points stack along a leading
point axis, shape (P, *grid.cells), and one point is a stack of one.  Every
Parameters or source field that differs by point is a (P, 1, ..., 1) column
(_column).  Each point keeps its own dt, t and line inverses, and each of
its values comes from the same floating-point operations as in a run of that
point alone, so a batch reproduces solo runs bit for bit.  run_batch marches
a batch in lockstep and run is its one-point call.  A step streams the grid
axes (advection does not depend on dt): each axis's face gradient of v, in
one workspace stack, gives its extremes to the dt budget and its upwind flux
to f(u).  A workspace also holds a scratch stack and output (u, v) pairs:
run_batch keeps one with two pairs that alternate, so a warm run holds six
full-grid stacks and allocates none; step alone stays pure.  Where four
stacks of two slices of all its points fit in _BATCH_ELEMENTS doubles,
run_batch buffers its diagnostics samples and takes them in one call per
buffer; otherwise it samples at once in the workspace's two scratch stacks.

On stacks of at least _PARALLEL_ELEMENTS doubles, step advances v on a
persistent helper thread while the caller advances u, with the same bytes;
on one CPU and in KSLAB_WORKERS workers it stays serial.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .diagnostics import DiagnosticsSeries, face_gradient
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
    "run_batch",
    "RefinementResult",
    "refinement_study",
    "manufactured_problem",
    "write_snapshot",
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

# Budget of stacked doubles, 512 KiB: harness batches sweep points while
# their fields and line inverses (cells plus n^2 per axis, per point) fit,
# so a 32^2 point takes 3,072 and up to 21 share a batch, while a 64^3 point
# or a 1,024-cell line runs alone, with the memory of a solo run; run_batch
# buffers diagnostics samples in four stacks of this many doubles in all.
_BATCH_ELEMENTS = 1 << 16

# Stacks of at least this many doubles split a step (split/serial: 64^3 0.79, 32^3 1.06).
_PARALLEL_ELEMENTS = 1 << 16
_helper = (0, None)  # (pid, task queue): a forked child lacks its parent's thread


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
    elif kind == "gaussian-bump":
        if amplitude < 0.0:
            raise ValueError("bump amplitude must be nonnegative")
        mesh = grid.meshgrid()
        r2 = np.zeros(grid.cells)
        for axis, coord in enumerate(mesh):
            r2 = r2 + (coord - 0.5 * grid.extents[axis]) ** 2
        u = base_u + amplitude * np.exp(-r2 / (2.0 * width * width))
    else:
        raise ValueError(f"unknown initial-condition kind {kind!r}")
    return State(u=u, v=np.full(grid.cells, base_v), t=0.0).check(grid)


def compute_dt(
    state: State,
    params: Sequence[Parameters],
    source: Sequence[SourceFunction],
    cfg: SolverConfig,
    grid: Grid,
    face_extremes: Sequence[Sequence[Tuple[float, float]]],
) -> np.ndarray:
    """CFL-limited step of each stacked point, one entry of params and
    source per point, before the end-of-run cap; an array of one dt per
    point.

    Advection: dt <= cfl * h / (dim |chi| max|dv|) per axis, so the upwind
    outflow through a cell's 2 dim faces removes at most 2 cfl of its
    content.  Reaction: dt <= cfl / L with L a local Lipschitz estimate
    covering both reactions, which removes at most cfl more.  The IMEX
    update is therefore clamp-free for cfl <= 1/3; above that, a signal
    with steep gradients on both sides of a cell can drive the cell
    negative, and step clamps and counts it.  Implicit diffusion adds no
    restriction.  face_extremes holds, per axis, the (min, max) of each
    point's face gradients of v (_extremes); max|dv| and L come from those
    and from the extremes of u, exactly, so dt is bit-identical.
    """
    gmax = [[max(hi, -lo) for lo, hi in axis] for axis in face_extremes]
    dts, extremes = [], _extremes(state.u, len(params))
    for point, (prm, src, (lo, hi)) in enumerate(zip(params, source, extremes)):
        dt = cfg.dt_initial
        abs_chi = abs(prm.chi)
        if abs_chi > 0.0:
            for axis, g in enumerate(gmax):
                speed = grid.dim * abs_chi * g[point]  # 0 on underflow, not only at rest
                if speed > 0.0:
                    dt = min(dt, cfg.cfl_safety * grid.spacing[axis] / speed)
        lipschitz = max(src.lipschitz_between(lo, hi), prm.beta)
        if lipschitz > 0.0:
            dt = min(dt, cfg.cfl_safety / lipschitz)
        dts.append(dt)
    return np.array(dts)


def _extremes(a: np.ndarray, count: int) -> List[Tuple[float, float]]:
    """(min, max) of each of the count points stacked in a."""
    rows = a.reshape(count, -1)
    return list(zip(rows.min(axis=1).tolist(), rows.max(axis=1).tolist()))


def _subtract_advection(du, u, g, axis: int, chi, grid: Grid, tmp):
    """du -= the axis term of div(chi u grad v), upwind u on faces, zero
    boundary flux; g = face_gradient(v, grid, axis).  With w = chi g / h, the
    flux over h, w * (u_lo if w > 0 else u_hi), is max(w, 0) u_lo + min(w, 0)
    u_hi: no gather.  On face_gradient's layout u_lo is u itself, and u_hi
    and the cells downstream of each face are u and du shifted by the axis
    stride in flat memory, so every pass is contiguous; the zero boundary
    faces make the shifts across lines and points add zeros.  It overwrites
    g; tmp is a scratch field.  On stacked fields chi is a number or a
    per-point column."""
    du_flat, u_flat, up = du.reshape(-1), u.reshape(-1), tmp.reshape(-1)
    stride = math.prod(grid.cells[axis + 1:])
    g *= chi / grid.spacing[axis]
    w = g.reshape(-1)
    np.maximum(w, 0.0, out=up)
    up *= u_flat
    np.minimum(w, 0.0, out=w)
    w[:-stride] *= u_flat[stride:]
    w += up
    du_flat -= w
    du_flat[stride:] += w[:-stride]


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


@lru_cache(maxsize=8)
def _line_inverses(n: int, thetas: Tuple[float, ...]) -> np.ndarray:
    """Read-only (P, n, n) stack of the line inverses of P points, one
    batched product's operand.  Cached per (n, thetas), so that a batch with
    more distinct thetas than the cache holds builds each once while its dt
    holds; a theta repeated within the stack is inverted once, and one
    shared by all points is a broadcast view, not P copies.  run_batch
    empties the cache when it ends: a finished run holds no inverses."""
    built = {theta: _line_inverse(n, theta) for theta in set(thetas)}
    if len(built) == 1:
        return np.broadcast_to(built[thetas[0]], (len(thetas), n, n))
    stack = np.stack([built[theta] for theta in thetas])
    stack.setflags(write=False)
    return stack


def _inverses(coef, dt, grid: Grid, points: int) -> List[np.ndarray]:
    """Per axis, the line-inverse stack of P points for coef and dt, numbers
    or per-point columns; [] if no point diffuses."""
    rate = dt * coef
    rates = rate.ravel().tolist() if np.ndim(rate) else [rate] * points
    if not any(r > 0.0 for r in rates):
        return []
    return [_line_inverses(n, tuple(r / h ** 2 for r in rates))
            for n, h in zip(grid.cells, grid.spacing)]


def _implicit_diffusion(f: np.ndarray, inverses, grid: Grid, tmp) -> np.ndarray:
    """Sequential per-axis solves of (I - dt coef Lap_axis) x = f, in place,
    for one field or a stack of fields, with inverses = _inverses(coef, dt,
    grid, P).

    Each axis is one batched matrix product with the points' line inverses,
    cached per (cells on the axis, per-point theta = dt coef / h_axis^2):
    2n flops per cell per axis, plus O(n^3) for an inverse not in the cache.
    The no-flux rows make each line matrix an M-matrix with unit row sums,
    so the discrete mass is conserved up to rounding for any dt.  The
    products act on the deviation from each point's first cell value, which
    makes constants exact fixed points: rounded products alone miss them by
    an ulp or so.  The products alternate between f and tmp (contiguous) so
    the last lands in f.
    """
    if not inverses:
        return f
    stack = f.reshape((-1,) + grid.cells)
    points = len(stack)
    base = stack[(slice(None),) + (slice(1),) * grid.dim].copy()
    src, dst = stack, tmp.reshape(stack.shape)
    if grid.dim % 2:
        src, dst = dst, src
    np.subtract(stack, base, out=src)
    for axis, (n, inv) in enumerate(zip(grid.cells, inverses)):
        if axis == grid.dim - 1:  # lines as rows; inv is symmetric
            np.matmul(src.reshape(points, -1, n), inv, out=dst.reshape(points, -1, n))
        else:
            lines = (points, math.prod(grid.cells[:axis]), n, -1)
            np.matmul(inv[:, None], src.reshape(lines), out=dst.reshape(lines))
        src, dst = dst, src
    stack += base
    return f


@dataclass(frozen=True)
class StepInfo:
    """One step's outcome, one array entry per point: the dt taken (0 on a
    collapse), the cells clamped, whether dt collapsed, and peaks, the max
    of u and of v after the clamp."""

    dt: np.ndarray
    clamped: np.ndarray
    dt_collapse: np.ndarray
    peaks: Tuple[np.ndarray, np.ndarray]


def _column(values: Sequence[float], dim: int):
    """One coefficient of P points: the value itself if all points share it
    bit for bit (numpy's faster scalar path, with the same rounding), else a
    (P, 1, ..., 1) column that broadcasts over P stacked fields."""
    if len({float(x).hex() for x in values}) == 1:
        return float(values[0])
    return np.array(values, dtype=float).reshape((len(values),) + (1,) * dim)


class _Workspace:
    """Stacks of steps of P points on one grid (face, for one axis's face
    gradient at a time, and tmp, both dead between steps; the (u, v) output
    pairs), and the points' coefficients as _column values."""

    def __init__(self, params: Sequence[Parameters], sources: Sequence[SourceFunction],
                 grid: Grid, pairs: int):
        shape = (len(params),) + grid.cells
        self.face = np.empty(shape)
        self.tmp = np.empty(shape)
        self.pairs = [(np.empty(shape), np.empty(shape)) for _ in range(pairs)]
        for name in ("d1", "d2", "chi", "alpha", "beta"):
            setattr(self, name, _column([getattr(p, name) for p in params], grid.dim))
        self.source = replace(sources[0], **{  # f(u) with each point's kappa and mu
            name: _column([getattr(s, name) for s in sources], grid.dim)
            for name in ("kappa", "mu")
        })


ForcingFn = Callable[[Tuple[np.ndarray, ...], float], np.ndarray]


def _advance(new, old, forcing, inverses, dt, t, mesh, grid: Grid, tmp):
    """Finish one field's step in new, its rate without forcing, in place;
    returns each point's clamped cells and peak."""
    if forcing is not None:
        for row, s in zip(new, t):
            row += forcing(mesh, s)
    new *= dt
    new += old
    _implicit_diffusion(new, inverses, grid, tmp)
    rows = new.reshape(len(new), -1)
    low = rows.min(axis=1)  # NaN: the point's clamps are still counted
    clamped = 0 if (low >= -CLAMP_TOLERANCE).all() else np.count_nonzero(
        rows < -CLAMP_TOLERANCE, axis=1)
    negative = low < 0.0  # not at a NaN: such a point keeps its values, as alone
    if negative.all():
        np.maximum(new, 0.0, out=new)
    else:
        for row in np.flatnonzero(negative):
            np.maximum(new[row], 0.0, out=new[row])
    return clamped, rows.max(axis=1)


def _serve(tasks: "queue.SimpleQueue") -> None:
    """The helper thread: run each task's fn under its caller's errstate and
    put what fn returns or raises on done."""
    for errstate, fn, done in iter(tasks.get, None):
        try:
            with np.errstate(**errstate):
                done.put(fn())
        except BaseException as exc:
            done.put(exc)


def _on_helper(fn) -> Optional["queue.SimpleQueue"]:
    """Start fn on this process's helper thread under the caller's errstate;
    return the queue that gets what fn returns or raises, or None (run fn
    yourself) on one CPU and in a multiprocessing child."""
    global _helper
    mp = sys.modules.get("multiprocessing")
    cpus = getattr(os, "sched_getaffinity", lambda pid: [0])(0)  # serial if unknown
    if _helper[0] != os.getpid() and (len(cpus) < 2 or (mp and mp.parent_process())):
        return None
    import queue  # not at module import: it costs 0.2 MiB in every process
    if _helper[0] != os.getpid():  # registered once started: start() may raise
        tasks = queue.SimpleQueue()
        threading.Thread(target=_serve, args=(tasks,), daemon=True).start()
        _helper = (os.getpid(), tasks)
    done = queue.SimpleQueue()
    _helper[1].put((dict(np.geterr(), call=np.geterrcall()), fn, done))
    return done


def step(
    state: State,
    params: Sequence[Parameters],
    source: Sequence[SourceFunction],
    cfg: SolverConfig,
    grid: Grid,
    forcing_u: Optional[ForcingFn] = None,
    forcing_v: Optional[ForcingFn] = None,
    mesh: Optional[Tuple[np.ndarray, ...]] = None,
    *,
    work: Optional[_Workspace] = None,
) -> Tuple[State, StepInfo]:
    """Advance every point of a stacked state (fields (P, *grid.cells), an
    array t) one adaptive step, with one entry of params and source per
    point; the homogeneous equilibrium is an exact fixed point of the update.

    A point whose dt collapses reports dt 0 and keeps its input fields in
    state.  run_batch passes its workspace, made for the same points, as
    work, and the result lives in the pair not holding state.u until the
    step after next; without work the result is in fresh arrays.
    """
    u, v = state.u, state.v
    work = work or _Workspace(params, source, grid, pairs=1)
    new_u, new_v = next(pair for pair in work.pairs if pair[0] is not u)
    work.source(u, out=new_u)
    advect, face_extremes = np.any(work.chi != 0.0), []
    for axis in range(grid.dim):  # advection does not depend on dt
        g = face_gradient(v, grid, axis, work.face)
        face_extremes.append(_extremes(g, len(u)))
        if advect:
            _subtract_advection(new_u, u, g, axis, work.chi, grid, work.tmp)
    dt_cfl = compute_dt(state, params, source, cfg, grid, face_extremes).tolist()
    collapse = [dt < cfg.dt_min for dt in dt_cfl]
    if all(collapse):
        zeros = np.zeros(len(u))
        return state, StepInfo(dt=zeros, clamped=zeros.astype(int),
                               dt_collapse=np.array(collapse), peaks=(zeros, zeros))
    t = state.t.tolist()
    dt = [
        min(d, cfg.t_end - s) if cfg.t_end - s > 0.0 else d for d, s in zip(dt_cfl, t)
    ]
    dt_column = _column(dt, grid.dim)
    if mesh is None and (forcing_u or forcing_v):
        mesh = grid.meshgrid()
    inv_u, inv_v = (_inverses(coef, dt_column, grid, len(u)) for coef in (work.d1, work.d2))

    def advance_v():  # work.face is dead once the last axis is advected
        np.multiply(v, -work.beta, out=new_v)
        np.add(new_v, np.multiply(u, work.alpha, out=work.face), out=new_v)
        return _advance(new_v, v, forcing_v, inv_v, dt_column, t, mesh, grid, work.face)

    done = _on_helper(advance_v) if u.size >= _PARALLEL_ELEMENTS else None
    try:
        clamped_u, peak_u = _advance(new_u, u, forcing_u, inv_u, dt_column, t, mesh, grid, work.tmp)
    finally:  # the v half ends before step does, also when the u half raises
        half_v = None if done is None else done.get()
    if isinstance(half_v, BaseException):
        raise half_v
    clamped_v, peak_v = advance_v() if half_v is None else half_v
    clamped = np.zeros(len(u), dtype=int) + clamped_u + clamped_v
    if any(collapse):
        clamped[collapse] = 0
        dt = [0.0 if c else d for c, d in zip(collapse, dt)]
    info = StepInfo(dt=np.array(dt), clamped=clamped, dt_collapse=np.array(collapse),
                    peaks=(peak_u, peak_v))
    return State(u=new_u, v=new_v, t=np.array([s + d for s, d in zip(t, dt)])), info


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
    """March one point: the one-point call of run_batch, which documents the
    outcomes, the sampling and the states kept."""
    return run_batch(
        [state0], [params], [source], grid, cfg, [coeffs3], [coeffs45],
        forcing_u, forcing_v,
    )[0]


class _Batch:
    """The points of a run_batch still marching: their indices into its
    lists, their parameters and sources, and a workspace whose first pair
    holds their fields at time t."""

    def __init__(self, points, fields, t, params, sources, grid: Grid):
        self.points = points
        self.params = [params[i] for i in points]
        self.sources = [sources[i] for i in points]
        self.work = _Workspace(self.params, self.sources, grid, pairs=2)
        u, v = self.work.pairs[0]
        for row, (field_u, field_v) in enumerate(fields):
            u[row], v[row] = field_u, field_v
        self.state = State(u=u, v=v, t=t)


def run_batch(
    states0: Sequence[State],
    params: Sequence[Parameters],
    sources: Sequence[SourceFunction],
    grid: Grid,
    cfg: SolverConfig,
    coeffs3: Optional[Sequence[Optional[CoefficientSet3D]]] = None,
    coeffs45: Optional[Sequence[Optional[CoefficientSet45D]]] = None,
    forcing_u: Optional[ForcingFn] = None,
    forcing_v: Optional[ForcingFn] = None,
) -> List[Trajectory]:
    """March every point i, (states0[i], params[i], sources[i]) with
    coefficient sets coeffs3[i] and coeffs45[i] (None: no set), to t_end,
    blow-up, dt collapse, or a non-finite u or v, sampling diagnostics every
    snapshot_stride steps and at blow-up; the forcings apply to every point.

    The points step in lockstep on one stack, every active point on every
    iteration with its own dt and t, so each trajectory equals the point's
    solo run bit for bit.  A point leaves as soon as it stops and the rest
    are compacted into a smaller stack, so a stopped point's inf or NaN never
    enters the others' arithmetic.  A trajectory keeps the initial and final
    states only, so memory does not grow with the run length, and no step
    writes into states0's arrays; a non-finite final state is kept but not
    sampled.

    Samples are deferred on small grids: when four stacks of room rows,
    room = _BATCH_ELEMENTS // (4 cells), hold two slices of all the points,
    each sampled slice is copied into a buffer of room rows, with its t,
    points and clamp totals as at sample time, and one
    DiagnosticsSeries.sample call over the buffer's rows, in its two scratch
    stacks, takes them when the next slice would not fit and before the run
    returns.  Otherwise each slice is sampled at once in the step
    workspace's scratch stacks.  Every reduction of a sample is per row, so
    the series are the same either way.  The buffer and the line inverses
    cached for the run are dropped when it ends.
    """
    states0 = [state.check(grid) for state in states0]
    count = len(states0)
    if not count:
        return []
    coeffs3 = list(coeffs3 or [None] * count)
    coeffs45 = list(coeffs45 or [None] * count)
    series = [DiagnosticsSeries() for _ in states0]
    clamps = np.zeros(count, dtype=int)
    trajectories: List[Optional[Trajectory]] = [None] * count
    mesh = grid.meshgrid() if (forcing_u or forcing_v) else None
    end = cfg.t_end - 1e-9 * max(1.0, cfg.t_end)
    steps = 0
    batch = _Batch(
        np.arange(count), [(state.u, state.v) for state in states0],
        np.array([state.t for state in states0], dtype=float),
        params, sources, grid,
    )

    room = _BATCH_ELEMENTS // (4 * math.prod(grid.cells))
    room = room if room >= 2 * count else 0
    buffer = np.empty((4, room) + grid.cells)  # u, v and the two scratch stacks
    held: List[Tuple[int, float, int]] = []  # point, t, clamp total per buffered row

    def take(state: State, points, totals: List[int], scratch) -> None:
        """Append a diagnostics row to the series of each point from the
        matching row of state."""
        DiagnosticsSeries.sample(
            [series[i] for i in points], state, grid, [params[i] for i in points],
            totals, [coeffs3[i] for i in points], [coeffs45[i] for i in points],
            scratch=scratch,
        )

    def flush() -> None:
        """Take the buffered rows in one call and empty the buffer."""
        if held:
            points, t, totals = zip(*held)
            rows = len(held)
            state = State(u=buffer[0, :rows], v=buffer[1, :rows], t=np.array(t))
            take(state, points, list(totals), (buffer[2, :rows], buffer[3, :rows]))
            held.clear()

    def sample(state: State, rows: Optional[List[int]] = None) -> None:
        """Sample the given batch rows (all if None): into the buffer, or at
        once in the step workspace without one."""
        points = batch.points
        if rows is not None and len(rows) < len(points):
            if not rows:
                return
            state = State(u=state.u[rows], v=state.v[rows], t=state.t[rows])
            points = points[rows]
        totals = clamps[points].tolist()
        if not room:
            work = batch.work
            take(state, points, totals, (work.face[:len(points)], work.tmp[:len(points)]))
            return
        if len(held) + len(points) > room:
            flush()
        slots = slice(len(held), len(held) + len(points))
        buffer[0, slots], buffer[1, slots] = state.u, state.v
        held.extend(zip(points.tolist(), state.t.tolist(), totals))

    def retire(ends, state: State) -> State:
        """Close the trajectories of the batch rows in ends, row -> (outcome,
        the state holding its final fields or None to keep states0 only,
        steps), and return the state of the remaining rows."""
        nonlocal batch
        if not ends:
            return state
        rest = [row for row in range(len(batch.points)) if row not in ends]
        for row, (outcome, final, taken) in ends.items():
            i = batch.points[row]
            states = [states0[i]]
            if final is not None:
                fields = (final.u[row], final.v[row])
                if rest:  # copies: a view would keep the whole old stack alive
                    fields = tuple(field.copy() for field in fields)
                states.append(State(u=fields[0], v=fields[1], t=float(final.t[row])))
            trajectories[i] = Trajectory(
                states=states, diagnostics=series[i], outcome=outcome,
                steps=taken, clamp_total=int(clamps[i]),
            )
        if not rest:
            batch = None
            return state
        batch = _Batch(
            batch.points[rest], [(state.u[row], state.v[row]) for row in rest],
            state.t[rest], params, sources, grid,
        )
        return batch.state

    state = batch.state
    sample(state)
    peaks = state.u.reshape(count, -1).max(axis=1).tolist()
    state = retire(
        {row: (OUTCOME_BLOWUP, None, 0)
         for row, peak in enumerate(peaks) if peak > cfg.blowup_linf_threshold},
        state,
    )
    while batch is not None:
        if not state.t.max() < end:  # some points reached t_end
            done = [row for row, t in enumerate(state.t.tolist()) if not t < end]
            t = state.t.copy()
            t[done] = cfg.t_end
            final = State(u=state.u, v=state.v, t=t)
            sample(final, done)
            state = retire({row: (OUTCOME_COMPLETED, final, steps) for row in done}, state)
            if batch is None:
                break
        new, info = step(
            state, batch.params, batch.sources, cfg, grid, forcing_u, forcing_v, mesh,
            work=batch.work,
        )
        steps += 1
        clamps[batch.points] += info.clamped
        peak_u, peak_v = info.peaks
        ends = {}
        if info.dt_collapse.any() or not (
            peak_u.max() <= cfg.blowup_linf_threshold and math.isfinite(peak_v.max())
        ):
            flags = zip(info.dt_collapse.tolist(), peak_u.tolist(), peak_v.tolist())
            for row, (collapsed, pu, pv) in enumerate(flags):
                if collapsed:
                    ends[row] = (OUTCOME_DT_COLLAPSE, state, steps - 1)
                elif not (math.isfinite(pu) and math.isfinite(pv)):
                    ends[row] = (OUTCOME_NONFINITE, new, steps)
                elif pu > cfg.blowup_linf_threshold:
                    ends[row] = (OUTCOME_BLOWUP, new, steps)
        rows = [row for row, (outcome, _, _) in ends.items() if outcome == OUTCOME_BLOWUP]
        if steps % cfg.snapshot_stride == 0:
            running = (new.t < end).tolist()
            rows += [row for row, r in enumerate(running) if r and row not in ends]
            sample(new, None if len(rows) == len(running) else sorted(rows))
        elif rows:
            sample(new, rows)
        state = retire(ends, new)
    flush()
    _line_inverses.cache_clear()
    return trajectories


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
            dt_initial=0.2 * h * h, dt_min=1e-14, t_end=t_end, snapshot_stride=10**9
        )
        traj = run(
            state, params, source, grid, cfg,
            forcing_u=forcing_u, forcing_v=forcing_v,
        )
        if traj.outcome != OUTCOME_COMPLETED:
            raise RuntimeError(f"manufactured run ended with {traj.outcome}")
        diff = traj.states[-1].u - exact_u(mesh, t_end)
        errors.append(float(np.sqrt(np.sum(diff * diff) * grid.cell_volume)))
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


def write_snapshot(directory, state: State, grid: Grid, index: int) -> List[Path]:
    """One .raw file per field per sample (axis-major float64, little
    endian) with a .hdr text sidecar."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cells, extents = " ".join(map(str, grid.cells)), " ".join(map(repr, grid.extents))
    paths = []
    for name, fld in (("u", state.u), ("v", state.v)):
        raw, hdr = (directory / f"{name}_{index:06d}{suffix}" for suffix in (".raw", ".hdr"))
        np.ascontiguousarray(fld, dtype="<f8").tofile(raw)
        hdr.write_text(
            f"field: {name}\ndim: {grid.dim}\ncells: {cells}\nextents: {extents}\n"
            f"time: {state.t!r}\n"
        )
        paths += [raw, hdr]
    return paths
