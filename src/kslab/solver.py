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
point alone, so a batch reproduces solo runs bit for bit.  step only
advances; run_batch marches a batch in lockstep and alone decides, after
each step, which points stop and which rows it samples; run is its one-point
call.  A step streams the grid axes (advection does not depend on dt): each
axis's face gradient of v, in one workspace stack, gives its extremes to the
dt budget and its upwind flux to f(u).  A workspace also holds scratch
stacks and output (u, v) pairs: run_batch keeps one with two pairs that
alternate, so a warm run holds six full-grid stacks and allocates none; step
alone stays pure.  Where a step does not split, each pair and the scratch
are (2, P, *grid.cells) blocks, and one _advance finishes both fields on a
block's 2 P rows: one dt scaling, one implicit-diffusion call over the
points' d1 and d2 line inverses, one clamp pass.  A workspace keeps its dt
column and line inverses while its points' dt does not change.  Where four
stacks of two slices of all its points fit in _BATCH_ELEMENTS doubles,
run_batch buffers its diagnostics samples and takes them in one call per
buffer; otherwise it samples at once in the workspace's two scratch stacks.

A one-point stack of at least _PARALLEL_ELEMENTS doubles steps on the
caller's thread and a persistent helper thread, with the serial bytes: the
helper takes the upper half of the planes before dt (_rate_u) and v after
it, each field in its own arrays.  On one CPU, in KSLAB_WORKERS workers and
on smaller grids it runs alone, as do stacks of several points: sweeps
batch points only within _BATCH_ELEMENTS = _PARALLEL_ELEMENTS doubles, so
none reaches the split.  The helper ends before every fork
(os.register_at_fork), and the next split step starts another.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .diagnostics import DiagnosticsSeries
from .params import Grid, Parameters, SourceFunction, State
from .thresholds import CoefficientSet3D

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

# One-point stacks of at least this many doubles split a step (split/serial: 64^3 0.79,
# 32^3 1.06; splitting the phase before dt too: 41^3 0.99, 256^2 1.01, 64^3 0.75).
_PARALLEL_ELEMENTS = 1 << 16
_helper = None  # (task queue, thread) of the split's helper thread, while it runs


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
    params: Sequence[Parameters],
    source: Sequence[SourceFunction],
    cfg: SolverConfig,
    grid: Grid,
    face_extremes: Sequence[Tuple[np.ndarray, np.ndarray]],
    u_extremes: Tuple[np.ndarray, np.ndarray],
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
    restriction.  face_extremes holds, per axis, the points' minima and
    maxima of their face gradients of v (_extremes), and u_extremes those of
    u; max|dv| and L come from them, exactly, so dt is bit-identical.
    """
    gmax = [[max(h, -l) for l, h in zip(lo.tolist(), hi.tolist())] for lo, hi in face_extremes]
    dts, (lows, highs) = [], (x.tolist() for x in u_extremes)
    for point, (prm, src, lo, hi) in enumerate(zip(params, source, lows, highs)):
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


def _extremes(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The minima and the maxima of the points stacked in a."""
    rows = a.reshape(len(a), -1)
    return rows.min(axis=1), rows.max(axis=1)


def _face_gradient(v: np.ndarray, grid: Grid, axis: int, out, planes) -> np.ndarray:
    """Face difference quotients along one grid axis of the stack v's planes
    a to b - 1, (a, b) = planes (cells at one index of the first grid axis,
    point after point; inside one point or whole points), into out, shaped
    (points, planes per point, *grid.cells[1:]) and contiguous.  Entry i
    along the axis is (v_{i+1} - v_i) / h, the quotient across the face
    between cells i and i + 1, and the last entry, a boundary face, is 0 (no
    flux).  Face i then sits at cell i's index, so the difference is one
    pass over the flat array, shifted by the axis stride."""
    lead, size, (a, b) = out.ndim - grid.dim, math.prod(grid.cells[1:]), planes
    stride = math.prod(grid.cells[axis + 1:])
    flat, lo, hi = v.reshape(-1), a * size, min(b * size, v.size - stride)
    np.subtract(flat[lo + stride:hi + stride], flat[lo:hi], out=out.reshape(-1)[:hi - lo])
    if axis or b % grid.cells[0] == 0:  # across lines and points: not a face
        out[(slice(None),) * (lead + axis) + (-1,)] = 0.0
    out /= grid.spacing[axis]
    return out


def _upwind_flux(g, u, chi, grid: Grid, axis: int, tmp) -> np.ndarray:
    """The flat upwind flux over h through the faces g = _face_gradient(v,
    grid, axis, ...), which it overwrites, zero through boundary faces; u is
    the flat stack from g's first cell on.  With w = chi g / h, the flux w *
    (u_lo if w > 0 else u_hi) is max(w, 0) u_lo + min(w, 0) u_hi: no gather.
    On _face_gradient's layout u_lo is u itself and u_hi is u shifted by the
    axis stride in flat memory, so every pass is contiguous.  chi is a number
    or the stack's per-point column; tmp is a scratch array of g's size."""
    stride = math.prod(grid.cells[axis + 1:])
    g *= chi / grid.spacing[axis]
    w, up = g.reshape(-1), tmp.reshape(-1)
    np.maximum(w, 0.0, out=up)
    up *= u[:w.size]
    np.minimum(w, 0.0, out=w)
    w[:len(u) - stride] *= u[stride:w.size + stride]  # the stack's last faces: boundary
    w += up
    return w


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
    """One step's outcome, one array entry per point: the CFL dt of
    compute_dt, before the t_end cap (below dt_min: a collapse, which
    run_batch attributes), the cells clamped, and peaks, the max of u and of
    v after the clamp."""

    dt: np.ndarray
    clamped: np.ndarray
    peaks: Tuple[np.ndarray, np.ndarray]


def _column(values: Sequence[float], dim: int):
    """One coefficient of P points: the value itself if all points share it
    bit for bit (numpy's faster scalar path, with the same rounding), else a
    (P, 1, ..., 1) column that broadcasts over P stacked fields."""
    if len({float(x).hex() for x in values}) == 1:
        return float(values[0])
    return np.array(values, dtype=float).reshape((len(values),) + (1,) * dim)


class _Workspace:
    """Stacks of steps of P points on one grid: face, for one axis's face
    gradient at a time, and tmp, both dead between steps; the output pairs
    (u, v, uv); two planes (seam) for the fluxes below a split step's upper
    range; the points' coefficients as _column values; and the dt list of
    the last step with its dt column and line inverses, kept while the
    points' dt is unchanged.

    Where a step does not split (split False: several points, or one below
    _PARALLEL_ELEMENTS), uv is one (2, P, *grid.cells) block with u and v as
    its halves, and scratch is one such block, so one _advance finishes both
    fields on the block's 2 P rows with diffusion, the column of d1 then d2
    of each point.  A split step advances u and v on two threads, each in
    its own allocations: uv and scratch are lists of two stacks."""

    def __init__(self, params: Sequence[Parameters], sources: Sequence[SourceFunction],
                 grid: Grid, pairs: int):
        shape = (len(params),) + grid.cells
        self.split = len(params) == 1 and math.prod(shape) >= _PARALLEL_ELEMENTS

        def block():  # two stacks: one allocation, or two where a step splits
            return [np.empty(shape), np.empty(shape)] if self.split else np.empty((2,) + shape)

        self.face, self.tmp = self.scratch = block()
        self.pairs = [(*uv, uv) for uv in (block() for _ in range(pairs))]
        self.seam = np.empty((2, 1, 1) + grid.cells[1:])
        for name in ("chi", "alpha", "beta"):
            setattr(self, name, _column([getattr(p, name) for p in params], grid.dim))
        self.diffusion = _column([p.d1 for p in params] + [p.d2 for p in params], grid.dim)
        self.source = replace(sources[0], **{  # f(u) with each point's kappa and mu
            name: _column([getattr(s, name) for s in sources], grid.dim)
            for name in ("kappa", "mu")
        })
        self.advect = bool(np.any(self.chi != 0.0))
        self.dt = None  # the last step's dt list, dt column and inverses

    def inverses(self, dt: List[float], grid: Grid):
        """The dt column of the points' dt list and the line inverses of
        their fields' 2 P rows, u's then v's (_inverses); rebuilt only when
        dt changes."""
        if self.dt is None or self.dt[0] != dt:
            rows = _inverses(self.diffusion, _column(dt * 2, grid.dim), grid, 2 * len(dt))
            self.dt = (dt, _column(dt, grid.dim), rows)
        return self.dt[1:]


ForcingFn = Callable[[Tuple[np.ndarray, ...], float], np.ndarray]


def _advance(new, old, forcing, inverses, dt, t, mesh, grid: Grid, tmp):
    """Finish the step of the F fields stacked in new, (F, P, *grid.cells),
    each holding its rate without forcing, in place: one entry of old and
    forcing per field, inverses for the F P rows in order, and tmp a
    contiguous scratch of new's size.  Returns each point's clamped cells,
    summed over the fields, and each field's peaks, (F, P)."""
    for field, force in zip(new, forcing):
        if force is not None:
            for row, s in zip(field, t):
                row += force(mesh, s)
    new *= dt
    for field, before in zip(new, old):
        field += before
    _implicit_diffusion(new, inverses, grid, tmp)
    rows = new.reshape(new.shape[0] * new.shape[1], -1)
    low = rows.min(axis=1)  # NaN: the point's clamps are still counted
    clamped = 0 if (low >= -CLAMP_TOLERANCE).all() else np.count_nonzero(
        rows < -CLAMP_TOLERANCE, axis=1).reshape(len(new), -1).sum(axis=0)
    for row in np.flatnonzero(low < 0.0):  # not at a NaN: such a point keeps its values
        np.maximum(rows[row], 0.0, out=rows[row])
    return clamped, rows.max(axis=1).reshape(len(new), -1)


def _rate_u(u, v, rate, work: _Workspace, grid: Grid, planes) -> list:
    """A step's phase before dt on the stack's planes x[:, a:b], (a, b) =
    planes: all of them, (0, P n0), or half of a one-point stack's, whose
    _column values are numbers.  rate = f(u) minus the upwind div(chi u grad
    v), and the per-point _extremes of u and of each axis's face gradients of
    v.  Per axis rate_j <- (rate_j - F_j) + F_{j - stride}, F from
    _upwind_flux; a range above plane 0 recomputes F of the plane below it in
    work.seam, so that two threads on two ranges write nothing that the other
    reads."""
    a, b = planes
    size, flat = math.prod(grid.cells[1:]), u.reshape(-1)
    own, mine = rate[:, a:b], u[:, a:b]
    work.source(mine, out=own)
    extremes, own = [_extremes(mine)], own.reshape(-1)
    for axis in range(grid.dim):  # advection does not depend on dt
        g = _face_gradient(v, grid, axis, work.face[:, a:b], planes)
        extremes.append(_extremes(g))
        if work.advect:
            stride = math.prod(grid.cells[axis + 1:])
            flux = _upwind_flux(g, flat[a * size:], work.chi, grid, axis, work.tmp[:, a:b])
            own -= flux
            own[stride:] += flux[:-stride]
            if a:
                below = _face_gradient(v, grid, axis, work.seam[0], (a - 1, a))
                own[:stride] += _upwind_flux(below, flat[(a - 1) * size:], work.chi,
                                             grid, axis, work.seam[1])[-stride:]
    return extremes


def _serve(tasks: "queue.SimpleQueue") -> None:
    """The helper thread: run each task's fn under its caller's errstate and
    put what fn returns or raises on done."""
    for errstate, fn, done in iter(tasks.get, None):
        try:
            with np.errstate(**errstate):
                done.put(fn())
        except BaseException as exc:
            done.put(exc)


def _split(theirs, mine, alone):
    """(mine(), theirs()) with theirs on this process's helper thread under
    the caller's errstate, or (alone(), None) without theirs, on one CPU
    and in a multiprocessing child.  theirs ends before _split returns, also
    when mine raises, and its exception re-raises here."""
    global _helper
    mp = sys.modules.get("multiprocessing")
    if not theirs or _helper is None and (  # serial if the CPUs are unknown
            len(getattr(os, "sched_getaffinity", lambda pid: [0])(0)) < 2
            or (mp and mp.parent_process())):
        return alone(), None
    import queue  # not at module import: it costs 0.2 MiB in every process
    if _helper is None:  # registered once started: start() may raise
        tasks = queue.SimpleQueue()
        thread = threading.Thread(target=_serve, args=(tasks,), daemon=True)
        thread.start()
        _helper = (tasks, thread)
    done = queue.SimpleQueue()
    _helper[0].put((dict(np.geterr(), call=np.geterrcall()), theirs, done))
    try:
        result = mine()
    finally:
        other = done.get()
    if isinstance(other, BaseException):
        raise other
    return result, other


def _stop_helper() -> None:
    """End the helper thread, before a fork: the child would lack it, and
    the parent then forks with no thread of kslab's (Python >= 3.12 warns
    when a process with threads forks).  The next split step starts
    another."""
    global _helper
    if _helper is not None:
        (tasks, thread), _helper = _helper, None
        tasks.put(None)
        thread.join()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_stop_helper)


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

    Every point advances by its CFL dt capped at t_end - t (uncapped at or
    past t_end), whatever dt is; whether a point stops is run_batch's
    decision.  run_batch passes its workspace, made for the same points, as
    work, and the result lives in the pair not holding state.u until the
    step after next; without work the result is in fresh arrays.  A step
    that does not split advances u and v as the two halves of one block
    (_Workspace); a split step advances them on two threads, and reports a
    floating-point error before dt once per thread.
    """
    u, v = state.u, state.v
    work = work or _Workspace(params, source, grid, pairs=1)
    new_u, new_v, new = next(pair for pair in work.pairs if pair[0] is not u)
    n0 = grid.cells[0]
    rate_u = partial(_rate_u, u, v, new_u, work, grid)
    extremes, upper = _split(work.split and partial(rate_u, (n0 // 2, n0)),
                             partial(rate_u, (0, n0 // 2)), partial(rate_u, (0, len(u) * n0)))
    if upper:  # a min of mins is exact
        extremes = [(np.minimum(lo, lo2), np.maximum(hi, hi2))
                    for (lo, hi), (lo2, hi2) in zip(extremes, upper)]
    dt_cfl = compute_dt(params, source, cfg, grid, extremes[1:], extremes[0])
    t = state.t.tolist()
    dt = [min(d, cfg.t_end - s) if cfg.t_end - s > 0.0 else d
          for d, s in zip(dt_cfl.tolist(), t)]
    dt_column, inverses = work.inverses(dt, grid)
    if mesh is None and (forcing_u or forcing_v):
        mesh = grid.meshgrid()

    def rate_v(out):  # work.face is dead once the last axis is advected
        np.multiply(v, -work.beta, out=out)
        np.add(out, np.multiply(u, work.alpha, out=work.face), out=out)

    if not work.split:  # one advance of both fields' rows
        rate_v(new_v)
        clamped, peaks = _advance(new, (u, v), (forcing_u, forcing_v), inverses,
                                  dt_column, t, mesh, grid, work.scratch)
    else:  # one point: row 0 of each axis's inverses is u's, row 1 v's
        def advance_v():
            rate_v(new_v)
            return _advance(new_v[None], (v,), (forcing_v,), [i[1:] for i in inverses],
                            dt_column, t, mesh, grid, work.face)

        advance_u = partial(_advance, new_u[None], (u,), (forcing_u,),
                            [i[:1] for i in inverses], dt_column, t, mesh, grid, work.tmp)
        (clamped_u, peak_u), half_v = _split(advance_v, advance_u, advance_u)
        clamped_v, peak_v = half_v or advance_v()
        clamped, peaks = clamped_u + clamped_v, (peak_u[0], peak_v[0])
    info = StepInfo(dt=dt_cfl, clamped=np.zeros(len(u), dtype=int) + clamped,
                    peaks=tuple(peaks))
    return State(u=new_u, v=new_v, t=np.array([s + d for s, d in zip(t, dt)])), info


def run(
    state0: State,
    params: Parameters,
    source: SourceFunction,
    grid: Grid,
    cfg: SolverConfig,
    coeffs3: Optional[CoefficientSet3D] = None,
    forcing_u: Optional[ForcingFn] = None,
    forcing_v: Optional[ForcingFn] = None,
) -> Trajectory:
    """March one point: the one-point call of run_batch, which documents the
    outcomes, the sampling and the states kept."""
    return run_batch(
        [state0], [params], [source], grid, cfg, [coeffs3], forcing_u, forcing_v
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
        u, v, _ = self.work.pairs[0]
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
    forcing_u: Optional[ForcingFn] = None,
    forcing_v: Optional[ForcingFn] = None,
) -> List[Trajectory]:
    """March every point i, (states0[i], params[i], sources[i]) with the z3
    coefficient set coeffs3[i] (None: no set), from a t below t_end (else
    ValueError), sampling diagnostics at the start and every
    snapshot_stride steps; the forcings apply to every point.  After
    each step one pass decides, in this order, which points stop: a dt
    collapse (StepInfo.dt < dt_min; the point keeps its input fields and
    steps - 1, and adds no clamps), a non-finite u or v (kept, not sampled),
    blow-up (sampled), and t_end (sampled and kept at t = t_end).

    The points step in lockstep on one stack, every active point on every
    iteration with its own dt and t, so each trajectory equals the point's
    solo run bit for bit.  A point leaves as soon as it stops and the rest
    are compacted into a smaller stack, so a stopped point's inf or NaN never
    enters the others' arithmetic.  A trajectory keeps the initial and final
    states only, so memory does not grow with the run length, and no step
    writes into states0's arrays.

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
    if not all(state.t < cfg.t_end for state in states0):
        raise ValueError("every initial t must lie below t_end")
    count = len(states0)
    if not count:
        return []
    coeffs3 = list(coeffs3 or [None] * count)
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
            totals, [coeffs3[i] for i in points], scratch=scratch,
        )

    def flush() -> None:
        """Take the buffered rows in one call and empty the buffer."""
        if held:
            points, t, totals = zip(*held)
            rows = len(held)
            state = State(u=buffer[0, :rows], v=buffer[1, :rows], t=np.array(t))
            take(state, points, list(totals), (buffer[2, :rows], buffer[3, :rows]))
            held.clear()

    def sample(state: State, rows: Sequence[int]) -> None:
        """Sample the given batch rows, in order: into the buffer, or at once
        in the step workspace without one."""
        points = batch.points
        if len(rows) < len(points):
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
    sample(state, range(count))
    peaks = state.u.reshape(count, -1).max(axis=1).tolist()
    state = retire(
        {row: (OUTCOME_BLOWUP, None, 0)
         for row, peak in enumerate(peaks) if peak > cfg.blowup_linf_threshold},
        state,
    )
    while batch is not None:
        new, info = step(
            state, batch.params, batch.sources, cfg, grid, forcing_u, forcing_v, mesh,
            work=batch.work,
        )
        steps += 1
        ends, rows = {}, []  # the rows that stop, and the rows sampled
        flags = zip(info.dt.tolist(), info.clamped.tolist(), info.peaks[0].tolist(),
                    info.peaks[1].tolist(), new.t.tolist())
        for row, (dt, clamped, pu, pv, t) in enumerate(flags):
            if dt < cfg.dt_min:  # the step is void: input fields, no clamps
                ends[row] = (OUTCOME_DT_COLLAPSE, state, steps - 1)
                continue
            clamps[batch.points[row]] += clamped
            if not (math.isfinite(pu) and math.isfinite(pv)):
                ends[row] = (OUTCOME_NONFINITE, new, steps)
                continue
            if pu > cfg.blowup_linf_threshold:
                ends[row] = (OUTCOME_BLOWUP, new, steps)
            elif not t < end:
                new.t[row] = cfg.t_end
                ends[row] = (OUTCOME_COMPLETED, new, steps)
            elif steps % cfg.snapshot_stride:
                continue
            rows.append(row)
        sample(new, rows)
        state = retire(ends, new)
    flush()
    _line_inverses.cache_clear()
    return trajectories


# ---------------------------------------------------------------------------
# Manufactured solutions and the refinement study
# ---------------------------------------------------------------------------


def manufactured_problem(params: Parameters, source: SourceFunction, grid: Grid):
    """The manufactured pair u* = v* = 2 + e^{-t} prod_i cos(k_i x_i) on
    grid's box, with k_i = (i + 1) pi / L_i for the side L_i of axis i.

    Each factor has zero derivative at x_i = 0 and x_i = L_i and is
    mirror-symmetric across both, so the no-flux ghost closure is exact for
    the pair on any extents; each axis holds its own mode, so a fault on one
    axis is not cancelled by another.  Returns (exact, forcing_u,
    forcing_v): exact(mesh, t) gives the pair, and the forcings make it an
    exact solution of the forced system.
    """
    k = [(axis + 1) * math.pi / side for axis, side in enumerate(grid.extents)]
    k2 = sum(ki * ki for ki in k)
    d1, d2, chi = params.d1, params.d2, params.chi
    alpha, beta = params.alpha, params.beta

    def modes(mesh, t):  # c = u* - 2 and its factors, cos(k_i x_i)
        cos = [np.cos(ki * x) for ki, x in zip(k, mesh)]
        return math.exp(-t) * math.prod(cos), cos

    def exact(mesh, t):
        return 2.0 + modes(mesh, t)[0]

    def forcing_u(mesh, t):
        c, cos = modes(mesh, t)
        u_t, lap_u = -c, -k2 * c
        grad2 = 0.0  # |grad u|^2
        for i, (ki, x) in enumerate(zip(k, mesh)):
            s = np.sin(ki * x) * math.exp(-t) * math.prod(cos[:i] + cos[i + 1:])
            grad2 = grad2 + ki * ki * s * s
        # div(u grad v) = |grad u|^2 + u lap v for the identical pair
        return u_t - d1 * lap_u + chi * (grad2 + (2.0 + c) * lap_u) - source(2.0 + c)

    def forcing_v(mesh, t):
        c = modes(mesh, t)[0]
        return -c - d2 * (-k2 * c) + beta * (2.0 + c) - alpha * (2.0 + c)

    return exact, forcing_u, forcing_v


@dataclass(frozen=True)
class RefinementResult:
    cells: Tuple[Tuple[int, ...], ...]
    errors: Tuple[float, ...]
    orders: Tuple[float, ...]
    observed_order: float


def refinement_study(
    params: Parameters,
    source: SourceFunction,
    grid: Grid,
    t_end: float = 0.25,
) -> RefinementResult:
    """Measure the spatial convergence order of the manufactured pair
    (manufactured_problem) on grid and on its two refinements, 2 and 4
    times its cells on every axis within its extents: the L2 error of u at
    t_end on each level, the order log2 of each error ratio, and their mean.

    The time step is tied to h^2, dt = 0.2 min(h)^2 on each level, so the
    first-order-in-time splitting error refines at the same rate as the
    second-order space error and does not pollute the observed order; a dt
    that the CFL bound cuts 10^10 times below it is a collapse.  A run that
    does not complete, or errors that give no order, raise RuntimeError.
    """
    exact, forcing_u, forcing_v = manufactured_problem(params, source, grid)
    levels = [replace(grid, cells=tuple(n * r for n in grid.cells)) for r in (1, 2, 4)]
    errors = []
    for level in levels:
        mesh = level.meshgrid()
        state = State(u=exact(mesh, 0.0), v=exact(mesh, 0.0), t=0.0)
        h = min(level.spacing)
        dt = 0.2 * h * h
        cfg = SolverConfig(dt_initial=dt, dt_min=1e-10 * dt, t_end=t_end,
                           snapshot_stride=10**9)
        traj = run(
            state, params, source, level, cfg,
            forcing_u=forcing_u, forcing_v=forcing_v,
        )
        if traj.outcome != OUTCOME_COMPLETED:
            raise RuntimeError(f"manufactured run ended with {traj.outcome}")
        diff = traj.states[-1].u - exact(mesh, t_end)
        errors.append(float(np.sqrt(np.sum(diff * diff) * level.cell_volume)))
    if not all(errors):
        raise RuntimeError(f"manufactured errors {errors} give no order")
    orders = tuple(
        math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)
    )
    return RefinementResult(
        cells=tuple(level.cells for level in levels),
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
