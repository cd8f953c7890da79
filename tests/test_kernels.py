"""The fused step and sample kernels against the formulas as first written
(tests/oracles.py), and the memory they share or keep."""

import dataclasses
import math
import tracemalloc

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as hs
from hypothesis.extra.numpy import arrays

import kslab.solver as sv
from kslab.diagnostics import DiagnosticsSeries
from kslab.params import Grid, Parameters, SourceFunction, State, validate
from kslab.solver import SolverConfig, initial_condition, run, run_batch, step
from kslab.thresholds import CoefficientSet3D

from oracles import sample_reference, step_reference
from points import one_point

UNIT3 = CoefficientSet3D(
    eps1=0.5, eps2=0.3, eps3=0.2, eps4=0.4, delta1=1.0, delta2=1.0, delta3=1.0
)
REL = 1e-13


@hs.composite
def problems(draw):
    """A 1-, 2- or 3-D grid of 4 to 8 cells per axis, parameters that
    validate accepts, nonnegative fields (u, v) on it and a CFL safety factor
    that may allow clamps."""
    dim = draw(hs.integers(1, 3))
    cells = tuple(draw(hs.integers(4, 8)) for _ in range(dim))
    extents = tuple(draw(hs.sampled_from([1.0, 0.7, 2.5])) for _ in range(dim))
    positive = hs.floats(0.01, 3.0)
    params = Parameters(
        d1=draw(positive), d2=draw(positive), chi=draw(hs.floats(-5.0, 5.0)),
        alpha=draw(positive), beta=draw(positive),
        kappa=draw(hs.floats(-3.0, 3.0)), mu=draw(positive), n=dim,
    )
    try:
        validate(params)
    except ValueError:  # a subnormal kappa/mu or chi*chi, which no config reaches
        reject()
    fields = arrays(float, cells, elements=hs.floats(0.0, 10.0))
    grid = Grid(dim=dim, extents=extents, cells=cells)
    return grid, params, draw(fields), draw(fields), draw(hs.floats(0.01, 1.0))


def assert_close_fields(got, want):
    scale = float(np.max(np.abs(want)))
    np.testing.assert_allclose(got, want, rtol=REL, atol=REL * scale)


@given(problem=problems())
@settings(max_examples=150, deadline=None)
def test_step_agrees_with_reference(problem):
    grid, params, u, v, cfl = problem
    cfg = SolverConfig(dt_initial=1.0, t_end=10.0, cfl_safety=cfl)
    source = SourceFunction.standard_logistic(params.kappa, params.mu)
    state = State(u=u, v=v, t=0.0)
    stacked, info = step(one_point(state), [params], [source], cfg, grid)
    new = State(u=stacked.u[0], v=stacked.v[0], t=float(stacked.t[0]))
    ref_u, ref_v, ref_dt, clamp_u, clamp_v = step_reference(
        state, params, source, cfg, grid
    )
    assert info.dt[0] == ref_dt
    assert info.clamped[0] == int(np.count_nonzero(clamp_u) + np.count_nonzero(clamp_v))
    assert np.all(new.u[clamp_u] == 0.0) and np.all(new.v[clamp_v] == 0.0)
    assert_close_fields(new.u, ref_u)
    assert_close_fields(new.v, ref_v)
    assert (info.peaks[0][0], info.peaks[1][0]) == (np.max(new.u), np.max(new.v))


@given(problem=problems())
@settings(max_examples=150, deadline=None)
def test_sample_agrees_with_reference(problem):
    grid, params, u, v, _ = problem
    state = State(u=u, v=v, t=0.25)
    series = DiagnosticsSeries()
    DiagnosticsSeries.sample([series], one_point(state), grid, [params], [3], [UNIT3])
    want = sample_reference(state, grid, params, UNIT3)
    for name, value in want.items():
        got = series.columns[name][0]
        if math.isnan(value):
            assert math.isnan(got), name
        else:
            assert math.isclose(got, value, rel_tol=REL), name
    assert list(series.columns["t"]) == [0.25] and list(series.columns["clamp_count"]) == [3]


def bump_run_inputs(cells, dim):
    params = Parameters(d1=1, d2=1, chi=1, alpha=1, beta=1, kappa=1, mu=9.2921, n=3)
    grid = Grid(dim=dim, extents=(1.0,) * dim, cells=(cells,) * dim)
    state = initial_condition(
        "gaussian-bump", grid, base_u=0.1, base_v=0.1, amplitude=5.0, width=0.1
    )
    source = SourceFunction.standard_logistic(params.kappa, params.mu)
    return state, params, source, grid


def test_run_leaves_initial_state_unchanged():
    state0, params, source, grid = bump_run_inputs(16, 2)
    u0, v0 = state0.u.copy(), state0.v.copy()
    traj = run(state0, params, source, grid, SolverConfig(dt_initial=0.01, t_end=0.1))
    assert traj.steps > 1
    assert np.array_equal(state0.u, u0) and np.array_equal(state0.v, v0)
    assert traj.states[0] is state0
    final = traj.states[-1]
    assert not np.shares_memory(final.u, u0) and not np.array_equal(final.u, u0)


def test_successive_steps_share_no_memory():
    state, params, source, grid = bump_run_inputs(16, 2)
    cfg = SolverConfig(dt_initial=0.01, t_end=1.0)
    first, _ = step(one_point(state), [params], [source], cfg, grid)
    second, _ = step(first, [params], [source], cfg, grid)
    arrays_ = [state.u, state.v, first.u, first.v, second.u, second.v]
    for i, a in enumerate(arrays_):
        for b in arrays_[i + 1:]:
            assert not np.shares_memory(a, b)


def test_warm_run_peak_memory_in_field_arrays():
    """A warm 20-step 32^3 run (numpy's first calls done; the line inverses,
    which run drops when it ends, are rebuilt at 8 KiB each) peaks at no
    more than 7 field arrays of traced memory.

    run holds 6 fields, all in its step workspace: one face-gradient array,
    which each axis reuses in turn, a scratch field (tmp), and two (u, v)
    output pairs.  Sampling works in the face array and tmp, which are dead
    between steps.  On top come numpy's ufunc buffers for the few strided
    passes left: 6.22 fields measured.  One more full-grid array anywhere
    would exceed 7; with three face arrays and a sampling scratch pair of
    its own, the run peaked at 10.23.
    """
    state0, params, source, grid = bump_run_inputs(32, 3)
    cfg = SolverConfig(dt_initial=0.005, t_end=0.1, snapshot_stride=5)
    run(state0, params, source, grid, cfg)
    tracemalloc.start()
    try:
        traj = run(state0, params, source, grid, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.steps == 20 and len(traj.diagnostics.times) == 5
    assert peak <= 7 * state0.u.nbytes


def test_deferred_samples_peak_memory_within_buffer(monkeypatch):
    """A warm 20-step run_batch of 4 points on 32^2 with a sample every step
    buffers its samples in four stacks of room = 16 rows, _BATCH_ELEMENTS
    doubles in all.  Its traced peak exceeds that of the same run sampled at
    once (no budget, so no buffer) by at most that buffer and one ufunc
    buffer of np.getbufsize() doubles, which a flush's broadcast passes over
    16 rows fill and a sample's over 4 rows only half fill: 564 KB measured
    against 589.8 KB.  Copying the buffered rows, or fresh scratch stacks,
    per flush would each add 256 KiB."""
    state0, params, source, grid = bump_run_inputs(32, 2)
    params = [dataclasses.replace(params, d1=d1) for d1 in (0.25, 0.5, 1.0, 2.0)]
    cfg = SolverConfig(dt_initial=1e-3, t_end=0.02, snapshot_stride=1)

    def peak():
        run_batch([state0] * 4, params, [source] * 4, grid, cfg)
        tracemalloc.start()
        try:
            trajectories = run_batch([state0] * 4, params, [source] * 4, grid, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [len(t.diagnostics.times) for t in trajectories] == [21] * 4
        return peak

    buffer = 4 * 16 * state0.u.nbytes  # u, v and two scratch stacks of 16 rows
    assert buffer <= sv._BATCH_ELEMENTS * 8
    deferred = peak()
    monkeypatch.setattr(sv, "_BATCH_ELEMENTS", 0)
    at_once = peak()
    assert deferred - at_once <= buffer + np.getbufsize() * 8
