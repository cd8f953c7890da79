"""run_batch against solo runs: every point of a lockstep batch gets exactly
the trajectory of its own run, whatever the other points do, its deferred
diagnostics equal samples taken the moment each state exists, and the
batch's stacked line inverses are built once per theta.  A one-point step
that splits its phase before dt over two ranges of planes, the upper one on
the helper thread, and advances v there gives the serial step's bytes; a
stack of several points steps serially."""

import collections
import contextlib
import dataclasses
import math
import sys
import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from hypothesis.extra.numpy import arrays

import kslab.solver as sv
from kslab.diagnostics import CSV_COLUMNS, DiagnosticsSeries
from kslab.params import Grid, Parameters, SourceFunction, State
from kslab.solver import (
    OUTCOME_BLOWUP,
    OUTCOME_COMPLETED,
    OUTCOME_DT_COLLAPSE,
    OUTCOME_NONFINITE,
    SolverConfig,
    initial_condition,
    manufactured_problem,
    run,
    run_batch,
)
from kslab.thresholds import CoefficientSet3D

from oracles import sampled_run_reference

UNIT3 = CoefficientSet3D(
    eps1=0.5, eps2=0.3, eps3=0.2, eps4=0.4, delta1=1.0, delta2=1.0, delta3=1.0
)
BLOWUP = 1e6

# What makes a point stop early, whatever the drawn parameters: logistic
# growth from u = 1 past BLOWUP in about 35 steps; an overflowing signal
# production (alpha u = inf at u = 2) on the first step; a Lipschitz bound
# of 2e5 that forces dt below dt_min at once.
ROLES = {
    "plain": {},
    "blowup": {"kappa": 1000.0, "mu": 1e-6},
    "nonfinite": {"alpha": 1e308},
    "collapse": {"chi": 0.0, "kappa": 0.0, "mu": 1.0},
}
ROLE_U0 = {"blowup": 1.0, "nonfinite": 2.0, "collapse": 1e5}
EXPECTED = {"blowup": OUTCOME_BLOWUP, "nonfinite": OUTCOME_NONFINITE,
            "collapse": OUTCOME_DT_COLLAPSE}


@hs.composite
def batches(draw):
    """A 1-, 2- or 3-D grid, 1 to 4 points that differ in one drawn field,
    each with a role, its own initial fields and its source (the logistic
    term, or for some plain points f == 0: only the other roles need the
    logistic term to stop), and a shared solver config."""
    dim = draw(hs.integers(1, 3))
    cells = tuple(draw(hs.integers(4, 7)) for _ in range(dim))
    grid = Grid(dim=dim, extents=tuple(draw(hs.sampled_from([1.0, 0.7]))
                                       for _ in range(dim)), cells=cells)
    count = draw(hs.integers(1, 4))
    varied = draw(hs.sampled_from(["d1", "d2", "chi", "kappa", "mu"]))
    values = hs.floats(-3.0, 3.0) if varied in ("chi", "kappa") else hs.floats(0.05, 3.0)
    base = Parameters(d1=1.0, d2=0.5, chi=2.0, alpha=1.0, beta=1.0, kappa=1.0, mu=2.0, n=dim)
    fields = arrays(float, cells, elements=hs.floats(0.0, 5.0))
    points = []
    for _ in range(count):
        role = draw(hs.sampled_from(sorted(ROLES)))
        params = dataclasses.replace(base, **{varied: draw(values), **ROLES[role]})
        if role == "plain":
            state = State(u=draw(fields), v=draw(fields), t=0.0)
        else:
            state = State(u=np.full(cells, ROLE_U0[role]), v=np.ones(cells), t=0.0)
        c3 = draw(hs.sampled_from([None, UNIT3]))
        source = SourceFunction.standard_logistic(params.kappa, params.mu)
        if role == "plain" and draw(hs.booleans()):
            source = SourceFunction.zero()
        points.append((role, state, params, c3, source))
    cfg = SolverConfig(
        dt_initial=1e-3, dt_min=1e-5, t_end=0.05, blowup_linf_threshold=BLOWUP,
        cfl_safety=draw(hs.floats(0.1, 1.0)), snapshot_stride=draw(hs.integers(1, 4)),
    )
    forcing = None
    if draw(hs.booleans()):  # NaN forcing for every point from its second step on
        def forcing(mesh, t):
            return np.full(mesh[0].shape, np.nan if t > 0.0 else 0.0)
    return grid, points, cfg, forcing


def assert_same_run(got, want):
    for name in ("outcome", "steps", "clamp_total"):
        assert getattr(got, name) == getattr(want, name), name
    assert len(got.states) == len(want.states)
    for a, b in zip(got.states, want.states):
        assert a.t == b.t
        assert np.array_equal(a.u, b.u, equal_nan=True)
        assert np.array_equal(a.v, b.v, equal_nan=True)
    assert got.diagnostics.columns.keys() == want.diagnostics.columns.keys()
    for name in got.diagnostics.columns:
        assert np.array_equal(
            got.diagnostics.column(name), want.diagnostics.column(name), equal_nan=True
        ), name


# Points that stop part-way through a buffer of deferred samples, at cfl 1:
# on t_end after about 60 steps, with clamps on the first (a checkerboard
# signal); by blow-up after 20; by dt collapse at once; and on t_end after
# about 100 (a reaction Lipschitz bound near 4e3).  On each grid the buffer's
# four stacks of room rows fit _BATCH_ELEMENTS with room 16, 20 and 4: two
# slices of all the points or more.
DEFERRED = [
    ((32, 32), ["plain", "blowup", "collapse", "stiff"]),
    ((20, 40), ["stiff", "plain", "blowup"]),
    ((16, 16, 16), ["blowup", "plain"]),
]
DEFERRED_ROLES = {**ROLES, "stiff": {"kappa": 2000.0, "mu": 4000.0}}


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("cells, roles", DEFERRED)
def test_deferred_samples_equal_immediate_ones(cells, roles, stride, monkeypatch):
    """Every column of every series of a run_batch whose samples are
    buffered and taken several slices per call is bit for bit the one that
    one-point samples give, taken as soon as each state exists."""
    calls = []
    take = DiagnosticsSeries.sample

    def counted(series, *args, **kwargs):
        calls.append(len(series))
        take(series, *args, **kwargs)

    monkeypatch.setattr(DiagnosticsSeries, "sample", staticmethod(counted))
    dim = len(cells)
    grid = Grid(dim=dim, extents=(1.0,) * dim, cells=cells)
    base = Parameters(d1=1.0, d2=0.5, chi=2.0, alpha=1.0, beta=1.0, kappa=1.0, mu=2.0, n=dim)
    bump = initial_condition("gaussian-bump", grid, base_u=0.5, base_v=0.25, amplitude=0.2)
    checkerboard = 5.0 * (np.indices(cells).sum(axis=0) % 2)  # clamps on the first step
    params, states = [], []
    for role in roles:
        params.append(dataclasses.replace(base, **DEFERRED_ROLES[role]))
        if role in ("plain", "stiff"):
            v = checkerboard if role == "plain" else bump.v
            states.append(State(u=bump.u, v=v, t=0.0))
        else:
            states.append(State(u=np.full(cells, ROLE_U0[role]), v=np.ones(cells), t=0.0))
    sources = [SourceFunction.standard_logistic(p.kappa, p.mu) for p in params]
    sets = [UNIT3 if k % 2 else None for k in range(len(roles))]
    cfg = SolverConfig(dt_initial=1e-3, dt_min=1e-5, t_end=0.05, cfl_safety=1.0,
                       blowup_linf_threshold=BLOWUP, snapshot_stride=stride)
    batch = run_batch(states, params, sources, grid, cfg, sets)
    assert max(calls) > len(roles)  # the samples were deferred
    steps = set()
    for role, state, p, source, c3, got in zip(roles, states, params, sources, sets, batch):
        want, outcome, taken = sampled_run_reference(state, p, source, grid, cfg, c3)
        assert (got.outcome, got.steps) == (outcome, taken)
        assert got.outcome == EXPECTED.get(role, OUTCOME_COMPLETED)
        for name, column in want.columns.items():
            assert got.diagnostics.columns[name].tobytes() == column.tobytes(), name
        steps.add(taken)
    assert len(steps) == len(roles)  # every point stops at its own step


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing points
@given(problem=batches())
@settings(max_examples=60, deadline=None)
def test_batch_equals_solo_runs(problem):
    grid, points, cfg, forcing = problem
    roles, states, params, sets, sources = zip(*points)
    batch = run_batch(states, params, sources, grid, cfg, sets, forcing_u=forcing)
    for role, state, p, source, c3, got in zip(roles, states, params, sources, sets, batch):
        want = run(state, p, source, grid, cfg, c3, forcing_u=forcing)
        assert_same_run(got, want)
        if role != "plain" and forcing is None:
            assert got.outcome == EXPECTED[role]


def test_start_within_the_t_end_tolerance_takes_one_step():
    """A start within 1e-9 of t_end: the batch and the sampled solo oracle
    both take one step and sample the stepped fields at t = t_end."""
    grid = Grid(dim=1, extents=(1.0,), cells=(16,))
    p = Parameters(d1=1.0, d2=0.5, chi=2.0, alpha=1.0, beta=1.0, kappa=1.0, mu=2.0, n=1)
    state = initial_condition("gaussian-bump", grid, base_u=0.5, base_v=0.25, amplitude=1.0)
    source = SourceFunction.standard_logistic(p.kappa, p.mu)
    cfg = SolverConfig(t_end=1e-10)
    [got] = run_batch([state], [p], [source], grid, cfg, [UNIT3])
    want, outcome, taken = sampled_run_reference(state, p, source, grid, cfg, UNIT3)
    assert (got.outcome, got.steps) == (outcome, taken) == (OUTCOME_COMPLETED, 1)
    assert list(got.diagnostics.times) == [0.0, cfg.t_end]
    linf = got.diagnostics.column("Linf_u")
    assert linf[1] != linf[0] == np.max(state.u)
    for name, column in want.columns.items():
        assert got.diagnostics.columns[name].tobytes() == column.tobytes(), name


@contextlib.contextmanager
def threaded(split=True):
    """Record the thread that advances each field and the one that takes
    each range of planes of a step's phase before dt; with split, every
    step of a one-point stack, of any size, splits over the caller's thread
    and the helper thread, also on one CPU, and the threads switch every
    microsecond.
    Yields the helper's records: advance, one per v half, and rate, the
    planes (a, b) of each range it took."""
    ran = []
    advance, rate = sv._advance, sv._rate_u

    def recorded(*args):
        ran.append((threading.current_thread(), "advance", None))
        return advance(*args)

    def recorded_rate(*args):
        ran.append((threading.current_thread(), "rate", args[-1]))
        return rate(*args)

    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as patch:
        if split:
            patch.setattr(sv, "_PARALLEL_ELEMENTS", 0)
            patch.setattr(sv.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            sys.setswitchinterval(1e-6)
        patch.setattr(sv, "_advance", recorded)
        patch.setattr(sv, "_rate_u", recorded_rate)
        helper = types.SimpleNamespace(advance=[], rate=[])
        try:
            yield helper
        finally:
            sys.setswitchinterval(interval)
        for thread, kind, planes in ran:
            if thread is not threading.main_thread():
                getattr(helper, kind).append(planes or thread)


def assert_split_equals_serial(march, upper):
    """march() gives the same trajectories serially and under threaded(),
    with every v half and the upper range of planes of every step's phase
    before dt, upper, on the helper; upper None: no work runs there (stacks
    of several points).  Returns the threaded ones."""
    with threaded(split=False) as helper:
        serial = march()
    assert not helper.advance and not helper.rate
    with threaded() as helper:
        split = march()
    if upper is None:
        assert not helper.advance and not helper.rate
    else:
        assert helper.advance or not any(t.steps for t in split)
        assert len(helper.rate) >= len(helper.advance)
        assert set(helper.rate) == {upper}
    for got, want in zip(split, serial):
        assert_same_run(got, want)
    return split


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing points
@given(problem=batches())
@settings(max_examples=30, deadline=None)
def test_split_step_equals_serial_step(problem):
    grid, points, cfg, forcing = problem
    assert_split_equals_serial(lambda: [
        run(state, p, source, grid, cfg, c3, forcing_u=forcing, forcing_v=forcing)
        for _, state, p, c3, source in points
    ], upper=(grid.cells[0] // 2, grid.cells[0]))


def test_split_step_keeps_the_manufactured_forcings():
    p = Parameters(d1=0.5, d2=1.0, chi=1.0, alpha=1.0, beta=2.0, kappa=1.0, mu=2.0, n=1)
    source = SourceFunction.standard_logistic(p.kappa, p.mu)
    exact, _, forcing_u, forcing_v = manufactured_problem(p, source)
    grid = Grid(dim=1, extents=(1.0,), cells=(64,))
    state = State(u=exact(grid.meshgrid(), 0.0), v=exact(grid.meshgrid(), 0.0), t=0.0)
    cfg = SolverConfig(dt_initial=1e-3, t_end=0.05)
    assert_split_equals_serial(lambda: [
        run(state, p, source, grid, cfg, forcing_u=forcing_u, forcing_v=forcing_v)
    ], upper=(32, 64))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing point
def test_split_step_keeps_clamps_nans_and_collapses():
    """At cfl 1 a checkerboard signal clamps u; alpha u overflows the v half
    of one point; one point's dt collapses and one blows up.  Each marches
    alone."""
    grid = Grid(dim=2, extents=(1.0, 1.0), cells=(32, 32))
    base = Parameters(d1=1.0, d2=0.5, chi=2.0, alpha=1.0, beta=1.0, kappa=1.0, mu=2.0, n=2)
    roles = ["plain", "nonfinite", "collapse", "blowup"]
    params = [dataclasses.replace(base, **ROLES[role]) for role in roles]
    checkerboard = 5.0 * (np.indices(grid.cells).sum(axis=0) % 2)
    states = [State(u=np.full(grid.cells, ROLE_U0.get(role, 0.5)),
                    v=checkerboard if role == "plain" else np.ones(grid.cells), t=0.0)
              for role in roles]
    sources = [SourceFunction.standard_logistic(p.kappa, p.mu) for p in params]
    cfg = SolverConfig(dt_initial=1e-3, dt_min=1e-5, t_end=0.05, cfl_safety=1.0,
                       blowup_linf_threshold=BLOWUP)
    split = assert_split_equals_serial(lambda: [
        run(state, p, source, grid, cfg) for state, p, source in zip(states, params, sources)
    ], upper=(16, 32))
    assert [t.outcome for t in split] == [OUTCOME_COMPLETED] + [
        EXPECTED[role] for role in roles[1:]]
    assert split[0].clamp_total > 0


def test_split_step_error_reaches_the_caller():
    """An exception of the v half re-raises in the caller, and numpy's
    errstate applies there as in the serial step; the helper lives on."""
    grid = Grid(dim=1, extents=(1.0,), cells=(8,))
    p = Parameters(d1=1.0, d2=1.0, chi=1.0, alpha=1.0, beta=1.0, kappa=1.0, mu=2.0, n=1)
    source = SourceFunction.standard_logistic(p.kappa, p.mu)
    state = State(u=np.full(8, 2.0), v=np.ones(8), t=0.0)
    cfg = SolverConfig(dt_initial=1e-3, t_end=0.01)

    def broken(mesh, t):
        raise ZeroDivisionError("forcing_v")

    with threaded() as helper:
        with pytest.raises(ZeroDivisionError, match="forcing_v"):
            run(state, p, source, grid, cfg, forcing_v=broken)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            run(state, dataclasses.replace(p, alpha=1e308), source, grid, cfg)
        assert run(state, p, source, grid, cfg).outcome == OUTCOME_COMPLETED
    # 10 steps and the failing one; alpha u overflows before the v field's advance
    assert len(helper.advance) == 11
    assert len(helper.rate) == 12  # the 2 failing first steps and 10


def test_split_step_keeps_the_callers_error_callback():
    """numpy's error callback, set with errstate on the caller's thread,
    hears the v half's overflow as in the serial step."""
    grid = Grid(dim=1, extents=(1.0,), cells=(8,))
    p = Parameters(d1=1.0, d2=1.0, chi=1.0, alpha=1e308, beta=1.0, kappa=1.0, mu=2.0, n=1)
    source = SourceFunction.standard_logistic(p.kappa, p.mu)
    state = State(u=np.full((1, 8), 2.0), v=np.ones((1, 8)), t=np.zeros(1))
    heard = {}
    for split in (False, True):
        calls = heard[split] = []
        with threaded(split) as helper, np.errstate(
                all="ignore", over="call", call=lambda kind, flag: calls.append(kind)):
            sv.step(state, [p], [source], SolverConfig(), grid)
        assert len(helper.advance) == len(helper.rate) == split
    assert heard[True] == heard[False] == ["overflow"]


def test_split_step_reports_an_error_before_dt_once_per_thread():
    """f(u) runs as one ufunc call on each thread of a split step, so its
    overflow reaches the caller's error callback twice, and once serially."""
    grid = Grid(dim=1, extents=(1.0,), cells=(8,))
    p = Parameters(d1=1.0, d2=1.0, chi=1.0, alpha=1.0, beta=1.0, kappa=1.0, mu=2.0, n=1)
    source = SourceFunction.standard_logistic(p.kappa, p.mu)
    state = State(u=np.full((1, 8), 1e200), v=np.ones((1, 8)), t=np.zeros(1))
    heard = {}
    for split in (False, True):
        calls = heard[split] = []
        with threaded(split) as helper, np.errstate(
                all="ignore", over="call", call=lambda kind, flag: calls.append(kind)):
            sv.step(state, [p], [source], SolverConfig(), grid)
        assert helper.rate == ([(4, 8)] if split else [])
    assert heard == {False: ["overflow"], True: ["overflow", "overflow"]}


def test_helper_that_cannot_start_is_not_kept(monkeypatch):
    """A helper thread whose start raises fails its step, and the next step
    starts another rather than wait on a queue that no thread serves."""
    grid = Grid(dim=1, extents=(1.0,), cells=(8,))
    p = Parameters(d1=1.0, d2=1.0, chi=1.0, alpha=1.0, beta=1.0, kappa=1.0, mu=2.0, n=1)
    source = SourceFunction.standard_logistic(p.kappa, p.mu)
    state = State(u=np.full(8, 2.0), v=np.ones(8), t=0.0)
    cfg = SolverConfig(dt_initial=1e-3, t_end=0.01)
    start, refused = threading.Thread.start, []

    def start_once_refused(thread):
        if not refused:
            refused.append(thread)
            raise RuntimeError("can't start new thread")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", start_once_refused)
    monkeypatch.setattr(sv, "_helper", (0, None))
    with threaded() as helper:
        with pytest.raises(RuntimeError, match="can't start new thread"):
            run(state, p, source, grid, cfg)
        assert sv._helper == (0, None)
        assert run(state, p, source, grid, cfg).outcome == OUTCOME_COMPLETED
    assert len(helper.advance) == 10 and sv._helper[1] is not None
    sv._helper[1].put(None)  # ends this test's helper thread


def mixed_d1_batch():
    """16 points of a 16^2 grid with 16 values of d1, and a shared d2."""
    grid = Grid(dim=2, extents=(1.0, 1.0), cells=(16, 16))
    params = [
        Parameters(d1=0.1 * (k + 1), d2=1.05, chi=1.0, alpha=1.0, beta=1.0,
                   kappa=1.0, mu=2.0, n=2)
        for k in range(16)
    ]
    source = SourceFunction.standard_logistic(1.0, 2.0)
    state = initial_condition(
        "gaussian-bump", grid, base_u=0.5, base_v=0.25, amplitude=1.0
    )
    cfg = SolverConfig(dt_initial=1e-3, t_end=0.05, snapshot_stride=10)
    return [state] * 16, params, [source] * 16, grid, cfg


@pytest.mark.parametrize("cells", [(9,), (7, 6), (5, 6, 7)])
@pytest.mark.parametrize("count", [1, 2])
def test_split_rate_takes_the_flux_from_below_its_planes(cells, count):
    """The helper's range of planes of one point starts inside it (an odd
    first axis: plane n0 // 2), with kappa < 0 and both forcings.  The split
    step gives the serial bytes only with the upwind flux of the plane below
    the helper's range, which it recomputes.  A stack of two points, with
    chi of both signs, steps serially: nothing runs on the helper."""
    dim, n0 = len(cells), cells[0]
    grid = Grid(dim=dim, extents=(1.0,) * dim, cells=cells)
    rng = np.random.default_rng(count)
    params = [Parameters(d1=1.0, d2=0.5, chi=chi, alpha=1.0, beta=1.0, kappa=kappa,
                         mu=2.0, n=dim)
              for chi, kappa in zip([1.5, -2.0, 0.0], [-0.5, 0.0, -1.0])][:count]
    sources = [SourceFunction.standard_logistic(p.kappa, p.mu) for p in params]
    states = [State(u=rng.uniform(0.5, 2.0, cells), v=rng.uniform(0.0, 0.1, cells), t=0.0)
              for _ in params]
    cfg = SolverConfig(dt_initial=1e-3, t_end=0.01)  # binds: the points step in lockstep

    def forcing(mesh, t):
        return np.cos(3.0 * mesh[0]) * (1.0 + t)

    split = assert_split_equals_serial(lambda: run_batch(
        states, params, sources, grid, cfg, forcing_u=forcing, forcing_v=forcing,
    ), upper=(n0 // 2, n0) if count == 1 else None)
    assert all(t.steps >= 10 for t in split)


def test_stacked_inverses_built_once_per_theta(monkeypatch):
    """16 points with 16 values of d1 hold 17 thetas per step (the d2 one is
    shared, and differs from theirs): more than the stacked-inverse cache has
    entries, but its keys are whole stacks, so over 50 steps every theta is
    inverted once; under threaded() too, where the stack steps serially."""
    builds = collections.Counter()
    build = sv._line_inverse

    def counted(n, theta):
        builds[n, theta] += 1
        return build(n, theta)

    monkeypatch.setattr(sv, "_line_inverse", counted)
    for split in (False, True):
        builds.clear()
        sv._line_inverses.cache_clear()
        with threaded(split) as helper:
            trajectories = run_batch(*mixed_d1_batch())
        assert [t.steps for t in trajectories] == [50] * 16
        assert not helper.advance and not helper.rate
        assert max(builds.values()) == 1
        assert len(builds) <= 2 * 17  # a shortened last step brings its own thetas


def test_stopped_point_leaves_the_stack():
    """A point that blows up leaves the batch at once; the other points go
    on, in a compacted stack that its inf never reaches."""
    grid = Grid(dim=1, extents=(1.0,), cells=(8,))
    calm = Parameters(d1=1.0, d2=1.0, chi=1.0, alpha=1.0, beta=1.0, kappa=1.0, mu=2.0, n=1)
    wild = dataclasses.replace(calm, **ROLES["blowup"])
    states = [State(u=np.ones(8), v=np.ones(8), t=0.0)] * 3
    params = [calm, wild, calm]
    sources = [SourceFunction.standard_logistic(p.kappa, p.mu) for p in params]
    cfg = SolverConfig(dt_initial=1e-3, t_end=0.1, blowup_linf_threshold=BLOWUP)
    first, blown, last = run_batch(states, params, sources, grid, cfg)
    assert blown.outcome == OUTCOME_BLOWUP and blown.steps < first.steps == last.steps == 100
    assert math.isfinite(float(np.max(blown.states[-1].u)))
    assert not np.shares_memory(blown.states[-1].u, first.states[-1].u)
    assert all(np.all(np.isfinite(t.diagnostics.column(c))) for t in (first, last)
               for c in CSV_COLUMNS if c != "z3")
