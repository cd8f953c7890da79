"""run_batch against solo runs: every point of a lockstep batch gets exactly
the trajectory of its own run, whatever the other points do, its deferred
diagnostics equal samples taken the moment each state exists, and the
batch's stacked line inverses are built once per theta."""

import collections
import dataclasses
import math

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
    run,
    run_batch,
)
from kslab.thresholds import CoefficientSet3D, CoefficientSet45D

from oracles import sampled_run_reference

UNIT3 = CoefficientSet3D(
    eps1=0.5, eps2=0.3, eps3=0.2, eps4=0.4, delta1=1.0, delta2=1.0, delta3=1.0
)
UNIT45 = CoefficientSet45D(
    eps=0.5, eta=0.5, eps1=1, eps2=1, eps3=1, eps4=1,
    delta1=1.0, delta2=1.0, delta3=1.0, delta4=1.0,
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
    each with a role and its own initial fields, and a shared solver config."""
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
        sets = draw(hs.sampled_from([(None, None), (UNIT3, UNIT45)]))
        points.append((role, state, params, sets))
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
    sets = [(UNIT3, UNIT45) if k % 2 else (None, None) for k in range(len(roles))]
    cfg = SolverConfig(dt_initial=1e-3, dt_min=1e-5, t_end=0.05, cfl_safety=1.0,
                       blowup_linf_threshold=BLOWUP, snapshot_stride=stride)
    batch = run_batch(states, params, sources, grid, cfg,
                      [c3 for c3, _ in sets], [c45 for _, c45 in sets])
    assert max(calls) > len(roles)  # the samples were deferred
    steps = set()
    for role, state, p, source, (c3, c45), got in zip(
        roles, states, params, sources, sets, batch
    ):
        want, outcome, taken = sampled_run_reference(state, p, source, grid, cfg, c3, c45)
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
    roles, states, params, sets = zip(*points)
    sources = [SourceFunction.standard_logistic(p.kappa, p.mu) for p in params]
    batch = run_batch(
        states, params, sources, grid, cfg,
        [c3 for c3, _ in sets], [c45 for _, c45 in sets], forcing_u=forcing,
    )
    for role, state, p, source, (c3, c45), got in zip(
        roles, states, params, sources, sets, batch
    ):
        want = run(state, p, source, grid, cfg, c3, c45, forcing_u=forcing)
        assert_same_run(got, want)
        if role != "plain" and forcing is None:
            assert got.outcome == EXPECTED[role]


def test_stacked_inverses_built_once_per_theta(monkeypatch):
    """16 points with 16 values of d1 hold 17 thetas per step (the d2 one is
    shared, and differs from theirs): more than the stacked-inverse cache has
    entries, but its keys are whole stacks, so over 50 steps every theta is
    inverted once."""
    builds = collections.Counter()
    build = sv._line_inverse

    def counted(n, theta):
        builds[n, theta] += 1
        return build(n, theta)

    monkeypatch.setattr(sv, "_line_inverse", counted)
    sv._line_inverses.cache_clear()
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
    trajectories = run_batch([state] * 16, params, [source] * 16, grid, cfg)
    assert [t.steps for t in trajectories] == [50] * 16
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
               for c in CSV_COLUMNS if c not in ("z3", "z45"))
