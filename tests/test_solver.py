import dataclasses
import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from hypothesis.extra.numpy import arrays

from kslab.diagnostics import DiagnosticsSeries
from kslab.params import Grid, Parameters, SourceFunction, State
from kslab.solver import (
    OUTCOME_BLOWUP,
    OUTCOME_COMPLETED,
    OUTCOME_DT_COLLAPSE,
    OUTCOME_NONFINITE,
    SolverConfig,
    _implicit_diffusion,
    _inverses,
    _line_inverse,
    _rate_u,
    _Workspace,
    compute_dt,
    initial_condition,
    manufactured_problem,
    refinement_study,
    run,
    run_batch,
    step,
    write_snapshot,
)

from points import extremes, one_point


def unit_params(**kw):
    base = dict(d1=1, d2=1, chi=1, alpha=1, beta=1, kappa=1, mu=8, n=3)
    base.update(kw)
    return Parameters(**base)


def logistic(params):
    return SourceFunction.standard_logistic(params.kappa, params.mu)


class TestInitialCondition:
    def test_zero_amplitude_is_homogeneous(self):
        g = Grid(dim=2, extents=(1, 1), cells=(8, 8))
        st = initial_condition(
            "constant-plus-perturbation", g, base_u=0.125, base_v=0.25
        )
        assert np.all(st.u == 0.125) and np.all(st.v == 0.25)
        assert st.t == 0.0

    def test_perturbation_seeded_and_nonnegative(self):
        g = Grid(dim=1, extents=(1.0,), cells=(32,))
        a = initial_condition(
            "constant-plus-perturbation", g, base_u=0.1, base_v=0, amplitude=0.5, seed=3
        )
        b = initial_condition(
            "constant-plus-perturbation", g, base_u=0.1, base_v=0, amplitude=0.5, seed=3
        )
        c = initial_condition(
            "constant-plus-perturbation", g, base_u=0.1, base_v=0, amplitude=0.5, seed=4
        )
        assert np.array_equal(a.u, b.u)
        assert not np.array_equal(a.u, c.u)
        assert np.min(a.u) >= 0.0

    def test_gaussian_bump_shape(self):
        g = Grid(dim=3, extents=(1, 1, 1), cells=(16, 16, 16))
        st = initial_condition(
            "gaussian-bump", g, base_u=0.5, base_v=0.2, amplitude=5.0, width=0.1
        )
        assert np.max(st.u) == pytest.approx(5.0 + 0.5, rel=0.2)
        assert np.min(st.u) >= 0.0
        assert np.all(st.v == 0.2)

    def test_custom_field_negative_rejected(self):
        g = Grid(dim=1, extents=(1.0,), cells=(4,))
        with pytest.raises(ValueError, match="nonnegative"):
            State(u=np.array([1, -1, 1, 1.0]), v=np.zeros(4), t=0.0).check(g)

    def test_unknown_kind(self):
        g = Grid(dim=1, extents=(1.0,), cells=(4,))
        with pytest.raises(ValueError, match="unknown initial-condition"):
            initial_condition("ring", g)


class TestStepExactness:
    def test_homogeneous_equilibrium_is_fixed_point(self):
        # awkward (non power of two) damping rate on a 3-D grid
        p = unit_params(mu=9.2921)
        g = Grid(dim=3, extents=(1, 1, 1), cells=(8, 8, 8))
        ue = p.kappa / p.mu
        ve = p.alpha * p.kappa / (p.beta * p.mu)
        st = one_point(State(u=np.full(g.cells, ue), v=np.full(g.cells, ve), t=0.0))
        cfg = SolverConfig(dt_initial=0.05, t_end=1.0)
        for _ in range(5):
            st, info = step(st, [p], [logistic(p)], cfg, g)
            assert info.dt[0] >= cfg.dt_min
            assert np.max(np.abs(st.u - ue)) <= 1e-12 * ue
            assert np.max(np.abs(st.v - ve)) <= 1e-12 * ve

    def test_mass_conserved_without_source_or_chemotaxis(self):
        p = unit_params(chi=0.0, d1=0.7, d2=1.3, n=2)
        g = Grid(dim=2, extents=(1, 1), cells=(32, 32))
        rng = np.random.default_rng(5)
        st = one_point(State(
            u=rng.uniform(0.5, 2.0, g.cells), v=rng.uniform(0.1, 1.0, g.cells), t=0.0
        ))
        cfg = SolverConfig(dt_initial=0.05, t_end=10.0)
        src = SourceFunction.zero()
        mass = np.sum(st.u) * g.cell_volume
        for _ in range(20):
            before = np.sum(st.u) * g.cell_volume
            st, _ = step(st, [p], [src], cfg, g)
            after = np.sum(st.u) * g.cell_volume
            assert abs(after - before) <= 1e-12 * before
        assert abs(np.sum(st.u) * g.cell_volume - mass) <= 1e-11 * mass

    def test_uniform_logistic_decay_tracks_ode(self):
        # u' = -u^2 from u = 1: exact 1/(1+t); explicit reaction at dt 1e-3
        p = unit_params(chi=0.0, kappa=0.0, mu=1.0, n=1)
        g = Grid(dim=1, extents=(1.0,), cells=(16,))
        st = State(u=np.ones(g.cells), v=np.ones(g.cells), t=0.0)
        cfg = SolverConfig(dt_initial=1e-3, t_end=2.0, snapshot_stride=100)
        traj = run(st, p, logistic(p), g, cfg)
        assert traj.outcome == OUTCOME_COMPLETED
        assert traj.diagnostics.column("mass_u")[-1] == pytest.approx(1.0 / 3.0, abs=2e-4)

    @pytest.mark.parametrize("cells", [(64,), (32, 32)])
    @pytest.mark.parametrize("shift", [1, 5])
    def test_upwind_transport_translation_equivariant(self, cells, shift):
        # compactly supported u and v away from the boundary, shifted by a
        # whole number of cells, give the shifted divergence bitwise
        g = Grid(dim=len(cells), extents=(1.0,) * len(cells), cells=cells)
        axes = tuple(range(g.dim))
        window = np.hanning(8)
        if g.dim == 2:
            window = np.outer(window, window)
        bump = np.zeros(cells)
        bump[(slice(10, 18),) * g.dim] = window

        def divergence(offset):
            u = np.roll(bump, (offset,) * g.dim, axis=axes)
            v = np.roll(0.5 * bump**2, (offset - 1,) * g.dim, axis=axes)
            work = _Workspace([unit_params(chi=1.5, n=g.dim)], [SourceFunction.zero()], g, 1)
            du = np.empty((1,) + cells)  # f == 0 writes +0.0 before the advection
            _rate_u(u[None], v[None], du, work, g, (0, cells[0]))
            return du[0]

        base = divergence(0)
        assert np.count_nonzero(base) > 0
        assert np.array_equal(
            np.roll(base, (shift,) * g.dim, axis=axes), divergence(shift)
        )


def line_solve_reference(f, coef, dt, grid):
    """Per-line np.linalg.solve with the finite-volume line matrix
    I + theta D^T D, D the (n-1) x n face-difference matrix (no-flux ends)."""
    out = np.array(f, dtype=float)
    for axis, n in enumerate(f.shape):
        theta = dt * coef / grid.spacing[axis] ** 2
        faces = np.diff(np.eye(n), axis=0)
        matrix = np.eye(n) + theta * faces.T @ faces
        moved = np.moveaxis(out, axis, -1)
        lines = [np.linalg.solve(matrix, line) for line in moved.reshape(-1, n)]
        out = np.moveaxis(np.reshape(lines, moved.shape), -1, axis)
    return out


KERNEL_GRIDS = [
    Grid(dim=1, extents=(1.3,), cells=(7,)),
    Grid(dim=2, extents=(2.0, 0.7), cells=(8, 5)),
    Grid(dim=3, extents=(1.0, 0.5, 3.0), cells=(6, 4, 9)),
]


class TestImplicitDiffusion:
    @pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=lambda g: str(g.cells))
    @pytest.mark.parametrize("theta", [1e-3, 1e-1, 1.0, 10.0, 1e3])
    def test_matches_line_by_line_solve(self, grid, theta):
        # theta on axis 0; the other axes get theta (h_0 / h_k)^2
        coef = 0.7
        dt = theta * grid.spacing[0] ** 2 / coef
        f = np.random.default_rng(grid.dim).uniform(0.5, 1.5, grid.cells)
        got = _implicit_diffusion(f.copy(), _inverses(coef, dt, grid, 1), grid, np.empty(grid.cells))
        np.testing.assert_allclose(
            got, line_solve_reference(f, coef, dt, grid), rtol=1e-12, atol=0.0
        )

    @pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=lambda g: str(g.cells))
    def test_stiff_solve_keeps_constants_and_mass(self, grid):
        dt = 1e3 * grid.spacing[0] ** 2
        for value in (0.37, 7.3, 2.2250738585e-313):  # the last is subnormal
            const = np.full(grid.cells, value)
            got = _implicit_diffusion(
                const.copy(), _inverses(1.0, dt, grid, 1), grid, np.empty(grid.cells)
            )
            assert np.array_equal(got, const)
        f = np.random.default_rng(7).uniform(0.5, 1.5, grid.cells)
        mass = np.sum(f)
        got = _implicit_diffusion(f, _inverses(1.0, dt, grid, 1), grid, np.empty(grid.cells))
        assert abs(np.sum(got) - mass) <= 1e-13 * mass

    def test_line_inverse_is_read_only(self):
        inv = _line_inverse(7, 0.5)
        assert not inv.flags.writeable
        with pytest.raises(ValueError):
            inv[0, 0] = 1.0


@hs.composite
def small_problems(draw):
    """A 1-D or 2-D grid of 4 to 8 cells per axis, admissible parameters,
    and nonnegative fields (u, v) on it."""
    dim = draw(hs.sampled_from([1, 2]))
    cells = tuple(draw(hs.integers(4, 8)) for _ in range(dim))
    positive = hs.floats(0.01, 3.0)
    params = Parameters(
        d1=draw(positive), d2=draw(positive), chi=draw(hs.floats(-5.0, 5.0)),
        alpha=draw(positive), beta=draw(positive),
        kappa=draw(hs.floats(-3.0, 3.0)), mu=draw(positive), n=dim,
    )
    fields = arrays(float, cells, elements=hs.floats(0.0, 10.0))
    grid = Grid(dim=dim, extents=(1.0,) * dim, cells=cells)
    return grid, params, draw(fields), draw(fields)


# dt_initial far above every CFL limit, so compute_dt sets each step
CFL_LIMITED = dict(dt_initial=1.0, t_end=10.0)


class TestStepProperties:
    @given(problem=small_problems(), cfl=hs.floats(0.01, 1.0 / 3.0))
    @settings(max_examples=100, deadline=None)
    def test_no_clamps_under_cfl_bound(self, problem, cfl):
        # Upwind outflow through a cell's 2 dim faces removes at most 2 cfl
        # of its content and the explicit reaction at most cfl, so for
        # cfl <= 1/3 the explicit stage stays nonnegative; the implicit
        # diffusion solve preserves sign.
        grid, params, u, v = problem
        cfg = SolverConfig(cfl_safety=cfl, **CFL_LIMITED)
        new, info = step(
            one_point(State(u=u, v=v, t=0.0)), [params], [logistic(params)], cfg, grid
        )
        assert info.clamped[0] == 0
        assert np.min(new.u) >= 0.0 and np.min(new.v) >= 0.0

    @given(
        problem=small_problems(),
        chi=hs.one_of(hs.floats(-5.0, -0.1), hs.floats(0.1, 5.0)),
    )
    @settings(max_examples=100, deadline=None)
    def test_mass_conserved_with_chemotaxis_and_no_source(self, problem, chi):
        grid, params, u, v = problem
        params = dataclasses.replace(params, chi=chi)
        cfg = SolverConfig(**CFL_LIMITED)
        new, info = step(
            one_point(State(u=u, v=v, t=0.0)), [params], [SourceFunction.zero()], cfg, grid
        )
        assert info.clamped[0] == 0
        mass = float(np.sum(u))
        assert abs(float(np.sum(new.u)) - mass) <= 1e-12 * mass + 1e-300

    @given(problem=small_problems())
    @settings(max_examples=100, deadline=None)
    def test_homogeneous_state_is_fixed_point(self, problem):
        grid, params, _, _ = problem
        ue = max(params.kappa, 0.0) / params.mu
        ve = params.alpha * ue / params.beta
        state = one_point(
            State(u=np.full(grid.cells, ue), v=np.full(grid.cells, ve), t=0.0)
        )
        cfg = SolverConfig(**CFL_LIMITED)
        new, info = step(state, [params], [logistic(params)], cfg, grid)
        assert info.clamped[0] == 0
        assert np.max(np.abs(new.u - ue)) <= 1e-12 * ue
        assert np.max(np.abs(new.v - ve)) <= 1e-12 * ve

    @given(problem=small_problems(), axis=hs.integers(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_mirrored_state_gives_mirrored_solution(self, problem, axis):
        grid, params, u, v = problem
        axis %= grid.dim
        cfg = SolverConfig(**CFL_LIMITED)
        src = logistic(params)
        a, info_a = step(one_point(State(u=u, v=v, t=0.0)), [params], [src], cfg, grid)
        mirrored = one_point(State(u=np.flip(u, axis), v=np.flip(v, axis), t=0.0))
        b, info_b = step(mirrored, [params], [src], cfg, grid)
        assert info_b.dt[0] == info_a.dt[0]
        for got, want in ((b.u[0], a.u[0]), (b.v[0], a.v[0])):
            np.testing.assert_allclose(
                got, np.flip(want, axis), rtol=1e-12,
                atol=1e-12 * (1.0 + float(np.max(want))),
            )


class TestAdaptivity:
    def test_dt_monotone_in_chi(self):
        g = Grid(dim=1, extents=(1.0,), cells=(32,))
        x = g.axis_centers(0)
        st = one_point(
            State(u=1.0 + 0.5 * np.cos(np.pi * x), v=np.cos(np.pi * x) + 1.0, t=0.0)
        )
        cfg = SolverConfig(dt_initial=1.0, t_end=1.0)
        dts = [
            compute_dt([unit_params(chi=chi, n=1)], [logistic(unit_params())], cfg, g,
                       *extremes(st, g))[0]
            for chi in (0.5, 1.0, 2.0, 4.0, 8.0)
        ]
        assert all(a >= b for a, b in zip(dts, dts[1:]))

    def test_subnormal_chi_limits_nothing(self):
        # dim |chi| max|dv| underflows to 0: no advection limit, no crash
        g = Grid(dim=1, extents=(1.0,), cells=(4,))
        st = one_point(State(u=np.zeros(4), v=np.array([0.125, 0.0, 0.0, 0.0]), t=0.0))
        p = unit_params(chi=5e-324, kappa=0.0, mu=1.0, n=1)
        cfg = SolverConfig(dt_initial=1.0, t_end=10.0)
        assert compute_dt([p], [logistic(p)], cfg, g, *extremes(st, g))[0] == 0.5

    def test_dt_collapse_outcome(self):
        # enormous reaction stiffness forces dt below dt_min
        p = unit_params(chi=0.0, mu=1.0, n=1)
        g = Grid(dim=1, extents=(1.0,), cells=(8,))
        st = State(u=np.full(g.cells, 1e7), v=np.zeros(g.cells), t=0.0)
        cfg = SolverConfig(
            dt_initial=1e-3, dt_min=1e-4, t_end=1.0,
            blowup_linf_threshold=1e12,
        )
        traj = run(st, p, logistic(p), g, cfg)
        assert traj.outcome == OUTCOME_DT_COLLAPSE

    @pytest.mark.parametrize("field", ["u", "v"])
    def test_non_finite_state_ends_run(self, field):
        p = unit_params(n=1)
        g = Grid(dim=1, extents=(1.0,), cells=(16,))
        st = initial_condition(
            "gaussian-bump", g, base_u=0.5, base_v=0.5, amplitude=1.0
        )
        cfg = SolverConfig(dt_initial=1e-3, t_end=1.0, snapshot_stride=1)

        def forcing(mesh, t):
            return np.full(mesh[0].shape, np.nan if t > 0.0 else 0.0)

        traj = run(st, p, logistic(p), g, cfg, **{f"forcing_{field}": forcing})
        assert traj.outcome == OUTCOME_NONFINITE
        assert traj.steps == 2
        final = traj.states[-1]
        assert not np.all(np.isfinite(getattr(final, field)))
        assert np.all(np.isfinite(traj.diagnostics.column("Linf_u")))

    def test_blowup_detector_fires_on_initial_state(self):
        p = unit_params()
        g = Grid(dim=2, extents=(1, 1), cells=(16, 16))
        st = initial_condition(
            "gaussian-bump", g, base_u=0.1, base_v=0.1, amplitude=5.0, width=0.1
        )
        cfg = SolverConfig(dt_initial=1e-3, t_end=1.0, blowup_linf_threshold=1.0)
        traj = run(st, unit_params(n=2), logistic(p), g, cfg)
        assert traj.outcome == OUTCOME_BLOWUP
        assert traj.steps == 0


class TestStopRule:
    """step only advances; run_batch decides after each step which points
    stop: dt collapse, then a non-finite field, then blow-up, then t_end."""

    def bump(self, cells=16):
        g = Grid(dim=1, extents=(1.0,), cells=(cells,))
        return g, initial_condition("gaussian-bump", g, base_u=0.5, base_v=0.5, amplitude=1.0)

    def test_run_within_1e9_of_t_end_takes_one_step(self):
        # t_end lies within run_batch's 1e-9 completion slack of t = 0: the
        # run still steps once, and its t_end row holds the stepped fields
        p = unit_params(n=1)
        g, st = self.bump()
        traj = run(st, p, logistic(p), g, SolverConfig(t_end=1e-10))
        assert (traj.outcome, traj.steps) == (OUTCOME_COMPLETED, 1)
        assert list(traj.diagnostics.column("t")) == [0.0, 1e-10]
        assert traj.states[-1].t == 1e-10
        assert not np.array_equal(traj.states[-1].u, st.u)
        first, last = (traj.diagnostics.column("Linf_u")[k] for k in (0, -1))
        assert first != last

    @pytest.mark.parametrize("t0", [1.0, 2.0])
    def test_initial_t_not_below_t_end_rejected(self, t0):
        p = unit_params(n=1)
        g, st = self.bump()
        late = State(u=st.u, v=st.v, t=t0)
        with pytest.raises(ValueError, match="below t_end"):
            run_batch([st, late], [p, p], [logistic(p)] * 2, g, SolverConfig(t_end=1.0))

    def test_collapse_on_the_step_that_reaches_t_end(self):
        # step 1 builds a signal gradient from a flat v; on step 2 the
        # chi = 1e8 point's CFL dt falls below dt_min while the other point
        # reaches t_end.  The first keeps its step-1 fields and 1 step; the
        # other is sampled once at t_end, also on a stride-1 sampling step
        calm = unit_params(n=1)
        wild = dataclasses.replace(calm, chi=1e8)
        g, st = self.bump()
        source = logistic(calm)
        cfg = SolverConfig(dt_initial=1e-3, dt_min=1e-5, t_end=2e-3, snapshot_stride=1)
        done, collapsed = run_batch([st, st], [calm, wild], [source] * 2, g, cfg)
        assert (done.outcome, done.steps) == (OUTCOME_COMPLETED, 2)
        assert list(done.diagnostics.column("t")) == [0.0, 1e-3, 2e-3]
        assert done.states[-1].t == 2e-3
        assert (collapsed.outcome, collapsed.steps) == (OUTCOME_DT_COLLAPSE, 1)
        assert list(collapsed.diagnostics.column("t")) == [0.0, 1e-3]
        assert collapsed.clamp_total == 0
        one, _ = step(one_point(st), [wild], [source], cfg, g)
        final = collapsed.states[-1]
        assert final.t == 1e-3
        assert final.u.tobytes() == one.u[0].tobytes() and final.v.tobytes() == one.v[0].tobytes()

    def test_step_reports_the_cfl_dt_of_a_collapsing_point(self):
        # enormous reaction stiffness: the CFL dt lies below dt_min, and a
        # standalone step reports it and advances by it
        p = unit_params(chi=0.0, mu=1.0, n=1)
        g = Grid(dim=1, extents=(1.0,), cells=(8,))
        st = one_point(State(u=np.full(g.cells, 1e7), v=np.zeros(g.cells), t=0.0))
        cfg = SolverConfig(dt_initial=1e-3, dt_min=1e-4, t_end=1.0)
        new, info = step(st, [p], [logistic(p)], cfg, g)
        want = compute_dt([p], [logistic(p)], cfg, g, *extremes(st, g))[0]
        assert info.dt[0] == want < cfg.dt_min
        assert new.t[0] == want


class TestRun:
    def test_homogeneous_run_constant_diagnostics(self):
        p = unit_params(mu=4.0)
        g = Grid(dim=2, extents=(1, 1), cells=(8, 8))
        st = initial_condition(
            "constant-plus-perturbation", g,
            base_u=p.kappa / p.mu,
            base_v=p.alpha * p.kappa / (p.beta * p.mu),
        )
        cfg = SolverConfig(dt_initial=0.05, t_end=1.0, snapshot_stride=2)
        traj = run(st, unit_params(mu=4.0, n=2), logistic(p), g, cfg)
        assert traj.outcome == OUTCOME_COMPLETED
        masses = traj.diagnostics.column("mass_u")
        assert np.all(np.abs(masses - masses[0]) <= 1e-12 * masses[0])

    def test_sample_times_strictly_increasing_and_reach_t_end(self):
        p = unit_params(n=1, chi=2.0, mu=4.0)
        g = Grid(dim=1, extents=(1.0,), cells=(32,))
        st = initial_condition(
            "gaussian-bump", g, base_u=0.25, base_v=0.25, amplitude=1.0
        )
        cfg = SolverConfig(dt_initial=0.01, t_end=0.5, snapshot_stride=3)
        traj = run(st, p, logistic(p), g, cfg)
        t = traj.diagnostics.column("t")
        assert np.all(np.diff(t) > 0)
        assert traj.outcome == OUTCOME_COMPLETED
        assert t[-1] == cfg.t_end

    def test_blowup_step_sampled_once(self):
        # the blow-up step is also a sampling step (stride 1)
        p = unit_params(n=1, chi=0.0, kappa=5.0, mu=1.0)
        g = Grid(dim=1, extents=(1.0,), cells=(16,))
        st = State(u=np.ones(g.cells), v=np.ones(g.cells), t=0.0)
        cfg = SolverConfig(
            dt_initial=0.01, t_end=1.0, snapshot_stride=1, blowup_linf_threshold=1.5
        )
        traj = run(st, p, logistic(p), g, cfg)
        assert traj.outcome == OUTCOME_BLOWUP
        t = traj.diagnostics.column("t")
        assert np.all(np.diff(t) > 0)
        assert t[-1] == traj.states[-1].t and len(t) == traj.steps + 1
        assert traj.diagnostics.column("Linf_u")[-1] > 1.5

    def test_finished_run_drops_sample_scratch(self):
        # a finished trajectory's series keeps its columns and no field
        # arrays, and still takes a standalone sample afterwards
        p = unit_params()
        g = Grid(dim=3, extents=(1, 1, 1), cells=(32, 32, 32))
        st = initial_condition(
            "gaussian-bump", g, base_u=0.125, base_v=0.125, amplitude=1.0
        )
        cfg = SolverConfig(dt_initial=0.01, t_end=0.02, snapshot_stride=1)
        traj = run(st, p, logistic(p), g, cfg)
        series = traj.diagnostics
        assert traj.outcome == OUTCOME_COMPLETED
        assert list(vars(series)) == ["columns"]
        assert all(isinstance(col, array) for col in series.columns.values())
        rows = len(series.times)
        DiagnosticsSeries.sample(
            [series], one_point(traj.states[-1]), g, [p], [traj.clamp_total]
        )
        assert len(series.times) == rows + 1
        assert series.column("mass_u")[-1] == series.column("mass_u")[-2]
        assert list(vars(series)) == ["columns"]

    def test_one_dimensional_strong_chemotaxis_stays_bounded(self):
        # mu above the 3-D general-branch analog keeps the run tame
        p = unit_params(chi=5.0, mu=40.0, n=1)
        g = Grid(dim=1, extents=(1.0,), cells=(64,))
        st = initial_condition(
            "gaussian-bump", g, base_u=p.kappa / p.mu,
            base_v=p.alpha * p.kappa / (p.beta * p.mu),
            amplitude=2.0, width=0.1,
        )
        cfg = SolverConfig(dt_initial=0.01, t_end=5.0, snapshot_stride=10)
        traj = run(st, p, logistic(p), g, cfg)
        assert traj.outcome == OUTCOME_COMPLETED
        assert traj.clamp_total == 0
        assert float(np.max(traj.diagnostics.column("Linf_u"))) < 10.0


class TestRefinement:
    def test_diffusion_only_second_order(self):
        p = unit_params(chi=0.0, kappa=0.0, mu=1.0, n=2)
        grid = Grid(dim=2, extents=(1.5, 0.7), cells=(8, 8))
        res = refinement_study(p, SourceFunction.zero(), grid, t_end=0.05)
        assert res.cells == ((8, 8), (16, 16), (32, 32))
        assert res.observed_order == pytest.approx(2.0, abs=0.2)

    def test_upwind_chemotaxis_limits_order(self):
        p = unit_params(chi=1.5, mu=2.0, n=3)
        grid = Grid(dim=3, extents=(1.0, 1.0, 1.0), cells=(8, 8, 8))
        res = refinement_study(p, logistic(p), grid, t_end=0.02)
        assert 0.8 <= res.observed_order <= 2.0

    def test_manufactured_pair_mirror_symmetric_at_boundaries(self):
        # mirror symmetry across x_i = 0 and x_i = L_i makes the ghost
        # closure exact for the manufactured profile, on any extents
        p = unit_params(chi=1.0, n=2)
        grid = Grid(dim=2, extents=(1.5, 0.7), cells=(8, 8))
        exact, _, _ = manufactured_problem(p, logistic(p), grid)
        delta = np.array([0.01, 0.03, 0.07])
        for axis, side in enumerate(grid.extents):
            def at(x):  # x on this axis, 0.3 on the other
                return tuple(x if i == axis else np.full(3, 0.3) for i in range(2))

            for edge in (0.0, side):
                assert np.allclose(exact(at(edge + delta), 0.3), exact(at(edge - delta), 0.3))


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        g = Grid(dim=2, extents=(2.0, 1.0), cells=(8, 4))
        rng = np.random.default_rng(0)
        st = State(u=rng.uniform(0, 1, g.cells), v=rng.uniform(0, 1, g.cells), t=0.75)
        paths = write_snapshot(tmp_path, st, g, index=3)
        assert sorted(p.name for p in paths) == [
            "u_000003.hdr", "u_000003.raw", "v_000003.hdr", "v_000003.raw",
        ]
        raw = np.fromfile(tmp_path / "u_000003.raw", dtype="<f8").reshape(g.cells)
        assert np.array_equal(raw, st.u)
        assert (tmp_path / "u_000003.hdr").read_text() == (
            "field: u\ndim: 2\ncells: 8 4\nextents: 2.0 1.0\ntime: 0.75\n"
        )

    def test_raw_is_little_endian_axis_major(self, tmp_path):
        g = Grid(dim=2, extents=(1.0, 1.0), cells=(4, 8))
        u = np.arange(32, dtype=float).reshape(4, 8)
        st = State(u=u, v=np.zeros((4, 8)), t=0.0)
        write_snapshot(tmp_path, st, g, index=0)
        raw = np.fromfile(tmp_path / "u_000000.raw", dtype="<f8")
        assert np.array_equal(raw, np.arange(32, dtype=float))


class TestConfigValidation:
    def test_dt_ordering(self):
        with pytest.raises(ValueError, match="dt_min"):
            SolverConfig(dt_initial=1e-11, dt_min=1e-10)

    def test_cfl_range(self):
        with pytest.raises(ValueError, match="cfl_safety"):
            SolverConfig(cfl_safety=1.5)
