import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kslab.diagnostics import (
    CSV_COLUMNS,
    DiagnosticsSeries,
    convergence_audit,
    fit_decay,
    functional_z3,
    functional_z45,
    grad_magnitude_squared,
    h_monotonicity_check,
    lp_norm,
    lyapunov_H,
    mass_bound_check,
)
from kslab.params import Grid, Parameters, SourceFunction, State, validate
from kslab.thresholds import (
    CoefficientSet3D,
    CoefficientSet45D,
    ThresholdReport,
)


def unit_params(**kw):
    base = dict(d1=1, d2=1, chi=1, alpha=1, beta=1, kappa=1, mu=8, n=3)
    base.update(kw)
    return Parameters(**base)


def unit_grid(cells=8, dim=2):
    return Grid(dim=dim, extents=(1.0,) * dim, cells=(cells,) * dim)


def coeffs3(d1=1.0, d2=1.0, d3=1.0):
    return CoefficientSet3D(
        eps1=0.5, eps2=0.3, eps3=0.2, eps4=0.4,
        delta1=d1, delta2=d2, delta3=d3,
    )


def coeffs45(d1=1.0, d2=1.0, d3=1.0, d4=1.0):
    return CoefficientSet45D(
        eps=0.5, eta=0.5, eps1=1, eps2=1, eps3=1, eps4=1,
        delta1=d1, delta2=d2, delta3=d3, delta4=d4,
    )


class TestLpNorm:
    def test_constant_field_every_p(self):
        g = unit_grid()
        fld = np.full(g.cells, 0.7)
        for p in (1, 2, 3, 4, 6, math.inf):
            assert lp_norm(fld, p, g) == pytest.approx(0.7, rel=1e-13)

    def test_indicator_half_measure(self):
        g = unit_grid(cells=8)
        fld = np.zeros(g.cells)
        fld[:4, :] = 1.0
        assert lp_norm(fld, 1, g) == pytest.approx(0.5, rel=1e-13)

    def test_hoelder_bound(self):
        g = unit_grid()
        rng = np.random.default_rng(1)
        fld = rng.uniform(-2, 2, g.cells)
        assert lp_norm(fld, 2, g) <= lp_norm(fld, math.inf, g) * g.volume**0.5 + 1e-12

    def test_p_monotonicity_unit_box(self):
        g = unit_grid()
        rng = np.random.default_rng(2)
        fld = rng.uniform(0.1, 3.0, g.cells)
        norms = [lp_norm(fld, p, g) for p in (1, 2, 3)]
        assert norms[0] <= norms[1] <= norms[2] <= lp_norm(fld, math.inf, g)

    def test_unsupported_p(self):
        with pytest.raises(ValueError, match="unsupported"):
            lp_norm(np.ones((4, 4)), 5, unit_grid(4))


class TestFunctionals:
    def test_z3_constant_signal(self):
        g = unit_grid()
        rng = np.random.default_rng(3)
        u = rng.uniform(0, 2, g.cells)
        state = State(u=u, v=np.full(g.cells, 0.3), t=0.0)
        expected = 2.5 * float(np.sum(u * u) * g.cell_volume)
        assert functional_z3(state, g, coeffs3(d1=2.5)) == pytest.approx(expected)

    def test_z3_unit_fields(self):
        g = unit_grid()
        state = State(u=np.ones(g.cells), v=np.ones(g.cells), t=0.0)
        assert functional_z3(state, g, coeffs3()) == pytest.approx(1.0)

    def test_z3_pure_gradient_term(self):
        g = Grid(dim=1, extents=(1.0,), cells=(64,))
        x = g.axis_centers(0)
        state = State(u=np.zeros(g.cells), v=np.cos(np.pi * x), t=0.0)
        value = functional_z3(state, g, coeffs3(d3=2.0))
        g2 = grad_magnitude_squared(state.v, g)
        assert value == pytest.approx(2.0 * float(np.sum(g2 * g2) * g.cell_volume))
        # int |grad v|^4 for v = cos(pi x) is 3 pi^4 / 8
        assert value == pytest.approx(2.0 * 3.0 * np.pi**4 / 8.0, rel=0.05)

    def test_z45_unit_fields_and_cubic_scaling(self):
        g = unit_grid()
        ones = State(u=np.ones(g.cells), v=np.ones(g.cells), t=0.0)
        assert functional_z45(ones, g, coeffs45()) == pytest.approx(1.0)
        rng = np.random.default_rng(4)
        u = rng.uniform(0, 1, g.cells)
        base = functional_z45(State(u=u, v=np.ones(g.cells), t=0), g, coeffs45())
        doubled = functional_z45(State(u=2 * u, v=np.ones(g.cells), t=0), g, coeffs45())
        assert doubled == pytest.approx(8.0 * base, rel=1e-12)


class TestLyapunov:
    def test_zero_at_equilibrium(self):
        p = unit_params()
        g = unit_grid()
        state = State(
            u=np.full(g.cells, p.kappa / p.mu),
            v=np.full(g.cells, p.kappa * p.alpha / (p.beta * p.mu)),
            t=0.0,
        )
        assert lyapunov_H(state, p, g) == pytest.approx(0.0, abs=1e-15)

    def test_closed_form_at_doubled_density(self):
        p = unit_params()
        g = unit_grid()
        c = p.kappa / p.mu
        state = State(
            u=np.full(g.cells, 2 * c),
            v=np.full(g.cells, p.kappa * p.alpha / (p.beta * p.mu)),
            t=0.0,
        )
        assert lyapunov_H(state, p, g) == pytest.approx(
            c * (1.0 - math.log(2.0)), rel=1e-12
        )

    def test_chi_zero_drops_signal_term(self):
        p = unit_params(chi=0.0)
        g = unit_grid()
        c = p.kappa / p.mu
        far = State(u=np.full(g.cells, c), v=np.full(g.cells, 5.0), t=0.0)
        assert lyapunov_H(far, p, g) == pytest.approx(0.0, abs=1e-15)

    def test_tiny_equilibrium_stays_finite(self):
        # u/c passes the largest double at u = 10 for c = kappa/mu = 3e-308,
        # which validate accepts: H is about the mass of u, and no quotient
        # overflows on the way
        p = Parameters(d1=1, d2=1, chi=1, alpha=1, beta=1, kappa=3e-308, mu=1, n=1)
        g = Grid(dim=1, extents=(1.0,), cells=(4,))
        state = State(u=np.array([10.0, 1.0, 1.0, 1.0]), v=np.zeros(4), t=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            h = lyapunov_H(state, validate(p), g)
        assert h == pytest.approx(13.0 * g.cell_volume, rel=1e-12)

    def test_vacuum_rejected(self):
        p = unit_params()
        g = unit_grid(4)
        u = np.full(g.cells, 0.5)
        u[0, 0] = 0.0
        with pytest.raises(ValueError, match="vacuum"):
            lyapunov_H(State(u=u, v=np.ones(g.cells), t=0.0), p, g)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError, match="kappa > 0"):
            lyapunov_H(
                State(u=np.ones((4, 4)), v=np.ones((4, 4)), t=0.0),
                unit_params(kappa=-1.0),
                unit_grid(4),
            )

    def test_strictly_convex_in_uniform_density(self):
        p = unit_params()
        g = unit_grid()
        c = p.kappa / p.mu
        v_eq = np.full(g.cells, p.kappa * p.alpha / (p.beta * p.mu))

        def h_of(s):
            return lyapunov_H(State(u=np.full(g.cells, s), v=v_eq, t=0.0), p, g)

        samples = np.array([0.2, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0]) * c
        values = [h_of(s) for s in samples]
        assert min(values) == h_of(c) == pytest.approx(0.0, abs=1e-15)
        assert all(v > 0 for s, v in zip(samples, values) if s != c)


class TestSample:
    def test_repeated_series_take_their_rows_in_row_order(self):
        # one call over rows of two series, interleaved: each series gets its
        # rows in row order, each bit for bit as sampled alone
        grid = unit_grid(8, 2)
        rng = np.random.default_rng(3)
        u, v = rng.uniform(0.1, 2.0, (5, 8, 8)), rng.uniform(0.0, 1.0, (5, 8, 8))
        t = np.array([0.0, 0.0, 0.1, 0.1, 0.2])
        a, b = DiagnosticsSeries(), DiagnosticsSeries()
        params = [unit_params(kappa=float(k % 2 == 0)) for k in range(5)]
        sets3, sets45 = [coeffs3()] * 5, [None, coeffs45()] * 2 + [None]
        DiagnosticsSeries.sample(
            [a, b, a, b, a], State(u=u, v=v, t=t), grid, params, list(range(5)),
            sets3, sets45,
        )
        assert list(a.times) == [0.0, 0.1, 0.2] and list(b.times) == [0.0, 0.1]
        assert list(a.columns["clamp_count"]) == [0, 2, 4]
        for series, rows in ((a, [0, 2, 4]), (b, [1, 3])):
            alone = DiagnosticsSeries()
            for i in rows:
                DiagnosticsSeries.sample(
                    [alone], State(u=u[i:i + 1], v=v[i:i + 1], t=t[i:i + 1]), grid,
                    [params[i]], [i], [sets3[i]], [sets45[i]],
                )
            for name, column in alone.columns.items():
                assert series.columns[name].tobytes() == column.tobytes(), name


class TestMassBound:
    def _series(self, masses):
        s = DiagnosticsSeries()
        s.columns["t"] = list(range(len(masses)))
        s.columns["mass_u"] = list(masses)
        return s

    def test_pass_and_margin(self):
        src = SourceFunction.standard_logistic(0.0, 2.0)  # cert (0, 2)
        series = self._series([1.0, 0.8, 0.5, 0.2])
        res = mass_bound_check(series, src, u0_mass=1.0, volume=1.0)
        assert res.passed
        # bound = 1 + |Omega|/(4 mu); decreasing mass leaves that margin
        assert res.bound == pytest.approx(1.0 + 1.0 / 8.0 + 1e-6)
        assert res.worst_margin == pytest.approx(res.bound - 1.0)

    def test_injected_violation_located(self):
        src = SourceFunction.standard_logistic(0.0, 2.0)
        series = self._series([1.0, 0.8, 5.0, 0.2])
        res = mass_bound_check(series, src, u0_mass=1.0, volume=1.0)
        assert not res.passed
        assert res.first_violation == 2

    def test_large_damping_limit(self):
        src = SourceFunction.standard_logistic(1.0, 1e12)
        series = self._series([0.5])
        res = mass_bound_check(series, src, u0_mass=0.5, volume=2.0)
        # certificate a = kappa^2/(2 mu) -> 0 and 1/(4 mu_cert) -> 0
        assert res.bound == pytest.approx(0.5 + 1e-6, abs=1e-8)

    def test_nan_mass_is_a_violation(self):
        src = SourceFunction.standard_logistic(0.0, 2.0)
        series = self._series([1.0, math.nan, 1.0])
        res = mass_bound_check(series, src, u0_mass=1.0, volume=1.0)
        assert res.passed is False
        assert res.first_violation == 1

    def test_zero_source_rejected(self):
        series = self._series([1.0])
        with pytest.raises(ValueError, match="certificate"):
            mass_bound_check(series, SourceFunction.zero(), 1.0, 1.0)


class TestFitDecay:
    def test_exact_exponential(self):
        t = np.arange(0, 20.0001, 0.1)
        fit = fit_decay(t, np.exp(-0.3 * t))
        assert fit.model == "exponential"
        assert fit.rate == pytest.approx(0.3, abs=1e-6)
        assert fit.goodness > 1 - 1e-9

    def test_exact_algebraic(self):
        t = np.arange(0, 20.0001, 0.1)
        fit = fit_decay(t, (1.0 + t) ** -0.5)
        assert fit.model == "algebraic"
        assert fit.rate == pytest.approx(0.5, abs=1e-6)

    def test_constant_series_has_no_model(self):
        t = np.arange(0, 5, 0.1)
        fit = fit_decay(t, np.full_like(t, 2.5))
        assert fit.model == "none"
        assert fit.goodness == 0.0 and fit.rate == 0.0

    @given(scale=st.floats(1e-6, 1e6))
    @settings(max_examples=30, deadline=None)
    def test_model_selection_scale_invariant(self, scale):
        t = np.arange(0, 12, 0.1)
        base = (1.0 + t) ** -0.7
        assert fit_decay(t, base).model == fit_decay(t, scale * base).model

    def test_window_filtering(self):
        t = np.arange(0, 30, 0.1)
        y = np.exp(-0.5 * t) + 1e-9
        fit = fit_decay(t, y, window=(5.0, 15.0))
        assert fit.window == (5.0, 15.0)
        assert fit.rate == pytest.approx(0.5, rel=1e-3)

    def test_rejections(self):
        t = np.arange(0, 30, 0.1)
        with pytest.raises(ValueError, match="at least 10"):
            fit_decay(t[:5], np.exp(-t[:5]))
        with pytest.raises(ValueError, match="positive"):
            fit_decay(t, np.linspace(1, -1, t.size))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_samples_rejected(self, bad):
        t = np.arange(0, 20.0001, 0.1)
        y = np.exp(-0.3 * t)
        bad_t, bad_y = t.copy(), y.copy()
        bad_t[50] = bad_y[50] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_decay(t, bad_y)
        with pytest.raises(ValueError, match="finite"):
            fit_decay(bad_t, y)


class TestSeriesAndAudit:
    def _report(self, params, gamma=None):
        return ThresholdReport(
            mu0=1.0, branch="general", mu1=0.0, gamma=gamma, epsilon0=None,
        )

    def _series_from(self, t, **columns):
        s = DiagnosticsSeries()
        n = len(t)
        defaults = dict(
            t=t, mass_u=np.ones(n), L2_u=np.ones(n), L3_u=np.ones(n),
            Linf_u=np.ones(n), L2_gradv=np.zeros(n), L4_gradv=np.zeros(n),
            L6_gradv=np.zeros(n), z3=[math.nan] * n, z45=[math.nan] * n,
            H=[math.nan] * n, clamp_count=[0] * n, Linf_v=np.ones(n),
            dev_linf_u=np.ones(n), dev_linf_v=np.ones(n),
        )
        defaults.update(columns)
        assert defaults.keys() == s.columns.keys()
        for key, val in defaults.items():
            s.columns[key] = list(val)
        return s

    def test_audit_positive_kappa(self):
        t = np.arange(0, 20, 0.1)
        s = self._series_from(
            t, dev_linf_u=np.exp(-0.8 * t), dev_linf_v=0.5 * np.exp(-0.8 * t)
        )
        p = unit_params()
        audit = convergence_audit(s, p, self._report(p, gamma=1e-3), dim=3)
        assert audit.passed and audit.regime == "kappa>0"
        assert audit.details["audit_fit_rate"] == pytest.approx(0.8, rel=1e-6)

    def test_audit_zero_kappa(self):
        t = np.arange(0, 40, 0.2)
        p = unit_params(kappa=0.0)
        s = self._series_from(
            t, Linf_u=(1 + t) ** -1.0, Linf_v=(1 + t) ** -0.9
        )
        audit = convergence_audit(s, p, None, dim=1)
        assert audit.passed
        assert audit.details["audit_target_exponent"] == pytest.approx(0.5)

    def test_audit_negative_kappa(self):
        t = np.arange(0, 30, 0.1)
        p = unit_params(kappa=-1.0)
        s = self._series_from(
            t, Linf_u=np.exp(-1.0 * t) + 1e-300, Linf_v=np.exp(-0.6 * t)
        )
        audit = convergence_audit(s, p, None, dim=1)
        assert audit.passed
        assert audit.details["audit_target_u"] == pytest.approx(0.5)
        assert audit.details["audit_target_v"] == pytest.approx(0.25)

    def test_audit_wrong_regime(self):
        t = np.arange(0, 20, 0.1)
        s = self._series_from(t)
        with pytest.raises(ValueError, match="gamma"):
            convergence_audit(s, unit_params(), None, dim=3)

    def test_h_monotonicity(self):
        t = np.arange(0, 10, 0.5)
        s = self._series_from(t, H=np.exp(-t))
        ok, worst = h_monotonicity_check(s)
        assert ok and worst <= 0.0
        bumped = np.exp(-t)
        bumped[5] = bumped[4] + 0.1
        s2 = self._series_from(t, H=bumped)
        ok2, worst2 = h_monotonicity_check(s2)
        assert not ok2 and worst2 > 0.05

    def test_csv_format(self):
        # defined and undefined functionals, nonzero clamps: the whole text
        s = self._series_from(
            [0.0, 0.5], z3=[0.1, 2.5], H=[math.nan, 0.25], clamp_count=[0, 3]
        )
        one, zero = "1.00000000000000000e+00", "0.00000000000000000e+00"
        assert s.to_csv() == "\n".join([
            "t,mass_u,L2_u,L3_u,Linf_u,L2_gradv,L4_gradv,L6_gradv,z3,z45,H,clamp_count",
            ",".join([zero, one, one, one, one, zero, zero, zero,
                      "1.00000000000000006e-01", "", "", "0"]),
            ",".join(["5.00000000000000000e-01", one, one, one, one, zero, zero,
                      zero, "2.50000000000000000e+00", "", "2.50000000000000000e-01",
                      "3"]),
        ]) + "\n"
        assert s.to_csv().split("\n")[0] == ",".join(CSV_COLUMNS)

    def test_audit_columns_stay_out_of_csv(self):
        s = self._series_from([0.0, 1.0])
        header = s.to_csv().split("\n")[0].split(",")
        for name in ("Linf_v", "dev_linf_u", "dev_linf_v"):
            assert name not in header
            assert s.column(name).shape == (2,)

    def test_unknown_column_names_it(self):
        with pytest.raises(KeyError, match="'nope'"):
            DiagnosticsSeries().column("nope")
