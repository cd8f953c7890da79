import pickle
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kslab.params import Grid, Parameters, SourceFunction, State, validate


def make_params(**kw):
    base = dict(d1=1, d2=1, chi=1, alpha=1, beta=1, kappa=1, mu=8, n=3)
    base.update(kw)
    return Parameters(**base)


class TestValidate:
    def test_accepts_admissible(self):
        p = make_params()
        assert validate(p) is p

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("d1", 0.0, "d1 must be positive"),
            ("d2", -2.0, "d2 must be positive"),
            ("mu", -1.0, "mu must be positive"),
            ("alpha", 0.0, "alpha must be positive"),
            ("beta", 0.0, "beta must be positive"),
            ("n", 0, "n must be a positive integer"),
            ("kappa", 1e-307, "kappa/mu = 1e-307/8 is below the smallest normal"),
            ("chi", 1e-160, r"chi = 1e-160 must be 0 or have a finite normal square"),
            ("chi", -1e160, r"chi = -1e\+160 must be 0 or have a finite normal square"),
        ],
    )
    def test_rejections(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            validate(make_params(**{field: value}))

    def test_signed_chi_and_kappa_allowed(self):
        validate(make_params(chi=-3.0, kappa=-2.0))

    @given(
        d1=st.floats(0.01, 100),
        d2=st.floats(0.01, 100),
        chi=st.floats(-10, 10),
        kappa=st.floats(-10, 10),
        mu=st.floats(0.01, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, d1, d2, chi, kappa, mu):
        # rejected, see above; a positive kappa/mu can also round to 0, and a
        # nonzero chi*chi to a subnormal
        assume(not (kappa > 0.0 and kappa / mu < sys.float_info.min))
        assume(chi == 0.0 or chi * chi >= sys.float_info.min)
        p = make_params(d1=d1, d2=d2, chi=chi, kappa=kappa, mu=mu)
        assert validate(validate(p)) == validate(p)


class TestSource:
    def test_logistic_at_carrying_capacity(self):
        f = SourceFunction.standard_logistic(kappa=1.0, mu=1.0)
        assert f(1.0) == 0.0

    def test_logistic_at_zero(self):
        f = SourceFunction.standard_logistic(kappa=2.0, mu=1.0)
        assert f(0.0) == 0.0

    def test_logistic_value(self):
        # kappa s - mu s^2 at (1, 2, 3): 3 - 18
        f = SourceFunction.standard_logistic(kappa=1.0, mu=2.0)
        assert f(3.0) == -15.0

    @given(kappa=st.floats(-5, 5), mu=st.floats(0.05, 20))
    @settings(max_examples=100, deadline=None)
    def test_certificate_holds_on_sample_grid(self, kappa, mu):
        # f(s) <= a_cert - mu_cert s^2 at s = 0 and on a geometric ladder
        f = SourceFunction.standard_logistic(kappa, mu)
        s = np.concatenate([[0.0], np.geomspace(1e-3, 1e6, 30)])
        ceiling = f.a_cert - f.mu_cert * s * s
        assert f(0.0) >= 0.0
        assert np.all(f(s) <= ceiling + 1e-9 * (np.abs(ceiling) + 1))

    def test_certificate_tight_at_vertex(self):
        # equality of the ceiling at s = kappa/mu for positive kappa
        f = SourceFunction.standard_logistic(kappa=3.0, mu=2.0)
        s = 3.0 / 2.0
        assert f(s) == pytest.approx(f.a_cert - f.mu_cert * s * s, abs=1e-12)

    def test_nonpositive_kappa_keeps_full_damping(self):
        f = SourceFunction.standard_logistic(kappa=-1.0, mu=2.0)
        assert f.a_cert == 0.0 and f.mu_cert == 2.0

    def test_zero_source(self):
        # the logistic formula with kappa = mu = 0: s * 0.0 bit for bit, NaN
        # at inf and NaN, and no certificate
        f = SourceFunction.zero()
        assert (f.kappa, f.mu, f.a_cert, f.mu_cert) == (0.0, 0.0, 0.0, 0.0)
        assert f(5.0) == 0.0
        assert f.lipschitz_between(1.0, 1.0) == 0.0
        s = np.array([0.0, -0.0, 2.5, -3.0, 1e308, np.inf, -np.inf, np.nan])
        with np.errstate(invalid="ignore"):
            assert f(s).tobytes() == (s * 0.0).tobytes()


class TestGrid:
    def test_spacing_and_volume(self):
        g = Grid(dim=2, extents=(2.0, 1.0), cells=(8, 4))
        assert g.spacing == (0.25, 0.25)
        assert g.volume == 2.0
        assert g.cell_volume == pytest.approx(0.0625)

    def test_cached_geometry_keeps_equality_hash_and_pickle(self):
        g = Grid(dim=2, extents=(2.0, 1.0), cells=(8, 4))
        fresh = Grid(dim=2, extents=(2.0, 1.0), cells=(8, 4))
        assert g.spacing is g.spacing and g.cell_volume == 0.0625  # computed once
        assert g == fresh and hash(g) == hash(fresh)
        assert pickle.loads(pickle.dumps(g)) == fresh

    def test_cell_minimum(self):
        with pytest.raises(ValueError, match="at least 4 cells"):
            Grid(dim=1, extents=(1.0,), cells=(3,))

    def test_dim_extents_mismatch(self):
        with pytest.raises(ValueError, match="one entry per axis"):
            Grid(dim=2, extents=(1.0,), cells=(4, 4))

    def test_centers_are_midpoints(self):
        g = Grid(dim=1, extents=(1.0,), cells=(4,))
        assert np.allclose(g.axis_centers(0), [0.125, 0.375, 0.625, 0.875])


class TestState:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="same grid"):
            State(u=np.zeros(4), v=np.zeros(5), t=0.0)

    def test_negative_rejected_by_check(self):
        g = Grid(dim=1, extents=(1.0,), cells=(4,))
        st_ = State(u=np.array([1.0, -0.1, 1, 1]), v=np.zeros(4), t=0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            st_.check(g)

    @pytest.mark.parametrize("field", ["u", "v"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected_by_check(self, field, bad):
        g = Grid(dim=1, extents=(1.0,), cells=(4,))
        fields = {"u": np.ones(4), "v": np.ones(4)}
        fields[field][2] = bad
        with pytest.raises(ValueError, match="finite"):
            State(t=0.0, **fields).check(g)

    def test_check_passes_and_shapes(self):
        g = Grid(dim=2, extents=(1.0, 1.0), cells=(4, 4))
        st_ = State(u=np.ones(g.cells), v=np.zeros(g.cells), t=0.0)
        assert st_.check(g) is st_
