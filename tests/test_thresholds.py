import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kslab import thresholds
from kslab.params import Parameters, validate
from kslab.thresholds import (
    BRANCH_CONVEX,
    BRANCH_GENERAL,
    CoefficientSet3D,
    CoefficientSet45D,
    _grid_compass_min,
    _relaxation_feasible,
    _relaxed_overlap_45d,
    coefficient_recipe_3d,
    feasibility_floor_45d,
    gamma_rate,
    h_objective,
    minimize_h,
    mu0_general,
    mu1,
    report,
    select_coefficients_3d,
    select_coefficients_45d,
    verify_system_3d,
    verify_system_45d,
)

from oracles import compass_reference, floor_reference, h_bruteforce

SQRT10 = math.sqrt(10.0)
MU0_UNIT_3D = 9.0 / (SQRT10 - 2.0)  # 7.743416490252569


def make_params(**kw):
    base = dict(d1=1, d2=1, chi=1, alpha=1, beta=1, kappa=1, mu=8, n=3)
    base.update(kw)
    return Parameters(**base)


class TestMu0:
    def test_unit_nonconvex_3d(self):
        value, branch = mu0_general(make_params(), convex=False)
        assert branch == BRANCH_GENERAL
        assert value == pytest.approx(7.743416, abs=1e-6)
        assert value == pytest.approx(MU0_UNIT_3D, rel=1e-14)

    def test_unit_convex_3d(self):
        value, branch = mu0_general(make_params(), convex=True)
        assert branch == BRANCH_CONVEX
        assert value == 0.75

    def test_convex_branch_needs_equal_diffusion_and_attraction(self):
        value, branch = mu0_general(make_params(d2=2.0), convex=True)
        assert branch == BRANCH_GENERAL
        value, branch = mu0_general(make_params(chi=-1.0), convex=True)
        assert branch == BRANCH_GENERAL

    def test_zero_chi(self):
        assert mu0_general(make_params(chi=0.0), convex=False)[0] == 0.0
        assert mu0_general(make_params(chi=0.0), convex=True)[0] == 0.0

    def test_hand_evaluated_general_point(self):
        # (3/(sqrt(10)-2)) (1/1 + 2/2) alpha |chi| with chi = -1
        value, _ = mu0_general(make_params(d1=1, d2=2, chi=-1), convex=False)
        assert value == pytest.approx(6.0 / (SQRT10 - 2.0), rel=1e-14)
        assert value == pytest.approx(5.162277, abs=1e-6)

    def test_dimension_gate(self):
        with pytest.raises(ValueError, match="3, 4, or 5"):
            mu0_general(make_params(n=6))
        with pytest.raises(ValueError, match="3, 4, or 5"):
            mu0_general(make_params(n=2))

    def test_general_4d_convex(self):
        value, branch = mu0_general(make_params(n=4), convex=True)
        assert branch == BRANCH_CONVEX
        assert value == 1.0

    def test_general_4d_nonconvex_unit(self):
        # second max argument 12/(sqrt(12)-2) dominates h(4,1,1)/3
        value, branch = mu0_general(make_params(n=4), convex=False)
        assert branch == BRANCH_GENERAL
        assert value == pytest.approx(12.0 / (math.sqrt(12.0) - 2.0), rel=1e-12)
        assert value == pytest.approx(8.196152, abs=1e-6)
        assert minimize_h(4, 1.0, 1.0).value / 3.0 < value

    @given(c=st.floats(0.01, 100))
    @settings(max_examples=40, deadline=None)
    def test_homogeneous_in_alpha_and_chi(self, c):
        for n in (3, 4):
            base, _ = mu0_general(make_params(n=n), convex=False)
            scaled_alpha, _ = mu0_general(make_params(n=n, alpha=c), convex=False)
            scaled_chi, _ = mu0_general(make_params(n=n, chi=c), convex=False)
            flipped, _ = mu0_general(make_params(n=n, chi=-c), convex=False)
            assert scaled_alpha == pytest.approx(c * base, rel=1e-12)
            assert scaled_chi == pytest.approx(c * base, rel=1e-12)
            assert flipped == scaled_chi

    @pytest.mark.parametrize("n", [3, 4])
    def test_nonincreasing_in_diffusion(self, n):
        ds = [0.25, 0.5, 1.0, 2.0, 4.0]
        along_d1 = [mu0_general(make_params(n=n, d1=d))[0] for d in ds]
        along_d2 = [mu0_general(make_params(n=n, d2=d))[0] for d in ds]
        assert all(a >= b - 1e-12 for a, b in zip(along_d1, along_d1[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(along_d2, along_d2[1:]))

    def test_divergence_at_small_diffusion(self):
        small = mu0_general(make_params(d1=1e-6))[0]
        unit = mu0_general(make_params())[0]
        assert small > 1e3 * unit


# d1/d2 from 1e-3 to 1e3, four points a decade, with the other diffusion 1
RATIOS = np.logspace(-3.0, 3.0, 25).tolist()
# d1/d2 where h/3 overtakes the base formula, for any d2: 19.86 (n = 4) and
# 21.22 (n = 5); from a 301-point scan at d2 = 0.01, 0.1, 1 and 10
H_OVERTAKES = {4: 19.86, 5: 21.22}


def base_mu0(n, d1, d2):
    """mu0's base formula, n/(sqrt(2n+4)-2) (1/d1 + 2/d2), at alpha = chi = 1."""
    return n / (math.sqrt(2.0 * n + 4.0) - 2.0) * (1.0 / d1 + 2.0 / d2)


class TestAbstractClaims:
    """PAPER.md: mu0 and mu1 tend to infinity as d1 -> 0 or d2 -> 0 and
    decrease in d1 and d2.  mu1 does, and mu0 does where its base formula
    binds; for n = 4, 5, once h/3 binds, mu0 rises with d1."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("axis", ["d1", "d2"])
    def test_thresholds_diverge_as_a_diffusion_vanishes(self, n, axis):
        ds = [10.0 ** -k for k in range(4)]
        mu0s = [mu0_general(make_params(n=n, **{axis: d}))[0] for d in ds]
        mu1s = [mu1(make_params(n=n, **{axis: d})) for d in ds]
        for values, gain in ((mu0s, 300.0), (mu1s, 30.0)):  # at least 1/d, 1/sqrt(d)
            assert all(a < b for a, b in zip(values, values[1:]))
            assert values[-1] > gain * values[0]

    @pytest.mark.parametrize("axis", ["d1", "d2"])
    def test_mu1_decreases_in_each_diffusion(self, axis):
        values = [mu1(make_params(**{axis: r})) for r in RATIOS]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("axis", ["d1", "d2"])
    def test_mu0_decreases_where_the_base_formula_binds(self, n, axis):
        steps = 0
        for a, b in zip(RATIOS, RATIOS[1:]):
            pa, pb = make_params(n=n, **{axis: a}), make_params(n=n, **{axis: b})
            (mu_a, _), (mu_b, _) = mu0_general(pa), mu0_general(pb)
            if mu_a == base_mu0(n, pa.d1, pa.d2) and mu_b == base_mu0(n, pb.d1, pb.d2):
                assert mu_a > mu_b
                steps += 1
        assert steps >= (len(RATIOS) - 1 if n == 3 else 10)

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("d2", [0.01, 1.0, 100.0])
    def test_h_overtakes_at_a_fixed_ratio_and_mu0_then_rises(self, n, d2):
        ratio = H_OVERTAKES[n]
        below, above = ((ratio + shift) * d2 for shift in (-0.05, 0.05))
        assert mu0_general(make_params(n=n, d1=below, d2=d2))[0] == base_mu0(n, below, d2)
        assert mu0_general(make_params(n=n, d1=above, d2=d2))[0] > base_mu0(n, above, d2)
        beyond = [mu0_general(make_params(n=n, d1=r * d2, d2=d2))[0]
                  for r in (ratio + 1.0, 50.0, 1e3)]
        assert beyond[0] < beyond[1] < beyond[2]


class TestMinimizeH:
    def test_matches_bruteforce_unit(self):
        oracle_value, _, _ = h_bruteforce(4, 1.0, 1.0, cells=600, refine=2)
        mine = minimize_h(4, 1.0, 1.0)
        assert abs(mine.value - oracle_value) / oracle_value < 1e-5
        assert mine.value == pytest.approx(13.58502712, rel=1e-6)

    def test_argmin_strictly_interior(self):
        m = minimize_h(5, 2.0, 0.5)
        assert 0.0 < m.eps < 2.0
        assert 0.0 < m.eta < 0.5
        assert m.value == h_objective(5, 2.0, 0.5, m.eps, m.eta)

    def test_objective_diverges_at_small_eps(self):
        assert h_objective(4, 1.0, 1.0, 1e-12, 0.5) > 1e3
        assert h_objective(4, 1.0, 1.0, 0.5, 1e-12) > 1e3
        assert h_objective(4, 1.0, 1.0, -0.1, 0.5) == math.inf

    def test_monotone_in_d1(self):
        hi, _, _ = h_bruteforce(4, 1.0, 1.0, cells=400, refine=1)
        lo, _, _ = h_bruteforce(4, 2.0, 1.0, cells=400, refine=1)
        assert lo <= hi
        assert minimize_h(4, 2.0, 1.0).value <= minimize_h(4, 1.0, 1.0).value

    def test_joint_scaling(self):
        # h(n, c d1, c d2) = h(n, d1, d2) / c
        base = minimize_h(4, 1.0, 1.0).value
        assert minimize_h(4, 0.1, 0.1).value == pytest.approx(10 * base, rel=1e-10)
        assert minimize_h(4, 4.0, 4.0).value == pytest.approx(base / 4, rel=1e-10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="4, 5"):
            minimize_h(3, 1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            minimize_h(4, -1.0, 1.0)


class TestGridCompass:
    """The batched compass search against the one-poll-per-call oracle."""

    @staticmethod
    def _assert_matches_reference(f, d1, d2):
        expected, moved = compass_reference(f, d1, d2)
        calls = []

        def counted(e, g):
            calls.append(e)
            return f(e, g)

        assert _grid_compass_min(counted, d1, d2) == expected
        # the grid, the first batch of polls, and one batch per move
        assert len(calls) == 2 + moved
        return expected, moved

    @pytest.mark.parametrize(
        "n,d1,d2", [(4, 1.0, 1.0), (5, 2.0, 0.5), (4, 0.37, 0.011)]
    )
    def test_h_objective_bit_identical(self, n, d1, d2):
        _, moved = self._assert_matches_reference(
            lambda e, g: h_objective(n, d1, d2, e, g), d1, d2
        )
        assert moved > 0

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("factor", [1.2, 2.5])
    def test_relaxed_overlap_bit_identical(self, n, factor):
        # 1.2 mu0 lies below the certified floor (about 1.75 mu0 for these
        # sets), where the overlap is -inf; 2.5 mu0 lies above it
        p = make_params(n=n)
        mu = factor * mu0_general(p)[0]
        (value, _, _), moved = self._assert_matches_reference(
            lambda e, g: -_relaxed_overlap_45d(p, mu, e, g), p.d1, p.d2
        )
        if mu < feasibility_floor_45d(p):
            assert value == math.inf and moved == 0
        else:
            assert value < 0.0 and moved > 0


class TestGridCompassStop:
    """The early exit at stop ends a prefix of the full search."""

    @staticmethod
    def _objective(case):
        if case[0] == "h":
            n, d1, d2 = case[1:]
            return (lambda e, g: h_objective(n, d1, d2, e, g)), d1, d2
        n, factor = case[1:]
        p = make_params(n=n)
        mu = factor * mu0_general(p)[0]
        return (lambda e, g: -_relaxed_overlap_45d(p, mu, e, g)), p.d1, p.d2

    @pytest.mark.parametrize(
        "case",
        [("h", 4, 1.0, 1.0), ("h", 5, 2.0, 0.5), ("overlap", 4, 1.2), ("overlap", 5, 2.5)],
    )
    def test_prefix_of_full_search(self, case):
        f, d1, d2 = self._objective(case)
        values = []

        def counted(e, g):
            values.append(f(e, g))
            return values[-1]

        full = _grid_compass_min(counted, d1, d2)
        full_calls, grid_best = len(values), float(np.min(values[0]))
        stops = [-0.0, math.inf, full[0], grid_best]
        if math.isfinite(full[0]):
            stops += [np.nextafter(full[0], -math.inf), 0.5 * (full[0] + grid_best)]
        for stop in stops:
            values.clear()
            got = _grid_compass_min(counted, d1, d2, stop)
            if full[0] <= stop:
                assert full[0] <= got[0] <= stop and len(values) <= full_calls
                if grid_best <= stop:
                    assert len(values) == 1
            else:
                assert got == full and len(values) == full_calls

    def test_nan_best_value_runs_to_the_end(self):
        def nan_everywhere(e, g):
            return np.full(np.shape(e), np.nan)

        value, _, _ = _grid_compass_min(nan_everywhere, 1.0, 1.0, math.inf)
        assert math.isnan(value)


class TestFeasibilityFloor:
    """The sign-decided bisection against full searches at every step."""

    @pytest.mark.parametrize(
        "kw", [dict(n=4), dict(n=5), dict(n=4, alpha=2.0), dict(n=4, chi=0.0)]
    )
    def test_matches_full_search_bisection(self, kw):
        p = make_params(**kw)
        assert feasibility_floor_45d(p) == floor_reference(p)

    @pytest.mark.parametrize("n", [4, 5])
    def test_at_most_two_objective_calls_per_decision(self, monkeypatch, n):
        calls, per_decision = [], []

        def counted(*args):
            calls.append(args[1])
            return _relaxed_overlap_45d(*args)

        def decide(params, mu):
            before = len(calls)
            feasible = _relaxation_feasible(params, mu)
            per_decision.append(len(calls) - before)
            return feasible

        monkeypatch.setattr(thresholds, "_relaxed_overlap_45d", counted)
        monkeypatch.setattr(thresholds, "_relaxation_feasible", decide)
        feasibility_floor_45d(make_params(n=n))
        # two bracket ends and 40 midpoints; the full searches took 697 and
        # 510 calls for these two sets
        assert len(per_decision) == 42
        assert 1 <= min(per_decision) and max(per_decision) <= 2
        assert len(calls) == sum(per_decision) <= 84


class TestMu1AndGamma:
    def test_nonpositive_kappa(self):
        assert mu1(make_params(kappa=-1.0)) == 0.0
        assert mu1(make_params(kappa=0.0)) == 0.0

    def test_unit_value(self):
        assert mu1(make_params()) == 0.25

    def test_zero_chi(self):
        assert mu1(make_params(chi=0.0)) == 0.0

    def test_sqrt_kappa_scaling(self):
        base = mu1(make_params())
        assert mu1(make_params(kappa=4.0)) == pytest.approx(2 * base, rel=1e-12)

    def test_monotone_and_divergent(self):
        for field in ("d1", "d2", "beta"):
            hi = mu1(make_params(**{field: 0.25}))
            lo = mu1(make_params(**{field: 4.0}))
            assert hi > lo
            assert mu1(make_params(**{field: 1e-8})) > 1e3 * mu1(make_params())

    def test_gamma_unit_case(self):
        gamma, eps0 = gamma_rate(make_params())
        assert eps0 == pytest.approx(128.125, rel=1e-14)
        assert gamma == pytest.approx(7.797256097560976e-4, rel=1e-12)

    def test_gamma_positive_near_mu1(self):
        p = make_params(mu=0.2500001)
        gamma, eps0 = gamma_rate(p)
        assert gamma > 0.0 and eps0 > 0.0

    def test_gamma_even_in_chi(self):
        assert gamma_rate(make_params(chi=-1.0)) == gamma_rate(make_params(chi=1.0))

    def test_gamma_rejections(self):
        with pytest.raises(ValueError, match="kappa > 0"):
            gamma_rate(make_params(kappa=-1.0))
        with pytest.raises(ValueError, match="mu > mu1"):
            gamma_rate(make_params(mu=0.25))
        with pytest.raises(ValueError, match="chi = 0"):
            gamma_rate(make_params(chi=0.0))


class TestCoefficients3D:
    # lower bounds of the unit example: (d1+d2)^2/(8 eps4 (d1-eps1)) and
    # (eps3+eps4)/(2 (d2-eps2))
    DELTA1_FLOOR = 2.5811388300841898
    DELTA3_FLOOR = 0.4743416490252569

    def test_unit_eps_selection(self):
        c = select_coefficients_3d(make_params(), 8.0)
        root = SQRT10 - 2.0
        assert c.eps1 == 0.5
        assert c.eps2 == pytest.approx(root / 3.0, rel=1e-14)
        assert c.eps3 == pytest.approx(root / 6.0, rel=1e-14)
        assert c.eps4 == pytest.approx(root / 3.0, rel=1e-14)
        assert c.delta2 == 1.0

    def test_unit_delta_structure(self):
        c = select_coefficients_3d(make_params(), 8.0)
        s1 = c.delta1 - self.DELTA1_FLOOR
        s3 = c.delta3 - self.DELTA3_FLOOR
        assert s1 > 0.0 and s3 > 0.0
        assert s1 == pytest.approx(s3, rel=1e-10)

    def test_selected_set_verifies(self):
        p = make_params()
        c = select_coefficients_3d(p, 8.0)
        assert verify_system_3d(p, 8.0, c).passed

    def test_same_set_fails_fourth_inequality_below_threshold(self):
        p = make_params()
        c = select_coefficients_3d(p, 8.0)
        check = verify_system_3d(p, 7.0, c)
        assert not check.passed
        assert not check.checks[3].passed
        assert all(ch.passed for ch in check.checks[:3])

    def test_recipe_below_mu0_fails_fourth(self):
        p = make_params()
        c = coefficient_recipe_3d(p, 0.99 * MU0_UNIT_3D)
        check = verify_system_3d(p, 0.99 * MU0_UNIT_3D, c)
        assert not check.checks[3].passed

    def test_degenerate_eps1_fails_first(self):
        p = make_params()
        c = CoefficientSet3D(
            eps1=1.0, eps2=0.3, eps3=0.2, eps4=0.4,
            delta1=1.0, delta2=1.0, delta3=1.0,
        )
        check = verify_system_3d(p, 8.0, c)
        assert not check.checks[0].passed
        assert check.checks[0].margin < 0.0

    def test_fourth_margin_strictly_increasing_in_mu(self):
        p = make_params()
        c = select_coefficients_3d(p, 8.0)
        margins = [
            verify_system_3d(p, mu, c).checks[3].margin
            for mu in np.linspace(7.0, 12.0, 11)
        ]
        assert all(b > a for a, b in zip(margins, margins[1:]))
        others = [
            verify_system_3d(p, mu, c).checks[0].margin
            for mu in np.linspace(7.0, 12.0, 5)
        ]
        assert all(m == others[0] for m in others)

    def test_rejects_at_threshold_and_zero_chi(self):
        with pytest.raises(ValueError, match="mu > mu0"):
            select_coefficients_3d(make_params(), MU0_UNIT_3D)
        with pytest.raises(ValueError, match="chi = 0"):
            select_coefficients_3d(make_params(chi=0.0), 100.0)

    def test_random_draw_ladder(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            d1, d2, alpha = rng.uniform(0.1, 10, 3)
            chi = rng.uniform(0.1, 10) * rng.choice([-1, 1])
            p = make_params(d1=d1, d2=d2, alpha=alpha, chi=chi)
            m0, _ = mu0_general(p, convex=False)
            for mult in (1.001, 1.1, 2.0, 10.0):
                c = select_coefficients_3d(p, mult * m0)
                assert verify_system_3d(p, mult * m0, c).passed


class TestCoefficients45D:
    def test_verify_flags_degenerate_eps(self):
        p = make_params(n=4)
        c = CoefficientSet45D(
            eps=1.0, eta=0.5, eps1=1, eps2=1, eps3=1, eps4=1,
            delta1=1, delta2=1, delta3=1, delta4=1,
        )
        check = verify_system_45d(p, 10.0, c)
        assert not check.checks[0].passed

    def test_verify_flags_ratio_constraint(self):
        p = make_params(n=4)
        c = CoefficientSet45D(
            eps=0.4, eta=0.4, eps1=1, eps2=1e-6, eps3=1, eps4=1,
            delta1=1, delta2=1, delta3=1, delta4=1,
        )
        check = verify_system_45d(p, 10.0, c)
        assert "delta-ratio-window" in check.failed_names()

    def test_certified_floor_exceeds_near_threshold_damping(self):
        # the additive threshold chain is not attainable by the verbatim
        # inequality system: feasibility starts well above mu0
        p = make_params(n=4)
        m0, _ = mu0_general(p, convex=False)
        floor = feasibility_floor_45d(p)
        assert floor > 1.2 * m0
        assert 1.6 * m0 < floor < 1.9 * m0

    def test_selection_refused_below_certified_floor(self):
        p = make_params(n=4)
        m0, _ = mu0_general(p, convex=False)
        with pytest.raises(RuntimeError, match="infeasible"):
            select_coefficients_45d(p, 1.2 * m0)

    @pytest.mark.parametrize("n", [4, 5])
    def test_selection_verifies_above_floor(self, n):
        p = make_params(n=n)
        floor = feasibility_floor_45d(p)
        mu = 4.0 * floor
        c = select_coefficients_45d(p, mu)
        check = verify_system_45d(p, mu, c)
        assert check.passed
        assert 0.0 < c.eps < p.d1 and 0.0 < c.eta < p.d2

    def test_unit_selection_at_twice_mu0(self):
        p = make_params(n=4)
        m0, _ = mu0_general(p, convex=False)
        c = select_coefficients_45d(p, 2.0 * m0)
        assert verify_system_45d(p, 2.0 * m0, c).passed

    def test_floor_scales_with_alpha_chi(self):
        p = make_params(n=4)
        base = feasibility_floor_45d(p)
        doubled = feasibility_floor_45d(make_params(n=4, alpha=2.0))
        assert doubled == pytest.approx(2.0 * base, rel=1e-3)
        assert feasibility_floor_45d(make_params(n=4, chi=0.0)) == 0.0

    @pytest.mark.parametrize("n", [4, 5])
    def test_selection_validates_once_per_call_not_per_candidate(self, monkeypatch, n):
        # the candidates are checked on the params select_coefficients_45d
        # has already validated; verify_system_45d re-validated each one
        validated, checked = [], []
        system = thresholds._system_45d

        def counted_validate(params):
            validated.append(params)
            return validate(params)

        def counted_check(*args):
            checked.append(args)
            return system(*args)

        p = make_params(n=n)
        m0, _ = mu0_general(p, convex=False)
        counts = []
        for factor in (2.5, 20.0):
            monkeypatch.setattr(thresholds, "validate", counted_validate)
            monkeypatch.setattr(thresholds, "_system_45d", counted_check)
            select_coefficients_45d(p, factor * m0)
            monkeypatch.undo()
            counts.append((len(validated), len(checked)))
            validated.clear()
            checked.clear()
        (few_v, few_c), (many_v, many_c) = counts
        assert few_c < many_c and few_v == many_v <= 2

    def test_selection_rejects_threshold_and_zero_chi(self):
        p = make_params(n=4)
        m0, _ = mu0_general(p, convex=False)
        with pytest.raises(ValueError, match="mu > mu0"):
            select_coefficients_45d(p, m0)
        with pytest.raises(ValueError, match="chi = 0"):
            select_coefficients_45d(make_params(n=4, chi=0.0), 100.0)


class TestReport:
    def test_unit_composition(self):
        rep = report(make_params(), convex=False)
        assert rep.mu0 == pytest.approx(MU0_UNIT_3D, rel=1e-12)
        assert rep.mu1 == 0.25
        assert rep.gamma == pytest.approx(7.797256097560976e-4, rel=1e-12)
        assert rep.epsilon0 == pytest.approx(128.125)
        assert rep.coeffs3 is not None
        assert rep.branch == BRANCH_GENERAL

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_mu0_undefined_outside_supported_dimensions(self, n):
        rep = report(make_params(n=n), convex=True)
        assert math.isnan(rep.mu0) and rep.branch == BRANCH_GENERAL
        assert rep.mu1 == 0.25 and rep.gamma is not None
        assert rep.coeffs3 is None and rep.coeffs45 is None

    def test_negative_kappa(self):
        rep = report(make_params(kappa=-1.0))
        assert rep.mu1 == 0.0
        assert rep.gamma is None and rep.epsilon0 is None

    def test_zero_chi(self):
        rep = report(make_params(chi=0.0))
        assert rep.mu0 == 0.0 and rep.mu1 == 0.0
        assert rep.gamma is None
        assert rep.coeffs3 is None

    def test_gamma_positive_whenever_defined(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = make_params(
                d1=rng.uniform(0.1, 5), d2=rng.uniform(0.1, 5),
                chi=rng.uniform(-3, 3), kappa=rng.uniform(0.1, 5),
                mu=rng.uniform(0.1, 20),
            )
            rep = report(p)
            if rep.gamma is not None:
                assert rep.gamma > 0.0
