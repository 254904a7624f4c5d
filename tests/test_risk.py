"""Risk-engine tests.

The closed forms are verified against adaptive quadrature and Monte Carlo;
the inequality chains are checked on random priors; scalar fixtures were
frozen from a 40-digit extended-precision oracle.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fdrthresh.gauss import (
    critical_tail_level,
    exp_gauss_moment,
    norm_cdf,
    norm_pdf,
)
from fdrthresh import risk
from fdrthresh.risk import (
    DiagnosticConstants,
    EmpiricalPrior,
    bayes_soft_risk,
    clipped_second_moment,
    default_surrogate_constant,
    diagnostic_constants,
    fdr_curve,
    optimal_levels,
    population_fdr_levels,
    rejection_prob,
    smooth_risk_bound,
    soft_risk,
    surrogate_risk,
)
from fdrthresh.simulate import common_mean_experiment, regret_experiment


def quad_soft_risk(mu: float, level: float) -> float:
    """Quadrature oracle for the soft-threshold risk at one point."""
    lam = level

    def dead(z):
        return mu * mu * norm_pdf(z)

    def upper(z):
        return (z - lam) ** 2 * norm_pdf(z)

    def lower(z):
        return (z + lam) ** 2 * norm_pdf(z)

    a, b = -lam - mu, lam - mu
    total, _ = quad(dead, a, b, epsabs=1e-13, epsrel=1e-13)
    hi, _ = quad(upper, b, np.inf, epsabs=1e-13, epsrel=1e-13)
    lo, _ = quad(lower, -np.inf, a, epsabs=1e-13, epsrel=1e-13)
    return total + hi + lo


def random_prior(rng) -> EmpiricalPrior:
    k = int(rng.integers(2, 7))
    atoms = rng.uniform(0.0, 6.0, size=k)
    weights = rng.dirichlet(np.ones(k))
    return EmpiricalPrior.from_atoms(atoms, weights, n=1000)


class TestEmpiricalPrior:
    def test_from_vector_collapses_duplicates(self):
        theta = np.array([0.0] * 9 + [3.0])
        prior = EmpiricalPrior.from_vector(theta)
        np.testing.assert_array_equal(prior.atoms, [0.0, 3.0])
        np.testing.assert_allclose(prior.weights, [0.9, 0.1])
        assert prior.n == 10
        assert prior.mean_square == pytest.approx(0.9)
        assert prior.max_abs == 3.0
        assert not prior.is_degenerate

    def test_degenerate_flag(self):
        assert EmpiricalPrior.from_vector(np.zeros(5)).is_degenerate

    def test_validation(self):
        with pytest.raises(ValueError):
            EmpiricalPrior.from_atoms([1.0, 2.0], [0.7, 0.7], n=2)
        with pytest.raises(ValueError):
            EmpiricalPrior.from_atoms([1.0], [-1.0], n=1)
        with pytest.raises(ValueError):
            EmpiricalPrior.from_atoms([], [], n=0)
        with pytest.raises(ValueError):
            EmpiricalPrior.from_atoms([1.0, 2.0], [1.0], n=2)

    def test_from_vector_rejects_overflowing_squares(self):
        with pytest.raises(ValueError, match="max"):
            EmpiricalPrior.from_vector([1e200, 0.0])
        with pytest.raises(ValueError, match="max"):
            EmpiricalPrior.from_vector([1e154, 0.0])  # 2e308 overflows
        assert np.isfinite(EmpiricalPrior.from_vector([1e153, 0.0]).mean_square)


class TestSoftRisk:
    def test_frozen_oracle_values(self):
        assert soft_risk(1.7, 0.8) == pytest.approx(1.2128754207235537, rel=1e-14)
        assert soft_risk(0.0, 1.0) == pytest.approx(0.1506795666875415, rel=1e-14)
        assert soft_risk(0.0, 2.0) == pytest.approx(0.011537453429039864, rel=1e-14)
        assert soft_risk(3.2, 1.3) == pytest.approx(2.6115435768007805, rel=1e-14)

    def test_edges(self):
        # level 0 keeps the raw observation: risk is the noise variance
        assert soft_risk(0.0, 0.0) == 1.0
        assert soft_risk(2.5, 0.0) == pytest.approx(1.0, rel=1e-14)
        # infinite level always estimates zero
        assert soft_risk(2.5, np.inf) == 2.5**2
        assert soft_risk(0.0, np.inf) == 0.0

    def test_sign_symmetry(self):
        mus = np.linspace(0, 6, 25)
        lams = np.linspace(0, 5, 21)
        np.testing.assert_allclose(
            soft_risk(mus[:, None], lams[None, :]),
            soft_risk(-mus[:, None], lams[None, :]),
            rtol=1e-14,
        )

    def test_quadrature_agreement_spot(self):
        for mu in (0.0, 0.5, 1.5, 4.0, 9.5):
            for lam in (0.0, 0.25, 1.0, 3.75, 6.0):
                assert soft_risk(mu, lam) == pytest.approx(
                    quad_soft_risk(mu, lam), abs=1e-9
                )

    def test_null_risk_moment_identity(self):
        # lam^3 R(0, lam) / 2 = phi(lam) * J_2(lam)
        for lam in (0.5, 1.0, 2.0, 4.0):
            lhs = lam**3 * soft_risk(0.0, lam) / 2.0
            rhs = norm_pdf(lam) * exp_gauss_moment(lam, 2)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_null_risk_sandwich(self):
        lam = np.linspace(1e-3, 8.0, 400)
        risk = soft_risk(0.0, lam)
        tail = 4.0 * norm_cdf(-lam)
        assert np.all(tail / (lam**2 + 5.0) <= risk)
        assert np.all(risk <= tail / (lam**2 + 2.0))

    def test_null_risk_decreasing(self):
        lam = np.linspace(0.0, 10.0, 500)
        assert np.all(np.diff(soft_risk(0.0, lam)) < 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            soft_risk(0.0, -1.0)
        with pytest.raises(ValueError):
            soft_risk(np.nan, 1.0)


class TestBayesRisk:
    PRIOR = EmpiricalPrior.from_vector(np.array([0.0] * 9 + [3.0]))

    def test_frozen_value(self):
        assert bayes_soft_risk(self.PRIOR, 1.0) == pytest.approx(
            0.32994491195310743, rel=1e-14
        )

    def test_is_weighted_average(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            prior = random_prior(rng)
            lam = rng.uniform(0, 4)
            direct = float(prior.weights @ soft_risk(prior.atoms, lam))
            assert bayes_soft_risk(prior, lam) == pytest.approx(direct, rel=1e-13)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(32)
        m = 2_000_000
        theta = np.where(rng.random(m) < 0.1, 3.0, 0.0)
        x = theta + rng.standard_normal(m)
        lam = 1.0
        loss = (np.sign(x) * np.maximum(np.abs(x) - lam, 0.0) - theta) ** 2
        se = loss.std() / math.sqrt(m)
        assert bayes_soft_risk(self.PRIOR, lam) == pytest.approx(
            loss.mean(), abs=4 * se
        )


class TestSurrogatePieces:
    def test_clipped_moment_values(self):
        prior = EmpiricalPrior.from_atoms([0.0, 3.0], [0.9, 0.1], n=10)
        assert clipped_second_moment(prior, 1.0) == pytest.approx(0.1)
        assert clipped_second_moment(prior, np.inf) == pytest.approx(0.9)
        assert clipped_second_moment(prior, 0.0) == 0.0

    def test_clipped_moment_monotone(self):
        rng = np.random.default_rng(33)
        prior = random_prior(rng)
        levels = np.linspace(0, 10, 200)
        vals = clipped_second_moment(prior, levels)
        assert np.all(np.diff(vals) >= 0)
        assert vals[-1] <= prior.mean_square + 1e-15

    def test_surrogate_dominates_clipped(self):
        rng = np.random.default_rng(34)
        prior = random_prior(rng)
        levels = np.linspace(0, 8, 100)
        assert np.all(
            surrogate_risk(prior, levels) >= clipped_second_moment(prior, levels)
        )

    def test_surrogate_b0_validation(self):
        prior = EmpiricalPrior.from_atoms([1.0], [1.0], n=1)
        with pytest.raises(ValueError):
            surrogate_risk(prior, 1.0, b0=3.9)

    def test_default_surrogate_constant(self):
        assert default_surrogate_constant(0.025) == 320.0
        assert default_surrogate_constant(0.5, c0=3.0) == 18.0
        assert default_surrogate_constant(0.5) == 16.0
        with pytest.raises(ValueError):
            default_surrogate_constant(0.0)
        with pytest.raises(ValueError):
            default_surrogate_constant(0.1, c0=0.5)

    def test_average_risk_chain(self):
        # R_G(lam) <= rho_G(sqrt(lam^2+1)) + R(0,lam)
        #          <= rho_G(lam) + r_G(lam)/(lam^2 v 1)   at b0 = 4
        rng = np.random.default_rng(35)
        lams = np.linspace(1e-3, 7.0, 120)
        for _ in range(25):
            prior = random_prior(rng)
            rg = bayes_soft_risk(prior, lams)
            mid = clipped_second_moment(prior, np.sqrt(lams**2 + 1.0)) + soft_risk(
                0.0, lams
            )
            outer = clipped_second_moment(prior, lams) + surrogate_risk(
                prior, lams, 4.0
            ) / np.maximum(lams**2, 1.0)
            assert np.all(rg <= mid * (1 + 1e-12))
            assert np.all(mid <= outer * (1 + 1e-12))


class TestRejectionAndFdrCurve:
    def test_rejection_edges(self):
        rng = np.random.default_rng(36)
        prior = random_prior(rng)
        assert rejection_prob(prior, 0.0) == pytest.approx(1.0, rel=1e-14)
        null = EmpiricalPrior.from_vector(np.zeros(4))
        t = np.linspace(0.1, 5, 40)
        np.testing.assert_allclose(rejection_prob(null, t), 2 * norm_cdf(-t), rtol=1e-13)

    def test_rejection_sandwich(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            prior = random_prior(rng)
            t = rng.uniform(0.05, 7.0, size=50)
            surv = np.array(
                [prior.weights[np.abs(prior.atoms) > ti].sum() for ti in t]
            )
            s = rejection_prob(prior, t)
            assert np.all(surv / 2.0 <= s + 1e-13)
            assert np.all(s <= 2 * norm_cdf(-t) + clipped_second_moment(prior, 1.0) + 1e-13)

    def test_fdr_curve_degenerate_is_one(self):
        null = EmpiricalPrior.from_vector(np.zeros(7))
        t = np.linspace(0, 6, 30)
        np.testing.assert_array_equal(fdr_curve(null, t), np.ones_like(t))

    def test_fdr_curve_from_one_strictly_down(self):
        rng = np.random.default_rng(38)
        grid = np.linspace(1e-3, 8.0, 400)
        for _ in range(15):
            prior = random_prior(rng)
            curve = fdr_curve(prior, grid)
            assert curve[0] == pytest.approx(1.0, abs=5e-3)
            assert np.all(np.diff(curve) < 0)
            assert np.all((curve > 0) & (curve <= 1))

    def test_fdr_curve_two_atom_value(self):
        prior = EmpiricalPrior.from_atoms([0.0, 3.0], [0.5, 0.5], n=2)
        want = (2 * norm_cdf(-2.0)) / (
            0.5 * 2 * norm_cdf(-2.0) + 0.5 * (norm_cdf(1.0) + norm_cdf(-5.0))
        )
        assert fdr_curve(prior, 2.0) == pytest.approx(want, rel=1e-13)


class TestPopulationLevels:
    def test_degenerate_prior(self):
        null = EmpiricalPrior.from_vector(np.zeros(3))
        assert population_fdr_levels(null, 0.1, 0.025) == (np.inf, np.inf)

    def test_frozen_example(self):
        prior = EmpiricalPrior.from_vector(np.array([0.0] * 9 + [3.0]))
        xi1, xi2 = population_fdr_levels(prior, 0.1, 0.025)
        assert xi1 == pytest.approx(2.7087626924203567, rel=1e-10)
        assert xi2 == pytest.approx(3.295843954031284, rel=1e-10)

    def test_crossing_matches_dense_grid(self):
        prior = EmpiricalPrior.from_vector(np.array([0.0] * 99 + [4.0]))
        xi1, _ = population_fdr_levels(prior, 0.9, 0.025)
        grid = np.arange(1e-4, 10.0, 1e-4)
        curve = fdr_curve(prior, grid)
        below = np.nonzero(curve <= 0.9)[0]
        assert abs(xi1 - grid[below[0]]) <= 1e-4

    def test_levels_are_curve_roots_and_ordered(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            prior = random_prior(rng)
            xi1, xi2 = population_fdr_levels(prior, 0.1, 0.025)
            assert xi1 <= xi2
            for xi, target in ((xi1, 0.1), (xi2, 0.025)):
                if np.isfinite(xi):
                    assert fdr_curve(prior, xi) == pytest.approx(target, rel=1e-8)

    def test_tail_bound_at_levels(self):
        # 2 Phi(-xi_j) <= rho_G(1) alpha'_j / (1 - alpha'_j)
        rng = np.random.default_rng(40)
        for _ in range(20):
            prior = random_prior(rng)
            rho1 = clipped_second_moment(prior, 1.0)
            for xi, a in zip(population_fdr_levels(prior, 0.1, 0.025), (0.1, 0.025)):
                if np.isfinite(xi):
                    assert 2 * norm_cdf(-xi) <= rho1 * a / (1 - a) + 1e-13


def closed_form_risk(mu: float, level: float) -> float:
    """The soft-risk closed form, which extends smoothly to negative levels."""

    def q(a):
        return (1 + level**2) * norm_cdf(-a) + (a - 2 * level) * norm_pdf(a)

    kill = mu**2 * (norm_cdf(level - mu) - norm_cdf(-level - mu))
    return kill + q(level - mu) + q(level + mu)


def central(f, x: float, h: float = 1e-5) -> float:
    return (f(x + h) - f(x - h)) / (2 * h)


def slope_cases():
    rng = np.random.default_rng(45)
    cases = list(zip(rng.uniform(-10.0, 10.0, 40), rng.uniform(0.0, 10.0, 40)))
    cases += [(mu, 0.0) for mu in (-3.0, 0.0, 0.5, 38.0)]
    cases += [(0.0, lam) for lam in (0.3, 2.0, 9.0)]
    cases += [(mu, lam) for mu in (-38.0, 38.0) for lam in (0.7, 37.5, 38.0, 40.0)]
    return cases


class TestRiskSlopes:
    def test_exact_slopes_match_central_differences(self):
        for mu, lam in slope_cases():
            if lam > 0.0:
                assert closed_form_risk(mu, lam) == pytest.approx(soft_risk(mu, lam), rel=1e-12)
            prior = EmpiricalPrior.from_atoms([mu])
            d1, d2 = risk._exact_slope(prior, lam)
            assert d1 == pytest.approx(
                central(lambda lv: closed_form_risk(mu, lv), lam), rel=1e-7, abs=1e-9
            )
            assert d2 == pytest.approx(
                central(lambda lv: risk._exact_slope(prior, lv)[0], lam), rel=1e-7, abs=1e-9
            )

    def test_mixed_slope_is_the_weighted_atom_slope(self):
        atoms, weights = np.array([0.0, 1.5, -4.0]), np.array([0.5, 0.3, 0.2])
        prior = EmpiricalPrior.from_atoms(atoms, weights)
        per_atom = [risk._exact_slope(EmpiricalPrior.from_atoms([a]), 1.2) for a in atoms]
        np.testing.assert_allclose(risk._exact_slope(prior, 1.2), weights @ np.array(per_atom))

    def test_surrogate_slope_matches_central_differences_off_kinks(self):
        rng = np.random.default_rng(46)
        prior = EmpiricalPrior.from_atoms([0.0, 1.0, -2.5, 38.0], [0.4, 0.3, 0.2, 0.1])
        kinks = np.abs(prior.atoms)
        levels = [lv for lv in rng.uniform(0.0, 40.0, 60) if np.min(np.abs(kinks - lv)) > 1e-3]
        for lam in [0.0, *levels]:
            d1, _ = risk._surrogate_slope(prior, lam, 6.0)
            # clipped_second_moment is even in the level, so |lv| extends it past 0
            smooth = lambda lv: clipped_second_moment(prior, abs(lv)) + 6.0 * norm_cdf(-lv)
            assert d1 == pytest.approx(central(smooth, lam), rel=1e-7, abs=1e-9)
            if lam > 0.0:
                d2 = central(lambda lv: risk._surrogate_slope(prior, lv, 6.0)[0], lam)
                assert risk._surrogate_slope(prior, lam, 6.0)[1] == pytest.approx(d2, rel=1e-7)


def dense_grid_min(fn, prior: EmpiricalPrior, level_max: float) -> float:
    """Minimum over 1e6 + 1 levels on [0, level_max] and the infinite level."""
    grid = np.linspace(0.0, level_max, 1_000_001)
    best = min(float(np.min(fn(prior, chunk))) for chunk in np.array_split(grid, 40))
    return min(best, prior.mean_square)


def edge_prior(name: str) -> tuple[EmpiricalPrior, float | None]:
    nine_zeros_and_three = EmpiricalPrior.from_vector(np.array([0.0] * 9 + [3.0]))
    rng = np.random.default_rng(47)
    return {
        "zero-atom": (EmpiricalPrior.from_atoms([0.0]), None),
        "first-cell": (EmpiricalPrior.from_atoms([-5.0, 5.0]), None),
        "last-cell": (nine_zeros_and_three, 1.1762),
        "right-end": (nine_zeros_and_three, 1.0),
        "pm40": (EmpiricalPrior.from_atoms([-40.0, 40.0]), None),
        # the surrogate has two local minima, split by the kink at 2.4733, in
        # the best grid bracket; the lower one lies past the kink
        "kink-in-bracket": (
            EmpiricalPrior.from_atoms([0.0, 2.4733, 3.4689], [0.98466, 0.00037815, 0.01496185]),
            40.0,
        ),
        "50-atoms": (
            EmpiricalPrior.from_atoms(rng.normal(0.0, 2.5, 50), rng.dirichlet(np.ones(50))),
            None,
        ),
    }[name]


class TestOptimalLevels:
    def test_frozen_example(self):
        prior = EmpiricalPrior.from_vector(np.array([0.0] * 9 + [3.0]))
        opt = optimal_levels(prior)
        assert opt.level_exact == pytest.approx(1.1760974061306528, abs=1e-7)
        assert opt.risk_exact == pytest.approx(0.32019362173393734, rel=1e-12)
        assert opt.level_surrogate == pytest.approx(1.7439328516429033, abs=1e-7)
        assert opt.risk_surrogate == pytest.approx(0.466471777853926, rel=1e-12)
        assert opt.b0 == 4.0

    def test_zero_prior_prefers_infinite_level(self):
        opt = optimal_levels(EmpiricalPrior.from_vector(np.zeros(16)))
        assert opt.level_exact == np.inf
        assert opt.risk_exact == 0.0
        assert opt.level_surrogate == np.inf
        assert opt.risk_surrogate == 0.0

    def test_grid_oracle_agreement(self):
        rng = np.random.default_rng(41)
        grid = np.linspace(0.0, math.sqrt(2 * math.log(1000)) + 4.0, 1_000_001)
        for _ in range(3):
            prior = random_prior(rng)
            opt = optimal_levels(prior)
            exact_grid = float(np.min(bayes_soft_risk(prior, grid)))
            exact_grid = min(exact_grid, prior.mean_square)
            sur_grid = float(np.min(surrogate_risk(prior, grid)))
            sur_grid = min(sur_grid, prior.mean_square)
            assert opt.risk_exact <= exact_grid + 1e-8
            assert opt.risk_surrogate <= sur_grid + 1e-8
            assert opt.risk_exact >= exact_grid - 1e-8
            assert opt.risk_surrogate >= sur_grid - 1e-8

    @pytest.mark.parametrize(
        "name",
        ["zero-atom", "first-cell", "last-cell", "right-end", "pm40", "kink-in-bracket", "50-atoms"],
    )
    def test_edge_priors_match_dense_grid(self, name):
        prior, level_max = edge_prior(name)
        opt = optimal_levels(prior, level_max=level_max)
        if level_max is None:
            level_max = math.sqrt(2 * math.log(max(prior.n, 2))) + 4.0
        cell = level_max / 2047
        if name == "first-cell":
            assert 0.0 < opt.level_exact < cell
        if name == "last-cell":
            assert level_max - cell < opt.level_exact < level_max
        exact = dense_grid_min(bayes_soft_risk, prior, level_max)
        sur = dense_grid_min(surrogate_risk, prior, level_max)
        assert opt.risk_exact == pytest.approx(exact, abs=1e-8)
        assert opt.risk_surrogate == pytest.approx(sur, abs=1e-8)

    def test_experiments_never_minimize_the_surrogate(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("surrogate risk evaluated")

        monkeypatch.setattr(risk, "surrogate_risk", refuse)
        with pytest.raises(AssertionError):
            optimal_levels(EmpiricalPrior.from_atoms([0.0, 3.0])).risk_surrogate
        theta = np.zeros(64)
        theta[:4] = 3.0
        assert regret_experiment(theta, 4, seed=1, strong=True).exact_total > 0.0
        assert common_mean_experiment(64, 0.1, 4, seed=1).exact_total > 0.0

    def test_exact_vs_surrogate_minimum_bound(self):
        # eta_G <= (1 + 1/(level_surrogate^2 v 1)) * eta*_G
        rng = np.random.default_rng(42)
        for _ in range(30):
            prior = random_prior(rng)
            opt = optimal_levels(prior)
            lam_star = opt.level_surrogate
            factor = 1.0 + (
                0.0 if np.isinf(lam_star) else 1.0 / max(lam_star**2, 1.0)
            )
            assert opt.risk_exact <= factor * opt.risk_surrogate + 1e-13

    def test_sparse_case_infinite_level(self):
        # below the critical sparsity the zero estimator wins outright
        n = 1000
        theta = np.zeros(n)
        theta[0] = 0.5
        prior = EmpiricalPrior.from_vector(theta)
        zn2 = critical_tail_level(n) ** 2
        assert prior.mean_square <= zn2 / n
        opt = optimal_levels(prior)
        assert opt.level_surrogate == np.inf
        assert opt.risk_surrogate == pytest.approx(prior.mean_square, rel=1e-15)

    def test_surrogate_level_monotone_in_b0(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            prior = random_prior(rng)
            levels = [
                optimal_levels(prior, b0=b).level_surrogate for b in (4.0, 8.0, 16.0)
            ]
            assert levels[0] <= levels[1] + 1e-6
            assert levels[1] <= levels[2] + 1e-6

    def test_clipped_moment_lower_bound_constant(self):
        # rho_G(1) <= (1 + sqrt(8 log(lam v e))/(lam v e) + M/(lam v e)) eta_G
        # with M = 1.0, the ceiling fitted by a 400-prior sweep over these
        # same families (the sweep's maximum required M was 0.0)
        m_fitted = 1.0
        e = math.e
        rng = np.random.default_rng(20240817)
        checked = 0
        for trial in range(150):
            prior = _sweep_prior(rng, trial)
            opt = optimal_levels(prior)
            lam, eta = opt.level_exact, opt.risk_exact
            rho1 = clipped_second_moment(prior, 1.0)
            if eta <= 0.0:
                assert rho1 == 0.0
                continue
            le = max(lam, e)
            if np.isinf(le):
                assert rho1 <= eta * (1 + 1e-12)
            else:
                bound = (1.0 + math.sqrt(8 * math.log(le)) / le + m_fitted / le) * eta
                assert rho1 <= bound
            checked += 1
        assert checked >= 100


def _sweep_prior(rng, trial) -> EmpiricalPrior:
    kind = trial % 4
    if kind == 0:
        eps = 10.0 ** rng.uniform(-4, -0.31)
        a = rng.uniform(0.1, 10.0)
        return EmpiricalPrior.from_atoms([0.0, a], [1 - eps, eps], n=1000)
    if kind == 1:
        k = rng.integers(2, 8)
        atoms = rng.uniform(0.0, 8.0, size=k)
        w = rng.dirichlet(np.ones(k))
        return EmpiricalPrior.from_atoms(atoms, w, n=1000)
    if kind == 2:
        n = int(rng.integers(20, 400))
        s = int(rng.integers(1, max(2, n // 4)))
        theta = np.zeros(n)
        theta[:s] = rng.uniform(0.5, 6.0, size=s)
        return EmpiricalPrior.from_vector(theta)
    n = int(rng.integers(20, 200))
    theta = rng.normal(0.0, rng.uniform(0.2, 3.0), size=n)
    return EmpiricalPrior.from_vector(theta)


class TestSmoothRiskBound:
    def test_zero_level(self):
        rng = np.random.default_rng(44)
        prior = random_prior(rng)
        c0 = 3.0
        want = clipped_second_moment(prior, math.sqrt(2.0)) + c0 * c0
        assert smooth_risk_bound(prior, 0.0, c0) == pytest.approx(want, rel=1e-14)

    def test_zero_prior(self):
        null = EmpiricalPrior.from_vector(np.zeros(3))
        for lam in (0.5, 1.0, 2.0):
            want = 9.0 * soft_risk(0.0, lam)
            assert smooth_risk_bound(null, lam, 3.0) == pytest.approx(want, rel=1e-14)

    def test_domain(self):
        prior = EmpiricalPrior.from_atoms([1.0], [1.0], n=1)
        with pytest.raises(ValueError):
            smooth_risk_bound(prior, 1.0, 0.9)

    def test_firm_risk_within_bound_mc(self):
        # firm slope 1.5 has c0 = 1.5/(2-1.5) = 3
        prior = EmpiricalPrior.from_atoms([0.0, 2.0], [0.8, 0.2], n=5)
        lam, slope = 1.5, 1.5
        rng = np.random.default_rng(45)
        m = 400_000
        theta = np.where(rng.random(m) < 0.2, 2.0, 0.0)
        x = theta + rng.standard_normal(m)
        fit = np.sign(x) * np.minimum(np.abs(x), slope * np.maximum(np.abs(x) - lam, 0.0))
        loss = (fit - theta) ** 2
        se = loss.std() / math.sqrt(m)
        bound = smooth_risk_bound(prior, lam, 3.0)
        assert loss.mean() <= bound + 3 * se


class TestDiagnosticConstants:
    def test_frozen_values(self):
        d = diagnostic_constants(
            100, 0.0, 0.0, 2.0, 0.0, 0.01, 0.05, 0.1, 0.05, 0.025
        )
        assert isinstance(d, DiagnosticConstants)
        assert d.l2n == pytest.approx(0.33162284218172217, rel=1e-14)
        assert d.tau1_star == pytest.approx(0.33162284218172217, rel=1e-14)
        assert d.tau2_star == pytest.approx(0.003316228421817222, rel=1e-14)
        assert d.nu1_star == pytest.approx(0.1931471805599453, rel=1e-14)
        assert d.nu2_star == pytest.approx(0.3068528194400547, rel=1e-14)

    def test_identity_transform_special_case(self):
        # delta1 = 0, c1 = 2, c2 = 0 collapses the rate to loglog n / log n
        # (once n > e^e, where the 1-or-loglog clamp is inactive)
        for n in (16, 100, 10_000):
            d = diagnostic_constants(n, 0.0, 0.0, 2.0, 0.0, 0.05, 0.05, 0.1, 0.05, 0.025)
            assert d.l2n == pytest.approx(
                math.log(math.log(n)) / math.log(n), rel=1e-12
            )
            assert d.tau2_star == pytest.approx(d.l2n / n, rel=1e-12)
        # below that the iterated log is clamped at 1
        d = diagnostic_constants(10, 0.0, 0.0, 2.0, 0.0, 0.05, 0.05, 0.1, 0.05, 0.025)
        assert d.l2n == pytest.approx(1.0 / math.log(10), rel=1e-12)

    def test_equal_rates_zero_exponent(self):
        d = diagnostic_constants(50, 0.0, 0.0, 2.0, 0.0, 0.05, 0.1, 0.1, 0.05, 0.05)
        assert d.nu1_star == 0.0
        assert d.nu2_star == 0.0

    def test_exponent_value(self):
        # r = 0.5: nu = 0.5 - 1 - log(0.5)
        d = diagnostic_constants(50, 0.0, 0.0, 2.0, 0.0, 0.05, 0.05, 0.1, 0.05, 0.025)
        assert d.nu1_star == pytest.approx(0.5 - 1.0 - math.log(0.5), rel=1e-14)

    def test_domain_errors(self):
        good = dict(n=100, delta1=0.0, delta2=0.0, c1=2.0, c2=0.0,
                    eta_star=0.01, alpha1=0.05, alpha1p=0.1,
                    alpha2=0.05, alpha2p=0.025)
        with pytest.raises(ValueError):
            diagnostic_constants(**{**good, "n": 1})
        with pytest.raises(ValueError):
            diagnostic_constants(**{**good, "delta1": 0.5, "delta2": 0.1})
        with pytest.raises(ValueError):
            diagnostic_constants(**{**good, "c1": 2.5})
        with pytest.raises(ValueError):
            diagnostic_constants(**{**good, "c1": 0.0})
        with pytest.raises(ValueError):
            diagnostic_constants(**{**good, "c2": 0.5})  # c2 > 0 with c1 = 2
        with pytest.raises(ValueError):
            diagnostic_constants(**{**good, "eta_star": 0.0})
        with pytest.raises(ValueError):
            diagnostic_constants(**{**good, "alpha2p": 0.2})
