"""Threshold-rule tests: point values, ordering, Lipschitz bounds, and the
penalized-least-squares local-minimum view."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from fdrthresh.selector import FdrConfig, candidate_levels, select_lambda
from fdrthresh.thresholds import (
    PenalizedFit,
    ThresholdFamily,
    apply_family,
    firm,
    hard,
    plse_local_minima,
    soft,
)

FAMILIES = [
    ThresholdFamily("soft"),
    ThresholdFamily("firm", firm_slope=1.2),
    ThresholdFamily("firm", firm_slope=1.5),
    ThresholdFamily("firm", firm_slope=1.9),
    ThresholdFamily("interpolated", firm_slope=1.5, weight=0.3),
    ThresholdFamily("interpolated", firm_slope=1.8, weight=0.7),
]


def test_soft_points():
    assert soft(3.0, 1.0) == 2.0
    assert soft(-0.5, 1.0) == 0.0
    assert soft(-3.0, 1.0) == -2.0
    x = np.array([-2.0, 0.0, 0.3, 5.0])
    np.testing.assert_array_equal(soft(x, 0.0), x)


def test_soft_bits_match_formula():
    # negatives below the level map to -0.0, as in sign(x) * (|x| - L)+
    rng = np.random.default_rng(3)
    x = np.concatenate((rng.standard_normal(1000) * 3, [-0.0, 0.0, -1.0, 1.0, -1e-300]))
    for level in (0.0, 1.0, 2.5, 1e-300):
        want = np.sign(x) * np.maximum(np.abs(x) - level, 0.0)
        got = soft(x, level)
        assert got.tobytes() == want.tobytes()
    assert np.signbit(soft(-0.5, 1.0)) and isinstance(soft(-0.5, 1.0), float)
    # the input is left as it was
    y = x.copy()
    soft(y, 1.0)
    assert y.tobytes() == x.tobytes()


def test_hard_points():
    assert hard(1.5, 1.0) == 1.5
    assert hard(-2.0, 1.0) == -2.0
    # boundary is excluded: the rule keeps only strict exceedances
    assert hard(1.0, 1.0) == 0.0
    assert hard(-1.0, 1.0) == 0.0


def test_firm_points():
    assert firm(2.0, 1.0, 1.5) == 1.5
    assert firm(4.0, 1.0, 1.5) == 4.0
    assert firm(0.5, 1.0, 1.5) == 0.0
    # identity past the kink at slope*level/(slope-1)
    kink = 1.5 * 1.0 / 0.5
    assert firm(kink, 1.0, 1.5) == pytest.approx(kink, rel=1e-15)
    xs = np.linspace(kink, kink + 5, 50)
    np.testing.assert_allclose(firm(xs, 1.0, 1.5), xs, rtol=1e-15)


def test_domain_errors():
    with pytest.raises(ValueError):
        soft(1.0, -0.5)
    with pytest.raises(ValueError):
        hard(1.0, -0.5)
    with pytest.raises(ValueError):
        firm(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        firm(1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        ThresholdFamily("banana")
    with pytest.raises(ValueError):
        ThresholdFamily("firm", firm_slope=2.5)
    with pytest.raises(ValueError):
        ThresholdFamily("interpolated", weight=1.5)


def test_boundary_at_level_is_zero():
    # |x| == level: soft and firm vanish by continuity, hard by strictness
    for fn in (lambda x: soft(x, 1.3), lambda x: hard(x, 1.3),
               lambda x: firm(x, 1.3, 1.7)):
        assert fn(1.3) == 0.0
        assert fn(-1.3) == 0.0


def test_odd_symmetry():
    rng = np.random.default_rng(21)
    x = rng.normal(0, 3, size=4000)
    for fam in FAMILIES + [ThresholdFamily("hard")]:
        for level in (0.0, 0.7, 1.5, 4.0):
            got = apply_family(x, level, fam)
            mirrored = apply_family(-x, level, fam)
            np.testing.assert_array_equal(got, -mirrored)


def test_sandwich_between_soft_and_hard():
    rng = np.random.default_rng(22)
    x = rng.normal(0, 3, size=10_000)
    levels = rng.uniform(0, 4, size=10_000)
    for fam in FAMILIES:
        t = np.array([apply_family(np.array([xi]), li, fam)[0]
                      for xi, li in zip(x[:500], levels[:500])])
        s = np.array([soft(xi, li) for xi, li in zip(x[:500], levels[:500])])
        h = np.array([hard(xi, li) for xi, li in zip(x[:500], levels[:500])])
        f = np.array([firm(xi, li, max(fam.firm_slope, 1.01))
                      for xi, li in zip(x[:500], levels[:500])])
        sign = np.sign(x[:500])
        # signed ordering: soft <= t <= firm <= hard componentwise in |.|
        assert np.all(sign * t >= sign * s - 1e-12)
        assert np.all(sign * t <= sign * f + 1e-12)
        assert np.all(sign * t <= sign * h + 1e-12)


def test_slope_lipschitz_in_x():
    rng = np.random.default_rng(23)
    for fam in FAMILIES:
        a = rng.normal(0, 3, size=3000)
        b = a + np.where(rng.random(3000) < 0.5, 1, -1) * rng.uniform(
            1e-3, 2.0, size=3000
        )
        x, y = np.minimum(a, b), np.maximum(a, b)
        for level in (0.5, 1.4, 3.0):
            ratios = (apply_family(y, level, fam) - apply_family(x, level, fam)) / (
                y - x
            )
            assert np.all(ratios >= -1e-9)
            assert np.all(ratios <= fam.slope + 1e-9)


def test_level_lipschitz():
    rng = np.random.default_rng(24)
    x = rng.normal(0, 3, size=500)
    for fam in FAMILIES:
        la = rng.uniform(0, 4, size=200)
        lb = rng.uniform(0, 4, size=200)
        for a, b in zip(la, lb):
            gap = np.max(np.abs(apply_family(x, a, fam) - apply_family(x, b, fam)))
            assert gap <= fam.level_lipschitz * abs(a - b) + 1e-12


def test_family_constants():
    assert ThresholdFamily("soft").slope == 1.0
    assert ThresholdFamily("soft").level_lipschitz == 1.0
    fam = ThresholdFamily("firm", firm_slope=1.5)
    assert fam.slope == 1.5
    assert fam.level_lipschitz == 1.5
    mix = ThresholdFamily("interpolated", firm_slope=1.5, weight=0.5)
    assert mix.slope == 1.25
    assert mix.level_lipschitz == 1.5
    assert not ThresholdFamily("hard").is_smooth
    assert ThresholdFamily("hard").slope == np.inf


def test_interpolated_endpoints_match_soft_and_firm():
    rng = np.random.default_rng(25)
    x = rng.normal(0, 2, size=1000)
    w0 = ThresholdFamily("interpolated", firm_slope=1.5, weight=0.0)
    w1 = ThresholdFamily("interpolated", firm_slope=1.5, weight=1.0)
    for level in (0.0, 0.9, 2.2):
        np.testing.assert_allclose(apply_family(x, level, w0), soft(x, level),
                                   rtol=0, atol=0)
        np.testing.assert_allclose(apply_family(x, level, w1),
                                   firm(x, level, 1.5), rtol=0, atol=0)
    mix = ThresholdFamily("interpolated", firm_slope=1.5, weight=0.5)
    assert apply_family(np.array([2.0]), 1.0, mix)[0] == pytest.approx(1.25)


def test_apply_family_vector_examples():
    got = apply_family(np.array([3.0, -0.5, 0.0]), 1.0, ThresholdFamily("soft"))
    np.testing.assert_array_equal(got, [2.0, 0.0, 0.0])
    got = apply_family(np.array([2.0, 4.0]), 1.0,
                       ThresholdFamily("firm", firm_slope=1.5))
    np.testing.assert_array_equal(got, [1.5, 4.0])


def test_apply_family_per_row_levels():
    # a (B, 1) column of levels thresholds each row of a block at its own
    # level, bit for bit as the one-row call; an infinite level gives +0.0
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 300)) * 3
    x[:, :4] = [-0.0, 0.0, -1.0, 1.0]
    levels = np.array([[0.0], [1.0], [2.5], [np.inf], [1e-300]])
    for fam in FAMILIES + [ThresholdFamily("hard")]:
        got = apply_family(x, levels, fam)
        for row, level, out in zip(x, levels[:, 0], got):
            assert out.tobytes() == apply_family(row, level, fam).tobytes()
    assert not np.signbit(soft(x, levels)[3]).any()
    with pytest.raises(ValueError):
        soft(x, np.array([[1.0], [np.nan], [1.0], [1.0], [1.0]]))
    with pytest.raises(ValueError):
        firm(x, -levels, 1.5)


def _capped_quadratic_objective(x, level, gamma):
    """x -> argmin_m (x-m)^2/2 + pen(m) where pen ramps linearly at slope
    `level` and flattens at gamma*level^2/2 once |m| >= gamma*level."""

    def pen(m):
        a = abs(m)
        if a < gamma * level:
            return level * a - a * a / (2.0 * gamma)
        return gamma * level * level / 2.0

    def obj(m):
        return 0.5 * (x - m) ** 2 + pen(m)

    span = abs(x) + gamma * level + 1.0
    grid = np.linspace(-span, span, 8001)
    a = np.abs(grid)
    pens = np.where(a < gamma * level, level * a - a * a / (2.0 * gamma), gamma * level * level / 2.0)
    i = int(np.argmin(0.5 * (x - grid) ** 2 + pens))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    res = minimize_scalar(obj, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10})
    # the boundary points of the penalty pieces are also candidates
    cands = [float(res.x), 0.0, gamma * level, -gamma * level, x]
    return min(cands, key=obj)


def test_firm_is_capped_quadratic_minimizer():
    # the firm rule solves the penalized problem with gamma = k/(k-1)
    slope = 1.5
    gamma = slope / (slope - 1.0)
    rng = np.random.default_rng(26)
    xs = rng.uniform(-6, 6, size=40)
    levels = rng.uniform(0.1, 3.0, size=25)
    checked = 0
    for level in levels:
        for x in xs:
            if abs(abs(x) - slope * level / (slope - 1.0)) < 1e-3:
                continue  # tie between pieces; argmin not unique
            want = _capped_quadratic_objective(x, level, gamma)
            got = firm(x, level, slope)
            assert got == pytest.approx(want, abs=1e-6)
            checked += 1
    assert checked >= 900


def test_loss_difference_bound():
    # lowering the level from lam to b can raise the squared loss by at most
    # (|eps|+b)^2 and only when the noise exceeds b
    rng = np.random.default_rng(27)
    m = 100_000
    b = rng.uniform(0.0, 2.0, size=m)
    lam = b + rng.uniform(0.0, 3.0, size=m)
    mu = rng.normal(0, 3, size=m)
    eps = rng.normal(0, 1.5, size=m)
    x = mu + eps
    loss_b = (np.sign(x) * np.maximum(np.abs(x) - b, 0.0) - mu) ** 2
    loss_lam = (np.sign(x) * np.maximum(np.abs(x) - lam, 0.0) - mu) ** 2
    cap = (np.abs(eps) + b) ** 2 * (np.abs(eps) > b)
    assert np.all(loss_b - loss_lam <= cap + 1e-9)


def test_plse_example_and_edges():
    fits = plse_local_minima(np.array([5.0, 0.1]), np.array([3.0, 2.0]))
    assert len(fits) == 1
    fit = fits[0]
    assert isinstance(fit, PenalizedFit)
    assert fit.support_size == 1
    assert fit.implied_level == 3.0
    np.testing.assert_array_equal(fit.estimate, [5.0, 0.0])

    # full support when everything clears the largest level
    fits = plse_local_minima(np.array([9.0, -8.0, 7.5]), np.array([3.0, 2.0, 1.0]))
    sizes = [f.support_size for f in fits]
    assert sizes == [3]
    np.testing.assert_array_equal(fits[0].estimate, [9.0, -8.0, 7.5])

    # empty support when nothing clears the smallest level
    fits = plse_local_minima(np.array([0.1, -0.2]), np.array([3.0, 2.0]))
    assert [f.support_size for f in fits] == [0]
    assert fits[0].implied_level == np.inf
    assert not fits[0].estimate.any()

    with pytest.raises(ValueError):
        plse_local_minima(np.array([1.0, 2.0]), np.array([1.0, 2.0]))


def test_plse_fits_are_hard_threshold_fits():
    rng = np.random.default_rng(28)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        x = rng.normal(0, 2, size=n)
        levels = np.sort(rng.uniform(0, 3, size=n))[::-1]
        fits = plse_local_minima(x, levels)
        assert fits  # at least one local minimum always exists
        for fit in fits:
            nz = fit.estimate != 0
            assert nz.sum() == fit.support_size
            np.testing.assert_array_equal(fit.estimate[nz], x[nz])
            # nonzero entries are exactly the support_size largest by magnitude
            if 0 < fit.support_size < n:
                kept = np.abs(x[nz]).min()
                dropped = np.abs(x[~nz]).max()
                assert kept >= dropped


def test_plse_levels_land_in_selector_interval():
    # with the step-up candidate sequence as penalty levels, every local
    # minimum's implied hard level sits between the two data-driven levels
    rng = np.random.default_rng(29)
    config = FdrConfig()
    for _ in range(300):
        n = int(rng.integers(2, 60))
        theta = np.where(rng.random(n) < 0.3, rng.uniform(2, 5, size=n), 0.0)
        x = theta + rng.standard_normal(n)
        trace = select_lambda(x, config)
        levels = candidate_levels(n, config.alpha1)
        for fit in plse_local_minima(x, levels):
            assert trace.xi1_hat <= fit.implied_level + 1e-12
            assert fit.implied_level <= trace.xi2_hat + 1e-12 or (
                np.isinf(fit.implied_level) and np.isinf(trace.xi2_hat)
            )
