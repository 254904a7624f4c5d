"""Tests for the data-driven threshold-level selector."""

import json
import math

import numpy as np
import pytest

from fdrthresh.gauss import norm_cdf, norm_quantile
from fdrthresh.selector import (
    FdrConfig,
    G1Transform,
    SelectorTrace,
    candidate_levels,
    exceed_count,
    select_lambda,
    step_down_level,
    step_up_level,
)

X4 = np.array([3.0, 1.7, 1.5, 0.2])


def test_candidate_levels_fixture():
    got = candidate_levels(4, 0.2)
    np.testing.assert_allclose(
        got,
        [1.9599639845400545, 1.6448536269514722, 1.4395314709384563,
         1.2815515655446004],
        rtol=1e-12,
    )


def test_candidate_levels_properties():
    for n, alpha in ((5, 0.05), (50, 0.2), (200, 0.9), (1, 0.999)):
        xi = candidate_levels(n, alpha)
        assert xi.shape == (n,)
        assert np.all(xi >= 0)
        pos = xi[xi > 0]
        assert np.all(np.diff(pos) < 0)  # strictly decreasing while positive
        # each candidate is the two-sided tail quantile
        for k in (1, n):
            assert xi[k - 1] == pytest.approx(
                -norm_quantile(alpha * k / (2 * n)), rel=1e-12
            )


def test_candidate_levels_spacing_bound():
    # successive gaps obey (xi_k - xi_{k+1}) <= 1/(k xi_k)
    for n, alpha in ((20, 0.05), (100, 0.2), (1000, 0.5)):
        xi = candidate_levels(n, alpha)
        for k in range(n - 1):
            if xi[k] > 0 and xi[k + 1] > 0:
                assert xi[k] - xi[k + 1] <= 1.0 / ((k + 1) * xi[k]) + 1e-12


def test_candidate_levels_domain():
    with pytest.raises(ValueError):
        candidate_levels(4, 0.0)
    with pytest.raises(ValueError):
        candidate_levels(4, 1.0)
    with pytest.raises(ValueError):
        candidate_levels(0, 0.1)


def test_exceed_count():
    assert exceed_count(np.array([3.0, -1.7, 1.5, 0.2]), 1.6) == 2
    assert exceed_count(X4, 0.0) == 4
    assert exceed_count(X4, 10.0) == 0
    assert exceed_count(X4, np.inf) == 0
    # ties count: the indicator is inclusive
    assert exceed_count(np.array([2.0, -2.0, 1.0]), 2.0) == 2


def test_step_up_fixture():
    assert step_up_level(X4, 0.2) == pytest.approx(1.4395314709384563, rel=1e-12)


def test_step_down_fixture():
    assert step_down_level(X4, 0.1) == pytest.approx(2.2414027276049456, rel=1e-12)


def test_no_rejection_gives_infinity():
    zeros = np.zeros(6)
    assert step_up_level(zeros, 0.2) == np.inf
    assert step_down_level(zeros, 0.1) == np.inf


def test_everything_huge_hits_last_candidate():
    x = np.full(5, 50.0)
    assert step_up_level(x, 0.2) == pytest.approx(
        candidate_levels(5, 0.2)[-1], rel=1e-12
    )
    assert step_down_level(x, 0.1) == pytest.approx(
        candidate_levels(5, 0.1)[-1], rel=1e-12
    )


def test_step_up_finite_while_step_down_infinite():
    # the two rules can disagree about making any rejection at all
    x = np.array([1.7, 1.5, 1.45, 0.2])
    up = step_up_level(x, 0.2)
    down = step_down_level(x, 0.1)
    assert math.isfinite(up)
    assert down == np.inf
    assert up <= down


def _brute_step_up(x, alpha):
    n = x.size
    mags = np.abs(x)
    xi = candidate_levels(n, alpha)
    hits = [xi[k] for k in range(n) if np.sum(mags >= xi[k]) >= k + 1]
    return min(hits) if hits else np.inf


def _brute_step_down(x, alpha):
    n = x.size
    mags = np.abs(x)
    xi = candidate_levels(n, alpha)
    if np.sum(mags >= xi[0]) < 1:
        return np.inf
    nxt = np.append(xi[1:], 0.0)
    hits = [xi[k] for k in range(n) if np.sum(mags >= nxt[k]) < k + 2]
    return max(hits) if hits else np.inf


def test_brute_force_equivalence():
    rng = np.random.default_rng(51)
    config = FdrConfig(alpha1=0.1, alpha2=0.05, alpha1p=0.2, alpha2p=0.02)
    for _ in range(2000):
        n = int(rng.integers(1, 51))
        theta = np.where(rng.random(n) < 0.25, rng.uniform(1, 4, size=n), 0.0)
        x = theta + rng.standard_normal(n)
        up = step_up_level(x, config.alpha1)
        down = step_down_level(x, config.alpha2)
        assert up == _brute_step_up(x, config.alpha1)
        assert down == _brute_step_down(x, config.alpha2)
        assert up <= down


def test_ordering_across_alpha_pairs():
    rng = np.random.default_rng(52)
    pairs = [(0.05, 0.05), (0.2, 0.1), (0.5, 0.5), (0.9, 0.2)]
    for _ in range(500):
        n = int(rng.integers(1, 200))
        x = rng.standard_normal(n) * rng.uniform(0.5, 3)
        for a1, a2 in pairs:
            assert step_up_level(x, a1) <= step_down_level(x, a2)


def test_bh_p_value_equivalence():
    rng = np.random.default_rng(53)
    for _ in range(400):
        n = int(rng.integers(1, 40))
        x = rng.standard_normal(n) * 2.0
        alpha = 0.2
        up = step_up_level(x, alpha)
        p_sorted = np.sort(2.0 * norm_cdf(-np.abs(x)))
        ks = np.nonzero(p_sorted <= alpha * np.arange(1, n + 1) / n)[0]
        if ks.size == 0:
            assert up == np.inf
        else:
            khat = ks.max() + 1
            assert math.isfinite(up)
            assert exceed_count(x, candidate_levels(n, alpha)[khat - 1]) >= khat
            assert up == pytest.approx(
                candidate_levels(n, alpha)[khat - 1], rel=1e-12
            )


def test_permutation_invariance():
    rng = np.random.default_rng(54)
    x = rng.standard_normal(30) * 2
    for _ in range(10):
        shuffled = rng.permutation(x)
        assert step_up_level(shuffled, 0.1) == step_up_level(x, 0.1)
        assert step_down_level(shuffled, 0.05) == step_down_level(x, 0.05)
    # sign flips do not matter either
    assert step_up_level(-x, 0.1) == step_up_level(x, 0.1)


class TestG1Transform:
    def test_identity(self):
        g = G1Transform.identity()
        assert g(2.5) == 2.5
        assert g(0.0) == 0.0
        assert g.is_identity

    def test_identity_certificate_inputs(self):
        # the identity passes with the canonical certificate constants
        g = G1Transform()
        assert g.c1 == 2.0 and g.c2 == 0.0 and g.m0 == 4.0

    def test_near_identity_needs_larger_cap(self):
        # shrinking the level makes the null risk larger, and the
        # tightest cap (m0 = 4 with c1 = 2) has no slack to give away
        with pytest.raises(ValueError):
            G1Transform(lambda v: 0.999 * v)
        g = G1Transform(lambda v: 0.999 * v, m0=8.0)
        assert g(2.0) == pytest.approx(1.998)

    def test_halving_rejected(self):
        with pytest.raises(ValueError):
            G1Transform(lambda v: 0.5 * v, m0=8.0)

    def test_zero_map_rejected(self):
        with pytest.raises(ValueError):
            G1Transform(lambda v: 0.0 * v)

    def test_above_identity_rejected(self):
        with pytest.raises(ValueError):
            G1Transform(lambda v: 1.1 * v)

    def test_decreasing_rejected(self):
        with pytest.raises(ValueError):
            G1Transform(lambda v: np.maximum(2.0 - v, 0.0), m0=8.0)

    def test_infinite_input_passthrough(self):
        g = G1Transform.identity()
        assert g(np.inf) == np.inf


class TestSelectLambda:
    CONFIG = FdrConfig(alpha1=0.2, alpha2=0.1, alpha1p=0.4, alpha2p=0.05)

    def test_four_point_lower_endpoint(self):
        trace = select_lambda(X4, self.CONFIG)
        assert isinstance(trace, SelectorTrace)
        assert trace.xi1_hat == pytest.approx(1.4395314709384563, rel=1e-12)
        assert trace.xi2_hat == pytest.approx(2.2414027276049456, rel=1e-12)
        assert trace.lambda_hat == trace.lower == trace.xi1_hat
        assert trace.exceed_counts.shape == (4,)

    def test_four_point_upper_endpoint(self):
        config = FdrConfig(alpha1=0.2, alpha2=0.1, alpha1p=0.4, alpha2p=0.05,
                           interp=1.0)
        trace = select_lambda(X4, config)
        assert trace.lambda_hat == pytest.approx(2.2414027276049456, rel=1e-12)

    def test_midpoint(self):
        config = FdrConfig(alpha1=0.2, alpha2=0.1, alpha1p=0.4, alpha2p=0.05,
                           interp=0.5)
        trace = select_lambda(X4, config)
        assert trace.lambda_hat == pytest.approx(
            0.5 * (trace.lower + trace.upper), rel=1e-12
        )

    def test_inflation_factors(self):
        config = FdrConfig(alpha1=0.2, alpha2=0.1, alpha1p=0.4, alpha2p=0.05,
                           delta1=0.21, delta2=0.44)
        trace = select_lambda(X4, config)
        assert trace.lower == pytest.approx(math.sqrt(1.21) * trace.xi1_hat)
        assert trace.upper == pytest.approx(math.sqrt(1.44) * trace.xi2_hat)

    def test_no_exceedances(self):
        trace = select_lambda(np.zeros(5), self.CONFIG)
        assert trace.xi1_hat == np.inf
        assert trace.xi2_hat == np.inf
        assert trace.lambda_hat == np.inf

    def test_endpoints_ordered_on_random_instances(self):
        rng = np.random.default_rng(55)
        for _ in range(500):
            n = int(rng.integers(1, 100))
            x = rng.standard_normal(n) * rng.uniform(0.5, 4)
            d1 = rng.uniform(0, 0.5)
            config = FdrConfig(alpha1=0.2, alpha2=0.1, alpha1p=0.4,
                               alpha2p=0.05, delta1=d1,
                               delta2=d1 + rng.uniform(0, 0.5),
                               interp=rng.random())
            trace = select_lambda(x, config)
            assert trace.lower <= trace.upper
            if math.isfinite(trace.lambda_hat):
                assert trace.lower <= trace.lambda_hat <= trace.upper

    def test_trace_serialization(self):
        trace = select_lambda(X4, self.CONFIG)
        payload = json.loads(trace.to_json())
        assert payload == {
            "xi1_hat": trace.xi1_hat,
            "xi2_hat": trace.xi2_hat,
            "lower": trace.lower,
            "upper": trace.upper,
            "lambda_hat": trace.lambda_hat,
            "k_hat": 3,
        }


def test_config_validation():
    with pytest.raises(ValueError):
        FdrConfig(alpha1=0.05, alpha2=0.1)  # alpha2 > alpha1
    with pytest.raises(ValueError):
        FdrConfig(alpha1=0.05, alpha1p=0.05)  # needs alpha1 < alpha1p
    with pytest.raises(ValueError):
        FdrConfig(alpha2p=0.05, alpha2=0.05)  # needs alpha2p < alpha2
    with pytest.raises(ValueError):
        FdrConfig(alpha1p=1.0)
    with pytest.raises(ValueError):
        FdrConfig(delta1=0.3, delta2=0.1)
    with pytest.raises(ValueError):
        FdrConfig(delta1=-0.1)
    with pytest.raises(ValueError):
        FdrConfig(interp=1.2)


def test_step_up_tail_bound_small_mc():
    # null data: the chance the step-up level dips to the k-th candidate
    # decays like exp(-nu k); light version of the acceptance-suite run
    n, reps = 100, 20_000
    alpha1, alpha1p = 0.05, 0.1
    r = alpha1 / alpha1p
    nu = r - 1.0 - math.log(r)
    rng = np.random.default_rng(56)
    xi = candidate_levels(n, alpha1)
    mags = np.abs(rng.standard_normal((reps, n)))
    mags.sort(axis=1)
    # step-up level <= xi_k  iff  some j >= k has N(xi_j) >= j
    hit_any = np.zeros(reps, dtype=bool)
    for k in range(n, 0, -1):
        counts = np.sum(mags >= xi[k - 1], axis=1)
        hit_any |= counts >= k
        if k <= 10:
            freq = hit_any.mean()
            bound = math.exp(-nu * k)
            se = math.sqrt(max(freq * (1 - freq), 1.0 / reps) / reps)
            assert freq <= bound + 3 * se


def test_step_down_tail_bound_dense_signal_mc():
    # with a strong common signal the step-down level concentrates low;
    # the chance it stays above the k-th candidate decays like exp(-nu k)
    n, reps = 100, 10_000
    alpha2, alpha2p = 0.05, 0.025
    r = alpha2 / alpha2p
    nu = r - 1.0 - math.log(r)
    rng = np.random.default_rng(57)
    xi = candidate_levels(n, alpha2)
    down = np.empty(reps)
    for i in range(reps):
        x = 3.0 + rng.standard_normal(n)
        down[i] = step_down_level(x, alpha2)
    for k in range(1, 11):
        freq = np.mean(down >= xi[k - 1])
        bound = math.exp(-nu * k)
        se = math.sqrt(max(freq * (1 - freq), 1.0 / reps) / reps)
        assert freq <= bound + 3 * se
