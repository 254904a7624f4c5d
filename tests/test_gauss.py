"""Tests for the standard-normal primitives.

Point values are frozen from an extended-precision (mpmath, 40 digit)
oracle; inequalities and identities are checked on grids.
"""

import math
import warnings

import numpy as np
import pytest

from fdrthresh.gauss import (
    critical_tail_level,
    exp_gauss_moment,
    norm_cdf,
    norm_pdf,
    norm_quantile,
)


class TestDensity:
    def test_at_zero(self):
        assert norm_pdf(0.0) == pytest.approx(0.3989422804014327, rel=1e-15)

    def test_oracle_points(self):
        assert norm_pdf(2.0) == pytest.approx(0.05399096651318806, rel=1e-14)
        assert norm_pdf(3.7) == pytest.approx(0.00042478027055075169, rel=1e-14)

    def test_even_symmetry(self):
        x = np.linspace(-8, 8, 401)
        np.testing.assert_allclose(norm_pdf(x), norm_pdf(-x), rtol=0, atol=0)

    def test_bounded_by_peak(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-30, 30, size=5000)
        assert np.all(norm_pdf(x) <= 1.0 / math.sqrt(2 * math.pi) + 1e-300)


class TestCdf:
    def test_oracle_points(self):
        assert norm_cdf(0.0) == 0.5
        assert norm_cdf(-2.0) == pytest.approx(0.022750131948179216, rel=1e-14)
        assert norm_cdf(-5.0) == pytest.approx(2.8665157187919391e-7, rel=1e-13)
        assert norm_cdf(-10.0) == pytest.approx(7.6198530241605261e-24, rel=1e-13)

    def test_far_tail_no_underflow_to_zero(self):
        # erfc-based evaluation keeps relative accuracy far below the
        # double-precision cancellation point of 1 - Phi(x).
        assert norm_cdf(-37.0) == pytest.approx(5.7255712225245768e-300, rel=1e-12)

    def test_infinite_endpoints(self):
        assert norm_cdf(-np.inf) == 0.0
        assert norm_cdf(np.inf) == 1.0

    def test_symmetry_identity(self):
        x = np.linspace(-8, 8, 1601)
        np.testing.assert_allclose(norm_cdf(x) + norm_cdf(-x), 1.0, rtol=0, atol=1e-15)

    def test_monotone(self):
        x = np.linspace(-12, 12, 4001)
        assert np.all(np.diff(norm_cdf(x)) >= 0)

    def test_mills_ratio_bounds(self):
        # phi(t)/(sqrt(pi/2)+t) <= Phi(-t) <= phi(t)/t for t > 0
        t = np.linspace(1e-3, 10.0, 2000)
        tail = norm_cdf(-t)
        dens = norm_pdf(t)
        lower = dens / (math.sqrt(math.pi / 2.0) + t)
        upper = dens / t
        assert np.all(tail >= lower)
        assert np.all(tail <= upper)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            norm_cdf(np.nan)


class TestQuantile:
    def test_oracle_points(self):
        assert norm_quantile(0.5) == 0.0
        assert norm_quantile(0.025) == pytest.approx(-1.9599639845400545, rel=1e-14)
        assert norm_quantile(0.0025) == pytest.approx(-2.8070337683438042, rel=1e-14)

    def test_round_trip(self):
        lower = np.geomspace(1e-12, 0.5, 300)
        p = np.concatenate([lower, 1.0 - lower])
        back = norm_cdf(norm_quantile(p))
        assert np.max(np.abs(back - p)) <= 1e-12

    def test_subnormal_tail(self):
        # below p of about 6e-311 Phi underflows to 0, so a Newton step would move
        # these quantiles by about 1e-3; 40-digit mpmath roots of log Phi(z) = log p
        oracle = {
            1e-320: -38.26912534303265,
            1e-315: -37.96730035106736,
            1e-312: -37.78504989441962,
            2e-311: -37.705738655172226,
            5e-311: -37.681446803061256,
        }
        for p, want in oracle.items():
            assert norm_quantile(p) == pytest.approx(want, rel=1e-14)

    def test_strictly_increasing(self):
        p = np.linspace(1e-6, 1 - 1e-6, 2001)
        assert np.all(np.diff(norm_quantile(p)) > 0)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1, np.nan):
            with pytest.raises(ValueError):
                norm_quantile(bad)
        # every p inside (0, 1), down to the smallest subnormal, maps without a warning
        inside = np.array([5e-324, 1e-300, 0.5, np.nextafter(1.0, 0.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = norm_quantile(inside)
        assert np.all(np.isfinite(z)) and np.all(np.diff(z) > 0)


# mpmath quadrature oracle for the exponential-Gaussian moment integral
_J_ORACLE = {
    (0.5, 0): 0.43818222822684617,
    (0.5, 1): 0.14045444294328846,
    (1.0, 0): 0.65567954241879847,
    (1.0, 1): 0.34432045758120153,
    (1.0, 2): 0.31135908483759694,
    (1.0, 3): 0.37728183032480611,
    (2.0, 0): 0.84273845857610895,
    (2.0, 1): 0.62904616569556421,
    (2.0, 2): 0.85476917152217893,
    (5.0, 0): 0.96404052357657882,
    (5.0, 1): 0.89898691058552939,
    (10.0, 0): 0.99028596471731921,
    (10.0, 1): 0.9714035282680786,
}


class TestExpGaussMoment:
    def test_oracle_values(self):
        for (scale, k), want in _J_ORACLE.items():
            assert exp_gauss_moment(scale, k) == pytest.approx(want, rel=1e-12)

    def test_recursion(self):
        # (k+1) J_k = J_{k+1} + J_{k+2} / scale^2
        for scale in (0.5, 1.0, 2.0, 5.0, 10.0):
            for k in (0, 1):
                lhs = (k + 1) * exp_gauss_moment(scale, k)
                rhs = exp_gauss_moment(scale, k + 1) + exp_gauss_moment(
                    scale, k + 2
                ) / scale**2
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_large_scale_limit_is_factorial(self):
        # the Gaussian factor disappears and the integral tends to k!
        assert exp_gauss_moment(1e6, 0) == pytest.approx(1.0, abs=1e-5)
        for k in (0, 1, 2, 3):
            assert exp_gauss_moment(1e6, k) == pytest.approx(
                math.factorial(k), rel=1e-5
            )
        assert exp_gauss_moment(np.inf, 3) == 6.0

    def test_tail_identity_with_cdf(self):
        # scale * Phi(-scale) = phi(scale) * J_0(scale)
        for scale in (0.5, 1.0, 2.0, 4.0, 8.0):
            lhs = scale * norm_cdf(-scale)
            rhs = norm_pdf(scale) * exp_gauss_moment(scale, 0)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            exp_gauss_moment(0.0, 0)
        with pytest.raises(ValueError):
            exp_gauss_moment(-1.0, 1)
        with pytest.raises(ValueError):
            exp_gauss_moment(1.0, 4)


class TestCriticalTailLevel:
    def test_oracle_roots(self):
        assert critical_tail_level(2) == pytest.approx(1.0683700301919481, rel=1e-12)
        assert critical_tail_level(7) ** 2 == pytest.approx(
            2.0839557522719559, rel=1e-12
        )
        assert critical_tail_level(10**6) == pytest.approx(
            4.4220423364375502, rel=1e-12
        )

    def test_defining_equation(self):
        for n in (2, 3, 10, 100, 12345, 10**6):
            z = critical_tail_level(n)
            assert norm_cdf(-z) / z**2 == pytest.approx(1.0 / (4 * n), rel=1e-12)

    def test_exceeds_log_n(self):
        ns = list(range(2, 1001)) + [10**4, 10**6]
        for n in ns:
            assert critical_tail_level(n) ** 2 > math.log(n)

    def test_lower_bound_for_n_at_least_7(self):
        for n in (7, 8, 20, 100, 10**4):
            z2 = critical_tail_level(n) ** 2
            base = 2.0 * math.log(4.0 * n / math.sqrt(2 * math.pi))
            assert z2 > base - 3.0 * math.log(base)

    def test_monotone_in_n(self):
        zs = [critical_tail_level(n) for n in (2, 4, 8, 64, 512, 4096)]
        assert all(a < b for a, b in zip(zs, zs[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            critical_tail_level(1)
        with pytest.raises(ValueError, match="integer"):
            critical_tail_level(2.5)
