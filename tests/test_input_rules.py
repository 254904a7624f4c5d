"""Each input rule has one owner; every public function that applies it
raises the same exception type with the same message."""

import math

import numpy as np
import pytest

from fdrthresh.estimators import fixed_threshold_estimate, sample_mean_estimate
from fdrthresh.gauss import norm_cdf, truncated_moments
from fdrthresh.risk import (
    EmpiricalPrior,
    clipped_second_moment,
    diagnostic_constants,
    smooth_risk_bound,
    soft_risk,
)
from fdrthresh.selector import FdrConfig, G1Transform, select_lambda, step_down_level, step_up_level
from fdrthresh.simulate import SignalGenerator, concentration_check
from fdrthresh.thresholds import ThresholdFamily, plse_local_minima

SOFT = ThresholdFamily("soft")
PRIOR = EmpiricalPrior.from_atoms([0.0, 2.0])
X = np.array([0.5, -3.0, 1.0])
LEVEL = "level must be >= 0"
NONEMPTY = "x must be a nonempty 1-d vector"
FINITE = "x must be finite"
DIAGNOSTIC = dict(
    n=100, delta1=0.0, delta2=0.0, c1=2.0, c2=0.0, eta_star=0.01,
    alpha1=0.05, alpha1p=0.1, alpha2=0.05, alpha2p=0.025,
)

CASES = {
    # the level domain [0, inf]; a scalar-only level rejects an array by type
    "fixed-estimate-negative": (lambda: fixed_threshold_estimate(X, SOFT, -1.0), ValueError, LEVEL),
    "fixed-estimate-nan": (lambda: fixed_threshold_estimate(X, SOFT, math.nan), ValueError, LEVEL),
    "fixed-estimate-array": (lambda: fixed_threshold_estimate(X, SOFT, np.ones(2)), TypeError, None),
    "concentration-negative": (lambda: concentration_check(X, -1.0, SOFT, 4, 1), ValueError, LEVEL),
    "concentration-nan": (lambda: concentration_check(X, math.nan, SOFT, 4, 1), ValueError, LEVEL),
    "concentration-array": (lambda: concentration_check(X, np.ones(2), SOFT, 4, 1), TypeError, None),
    "risk-bound-negative": (lambda: smooth_risk_bound(PRIOR, -1.0, 1.0), ValueError, LEVEL),
    "risk-bound-nan": (lambda: smooth_risk_bound(PRIOR, math.nan, 1.0), ValueError, LEVEL),
    "risk-bound-array": (lambda: smooth_risk_bound(PRIOR, np.ones(2), 1.0), TypeError, None),
    "soft-risk-negative": (lambda: soft_risk(0.0, -1.0), ValueError, LEVEL),
    "soft-risk-nan-in-array": (lambda: soft_risk(0.0, [1.0, math.nan]), ValueError, LEVEL),
    "clipped-negative-in-array": (lambda: clipped_second_moment(PRIOR, [1.0, -1.0]), ValueError, LEVEL),
    "clipped-nan": (lambda: clipped_second_moment(PRIOR, math.nan), ValueError, LEVEL),
    # observation vectors
    "select-empty": (lambda: select_lambda([], FdrConfig()), ValueError, NONEMPTY),
    "select-2d": (lambda: select_lambda(np.ones((2, 2)), FdrConfig()), ValueError, NONEMPTY),
    "step-up-inf": (lambda: step_up_level([1.0, math.inf], 0.05), ValueError, FINITE),
    "step-down-nan": (lambda: step_down_level([1.0, math.nan], 0.05), ValueError, FINITE),
    "plse-empty": (lambda: plse_local_minima([], []), ValueError, NONEMPTY),
    "plse-nan": (lambda: plse_local_minima([math.nan], [1.0]), ValueError, FINITE),
    "sample-mean-2d": (lambda: sample_mean_estimate(np.ones((2, 2))), ValueError, NONEMPTY),
    "sample-mean-inf": (lambda: sample_mean_estimate([math.inf]), ValueError, FINITE),
    # NaN arguments of the Gaussian primitives
    "norm-cdf-nan": (lambda: norm_cdf([0.0, math.nan]), ValueError, "x must not contain NaN"),
    "truncated-nan": (lambda: truncated_moments(math.nan), ValueError, "a must not contain NaN"),
    "soft-risk-mu-nan": (lambda: soft_risk([math.nan], 1.0), ValueError, "mu must not contain NaN"),
    # the level transform's decay certificate
    "g1-c1": (lambda: G1Transform(c1=2.5), ValueError, "c1 must lie in (0, 2]"),
    "g1-c2": (lambda: G1Transform(c1=1.0, c2=5.0), ValueError, "|c2| must not exceed m0"),
    "g1-c2-at-c1-2": (lambda: G1Transform(c2=0.5), ValueError, "c2 must be <= 0 when c1 = 2"),
    "diagnostic-c1": (
        lambda: diagnostic_constants(**{**DIAGNOSTIC, "c1": 0.0}), ValueError, "c1 must lie in (0, 2]"
    ),
    "diagnostic-c2": (
        lambda: diagnostic_constants(**{**DIAGNOSTIC, "c1": 1.0, "c2": -5.0}),
        ValueError,
        "|c2| must not exceed m0",
    ),
    "diagnostic-c2-at-c1-2": (
        lambda: diagnostic_constants(**{**DIAGNOSTIC, "c2": 0.5}),
        ValueError,
        "c2 must be <= 0 when c1 = 2",
    ),
    # least-favorable signals: the ball and the spike level
    "least-favorable-nan-radius": (
        lambda: SignalGenerator.least_favorable(1.0, math.nan, weak=True),
        ValueError,
        "need p >= 0 and radius > 0",
    ),
    "least-favorable-nan-p": (
        lambda: SignalGenerator.least_favorable(math.nan, 0.1),
        ValueError,
        "need p >= 0 and radius > 0",
    ),
    "least-favorable-zero-level": (
        lambda: SignalGenerator.least_favorable(1.0, 0.1, level=0.0),
        ValueError,
        "level must lie in (0, inf)",
    ),
}


@pytest.mark.parametrize("call,exc,message", CASES.values(), ids=CASES.keys())
def test_rule_raises_its_message(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    if message is not None:
        assert str(info.value) == message
