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
    surrogate_risk,
)
from fdrthresh.selector import FdrConfig, G1Transform, select_lambda, step_down_level, step_up_level
from fdrthresh.simulate import (
    SignalGenerator,
    common_mean_experiment,
    concentration_check,
    mc_mean,
    minimax_ball_experiment,
    minimax_benchmark,
    minimax_level,
    regret_experiment,
)
from fdrthresh.thresholds import ThresholdFamily, plse_local_minima

SOFT = ThresholdFamily("soft")
PRIOR = EmpiricalPrior.from_atoms([0.0, 2.0])
X = np.array([0.5, -3.0, 1.0])
LEVEL = "level must be >= 0"
BALL = "need p >= 0 and 0 < radius < inf"
BENCHMARK = "benchmark must be a finite normal float: radius is out of range for n"
ENERGY = "n * max|theta|^2 must be finite"
SEED = "seed must be >= 0 and < 2**128"
HARD = ThresholdFamily("hard")
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
        lambda: SignalGenerator.least_favorable(1.0, math.nan, weak=True), ValueError, BALL
    ),
    "least-favorable-nan-p": (
        lambda: SignalGenerator.least_favorable(math.nan, 0.1), ValueError, BALL
    ),
    "least-favorable-inf-radius": (
        lambda: SignalGenerator.least_favorable(1.0, math.inf), ValueError, BALL
    ),
    "least-favorable-weak-p0": (
        lambda: SignalGenerator.least_favorable(0.0, 0.1, weak=True),
        ValueError,
        "weak balls require p > 0",
    ),
    "minimax-level-nan-radius": (lambda: minimax_level(100, 1.0, math.nan), ValueError, BALL),
    "minimax-level-inf-radius": (lambda: minimax_level(100, 1.0, math.inf), ValueError, BALL),
    "minimax-level-zero-radius": (lambda: minimax_level(100, 0.0, 0.0), ValueError, BALL),
    "minimax-level-n0": (lambda: minimax_level(0, 0.0, 0.1), ValueError, "n must be >= 1"),
    "benchmark-nan-radius": (lambda: minimax_benchmark(100, 1.0, math.nan), ValueError, BALL),
    "benchmark-p2": (
        lambda: minimax_benchmark(100, 2.0, 0.1), ValueError, "benchmark requires 0 <= p < 2"
    ),
    "benchmark-weak-p0": (
        lambda: minimax_benchmark(100, 0.0, 0.1, weak=True), ValueError, "weak balls require p > 0"
    ),
    # a benchmark past the float range: the radius^p' factor underflows or overflows
    "benchmark-subnormal": (lambda: minimax_benchmark(10, 1.0, 1e-320), ValueError, BENCHMARK),
    "benchmark-underflow": (lambda: minimax_benchmark(10, 1.5, 1e-300), ValueError, BENCHMARK),
    "benchmark-overflow": (lambda: minimax_benchmark(10, 1.5, 1e300), ValueError, BENCHMARK),
    "ball-experiment-inf-radius": (
        lambda: minimax_ball_experiment(20, 1.0, math.inf, 4, 1), ValueError, BALL
    ),
    # spike signals
    "spikes-negative-count": (
        lambda: SignalGenerator.spikes(-1, 1.0), ValueError, "count must be >= 0"
    ),
    "spikes-n0": (lambda: SignalGenerator.spikes(0, 1.0).realize(0), ValueError, "n must be >= 1"),
    "common-mean-n0": (lambda: common_mean_experiment(0, 0.0, 4, 1), ValueError, "n must be >= 1"),
    # n * max|theta|^2 overflows: the mean square and every risk total are infinite
    "prior-atoms-energy": (lambda: EmpiricalPrior.from_atoms([1e200]), ValueError, ENERGY),
    "prior-n-energy": (lambda: EmpiricalPrior.from_atoms([1e150], n=10**10), ValueError, ENERGY),
    "prior-direct-energy": (
        lambda: EmpiricalPrior(np.array([1e200]), np.array([1.0]), 1), ValueError, ENERGY
    ),
    "prior-vector-energy": (lambda: EmpiricalPrior.from_vector([1e200, 0.0]), ValueError, ENERGY),
    "prior-nan-atom": (lambda: EmpiricalPrior.from_atoms([0.0, math.nan]), ValueError, ENERGY),
    "prior-inf-theta": (lambda: EmpiricalPrior.from_vector([math.inf, 0.0]), ValueError, ENERGY),
    "prior-negative-n": (
        lambda: EmpiricalPrior.from_atoms([0.0, 3.0], n=-5), ValueError, "n must be >= 1"
    ),
    "regret-energy": (lambda: regret_experiment([1e200, 0.0], 4, 1), ValueError, ENERGY),
    "common-mean-energy": (lambda: common_mean_experiment(20, 1e200, 4, 1), ValueError, ENERGY),
    "concentration-energy": (
        lambda: concentration_check([1e200, 0.0], 1.0, SOFT, 4, 1), ValueError, ENERGY
    ),
    # the Monte Carlo engine: replicates and the Philox key
    "mc-one-replicate": (lambda: mc_mean(X, np.sum, 1, 1), ValueError, "replicates must be >= 2"),
    "mc-negative-seed": (lambda: mc_mean(X, np.sum, 4, -1), ValueError, SEED),
    "mc-seed-2-128": (lambda: mc_mean(X, np.sum, 4, 2**128), ValueError, SEED),
    "concentration-seed": (lambda: concentration_check(X, 1.0, SOFT, 4, -1), ValueError, SEED),
    # family and surrogate arguments of the experiments and curves
    "concentration-hard": (
        lambda: concentration_check(X, 1.0, HARD, 4, 1),
        ValueError,
        "concentration bound requires a smooth family",
    ),
    "common-mean-firm-slope": (
        lambda: common_mean_experiment(20, 0.0, 4, 1, firm_slope=2.5),
        ValueError,
        "firm_slope must lie in (1, 2)",
    ),
    "surrogate-b0-nan": (
        lambda: surrogate_risk(PRIOR, 1.0, math.nan), ValueError, "b0 must be >= 4"
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
