"""Each input rule has one owner; every public function that applies it
raises the same exception type with the same message."""

import math

import numpy as np
import pytest

from fdrthresh.gauss import norm_cdf
from fdrthresh.risk import EmpiricalPrior, clipped_second_moment, soft_risk, surrogate_risk
from fdrthresh.selector import FdrConfig, select_lambda, step_down_level, step_up_level
from fdrthresh.simulate import (
    common_mean_experiment,
    concentration_check,
    least_favorable,
    mc_mean,
    minimax_ball_experiment,
    minimax_benchmark,
    minimax_level,
    oracle_loss_min,
    regret_experiment,
    spikes,
)
from fdrthresh.thresholds import ThresholdFamily

SOFT = ThresholdFamily("soft")
PRIOR = EmpiricalPrior.from_atoms([0.0, 2.0])
X = np.array([0.5, -3.0, 1.0])
LEVEL = "level must be >= 0"
BALL = "need p >= 0 and 0 < radius < inf"
L0_RADIUS = "an l_0 radius is a fraction: need radius <= 1 for p = 0"
BENCHMARK = "benchmark must be a finite normal float: radius is out of range for n"
ENERGY = "n * max|theta|^2 must be finite"
SEED = "seed must be >= 0 and < 2**128"
HARD = ThresholdFamily("hard")
NONEMPTY = "x must be a nonempty 1-d vector"
FINITE = "x must be finite"
ORACLE = "4 n max(|x|, |theta|)^2 must be finite"

CASES = {
    # the level domain [0, inf]; a scalar-only level rejects an array by type
    "concentration-negative": (lambda: concentration_check(X, -1.0, SOFT, 4, 1), ValueError, LEVEL),
    "concentration-nan": (lambda: concentration_check(X, math.nan, SOFT, 4, 1), ValueError, LEVEL),
    "concentration-array": (lambda: concentration_check(X, np.ones(2), SOFT, 4, 1), TypeError, None),
    "soft-risk-negative": (lambda: soft_risk(0.0, -1.0), ValueError, LEVEL),
    "soft-risk-nan-in-array": (lambda: soft_risk(0.0, [1.0, math.nan]), ValueError, LEVEL),
    "clipped-negative-in-array": (lambda: clipped_second_moment(PRIOR, [1.0, -1.0]), ValueError, LEVEL),
    "clipped-nan": (lambda: clipped_second_moment(PRIOR, math.nan), ValueError, LEVEL),
    # observation vectors
    "select-empty": (lambda: select_lambda([], FdrConfig()), ValueError, NONEMPTY),
    "select-2d": (lambda: select_lambda(np.ones((2, 2)), FdrConfig()), ValueError, NONEMPTY),
    "step-up-inf": (lambda: step_up_level([1.0, math.inf], 0.05), ValueError, FINITE),
    "step-down-nan": (lambda: step_down_level([1.0, math.nan], 0.05), ValueError, FINITE),
    # NaN arguments of the Gaussian primitives
    "norm-cdf-nan": (lambda: norm_cdf([0.0, math.nan]), ValueError, "x must not contain NaN"),
    "soft-risk-mu-nan": (lambda: soft_risk([math.nan], 1.0), ValueError, "mu must not contain NaN"),
    # least-favorable signals: the ball
    "least-favorable-nan-radius": (
        lambda: least_favorable(20, 1.0, math.nan, weak=True), ValueError, BALL
    ),
    "least-favorable-nan-p": (lambda: least_favorable(20, math.nan, 0.1), ValueError, BALL),
    "least-favorable-inf-radius": (lambda: least_favorable(20, 1.0, math.inf), ValueError, BALL),
    "least-favorable-weak-p0": (
        lambda: least_favorable(20, 0.0, 0.1, weak=True),
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
    # for p = 0 the radius is the fraction of nonzero coordinates
    "minimax-level-l0-radius-2": (lambda: minimax_level(100, 0.0, 2.0), ValueError, L0_RADIUS),
    "benchmark-l0-radius-2": (lambda: minimax_benchmark(100, 0.0, 2.0), ValueError, L0_RADIUS),
    "least-favorable-l0-radius-2": (lambda: least_favorable(100, 0.0, 2.0), ValueError, L0_RADIUS),
    "ball-experiment-l0-radius-2": (
        lambda: minimax_ball_experiment(100, 0.0, 2.0, 4, 1), ValueError, L0_RADIUS
    ),
    # spike signals
    "spikes-negative-count": (lambda: spikes(0, -1, 1.0), ValueError, "count must be >= 0"),
    "spikes-n0": (lambda: spikes(0, 0, 1.0), ValueError, "n must be >= 1"),
    "common-mean-n0": (lambda: common_mean_experiment(0, 0.0, 4, 1), ValueError, "n must be >= 1"),
    # a signal size is an integer, as the replicate count and the seed are: never truncated
    "common-mean-fractional-n": (
        lambda: common_mean_experiment(10.7, 0.1, 4, 1), ValueError, "n must be an integer, not 10.7"
    ),
    "ball-experiment-fractional-n": (
        lambda: minimax_ball_experiment(50.9, 0.0, 0.1, 4, 1),
        ValueError,
        "n must be an integer, not 50.9",
    ),
    "prior-fractional-n": (
        lambda: EmpiricalPrior.from_atoms([0, 3], n=2.9), ValueError, "n must be an integer, not 2.9"
    ),
    "minimax-level-fractional-n": (
        lambda: minimax_level(50.9, 1.0, 0.1), ValueError, "n must be an integer, not 50.9"
    ),
    "benchmark-fractional-n": (
        lambda: minimax_benchmark(50.9, 1.0, 0.1), ValueError, "n must be an integer, not 50.9"
    ),
    "spikes-fractional-n": (
        lambda: spikes(10.5, 2, 1.0), ValueError, "n must be an integer, not 10.5"
    ),
    "spikes-fractional-count": (
        lambda: spikes(10, 2.5, 1.0), ValueError, "count must be an integer, not 2.5"
    ),
    "least-favorable-fractional-n": (
        lambda: least_favorable(10.5, 1.0, 0.1), ValueError, "n must be an integer, not 10.5"
    ),
    # n * max|theta|^2 overflows: the mean square and every risk total are infinite
    "prior-atoms-energy": (lambda: EmpiricalPrior.from_atoms([1e200]), ValueError, ENERGY),
    "prior-n-energy": (lambda: EmpiricalPrior.from_atoms([1e150], n=10**10), ValueError, ENERGY),
    "prior-direct-energy": (
        lambda: EmpiricalPrior(np.array([1e200]), np.array([1.0]), 1), ValueError, ENERGY
    ),
    "prior-vector-energy": (lambda: EmpiricalPrior.from_vector([1e200, 0.0]), ValueError, ENERGY),
    "prior-nan-atom": (lambda: EmpiricalPrior.from_atoms([0.0, math.nan]), ValueError, ENERGY),
    "prior-inf-theta": (lambda: EmpiricalPrior.from_vector([math.inf, 0.0]), ValueError, ENERGY),
    "prior-minus-inf-theta": (
        lambda: EmpiricalPrior.from_vector([0.0, -math.inf, 1.0]), ValueError, ENERGY
    ),
    "prior-nan-theta": (lambda: EmpiricalPrior.from_vector([0.0, math.nan, 1.0]), ValueError, ENERGY),
    "prior-negative-n": (
        lambda: EmpiricalPrior.from_atoms([0.0, 3.0], n=-5), ValueError, "n must be >= 1"
    ),
    "regret-energy": (lambda: regret_experiment([1e200, 0.0], 4, 1), ValueError, ENERGY),
    "common-mean-energy": (lambda: common_mean_experiment(20, 1e200, 4, 1), ValueError, ENERGY),
    "concentration-energy": (
        lambda: concentration_check([1e200, 0.0], 1.0, SOFT, 4, 1), ValueError, ENERGY
    ),
    # a segment loss of the pathwise oracle can overflow: it returned a NaN or
    # -inf loss for these finite inputs
    "oracle-huge-x": (
        lambda: oracle_loss_min(np.array([1e200, 0.5]), np.zeros(2)), ValueError, ORACLE
    ),
    "oracle-square-overflow": (
        lambda: oracle_loss_min(np.array([1.2e154]), np.zeros(1)), ValueError, ORACLE
    ),
    "oracle-error-overflow": (
        lambda: oracle_loss_min(np.array([9e153]), np.array([-9e153])), ValueError, ORACLE
    ),
    # the Monte Carlo engine: replicates and the Philox key
    "mc-one-replicate": (lambda: mc_mean(X, np.sum, 1, 1), ValueError, "replicates must be >= 2"),
    "mc-negative-seed": (lambda: mc_mean(X, np.sum, 4, -1), ValueError, SEED),
    "mc-seed-2-128": (lambda: mc_mean(X, np.sum, 4, 2**128), ValueError, SEED),
    # a statistic of one vector, not of a block of rows
    "mc-per-vector-statistic": (
        lambda: mc_mean(X, np.sum, 4, 1),
        ValueError,
        "statistic returned shape () for a block of 4 rows: need (4,) or (4, S)",
    ),
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
}


@pytest.mark.parametrize("call,exc,message", CASES.values(), ids=CASES.keys())
def test_rule_raises_its_message(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    if message is not None:
        assert str(info.value) == message
