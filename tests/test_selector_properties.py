"""Property tests: the single-sort selector against brute-force references,
and the algebra of the estimator built on it.

The strategies put magnitudes exactly on candidate levels and one ulp to
either side of them, repeat values, and mix in zeros and magnitudes of 40
and more, whose Gaussian tail underflows to 0.  Examples are derandomized
so every run checks the same cases.  The brute-force and trace tests run a
second time with the top-K candidate cuts forced at every n, and blocks of
rows are checked row by row.
"""

from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdrthresh import selector
from fdrthresh.estimators import fdr_threshold_estimate
from fdrthresh.selector import (
    FdrConfig,
    _counts_at,
    candidate_levels,
    select_lambda,
    step_down_level,
    step_up_level,
)
from fdrthresh.thresholds import ThresholdFamily
from test_selector import _brute_step_down, _brute_step_up

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# slopes across the usual range, plus one deep enough that the p-value
# screen cannot decide any index and one whose probabilities get clamped
ALPHAS = st.one_of(
    st.floats(1e-6, 0.99),
    st.sampled_from([0.05, 0.2, 1e-300, 0.999999999]),
)
# probabilities alpha k / (2n) in the subnormal range, all hits
SUBNORMAL = (candidate_levels(5, 1e-309), 1e-309)
# a hit, then one ulp below a level whose probability is clamped below 1/2
CLAMPED = (
    np.array([3.0, np.nextafter(candidate_levels(2, 0.999999999)[1], 0.0)]),
    0.999999999,
)


@st.composite
def observations(draw, max_n=60, alpha=ALPHAS):
    """``(x, alpha)`` with magnitudes on, next to and away from the levels."""
    a = draw(alpha)
    n = draw(st.integers(1, max_n))
    levels = candidate_levels(n, a)
    index = st.integers(0, n - 1)
    piece = st.one_of(
        st.floats(0.0, 8.0),
        index.map(lambda k: levels[k]),
        st.tuples(index, st.sampled_from([-np.inf, np.inf])).map(
            lambda t: np.nextafter(levels[t[0]], t[1])
        ),
        st.just(0.0),
        st.floats(40.0, 1e3),
    )
    mags = np.array(draw(st.lists(piece, min_size=n, max_size=n)))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    # repeat some entries to make ties
    if n > 1 and draw(st.booleans()):
        src = draw(st.lists(index, min_size=1, max_size=n))
        dst = draw(st.lists(index, min_size=len(src), max_size=len(src)))
        mags[dst] = mags[src]
    return mags * signs, a


@SETTINGS
@given(observations())
@example((np.zeros(7), 0.2))
@example((np.array([0.0]), 0.2))
@example((np.array([2.5]), 0.2))
@example((np.full(5, 45.0), 0.1))
@example(SUBNORMAL)
@example(CLAMPED)
def test_step_up_matches_brute_force(case):
    x, alpha = case
    assert step_up_level(x, alpha) == _brute_step_up(x, alpha)


@SETTINGS
@given(observations())
@example((np.zeros(7), 0.1))
@example((np.array([0.0]), 0.1))
@example((np.array([2.5]), 0.1))
@example((np.full(5, 45.0), 0.1))
@example(SUBNORMAL)
@example(CLAMPED)
def test_step_down_matches_brute_force(case):
    x, alpha = case
    assert step_down_level(x, alpha) == _brute_step_down(x, alpha)


@settings(SETTINGS, max_examples=15)
@given(observations(max_n=2000, alpha=st.floats(1e-4, 0.5)))
def test_large_n_matches_brute_force(case):
    x, alpha = case
    assert step_up_level(x, alpha) == _brute_step_up(x, alpha)
    assert step_down_level(x, alpha) == _brute_step_down(x, alpha)


@SETTINGS
@given(observations(), st.floats(0.01, 1.0))
def test_trace_arrays_and_count(case, ratio):
    x, alpha1 = case
    alpha2 = alpha1 * ratio
    config = FdrConfig(
        alpha1=alpha1, alpha2=alpha2, alpha1p=(1.0 + alpha1) / 2, alpha2p=alpha2 / 2
    )
    trace = select_lambda(x, config)
    n = x.size
    xi1 = candidate_levels(n, alpha1)
    np.testing.assert_array_equal(trace.xi1_candidates, xi1)
    np.testing.assert_array_equal(trace.xi2_candidates, candidate_levels(n, alpha2))
    np.testing.assert_array_equal(trace.magnitudes, np.sort(np.abs(x))[::-1])
    counts = _counts_at(trace.magnitudes, xi1)
    np.testing.assert_array_equal(trace.exceed_counts, counts)
    np.testing.assert_array_equal(counts, [np.sum(np.abs(x) >= t) for t in xi1])
    # k_hat is the step-up rejection count
    hits = np.flatnonzero(counts >= np.arange(1, n + 1))
    assert trace.k_hat == (hits[-1] + 1 if hits.size else 0)
    assert trace.xi1_hat == (xi1[trace.k_hat - 1] if trace.k_hat else np.inf)
    assert trace.xi2_hat == _brute_step_down(x, alpha2)


# ---------------------------------------------------------------------------
# row blocks


@st.composite
def blocks(draw, max_n=40, max_rows=6):
    """``(x, alpha1, alpha2)``: a (B, n) block of adversarial rows.

    Rows mix magnitudes on, or one ulp beside, a candidate level of either
    slope with ties, zeros and magnitudes of 38 and more; every block also
    holds an all-zero row, which selects nothing, and a row of all hits.
    """
    alpha1 = draw(ALPHAS)
    alpha2 = draw(st.sampled_from([alpha1, np.nextafter(alpha1, 0.0), 0.3 * alpha1]))
    n = draw(st.integers(1, max_n))
    levels = np.concatenate((candidate_levels(n, alpha1), candidate_levels(n, alpha2)))
    index = st.integers(0, levels.size - 1)
    piece = st.one_of(
        st.floats(0.0, 8.0),
        index.map(lambda k: levels[k]),
        st.tuples(index, st.sampled_from([-np.inf, np.inf])).map(
            lambda t: np.nextafter(levels[t[0]], t[1])
        ),
        st.just(0.0),
        st.floats(38.0, 1e3),
    )
    row = st.one_of(
        st.lists(piece, min_size=n, max_size=n).map(np.array),
        # ties: a few values repeated along the row
        st.lists(piece, min_size=1, max_size=3).map(lambda v: np.resize(np.array(v), n)),
    )
    rows = draw(st.lists(row, min_size=0, max_size=max_rows)) + [np.zeros(n), np.full(n, 1e3)]
    order = draw(st.permutations(range(len(rows))))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    return np.stack([rows[i] for i in order]) * np.array(signs), alpha1, alpha2


def _row_on_level(n, k, alpha, toward=None):
    """``m_(k)`` on the k-th level at slope ``alpha``, or the next float
    toward ``toward``, after ``k - 1`` magnitudes of 9 and before zeros."""
    level = candidate_levels(n, alpha)[k - 1]
    if toward is not None:
        level = np.nextafter(level, toward)
    return np.array([9.0] * (k - 1) + [level] + [0.0] * (n - k))


def _block_on_level(alpha, toward=None):
    """One row with ``m_(3)`` on, or one ulp beside, a level and three rows
    far from every level, so column 3 is undecided in one row only."""
    far = [np.zeros(6), np.full(6, 1e3), np.array([9.0] * 4 + [0.0] * 2)]
    return np.stack([far[0], _row_on_level(6, 3, alpha, toward), *far[1:]]), 0.2, 0.1


def _assert_block_matches_rows(x, alpha1, alpha2):
    k_hat, up, down = selector._block_levels(np.abs(x), alpha1, alpha2)
    for row, k, u, d in zip(x, k_hat, up, down):
        assert (k, u, d) == selector._select_levels(row, alpha1, alpha2)[1:]
        assert u == _brute_step_up(row, alpha1)
        assert d == _brute_step_down(row, alpha2)
    config = FdrConfig(
        alpha1=alpha1, alpha2=alpha2, alpha1p=(1.0 + alpha1) / 2, alpha2p=alpha2 / 2,
        delta1=0.1, delta2=0.3, interp=0.4,
    )
    lambdas = selector._block_lambdas(np.abs(x), config)
    assert lambdas.tolist() == [select_lambda(row, config).lambda_hat for row in x]


@SETTINGS
@given(blocks())
@example((np.array([[0.0], [2.5], [45.0]]), 0.2, 0.2))
@example((np.array([[0.0], [2.5], [45.0]]), 0.2, 0.1))
@example(_block_on_level(0.2))
@example(_block_on_level(0.2, 0.0))
@example(_block_on_level(0.2, np.inf))
@example(_block_on_level(0.1))
@example(_block_on_level(0.1, 0.0))
@example(_block_on_level(0.1, np.inf))
def test_block_core_matches_rows_and_brute_force(case):
    _assert_block_matches_rows(*case)


@SETTINGS
@given(
    st.integers(1, 10**6),
    ALPHAS,
    ALPHAS,
    st.lists(st.integers(1, 10**6), min_size=1, max_size=20),
)
def test_levels_at_array_alpha_matches_scalar_calls(n, alpha1, alpha2, ks):
    ks = np.minimum(ks, n)
    got = selector._levels_at(n, np.repeat([alpha1, alpha2], ks.size), np.concatenate((ks, ks)))
    want = np.concatenate((selector._levels_at(n, alpha1, ks), selector._levels_at(n, alpha2, ks)))
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# top-K candidate cuts


@contextmanager
def _top_k_everywhere():
    """Take the top-K path at every n and cut until a cut stops halving."""
    with mock.patch.object(selector, "_TOPK_MIN_N", 1), mock.patch.object(
        selector, "_TOPK_STOP", 0
    ):
        yield


@contextmanager
def _full_core():
    with mock.patch.object(selector, "_TOPK_MIN_N", np.iinfo(np.int64).max):
        yield


def _top_k_run(test, *args):
    with _top_k_everywhere():
        test.hypothesis.inner_test(*args)


@pytest.mark.parametrize("alpha", [0.2, 0.1])
@pytest.mark.parametrize("toward", [None, 0.0, np.inf])
def test_top_k_row_on_level(alpha, toward):
    with _top_k_everywhere():
        _assert_block_matches_rows(_row_on_level(40, 4, alpha, toward)[None], 0.2, 0.1)


@SETTINGS
@given(observations())
@example((np.zeros(7), 0.2))
@example((np.array([0.0]), 0.2))
@example((np.array([2.5]), 0.2))
@example((np.full(5, 45.0), 0.1))
@example(SUBNORMAL)
@example(CLAMPED)
def test_top_k_step_up_matches_brute_force(case):
    _top_k_run(test_step_up_matches_brute_force, case)


@SETTINGS
@given(observations())
@example((np.zeros(7), 0.1))
@example((np.array([0.0]), 0.1))
@example((np.array([2.5]), 0.1))
@example((np.full(5, 45.0), 0.1))
@example(SUBNORMAL)
@example(CLAMPED)
def test_top_k_step_down_matches_brute_force(case):
    _top_k_run(test_step_down_matches_brute_force, case)


@settings(SETTINGS, max_examples=15)
@given(observations(max_n=2000, alpha=st.floats(1e-4, 0.5)))
def test_top_k_large_n_matches_brute_force(case):
    _top_k_run(test_large_n_matches_brute_force, case)


@SETTINGS
@given(observations(), st.floats(0.01, 1.0))
def test_top_k_trace_arrays_and_count(case, ratio):
    _top_k_run(test_trace_arrays_and_count, case, ratio)


def _alpha2_cases(alpha1, ratio):
    """``alpha2`` equal to ``alpha1``, one ulp below it, and a fraction of it."""
    return [alpha1, np.nextafter(alpha1, 0.0), alpha1 * ratio]


def _assert_same_selection(x, alpha1, alpha2, top_k):
    """The top-K path under ``top_k`` against the full core."""
    config = FdrConfig(
        alpha1=alpha1, alpha2=alpha2, alpha1p=(1.0 + alpha1) / 2, alpha2p=alpha2 / 2
    )
    with top_k():
        got = selector._select_levels(x, alpha1, alpha2)
        trace = select_lambda(x, config)
    with _full_core():
        want = selector._select_levels(x, alpha1, alpha2)
        ref = select_lambda(x, config)
    assert got[1:] == want[1:]
    assert trace.to_dict() == ref.to_dict()
    np.testing.assert_array_equal(trace.magnitudes, ref.magnitudes)


@SETTINGS
@given(observations(), st.floats(0.01, 1.0))
@example((np.array([3.0, 1.7, 1.5, 0.2]), 0.2), 0.5)
def test_top_k_matches_full_core(case, ratio):
    x, alpha1 = case
    for alpha2 in _alpha2_cases(alpha1, ratio):
        if alpha2 > 0.0:
            _assert_same_selection(x, alpha1, alpha2, _top_k_everywhere)


def _exact_levels(x, alpha1, alpha2):
    """Both levels from the full candidate and count arrays, vectorized."""
    mags = np.sort(np.abs(x))[::-1]
    n = mags.size
    xi1 = candidate_levels(n, alpha1)
    hits = _counts_at(mags, xi1) >= np.arange(1, n + 1)
    up = xi1[hits].min() if hits.any() else np.inf
    xi2 = candidate_levels(n, alpha2)
    if mags[0] < xi2[0]:
        return up, np.inf
    halts = _counts_at(mags, np.append(xi2[1:], 0.0)) < np.arange(2, n + 2)
    return up, xi2[halts].max()


@st.composite
def slow_cuts(draw):
    """``(x, alpha)`` above the top-K cutoff with a run of magnitudes on, or
    one ulp beside, consecutive levels, so that a cut can drop few of them."""
    alpha = draw(st.one_of(st.sampled_from([0.05, 0.2, 0.5]), st.floats(1e-3, 0.9)))
    n = draw(st.integers(selector._TOPK_MIN_N, 2 * selector._TOPK_MIN_N))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = candidate_levels(n, alpha)
    start = draw(st.integers(0, n - 1))
    stop = draw(st.one_of(st.just(n), st.integers(start + 1, n)))
    mags = np.abs(rng.standard_normal(n)) * draw(st.sampled_from([0.5, 1.0, 2.0]))
    run = levels[start:stop]
    nudge = rng.integers(-1, 2, size=run.size)
    mags[start:stop] = np.where(
        nudge == 0, run, np.nextafter(run, np.where(nudge < 0, 0.0, np.inf))
    )
    # every magnitude one ulp below its level: K <- N(xi_K) falls by one
    if draw(st.booleans()):
        mags = np.nextafter(levels, 0.0)
    signs = rng.choice([-1.0, 1.0], size=n)
    return rng.permutation(mags * signs), alpha


@settings(SETTINGS, max_examples=25)
@given(slow_cuts(), st.floats(0.01, 1.0))
def test_top_k_above_cutoff(case, ratio):
    x, alpha1 = case
    for alpha2 in _alpha2_cases(alpha1, ratio):
        _assert_same_selection(x, alpha1, alpha2, nullcontext)
    up, down = _exact_levels(x, alpha1, alpha1)
    assert step_up_level(x, alpha1) == up
    assert step_down_level(x, alpha1) == down


@SETTINGS
@given(observations(), st.floats(0.01, 1.0))
def test_step_down_beyond_the_prefix_falls_back(case, ratio):
    # without the magnitude below the last cut the step-down scan may reach
    # the end of the prefix, and selection must then use every magnitude
    x, alpha1 = case
    top = selector._top_magnitudes

    def drop_floor(absx, alpha):
        mags = top(absx, alpha)
        return mags[:-1] if mags.size > 1 else mags

    @contextmanager
    def truncated():
        with _top_k_everywhere(), mock.patch.object(selector, "_top_magnitudes", drop_floor):
            yield

    for alpha2 in _alpha2_cases(alpha1, ratio):
        if alpha2 > 0.0:
            _assert_same_selection(x, alpha1, alpha2, truncated)


def test_alpha2_above_alpha1_uses_every_magnitude():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(2 * selector._TOPK_MIN_N)
    x[:50] += 4.0
    with mock.patch.object(selector, "_top_magnitudes", side_effect=AssertionError):
        got = selector._select_levels(x, 0.1, 0.2)
    with _full_core():
        assert got[1:] == selector._select_levels(x, 0.1, 0.2)[1:]
    assert got[3] == _exact_levels(x, 0.1, 0.2)[1]


def _materializing_top_magnitudes(absx, alpha, cuts=None):
    """The top-K cuts as first written, gathering the kept set at every cut;
    each cut level is appended to ``cuts`` when given."""
    n = absx.size
    cand, pool, cut = absx, None, 0.0
    while True:
        level = float(selector._levels_at(n, alpha, np.array([cand.size]))[0]) * (
            1.0 - selector._TOPK_SLACK
        )
        if cuts is not None:
            cuts.append(level)
        kept = cand[cand >= level]
        if kept.size < cand.size:
            pool, cut = cand, level
        halved = 2 * kept.size <= cand.size
        cand = kept
        if not (halved and cand.size > selector._TOPK_STOP):
            break
    top = np.sort(cand)[::-1]
    if pool is None:
        return top
    return np.append(top, pool[pool < cut].max())


@st.composite
def top_k_magnitudes(draw):
    """``(|x|, alpha)`` above the top-K cutoff: noise, spikes, all zeros or
    one repeated value, with entries moved onto each cut level and one ulp
    below it.  The moves keep every cut's count, so the cuts stay put."""
    n = draw(st.integers(selector._TOPK_MIN_N, selector._TOPK_MIN_N + 4096))
    alpha = draw(st.one_of(st.sampled_from([0.05, 0.2, 0.6]), st.floats(1e-3, 0.9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "spikes", "zeros", "flat"]))
    if kind == "zeros":
        return np.zeros(n), alpha
    first = float(selector._levels_at(n, alpha, np.array([n]))[0]) * (1.0 - selector._TOPK_SLACK)
    if kind == "flat":
        value = draw(st.sampled_from([first, np.nextafter(first, 0.0), 0.5 * first, 2.0 * first]))
        return np.full(n, value), alpha
    mags = np.abs(rng.standard_normal(n)) * draw(st.sampled_from([0.5, 1.0, 2.0]))
    if kind == "spikes":
        count = draw(st.integers(1, 4000))
        # spikes of a few exact values, so that they tie
        mags[rng.choice(n, count, replace=False)] = rng.choice([3.0, 5.0, 45.0], size=count)
    cuts = []
    _materializing_top_magnitudes(mags, alpha, cuts)
    assert all(a < b for a, b in zip(cuts, cuts[1:]))
    for low, level, high in zip([0.0, *cuts], cuts, [*cuts[1:], np.inf]):
        # entries in [level, high) onto the level, entries in [low, level) one ulp below it
        for lo, hi, target in ((level, high, level), (low, level, np.nextafter(level, 0.0))):
            band = np.flatnonzero((mags >= lo) & (mags < hi))
            take = draw(st.integers(0, min(band.size, 5)))
            mags[rng.choice(band, take, replace=False)] = target
    return mags, alpha


@settings(SETTINGS, max_examples=60)
@given(top_k_magnitudes())
@example((np.zeros(selector._TOPK_MIN_N), 0.2))
def test_count_only_cuts_match_materializing_cuts(case):
    absx, alpha = case
    for stop in (selector._TOPK_STOP, 0):
        with mock.patch.object(selector, "_TOPK_STOP", stop):
            got = selector._top_magnitudes(absx, alpha)
            want = _materializing_top_magnitudes(absx, alpha)
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# estimator algebra

FAMILIES = st.sampled_from(
    [
        ThresholdFamily("soft"),
        ThresholdFamily("hard"),
        ThresholdFamily("firm", firm_slope=1.5),
        ThresholdFamily("interpolated", firm_slope=1.8, weight=0.3),
    ]
)


def _config(alpha1, ratio=0.5, interp=0.0):
    alpha2 = alpha1 * ratio
    return FdrConfig(
        alpha1=alpha1,
        alpha2=alpha2,
        alpha1p=(1.0 + alpha1) / 2,
        alpha2p=alpha2 / 2,
        delta1=0.1,
        delta2=0.3,
        interp=interp,
    )


def _estimate(x, family, config, scale=1.0):
    return fdr_threshold_estimate(x, family, config, allow_hard=True, scale=scale).estimate


@SETTINGS
@given(observations(), FAMILIES, st.floats(0.0, 1.0))
def test_estimate_is_odd(case, family, interp):
    x, alpha = case
    config = _config(alpha, interp=interp)
    np.testing.assert_array_equal(_estimate(-x, family, config), -_estimate(x, family, config))


@SETTINGS
@given(observations(), FAMILIES, st.floats(0.0, 1.0), st.randoms(use_true_random=False))
def test_estimate_is_permutation_equivariant(case, family, interp, rnd):
    x, alpha = case
    config = _config(alpha, interp=interp)
    perm = np.array(rnd.sample(range(x.size), x.size))
    np.testing.assert_array_equal(
        _estimate(x[perm], family, config), _estimate(x, family, config)[perm]
    )


@SETTINGS
@given(observations(), FAMILIES, st.integers(-20, 20))
def test_estimate_is_scale_equivariant(case, family, exponent):
    # powers of two, so that c * x / c == x exactly
    x, alpha = case
    config = _config(alpha)
    c = 2.0**exponent
    np.testing.assert_array_equal(
        _estimate(c * x, family, config, scale=c), c * _estimate(x, family, config)
    )


@SETTINGS
@given(observations(), st.floats(0.0, 1.0))
def test_step_up_level_below_step_down_level(case, ratio):
    x, alpha1 = case
    alpha2 = alpha1 * ratio
    if alpha2 > 0.0:
        assert step_up_level(x, alpha1) <= step_down_level(x, alpha2)


@SETTINGS
@given(
    observations(),
    st.floats(0.01, 1.0),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
)
@example((np.array([3.0, 1.7, 1.5, 0.2]), 0.2), 0.5, [0.0, 0.5, 1.0 - 2**-53, 1.0])
def test_lambda_nondecreasing_in_interp(case, ratio, interps):
    x, alpha1 = case
    interps = sorted(interps)
    lams = [select_lambda(x, _config(alpha1, ratio, w)).lambda_hat for w in interps]
    assert all(a <= b for a, b in zip(lams, lams[1:]))
