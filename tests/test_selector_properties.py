"""Property tests: the single-sort selector against brute-force references,
and the algebra of the estimator built on it.

The strategies put magnitudes exactly on candidate levels and one ulp to
either side of them, repeat values, and mix in zeros and magnitudes of 40
and more, whose Gaussian tail underflows to 0.  Examples are derandomized
so every run checks the same cases.  The brute-force and trace tests run a
second time with the top-K candidate cuts repeated until a cut stops
halving, and blocks of rows are checked row by row.
"""

import dataclasses
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
    SelectorTrace,
    candidate_levels,
    exceed_count,
    select_lambda,
    step_down_level,
    step_up_level,
)
from fdrthresh.thresholds import ThresholdFamily
from test_selector import _brute_counts, _brute_step_down, _brute_step_up

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# slopes across the usual range, plus one whose probabilities alpha k / (2n)
# are subnormal and one whose probabilities get clamped
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
    counts = exceed_count(x, xi1)
    np.testing.assert_array_equal(counts, _brute_counts(x, xi1))
    # k_hat is the step-up rejection count
    hits = np.flatnonzero(counts >= np.arange(1, n + 1))
    assert trace.k_hat == (hits[-1] + 1 if hits.size else 0)
    assert trace.xi1_hat == (xi1[trace.k_hat - 1] if trace.k_hat else np.inf)
    assert trace.xi2_hat == _brute_step_down(x, alpha2)


# ---------------------------------------------------------------------------
# row blocks


@st.composite
def blocks(draw, max_n=40, max_rows=6, all_hits=True):
    """``(x, alpha1, alpha2)``: a (B, n) block of adversarial rows.

    Rows mix magnitudes on, or one ulp beside, a candidate level of either
    slope or the first top-K cut with ties, zeros, 45.0 and magnitudes of 38
    and more; every block also holds an all-zero row, which selects nothing,
    and unless ``all_hits`` is false a row of all hits.
    """
    alpha1 = draw(ALPHAS)
    alpha2 = draw(st.sampled_from([alpha1, np.nextafter(alpha1, 0.0), 0.3 * alpha1]))
    n = draw(st.integers(1, max_n))
    levels = np.concatenate((candidate_levels(n, alpha1), candidate_levels(n, alpha2)))
    index = st.integers(0, levels.size - 1)
    cut = selector._cut(n, alpha1, n)
    piece = st.one_of(
        st.floats(0.0, 8.0),
        index.map(lambda k: levels[k]),
        st.tuples(index, st.sampled_from([-np.inf, np.inf])).map(
            lambda t: np.nextafter(levels[t[0]], t[1])
        ),
        st.sampled_from([0.0, cut, np.nextafter(cut, 0.0), 45.0]),
        st.floats(38.0, 1e3),
    )
    row = st.one_of(
        st.lists(piece, min_size=n, max_size=n).map(np.array),
        # ties: a few values repeated along the row
        st.lists(piece, min_size=1, max_size=3).map(lambda v: np.resize(np.array(v), n)),
    )
    rows = draw(st.lists(row, min_size=0, max_size=max_rows)) + [np.zeros(n)]
    if all_hits:
        rows.append(np.full(n, 1e3))
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
        assert (k, u, d) == selector._select_levels(row, alpha1, alpha2)
        assert u == _brute_step_up(row, alpha1)
        assert d == _brute_step_down(row, alpha2)
    # the one interval rule: its exact ends w = 0 and 1, and a point inside
    for interp in (0.0, 0.4, 1.0):
        config = FdrConfig(
            alpha1=alpha1, alpha2=alpha2, alpha1p=(1.0 + alpha1) / 2, alpha2p=alpha2 / 2,
            delta1=0.1, delta2=0.3, interp=interp,
        )
        traces = [select_lambda(row, config) for row in x]
        for trace in traces:
            fields = dataclasses.astuple(trace)
            assert [type(v) for v in fields] == [float] * 5 + [int]
        lambdas = selector._block_lambdas(np.abs(x), config)
        assert lambdas.tolist() == [trace.lambda_hat for trace in traces]


@SETTINGS
@given(blocks())
@example((np.array([[0.0], [2.5], [45.0]]), 0.2, 0.2))
@example((np.array([[0.0], [2.5], [45.0]]), 0.2, 0.1))
# a finite step-up level with an infinite step-down level
@example((np.array([[1.5], [0.0], [2.5]]), 0.2, 0.1))
@example(_block_on_level(0.2))
@example(_block_on_level(0.2, 0.0))
@example(_block_on_level(0.2, np.inf))
@example(_block_on_level(0.1))
@example(_block_on_level(0.1, 0.0))
@example(_block_on_level(0.1, np.inf))
def test_block_core_matches_rows_and_brute_force(case):
    _assert_block_matches_rows(*case)


@SETTINGS
@given(blocks(all_hits=False))
@example((np.array([[45.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]), 0.2, 0.1))
@example((np.zeros((2, 5)), 0.2, 0.2))
@example((np.full((3, 60), 45.0), 0.05, 0.015))
def test_block_prefix_bound_changes_no_level(case):
    # a block keeps only the sorted columns up to the largest row count at the
    # first cut; every level equals the one read off all n columns
    x, alpha1, alpha2 = case
    absx = np.abs(x)
    got = selector._block_levels(absx, alpha1, alpha2)
    with mock.patch.object(selector, "_cut", lambda n, alpha, size: 0.0):
        want = selector._block_levels(absx, alpha1, alpha2)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# top-K candidate cuts


@contextmanager
def _top_k_everywhere():
    """Cut the top-K candidates until a cut stops halving, at every size."""
    with mock.patch.object(selector, "_TOPK_STOP", 0):
        yield


def _full_core(x, alpha1, alpha2):
    """``_select_levels(x, alpha1, alpha2)`` through the full sort: row 0 of the
    two-row block ``|x|, |x|``, which sorts every row."""
    k_hat, up, down = selector._block_levels(np.abs(np.vstack([x, x])), alpha1, alpha2)
    return int(k_hat[0]), float(up[0]), float(down[0])


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


def _assert_same_selection(x, alpha1, alpha2, top_k, counts):
    """The top-K path under ``top_k`` against the full core; ``counts`` is the
    brute count at the step-up candidates, the same for every ``alpha2``."""
    config = FdrConfig(
        alpha1=alpha1, alpha2=alpha2, alpha1p=(1.0 + alpha1) / 2, alpha2p=alpha2 / 2
    )
    with top_k():
        got = selector._select_levels(x, alpha1, alpha2)
        trace = select_lambda(x, config)
    want = _full_core(x, alpha1, alpha2)
    ref = SelectorTrace(*want[1:], *map(float, selector._interval(*want[1:], config)), want[0])
    assert got == want
    assert trace == ref
    np.testing.assert_array_equal(exceed_count(x, candidate_levels(x.size, alpha1)), counts)


@SETTINGS
@given(observations(), st.floats(0.01, 1.0))
@example((np.array([3.0, 1.7, 1.5, 0.2]), 0.2), 0.5)
def test_top_k_matches_full_core(case, ratio):
    x, alpha1 = case
    counts = _brute_counts(x, candidate_levels(x.size, alpha1))
    for alpha2 in _alpha2_cases(alpha1, ratio):
        if alpha2 > 0.0:
            _assert_same_selection(x, alpha1, alpha2, _top_k_everywhere, counts)


def _exact_levels(x, alpha1, alpha2):
    """Both levels from the full candidate and count arrays, vectorized."""
    n = x.size
    xi1 = candidate_levels(n, alpha1)
    hits = exceed_count(x, xi1) >= np.arange(1, n + 1)
    up = xi1[hits].min() if hits.any() else np.inf
    xi2 = candidate_levels(n, alpha2)
    if np.abs(x).max() < xi2[0]:
        return up, np.inf
    halts = exceed_count(x, np.append(xi2[1:], 0.0)) < np.arange(2, n + 2)
    return up, xi2[halts].max()


@st.composite
def slow_cuts(draw):
    """``(x, alpha)`` of 512 to 1024 observations with a run of magnitudes on,
    or one ulp beside, consecutive levels, so that a cut can drop few of them."""
    alpha = draw(st.one_of(st.sampled_from([0.05, 0.2, 0.5]), st.floats(1e-3, 0.9)))
    n = draw(st.integers(512, 1024))
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
    counts = _brute_counts(x, candidate_levels(x.size, alpha1))
    for alpha2 in _alpha2_cases(alpha1, ratio):
        _assert_same_selection(x, alpha1, alpha2, nullcontext, counts)
    up, down = _exact_levels(x, alpha1, alpha1)
    assert step_up_level(x, alpha1) == up
    assert step_down_level(x, alpha1) == down


@SETTINGS
@given(st.one_of(observations(), slow_cuts()), st.floats(0.01, 1.0))
@example((np.zeros(7), 0.2), 0.5)
@example((np.array([2.5]), 0.2), 0.5)
@example((np.full(5, 45.0), 0.1), 0.5)
@example(SUBNORMAL, 0.5)
@example(CLAMPED, 0.5)
def test_top_k_prefix_ends_both_scans(case, ratio):
    # the prefix cut at the larger slope holds every hit of both rules, each
    # magnitude after it is below the next level of both slopes, and the
    # levels read off it are the exact ones
    x, alpha1 = case
    n = x.size
    mags = np.sort(np.abs(x))[::-1]
    above = [np.nextafter(alpha1, 1.0), alpha1 + (1.0 - alpha1) * ratio / 2]
    for alpha2 in [*_alpha2_cases(alpha1, ratio), *above]:
        if not 0.0 < alpha2 < 1.0:
            continue
        with _top_k_everywhere():
            prefix = selector._top_magnitudes(np.abs(x), max(alpha1, alpha2))
            levels = selector._select_levels(x, alpha1, alpha2)[1:]
        assert levels == _exact_levels(x, alpha1, alpha2)
        np.testing.assert_array_equal(prefix, mags[: prefix.size])
        for alpha in (alpha1, alpha2):
            assert not (mags >= candidate_levels(n, alpha))[prefix.size :].any()
            if prefix.size < n:
                level = selector._levels_at(n, alpha, np.array([prefix.size + 1]))[0]
                assert mags[prefix.size] < level


def test_alpha2_above_alpha1_matches_full_core():
    # a step-down slope above the step-up slope: the prefix is cut at the
    # larger one, so it still ends the step-down scan
    rng = np.random.default_rng(7)
    x = rng.standard_normal(1024)
    x[:50] += 4.0
    got = selector._select_levels(x, 0.1, 0.2)
    assert got == _full_core(x, 0.1, 0.2)
    assert got[2] == _exact_levels(x, 0.1, 0.2)[1]


def _materializing_top_magnitudes(absx, alpha, cuts=None):
    """The top-K cuts as first written, gathering the kept set at every cut;
    each cut level is appended to ``cuts`` when given."""
    n = absx.size
    cand, pool, cut = absx, None, 0.0
    while True:
        level = selector._cut(n, alpha, cand.size)
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
    """``(|x|, alpha)`` of 512 to 4608 observations: noise, spikes, all zeros or
    one repeated value, with entries moved onto each cut level and one ulp
    below it.  The moves keep every cut's count, so the cuts stay put."""
    n = draw(st.integers(512, 512 + 4096))
    alpha = draw(st.one_of(st.sampled_from([0.05, 0.2, 0.6]), st.floats(1e-3, 0.9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "spikes", "zeros", "flat"]))
    if kind == "zeros":
        return np.zeros(n), alpha
    first = selector._cut(n, alpha, n)
    if kind == "flat":
        value = draw(st.sampled_from([first, np.nextafter(first, 0.0), 0.5 * first, 2.0 * first]))
        return np.full(n, value), alpha
    mags = np.abs(rng.standard_normal(n)) * draw(st.sampled_from([0.5, 1.0, 2.0]))
    if kind == "spikes":
        count = draw(st.integers(1, min(n, 4000)))
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
@example((np.zeros(512), 0.2))
def test_count_only_cuts_match_materializing_cuts(case):
    absx, alpha = case
    for stop in (selector._TOPK_STOP, 0):
        cuts = []
        with mock.patch.object(selector, "_TOPK_STOP", stop):
            got = selector._top_magnitudes(absx, alpha)
            want = _materializing_top_magnitudes(absx, alpha, cuts)
        # the reference's kept set without the magnitude it appends after a
        # dropping cut, or its one element when the cuts drop everything
        kept = np.count_nonzero(absx >= cuts[-1])
        assert got.tobytes() == (want[:kept] if kept else want).tobytes()


# slopes and sizes whose cut probabilities alpha K / (2n) run from subnormal to
# clamped below 1/2
_CUT_CASES = [
    (SUBNORMAL[0].size, SUBNORMAL[1]),
    (CLAMPED[0].size, CLAMPED[1]),
    (1, 1e-300),
    (2**40, 1e-300),
    (1, 0.2),
    (2, 0.05),
    (2**40, 0.2),
    (2**40, 0.999999999),
    (10**6, 1e-6),
]


@pytest.mark.parametrize("n, alpha", _CUT_CASES)
def test_cut_bounds_the_level(n, alpha):
    # a cut lies at or below its polished level and within twice the slack of it,
    # except where the level's probability is clamped and the cut is lower still
    sizes = np.unique(np.append(np.geomspace(1, n, 400).round(), [2, n // 2]).astype(np.int64))
    sizes = sizes[(sizes >= 1) & (sizes <= n)]
    levels = selector._levels_at(n, alpha, sizes)
    cuts = np.array([selector._cut(n, alpha, int(size)) for size in sizes])
    assert np.all(cuts <= levels)
    open_p = alpha * sizes / (2.0 * n) <= selector._P_CLAMP
    assert np.all(levels[open_p] * (1.0 - 2.0 * selector._TOPK_SLACK) <= cuts[open_p])


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


def _estimate(x, family, config):
    return fdr_threshold_estimate(x, family, config, allow_hard=True).estimate


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
