"""Monte Carlo harness tests: determinism, oracle agreement, experiments."""

import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest

from fdrthresh import gauss, simulate
from fdrthresh.estimators import fdr_threshold_estimate
from fdrthresh.risk import EmpiricalPrior, bayes_soft_risk, optimal_levels
from fdrthresh.cli import main as cli_main
from fdrthresh.selector import FdrConfig, select_lambda
from fdrthresh.simulate import (
    CommonMeanReport,
    ConcentrationReport,
    McEstimate,
    MinimaxReport,
    RegretReport,
    common_mean_experiment,
    concentration_check,
    least_favorable,
    mc_mean,
    mc_risk,
    minimax_ball_experiment,
    minimax_benchmark,
    minimax_level,
    oracle_loss_min,
    regret_experiment,
    spikes,
)
from fdrthresh.thresholds import ThresholdFamily, apply_family, soft


class TestMcMean:
    def test_bit_identical_reruns(self):
        theta = np.array([0.0, 1.0, 2.0])
        stat = lambda x: np.sum(x * x, axis=1)
        a = mc_mean(theta, stat, 50, seed=7)
        b = mc_mean(theta, stat, 50, seed=7)
        assert a.mean == b.mean
        assert a.std_error == b.std_error

    def test_seed_changes_stream_and_fingerprint(self):
        theta = np.zeros(4)
        stat = lambda x: np.sum(x, axis=1)
        a = mc_mean(theta, stat, 50, seed=1)
        b = mc_mean(theta, stat, 50, seed=2)
        assert a.mean != b.mean
        # the experiment owns the fingerprint: fixed by the seed, moved by another
        signal = spikes(16, 2, 3.0)
        a, b = (regret_experiment(signal, 4, seed) for seed in (1, 2))
        assert a.config_fingerprint != b.config_fingerprint
        assert regret_experiment(signal, 4, 1).config_fingerprint == a.config_fingerprint

    def test_validation(self):
        stat = lambda x: np.zeros(x.shape[0])
        with pytest.raises(ValueError):
            mc_mean(np.zeros(3), stat, 1, seed=0)
        with pytest.raises(ValueError):
            mc_mean(np.array([]), stat, 10, seed=0)

    def test_replicate_streams_pinned(self):
        # replicate i draws from Philox keyed by the seed at counter i << 192
        theta = np.array([0.5, -1.0, 0.0, 2.0, 0.25])
        seed, replicates = 12345, 8
        draws = [
            np.random.Generator(np.random.Philox(key=seed, counter=i << 192)).standard_normal(5)
            for i in range(replicates)
        ]
        stat = lambda x: float(np.max(x) + x @ x)
        plain = np.array([stat(theta + z) for z in draws])
        est = mc_mean(theta, lambda x: [stat(row) for row in x], replicates, seed)
        assert est.mean == float(plain.mean())
        assert est.std_error == float(plain.std(ddof=1) / math.sqrt(plain.size))
        family = ThresholdFamily("firm", firm_slope=1.5)
        scaled = np.empty(replicates)
        for i, z in enumerate(draws):
            diff = apply_family(theta + z, 0.7, family) - theta
            scaled[i] = math.sqrt(float(diff @ diff) / theta.size)
        report = concentration_check(theta, 0.7, family, replicates, seed)
        assert report.variance == float(scaled.var(ddof=1))
        # a statistic returning two values gives, per value, what a scalar call gives
        other = lambda x: float(np.sum(np.abs(x)))
        both = mc_mean(theta, lambda x: [(stat(row), other(row)) for row in x], replicates, seed)
        for est, single in zip(both, (stat, other)):
            alone = mc_mean(theta, lambda x: [single(row) for row in x], replicates, seed)
            assert (est.mean, est.std_error) == (alone.mean, alone.std_error)
        signal = spikes(64, 4, 3.0)
        strong = regret_experiment(signal, replicates, seed, strong=True)
        plain = regret_experiment(signal, replicates, seed)
        assert (strong.mc_risk, strong.mc_se) == (plain.mc_risk, plain.mc_se)

    def test_each_replicate_drawn_once(self, monkeypatch):
        streams = []
        draw = simulate._replicate_rng
        monkeypatch.setattr(
            simulate, "_replicate_rng", lambda seed, i: streams.append(i) or draw(seed, i)
        )
        regret_experiment(spikes(64, 4, 3.0), 6, seed=1, strong=True)
        assert sorted(streams) == list(range(6))
        streams.clear()
        common_mean_experiment(64, 0.1, 6, seed=1)
        assert sorted(streams) == list(range(6))


class TestMcRisk:
    def test_identity_estimator_chi_square_mean(self):
        n = 50
        est = mc_risk(np.zeros(n), lambda x: x, 400, seed=13)
        assert isinstance(est, McEstimate)
        assert est.mean == pytest.approx(n, abs=3 * est.std_error)

    def test_fixed_soft_matches_closed_form(self):
        rng = np.random.default_rng(14)
        n = 50
        for trial in range(20):
            theta = np.where(rng.random(n) < 0.3, rng.uniform(0, 4, size=n), 0.0)
            lam = rng.uniform(0.2, 3.0)
            est = mc_risk(
                theta, lambda x, L=lam: soft(x, L), 200, seed=1000 + trial
            )
            prior = EmpiricalPrior.from_vector(theta)
            exact = n * bayes_soft_risk(prior, lam)
            assert abs(est.mean - exact) <= 4 * est.std_error

    def test_sample_mean_risk_is_one(self):
        n = 200
        theta = np.full(n, 0.3)
        est = mc_risk(
            theta, lambda x: np.full(x.shape, float(x.mean())), 500, seed=15
        )
        assert est.mean == pytest.approx(1.0, abs=3 * est.std_error)


class TestOracleLossMin:
    def test_perfect_fit(self):
        x = np.array([1.0, -2.0, 0.5])
        level, loss = oracle_loss_min(x, x)
        assert level == 0.0
        assert loss == 0.0

    def test_zero_target_prefers_infinite_level(self):
        x = np.array([0.3, -1.2, 2.0])
        level, loss = oracle_loss_min(x, np.zeros(3))
        assert level == math.inf
        assert loss == 0.0

    def test_grid_oracle_agreement(self):
        rng = np.random.default_rng(16)
        grid_size = 100_000
        cases = []
        for _ in range(200):
            n = int(rng.integers(2, 21))
            theta = np.where(rng.random(n) < 0.4, rng.uniform(-4, 4, size=n), 0.0)
            cases.append((theta + rng.standard_normal(n), theta))
        for x, theta in cases + _oracle_edge_cases(rng):
            level, loss = oracle_loss_min(x, theta)
            # uniform grid plus the kink levels |x_i|: at a kink the loss has a
            # corner, where a uniform grid alone is only first-order accurate
            grid = np.concatenate(
                [np.linspace(0.0, np.abs(x).max() + 1.0, grid_size), np.abs(x)]
            )
            fits = np.sign(x)[None, :] * np.maximum(
                np.abs(x)[None, :] - grid[:, None], 0.0
            )
            losses = ((fits - theta[None, :]) ** 2).sum(axis=1)
            grid_best = min(float(losses.min()), float(theta @ theta))
            assert loss <= grid_best + 1e-6 * max(1.0, grid_best)
            assert loss >= grid_best - 1e-6 * max(1.0, grid_best)

    def test_loss_matches_level(self):
        rng = np.random.default_rng(17)
        cases = []
        for _ in range(50):
            n = int(rng.integers(2, 30))
            theta = rng.normal(0, 2, size=n)
            cases.append((theta + rng.standard_normal(n), theta))
        for x, theta in cases + _oracle_edge_cases(rng):
            level, loss = oracle_loss_min(x, theta)
            if math.isfinite(level):
                direct = float(((soft(x, level) - theta) ** 2).sum())
                assert loss == pytest.approx(direct, rel=1e-12)
            else:
                assert loss == pytest.approx(float(theta @ theta), rel=1e-12)


def _reference_oracle(x, theta):
    """The one-draw oracle with a stable sort, as a plain sequence of steps."""
    order = np.argsort(np.abs(x), kind="stable")
    mags = np.abs(x)[order]
    signed_err = (np.copysign(1.0, x) * (x - theta))[order]
    prefix_kill = np.concatenate([[0.0], np.cumsum((theta**2)[order])])
    suf1 = np.cumsum(signed_err[::-1])[::-1]
    suf2 = np.cumsum((signed_err**2)[::-1])[::-1]
    total = float(prefix_kill[-1])
    cnt = np.arange(x.size, 0, -1)
    levels = np.clip(suf1 / cnt, np.concatenate([[0.0], mags[:-1]]), mags)
    losses = prefix_kill[:-1] + suf2 - 2.0 * levels * suf1 + cnt * levels * levels
    best = int(np.argmin(losses))
    if losses[best] >= total - 1e-15 * max(1.0, total):
        return math.inf, total
    return float(levels[best]), float(losses[best])


class TestOracleBlocks:
    def _blocks(self, rng):
        """Blocks of draws around one theta: tied rows (some rows only),
        exact zeros, rows with x == theta, and an all-zero theta."""
        for n in (1, 2, 7, 64, 333):
            theta = np.where(rng.random(n) < 0.3, rng.uniform(-4, 4, size=n), 0.0)
            for target in (theta, np.zeros(n)):
                x = target + rng.standard_normal((9, n))
                x[1] = np.round(x[1])
                x[2] = np.round(x[2], 1)
                x[3, ::2] = 0.0
                x[4] = target
                x[5, : n // 2] = target[: n // 2]
                x[6] = 0.0
                yield x, target

    def test_block_matches_rows(self):
        rng = np.random.default_rng(18)
        tied_rows = 0
        for x, theta in self._blocks(rng):
            levels, losses = oracle_loss_min(x, theta)
            assert levels.shape == losses.shape == (x.shape[0],)
            for row, level, loss in zip(x, levels, losses):
                one = oracle_loss_min(row, theta)
                assert isinstance(one[0], float) and isinstance(one[1], float)
                want = np.array(_reference_oracle(row, theta))
                assert np.array(one).tobytes() == want.tobytes()
                assert np.array([level, loss]).tobytes() == want.tobytes()
                tied_rows += np.unique(np.abs(row)).size < row.size
        assert tied_rows > 20

    def test_block_validation(self):
        with pytest.raises(ValueError):
            oracle_loss_min(np.zeros((2, 3)), np.zeros(4))
        with pytest.raises(ValueError):
            oracle_loss_min(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            oracle_loss_min(np.zeros((1, 2, 3)), np.zeros(3))
        with pytest.raises(ValueError):
            oracle_loss_min(np.full((2, 3), np.nan), np.zeros(3))
        # finite inputs whose segment losses overflow
        for x, theta in (([1e200, 0.5], [0.0, 0.0]), ([1.2e154], [0.0]), ([9e153], [-9e153])):
            with pytest.raises(ValueError):
                oracle_loss_min(np.array([x, np.zeros(len(x))]), np.array(theta))


def _oracle_edge_cases(rng):
    """Tied magnitudes, n = 1, all-zero x, and x == theta on a subset."""
    cases = [(np.array([2.5]), np.array([1.0])), (np.array([-0.3]), np.array([0.0]))]
    for _ in range(20):
        n = int(rng.integers(2, 25))
        theta = np.where(rng.random(n) < 0.5, rng.uniform(-4, 4, size=n), 0.0)
        x = theta + rng.standard_normal(n)
        on_target = x.copy()
        on_target[: n // 2] = theta[: n // 2]
        cases += [
            (np.round(x), theta),
            (np.round(x, 1), theta),
            (x[:1], theta[:1]),
            (np.zeros(n), theta),
            (on_target, theta),
        ]
    return cases


def _under_block_sizes(fn, n):
    """``repr(fn())`` with blocks of one row, of the default size and of five rows."""
    results = []
    for budget in (1, simulate._BLOCK_ELEMENTS, 5 * n):
        with mock.patch.object(simulate, "_BLOCK_ELEMENTS", budget):
            results.append(repr(fn()))
    return results


class TestBlocks:
    n = 40
    theta = spikes(40, 6, 3.0)
    families = [
        ThresholdFamily("soft"),
        ThresholdFamily("firm", firm_slope=1.7),
        ThresholdFamily("interpolated", firm_slope=1.5, weight=0.3),
        ThresholdFamily("hard"),
    ]
    config = FdrConfig(alpha1=0.2, alpha2=0.1, alpha1p=0.4, alpha2p=0.05, interp=0.3)

    @pytest.mark.parametrize(
        "run",
        [
            lambda t: mc_mean(t, lambda x: [(row @ row, row.max()) for row in x], 17, seed=3),
            lambda t: mc_risk(t, lambda x: soft(x, 1.0), 17, seed=4),
            lambda t: common_mean_experiment(t.size, 0.2, 17, seed=5),
            lambda t: minimax_ball_experiment(t.size, 0.0, 0.1, 17, seed=6),
            lambda t: concentration_check(t, 0.8, ThresholdFamily("firm"), 17, seed=7),
        ],
        ids=["mc_mean", "mc_risk", "common_mean", "minimax", "concentration"],
    )
    def test_block_size_does_not_change_results(self, run):
        first, *others = _under_block_sizes(lambda: run(self.theta), self.n)
        assert all(other == first for other in others)

    @pytest.mark.parametrize("family", families, ids=lambda f: f.kind)
    def test_regret_block_size_does_not_change_results(self, family):
        for strong in (False, True):
            run = lambda: regret_experiment(self.theta, 17, 8, self.config, family, strong=strong)
            first, *others = _under_block_sizes(run, self.n)
            assert all(other == first for other in others)

    @pytest.mark.parametrize("family", families, ids=lambda f: f.kind)
    def test_experiments_match_per_row_estimates(self, family):
        # the block statistics against the one-vector estimator on each draw
        draws = [
            self.theta + simulate._replicate_rng(8, i).standard_normal(self.n) for i in range(17)
        ]
        adaptive, oracle = [], []
        for x in draws:
            est = fdr_threshold_estimate(x, family, self.config, allow_hard=True).estimate
            adaptive.append(float((est - self.theta) @ (est - self.theta)))
            oracle.append(oracle_loss_min(x, self.theta)[1])
        report = regret_experiment(self.theta, 17, 8, self.config, family, strong=True)
        for mean, se, values in (
            (report.mc_risk, report.mc_se, adaptive),
            (report.oracle_risk, report.oracle_se, oracle),
        ):
            values = np.array(values)
            assert mean == float(values.mean())
            assert se == float(values.std(ddof=1) / math.sqrt(values.size))
        minimax = minimax_ball_experiment(self.n, 0.0, 0.1, 17, 8, self.config, family)
        want = mc_risk(
            least_favorable(self.n, 0.0, 0.1),
            lambda x: fdr_threshold_estimate(x, family, self.config, allow_hard=True).estimate,
            17, 8,
        )
        assert (minimax.mc_risk, minimax.mc_se) == (want.mean, want.std_error)


def _loss_block(rng, rows, theta):
    """Draws around ``theta`` with per-row levels at 0, +inf, exactly at some
    ``|x_i|`` and in between, plus exact zeros, ties at the level and
    magnitudes one ulp to either side of it."""
    n = theta.size
    x = theta + rng.standard_normal((rows, n))
    x[:, :3] = 0.0
    lam = rng.uniform(0.0, 2.5, size=rows)
    for r in range(rows):
        pick = r % 4
        if pick == 0:
            lam[r] = 0.0
        elif pick == 1:
            lam[r] = math.inf
        elif pick == 2:
            lam[r] = abs(x[r, 5])
        if math.isfinite(lam[r]):
            x[r, 6:10] = lam[r] * np.array([1.0, -1.0, 1.0, -1.0])
            x[r, 10:14] = np.nextafter(lam[r], [np.inf, 0.0, np.inf, 0.0]) * np.array([1.0, 1.0, -1.0, -1.0])
        x[r, 14:16] = x[r, 16]
    return x, lam


class TestSurvivorLosses:
    """The one block statistic of the experiments, ``_threshold_losses``."""

    families = TestBlocks.families

    @pytest.mark.parametrize("family", families, ids=lambda f: f.kind)
    @pytest.mark.parametrize("rows", [1, 16])
    def test_matches_dense_losses(self, family, rows):
        rng = np.random.default_rng(31)
        n = 41
        spikes = np.where(rng.random(n) < 0.3, rng.uniform(-4.0, 4.0, size=n), 0.0)
        for theta in (spikes, np.zeros(n), -np.abs(spikes) - 0.5):
            # the kept buffers are refilled for each block, also for a smaller one
            for size in (rows, rows, max(1, rows // 3)):
                x, lam = _loss_block(rng, size, theta)
                got = simulate._threshold_losses(theta, (family,), lam)(x)
                want = simulate._row_losses(theta, apply_family(x, lam[:, None], family))
                assert got.shape == (size, 1)
                assert got[:, 0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("family", families, ids=lambda f: f.kind)
    def test_experiments_match_dense_losses(self, family):
        # the experiment statistic against selection plus the dense loss, per row
        theta = spikes(40, 6, 3.0)
        x = theta + np.random.default_rng(32).standard_normal((16, 40))
        x[3] = 0.0
        config = FdrConfig(alpha1=0.2, alpha2=0.1, alpha1p=0.4, alpha2p=0.05)
        lam = np.array([select_lambda(row, config).lambda_hat for row in x])
        want = simulate._row_losses(theta, apply_family(x, lam[:, None], family))
        assert simulate._threshold_losses(theta, (family,), config)(x)[:, 0].tobytes() == want.tobytes()

    def test_families_share_one_pass(self):
        # each column of a two-family statistic is that family's own statistic, bit for bit
        rng = np.random.default_rng(33)
        theta = spikes(41, 8, 2.5)
        config = FdrConfig(alpha1=0.2, alpha2=0.1, alpha1p=0.4, alpha2p=0.05, interp=0.5)
        pair = (ThresholdFamily("soft"), ThresholdFamily("firm", firm_slope=1.5))
        for rows in (16, 1, 5):
            x, lam = _loss_block(rng, rows, theta)
            for level in (config, lam):
                got = simulate._threshold_losses(theta, pair, level)(x)
                assert got.shape == (rows, 2)
                for j, family in enumerate(pair):
                    alone = simulate._threshold_losses(theta, (family,), level)(x)
                    assert got[:, j].tobytes() == alone[:, 0].tobytes()

    @pytest.mark.parametrize("level", [0.0, 1.3, math.inf])
    def test_float_level_is_a_row_of_levels(self, level):
        rng = np.random.default_rng(34)
        theta = spikes(41, 8, 2.5)
        for rows in (16, 3):
            x = theta + rng.standard_normal((rows, 41))
            got = simulate._threshold_losses(theta, self.families, level)(x)
            want = simulate._threshold_losses(theta, self.families, np.full(rows, level))(x)
            assert got.tobytes() == want.tobytes()


def _in_fresh_thread(fn):
    """``fn()`` run on a new thread, which starts with no kept buffers."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and len(result) == 1
    return result[0]


def _sum_squares(x):
    return np.sum(x * x, axis=1)


class TestReusedBuffers:
    """The scratch buffers each thread keeps across calls (``gauss._kept``)."""

    calls = [
        lambda: regret_experiment(spikes(50_000, 200, 3.0), 2, seed=1),
        lambda: regret_experiment(spikes(1024, 32, 3.0), 16, seed=2, strong=True),
        lambda: common_mean_experiment(20_000, 0.05, 3, seed=3),
        lambda: regret_experiment(spikes(50_000, 200, 3.0), 2, seed=1),
    ]

    def test_calls_of_other_sizes_leave_no_trace(self):
        # one thread runs them in turn, each on the buffers the one before left
        got = [call() for call in self.calls]
        assert got == [_in_fresh_thread(call) for call in self.calls]
        assert got[0] == got[3]

    def test_nested_mc_mean(self):
        # the inner call draws around a row of the outer block while that block is in use
        theta = spikes(300, 10, 2.0)
        inner = []

        def nested(x):
            inner.append(mc_mean(x[0], _sum_squares, 5, seed=9))
            return _sum_squares(x)

        assert mc_mean(theta, nested, 40, seed=4) == mc_mean(theta, _sum_squares, 40, seed=4)
        first = theta + simulate._replicate_rng(4, 0).standard_normal(theta.size)
        assert inner == [mc_mean(first, _sum_squares, 5, seed=9)]

    def test_statistic_error_returns_the_buffer(self):
        theta = spikes(300, 10, 2.0)
        mc_mean(theta, _sum_squares, 4, seed=1)
        before = list(gauss._kept_store.buffers)
        with pytest.raises(ZeroDivisionError):
            mc_mean(theta, lambda x: 1 / 0, 4, seed=1)
        after = gauss._kept_store.buffers
        assert len(after) == len(before) and all(any(a is b for b in before) for a in after)

    def test_threads_match_sequential_calls(self):
        jobs = [(spikes(50_000, 200, 3.0), 2, 5, False), (spikes(1024, 32, 3.0), 16, 6, True)]
        want = [regret_experiment(*job[:3], strong=job[3]) for job in jobs]
        got = [[] for _ in jobs]
        start = threading.Barrier(len(jobs))

        def work(k):
            start.wait()
            for _ in range(3):
                got[k].append(regret_experiment(*jobs[k][:3], strong=jobs[k][3]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[w] * 3 for w in want]

    def test_statistic_may_return_a_view_of_its_block(self):
        # one row a block: every block is drawn into the same buffer
        theta = spikes(simulate._BLOCK_ELEMENTS, 3, 1.0)
        est = mc_mean(theta, lambda x: x[:, 0], 4, seed=1)
        draws = [simulate._replicate_rng(1, i).standard_normal(theta.size) for i in range(4)]
        firsts = np.array([1.0 + z[0] for z in draws])
        assert (est.mean, est.std_error) == (float(firsts.mean()), float(firsts.std(ddof=1) / 2.0))

    def test_second_call_reuses_the_buffers(self):
        theta = spikes(2000, 20, 3.0)
        blocks = []
        keep = lambda x: (blocks.append(x), _sum_squares(x))[1]
        mc_mean(theta, keep, 4, seed=1)
        mc_mean(theta, keep, 4, seed=2)
        assert np.shares_memory(blocks[0], blocks[1])
        regret_experiment(theta, 4, seed=1)
        before = list(gauss._kept_store.buffers)
        regret_experiment(theta, 4, seed=2)
        after = gauss._kept_store.buffers
        assert len(after) == len(before)
        assert all(any(np.shares_memory(a, b) for b in before) for a in after)


def _fresh_rng(seed, index):
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 192))


def _draws(rng):
    """A state snapshot, then draws through normals, doubles and 32- and 64-bit integers."""
    state = rng.bit_generator.state
    return (
        state["state"]["key"].tolist(), state["state"]["counter"].tolist(),
        state["buffer_pos"], state["has_uint32"], rng.standard_normal(37).tobytes(),
        rng.random(5).tobytes(), rng.integers(0, 2**32, 3, dtype=np.uint32).tobytes(),
        rng.integers(0, 2**63, 3).tobytes(),
    )


_SEEDS = (0, 2**64 - 1, 2**64, 2**128 - 1)
_INDICES = (0, 1, 2**32, 2**63)


class TestReplicateStreams:
    @pytest.mark.parametrize("seed", _SEEDS)
    def test_equals_a_fresh_philox(self, seed):
        for index in _INDICES:
            assert _draws(simulate._replicate_rng(seed, index)) == _draws(_fresh_rng(seed, index))

    def test_two_seeds_interleaved(self):
        # after a partly used stream (a cached 32-bit half, a part-read buffer),
        # the next re-key starts as a new Philox would
        pairs = [(seed, index) for index in _INDICES for seed in (2**64, 7)]
        for seed, index in pairs + pairs[::-1]:
            assert _draws(simulate._replicate_rng(seed, index)) == _draws(_fresh_rng(seed, index))

    def test_threads_keep_their_own_streams(self):
        theta = spikes(64, 4, 3.0)
        seeds = (5, 6)
        want = {seed: regret_experiment(theta, 200, seed, strong=True) for seed in seeds}
        got = {seed: [] for seed in seeds}
        start = threading.Barrier(len(seeds))

        def work(seed):
            start.wait()
            for _ in range(4):
                got[seed].append(regret_experiment(theta, 200, seed, strong=True))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        for seed in seeds:
            assert got[seed] == [want[seed]] * 4


class TestIntegerCounts:
    theta = spikes(16, 2, 3.0)
    soft = ThresholdFamily("soft")

    @pytest.mark.parametrize(
        "replicates, seed, name",
        [(4.5, 1, "replicates"), (np.float64(4.0), 1, "replicates"), (4, 1.5, "seed"), (4, 2.0, "seed")],
    )
    def test_fractional_replicates_or_seed_raise(self, replicates, seed, name):
        calls = (
            lambda: mc_mean(self.theta, lambda x: np.sum(x * x, axis=1), replicates, seed),
            lambda: mc_risk(self.theta, lambda x: x, replicates, seed),
            lambda: regret_experiment(self.theta, replicates, seed),
            lambda: common_mean_experiment(16, 0.1, replicates, seed),
            lambda: minimax_ball_experiment(16, 0.0, 0.1, replicates, seed),
            lambda: concentration_check(self.theta, 1.0, self.soft, replicates, seed),
        )
        for call in calls:
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                call()

    def test_numpy_integers_accepted(self):
        plain = regret_experiment(self.theta, 4, 7)
        numpy = regret_experiment(self.theta, np.int64(4), np.uint64(7))
        # the fingerprint hashes the counts as ints: numpy integers leave it unmoved
        assert numpy == plain
        report = concentration_check(self.theta, 1.0, self.soft, np.int32(4), np.int16(7))
        assert report == concentration_check(self.theta, 1.0, self.soft, 4, 7)


class TestSignalGenerator:
    """The signals of the experiments: ``spikes``, ``least_favorable`` and the common mean."""

    def test_zero_and_common(self):
        with mock.patch.object(simulate, "mc_mean", wraps=simulate.mc_mean) as run:
            common_mean_experiment(3, 0.25, 4, seed=1)
        np.testing.assert_array_equal(run.call_args.args[0], np.full(3, 0.25))

    def test_spikes(self):
        theta = spikes(10, 3, 2.5)
        assert (theta == 2.5).sum() == 3
        assert (theta == 0.0).sum() == 7
        with pytest.raises(ValueError):
            spikes(10, 11, 1.0)
        with pytest.raises(ValueError):
            spikes(10, -1, 1.0)

    def test_least_favorable_strong_p0(self):
        n, k = 1000, 5
        theta = least_favorable(n, 0.0, k / n)
        lam = minimax_level(n, 0.0, k / n)
        assert (theta == lam).sum() == k
        assert (theta == 0.0).sum() == n - k

    def test_least_favorable_strong_p1_membership(self):
        n, radius = 500, 0.05
        theta = least_favorable(n, 1.0, radius)
        assert np.mean(np.abs(theta)) <= radius * (1 + 1e-12)
        assert np.all(theta >= 0)
        held = theta[theta > 0]
        if held.size:
            assert np.unique(held).size == 1  # all mass at one level

    def test_least_favorable_weak_membership(self):
        n, radius, p = 400, 0.1, 1.0
        theta = least_favorable(n, p, radius, weak=True)
        ordered = np.sort(np.abs(theta))[::-1]
        ks = np.arange(1, n + 1)
        cap = radius * (n / ks) ** (1.0 / p)
        assert np.all(ordered <= cap * (1 + 1e-12))
        lam = minimax_level(n, p, radius)
        assert np.all(ordered <= lam + 1e-12)

    def test_least_favorable_count_past_the_float_range(self):
        # n radius^p / level^p overflows: every coordinate is a spike
        theta = least_favorable(10, 1.5, 1e300)
        np.testing.assert_array_equal(theta, np.full(10, minimax_level(10, 1.5, 1e300)))
        # an l_0 radius is a fraction: at its largest, 1, every coordinate is a spike at level 1
        theta = least_favorable(10, 0.0, 1.0)
        np.testing.assert_array_equal(theta, np.ones(10))
        # level^p overflows alone: the ball holds fewer spikes than one
        theta = least_favorable(10, 2000.0, 0.5)
        np.testing.assert_array_equal(theta, np.zeros(10))


class TestMinimaxFormula:
    def test_p0_sparse_values(self):
        n, k = 10_000, 5
        level = minimax_level(n, 0.0, k / n)
        assert level == pytest.approx(math.sqrt(2 * math.log(n / k)), rel=1e-12)
        bench = minimax_benchmark(n, 0.0, k / n)
        assert bench == pytest.approx(k * 2 * math.log(n / k), rel=1e-12)

    def test_weak_multiplier(self):
        n, radius, p = 1000, 0.05, 1.0
        strong = minimax_benchmark(n, p, radius)
        weak = minimax_benchmark(n, p, radius, weak=True)
        assert weak == pytest.approx(strong * 2.0 / (2.0 - p), rel=1e-12)

    def test_level_floor_is_one(self):
        # dense balls put the calibrated level at its floor
        assert minimax_level(10, 1.0, 10.0) == 1.0

    def test_level_past_the_float_range(self):
        # radius^(-p') overflows (a level capped at n) or underflows to 0 (the floor)
        assert minimax_level(10, 1.0, 1e-320) == math.sqrt(2.0 * math.log(10.0))
        assert minimax_level(10, 0.0, 1e-320) == math.sqrt(2.0 * math.log(10.0))
        assert minimax_level(10, 1.5, 1e300) == 1.0

    def test_level_matches_the_closed_form(self):
        # bit for bit the direct formula wherever radius^(-p') is a float
        for n in (1, 2, 10, 1000, 10**6):
            for p in (0.0, 0.3, 1.0, 1.5, 1.99, 3.0):
                for radius in (1e-300, 1e-12, 1e-3, 0.05, 0.5, 1.0, 7.0, 1e12):
                    if p == 0.0 and radius > 1.0:
                        continue  # an l_0 radius is a fraction
                    pp = p if p > 0.0 else 1.0
                    try:
                        inner = min(float(n), radius**-pp)
                    except OverflowError:
                        continue
                    want = max(1.0, math.sqrt(2.0 * max(0.0, math.log(inner))))
                    assert minimax_level(n, p, radius) == want

    def test_ball_experiment_checks_the_benchmark_first(self):
        with mock.patch.object(simulate, "mc_mean", side_effect=AssertionError("replicates ran")):
            with pytest.raises(ValueError, match="benchmark requires"):
                minimax_ball_experiment(20, 2.5, 0.1, 4, seed=1)
            with pytest.raises(ValueError, match="benchmark must be"):
                minimax_ball_experiment(20, 1.0, 1e-320, 4, seed=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            minimax_benchmark(100, 2.0, 0.1)
        with pytest.raises(ValueError):
            minimax_benchmark(100, -0.5, 0.1)
        with pytest.raises(ValueError):
            minimax_benchmark(100, 0.0, 0.1, weak=True)
        with pytest.raises(ValueError):
            minimax_level(0, 0.0, 0.1)


class TestExperiments:
    def test_regret_zero_signal_flagged_degenerate(self):
        report = regret_experiment(np.zeros(50), replicates=20, seed=3)
        assert isinstance(report, RegretReport)
        assert report.degenerate
        assert math.isnan(report.ratio)
        assert report.exact_total == 0.0

    def test_overflowing_squares_raise(self):
        # n * max|theta|^2 overflows: the exact totals would be inf and the
        # regret -inf, so the experiments refuse the vector
        with pytest.raises(ValueError, match="max"):
            regret_experiment([1e200, 1e200] + [0.0] * 18, 4, seed=1)
        with pytest.raises(ValueError, match="max"):
            common_mean_experiment(20, 1e200, 4, seed=1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_spike_still_refused(self, value, tmp_path):
        with pytest.raises(ValueError, match="max"):
            regret_experiment(spikes(16, 2, value), 4, seed=1)
        cfg = tmp_path / "e.cfg"
        cfg.write_text(f"kind = regret\nn = 16\nreplicates = 4\nspike_count = 2\nspike_value = {value}\n")
        assert cli_main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_regret_spikes_smoke(self):
        n = 256
        theta = spikes(n, 16, 0.8 * math.sqrt(2 * math.log(n)))
        report = regret_experiment(theta, replicates=100, seed=4)
        assert not report.degenerate
        prior = EmpiricalPrior.from_vector(theta)
        assert report.exact_total == pytest.approx(n * optimal_levels(prior)[1], rel=1e-12)
        assert report.ratio > 0
        assert report.oracle_risk is report.oracle_se is report.oracle_ratio is None

    def test_regret_strong_benchmark(self):
        n = 128
        theta = spikes(n, 11, 3.0)
        report = regret_experiment(theta, replicates=100, seed=5, strong=True)
        assert report.oracle_risk is not None
        # pathwise oracle is at least as good as any adaptive rule in mean
        assert report.oracle_risk <= report.mc_risk + 3 * (report.mc_se + report.oracle_se)
        assert report.oracle_ratio == pytest.approx(report.mc_risk / report.oracle_risk, rel=1e-12)

    def test_common_mean_null_case(self):
        report = common_mean_experiment(1000, 0.0, replicates=100, seed=6)
        assert isinstance(report, CommonMeanReport)
        assert report.sample_mean_risk == pytest.approx(1.0, abs=4 * report.sample_mean_se)
        assert report.fdr_soft_risk < 0.8  # thresholding crushes the null risk
        assert report.exact_total == 0.0

    def test_minimax_experiment_smoke(self):
        report = minimax_ball_experiment(
            500, 0.0, 5 / 500, replicates=60, seed=8
        )
        assert isinstance(report, MinimaxReport)
        assert report.ratio == pytest.approx(report.mc_risk / report.benchmark)
        assert report.level == pytest.approx(math.sqrt(2 * math.log(100)), rel=1e-12)

    def test_concentration_soft_null(self):
        report = concentration_check(
            np.zeros(100), 1.0, ThresholdFamily("soft"), replicates=400, seed=9
        )
        assert isinstance(report, ConcentrationReport)
        assert report.bound == pytest.approx(0.04)
        assert report.passed

    def test_concentration_firm_bound_scales_with_slope(self):
        report = concentration_check(
            np.zeros(50), 1.0, ThresholdFamily("firm", firm_slope=1.5),
            replicates=300, seed=10,
        )
        assert report.bound == pytest.approx(9.0 / 50)
        assert report.passed

    def test_concentration_rejects_hard(self):
        with pytest.raises(ValueError):
            concentration_check(np.zeros(10), 1.0, ThresholdFamily("hard"), 100, 0)

    @pytest.mark.parametrize(
        "theta, replicates",
        [(np.zeros(10), 1), (np.zeros(10), 0), (np.array([]), 10), (np.zeros((2, 5)), 10)],
    )
    def test_concentration_validation(self, theta, replicates):
        with pytest.raises(ValueError):
            concentration_check(theta, 1.0, ThresholdFamily("soft"), replicates, 0)
