"""Monte Carlo harness tests: determinism, oracle agreement, experiments."""

import math
from unittest import mock

import numpy as np
import pytest

from fdrthresh import simulate
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
    SignalGenerator,
    common_mean_experiment,
    concentration_check,
    mc_mean,
    mc_risk,
    minimax_ball_experiment,
    minimax_benchmark,
    minimax_level,
    oracle_loss_min,
    regret_experiment,
)
from fdrthresh.thresholds import ThresholdFamily, apply_family, soft


class TestMcMean:
    def test_bit_identical_reruns(self):
        theta = np.array([0.0, 1.0, 2.0])
        stat = lambda x: float(np.sum(x * x))
        a = mc_mean(theta, stat, 50, seed=7)
        b = mc_mean(theta, stat, 50, seed=7)
        assert a.mean == b.mean
        assert a.std_error == b.std_error
        assert a.config_fingerprint == b.config_fingerprint

    def test_seed_changes_stream_and_fingerprint(self):
        theta = np.zeros(4)
        stat = lambda x: float(np.sum(x))
        a = mc_mean(theta, stat, 50, seed=1)
        b = mc_mean(theta, stat, 50, seed=2)
        assert a.mean != b.mean
        assert a.config_fingerprint != b.config_fingerprint

    def test_validation(self):
        stat = lambda x: 0.0
        with pytest.raises(ValueError):
            mc_mean(np.zeros(3), stat, 1, seed=0)
        with pytest.raises(ValueError):
            mc_mean(np.zeros(3), stat, 51, seed=0, antithetic=True)
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
        paired = np.array([0.5 * (stat(theta + z) + stat(theta - z)) for z in draws[:4]])
        for est, want in (
            (mc_mean(theta, stat, replicates, seed), plain),
            (mc_mean(theta, stat, replicates, seed, antithetic=True), paired),
        ):
            assert est.mean == float(want.mean())
            assert est.std_error == float(want.std(ddof=1) / math.sqrt(want.size))
        family = ThresholdFamily("firm", firm_slope=1.5)
        scaled = np.empty(replicates)
        for i, z in enumerate(draws):
            diff = apply_family(theta + z, 0.7, family) - theta
            scaled[i] = math.sqrt(float(diff @ diff) / theta.size)
        report = concentration_check(theta, 0.7, family, replicates, seed)
        assert report.variance == float(scaled.var(ddof=1))
        # a statistic returning two values gives, per value, what a scalar call gives
        other = lambda x: float(np.sum(np.abs(x)))
        for antithetic in (False, True):
            both = mc_mean(theta, lambda x: (stat(x), other(x)), replicates, seed, antithetic=antithetic)
            assert both[0].config_fingerprint == both[1].config_fingerprint
            for est, single in zip(both, (stat, other)):
                alone = mc_mean(theta, single, replicates, seed, antithetic=antithetic)
                assert (est.mean, est.std_error) == (alone.mean, alone.std_error)
        spikes = SignalGenerator.spikes(4, 3.0).realize(64)
        strong = regret_experiment(spikes, replicates, seed, strong=True)
        assert strong.mc == regret_experiment(spikes, replicates, seed).mc

    def test_each_replicate_drawn_once(self, monkeypatch):
        streams = []
        draw = simulate._replicate_rng
        monkeypatch.setattr(
            simulate, "_replicate_rng", lambda seed, i: streams.append(i) or draw(seed, i)
        )
        regret_experiment(SignalGenerator.spikes(4, 3.0).realize(64), 6, seed=1, strong=True)
        assert sorted(streams) == list(range(6))
        streams.clear()
        common_mean_experiment(64, 0.1, 6, seed=1)
        assert sorted(streams) == list(range(6))

    def test_antithetic_kills_linear_noise(self):
        theta = np.full(20, 0.7)
        linear = lambda x: float(np.sum(x - theta))
        plain = mc_mean(theta, linear, 400, seed=11)
        paired = mc_mean(theta, linear, 400, seed=11, antithetic=True)
        assert paired.mean == pytest.approx(0.0, abs=1e-12)
        assert paired.std_error <= 1e-12
        assert paired.std_error <= plain.std_error / 2


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
    theta = SignalGenerator.spikes(6, 3.0).realize(40)
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
            lambda t: mc_mean(t, lambda x: (float(x @ x), float(np.max(x))), 17, seed=3),
            lambda t: mc_mean(t, lambda x: float(np.sum(np.abs(x))), 18, seed=3, antithetic=True),
            lambda t: mc_risk(t, lambda x: soft(x, 1.0), 17, seed=4),
            lambda t: common_mean_experiment(t.size, 0.2, 17, seed=5),
            lambda t: minimax_ball_experiment(t.size, 0.0, 0.1, 17, seed=6),
            lambda t: concentration_check(t, 0.8, ThresholdFamily("firm"), 17, seed=7),
        ],
        ids=["mc_mean", "antithetic", "mc_risk", "common_mean", "minimax", "concentration"],
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
        for est, values in ((report.mc, adaptive), (report.oracle_mc, oracle)):
            values = np.array(values)
            assert est.mean == float(values.mean())
            assert est.std_error == float(values.std(ddof=1) / math.sqrt(values.size))
        minimax = minimax_ball_experiment(self.n, 0.0, 0.1, 17, 8, self.config, family)
        lf = SignalGenerator.least_favorable(0.0, 0.1).realize(self.n)
        want = mc_risk(
            lf, lambda x: fdr_threshold_estimate(x, family, self.config, allow_hard=True).estimate,
            17, 8, label=f"minimax:{SignalGenerator.least_favorable(0.0, 0.1).describe()}",
        )
        assert minimax.mc == want


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
    families = TestBlocks.families

    @pytest.mark.parametrize("family", families, ids=lambda f: f.kind)
    @pytest.mark.parametrize("rows", [1, 16])
    def test_matches_dense_losses(self, family, rows):
        rng = np.random.default_rng(31)
        n = 41
        spikes = np.where(rng.random(n) < 0.3, rng.uniform(-4.0, 4.0, size=n), 0.0)
        for theta in (spikes, np.zeros(n), -np.abs(spikes) - 0.5):
            losses = simulate._threshold_losses(theta)
            # the residual buffer is restored between blocks, also for a smaller one
            for size in (rows, rows, max(1, rows // 3)):
                x, lam = _loss_block(rng, size, theta)
                got = losses(x, np.abs(x), lam, family)
                want = simulate._row_losses(theta, apply_family(x, lam[:, None], family))
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("family", families, ids=lambda f: f.kind)
    def test_experiments_match_dense_losses(self, family):
        # the experiment statistic against selection plus the dense loss, per row
        theta = SignalGenerator.spikes(6, 3.0).realize(40)
        x = theta + np.random.default_rng(32).standard_normal((16, 40))
        x[3] = 0.0
        config = FdrConfig(alpha1=0.2, alpha2=0.1, alpha1p=0.4, alpha2p=0.05)
        lam = np.array([select_lambda(row, config).lambda_hat for row in x])
        want = simulate._row_losses(theta, apply_family(x, lam[:, None], family))
        assert simulate._fdr_losses(theta, family, config)(x).tobytes() == want.tobytes()


class TestReusedBuffers:
    theta = np.array([0.5, -1.0, 0.0, 2.0, 0.25])

    def _noise(self, seed, count):
        return [simulate._replicate_rng(seed, i).standard_normal(self.theta.size) for i in range(count)]

    def test_kept_arguments_hold_their_own_draws(self):
        kept = []
        keep = lambda x: kept.append(x) or float(x @ x)
        with mock.patch.object(simulate, "_BLOCK_ELEMENTS", 2 * self.theta.size):
            est = mc_mean(self.theta, keep, 7, seed=21)
        draws = [self.theta + z for z in self._noise(21, 7)]
        assert [x.tobytes() for x in kept] == [x.tobytes() for x in draws]
        want = np.array([float(x @ x) for x in draws])
        assert est.mean == float(want.mean())

    def test_antithetic_pairs_unchanged(self):
        stat = lambda x: float(np.max(x) + x @ x)
        noise = self._noise(22, 4)
        pairs = np.array([0.5 * (stat(self.theta + z) + stat(self.theta - z)) for z in noise])
        for budget in (self.theta.size, 3 * self.theta.size, simulate._BLOCK_ELEMENTS):
            with mock.patch.object(simulate, "_BLOCK_ELEMENTS", budget):
                est = mc_mean(self.theta, stat, 8, seed=22, antithetic=True)
            assert est.mean == float(pairs.mean())
            assert est.std_error == float(pairs.std(ddof=1) / math.sqrt(pairs.size))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_spike_still_refused(self, value, tmp_path):
        with pytest.raises(ValueError, match="max"):
            regret_experiment(SignalGenerator.spikes(2, value).realize(16), 4, seed=1)
        cfg = tmp_path / "e.cfg"
        cfg.write_text(f"kind = regret\nn = 16\nreplicates = 4\nspike_count = 2\nspike_value = {value}\n")
        assert cli_main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


class TestSignalGenerator:
    def test_zero_and_common(self):
        np.testing.assert_array_equal(SignalGenerator.zero().realize(4), np.zeros(4))
        np.testing.assert_array_equal(
            SignalGenerator.common_mean(0.25).realize(3), np.full(3, 0.25)
        )

    def test_spikes(self):
        theta = SignalGenerator.spikes(3, 2.5).realize(10)
        assert (theta == 2.5).sum() == 3
        assert (theta == 0.0).sum() == 7
        with pytest.raises(ValueError):
            SignalGenerator.spikes(11, 1.0).realize(10)
        with pytest.raises(ValueError):
            SignalGenerator.spikes(-1, 1.0).realize(10)

    def test_least_favorable_strong_p0(self):
        n, k = 1000, 5
        gen = SignalGenerator.least_favorable(0.0, k / n)
        theta = gen.realize(n)
        lam = minimax_level(n, 0.0, k / n)
        assert (theta == lam).sum() == k
        assert (theta == 0.0).sum() == n - k

    def test_least_favorable_strong_p1_membership(self):
        n, radius = 500, 0.05
        theta = SignalGenerator.least_favorable(1.0, radius).realize(n)
        assert np.mean(np.abs(theta)) <= radius * (1 + 1e-12)
        assert np.all(theta >= 0)
        spikes = theta[theta > 0]
        if spikes.size:
            assert np.unique(spikes).size == 1  # all mass at one level

    def test_least_favorable_weak_membership(self):
        n, radius, p = 400, 0.1, 1.0
        theta = SignalGenerator.least_favorable(p, radius, weak=True).realize(n)
        ordered = np.sort(np.abs(theta))[::-1]
        ks = np.arange(1, n + 1)
        cap = radius * (n / ks) ** (1.0 / p)
        assert np.all(ordered <= cap * (1 + 1e-12))
        lam = minimax_level(n, p, radius)
        assert np.all(ordered <= lam + 1e-12)
        # a spike level outside (0, inf) is rejected when the generator is
        # built, for weak and strong balls alike, and the check survives python -O
        for weak in (True, False):
            for level in (math.nan, 0.0, -1.0, math.inf):
                with pytest.raises(ValueError, match=r"level must lie in \(0, inf\)"):
                    SignalGenerator.least_favorable(p, radius, weak=weak, level=level)

    def test_describe(self):
        assert SignalGenerator.zero().describe()
        assert "spikes" in SignalGenerator.spikes(2, 1.0).describe()


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

    def test_regret_spikes_smoke(self):
        n = 256
        theta = SignalGenerator.spikes(16, 0.8 * math.sqrt(2 * math.log(n))).realize(n)
        report = regret_experiment(theta, replicates=100, seed=4)
        assert not report.degenerate
        prior = EmpiricalPrior.from_vector(theta)
        assert report.exact_total == pytest.approx(
            n * optimal_levels(prior).risk_exact, rel=1e-12
        )
        assert report.ratio > 0
        assert report.mc.replicates == 100

    def test_regret_strong_benchmark(self):
        n = 128
        theta = SignalGenerator.spikes(11, 3.0).realize(n)
        report = regret_experiment(theta, replicates=100, seed=5, strong=True)
        assert report.oracle_mc is not None
        # pathwise oracle is at least as good as any adaptive rule in mean
        assert report.oracle_mc.mean <= report.mc.mean + 3 * (
            report.mc.std_error + report.oracle_mc.std_error
        )
        assert report.oracle_ratio == pytest.approx(
            report.mc.mean / report.oracle_mc.mean, rel=1e-12
        )

    def test_common_mean_null_case(self):
        report = common_mean_experiment(1000, 0.0, replicates=100, seed=6)
        assert isinstance(report, CommonMeanReport)
        table = dict((label, (mean, se)) for label, mean, se in report.rows)
        assert set(table) == {"fdr_soft", "fdr_firm", "sample_mean"}
        mean_risk, mean_se = table["sample_mean"]
        assert mean_risk == pytest.approx(1.0, abs=4 * mean_se)
        soft_risk_mc, _ = table["fdr_soft"]
        assert soft_risk_mc < 0.8  # thresholding crushes the null risk
        assert report.exact_total == 0.0

    def test_minimax_experiment_smoke(self):
        report = minimax_ball_experiment(
            500, 0.0, 5 / 500, replicates=60, seed=8
        )
        assert isinstance(report, MinimaxReport)
        assert report.ratio == pytest.approx(report.mc.mean / report.benchmark)
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
