"""Acceptance suite: eleven go/no-go checks covering the whole package.

Each test prints one ``PASS``/``FAIL`` line (visible under ``pytest -s`` or
``-v`` via the test outcome) and asserts the criterion at its stated
tolerance.  Budgeted runtimes are asserted where the criterion names one.
"""

import math
import time

import numpy as np

from fdrthresh.gauss import (
    critical_tail_level,
    exp_gauss_moment,
    norm_cdf,
    norm_quantile,
)
from fdrthresh.risk import soft_risk
from fdrthresh.selector import (
    FdrConfig,
    candidate_levels,
    step_down_level,
    step_up_level,
)
from fdrthresh.simulate import (
    common_mean_experiment,
    concentration_check,
    minimax_ball_experiment,
    oracle_loss_min,
    regret_experiment,
    spikes,
)
from fdrthresh.thresholds import ThresholdFamily
from test_risk import quad_soft_risk
from test_selector import _brute_step_down, _brute_step_up


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------


def test_01_closed_form_risk_vs_quadrature():
    start = time.perf_counter()
    worst = 0.0
    for mu in np.arange(0.0, 10.0 + 1e-9, 0.5):
        for lam in np.arange(0.0, 6.0 + 1e-9, 0.25):
            worst = max(worst, abs(soft_risk(mu, lam) - quad_soft_risk(mu, lam)))
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 (closed-form risk)",
        worst <= 1e-9 and elapsed < 5.0,
        f"max |closed form - quadrature| = {worst:.3e} in {elapsed:.2f}s",
    )


def test_02_null_risk_sandwich():
    lams = np.linspace(0.02, 8.0, 400)
    values = np.array([soft_risk(0.0, l) for l in lams])
    tail = 4.0 * norm_cdf(-lams)
    violations = int(np.sum(values < tail / (lams**2 + 5.0) - 1e-15))
    violations += int(np.sum(values > tail / (lams**2 + 2.0) + 1e-15))
    report(
        "criterion 2 (null-risk sandwich)",
        violations == 0,
        f"{violations} violations over 400 levels in (0, 8]",
    )


def test_03_selector_brute_force_equivalence():
    rng = np.random.default_rng(20240803)
    mismatches = 0
    order_violations = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 51))
        signal = rng.uniform(0.0, 4.0, size=n) * (rng.random(n) < 0.4)
        x = signal + rng.standard_normal(n)
        a1 = float(rng.uniform(0.02, 0.5))
        a2 = float(rng.uniform(0.01, a1))
        up = step_up_level(x, a1)
        down = step_down_level(x, a2)
        if up != _brute_step_up(x, a1) or down != _brute_step_down(x, a2):
            mismatches += 1
        if not up <= down:
            order_violations += 1
    report(
        "criterion 3 (selector = brute force)",
        mismatches == 0 and order_violations == 0,
        f"{mismatches} mismatches, {order_violations} ordering violations "
        "on 10^4 instances",
    )


def test_04_step_up_exponential_tail():
    start = time.perf_counter()
    n, reps = 100, 100_000
    alpha1, alpha1p = 0.05, 0.1
    r = alpha1 / alpha1p
    nu = r - 1.0 - math.log(r)
    xi = candidate_levels(n, alpha1)
    rng = np.random.default_rng(20240804)
    worst_margin = -math.inf
    freqs = np.zeros(11)
    # accumulate the events {step-up level <= xi_k} in replicate batches
    hit_any = np.zeros(reps, dtype=bool)
    mags = np.abs(rng.standard_normal((reps, n)))
    mags.sort(axis=1)
    mags = mags[:, ::-1]
    for k in range(n, 0, -1):
        hit_any |= mags[:, k - 1] >= xi[k - 1]
        if k <= 10:
            freqs[k] = hit_any.mean()
    ok = True
    for k in range(1, 11):
        freq = freqs[k]
        bound = math.exp(-nu * k)
        se = math.sqrt(max(freq * (1 - freq), 1.0 / reps) / reps)
        margin = freq - (bound + 3 * se)
        worst_margin = max(worst_margin, margin)
        ok = ok and margin <= 0
    elapsed = time.perf_counter() - start
    report(
        "criterion 4 (step-up exponential tail)",
        ok and elapsed < 60.0,
        f"worst freq-bound margin {worst_margin:.3e} over k=1..10, "
        f"{reps} replicates in {elapsed:.1f}s",
    )


def _grid_loss_min(x, theta, grid_size=100_000):
    """Dense-grid minimum of lambda -> ||soft(x, lambda) - theta||^2.

    The uniform grid is augmented with the kink levels |x_i|, where the
    loss has corners and a uniform grid alone is only first-order accurate.
    """
    order = np.argsort(np.abs(x))
    mags = np.abs(x)[order]
    a = (x - theta)[order] ** 2
    b = (np.sign(x) * (x - theta))[order]
    t2 = theta[order] ** 2
    suf_a = np.concatenate([np.cumsum(a[::-1])[::-1], [0.0]])
    suf_b = np.concatenate([np.cumsum(b[::-1])[::-1], [0.0]])
    pre_t = np.concatenate([[0.0], np.cumsum(t2)])
    grid = np.concatenate([np.linspace(0.0, mags[-1] + 1.0, grid_size), mags])
    idx = np.searchsorted(mags, grid, side="right")
    active = x.size - idx
    losses = pre_t[idx] + suf_a[idx] - 2.0 * grid * suf_b[idx] + grid**2 * active
    return min(float(losses.min()), float(theta @ theta))


def test_05_oracle_minimizer_vs_grid():
    rng = np.random.default_rng(20240805)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 101))
        theta = rng.uniform(-5.0, 5.0, size=n) * (rng.random(n) < 0.4)
        x = theta + rng.standard_normal(n)
        _, loss = oracle_loss_min(x, theta)
        grid_best = _grid_loss_min(x, theta)
        worst = max(worst, abs(loss - grid_best) / max(1.0, grid_best))
    report(
        "criterion 5 (oracle pathwise minimizer)",
        worst <= 1e-6,
        f"max relative gap to 10^5-point grid = {worst:.3e} on 10^3 instances",
    )


def test_06_common_mean_study():
    start = time.perf_counter()
    n, reps = 10_000, 500
    weak = common_mean_experiment(n, 0.5 / math.sqrt(n), reps, seed=20240806)
    null = common_mean_experiment(n, 0.0, reps, seed=20240807)
    weak_rows = {label: (mean, se) for label, mean, se in weak.rows}
    null_rows = {label: (mean, se) for label, mean, se in null.rows}
    soft_weak = weak_rows["fdr_soft"][0]
    mean_weak, mean_se = weak_rows["sample_mean"]
    soft_null = null_rows["fdr_soft"][0]
    elapsed = time.perf_counter() - start
    ok = (
        soft_weak < 0.8
        and soft_weak < mean_weak
        and abs(mean_weak - 1.0) <= 3 * mean_se
        and soft_null < 0.2
        and elapsed < 600.0
    )
    report(
        "criterion 6 (common-mean study)",
        ok,
        f"soft risk {soft_weak:.3f} (< 0.8, < sample mean {mean_weak:.3f}) at "
        f"mu=0.5/sqrt(n); {soft_null:.3f} (< 0.2) at mu=0; {elapsed:.0f}s",
    )


def test_07_adaptive_ratio_trend():
    # the nominal rate must sit below 1/2 for ratio optimality; a rate this
    # close to the boundary keeps the selected level risk-oriented rather
    # than testing-oriented, which is what the ratio limits calibrate
    config = FdrConfig(alpha1=0.45, alpha2=0.225, alpha1p=0.9, alpha2p=0.1125)
    ratios = {}
    slacks = {}
    for n in (2**10, 2**14):
        k = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
        a = 0.8 * math.sqrt(2.0 * math.log(n))
        theta = spikes(n, k, a)
        rep = regret_experiment(theta, replicates=300, seed=20240808, config=config)
        ratios[n] = rep.ratio
        slacks[n] = 3.0 * rep.mc.std_error / rep.exact_total
    ok = (
        ratios[2**10] - slacks[2**10] <= 1.5
        and ratios[2**14] - slacks[2**14] <= 1.3
        and ratios[2**14] <= ratios[2**10] + slacks[2**10] + slacks[2**14]
    )
    report(
        "criterion 7 (adaptive ratio trend)",
        ok,
        f"risk/(n*eta) = {ratios[2**10]:.3f} at n=2^10 (limit 1.5), "
        f"{ratios[2**14]:.3f} at n=2^14 (limit 1.3), 3-SE slack",
    )


def test_08_concentration_bound():
    rng = np.random.default_rng(20240809)
    family = ThresholdFamily("soft")
    failures = []
    for i in range(10):
        n = 100 if i < 5 else 10_000
        reps = 400 if n == 100 else 150
        theta = rng.uniform(0.0, 4.0, size=n) * (rng.random(n) < 0.3)
        level = float(rng.uniform(0.3, 3.0))
        check = concentration_check(theta, level, family, reps, seed=1000 + i)
        if not check.passed:
            failures.append((n, level, check.variance, check.bound))
    report(
        "criterion 8 (concentration bound)",
        not failures,
        f"{10 - len(failures)}/10 random configs within 4/n + 3 SE "
        f"at n in {{100, 10^4}}{'; failures: ' + repr(failures) if failures else ''}",
    )


def test_09_fdr_control():
    n, reps = 1000, 10_000
    n_null = 900
    alpha1 = 0.05
    theta = np.concatenate([np.zeros(n_null), np.full(n - n_null, 4.0)])
    xi = candidate_levels(n, alpha1)
    rng = np.random.default_rng(20240810)
    fdp = np.empty(reps)
    for i in range(reps):
        x = theta + rng.standard_normal(n)
        mags = np.abs(x)
        level = step_up_level(x, alpha1)
        if math.isinf(level):
            fdp[i] = 0.0
            continue
        rejected = mags >= level
        total = int(rejected.sum())
        false = int(rejected[:n_null].sum())
        fdp[i] = false / max(total, 1)
    fdr = float(fdp.mean())
    se = float(fdp.std(ddof=1) / math.sqrt(reps))
    bound = alpha1 * (n_null / n) + 3 * se
    report(
        "criterion 9 (FDR control)",
        fdr <= bound,
        f"empirical FDR {fdr:.4f} <= {alpha1}*0.9 + 3 SE = {bound:.4f}",
    )


def test_10_minimax_formula():
    results = []
    ok = True
    n = 10_000
    for k in (1, 5, 20):
        rep = minimax_ball_experiment(
            n, 0.0, k / n, replicates=150, seed=20240811 + k
        )
        lo = (rep.mc.mean - 3 * rep.mc.std_error) / rep.benchmark
        hi = (rep.mc.mean + 3 * rep.mc.std_error) / rep.benchmark
        # factor-2 slack for the asymptotic constant, with 3-SE tolerance
        ok = ok and lo <= 2.0 and hi >= 0.5
        results.append(f"k={k}: ratio {rep.ratio:.3f}")
    report(
        "criterion 10 (minimax formula)",
        ok,
        "; ".join(results) + " (required within factor 2)",
    )


def test_11_special_functions():
    ps = np.geomspace(1e-12, 0.5, 300)
    ps = np.concatenate([ps, 1.0 - ps])
    round_trip = float(np.max(np.abs(norm_cdf(norm_quantile(ps)) - ps)))

    recursion = 0.0
    for lam in (0.5, 1.0, 2.0, 5.0, 10.0):
        for k in (0, 1):
            lhs = (k + 1) * exp_gauss_moment(lam, k)
            rhs = exp_gauss_moment(lam, k + 1) + exp_gauss_moment(lam, k + 2) / lam**2
            recursion = max(recursion, abs(lhs - rhs) / abs(lhs))

    z_ok = all(
        critical_tail_level(n) ** 2 > math.log(n)
        for n in list(range(2, 1001)) + [10_000, 1_000_000]
    )
    ok = round_trip <= 1e-12 and recursion <= 1e-10 and z_ok
    report(
        "criterion 11 (special functions)",
        ok,
        f"round trip {round_trip:.2e} (<=1e-12), J recursion {recursion:.2e} "
        f"(<=1e-10), z_n^2 > log n: {z_ok}",
    )
