"""Monte Carlo harness: signal generators, risk experiments, exact oracles.

Noise replication is counter-based: replicate ``i`` always draws from a
Philox stream keyed by the root seed with block counter ``i << 192``, so
results are bit-reproducible for a given (seed, config) regardless of
block sizes or evaluation order, and distinct replicates can never share
stream state.  Each replicate is drawn once: an experiment that compares
several statistics evaluates all of them on that one draw.

Replicates are drawn and evaluated in (B, n) blocks, row ``i`` of the run
from stream ``i``, with ``B = max(1, 2**14 // n)``: 16 rows at n = 1024 and
one row from n = 8193 on.  The experiments evaluate each block at once:
selection, thresholding at a (B, 1) column of per-row levels, and the
pathwise oracle ``oracle_loss_min``, which takes a (B, n) block and returns
arrays of per-row levels and losses.  Every per-row value equals what the
same computation gives on that row alone, bit for bit; each row's squared
loss is still its own dot product.

A call reads each coordinate of a block a fixed few times, in buffers kept
across its blocks: the draws are formed in place in one buffer, which the
next block overwrites once the statistic has returned, ``|x|`` is computed
once per block, and each threshold loss comes from the survivors
``|x_i| > level`` alone (``_threshold_losses``), bit for bit the dense loss.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .risk import EmpiricalPrior, optimal_levels
from .selector import FdrConfig, _block_lambdas
from .thresholds import ThresholdFamily, _check_level, apply_family

__all__ = [
    "SignalGenerator",
    "minimax_level",
    "minimax_benchmark",
    "McEstimate",
    "mc_mean",
    "mc_risk",
    "oracle_loss_min",
    "RegretReport",
    "regret_experiment",
    "CommonMeanReport",
    "common_mean_experiment",
    "MinimaxReport",
    "minimax_ball_experiment",
    "ConcentrationReport",
    "concentration_check",
]


def _check_ball(p: float, radius: float, weak: bool = False) -> None:
    """The l_p ball of a least-favorable signal: ``p >= 0``, a finite positive radius."""
    if not (p >= 0.0 and 0.0 < radius < math.inf):
        raise ValueError("need p >= 0 and 0 < radius < inf")
    if weak and p == 0.0:
        raise ValueError("weak balls require p > 0")


def minimax_level(n: int, p: float, radius: float) -> float:
    """Calibrated threshold level ``1 v sqrt(2 log(n ^ radius^(-p')))``.

    ``p' = p`` for ``p > 0`` and 1 for ``p = 0`` (where ``radius`` is the
    sparsity fraction).  This is the level at which least-favorable signals
    concentrate.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_ball(p, radius)
    pp = p if p > 0.0 else 1.0
    try:
        inner = min(float(n), radius**-pp)
    except OverflowError:  # radius^(-p') lies past the float range, far above n
        inner = float(n)
    return max(1.0, math.sqrt(2.0 * math.log(max(inner, 1.0))))


def minimax_benchmark(n: int, p: float, radius: float, weak: bool = False) -> float:
    """Leading-order minimax risk over the ball: ``M n radius^p' level^(2-p)``.

    ``M = 1`` for strong balls and ``2/(2-p)`` for weak balls (``p < 2``).
    A benchmark that overflows or falls below the smallest normal float is
    rejected: the risk ratio against it would be meaningless.
    """
    if not (0.0 <= p < 2.0):
        raise ValueError("benchmark requires 0 <= p < 2")
    _check_ball(p, radius, weak)
    lam = minimax_level(n, p, radius)
    mult = 1.0 if not weak else 2.0 / (2.0 - p)
    pp = p if p > 0.0 else 1.0
    try:
        bench = mult * n * radius**pp * lam ** (2.0 - p)
    except OverflowError:
        bench = math.inf
    if not sys.float_info.min <= bench < math.inf:
        raise ValueError("benchmark must be a finite normal float: radius is out of range for n")
    return bench


@dataclass(frozen=True)
class SignalGenerator:
    """Deterministic mean-vector configurations for experiments.

    kinds:
      zero                     all coordinates 0
      common_mean(mu)          all coordinates mu
      spikes(count, value)     `count` coordinates at `value`, rest 0
      least_favorable(p, radius, weak, level)
                               hardest configuration in the given ball:
                               strong balls put floor(n radius^p / level^p)
                               spikes at `level` (floor(n radius) for p=0);
                               weak balls use the capped ordered profile
                               min(radius (n/k)^(1/p), level);
                               level, minimax_level by default, lies in (0, inf).
    """

    kind: str
    mu: float = 0.0
    count: int = 0
    value: float = 0.0
    p: float = 0.0
    radius: float = 0.0
    weak: bool = False
    level: float | None = None

    @classmethod
    def zero(cls) -> "SignalGenerator":
        return cls("zero")

    @classmethod
    def common_mean(cls, mu: float) -> "SignalGenerator":
        return cls("common_mean", mu=float(mu))

    @classmethod
    def spikes(cls, count: int, value: float) -> "SignalGenerator":
        if count < 0:
            raise ValueError("count must be >= 0")
        return cls("spikes", count=int(count), value=float(value))

    @classmethod
    def least_favorable(
        cls, p: float, radius: float, weak: bool = False, level: float | None = None
    ) -> "SignalGenerator":
        _check_ball(p, radius, weak)
        if level is not None and not 0.0 < level < math.inf:
            raise ValueError("level must lie in (0, inf)")
        return cls("least_favorable", p=float(p), radius=float(radius), weak=weak, level=level)

    def realize(self, n: int) -> np.ndarray:
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.kind == "zero":
            return np.zeros(n)
        if self.kind == "common_mean":
            return np.full(n, self.mu)
        if self.kind == "spikes":
            if self.count > n:
                raise ValueError("count must not exceed n")
            theta = np.zeros(n)
            theta[: self.count] = self.value
            return theta
        if self.kind == "least_favorable":
            lam = self.level if self.level is not None else minimax_level(n, self.p, self.radius)
            if self.weak:
                k = np.arange(1, n + 1)
                return np.minimum(self.radius * (n / k) ** (1.0 / self.p), lam)
            if self.p == 0.0:
                m = min(int(math.floor(n * self.radius)), n)
            else:
                m = min(int(math.floor(n * self.radius**self.p / lam**self.p)), n)
            theta = np.zeros(n)
            theta[:m] = lam
            return theta
        raise ValueError(f"unknown signal kind: {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "zero":
            return "zero"
        if self.kind == "common_mean":
            return f"common_mean(mu={self.mu:g})"
        if self.kind == "spikes":
            return f"spikes(count={self.count}, value={self.value:g})"
        return (
            f"least_favorable(p={self.p:g}, radius={self.radius:g}, "
            f"weak={self.weak}, level={self.level})"
        )


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error and provenance."""

    mean: float
    std_error: float
    replicates: int
    seed: int
    config_fingerprint: str


# Replicates are evaluated in blocks of at most this many draws in total, and
# at least one row.  At n = 1024 a 64-row block grew the peak RSS by about
# 8 MB, against about 2 MB for 16 rows.
_BLOCK_ELEMENTS = 2**14


@dataclass(frozen=True)
class _Block:
    """A statistic of a (B, n) block of draws: B values, or a (B, S) array."""

    fn: Callable[[np.ndarray], np.ndarray]


def _replicate_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 192))


def _fingerprint(theta: np.ndarray, **fields) -> str:
    """Short digest of a run's settings, with ``n`` and a digest of ``theta``."""
    digest = hashlib.sha256(np.ascontiguousarray(theta, dtype="<f8")).hexdigest()[:16]
    blob = json.dumps({**fields, "n": theta.size, "theta": digest}, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _samples(theta: np.ndarray, statistic, replicates: int, seed: int, antithetic=False) -> np.ndarray:
    """``statistic(theta + z)`` on blocks of draws, row ``i`` of ``z`` from stream ``i``.

    ``statistic`` maps a (B, n) block to B values, giving an (R,) array, or
    to a (B, S) array, giving an (R, S) array.  Every block is drawn into one
    buffer and ``theta + z`` is formed in place, so the next block overwrites
    the one passed to ``statistic``.  With ``antithetic=True`` the rows are
    the pair averages of the statistic at ``theta +/- z_j`` over the first
    half of the streams, each formed in a new array.
    """
    if theta.ndim != 1 or theta.size == 0:
        raise ValueError("theta must be a nonempty 1-d vector")
    if replicates < 2:
        raise ValueError("replicates must be >= 2")
    if not 0 <= seed < 2**128:
        raise ValueError("seed must be >= 0 and < 2**128")
    if antithetic and replicates % 2:
        raise ValueError("antithetic pairing requires an even replicate count")
    count = replicates // 2 if antithetic else replicates
    step = min(count, max(1, _BLOCK_ELEMENTS // theta.size))
    draws = np.empty((step, theta.size))
    parts = []
    for start in range(0, count, step):
        z = draws[: min(step, count - start)]
        for row, i in enumerate(range(start, start + z.shape[0])):
            _replicate_rng(seed, i).standard_normal(out=z[row])
        if antithetic:
            part = np.asarray(statistic(theta + z), dtype=float)
            part = 0.5 * (part + np.asarray(statistic(theta - z), dtype=float))
        else:
            z += theta
            part = np.asarray(statistic(z), dtype=float)
        parts.append(part)
    return np.concatenate(parts)


def _row_losses(theta: np.ndarray, estimates) -> np.ndarray:
    """``||row - theta||^2`` for each row of a block of estimates."""
    return np.array([float(d @ d) for d in estimates - theta])


def _threshold_losses(theta: np.ndarray):
    """A function ``(x, absx, lam, family) -> ||t(row, lam_row) - theta||^2`` per row.

    ``x`` is a (B, n) block, ``absx`` its magnitudes and ``lam`` a (B,)
    array of levels.  Every family maps ``|x_i| <= lam`` to a signed zero,
    whose residual ``+-0 - theta_i`` squares to ``theta_i^2``, so the family
    runs on the survivors ``|x_i| > lam`` alone.  Their residuals are
    scattered into a buffer whose rows otherwise hold ``-theta``, each row's
    loss is its own dot product, and the buffer is restored: the dot
    product sees the values of the dense ``t(x, lam) - theta`` in the same
    order.  The buffer is allocated at the first block and kept across the
    blocks of a call.
    """
    resid = None

    def losses(x, absx, lam, family):
        nonlocal resid
        count, n = x.shape
        if resid is None:
            resid = np.negative(theta, out=np.empty_like(x))
        flat = resid[:count].reshape(-1)
        at = np.flatnonzero(absx > lam[:, None])
        rows, cols = np.divmod(at, n)
        err = apply_family(x.take(at), lam[rows], family)
        ths = theta.take(cols)
        err -= ths
        flat[at] = err
        out = np.array([float(d @ d) for d in resid[:count]])
        flat[at] = np.negative(ths, out=ths)
        return out

    return losses


def _fdr_losses(theta: np.ndarray, family: ThresholdFamily, config: FdrConfig):
    """The block statistic: per row, the squared loss of ``family`` at the selected level."""
    losses = _threshold_losses(theta)

    def statistic(x):
        absx = np.abs(x)
        return losses(x, absx, _block_lambdas(absx, config), family)

    return statistic


def mc_mean(
    theta,
    statistic: Callable[[np.ndarray], float | Sequence[float]],
    replicates: int,
    seed: int,
    antithetic: bool = False,
    label: str = "",
) -> McEstimate | tuple[McEstimate, ...]:
    """Average ``statistic(theta + noise)`` over independent replicates.

    With ``antithetic=True`` (requires an even count) pair ``j`` evaluates
    ``theta + z_j`` and ``theta - z_j`` on replicate ``j``'s stream, and the
    standard error is computed over the independent pair averages.  A
    statistic returning a fixed-length sequence of S floats is evaluated on
    the same draws for every component, and the result is a tuple of S
    estimates sharing one fingerprint.

    The draws come in (B, n) blocks of ``max(1, 2**14 // n)`` rows (see the
    module docstring), and ``statistic`` is called on each row of a copy of
    the block in turn, so it may keep its argument.  The package's
    experiments pass a private statistic of a whole block instead: it reads
    the block in the buffer that the next block reuses once the statistic
    returns, and takes each threshold loss from the survivors only (see
    ``_threshold_losses``).  It may call ``oracle_loss_min`` on the block,
    which then returns a (B,) array of levels and one of losses.
    """
    theta = np.asarray(theta, dtype=float)
    seed = int(seed)
    if isinstance(statistic, _Block):
        block = statistic.fn
    else:
        block = lambda x: [statistic(row) for row in x.copy()]
    samples = _samples(theta, block, replicates, seed, antithetic)
    fp = _fingerprint(theta, label=label, replicates=replicates, seed=seed, antithetic=antithetic)

    def summary(column: np.ndarray) -> McEstimate:
        se = float(column.std(ddof=1) / math.sqrt(column.size))
        return McEstimate(float(column.mean()), se, replicates, seed, fp)

    if samples.ndim == 1:
        return summary(samples)
    return tuple(summary(samples[:, j]) for j in range(samples.shape[1]))


def mc_risk(
    theta,
    estimate_fn: Callable[[np.ndarray], np.ndarray],
    replicates: int,
    seed: int,
    antithetic: bool = False,
    label: str = "",
) -> McEstimate:
    """Monte Carlo total squared-error risk ``E ||estimate(X) - theta||^2``."""
    theta = np.asarray(theta, dtype=float)

    def loss(x: np.ndarray) -> float:
        d = np.asarray(estimate_fn(x), dtype=float) - theta
        return float(d @ d)

    return mc_mean(theta, loss, replicates, seed, antithetic=antithetic, label=label or "risk")


def oracle_loss_min(x, theta):
    """Exact minimum over levels of the soft-threshold loss on one draw.

    Minimizes ``||soft(x, L) - theta||^2`` over ``L in [0, inf]``.  The loss
    is piecewise quadratic in ``L`` between consecutive order statistics of
    ``|x|``, so each segment is minimized in closed form.  Returns
    ``(level, loss)`` with ``level = +inf`` when zeroing everything is
    optimal (always the case for ``theta = 0``, where the loss at +inf is 0).

    ``x`` may also be a (B, n) block of draws around the same ``theta``;
    the result is then a pair of arrays ``(levels, losses)`` whose entries
    equal the one-draw results on each row, bit for bit.
    """
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or x.ndim not in (1, 2) or x.shape[-1] != theta.size or x.size == 0:
        raise ValueError("x must be a nonempty vector or block of rows matching the 1-d theta")
    if not (np.isfinite(x).all() and np.isfinite(theta).all()):
        raise ValueError("x and theta must be finite")
    block = x.reshape(-1, theta.size)
    count, n = block.shape
    # Buffers are reused and dropped once dead: each full-size temporary
    # costs page faults.  ``order`` holds flat indices into the block, except
    # while ``theta`` is gathered.
    absx = np.abs(block)
    order = np.argsort(absx, axis=1)
    rows = np.arange(count)
    start = rows[:, None] * n
    order += start
    mags = absx.take(order)
    # distinct magnitudes have one sorting permutation; rows with ties take
    # the stable one, so that every sum runs in the same order in any block
    tied = (mags[:, 1:] == mags[:, :-1]).any(axis=1)
    if tied.any():
        order[tied] = np.argsort(absx[tied], axis=1, kind="stable") + start[tied]
    del absx
    xs = block.take(order)
    order -= start
    ths = theta.take(order)
    del order
    # copysign, not sign: an active x_i = 0 (only at L = 0) must still cost theta_i^2
    signed_err = np.copysign(1.0, xs)
    xs -= ths
    signed_err *= xs
    del xs

    # prefix_kill[:, m] = loss of the m smallest-magnitude coords once killed
    prefix_kill = np.zeros((count, n + 1))
    ths **= 2
    np.cumsum(ths, axis=1, out=prefix_kill[:, 1:])
    del ths
    total = prefix_kill[:, -1]
    # suffix sums over the active (surviving) coords
    suf1 = np.empty_like(signed_err)
    np.cumsum(signed_err[:, ::-1], axis=1, out=suf1[:, ::-1])
    suf2 = signed_err
    suf2 **= 2
    np.cumsum(suf2[:, ::-1], axis=1, out=suf2[:, ::-1])

    # On segment m, L in [|x|_(m-1), |x|_(m)], the m smallest are killed and
    # the loss is the convex quadratic below, so its minimum is at the
    # stationary point clipped to the segment.  A coordinate with |x| = L
    # costs theta^2 either way, so tied (one-point) segments are exact too.
    cnt = np.arange(n, 0, -1, dtype=float)
    floor = np.empty_like(mags)
    floor[:, 0] = 0.0
    floor[:, 1:] = mags[:, :-1]
    levels = suf1 / cnt
    np.clip(levels, floor, mags, out=levels)
    del mags
    # prefix_kill + suf2 - 2 L suf1 + cnt L^2, in that order, in place
    losses = np.add(prefix_kill[:, :-1], suf2, out=suf2)
    term = np.multiply(2.0, levels, out=floor)
    term *= suf1
    losses -= term
    np.multiply(cnt, levels, out=term)
    term *= levels
    losses += term
    best = np.argmin(losses, axis=1)
    best_loss = losses[rows, best]
    zero_all = best_loss >= total - 1e-15 * np.maximum(1.0, total)
    levels = np.where(zero_all, math.inf, levels[rows, best])
    losses = np.where(zero_all, total, best_loss)
    if x.ndim == 1:
        return float(levels[0]), float(losses[0])
    return levels, losses


@dataclass(frozen=True)
class RegretReport:
    """Adaptive risk against the exact fixed-level optimum."""

    n: int
    mc: McEstimate
    exact_total: float
    regret: float
    ratio: float
    degenerate: bool
    oracle_mc: McEstimate | None = None
    oracle_ratio: float = math.nan


def regret_experiment(
    theta,
    replicates: int,
    seed: int,
    config: FdrConfig = FdrConfig(),
    family: ThresholdFamily = ThresholdFamily("soft"),
    strong: bool = False,
) -> RegretReport:
    """Monte Carlo risk of the adaptive rule vs the exact optimum ``n eta``.

    With ``strong=True`` also estimates the pathwise oracle benchmark
    ``E min_L ||soft(X, L) - theta||^2`` on the same draws.  A hard
    ``family`` runs as given, though it lies outside the smooth-family
    guarantees.
    """
    theta = np.asarray(theta, dtype=float)
    prior = EmpiricalPrior.from_vector(theta)
    opt = optimal_levels(prior)
    exact_total = opt.risk_exact * theta.size

    loss = _fdr_losses(theta, family, config)
    if strong:
        statistic = _Block(lambda x: np.column_stack((loss(x), oracle_loss_min(x, theta)[1])))
    else:
        statistic = _Block(loss)
    result = mc_mean(theta, statistic, replicates, seed, label=f"regret:{family.describe()}")
    mc, oracle_mc = result if strong else (result, None)
    oracle_ratio = math.nan
    if strong and oracle_mc.mean > 1e-10:
        oracle_ratio = mc.mean / oracle_mc.mean
    degenerate = exact_total < 1e-10
    ratio = math.nan if degenerate else mc.mean / exact_total
    return RegretReport(
        theta.size, mc, exact_total, mc.mean - exact_total, ratio, degenerate, oracle_mc, oracle_ratio
    )


@dataclass(frozen=True)
class CommonMeanReport:
    """Risk table for the shared-mean configuration."""

    n: int
    mu: float
    rows: tuple[tuple[str, float, float], ...]
    exact_total: float
    config_fingerprint: str


def common_mean_experiment(
    n: int,
    mu: float,
    replicates: int,
    seed: int,
    config: FdrConfig = FdrConfig(),
    firm_slope: float = 1.5,
) -> CommonMeanReport:
    """Compare adaptive thresholding with the sample mean when all means equal ``mu``.

    The sample-mean comparator has total risk exactly 1; thresholding wins
    whenever the common mean is small against ``1/sqrt(n)``.
    """
    soft_fam = ThresholdFamily("soft")
    firm_fam = ThresholdFamily("firm", firm_slope=firm_slope)
    theta = SignalGenerator.common_mean(mu).realize(int(n))
    prior = EmpiricalPrior.from_vector(theta)
    exact_total = optimal_levels(prior).risk_exact * n

    loss = _threshold_losses(theta)

    def losses(x: np.ndarray) -> np.ndarray:
        # one selection serves both families; the comparator is the row mean
        absx = np.abs(x)
        level = _block_lambdas(absx, config)
        means = np.array([row.mean() for row in x])[:, None]
        return np.column_stack(
            (loss(x, absx, level, soft_fam), loss(x, absx, level, firm_fam), _row_losses(theta, means))
        )

    ests = mc_mean(theta, _Block(losses), replicates, seed, label="common_mean")
    labels = ("fdr_soft", "fdr_firm", "sample_mean")
    rows = [(label, est.mean, est.std_error) for label, est in zip(labels, ests)]
    fp = _fingerprint(
        theta, kind="common_mean", replicates=int(replicates), seed=int(seed),
        family=f"soft,{firm_fam.describe()}", level="adaptive",
    )
    return CommonMeanReport(int(n), float(mu), tuple(rows), exact_total, fp)


@dataclass(frozen=True)
class MinimaxReport:
    """Adaptive risk against the ball's leading-order minimax benchmark."""

    n: int
    p: float
    radius: float
    weak: bool
    level: float
    mc: McEstimate
    benchmark: float
    ratio: float


def minimax_ball_experiment(
    n: int,
    p: float,
    radius: float,
    replicates: int,
    seed: int,
    config: FdrConfig = FdrConfig(),
    family: ThresholdFamily = ThresholdFamily("soft"),
    weak: bool = False,
) -> MinimaxReport:
    """Run the adaptive rule on the least-favorable signal of a ball.

    A hard ``family`` runs as given, as in ``regret_experiment``.
    """
    bench = minimax_benchmark(int(n), p, radius, weak=weak)
    gen = SignalGenerator.least_favorable(p, radius, weak=weak)
    theta = gen.realize(int(n))
    loss = _Block(_fdr_losses(theta, family, config))
    mc = mc_mean(theta, loss, replicates, seed, label=f"minimax:{gen.describe()}")
    return MinimaxReport(
        int(n), float(p), float(radius), weak, minimax_level(int(n), p, radius), mc, bench, mc.mean / bench
    )


@dataclass(frozen=True)
class ConcentrationReport:
    """Variance of the scaled loss against its isoperimetric bound."""

    n: int
    variance: float
    bound: float
    se_variance: float
    passed: bool
    config_fingerprint: str


def concentration_check(
    theta,
    level: float,
    family: ThresholdFamily,
    replicates: int,
    seed: int,
) -> ConcentrationReport:
    """Check ``Var(||t(X, level) - theta|| / sqrt(n)) <= 4 slope^2 / n``.

    The scaled loss is a ``slope/sqrt(n)``-Lipschitz function of the noise,
    so Gaussian concentration bounds its variance by ``4 slope^2 / n``; the
    check passes when the sample variance is within three standard errors
    of that bound.  Requires a smooth family and a finite ``n * max|theta|^2``.
    """
    if not family.is_smooth:
        raise ValueError("concentration bound requires a smooth family")
    theta = np.asarray(theta, dtype=float)
    n = EmpiricalPrior.from_vector(theta).n  # the prior owns the n * max|theta|^2 rule
    level = _check_level(float(level))

    loss = _threshold_losses(theta)
    scaled_loss = lambda x: np.sqrt(loss(x, np.abs(x), np.full(x.shape[0], level), family) / n)
    samples = _samples(theta, scaled_loss, int(replicates), int(seed))
    var = float(samples.var(ddof=1))
    centered = samples - samples.mean()
    m4 = float(np.mean(centered**4))
    se_var = math.sqrt(max(m4 - var * var, 0.0) / samples.size)
    bound = 4.0 * family.slope**2 / n
    fp = _fingerprint(
        theta, kind="concentration", replicates=int(replicates), seed=int(seed),
        family=family.describe(), level=level,
    )
    return ConcentrationReport(n, var, bound, se_var, var <= bound + 3.0 * se_var, fp)
