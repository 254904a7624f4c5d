"""Monte Carlo harness: signals, risk experiments, exact oracles.

The signals are plain vectors: ``spikes`` (an l_0 ball), the
``least_favorable`` vector of an l_p ball, and the common mean
``np.full(n, mu)``.

Noise replication is counter-based: replicate ``i`` always draws from a
Philox stream keyed by the root seed with block counter ``i << 192``, so
results are bit-reproducible for a given (seed, config) regardless of
block sizes or evaluation order, and distinct replicates can never share
stream state.  Each thread keeps one ``Philox`` and re-keys it per
replicate by assigning its state (key and counter, with an empty output
buffer), which draws exactly what a new ``Philox`` at that key and counter
would, without building one; no generator is shared across threads.  The
signal size, the replicate count and the seed must be integers.  Each
replicate is drawn once: an experiment that compares several statistics
evaluates all of them on that one draw.

Each experiment returns a flat report that holds only what it computed:
its fields are the metric rows of the CLI's ``experiment.csv``, in order,
then ``config_fingerprint``, a digest of the run's settings and signal.
A field that the run did not compute is ``None``.  ``mc_mean`` returns
``McEstimate`` pairs ``(mean, std_error)`` and hashes nothing.

Every replicate is one draw ``theta + z_i``.  One loop, ``_samples``,
draws them for ``mc_mean`` and ``concentration_check`` alike, in (B, n)
blocks, row ``i`` of the run from stream ``i``, with
``B = max(1, 2**14 // n)``: 16 rows at n = 1024 and one row from n = 8193
on.  Every statistic is a block statistic: it maps a block to B values or
to a (B, S) array.  The experiments evaluate each block at once:
selection, thresholding at a (B, 1) column of per-row levels, and the
pathwise oracle ``oracle_loss_min``, which takes a (B, n) block and
returns arrays of per-row levels and losses.  Every per-row value equals
what the same computation gives on that row alone, bit for bit; each
row's squared loss is still its own dot product.  ``mc_risk`` alone takes
an estimator of one vector, which it applies row by row.

Every experiment evaluates its threshold rules through one block
statistic, ``_threshold_losses(theta, families, level)``, at the level
an ``FdrConfig`` selects per row or at a fixed level.  Per block it writes
``|x|`` once, gathers the survivors ``|x_i| > level`` once and runs each
family on them alone, bit for bit the dense loss; each block's selection
computes the candidate levels it compares.  Strong regret adds the oracle
to that statistic: the oracle writes ``|x|`` and its sorted rows, and the
selection reads those rows, so each row is sorted once.  An experiment
keeps three buffers of ``8 max(2**14, n)`` bytes on its thread
(``gauss._kept``), 2.4 MB at n = 1e5, for the largest n that thread has
run: the draws, formed in place and overwritten by the next block or call
once the statistic has returned, ``|x|`` and the residuals, which hold the
sorted rows until the selection has read them.  ``oracle_loss_min`` takes
six buffers; in a strong run two of them are the statistic's, so with the
draws it keeps seven: 0.9 MB at n = 1024.  The next call reuses them
instead of faulting fresh pages in.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gauss import _integer, _kept
from .risk import EmpiricalPrior, optimal_levels
from .selector import FdrConfig, _block_lambdas
from .thresholds import ThresholdFamily, _check_level, apply_family

__all__ = [
    "spikes",
    "least_favorable",
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


def _check_ball(p: float, radius: float, weak: bool = False) -> float:
    """Check an l_p ball, ``p >= 0`` and a finite positive radius, a fraction at most 1
    for ``p = 0``, and return its exponent ``p' = p`` for ``p > 0`` and 1 for ``p = 0``."""
    if not (p >= 0.0 and 0.0 < radius < math.inf):
        raise ValueError("need p >= 0 and 0 < radius < inf")
    if p == 0.0 and radius > 1.0:
        raise ValueError("an l_0 radius is a fraction: need radius <= 1 for p = 0")
    if weak and p == 0.0:
        raise ValueError("weak balls require p > 0")
    return float(p) if p > 0.0 else 1.0


def minimax_level(n: int, p: float, radius: float) -> float:
    """Calibrated threshold level ``1 v sqrt(2 log(n ^ radius^(-p')))``.

    ``p' = p`` for ``p > 0`` and 1 for ``p = 0`` (where ``radius`` is the
    sparsity fraction).  This is the level at which least-favorable signals
    concentrate.
    """
    n = _integer("n", n, 1)
    pp = _check_ball(p, radius)
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
    pp = _check_ball(p, radius, weak)
    lam = minimax_level(n, p, radius)
    mult = 1.0 if not weak else 2.0 / (2.0 - p)
    try:
        bench = mult * n * radius**pp * lam ** (2.0 - p)
    except OverflowError:
        bench = math.inf
    if not sys.float_info.min <= bench < math.inf:
        raise ValueError("benchmark must be a finite normal float: radius is out of range for n")
    return bench


def spikes(n: int, count: int, value: float) -> np.ndarray:
    """A length-``n`` signal with its first ``count`` coordinates at ``value``, the rest 0."""
    count = _integer("count", count, 0)
    n = _integer("n", n, 1)
    if count > n:
        raise ValueError("count must not exceed n")
    theta = np.zeros(n)
    theta[:count] = value
    return theta


def least_favorable(n: int, p: float, radius: float, weak: bool = False) -> np.ndarray:
    """The hardest length-``n`` signal of the l_p ball, at ``level = minimax_level(n, p, radius)``.

    A strong ball holds ``floor(n radius^p / level^p)`` spikes at ``level``
    (``floor(n radius)`` for ``p = 0``); a weak ball holds the capped
    ordered profile ``min(radius (n/k)^(1/p), level)``.
    """
    n = _integer("n", n)
    pp = _check_ball(p, radius, weak)
    p, radius = float(p), float(radius)
    lam = minimax_level(n, p, radius)
    if weak:
        k = np.arange(1, n + 1)
        return np.minimum(radius * (n / k) ** (1.0 / p), lam)
    try:  # floor(n radius) for p = 0, where lam**p is 1
        m = min(math.floor(n * radius**pp / lam**p), n)
    except OverflowError:  # a power or the count lies past the float range
        m = n if radius >= lam else int(n * (radius / lam) ** p)
    theta = np.zeros(n)
    theta[:m] = lam
    return theta


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    std_error: float


# Replicates are evaluated in blocks of at most this many draws in total, and
# at least one row.  At n = 1024 a 64-row block grew the peak RSS by about
# 8 MB, against about 2 MB for 16 rows.
_BLOCK_ELEMENTS = 2**14


_streams = threading.local()


def _replicate_rng(seed: int, index: int) -> np.random.Generator:
    """The stream of ``Philox(key=seed, counter=index << 192)``, on this thread's one generator.

    The generator is re-keyed by the next call in the same thread, so draw
    from it before asking for another stream.
    """
    try:
        rng, state = _streams.philox
    except AttributeError:  # a new Philox's state: an empty buffer, no cached 32 bits
        rng = np.random.Generator(np.random.Philox(key=0))
        state = rng.bit_generator.state
        _streams.philox = rng, state
    words = state["state"]
    words["key"][:] = (seed & (2**64 - 1), seed >> 64)
    words["counter"][3] = index
    rng.bit_generator.state = state
    return rng


def _fingerprint(theta: np.ndarray, **fields) -> str:
    """Short digest of a run's settings, with ``n`` and a digest of ``theta``."""
    digest = hashlib.sha256(np.ascontiguousarray(theta, dtype="<f8")).hexdigest()[:16]
    blob = json.dumps({**fields, "n": theta.size, "theta": digest}, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _samples(theta: np.ndarray, statistic, replicates: int, seed: int) -> np.ndarray:
    """``statistic(theta + z)`` on blocks of draws, row ``i`` of ``z`` from stream ``i``.

    The one replicate loop of the module.  ``statistic`` maps a (B, n) block
    to B values, giving an (R,) array, or to a (B, S) array, giving an
    (R, S) array; any other shape raises ``ValueError``.  Every block is
    drawn into one kept buffer and ``theta + z`` is formed in place, so the
    next block, or the next call on the same thread, overwrites the one
    passed to ``statistic``.
    """
    if theta.ndim != 1 or theta.size == 0:
        raise ValueError("theta must be a nonempty 1-d vector")
    replicates, seed = _integer("replicates", replicates, 2), _integer("seed", seed)
    if not 0 <= seed < 2**128:
        raise ValueError("seed must be >= 0 and < 2**128")
    step = min(replicates, max(1, _BLOCK_ELEMENTS // theta.size))
    parts = []
    with _kept((step, theta.size)) as draws:
        for start in range(0, replicates, step):
            z = draws[: min(step, replicates - start)]
            for row, i in enumerate(range(start, start + z.shape[0])):
                _replicate_rng(seed, i).standard_normal(out=z[row])
            z += theta
            values = np.array(statistic(z), dtype=float)  # a copy: the values may be a view of z
            if values.ndim not in (1, 2) or values.shape[0] != len(z):
                raise ValueError(
                    f"statistic returned shape {values.shape} for a block of {len(z)} rows: "
                    f"need ({len(z)},) or ({len(z)}, S)"
                )
            parts.append(values)
    return np.concatenate(parts)


def _row_losses(theta: np.ndarray, estimates) -> np.ndarray:
    """``||row - theta||^2`` for each row of a block of estimates."""
    return np.array([float(d @ d) for d in estimates - theta])


def _threshold_losses(theta: np.ndarray, families, level, oracle: bool = False):
    """The block statistic of every experiment: a (B, n) block ``x`` maps to
    the (B, len(families)) losses ``||t(row, lam_row) - theta||^2``, and with
    ``oracle`` to one more column, ``oracle_loss_min``'s losses.

    ``level`` is an ``FdrConfig``, whose selection (``_block_lambdas``) gives
    each row's level, or a level, or a (B,) array of levels.  With ``oracle``
    the oracle writes ``|x|`` and its sorted rows into the statistic's two
    buffers, and the selection reads those rows instead of sorting again.
    Every family maps ``|x_i| <= lam`` to a signed zero, whose residual
    ``+-0 - theta_i`` squares to ``theta_i^2``, so the survivors
    ``|x_i| > lam`` are gathered once and each family runs on them alone.  Their residuals are scattered into a
    kept buffer whose rows otherwise hold ``-theta``, and each row's loss
    is its own dot product: it sees the values of the dense
    ``t(x, lam) - theta`` in the same order.
    """

    def statistic(x):
        with _kept(x.shape) as absx, _kept(x.shape) as resid:
            if oracle:  # resid holds the sorted rows until it takes -theta
                oracle_losses = oracle_loss_min(x, theta, _magnitudes=(absx, resid))[1]
            else:
                np.abs(x, out=absx)
            if isinstance(level, FdrConfig):
                lam = _block_lambdas(resid if oracle else absx, level, ascending=oracle)
            else:
                lam = np.broadcast_to(level, len(x))
            at = np.flatnonzero(absx > lam[:, None])
            rows, cols = np.divmod(at, x.shape[1])
            survivors, lam_at, theta_at = x.take(at), lam[rows], theta.take(cols)
            np.negative(theta, out=resid)
            losses = []
            for family in families:
                resid.reshape(-1)[at] = apply_family(survivors, lam_at, family) - theta_at
                losses.append([float(d @ d) for d in resid])
            if oracle:
                losses.append(oracle_losses)
        return np.transpose(losses)

    return statistic


def mc_mean(
    theta,
    statistic: Callable[[np.ndarray], np.ndarray],
    replicates: int,
    seed: int,
) -> McEstimate | tuple[McEstimate, ...]:
    """Average a block statistic of ``theta + noise`` over independent replicates.

    The draws come in (B, n) blocks of ``max(1, 2**14 // n)`` rows, row
    ``i`` of the run being ``theta + z_i`` from stream ``i`` (see the module
    docstring).  ``statistic`` maps a block to B values, one per row, or to
    a (B, S) array; the result is then one estimate, or a tuple of S
    estimates, each with its standard error over the R replicate values.
    The block lies in a buffer that the next block, or the next call on
    the same thread, overwrites once ``statistic`` returns, so a statistic
    that keeps rows must copy them.  A statistic may itself call
    ``mc_mean``: the inner call draws into another buffer.
    A statistic of one vector ``stat`` becomes one as
    ``lambda x: [stat(row) for row in x]``.
    """
    samples = _samples(np.asarray(theta, dtype=float), statistic, replicates, seed)

    def summary(column: np.ndarray) -> McEstimate:
        return McEstimate(float(column.mean()), float(column.std(ddof=1) / math.sqrt(column.size)))

    if samples.ndim == 1:
        return summary(samples)
    return tuple(summary(samples[:, j]) for j in range(samples.shape[1]))


def mc_risk(
    theta,
    estimate_fn: Callable[[np.ndarray], np.ndarray],
    replicates: int,
    seed: int,
) -> McEstimate:
    """Monte Carlo total squared-error risk ``E ||estimate_fn(X) - theta||^2``.

    ``estimate_fn`` maps one draw, a length-n vector, to its estimate.
    """
    theta = np.asarray(theta, dtype=float)
    loss = lambda x: _row_losses(theta, np.array([estimate_fn(row) for row in x], dtype=float))
    return mc_mean(theta, loss, replicates, seed)


def oracle_loss_min(x, theta, *, _magnitudes=None):
    """Exact minimum over levels of the soft-threshold loss on one draw.

    Minimizes ``||soft(x, L) - theta||^2`` over ``L in [0, inf]``.  The loss
    is piecewise quadratic in ``L`` between consecutive order statistics of
    ``|x|``, so each segment is minimized in closed form.  Returns
    ``(level, loss)`` with ``level = +inf`` when zeroing everything is
    optimal (always the case for ``theta = 0``, where the loss at +inf is 0).

    ``x`` may also be a (B, n) block of draws around the same ``theta``;
    the result is then a pair of arrays ``(levels, losses)`` whose entries
    equal the one-draw results on each row, bit for bit.

    Every term of a segment's loss is at most ``4 n M^2`` with ``M =
    max(max|x|, max|theta|)``, so an input where that bound is not finite
    (NaN and infinities included) is refused before any of them is formed.

    Each row is ordered by magnitude, ties in column order.  A block of
    several rows sorts packed keys in place: the bits of ``|x|``, which
    order like its values, with the low ``b = max(1, ceil(log2 n))`` bits
    replaced by the column; one row, whose keys would often agree above
    those bits at large n, takes ``argsort``.  Keys that agree above those
    bits sort by column, so a row whose gathered magnitudes are not strictly
    increasing (exact ties, or keys misordered by magnitudes within about
    ``2^(b-52)`` relative of each other) is sorted again by a stable
    ``argsort``.

    The (B, n) temporaries lie in six buffers that the thread keeps
    (``gauss._kept``); nothing returned is a view of them.  Strong regret
    passes two of them as ``_magnitudes``, which receive ``|x|`` and each
    row of it in ascending order, for its selection to read.
    """
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or x.ndim not in (1, 2) or x.shape[-1] != theta.size or x.size == 0:
        raise ValueError("x must be a nonempty vector or block of rows matching the 1-d theta")
    block = x.reshape(-1, theta.size)
    if _magnitudes is None:
        with _kept(block.shape) as absx, _kept(block.shape) as mags:
            levels, losses = _oracle_rows(block, theta, absx, mags)
    else:
        levels, losses = _oracle_rows(block, theta, *_magnitudes)
    if x.ndim == 1:
        return float(levels[0]), float(losses[0])
    return levels, losses


def _oracle_rows(block, theta, absx, mags):
    """``oracle_loss_min`` on a (B, n) block, with ``|block|`` written to
    ``absx`` and its rows in ascending order to ``mags``."""
    count, n = block.shape
    # Every float temporary lies in a kept buffer, and a buffer takes a second
    # name once its first is dead; the int64 keys and ``order``, which holds
    # flat indices into the block except while ``theta`` is gathered, lie in
    # two of them.  A ``take`` into ``out`` is buffered unless mode="clip";
    # every index is in range.
    with (
        _kept((count, n)) as xs,
        _kept((count, n)) as ths,
        _kept((count, n)) as signed_err,
        _kept((count, n)) as killed,
    ):
        np.abs(block, out=absx)
        bound = max(float(absx.max()), float(np.abs(theta).max()))
        if not 4.0 * n * bound * bound < math.inf:
            raise ValueError("4 n max(|x|, |theta|)^2 must be finite")
        if count > 1:
            # |x| >= 0, so its bits compare as int64 like its values; a key is a
            # finite double >= 0 too, and sorts faster as one than as an int64
            bits = max(1, (n - 1).bit_length())
            keys = np.bitwise_and(absx.view(np.int64), -1 << bits, out=ths.view(np.int64))
            keys |= np.arange(n)
            ths.sort(axis=1)
            order = np.bitwise_and(keys, (1 << bits) - 1, out=signed_err.view(np.int64))
        else:
            order = np.argsort(absx, axis=1)
        rows = np.arange(count)
        start = rows[:, None] * n
        order += start
        block.take(order, out=xs, mode="clip")
        np.abs(xs, out=mags)
        # distinct magnitudes have one sorting permutation; a row with ties, or
        # whose keys misordered it, takes the stable one, so that every sum runs
        # in the same order in any block
        again = (mags[:, 1:] <= mags[:, :-1]).any(axis=1)
        if again.any():
            order[again] = np.argsort(absx[again], axis=1, kind="stable") + start[again]
            block.take(order, out=xs, mode="clip")
            np.abs(xs, out=mags)
        order -= start
        theta.take(order, out=ths, mode="clip")
        # copysign, not sign: an active x_i = 0 (only at L = 0) must still cost theta_i^2
        np.copysign(1.0, xs, out=signed_err)
        xs -= ths
        signed_err *= xs

        # killed[:, m] = loss of the m smallest-magnitude coords once killed, and
        # total that of all n: the last step of the same running sum
        killed[:, 0] = 0.0
        ths **= 2
        np.cumsum(ths[:, :-1], axis=1, out=killed[:, 1:])
        total = killed[:, -1] + ths[:, -1]
        # suffix sums over the active (surviving) coords
        suf1 = xs
        np.cumsum(signed_err[:, ::-1], axis=1, out=suf1[:, ::-1])
        suf2 = signed_err
        suf2 **= 2
        np.cumsum(suf2[:, ::-1], axis=1, out=suf2[:, ::-1])

        # On segment m, L in [|x|_(m-1), |x|_(m)], the m smallest are killed and
        # the loss is the convex quadratic below, so its minimum is at the
        # stationary point clipped to the segment.  A coordinate with |x| = L
        # costs theta^2 either way, so tied (one-point) segments are exact too.
        # killed + suf2 - 2 L suf1 + cnt L^2, in that order, in place; the first
        # sum frees ``killed`` for the segments' floors and the terms, so that
        # ``absx`` outlives the call
        losses = np.add(killed, suf2, out=suf2)
        cnt = np.arange(n, 0, -1, dtype=float)
        floor = killed
        floor[:, 0] = 0.0
        floor[:, 1:] = mags[:, :-1]
        levels = np.divide(suf1, cnt, out=ths)
        np.clip(levels, floor, mags, out=levels)
        term = np.multiply(2.0, levels, out=floor)
        term *= suf1
        losses -= term
        np.multiply(cnt, levels, out=term)
        term *= levels
        losses += term
        best = np.argmin(losses, axis=1)
        best_loss = losses[rows, best]
        zero_all = best_loss >= total - 1e-15 * np.maximum(1.0, total)
        return np.where(zero_all, math.inf, levels[rows, best]), np.where(zero_all, total, best_loss)


@dataclass(frozen=True)
class RegretReport:
    """Adaptive risk against the exact fixed-level optimum.

    The three ``oracle_*`` fields are ``None`` unless the run was ``strong``.
    """

    mc_risk: float
    mc_se: float
    exact_total: float
    regret: float
    ratio: float
    degenerate: bool
    oracle_risk: float | None
    oracle_se: float | None
    oracle_ratio: float | None
    config_fingerprint: str


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
    exact_total = optimal_levels(EmpiricalPrior.from_vector(theta))[1] * theta.size

    loss = _threshold_losses(theta, (family,), config, oracle=strong)
    mc, *oracle_column = mc_mean(theta, loss, replicates, seed)
    oracle_fields = (None, None, None)
    if strong:
        (oracle,) = oracle_column
        oracle_ratio = mc.mean / oracle.mean if oracle.mean > 1e-10 else math.nan
        oracle_fields = (oracle.mean, oracle.std_error, oracle_ratio)
    degenerate = exact_total < 1e-10
    ratio = math.nan if degenerate else mc.mean / exact_total
    # the hashed fields keep antithetic=False: another set would move every fingerprint
    fp = _fingerprint(
        theta, label=f"regret:{family.describe()}", replicates=int(replicates), seed=int(seed),
        antithetic=False,
    )
    return RegretReport(
        mc.mean, mc.std_error, exact_total, mc.mean - exact_total, ratio, degenerate, *oracle_fields, fp
    )


@dataclass(frozen=True)
class CommonMeanReport:
    """Risks of the two FDR estimators when all means are equal, and the sample mean's.

    ``sample_mean_risk`` is the comparator's exact total risk
    ``n Var(mean) = 1``, the same for every common mean.
    """

    fdr_soft_risk: float
    fdr_soft_se: float
    fdr_firm_risk: float
    fdr_firm_se: float
    sample_mean_risk: float
    exact_total: float
    config_fingerprint: str


def common_mean_experiment(
    n: int,
    mu: float,
    replicates: int,
    seed: int,
    config: FdrConfig = FdrConfig(),
    firm_slope: float = ThresholdFamily.firm_slope,
) -> CommonMeanReport:
    """Compare adaptive thresholding with the sample mean when all means equal ``mu``.

    Soft and firm thresholding run by Monte Carlo on the same draws, at
    one selected level per draw.  The sample-mean comparator is not
    sampled: its total risk is exactly 1, which thresholding beats
    whenever the common mean is small against ``1/sqrt(n)``.
    """
    firm_fam = ThresholdFamily("firm", firm_slope=firm_slope)
    n = _integer("n", n, 1)
    theta = np.full(n, float(mu))
    exact_total = optimal_levels(EmpiricalPrior.from_vector(theta))[1] * n

    losses = _threshold_losses(theta, (ThresholdFamily("soft"), firm_fam), config)
    soft, firm = mc_mean(theta, losses, replicates, seed)
    fp = _fingerprint(
        theta, kind="common_mean", replicates=int(replicates), seed=int(seed),
        family=f"soft,{firm_fam.describe()}", level="adaptive",
    )
    return CommonMeanReport(soft.mean, soft.std_error, firm.mean, firm.std_error, 1.0, exact_total, fp)


@dataclass(frozen=True)
class MinimaxReport:
    """Adaptive risk against the ball's leading-order minimax benchmark at its calibrated level."""

    mc_risk: float
    mc_se: float
    benchmark: float
    ratio: float
    level: float
    config_fingerprint: str


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
    n = _integer("n", n)
    bench = minimax_benchmark(n, p, radius, weak=weak)
    theta = least_favorable(n, p, radius, weak)
    (mc,) = mc_mean(theta, _threshold_losses(theta, (family,), config), replicates, seed)
    # the label keeps the text of the signal's former description, level=None
    # included, and antithetic=False stays: another text would move every fingerprint
    fp = _fingerprint(
        theta, label=f"minimax:least_favorable(p={p:g}, radius={radius:g}, weak={weak}, level=None)",
        replicates=int(replicates), seed=int(seed), antithetic=False,
    )
    return MinimaxReport(mc.mean, mc.std_error, bench, mc.mean / bench, minimax_level(n, p, radius), fp)


@dataclass(frozen=True)
class ConcentrationReport:
    """Variance of the scaled loss against its isoperimetric bound."""

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

    losses = _samples(theta, _threshold_losses(theta, (family,), level), replicates, seed)
    samples = np.sqrt(losses[:, 0] / n)
    var = float(samples.var(ddof=1))
    centered = samples - samples.mean()
    m4 = float(np.mean(centered**4))
    se_var = math.sqrt(max(m4 - var * var, 0.0) / samples.size)
    bound = 4.0 * family.slope**2 / n
    fp = _fingerprint(
        theta, kind="concentration", replicates=int(replicates), seed=int(seed),
        family=family.describe(), level=level,
    )
    return ConcentrationReport(var, bound, se_var, var <= bound + 3.0 * se_var, fp)
