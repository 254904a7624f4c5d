"""Data-driven threshold level selection by multiple-testing rules.

Candidate levels are two-sided normal quantiles ``xi_k = -Q(alpha k / (2n))``
for k = 1..n, where ``Q`` is the standard normal quantile function.  With
``N(t)`` counting observations of magnitude at least ``t`` (ties count),

* the step-up level is ``min{ xi_k : N(xi_k) >= k }`` (the threshold form
  of the classic step-up p-value rule at slope ``alpha1``), and
* the step-down level is ``max{ xi_k : N(xi_{k+1}) < k + 1 }`` computed at
  slope ``alpha2``, with the convention ``xi_{n+1} = 0`` so that ``k = n``
  always qualifies; it is ``+inf`` exactly when no magnitude reaches
  ``xi_1``.

Both are ``+inf`` when nothing qualifies, and step-up <= step-down always
holds when ``alpha2 <= alpha1``.  The selected threshold level is

    lambda = (1 - w) * sqrt(1 + delta1) * step_up
               + w  * sqrt(1 + delta2) * step_down,

where ``w`` is the interpolation knob.

Both rules depend on ``x`` only through the magnitudes sorted in decreasing
order, ``m_(1) >= ... >= m_(n)``, because ``N(xi_k) >= k`` holds exactly
when ``m_(k) >= xi_k``.  The step-up level is ``xi_k`` at the largest such
``k`` (the Benjamini-Hochberg rejection count ``k_hat``); the step-down
level is ``xi_{k'-1}`` at the first ``k' >= 2`` with ``m_(k') < xi_{k'}``
(``k' = n + 1`` when there is none).

Both answers lie among the largest magnitudes.  For any ``K >= k_hat``,
``m_(k_hat) >= xi_{k_hat} >= xi_K``, so ``k_hat <= N(xi_K)``: starting at
``K = n``, the count ``K <- N(xi_K)`` never drops below ``k_hat`` (the
threshold form ``t_BH = sup{t : n t / R(t) <= alpha}`` of Storey, Taylor
and Siegmund, 2004).  A one-row selection runs these cuts at the larger
slope ``a* = max(alpha1, alpha2)``: it keeps only the magnitudes at or
above a cut ``c_K`` and repeats while that set at least halves, which
bounds the steps by ``log2 n``.  A cut is a bound, not a compared level:
one bare ``ndtri`` value shrunk by a relative slack of 1e-12, so
``xi*_K (1 - 2e-12) <= c_K <= xi*_K`` (the slack covers the ulp-level
wobble of the computed levels and the error of ``ndtri``; where the
level's probability is clamped below 1/2 the cut is lower still).
What the cuts keep is a prefix ``P`` of the sorted magnitudes that ends
both scans:

1. every hit of either rule is in ``P``: a hit at a slope ``a <= a*`` is
   also a hit at ``a*``, whose levels are no higher, and the count above
   keeps every ``a*`` hit at or above each cut;
2. the magnitude after ``P`` is a miss of both rules: it lies below the
   last cut that dropped anything, made at some size ``S >= |P| + 1``, so
   below ``c_S <= xi*_S <= xi_{|P|+1}`` at either slope.

So the step-up scan finds its last hit in ``P`` and the step-down scan its
first miss in ``P`` or right after it.  Only ``P`` is sorted and compared;
when the cuts drop every magnitude, the largest one alone stands for it.
Blocks of several rows sort every row and keep the columns up to the
largest row count at the first cut ``c_n``: by fact 1 no hit lies below
it, and by fact 2 at ``S = n`` each row's first magnitude below it ends
both scans.

Each rule reads its answer off one exact hit mask ``m_(k) >= xi_k`` over a
(B, m) block of sorted prefixes, one row per observation vector of the same
length ``n``: ``k_hat`` is the last hit of the step-up mask and ``k'`` the
first miss after k = 1 of the step-down mask; both levels are read from the
same level arrays.  Each block computes ``xi_1..xi_m`` for its own prefix
of ``m`` columns, once per slope, and holds nothing across blocks.  A Monte
Carlo block at ``interp = 0`` reads only the step-up level, so it runs the
step-down scan at ``alpha1`` on the step-up levels and hits and computes no
level at ``alpha2``.  A ``SelectorTrace``
keeps scalars only; ``candidate_levels(n, alpha)`` gives the candidate array
and ``exceed_count(x, levels)`` the counts at any array of levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .gauss import _as_float_array, _integer, norm_quantile
from .thresholds import _check_observations

__all__ = [
    "FdrConfig",
    "SelectorTrace",
    "candidate_levels",
    "exceed_count",
    "step_up_level",
    "step_down_level",
    "select_lambda",
]

# Tail probabilities are clamped just below 1/2 before the quantile call.
_P_CLAMP = 0.49999999

# The candidate set is cut again while it holds more than this many entries.
# On a 2-core x86 host, stops of 256 to 1024 did equally well from n = 4096 to
# 250 000 at 0.1 % and 1 % spikes; 2048 was up to twice slower.
_TOPK_STOP = 512

# Relative slack on each cut ``xi_K``: computed levels are nonincreasing in
# k only up to a few ulps, and a cut's bare ``ndtri`` lay within 1.1e-15
# relative of the polished level over probabilities from subnormal to the clamp.
_TOPK_SLACK = 1e-12


@dataclass(frozen=True)
class FdrConfig:
    """Selector configuration.

    Slopes must satisfy ``0 < alpha2p < alpha2 <= alpha1 < alpha1p < 1``:
    ``alpha1``/``alpha2`` drive the step-up/step-down rules and the primed
    values are the slack levels of the population crossings
    (``risk.population_fdr_levels``).  ``0 <= delta1 <= delta2`` inflate the two interval ends and
    ``interp`` picks a point of the selected interval (0 = lower end).
    """

    alpha1: float = 0.05
    alpha2: float = 0.05
    alpha1p: float = 0.1
    alpha2p: float = 0.025
    delta1: float = 0.0
    delta2: float = 0.0
    interp: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha2p < self.alpha2 <= self.alpha1 < self.alpha1p < 1.0):
            raise ValueError("need 0 < alpha2p < alpha2 <= alpha1 < alpha1p < 1")
        if not (0.0 <= self.delta1 <= self.delta2):
            raise ValueError("need 0 <= delta1 <= delta2")
        if math.isinf(self.delta2):
            raise ValueError("delta2 must be finite")
        if not (0.0 <= self.interp <= 1.0):
            raise ValueError("interp must lie in [0, 1]")


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")


def _levels_at(n: int, alpha: float, ks: np.ndarray) -> np.ndarray:
    """Candidate levels ``xi_k`` at the 1-based integer indices ``ks``.

    The one place the compared levels are computed: ``candidate_levels``
    evaluates it at every index and the selector at a prefix of them, so
    the two agree bit for bit.  The top-K cuts are bounds, not compared
    levels, and come from ``_cut``.
    """
    # alpha < 1 and k <= n keep p below 1/2, so every level is positive
    p = alpha * ks / (2.0 * n)
    if not p.all():
        raise ValueError(f"alpha = {float(alpha)!r} is too small for n = {n}: alpha / (2n) underflows to 0")
    return -norm_quantile(np.minimum(p, _P_CLAMP))


def _cut(n: int, alpha: float, size: int) -> float:
    """The top-K cut at ``size``: ``xi_size (1 - 2 slack) <= cut <= xi_size``.

    One bare ``ndtri``, shrunk by the slack.  Where ``_levels_at`` clamps
    the probability below 1/2 the cut falls lower still, which only keeps
    more magnitudes.
    """
    return -float(ndtri(alpha * size / (2.0 * n))) * (1.0 - _TOPK_SLACK)


def candidate_levels(n: int, alpha: float) -> np.ndarray:
    """Two-sided quantile levels ``-Q(alpha k / (2n))`` for k = 1..n.

    Positive and decreasing in k up to rounding.  Tail probabilities above
    ``_P_CLAMP``, reached only at slopes above 0.99999998, are clamped to it.
    """
    n = _integer("n", n, 1)
    _check_alpha(alpha)
    return _levels_at(n, alpha, np.arange(1, n + 1))


def exceed_count(x, t):
    """``N(t)``, the number of observations with ``|x_i| >= t`` (ties count).

    ``t`` may be a level or an array of levels: one sort of ``|x|`` and a
    ``searchsorted`` give every count.  An ``int`` for a scalar ``t``;
    ``N(inf) = 0`` and ``N(-inf) = x.size``.  NaN in ``x`` or ``t`` is rejected.
    """
    levels = _as_float_array(t, "t")
    mags = np.sort(np.abs(_as_float_array(x, "x")), axis=None)
    counts = mags.size - np.searchsorted(mags, levels, side="left")
    return int(counts) if levels.ndim == 0 else counts


def _top_magnitudes(absx: np.ndarray, alpha: float) -> np.ndarray:
    """The entries of ``absx`` at or above the last cut at slope ``alpha``, in
    decreasing order: all of ``absx`` when no cut drops anything, and its
    largest entry alone when the cuts drop everything.

    The cuts are counts over all of ``absx``: the levels only rise, so the
    set a cut keeps is ``{absx >= level}``, and only the last one is gathered.
    """
    n = absx.size
    size, level = n, 0.0
    while True:
        level = max(level, _cut(n, alpha, size))
        count = int(np.count_nonzero(absx >= level))
        halved = 2 * count <= size
        size = count
        if not (halved and size > _TOPK_STOP):
            break
    if size == 0:
        return absx.max(keepdims=True)
    return np.sort(absx[absx >= level])[::-1]


def _block_levels(absx: np.ndarray, alpha1: float, alpha2: float, ascending: bool = False):
    """The selection core, on each row of a (B, n) block of magnitudes.

    Returns per row ``k_hat`` (the last step-up hit) and ``xi_{k_hat}`` at
    slope ``alpha1``, and ``xi_{k'-1}`` at slope ``alpha2`` for the first
    step-down miss ``k' >= 2`` (``m + 1`` for a sorted prefix of ``m``
    magnitudes without one).  A level is +inf when its rule rejects nothing.
    A one-row block sorts and compares only its top-K prefix, cut at the
    larger slope (see the module docstring); a block of several rows sorts
    every row in full and compares only the columns up to the largest row
    count at the first cut.  With ``ascending`` every row is already in
    ascending order, as ``oracle_loss_min`` leaves a strong block's rows, so
    a block of several rows reads them as they are.  The block computes the
    candidate levels of the compared columns, once per slope.
    """
    count, n = absx.shape
    slope = max(alpha1, alpha2)
    if count == 1:
        mags = _top_magnitudes(absx[0], slope)[None]
    else:
        # every hit of either slope lies at or above the first cut
        keep = np.count_nonzero(absx >= _cut(n, slope, n), axis=1).max()
        rows = absx if ascending else np.sort(absx, axis=1)
        mags = rows[:, ::-1][:, : max(1, keep)]
    size = mags.shape[1]
    ks = np.arange(1, size + 1)
    xi1 = _levels_at(n, alpha1, ks)
    up_hit = mags >= xi1
    k_hat = np.where(up_hit.any(axis=1), size - np.argmax(up_hit[:, ::-1], axis=1), 0)
    xi2, down_hit = xi1, up_hit
    if alpha2 != alpha1:
        xi2 = _levels_at(n, alpha2, ks)
        down_hit = mags >= xi2
    ends = np.ones((count, size), dtype=bool)
    np.logical_not(down_hit[:, 1:], out=ends[:, :-1])
    last = np.argmax(ends, axis=1)  # k' - 2, the index of xi_{k'-1}
    up = np.where(k_hat > 0, xi1[k_hat - 1], math.inf)
    return k_hat, up, np.where(down_hit[:, 0], xi2[last], math.inf)


def _select_levels(x, alpha1: float, alpha2: float) -> tuple[int, float, float]:
    """The selection core for one observation vector, after validation.

    Returns the step-up rejection count and level at slope ``alpha1`` and
    the step-down level at slope ``alpha2``.
    """
    arr = _check_observations(x)
    _check_alpha(alpha1)
    _check_alpha(alpha2)
    k_hat, up, down = _block_levels(np.abs(arr)[None], alpha1, alpha2)
    return int(k_hat[0]), float(up[0]), float(down[0])


def step_up_level(x, alpha1: float) -> float:
    """Smallest candidate level whose exceedance count reaches its index.

    Returns +inf when no candidate qualifies (then nothing is selected).
    Equivalent to thresholding at the step-up p-value rule with slope
    ``alpha1``: magnitudes at or above the returned level are exactly the
    rejected coordinates.
    """
    return _select_levels(x, alpha1, alpha1)[1]


def step_down_level(x, alpha2: float) -> float:
    """Largest candidate level at which the step-down scan halts.

    Uses the convention ``level_{n+1} = 0``, so index ``n`` always
    qualifies once anything qualifies at all; the result is +inf exactly
    when no magnitude reaches the first candidate level.
    """
    return _select_levels(x, alpha2, alpha2)[2]


@dataclass(frozen=True)
class SelectorTrace:
    """Record of one level selection; ``dataclasses.asdict`` gives its JSON-ready dict.

    Holds the selected levels and the step-up rejection count ``k_hat``.
    ``candidate_levels(n, alpha1)`` gives the step-up candidates and
    ``exceed_count(x, levels)`` the counts at them.
    """

    xi1_hat: float
    xi2_hat: float
    lower: float
    upper: float
    lambda_hat: float
    k_hat: int


def _interval(xi1, xi2, config: FdrConfig):
    """The selected interval's ends and ``lambda_hat``, entry by entry over arrays of
    the two levels: exactly an end at ``interp`` 0 or 1, and +inf where the lower end is."""
    lower = math.sqrt(1.0 + config.delta1) * xi1
    upper = math.sqrt(1.0 + config.delta2) * xi2
    w = config.interp
    if w == 0.0:
        return lower, upper, lower
    with np.errstate(invalid="ignore"):  # inf - inf where the lower end is +inf
        inside = upper if w == 1.0 else lower + w * (upper - lower)
    return lower, upper, np.where(np.isinf(lower), math.inf, inside)


def select_lambda(x, config: FdrConfig) -> SelectorTrace:
    """Run both selectors on ``x`` and pick the threshold level.

    The selected interval is ``[sqrt(1+delta1) up, sqrt(1+delta2) down]``
    and ``lambda_hat`` sits at fraction ``config.interp`` of it.  When the
    step-up level is +inf (nothing selected anywhere) the interval collapses
    to +inf and the downstream estimate is identically zero.
    """
    k_hat, xi1, xi2 = _select_levels(x, config.alpha1, config.alpha2)
    return SelectorTrace(xi1, xi2, *map(float, _interval(xi1, xi2, config)), k_hat)


def _block_lambdas(absx: np.ndarray, config: FdrConfig, ascending: bool = False) -> np.ndarray:
    """``select_lambda(row, config).lambda_hat`` for each row of a finite (B, n)
    block, from the block's magnitudes ``absx``, each row in ascending order
    if ``ascending``."""
    # at interp = 0 the step-down level is not read: scan it at alpha1, whose
    # levels and hits the step-up scan already has
    alpha2 = config.alpha1 if config.interp == 0.0 else config.alpha2
    _, up, down = _block_levels(absx, config.alpha1, alpha2, ascending)
    return _interval(up, down, config)[2]
