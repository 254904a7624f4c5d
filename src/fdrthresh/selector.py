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

    lambda = (1 - w) * sqrt(1 + delta1) * g1(step_up)
               + w  * sqrt(1 + delta2) * step_down,

where ``g1`` is a certified monotone transform (identity by default) and
``w`` is the interpolation knob.

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
and Siegmund, 2004).  From about 10^4 observations on, selection keeps
only the magnitudes at or above ``xi_K (1 - 1e-12)`` (the slack covers
ulp-level wobble of the computed levels) and repeats while that set at
least halves, which bounds the steps by ``log2 n``; with the largest
magnitude below the last cut appended, the kept set is a prefix of the
sorted magnitudes that holds every step-up hit and, when
``alpha2 <= alpha1``, nearly always the first step-down miss.  Only that
prefix is sorted and screened.  When the step-down scan still finds no
miss before the end of a prefix shorter than ``n``, or ``alpha2 > alpha1``,
every magnitude is sorted and screened instead.

Each rule reads its answer off one exact hit mask ``m_(k) >= xi_k`` over a
(B, m) block of sorted prefixes, one row per observation vector of the same
length ``n``: ``k_hat`` is the last hit of the step-up mask and ``k'`` the
first miss after k = 1 of the step-down mask.  The mask is built in p-value
form, comparing the tail ``Phi(-m_(k))`` (one ``norm_cdf`` pass shared by
both rules) with ``alpha k / (2n)``.  Only entries whose tail lies within a
relative ``1e-9`` of that probability are undecided; every column undecided
in some row is compared exactly against ``xi_k``, computed by the same
arithmetic as ``candidate_levels``, in all rows.  That is one quantile call
per rule, shared by the rows (one in all when ``alpha2 == alpha1``, since
both rules then read the same mask), and one more for the returned levels.
The full candidate and count arrays are built only when a
``SelectorTrace`` is asked for them.  The public functions are the one-row
case; the Monte Carlo engine selects the levels of a whole block of draws
at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .gauss import norm_cdf, norm_quantile
from .risk import _check_decay, soft_risk
from .thresholds import _check_observations

__all__ = [
    "G1Transform",
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

# The screen decides an index without a quantile only when the tail of its
# magnitude differs from the level's probability by more than this relative
# amount; ``norm_cdf`` at a level recovers its probability to about 1e-13
# relative, so such decisions are certain.
_SCREEN_RTOL = 1e-9

# Below this probability the relative-accuracy argument no longer holds
# (subnormal range), so such indices are always confirmed exactly.
_SCREEN_MIN_P = 1e-290

# From this many observations on, selection sorts and screens only the top
# magnitudes (see the module docstring).  Below it the extra quantile call
# of each cut costs more than sorting everything; the two paths cross near
# n = 10^4 on a 2-core x86 host.
_TOPK_MIN_N = 12_288

# The candidate set is cut again while it holds more than this many entries.
_TOPK_STOP = 2048

# Relative slack on each cut ``xi_K``: computed levels are nonincreasing in
# k only up to a few ulps.
_TOPK_SLACK = 1e-12


class G1Transform:
    """Monotone transform applied to the step-up level before use.

    The identity is always valid.  A custom transform ``g`` must satisfy,
    on a verification grid over (0, 10]:

    * ``0 <= g(x) <= x`` and ``g`` nondecreasing with slope at most ``m0``,
    * ``soft_risk(0, g(x)) <= 4 Phi(-x)``, and
    * ``soft_risk(0, g(x)) <= m0 Phi(-x) / ((x^c1 + 2)(1 v log x)^c2)``

    with exponents ``0 < c1 <= 2``, ``|c2| <= m0``, and ``c2 <= 0`` when
    ``c1 = 2``.  Violations raise ValueError at construction, reporting the
    first failing grid point.
    """

    def __init__(
        self,
        fn: Callable[[float], float] | None = None,
        c1: float = 2.0,
        c2: float = 0.0,
        m0: float = 4.0,
    ) -> None:
        _check_decay(c1, c2, m0)
        self.fn = fn
        self.c1 = float(c1)
        self.c2 = float(c2)
        self.m0 = float(m0)
        if fn is not None:
            self._verify()

    @classmethod
    def identity(cls) -> "G1Transform":
        return cls(None)

    @property
    def is_identity(self) -> bool:
        return self.fn is None

    def _verify(self) -> None:
        xs = np.linspace(1e-3, 10.0, 800)
        gs = np.array([float(self.fn(float(x))) for x in xs])
        rtol = 1.0 + 1e-9
        for i, (x, g) in enumerate(zip(xs, gs)):
            if not (-1e-12 <= g <= x * rtol + 1e-12):
                raise ValueError(f"transform violates 0 <= g(x) <= x at x = {x:.6g}")
            if i > 0:
                dg = gs[i] - gs[i - 1]
                dx = xs[i] - xs[i - 1]
                if dg < -1e-12:
                    raise ValueError(f"transform is decreasing at x = {x:.6g}")
                if dg > self.m0 * dx * rtol + 1e-12:
                    raise ValueError(f"transform slope exceeds m0 at x = {x:.6g}")
        risk0 = soft_risk(0.0, np.maximum(gs, 0.0))
        tails = norm_cdf(-xs)
        cap1 = 4.0 * tails
        cap2 = self.m0 * tails / ((xs**self.c1 + 2.0) * np.maximum(1.0, np.log(xs)) ** self.c2)
        bad = np.nonzero(risk0 > np.minimum(cap1, cap2) * rtol)[0]
        if bad.size:
            x = xs[bad[0]]
            raise ValueError(f"transform fails the risk-decay certificate at x = {x:.6g}")

    def __call__(self, x: float) -> float:
        x = float(x)
        if math.isinf(x):
            return math.inf
        if self.fn is None:
            return x
        return float(self.fn(x))


@dataclass(frozen=True)
class FdrConfig:
    """Selector configuration.

    Slopes must satisfy ``0 < alpha2p < alpha2 <= alpha1 < alpha1p < 1``:
    ``alpha1``/``alpha2`` drive the step-up/step-down rules and the primed
    values are the slack levels entering tail exponents and population
    crossings.  ``0 <= delta1 <= delta2`` inflate the two interval ends and
    ``interp`` picks a point of the selected interval (0 = lower end).
    """

    alpha1: float = 0.05
    alpha2: float = 0.05
    alpha1p: float = 0.1
    alpha2p: float = 0.025
    delta1: float = 0.0
    delta2: float = 0.0
    interp: float = 0.0
    g1: G1Transform = field(default_factory=G1Transform.identity)

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


def _levels_at(n: int, alpha, ks: np.ndarray) -> np.ndarray:
    """Candidate levels ``xi_k`` at the 1-based integer indices ``ks``.

    The one place the levels are computed: ``candidate_levels`` evaluates
    it at every index and the selector at a few, so the two agree bit for
    bit.  ``alpha`` may be an array matching ``ks``; the arithmetic is
    elementwise, so each entry equals the scalar call.
    """
    p = alpha * ks / (2.0 * n)
    levels = np.where(p < 0.5, -norm_quantile(np.minimum(p, _P_CLAMP)), 0.0)
    return np.maximum(levels, 0.0)


def candidate_levels(n: int, alpha: float) -> np.ndarray:
    """Two-sided quantile levels ``-Q(alpha k / (2n))`` for k = 1..n.

    Strictly decreasing while positive; entries whose tail probability
    ``alpha k / (2n)`` reaches 1/2 are clamped to 0 (they would otherwise
    be negative and a magnitude threshold below 0 is meaningless).
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("n must be a positive integer")
    _check_alpha(alpha)
    return _levels_at(n, alpha, np.arange(1, n + 1))


def exceed_count(x, t: float) -> int:
    """Number of observations with ``|x_i| >= t`` (ties count; N(inf) = 0)."""
    arr = np.asarray(x, dtype=float)
    if math.isnan(t):
        raise ValueError("t must not be NaN")
    if math.isinf(t):
        return 0
    return int(np.count_nonzero(np.abs(arr) >= t))


def _counts_at(mags_desc: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """N(levels[j]) for each j, from magnitudes sorted in decreasing order."""
    # count of entries >= t equals the insertion index of t into the
    # ascending array of magnitudes from the right, flipped:
    asc = mags_desc[::-1]
    return mags_desc.size - np.searchsorted(asc, levels, side="left")


def _hits(mags, tail, n: int, alpha: float) -> np.ndarray:
    """The exact mask ``m_(k) >= xi_k`` of a (B, m) block of sorted prefixes.

    ``tail`` is ``Phi(-mags)``.  An entry is a certain hit when
    ``tail <= p (1 - rtol)`` and a certain miss when ``tail > p (1 + rtol)``,
    with ``p = alpha k / (2n)``; a few ulps of rounding in ``p (1 -/+ rtol)``
    are far inside ``rtol``.  Every column undecided in some row is compared
    exactly in all rows.
    """
    scale = 2.0 * n / alpha
    # only probabilities in [_SCREEN_MIN_P, _P_CLAMP) are screened; the
    # rest, a prefix and a suffix of the columns, are always compared exactly
    low = int(min(n, _SCREEN_MIN_P * scale + 1.0))
    high = max(low, int(min(n, _P_CLAMP * scale)) - 1)
    hit = np.zeros(mags.shape, dtype=bool)
    t = tail[:, low:high]
    p = np.arange(1.0, mags.shape[1] + 1.0)[low:high] / scale
    np.less_equal(t, p * (1.0 - _SCREEN_RTOL), out=hit[:, low:high])
    exact = np.ones(mags.shape[1], dtype=bool)
    exact[low:high] = ((t <= p * (1.0 + _SCREEN_RTOL)) > hit[:, low:high]).any(axis=0)
    cols = np.flatnonzero(exact)
    hit[:, cols] = mags[:, cols] >= _levels_at(n, alpha, cols + 1)
    return hit


def _top_magnitudes(absx: np.ndarray, alpha: float) -> np.ndarray:
    """The largest entries of ``absx`` in decreasing order: every ``m_(k) >=
    xi_k`` at slope ``alpha``, then the next one.

    The whole of ``absx``, sorted, when no cut drops anything.  The cuts
    are counts over all of ``absx``: the levels only rise, so the set a cut
    keeps is ``{absx >= level}``.  Only the set before the last cut that
    dropped anything is gathered.
    """
    n = absx.size
    size, level, floor = n, 0.0, None
    while True:
        cut = max(level, float(_levels_at(n, alpha, np.array([size]))[0]) * (1.0 - _TOPK_SLACK))
        count = int(np.count_nonzero(absx >= cut))
        if count < size:
            floor = level
        level = cut
        halved = 2 * count <= size
        size = count
        if not (halved and size > _TOPK_STOP):
            break
    if floor is None:
        return np.sort(absx)[::-1]
    pool = absx[absx >= floor] if floor > 0.0 else absx
    below = pool < level
    return np.append(np.sort(pool[~below])[::-1], pool[below].max())


def _levels_from(mags, n: int, alpha1: float, alpha2: float):
    """Per row of sorted prefixes: ``k_hat`` (the last step-up hit) and
    ``xi_{k_hat}`` at slope ``alpha1``, and ``xi_{k'-1}`` at slope ``alpha2``
    for the first step-down miss ``k' >= 2`` (``m + 1`` without one).  A
    level is +inf when its rule rejects nothing.  None when the prefixes are
    shorter than ``n`` and a row that reaches ``xi_1`` has no such miss.
    """
    tail = norm_cdf(-mags)
    count, size = mags.shape
    up_hit = _hits(mags, tail, n, alpha1)
    k_hat = np.where(up_hit.any(axis=1), size - np.argmax(up_hit[:, ::-1], axis=1), 0)
    down_hit = up_hit if alpha2 == alpha1 else _hits(mags, tail, n, alpha2)
    ends = np.ones((count, size), dtype=bool)
    np.logical_not(down_hit[:, 1:], out=ends[:, :-1])
    stop = np.argmax(ends, axis=1) + 2
    reached = down_hit[:, 0]
    if size < n and (reached & (stop > size)).any():
        return None
    alphas = np.array([alpha1, alpha2]).repeat(count)
    levels = _levels_at(n, alphas, np.concatenate((np.maximum(k_hat, 1), stop - 1)))
    up = np.where(k_hat > 0, levels[:count], math.inf)
    return k_hat, up, np.where(reached, levels[count:], math.inf)


def _block_levels(absx: np.ndarray, alpha1: float, alpha2: float):
    """The selection core, on each row of a (B, n) block of magnitudes.

    Returns per row the step-up rejection count and level at slope
    ``alpha1`` and the step-down level at slope ``alpha2``.  A one-row block
    may take the top-K path; larger blocks sort every row in full.
    """
    n = absx.shape[1]
    if absx.shape[0] == 1 and n >= _TOPK_MIN_N and alpha2 <= alpha1:
        levels = _levels_from(_top_magnitudes(absx[0], alpha1)[None], n, alpha1, alpha2)
        if levels is not None:
            return levels
    return _levels_from(np.sort(absx, axis=1)[:, ::-1], n, alpha1, alpha2)


def _select_levels(x, alpha1: float, alpha2: float) -> tuple[np.ndarray, int, float, float]:
    """The selection core for one observation vector, after validation.

    Returns ``|x|``, the step-up rejection count and level at slope
    ``alpha1``, and the step-down level at slope ``alpha2``.
    """
    arr = _check_observations(x)
    _check_alpha(alpha1)
    _check_alpha(alpha2)
    absx = np.abs(arr)
    k_hat, up, down = _block_levels(absx[None], alpha1, alpha2)
    return absx, int(k_hat[0]), float(up[0]), float(down[0])


def step_up_level(x, alpha1: float) -> float:
    """Smallest candidate level whose exceedance count reaches its index.

    Returns +inf when no candidate qualifies (then nothing is selected).
    Equivalent to thresholding at the step-up p-value rule with slope
    ``alpha1``: magnitudes at or above the returned level are exactly the
    rejected coordinates.
    """
    return _select_levels(x, alpha1, alpha1)[2]


def step_down_level(x, alpha2: float) -> float:
    """Largest candidate level at which the step-down scan halts.

    Uses the convention ``level_{n+1} = 0``, so index ``n`` always
    qualifies once anything qualifies at all; the result is +inf exactly
    when no magnitude reaches the first candidate level.
    """
    return _select_levels(x, alpha2, alpha2)[3]


@dataclass(frozen=True)
class SelectorTrace:
    """Record of one level selection, serializable for diagnostics.

    Holds the selected levels, the step-up rejection count ``k_hat`` and
    ``|x|``.  ``magnitudes`` (``|x|`` sorted in decreasing order), the
    candidate arrays and ``exceed_counts`` (``exceed_counts[k-1]`` is the
    count at the k-th step-up candidate) are computed on each access.
    """

    xi1_hat: float
    xi2_hat: float
    lower: float
    upper: float
    lambda_hat: float
    k_hat: int
    alpha1: float
    alpha2: float
    _abs_x: np.ndarray = field(repr=False, compare=False)

    @property
    def magnitudes(self) -> np.ndarray:
        return np.sort(self._abs_x)[::-1]

    @property
    def xi1_candidates(self) -> np.ndarray:
        return candidate_levels(self._abs_x.size, self.alpha1)

    @property
    def xi2_candidates(self) -> np.ndarray:
        return candidate_levels(self._abs_x.size, self.alpha2)

    @property
    def exceed_counts(self) -> np.ndarray:
        return _counts_at(self.magnitudes, self.xi1_candidates)

    def to_dict(self) -> dict:
        """The scalar summary; the arrays stay available as properties."""
        return {
            "xi1_hat": self.xi1_hat,
            "xi2_hat": self.xi2_hat,
            "lower": self.lower,
            "upper": self.upper,
            "lambda_hat": self.lambda_hat,
            "k_hat": self.k_hat,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _interval(xi1: float, xi2: float, config: FdrConfig) -> tuple[float, float, float]:
    """The selected interval's ends and ``lambda_hat`` from the two levels."""
    lower = math.sqrt(1.0 + config.delta1) * config.g1(xi1)
    upper = math.sqrt(1.0 + config.delta2) * xi2
    w = config.interp
    if math.isinf(lower):
        lam = math.inf
    elif w == 0.0:
        lam = lower
    elif w == 1.0:
        lam = upper
    else:
        lam = lower + w * (upper - lower)
    return lower, upper, lam


def select_lambda(x, config: FdrConfig) -> SelectorTrace:
    """Run both selectors on ``x`` and pick the threshold level.

    The selected interval is ``[sqrt(1+delta1) g1(up), sqrt(1+delta2) down]``
    and ``lambda_hat`` sits at fraction ``config.interp`` of it.  When the
    step-up level is +inf (nothing selected anywhere) the interval collapses
    to +inf and the downstream estimate is identically zero.
    """
    abs_x, k_hat, xi1, xi2 = _select_levels(x, config.alpha1, config.alpha2)
    lower, upper, lam = _interval(xi1, xi2, config)
    return SelectorTrace(
        xi1_hat=xi1,
        xi2_hat=xi2,
        lower=lower,
        upper=upper,
        lambda_hat=lam,
        k_hat=k_hat,
        alpha1=config.alpha1,
        alpha2=config.alpha2,
        _abs_x=abs_x,
    )


def _block_lambdas(absx: np.ndarray, config: FdrConfig) -> np.ndarray:
    """``select_lambda(row, config).lambda_hat`` for each row of a finite (B, n)
    block, from the block's magnitudes ``absx``."""
    _, up, down = _block_levels(absx, config.alpha1, config.alpha2)
    return np.array([_interval(a, b, config)[2] for a, b in zip(up.tolist(), down.tolist())])
