"""Threshold rules: soft, hard, firm, and soft/firm interpolation.

A threshold family is a level-indexed map ``x -> t(x, level)`` applied
componentwise.  The smooth families (everything except hard) satisfy the
sandwich ``|soft(x, L)| <= |t(x, L)| <= |x| 1{|x| > L}`` with matching sign,
are Lipschitz in ``x`` with constant ``slope`` and in ``level`` with
constant ``level_lipschitz``; those two constants drive every risk and
concentration bound downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "soft",
    "hard",
    "firm",
    "ThresholdFamily",
    "apply_family",
    "PenalizedFit",
    "plse_local_minima",
]


def _check_level(level):
    """A float level, or an array of levels such as a (B, 1) column of
    per-row levels for a (B, n) block of observations."""
    if np.ndim(level):
        level = np.asarray(level, dtype=float)
        if not (level >= 0.0).all():
            raise ValueError("level must be >= 0")
        return level
    level = float(level)
    if math.isnan(level) or level < 0.0:
        raise ValueError("level must be >= 0")
    return level


def _check_observations(x) -> np.ndarray:
    """``x`` as a nonempty, finite 1-d float vector."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("x must be a nonempty 1-d vector")
    if not np.isfinite(arr).all():
        raise ValueError("x must be finite")
    return arr


def soft(x, level: float):
    """Soft threshold ``sign(x) * (|x| - level)+``; ``level = inf`` maps to 0.

    ``level`` may be an array that broadcasts to the shape of ``x``.
    """
    level = _check_level(level)
    arr = np.asarray(x, dtype=float)
    # sign(x) * max(|x| - level, 0) in place, bitwise the same
    out = np.abs(arr, out=np.empty_like(arr))
    out -= level
    np.maximum(out, 0.0, out=out)
    out *= np.sign(arr)
    # +0.0, not sign(x) * 0.0, at an infinite level
    np.copyto(out, 0.0, where=np.isinf(level))
    return out if arr.ndim else float(out)


def hard(x, level: float):
    """Hard threshold ``x * 1{|x| > level}`` (strict inequality).

    ``level`` may be an array that broadcasts against ``x``.
    """
    level = _check_level(level)
    arr = np.asarray(x, dtype=float)
    out = np.where(np.abs(arr) > level, arr, 0.0)
    return out if arr.ndim else float(out)


def firm(x, level: float, slope: float):
    """Firm threshold ``sign(x) * min(|x|, slope * (|x| - level)+)``.

    ``slope`` must lie in the open interval (1, 2).  The rule coincides with
    the minimizer of ``(x - m)^2 / 2 + pen(m)`` for the minimax concave
    penalty ``pen(m) = level^2 * int_0^{|m|/level} (1 - u/gamma)+ du`` with
    shape ``gamma = slope / (slope - 1)``: identity beyond
    ``slope * level / (slope - 1) = gamma * level``, linear with gain
    ``slope`` on the middle segment, zero inside ``[-level, level]``.
    """
    level = _check_level(level)
    slope = float(slope)
    if not (1.0 < slope < 2.0):
        raise ValueError("slope must lie in (1, 2)")
    arr = np.asarray(x, dtype=float)
    a = np.abs(arr)
    out = np.sign(arr) * np.minimum(a, slope * np.maximum(a - level, 0.0))
    out = np.where(np.isinf(level), 0.0, out)
    return out if arr.ndim else float(out)


@dataclass(frozen=True)
class ThresholdFamily:
    """A level-indexed threshold rule plus its Lipschitz metadata.

    kind         one of 'soft', 'hard', 'firm', 'interpolated'
    firm_slope   gain of the firm component, in (1, 2); unused by soft/hard
    weight       mixing weight w in [0, 1] for 'interpolated'
                 (w = 0 is soft, w = 1 is firm)
    """

    kind: str
    firm_slope: float = 1.5
    weight: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("soft", "hard", "firm", "interpolated"):
            raise ValueError(f"unknown threshold kind: {self.kind!r}")
        if self.kind in ("firm", "interpolated") and not (1.0 < self.firm_slope < 2.0):
            raise ValueError("firm_slope must lie in (1, 2)")
        if self.kind == "interpolated" and not (0.0 <= self.weight <= 1.0):
            raise ValueError("weight must lie in [0, 1]")

    @property
    def is_smooth(self) -> bool:
        """True for the Lipschitz families covered by the risk theory."""
        return self.kind != "hard"

    @property
    def slope(self) -> float:
        """Lipschitz constant in x (and the sandwich gain), >= 1."""
        if self.kind == "soft":
            return 1.0
        if self.kind == "firm":
            return self.firm_slope
        if self.kind == "interpolated":
            return 1.0 + self.weight * (self.firm_slope - 1.0)
        return math.inf

    @property
    def level_lipschitz(self) -> float:
        """Lipschitz constant in the threshold level."""
        if self.kind == "soft":
            return 1.0
        if self.kind in ("firm", "interpolated"):
            return max(1.0, self.firm_slope)
        return math.inf

    def apply(self, x, level: float):
        return apply_family(x, level, self)

    def describe(self) -> str:
        if self.kind == "firm":
            return f"firm(slope={self.firm_slope:g})"
        if self.kind == "interpolated":
            return f"interpolated(weight={self.weight:g}, slope={self.firm_slope:g})"
        return self.kind


def apply_family(x, level: float, family: ThresholdFamily):
    """Apply ``family`` at ``level`` componentwise.

    ``level`` may be an array that broadcasts to the shape of ``x``, such as
    a (B, 1) column of levels for the rows of a (B, n) block.
    """
    if family.kind == "soft":
        return soft(x, level)
    if family.kind == "hard":
        return hard(x, level)
    if family.kind == "firm":
        return firm(x, level, family.firm_slope)
    s = soft(x, level)
    f = firm(x, level, family.firm_slope)
    out = (1.0 - family.weight) * np.asarray(s) + family.weight * np.asarray(f)
    return out if np.asarray(x).ndim else float(out)


@dataclass(frozen=True)
class PenalizedFit:
    """One local minimum of the penalized least-squares criterion.

    The fit keeps the ``support_size`` largest observations (in absolute
    value) untouched and zeroes the rest, i.e. it is the hard-threshold
    rule at ``implied_level``.  ``implied_level`` is +inf for the empty fit.
    """

    support_size: int
    implied_level: float
    estimate: np.ndarray


def plse_local_minima(x, penalty_levels) -> list[PenalizedFit]:
    """All local minima of least squares with penalty ``sum_{k<=|S|} level_k^2``.

    ``penalty_levels`` must be a nonincreasing, nonnegative vector of the
    same length ``n`` as ``x``.  A support size ``k`` is a local minimum iff
    ``|x|_(k) >= level_k`` and ``level_{k+1} >= |x|_(k+1)`` where ``|x|_(k)``
    is the k-th largest absolute observation and out-of-range conditions
    are vacuous (k = 0 and k = n).  Returned in increasing support order.
    """
    arr = _check_observations(x)
    levels = np.asarray(penalty_levels, dtype=float)
    if levels.shape != arr.shape:
        raise ValueError("penalty_levels must have the same length as x")
    if (levels < 0.0).any() or np.isnan(levels).any():
        raise ValueError("penalty_levels must be nonnegative")
    if (np.diff(levels) > 1e-12).any():
        raise ValueError("penalty_levels must be nonincreasing")

    n = arr.size
    order = np.argsort(-np.abs(arr), kind="stable")
    mags = np.abs(arr)[order]

    fits: list[PenalizedFit] = []
    for k in range(n + 1):
        ok_lower = k == 0 or mags[k - 1] >= levels[k - 1]
        ok_upper = k == n or levels[k] >= mags[k]
        if ok_lower and ok_upper:
            est = np.zeros(n)
            keep = order[:k]
            est[keep] = arr[keep]
            implied = float(levels[k - 1]) if k >= 1 else math.inf
            fits.append(PenalizedFit(k, implied, est))
    return fits
