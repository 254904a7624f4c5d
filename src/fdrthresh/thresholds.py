"""Threshold rules: soft, hard, firm, and soft/firm interpolation.

A threshold family is a level-indexed map ``x -> t(x, level)`` applied
componentwise.  The smooth families (everything except hard) satisfy the
sandwich ``|soft(x, L)| <= |t(x, L)| <= |x| 1{|x| > L}`` with matching sign
and are Lipschitz in ``x`` with constant ``slope``, the constant that drives
the risk and concentration bounds downstream.
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
    return _firm_mix(x, level, slope, 1.0)


def _firm_mix(x, level, slope: float, w: float):
    """``sign(x) [(1 - w) (|x| - level)+ + w min(|x|, slope (|x| - level)+)]``, +0.0 at
    an infinite level: firm at ``w = 1`` and the soft/firm interpolation below it.
    ``level`` is already checked.

    Bit for bit ``(1 - w) soft(x, level) + w firm(x, level, slope)``, signed zeros
    included: ``sign(x)`` is +-1 or +0.0 and rounding is symmetric, so multiplying
    the mix by it gives what mixing the two signed rules gives.  At ``w = 1`` the soft
    term and at ``w = 0`` the firm term is skipped, so an infinite ``|x|`` stays
    infinite there; for finite ``x``, ``1.0 e + 0.0 f = e`` with ``e, f >= 0``.
    """
    arr = np.asarray(x, dtype=float)
    a = np.abs(arr)
    excess = np.maximum(a - level, 0.0)
    if w == 0.0:
        out = excess
    elif w == 1.0:
        out = np.minimum(a, slope * excess)
    else:
        out = (1.0 - w) * excess + w * np.minimum(a, slope * excess)
    out = np.where(np.isinf(level), 0.0, np.sign(arr) * out)
    return out if arr.ndim else float(out)


@dataclass(frozen=True)
class ThresholdFamily:
    """A level-indexed threshold rule plus its Lipschitz metadata.

    kind         one of 'soft', 'hard', 'firm', 'interpolated'
    firm_slope   gain of the firm component, in (1, 2); unused by soft/hard
    weight       mixing weight w in [0, 1] for 'interpolated'
                 (w = 0 is soft, w = 1 is firm); 0.5 by default

    The defaults of ``firm_slope`` and ``weight`` are the CLI's too.
    """

    kind: str
    firm_slope: float = 1.5
    weight: float = 0.5

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
    return _firm_mix(x, _check_level(level), family.firm_slope, family.weight)
