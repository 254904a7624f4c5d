"""Exact risk functionals for soft thresholding under Gaussian noise.

For a single coordinate ``X = mu + Z`` with ``Z ~ N(0, 1)`` the soft
threshold rule at level ``L`` has mean squared error

    R(mu, L) = E (soft(X, L) - mu)^2
             = mu^2 [Phi(L - mu) - Phi(-L - mu)] + q(L - mu) + q(L + mu),
    q(a)     = (1 + L^2) Phi(-a) + (a - 2 L) phi(a),

obtained by splitting the loss over the kill region ``|X| <= L`` and the
two survive regions and reducing each piece to truncated normal moments.
Mixing over an empirical prior ``G`` (the distribution of the unknown
means) gives the average risk ``R_G``, its clipped-second-moment proxy
``rho_G(L) = E_G min(theta^2, L^2)``, the tail-penalized surrogate
``rho_G(L) + B0 Phi(-L)``, the two-sided rejection probability, and the
nominal false-discovery curve ``t -> 2 Phi(-t) / S_G(t)`` whose crossing
points calibrate the level selectors.  The curve is taken at every ``t``
as ``2 / E_G[r(theta) + r(-theta)]`` from the tail ratios
``r(u) = Phi(u - t) / Phi(-t)``, without forming a tail.  The level
minimizing the exact average risk comes from a certified grid search,
``optimal_levels``; the surrogate's, from the closed-form minimum of each
piece between its kinks at the ``|atoms|``, ``optimal_surrogate_level``.
Each returns a pair ``(level, risk)`` computed when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, log_ndtr, wrightomega

from .gauss import _INV_SQRT_2PI, _SQRT2, _as_float_array, _bisect, _cdf, _integer, _kept, _pdf, norm_cdf
from .thresholds import _check_level

__all__ = [
    "EmpiricalPrior",
    "soft_risk",
    "bayes_soft_risk",
    "clipped_second_moment",
    "surrogate_risk",
    "rejection_prob",
    "fdr_curve",
    "population_fdr_levels",
    "optimal_levels",
    "optimal_surrogate_level",
]

# Numerator 2*Phi(-t) underflows past ~38.6; the curve-crossing search never
# needs to look beyond this.
_TAIL_SEARCH_CAP = 38.0


@dataclass(frozen=True, eq=False)
class EmpiricalPrior:
    """Discrete distribution of coordinate means.

    ``atoms`` are the distinct support points, ``weights`` their
    probabilities (summing to one), and ``n`` the number of coordinates the
    prior summarizes (used for default level ranges; ``len(atoms)`` when
    not given).  A prior whose ``n * max|atom|^2`` is not finite is
    rejected: its mean square and every risk total would not be finite.
    """

    atoms: np.ndarray
    weights: np.ndarray
    n: int

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if atoms.ndim != 1 or atoms.size == 0:
            raise ValueError("atoms must be a nonempty 1-d vector")
        if weights.shape != atoms.shape:
            raise ValueError("weights must match atoms in length")
        if (weights < 0.0).any() or not np.isfinite(weights).all():
            raise ValueError("weights must be nonnegative and finite")
        total = float(weights.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights / total)
        object.__setattr__(self, "n", _integer("n", self.n, 1))
        top = float(np.abs(atoms).max())  # NaN or inf when an atom is not finite
        if not math.isfinite(self.n * top * top):
            raise ValueError("n * max|theta|^2 must be finite")

    @classmethod
    def from_atoms(cls, atoms, weights=None, n: int | None = None) -> "EmpiricalPrior":
        atoms = np.asarray(atoms, dtype=float)
        if weights is None:
            weights = np.full(atoms.shape, 1.0 / max(atoms.size, 1))
        if n is None:
            n = atoms.size
        return cls(atoms, np.asarray(weights, dtype=float), n)

    @classmethod
    def from_vector(cls, theta) -> "EmpiricalPrior":
        """Empirical distribution of the entries of a mean vector.

        The atoms and counts are those of ``np.unique(theta,
        return_counts=True)``, the first entry of each run of a sorted copy
        (so the same zero of ``+-0.0``), read off a kept buffer.
        """
        theta = np.asarray(theta, dtype=float)
        if theta.ndim != 1 or theta.size == 0:
            raise ValueError("theta must be a nonempty 1-d vector")
        with _kept(theta.shape) as values:
            values[:] = theta
            values.sort()
            starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
            atoms = values[starts]
        return cls(atoms, np.diff(np.r_[starts, theta.size]) / theta.size, theta.size)

    @property
    def mean_square(self) -> float:
        return float(np.dot(self.weights, self.atoms**2))

    @property
    def default_level_max(self) -> float:
        """``sqrt(2 log N) + 4``: the default top of every level range, above
        every risk minimizer at 1e-12 tolerance.

        ``log N`` is the larger of ``log max(n, 2)`` and ``log(1 / w) - 1e-9``
        for the least positive weight ``w``, so a ``from_atoms`` spike rarer
        than one coordinate in ``n`` raises the top.  A ``from_vector`` weight
        is ``1 / n`` or more up to rounding, far inside the 1e-9, so there the
        top is ``sqrt(2 log max(n, 2)) + 4`` bit for bit.
        """
        rarest = -math.log(float(self.weights[self.weights > 0.0].min()))
        return math.sqrt(2.0 * max(math.log(max(self.n, 2)), rarest - 1e-9)) + 4.0

    @property
    def is_degenerate(self) -> bool:
        """True when all mass sits at zero (no signal)."""
        return bool(np.all((self.atoms == 0.0) | (self.weights == 0.0)))


def _survive_term(a, level, m0):
    """q(a) = E (Z - level)^2 1{Z > a}, given ``m0 = Phi(-a)``."""
    return (1.0 + level * level) * m0 + (a - 2.0 * level) * _pdf(a)


def _soft_terms(mu, level):
    """``(R(mu, level), T(mu, level))`` at finite levels, without checks.

    ``R`` is the soft risk and ``T = Phi(mu - level) + Phi(-mu - level)`` the
    rejection probability, both from the same three ``erfc`` calls; ``T`` is
    ``rejection_prob``'s summand bit for bit.
    """
    lo, hi = level - mu, level + mu
    upper = _cdf(-hi)  # Phi(-(L + mu)), shared with q(L + mu)
    below = _cdf(-lo)  # Phi(mu - L), shared with q(L - mu)
    risk = mu**2 * (_cdf(lo) - upper)
    risk += _survive_term(lo, level, below)
    risk += _survive_term(hi, level, upper)
    return risk, below + upper


def soft_risk(mu, level):
    """Mean squared error of soft thresholding at ``level``, mean ``mu``.

    Broadcasts over array arguments.  ``level = +inf`` (the zero estimator)
    gives ``mu^2``; ``level = 0`` (the identity) gives 1.
    """
    mu_arr = _as_float_array(mu, "mu")
    mu_b, lev_b = np.broadcast_arrays(mu_arr, _check_level(level))
    finite = np.isfinite(lev_b)
    out = _soft_terms(mu_b, np.where(finite, lev_b, 1.0))[0]
    out = np.where(finite, out, mu_b**2)
    if out.ndim == 0:
        return float(out)
    return out


def _mix(prior: EmpiricalPrior, per_atom, t):
    """``E_G per_atom(theta, t)``: ``per_atom`` on the atoms-by-levels grid,
    averaged with the prior weights; a float for a scalar ``t``."""
    t = np.asarray(t, dtype=float)
    mixed = prior.weights @ per_atom(prior.atoms[:, None], np.atleast_1d(t)[None, :])
    return float(mixed[0]) if t.ndim == 0 else mixed


def bayes_soft_risk(prior: EmpiricalPrior, level):
    """Average soft-threshold risk ``E_G R(theta, level)``."""
    return _mix(prior, soft_risk, level)


def clipped_second_moment(prior: EmpiricalPrior, level):
    """``E_G min(theta^2, level^2)``; exact ``E_G theta^2`` at ``level = inf``."""
    return _mix(prior, lambda th, lev: np.minimum(th**2, lev**2), _check_level(level))


def _check_b0(b0: float) -> None:
    if not (4.0 <= b0 < math.inf):
        raise ValueError("need 4 <= b0 < inf")


def surrogate_risk(prior: EmpiricalPrior, level, b0: float = 4.0):
    """Clipped second moment plus the Gaussian-tail penalty ``b0 * Phi(-level)``.

    ``4 <= b0 < inf`` is required; with that constant the surrogate dominates the
    exact average risk up to the standard sandwich inequalities.
    """
    _check_b0(b0)
    # the level is checked first; norm_cdf(-inf) is exactly 0
    return clipped_second_moment(prior, level) + b0 * norm_cdf(-np.asarray(level, dtype=float))


def rejection_prob(prior: EmpiricalPrior, t):
    """Two-sided exceedance probability ``E_G P(|theta + Z| >= t)``."""
    t_arr = np.asarray(t, dtype=float)
    if np.isnan(t_arr).any() or (t_arr < 0.0).any():
        raise ValueError("t must be >= 0")
    return _mix(prior, lambda th, tt: norm_cdf(th - tt) + norm_cdf(-th - tt), t_arr)


def fdr_curve(prior: EmpiricalPrior, t):
    """Nominal false-discovery proportion ``2 Phi(-t) / S_G(t)`` at level ``t``.

    Equals 1 at ``t = 0`` and, for a prior with any nonzero atom, decreases
    strictly to 0; for the degenerate prior it is identically 1.  The value
    is ``2 / E_G[r(theta) + r(-theta)]``, each tail ratio
    ``r(u) = Phi(u - t) / Phi(-t)`` taken without forming a tail
    (``_tail_ratio``, exactly 1 at ``u = 0``); a tail ratio past the float
    range makes the value read 0.  At ``t = inf`` it is the limit: 1 for
    the degenerate prior, 0 otherwise.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.isnan(t_arr).any() or (t_arr < 0.0).any():
        raise ValueError("t must be >= 0")
    finite = t_arr < math.inf
    # only atoms of positive weight: a zero weight times an overflowed ratio is NaN
    live = prior.weights > 0.0
    th, tt = prior.atoms[live, None], np.atleast_1d(np.where(finite, t_arr, 0.0))[None, :]
    with np.errstate(over="ignore"):
        mixed = prior.weights[live] @ (_tail_ratio(th, tt) + _tail_ratio(-th, tt))
    out = np.where(finite, 2.0 / mixed.reshape(t_arr.shape), float(prior.is_degenerate))
    return out if t_arr.ndim else float(out)


def _tail_ratio(u, t):
    """``Phi(u - t) / Phi(-t)`` without forming either tail.

    Where ``a = t - u > 0``, ``Phi(-a) = erfcx(a / sqrt 2) exp(-a^2 / 2) / 2``,
    so the Gaussian factors cancel into ``exp(u (t - u/2))``; elsewhere the
    ratio is taken in log space.
    """
    a = t - u
    scaled = erfcx(np.maximum(a, 0.0) / _SQRT2) / erfcx(t / _SQRT2)
    scaled *= np.exp(u * (t - u / 2))
    return np.where(a > 0.0, scaled, np.exp(log_ndtr(-np.minimum(a, 0.0)) - log_ndtr(-t)))


def population_fdr_levels(prior: EmpiricalPrior, alpha1p: float, alpha2p: float):
    """Crossing points of the nominal false-discovery curve.

    Returns ``(level1, level2)`` where ``level1`` is the smallest ``t`` with
    curve ``<= alpha1p`` and ``level2`` the largest ``t`` with curve
    ``>= alpha2p``.  Requires ``0 < alpha2p < alpha1p < 1``; then
    ``level1 <= level2``.  Both are ``+inf`` for the degenerate prior.
    """
    if not (0.0 < alpha2p < alpha1p < 1.0):
        raise ValueError("need 0 < alpha2p < alpha1p < 1")
    if prior.is_degenerate:
        return math.inf, math.inf

    def crossing(target: float) -> float:
        lo, hi = 0.0, 1.0
        while fdr_curve(prior, hi) > target:
            hi *= 2.0
            if hi > _TAIL_SEARCH_CAP:
                raise ValueError("curve crossing lies beyond the searchable tail")
        return _bisect(lambda t: fdr_curve(prior, t) > target, lo, hi)

    return crossing(alpha1p), crossing(alpha2p)


def _exact_slope(prior: EmpiricalPrior, level: float) -> tuple[float, float]:
    """``(R_G', R_G'')`` at ``level``: per atom ``R' = 2L T - 2[phi(L-mu) + phi(L+mu)]``
    and ``R'' = 2T - 2mu[phi(L-mu) - phi(L+mu)]``, ``T = Phi(mu-L) + Phi(-mu-L)``."""
    mu, w = prior.atoms, prior.weights
    tail = float(w @ (_cdf(mu - level) + _cdf(-mu - level)))
    dens_lo, dens_hi = _pdf(level - mu), _pdf(level + mu)
    d1 = 2.0 * (level * tail - float(w @ (dens_lo + dens_hi)))
    return d1, 2.0 * (tail - float(w @ (mu * (dens_lo - dens_hi))))


def _exact_terms(prior: EmpiricalPrior, levels: np.ndarray):
    """``(R_G, 2 T_G)`` on an array of finite levels: the exact average risk,
    as ``bayes_soft_risk`` gives it, and its curvature bound."""
    risk, tail = _soft_terms(prior.atoms[:, None], levels)
    return prior.weights @ risk, 2.0 * (prior.weights @ tail)


# The level search evaluates every _COARSE-th level of its 2048-point grid,
# then every level of each cell whose lower bound reaches the best value.
_COARSE = 32

# Relative slack on the cell bounds, far above the rounding of the values.
_CELL_SLACK = 1e-12


def _grid_argmin(prior: EmpiricalPrior, terms, grid: np.ndarray) -> tuple[int, np.ndarray]:
    """``(i, vals)``: the first index of the smallest objective value on ``grid``,
    and the values, +inf at each level that was not evaluated.

    ``terms(prior, levels)`` gives the objective ``f`` and, at each
    level ``L``, an upper bound ``C(L)`` on the curvature of ``f`` at every
    level from ``L`` on.  On a cell ``[a, b]`` between evaluated levels
    ``f`` is then at least ``min(f(a), f(b)) - C(a) (b - a)^2 / 8``.  Every
    ``_COARSE``-th level and the last are evaluated first; then every level
    of the cells whose bound is at most the best value found, plus a
    relative slack of ``_CELL_SLACK``.  The levels of the other cells lie
    above that value, so ``i`` is the index that evaluating the whole grid
    gives.
    """
    vals = np.full(grid.size, math.inf)

    def evaluate(index):
        # runs of a multiple of 4 levels: OpenBLAS's matrix-vector product, which mixes
        # over the atoms, rounds the last (size mod 4) levels of a run apart, and the
        # full grid has none, so each level gets the value the full grid gives it
        run = np.concatenate((index, index[-1:].repeat(-index.size % 4)))
        values, curvature = terms(prior, grid[run])
        vals[index] = values[: index.size]
        return curvature[: index.size]

    ends = np.append(np.arange(0, grid.size - 1, _COARSE), grid.size - 1)
    curvature = evaluate(ends)
    best = vals[ends].min()
    left, right = ends[:-1], ends[1:]
    width = grid[right] - grid[left]
    bound = np.minimum(vals[left], vals[right]) - curvature[:-1] * width**2 / 8.0
    inner = (left[bound <= best + _CELL_SLACK * abs(best), None] + np.arange(1, _COARSE)).ravel()
    inner = inner[inner < grid.size - 1]
    if inner.size:
        evaluate(inner)
    return int(np.argmin(vals)), vals


def _top_level(prior: EmpiricalPrior, level_max: float | None) -> float:
    """The top of a level search: ``level_max``, by default ``prior.default_level_max``.

    A top whose square overflows is refused: ``0 * inf`` would make a risk NaN.
    """
    top = prior.default_level_max if level_max is None else level_max
    if not (0.0 < top and top * top < math.inf):
        raise ValueError("level_max must be positive and finite, with a finite square")
    return top


def _or_infinite_level(prior: EmpiricalPrior, level: float, risk: float) -> tuple[float, float]:
    """``(level, risk)`` if ``risk`` is below the prior mean square ``M`` by more than
    a relative 1e-12, else the zero estimator's ``(inf, M)``.  The slack is relative
    so that a prior whose ``M`` is far below 1 keeps its finite optimum."""
    if risk < prior.mean_square - 1e-12 * prior.mean_square:
        return level, risk
    return math.inf, prior.mean_square


def optimal_levels(prior: EmpiricalPrior, level_max: float | None = None) -> tuple[float, float]:
    """``(level, risk)`` minimizing the exact average risk ``bayes_soft_risk``.

    Finds the best level of a 2048-point grid on ``[0, level_max]``
    (default ``prior.default_level_max``), runs one Newton solve on the
    closed-form slope in the bracket around it, where ``R_G`` is smooth,
    keeps the grid value when lower, and compares with the infinite level
    (``_or_infinite_level``).  The grid's best level is certified by the
    curvature bound ``R_G'' <= 2 T_G``, with ``T_G = rejection_prob``,
    which is nonincreasing in the level: per atom ``R'' = 2 T - 2 mu
    [phi(L - mu) - phi(L + mu)]``, and the second term is never negative
    for ``L >= 0``.  So ``_grid_argmin`` searches level by level only the
    cells whose bound comes within a relative 1e-12 of the best value: 158
    of the 2048 levels on the n = 1024 benchmark prior and 127 on the
    n = 1e5 one.
    """
    grid = np.linspace(0.0, _top_level(prior, level_max), 2048)
    i, vals = _grid_argmin(prior, _exact_terms, grid)
    # safeguarded Newton on R_G' from the bracket's midpoint: a bisection step where the
    # curvature is not positive or a Newton step leaves the bracket
    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, grid.size - 1)])
    z = 0.5 * (lo + hi)
    for _ in range(60):  # Newton needs about five steps, bisection about 40
        d1, d2 = _exact_slope(prior, z)
        newton = z - d1 / d2 if d2 > 0.0 else math.nan
        lo, hi = (lo, z) if d1 > 0.0 else (z, hi)
        step = newton if lo <= newton <= hi else 0.5 * (lo + hi)
        step, z = step - z, step
        if abs(step) <= 1e-13 * max(1.0, z):
            break
    if (fz := float(_exact_terms(prior, np.array([z]))[0][0])) <= vals[i]:
        return _or_infinite_level(prior, z, fz)
    return _or_infinite_level(prior, float(grid[i]), float(vals[i]))


def optimal_surrogate_level(
    prior: EmpiricalPrior, b0: float = 4.0, level_max: float | None = None
) -> tuple[float, float]:
    """``(level, risk)`` minimizing ``surrogate_risk(prior, level, b0)``, in closed form.

    With the ``|atoms|`` sorted, ``a_1 <= ... <= a_m``, the surrogate on
    the piece ``[a_k, a_k+1]`` (``a_0 = 0``, ``a_m+1 = inf``) is
    ``f_k(L) = C_k + g_k L^2 + b0 Phi(-L)``, with ``C_k`` the weight-mixed
    ``a_j^2`` of ``j <= k`` and ``g_k`` the weight of ``j > k``.  Each
    ``f_k`` is convex, with its one stationary point at ``L^2 = W(c^2)``,
    ``c = b0 / (2 g_k sqrt(2 pi))`` and ``W`` the Lambert function, taken
    as the Wright omega of ``2 log c`` so that ``c^2`` cannot overflow.
    Clipped to its piece and to ``level_max``, that point is the piece's
    minimum; the least piece value gives the level.  Every ``f_k`` lies on
    or above the surrogate, so a piece past ``level_max``, whose point the
    clip moves to ``level_max``, never undercuts the piece that holds it.
    The risk is ``surrogate_risk`` at that level, compared with the
    infinite level as in ``optimal_levels``.  O(m log m) time and O(m)
    memory for m atoms.
    """
    _check_b0(b0)
    order = np.argsort(np.abs(prior.atoms))
    edges, weights = np.abs(prior.atoms)[order], prior.weights[order]
    below = np.r_[0.0, np.cumsum(weights * edges**2)]  # C_k
    above = np.r_[np.cumsum(weights[::-1])[::-1], 0.0]  # g_k
    with np.errstate(divide="ignore"):  # g_k = 0: the point is +inf, clipped to the piece
        root = np.sqrt(wrightomega(2.0 * (math.log(0.5 * b0 * _INV_SQRT_2PI) - np.log(above))))
    levels = np.minimum(np.clip(root, np.r_[0.0, edges], np.r_[edges, math.inf]), _top_level(prior, level_max))
    best = float(levels[np.argmin(below + above * levels**2 + b0 * _cdf(-levels))])
    return _or_infinite_level(prior, best, float(surrogate_risk(prior, best, b0)))
