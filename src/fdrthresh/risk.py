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
points calibrate the level selectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gauss import _as_float_array, _bisect, norm_cdf, norm_pdf
from .thresholds import _check_level

__all__ = [
    "EmpiricalPrior",
    "soft_risk",
    "bayes_soft_risk",
    "clipped_second_moment",
    "surrogate_risk",
    "default_surrogate_constant",
    "rejection_prob",
    "fdr_curve",
    "population_fdr_levels",
    "OptimalLevels",
    "optimal_levels",
    "smooth_risk_bound",
    "DiagnosticConstants",
    "diagnostic_constants",
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
        if self.n < 1:
            raise ValueError("n must be >= 1")
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
        return cls(atoms, np.asarray(weights, dtype=float), int(n))

    @classmethod
    def from_vector(cls, theta) -> "EmpiricalPrior":
        """Empirical distribution of the entries of a mean vector."""
        theta = np.asarray(theta, dtype=float)
        if theta.ndim != 1 or theta.size == 0:
            raise ValueError("theta must be a nonempty 1-d vector")
        values, counts = np.unique(theta, return_counts=True)
        return cls(values, counts / theta.size, theta.size)

    @property
    def mean_square(self) -> float:
        return float(np.dot(self.weights, self.atoms**2))

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.atoms)))

    @property
    def is_degenerate(self) -> bool:
        """True when all mass sits at zero (no signal)."""
        return bool(np.all((self.atoms == 0.0) | (self.weights == 0.0)))


def _survive_term(a, level, m0=None):
    """q(a) = E (Z - level)^2 1{Z > a}; pass ``m0 = Phi(-a)`` when already known."""
    m0 = norm_cdf(-a) if m0 is None else m0
    dens = norm_pdf(a)
    return (1.0 + level * level) * m0 + (a - 2.0 * level) * dens


def soft_risk(mu, level):
    """Mean squared error of soft thresholding at ``level``, mean ``mu``.

    Broadcasts over array arguments.  ``level = +inf`` (the zero estimator)
    gives ``mu^2``; ``level = 0`` (the identity) gives 1.
    """
    mu_arr = _as_float_array(mu, "mu")
    mu_b, lev_b = np.broadcast_arrays(mu_arr, _check_level(level))
    finite = np.isfinite(lev_b)
    lev_f = np.where(finite, lev_b, 1.0)
    upper = norm_cdf(-lev_f - mu_b)  # Phi(-(L + mu)), shared with q(L + mu)
    kill = mu_b**2 * (norm_cdf(lev_f - mu_b) - upper)
    out = kill + _survive_term(lev_f - mu_b, lev_f) + _survive_term(lev_f + mu_b, lev_f, upper)
    out = np.where(finite, out, mu_b**2)
    if out.ndim == 0:
        return float(out)
    return out


def bayes_soft_risk(prior: EmpiricalPrior, level):
    """Average soft-threshold risk ``E_G R(theta, level)``."""
    lev = np.asarray(level, dtype=float)
    vals = soft_risk(prior.atoms[:, None], np.atleast_1d(lev)[None, :])
    mixed = prior.weights @ np.atleast_2d(vals)
    return float(mixed[0]) if lev.ndim == 0 else mixed


def clipped_second_moment(prior: EmpiricalPrior, level):
    """``E_G min(theta^2, level^2)``; exact ``E_G theta^2`` at ``level = inf``."""
    lev = np.asarray(_check_level(level))
    clipped = np.minimum(prior.atoms[:, None] ** 2, np.atleast_1d(lev)[None, :] ** 2)
    mixed = prior.weights @ clipped
    return float(mixed[0]) if lev.ndim == 0 else mixed


def surrogate_risk(prior: EmpiricalPrior, level, b0: float = 4.0):
    """Clipped second moment plus the Gaussian-tail penalty ``b0 * Phi(-level)``.

    ``b0 >= 4`` is required; with that constant the surrogate dominates the
    exact average risk up to the standard sandwich inequalities.
    """
    if not (b0 >= 4.0):
        raise ValueError("b0 must be >= 4")
    lev = np.asarray(level, dtype=float)
    tail = np.where(np.isfinite(lev), norm_cdf(-np.where(np.isfinite(lev), lev, 1.0)), 0.0)
    out = clipped_second_moment(prior, level) + b0 * tail
    return float(out) if lev.ndim == 0 else out


def default_surrogate_constant(alpha2p: float, c0: float = 1.0) -> float:
    """Recommended tail weight ``max(8 / alpha2p, 2 c0^2)``.

    ``alpha2p`` is the population step-down rate and ``c0`` the smooth-family
    risk constant (1 for soft thresholding).  Always >= 4.
    """
    if not (0.0 < alpha2p < 1.0):
        raise ValueError("alpha2p must lie in (0, 1)")
    if not (c0 >= 1.0):
        raise ValueError("c0 must be >= 1")
    return max(8.0 / alpha2p, 2.0 * c0 * c0)


def rejection_prob(prior: EmpiricalPrior, t):
    """Two-sided exceedance probability ``E_G P(|theta + Z| >= t)``."""
    t_arr = np.asarray(t, dtype=float)
    if np.isnan(t_arr).any() or (t_arr < 0.0).any():
        raise ValueError("t must be >= 0")
    th = prior.atoms[:, None]
    tt = np.atleast_1d(t_arr)[None, :]
    vals = norm_cdf(th - tt) + norm_cdf(-th - tt)
    mixed = prior.weights @ vals
    return float(mixed[0]) if t_arr.ndim == 0 else mixed


def fdr_curve(prior: EmpiricalPrior, t):
    """Nominal false-discovery proportion ``2 Phi(-t) / S_G(t)`` at level ``t``.

    Equals 1 at ``t = 0`` and, for a prior with any nonzero atom, decreases
    strictly to 0; for the degenerate prior it is identically 1.
    """
    t_arr = np.asarray(t, dtype=float)
    num = 2.0 * norm_cdf(-np.atleast_1d(t_arr))
    den = np.atleast_1d(rejection_prob(prior, t_arr))
    out = num / den
    return float(out[0]) if t_arr.ndim == 0 else out


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
    tail = float(w @ (norm_cdf(mu - level) + norm_cdf(-mu - level)))
    dens_lo, dens_hi = norm_pdf(level - mu), norm_pdf(level + mu)
    d1 = 2.0 * (level * tail - float(w @ (dens_lo + dens_hi)))
    return d1, 2.0 * (tail - float(w @ (mu * (dens_lo - dens_hi))))


def _surrogate_slope(prior: EmpiricalPrior, level: float, b0: float) -> tuple[float, float]:
    """Derivatives of the surrogate, convex between its kinks at the ``|atoms|``."""
    above = float(prior.weights @ (np.abs(prior.atoms) > level))
    dens = norm_pdf(level)
    return 2.0 * level * above - b0 * dens, 2.0 * above + b0 * level * dens


def _solve_slope(slope, lo: float, hi: float) -> float:
    """Safeguarded Newton for a zero of ``slope`` on [lo, hi], from the midpoint."""
    x = 0.5 * (lo + hi)
    for _ in range(60):  # Newton needs about five steps, bisection about 40
        d1, d2 = slope(x)
        newton = x - d1 / d2 if d2 > 0.0 else math.nan
        lo, hi = (lo, x) if d1 > 0.0 else (x, hi)
        step = newton if lo <= newton <= hi else 0.5 * (lo + hi)
        step, x = step - x, step
        if abs(step) <= 1e-13 * max(1.0, x):
            break
    return x


def _minimize_level(prior: EmpiricalPrior, f, slope, level_max: float, *args):
    grid = np.linspace(0.0, level_max, 2048)
    vals = f(prior, grid, *args)
    i = int(np.argmin(vals))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    edges = np.unique(np.clip(np.r_[lo, hi, np.abs(prior.atoms)], lo, hi))  # split at kinks
    x, v = float(grid[i]), float(vals[i])
    for a, b in zip(edges[:-1], edges[1:]):
        z = _solve_slope(lambda lv: slope(prior, lv, *args), float(a), float(b))
        if (fz := float(f(prior, z, *args))) <= v:
            x, v = z, fz
    if v < prior.mean_square - 1e-12 * max(1.0, prior.mean_square):
        return x, v
    return math.inf, prior.mean_square


@dataclass(frozen=True, eq=False)
class OptimalLevels:
    """Minimizers of the exact and surrogate average risks.

    ``level_exact``/``level_surrogate`` are +inf when the zero estimator
    (infinite level) is optimal, in which case the corresponding risk is
    the prior mean square.  The surrogate pair is minimized on first read.
    """

    level_exact: float
    risk_exact: float
    b0: float
    prior: EmpiricalPrior = field(repr=False)
    level_max: float = field(repr=False)

    @cached_property
    def _surrogate(self) -> tuple[float, float]:
        return _minimize_level(
            self.prior, surrogate_risk, _surrogate_slope, self.level_max, self.b0
        )

    level_surrogate = property(lambda self: self._surrogate[0])
    risk_surrogate = property(lambda self: self._surrogate[1])


def optimal_levels(
    prior: EmpiricalPrior, b0: float = 4.0, level_max: float | None = None
) -> OptimalLevels:
    """Minimize the exact risk now and the surrogate on its first read.

    Each search scans a 2048-point grid on ``[0, level_max]``, runs a safeguarded
    Newton solve on the closed-form slope in the best bracket (bisection when the
    curvature is not positive or a step leaves it), keeps the grid value when lower,
    and compares with the infinite-level limit, the prior mean square.  The default
    ``level_max = sqrt(2 log n) + 4`` covers every minimizer at 1e-12 tolerance.
    """
    if level_max is None:
        level_max = math.sqrt(2.0 * math.log(max(prior.n, 2))) + 4.0
    if not (level_max > 0.0) or not math.isfinite(level_max):
        raise ValueError("level_max must be positive and finite")
    if not (b0 >= 4.0):
        raise ValueError("b0 must be >= 4")
    lam, eta = _minimize_level(prior, bayes_soft_risk, _exact_slope, level_max)
    return OptimalLevels(lam, eta, float(b0), prior, float(level_max))


def smooth_risk_bound(prior: EmpiricalPrior, level: float, c0: float) -> float:
    """Risk envelope for any sandwiched Lipschitz threshold family.

    ``clipped_second_moment(prior, sqrt(level^2 + 2)) + c0^2 * soft_risk(0, level)``
    with ``c0 = slope / (2 - slope) >= 1``.  Valid for every family whose
    rule is sandwiched between soft and hard and is ``slope``-Lipschitz.
    """
    if not (c0 >= 1.0):
        raise ValueError("c0 must be >= 1")
    level = _check_level(float(level))
    if math.isinf(level):
        return prior.mean_square
    widened = math.sqrt(level * level + 2.0)
    return float(clipped_second_moment(prior, widened) + c0 * c0 * soft_risk(0.0, level))


@dataclass(frozen=True)
class DiagnosticConstants:
    """Finite-sample constants entering the adaptive-risk error terms."""

    l2n: float
    tau1_star: float
    tau2_star: float
    nu1_star: float
    nu2_star: float


def _check_decay(c1: float, c2: float, m0: float) -> None:
    """The exponents of a level transform's risk-decay certificate."""
    if not (0.0 < c1 <= 2.0):
        raise ValueError("c1 must lie in (0, 2]")
    if abs(c2) > m0:
        raise ValueError("|c2| must not exceed m0")
    if c1 == 2.0 and c2 > 0.0:
        raise ValueError("c2 must be <= 0 when c1 = 2")


def _log_plus(x: float) -> float:
    return max(1.0, math.log(x))


def diagnostic_constants(
    n: int,
    delta1: float,
    delta2: float,
    c1: float,
    c2: float,
    eta_star: float,
    alpha1: float,
    alpha1p: float,
    alpha2: float,
    alpha2p: float,
    m0: float = 4.0,
) -> DiagnosticConstants:
    """Evaluate the error-term constants for a given selector configuration.

    ``eta_star`` is the surrogate optimal risk (per coordinate) of the
    target mean vector; ``c1``, ``c2`` describe the level transform's decay
    certificate (identity transform: ``c1 = 2``, ``c2 = 0``); the rate
    constants are

        L2n  = (log n)^(-3/2) [ delta1 (log n)^((5-c1)/2) / LL^c2
                                + (log n)^((3-c1)/2) / LL^(c2-1) ]^(1+delta1)
        tau2 = L2n / n^(1+delta1),
        tau1 = max( log(e v log n)/(1 v log n),
                    (log L1)^(-c2) / L1^(c1/2), 1/L1 ),

    with ``LL = 1 v log log n`` and ``L1 = e v log(1/eta_star)``, plus the
    selector tail exponents ``nu_j = r_j - 1 - log r_j`` for the nominal to
    population level ratios ``r_1 = alpha1/alpha1p``, ``r_2 = alpha2/alpha2p``.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (0.0 <= delta1 <= delta2):
        raise ValueError("need 0 <= delta1 <= delta2")
    _check_decay(c1, c2, m0)
    if not (eta_star > 0.0):
        raise ValueError("eta_star must be positive")
    # equality of nominal and population rates is allowed here (it just
    # zeroes the tail exponent); the selector itself demands strict gaps
    if not (0.0 < alpha2p <= alpha2 <= alpha1 <= alpha1p < 1.0):
        raise ValueError("need 0 < alpha2p <= alpha2 <= alpha1 <= alpha1p < 1")

    logn = math.log(n)
    ll = _log_plus(logn)
    bracket = delta1 * logn ** ((5.0 - c1) / 2.0) / ll**c2
    bracket += logn ** ((3.0 - c1) / 2.0) / ll ** (c2 - 1.0)
    l2n = logn**-1.5 * bracket ** (1.0 + delta1)
    tau2 = l2n / n ** (1.0 + delta1)

    l1 = max(math.e, math.log(1.0 / eta_star))
    tau1 = max(
        math.log(max(math.e, logn)) / max(1.0, logn),
        math.log(l1) ** (-c2) / l1 ** (c1 / 2.0),
        1.0 / l1,
    )

    def tail_exponent(r: float) -> float:
        return r - 1.0 - math.log(r)

    nu1 = tail_exponent(alpha1 / alpha1p)
    nu2 = tail_exponent(alpha2 / alpha2p)
    return DiagnosticConstants(l2n, tau1, tau2, nu1, nu2)
