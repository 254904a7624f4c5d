"""Reference computations for the benchmark's output checks.

Everything here is written apart from the package: Gaussian tails and
quantiles come from ``scipy.special`` directly, never from
``fdrthresh.gauss``, and each quantity is computed by a different route
than the package takes (p-value form of the step-up rule, quadrature for
the Bayes risk, a vectorised closed form plus brute force for the oracle).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special


def spike_theta(n: int, count: int, value: float) -> np.ndarray:
    """The documented ``spikes`` signal: ``count`` leading coordinates at ``value``."""
    theta = np.zeros(n)
    theta[:count] = value
    return theta


def replicate_noise(seed: int, index: int, n: int) -> np.ndarray:
    """Noise of replicate ``index``: Philox keyed by ``seed``, counter ``index << 192``."""
    bitgen = np.random.Philox(key=seed, counter=index << 192)
    return np.random.Generator(bitgen).standard_normal(n)


def step_up_count(x: np.ndarray, alpha: float) -> int:
    """Benjamini-Hochberg rejection count: largest k with ``2 Phi(-|x|_(k)) <= alpha k / n``."""
    n = x.size
    mags = np.sort(np.abs(x))[::-1]
    pvalues = 2.0 * special.ndtr(-mags)
    ok = np.nonzero(pvalues <= alpha * np.arange(1, n + 1) / n)[0]
    return int(ok[-1]) + 1 if ok.size else 0


def step_up_level(n: int, k: int, alpha: float) -> float:
    """Threshold form of a step-up count: ``-ndtri(alpha k / (2n))``, +inf for k = 0."""
    if k == 0:
        return math.inf
    return float(-special.ndtri(alpha * k / (2.0 * n)))


def soft(x: np.ndarray, level: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - level, 0.0)


def adaptive_losses(theta: np.ndarray, seed: int, replicates: int, alpha: float) -> np.ndarray:
    """Per-replicate loss ``||soft(X, step-up level) - theta||^2`` on the Philox streams."""
    n = theta.size
    losses = np.empty(replicates)
    for i in range(replicates):
        x = theta + replicate_noise(seed, i, n)
        level = step_up_level(n, step_up_count(x, alpha), alpha)
        diff = soft(x, level) - theta
        losses[i] = diff @ diff
    return losses


def mean_and_se(samples: np.ndarray) -> tuple[float, float]:
    return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(samples.size))


def quad_soft_risk(mu: float, level: float) -> float:
    """``E (soft(mu + Z, level) - mu)^2`` by numerical quadrature over the three pieces."""
    # Imported only when the checks run, after the timed calls, so that the
    # run's peak RSS does not include it.
    from scipy import integrate

    def dens(z):
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    lo, hi = -level - mu, level - mu
    opts = dict(epsabs=1e-14, epsrel=1e-12, limit=200)
    left = integrate.quad(lambda z: (z + level) ** 2 * dens(z), -np.inf, lo, **opts)[0]
    kill = integrate.quad(lambda z: mu * mu * dens(z), lo, hi, **opts)[0]
    right = integrate.quad(lambda z: (z - level) ** 2 * dens(z), hi, np.inf, **opts)[0]
    return left + kill + right


def min_bayes_risk_total(theta: np.ndarray) -> float:
    """``n * min_L E_G R(theta, L)`` for the empirical prior G of ``theta``.

    Scans a grid, refines the best bracket with bounded Brent, and compares
    with the infinite-level limit (the prior mean square).
    """
    from scipy import optimize

    atoms, counts = np.unique(theta, return_counts=True)
    weights = counts / theta.size

    def bayes(level: float) -> float:
        return float(sum(w * quad_soft_risk(float(a), level) for a, w in zip(atoms, weights)))

    grid = np.linspace(0.0, math.sqrt(2.0 * math.log(max(theta.size, 2))) + 4.0, 121)
    values = [bayes(float(level)) for level in grid]
    i = int(np.argmin(values))
    bracket = (float(grid[max(i - 1, 0)]), float(grid[min(i + 1, grid.size - 1)]))
    res = optimize.minimize_scalar(bayes, bounds=bracket, method="bounded", options={"xatol": 1e-10})
    best = min(float(res.fun), values[i], float(weights @ atoms**2))
    return theta.size * best


def oracle_minima(x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Row-wise ``min_L ||soft(x_r, L) - theta||^2`` over ``L in [0, inf]``.

    With the ``j`` smallest magnitudes killed the loss is the quadratic
    ``K_j + S2_j - 2 L S1_j + (n - j) L^2`` on ``[|x|_(j), |x|_(j+1)]``, so
    each segment's minimum sits at its stationary point clipped to the
    segment.  All segments of all rows are evaluated at once.
    """
    rows, n = x.shape
    order = np.argsort(np.abs(x), axis=1)
    mags = np.take_along_axis(np.abs(x), order, axis=1)
    err = np.take_along_axis(np.abs(x) - np.sign(x) * theta, order, axis=1)
    th2 = np.take_along_axis(np.broadcast_to(theta**2, x.shape), order, axis=1)
    zeros = np.zeros((rows, 1))
    killed = np.concatenate([zeros, np.cumsum(th2, axis=1)], axis=1)[:, :n]
    s1 = np.cumsum(err[:, ::-1], axis=1)[:, ::-1]
    s2 = np.cumsum((err**2)[:, ::-1], axis=1)[:, ::-1]
    active = np.arange(n, 0, -1)
    lo = np.concatenate([zeros, mags[:, :-1]], axis=1)
    level = np.clip(s1 / active, lo, mags)
    seg = killed + s2 - 2.0 * level * s1 + active * level * level
    return np.minimum(seg.min(axis=1), th2.sum(axis=1))


def brute_losses(x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Loss of one draw at level 0 and at every ``|x_i|``."""
    levels = np.concatenate([[0.0], np.abs(x)])
    diff = soft(x[None, :], levels[:, None]) - theta[None, :]
    return np.einsum("ij,ij->i", diff, diff)


def rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))
