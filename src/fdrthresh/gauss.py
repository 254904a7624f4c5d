"""Standard normal primitives used throughout the package.

Everything here is a deterministic, vectorized function of its arguments:
density, distribution function, quantile, the exponential-times-Gaussian
moment integrals appearing in closed-form risk identities, and the
critical tail level ``z(n)`` solving ``Phi(-z)/z^2 = 1/(4n)``.

Accuracy targets: ``norm_cdf`` is computed through the complementary error
function and is accurate to about 1e-15 absolute on [-40, 40];
``norm_quantile`` polishes a rational approximation with Newton steps so
that the round trip ``norm_cdf(norm_quantile(p))`` recovers ``p`` to 1e-12
or better on [1e-12, 1 - 1e-12].
"""

from __future__ import annotations

import contextlib
import math
import operator
import threading

import numpy as np
from scipy import special as _sp

__all__ = [
    "norm_pdf",
    "norm_cdf",
    "norm_quantile",
    "exp_gauss_moment",
    "critical_tail_level",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# 16-point Gauss-Legendre nodes/weights on [-1, 1], reused per panel.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        raise ValueError(f"{name} must not contain NaN")
    return arr


def _integer(name: str, value, least: int | None = None) -> int:
    """``value`` as an ``int`` if it is an integer, numpy integers included,
    and at least ``least`` when that is given."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")
    return value


# Every kept buffer holds at least this many entries, the size of a Monte
# Carlo block, so that all the buffers of a run at n <= 2**14 are alike.
_KEPT_MIN = 2**14

_kept_store = threading.local()


@contextlib.contextmanager
def _kept(shape):
    """A float64 array of ``shape`` in a buffer that this thread keeps across calls.

    A fresh temporary of a large size is returned to the operating system
    when freed, and the next one faults its pages in again; a kept buffer
    does not.  The buffer holds ``max(2**14, size)`` entries or more, and its
    contents on entry are whatever the last user left.  It is taken out of
    the thread's store for the ``with`` block and put back on exit, also on
    an exception, so a nested ``_kept`` gets another buffer.  Nothing that
    outlives the block may be a view of it.
    """
    size = math.prod(shape)
    try:
        store = _kept_store.buffers
    except AttributeError:
        store = _kept_store.buffers = []
    buf = store.pop() if store else np.empty(0)
    if buf.size < size:
        buf = np.empty(max(_KEPT_MIN, size))
    try:
        yield buf[:size].reshape(shape)
    finally:
        store.append(buf)


def _pdf(x):
    """``norm_pdf`` without the NaN check: the package's internal evaluations
    of already checked levels and atoms."""
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def _cdf(x):
    """``norm_cdf`` without the NaN check."""
    return 0.5 * _sp.erfc(-x / _SQRT2)


def norm_pdf(x):
    """Density of N(0, 1) at ``x`` (scalar or array)."""
    arr = _as_float_array(x, "x")
    out = _pdf(arr)
    return out if arr.ndim else float(out)


def norm_cdf(x):
    """Distribution function of N(0, 1), via the complementary error function.

    Infinite inputs map to exact 0.0 / 1.0.
    """
    arr = _as_float_array(x, "x")
    out = _cdf(arr)
    return out if arr.ndim else float(out)


def norm_quantile(p):
    """Quantile function of N(0, 1).

    ``p`` must lie in the open interval (0, 1); the endpoints raise
    ValueError.  A rational approximation (scipy's ``ndtri``) supplies the
    initial guess and two Newton steps on ``norm_cdf`` polish it, which
    keeps the round trip ``norm_cdf(norm_quantile(p)) - p`` below 1e-12 even
    deep in the tails.
    """
    arr = _as_float_array(p, "p")
    if ((arr <= 0.0) | (arr >= 1.0)).any():
        raise ValueError("p must lie in the open interval (0, 1)")
    z = _sp.ndtri(arr)
    # Two Newton iterations: z <- z - (Phi(z) - p)/phi(z).  Skip where
    # Phi(z) underflows to 0 (z below about -37.7, p below about 6e-311):
    # the step would then move an accurate ndtri value by up to 1e-3.
    for _ in range(2):
        cdf = _cdf(z)
        ok = cdf > 0.0
        step = np.where(ok, cdf - arr, 0.0)
        z = np.where(ok, z - step / np.where(ok, _pdf(z), 1.0), z)
    return z if arr.ndim else float(z)


def exp_gauss_moment(scale: float, k: int) -> float:
    """Moment integral ``int_0^inf u^k exp(-u - u^2/(2 scale^2)) du``.

    Defined for ``scale > 0`` (``scale = +inf`` is allowed and gives the
    plain exponential moment ``k!``) and integer ``k`` in {0, 1, 2, 3}.
    Computed by 64-panel composite Gauss-Legendre quadrature on
    ``[0, min(40*scale, 200)]``; beyond that endpoint the integrand is
    smaller than ``exp(-min(40*scale, 200))`` times a Gaussian factor, so
    the truncation error is far below double precision everywhere.

    These integrals obey ``(k+1) J_k = J_{k+1} + J_{k+2}/scale^2`` and tie
    the soft-threshold risk at zero to the Gaussian tail, e.g.
    ``scale * Phi(-scale) = phi(scale) * J_0(scale)``.
    """
    if not (k in (0, 1, 2, 3)):
        raise ValueError("k must be one of 0, 1, 2, 3")
    if math.isnan(scale) or scale <= 0.0:
        raise ValueError("scale must be positive (or +inf)")
    if math.isinf(scale):
        return float(math.factorial(k))
    upper = min(40.0 * scale, 200.0)
    edges = np.linspace(0.0, upper, 65)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    # nodes: (panels, 16)
    u = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = u**k * np.exp(-u - u * u / (2.0 * scale * scale))
    return float(np.sum(half[:, None] * _GL_WEIGHTS[None, :] * vals))


def critical_tail_level(n: int) -> float:
    """The level ``z > 0`` solving ``Phi(-z)/z^2 = 1/(4n)`` for ``n >= 2``.

    The map ``z -> Phi(-z)/z^2`` is strictly decreasing on (0, inf), and for
    ``n >= 2`` the root is bracketed by ``[1, sqrt(2 log(4n)) + 3]``; plain
    bisection converges to full double precision.  The returned level
    satisfies ``z^2 > log n``.
    """
    n = _integer("n", n, 2)
    target = 1.0 / (4.0 * float(n))

    def f(z: float) -> float:
        return norm_cdf(-z) / (z * z) - target

    lo, hi = 1.0, math.sqrt(2.0 * math.log(4.0 * float(n))) + 3.0
    if f(lo) <= 0.0 or f(hi) >= 0.0:  # pragma: no cover - guarded by n >= 2
        raise RuntimeError("bisection bracket failed")
    return _bisect(lambda z: f(z) > 0.0, lo, hi)


def _bisect(below, lo: float, hi: float) -> float:
    """Bisect ``[lo, hi]`` to adjacent floats, ``below`` true at ``lo`` and false at ``hi``."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
