"""Rescale measured times to a reference host speed.

The benchmark host's speed drifts by up to 2x over seconds to minutes
(other tenants share its cores), and the drift moves a fixed piece of work
much as it moves the program.  ``HostSpeed.timed`` times fixed calibration
kernels right before and right after a measured call and divides the
call's time by their slowdown, ``kernel time / ref_s``: the result is the
time the call would have taken at the speed where each kernel takes its
``ref_s``, a typical time of it on the host the README describes.

Contention slows different kinds of work by different factors, so each
workload names the kernels closest to its own mix, and their slowdowns
are averaged:

* ``interpreter``: a bytecode loop;
* ``numpy``: sorting and ``ndtri`` over arrays that stay in cache;
* ``format``: float formatting and JSON encoding of short Python lists;
* ``text``: parsing, formatting and indented JSON encoding of longer
  float lists, the estimate command's mix in small.
"""

from __future__ import annotations

import json
import time

import numpy as np
from scipy import special

_VALUES = np.random.default_rng(0).standard_normal(1 << 16)
_PROBS = np.linspace(1e-6, 0.5, 1 << 16)
_FLOATS = _VALUES[:2000].tolist()
_TEXT_FLOATS = _VALUES[:5000].tolist()
_TEXT_LINES = list(map(repr, _TEXT_FLOATS))


def _interpreter() -> None:
    acc = 0
    for i in range(40_000):
        acc += i * i % 7


def _numpy() -> None:
    np.sort(_VALUES)
    special.ndtri(_PROBS)
    np.sort(_VALUES)


def _format() -> None:
    ",".join(map(repr, _FLOATS))
    json.dumps(_FLOATS)


def _text() -> None:
    [float(line) for line in _TEXT_LINES]
    "\n".join(map(repr, _TEXT_FLOATS))
    json.dumps(_TEXT_FLOATS, indent=2)


# name -> (kernel, its time in seconds at the reference speed)
KERNELS = {
    "interpreter": (_interpreter, 0.0027),
    "numpy": (_numpy, 0.0020),
    "format": (_format, 0.0027),
    "text": (_text, 0.018),
}


class HostSpeed:
    """Times calls and rescales them by the mean slowdown of the given kernels."""

    def __init__(self, kernels: tuple[str, ...]) -> None:
        self._kernels = [KERNELS[name] for name in kernels]

    def slowdown(self) -> float:
        """Mean over the kernels of their time now over their reference time."""
        total = 0.0
        for kernel, ref_s in self._kernels:
            start = time.perf_counter()
            kernel()
            total += (time.perf_counter() - start) / ref_s
        return total / len(self._kernels)

    def timed(self, fn):
        """Run ``fn``; return its result, its wall time, and that time at the reference speed."""
        before = self.slowdown()
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        after = self.slowdown()
        return result, elapsed, elapsed * 2.0 / (before + after)
