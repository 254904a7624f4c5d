"""Mean-vector estimators and their serializable reports.

The main entry point applies a threshold family at the level chosen by the
multiple-testing selector.  Hard thresholding falls outside the smooth-rule
risk guarantees, so it must be requested explicitly and the report flags it.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .selector import FdrConfig, SelectorTrace, select_lambda
from .thresholds import ThresholdFamily, _check_level, _check_observations, apply_family

__all__ = [
    "EstimateReport",
    "fdr_threshold_estimate",
    "fixed_threshold_estimate",
    "sample_mean_estimate",
    "read_vector",
    "write_vector_binary",
    "VECTOR_MAGIC",
]

# Binary vector file layout: 8-byte magic, uint64 little-endian count,
# then count little-endian float64 values.
VECTOR_MAGIC = b"FDRVEC1\n"


@dataclass(frozen=True)
class EstimateReport:
    """Estimate plus full provenance of the level choice."""

    estimate: np.ndarray
    level: float
    family: ThresholdFamily
    trace: SelectorTrace | None
    outside_theory: bool = False

    def to_dict(self) -> dict:
        """Summary of the level choice; the estimate itself is left out."""
        return {
            "n": int(self.estimate.size),
            "level": self.level,
            "family": self.family.describe(),
            "outside_theory": self.outside_theory,
            "trace": self.trace.to_dict() if self.trace is not None else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def fdr_threshold_estimate(
    x,
    family: ThresholdFamily = ThresholdFamily("soft"),
    config: FdrConfig = FdrConfig(),
    allow_hard: bool = False,
    scale: float = 1.0,
) -> EstimateReport:
    """Threshold ``x`` at the selector's level.

    Hard thresholding is rejected unless ``allow_hard=True``; when allowed
    the report carries ``outside_theory=True`` since the risk guarantees
    cover only the smooth families.

    The core assumes unit noise variance.  Observations with noise standard
    deviation ``scale`` are divided by it before level selection and the
    estimate is mapped back; the reported level stays in standardized units.
    """
    if family.kind == "hard" and not allow_hard:
        raise ValueError(
            "hard thresholding is outside the smooth-family guarantees; "
            "pass allow_hard=True to use it anyway"
        )
    scale = float(scale)
    if not math.isfinite(scale) or scale <= 0.0:
        raise ValueError("scale must be a positive finite number")
    arr = np.asarray(x, dtype=float)
    if scale != 1.0:
        arr = arr / scale
    trace = select_lambda(arr, config)
    est = apply_family(arr, trace.lambda_hat, family)
    if scale != 1.0:
        est = scale * est
    return EstimateReport(
        estimate=np.asarray(est, dtype=float),
        level=trace.lambda_hat,
        family=family,
        trace=trace,
        outside_theory=(family.kind == "hard"),
    )


def fixed_threshold_estimate(
    x, family: ThresholdFamily, level: float
) -> EstimateReport:
    """Threshold ``x`` at a fixed level (possibly +inf for the zero fit)."""
    level = _check_level(float(level))
    est = apply_family(np.asarray(x, dtype=float), level, family)
    return EstimateReport(
        estimate=np.asarray(est, dtype=float),
        level=level,
        family=family,
        trace=None,
        outside_theory=(family.kind == "hard"),
    )


def sample_mean_estimate(x) -> EstimateReport:
    """Estimate every coordinate by the grand sample mean.

    The classical comparator when all means are believed equal; its total
    squared-error risk is exactly 1 regardless of the common value.
    """
    arr = _check_observations(x)
    est = np.full(arr.shape, float(arr.mean()))
    return EstimateReport(
        estimate=est,
        level=math.nan,
        family=ThresholdFamily("soft"),
        trace=None,
        outside_theory=False,
    )


def read_vector(path) -> np.ndarray:
    """Read an observation vector from CSV (one value per line) or binary.

    Binary files are recognized by the 8-byte magic; anything else is
    parsed as text with blank lines and ``#`` comments ignored.
    """
    path = Path(path)
    raw = path.read_bytes()
    if raw[:8] == VECTOR_MAGIC:
        if len(raw) < 16:
            raise ValueError(f"{path}: truncated binary vector header")
        (count,) = struct.unpack("<Q", raw[8:16])
        expected = 16 + 8 * count
        if len(raw) != expected:
            raise ValueError(
                f"{path}: binary vector length mismatch "
                f"(header says {count} values, file has {(len(raw) - 16) // 8})"
            )
        return np.frombuffer(raw[16:], dtype="<f8").astype(float)
    lines = [line.partition("#")[0].strip() for line in raw.decode("utf-8").splitlines()]
    try:
        values = np.fromiter(map(float, filter(None, lines)), dtype=float)
    except ValueError:
        # find the offending line for the message
        for lineno, text in enumerate(lines, start=1):
            if not text:
                continue
            try:
                float(text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not a number: {text!r}") from exc
        raise
    if values.size == 0:
        raise ValueError(f"{path}: no values found")
    return values


def write_vector_binary(path, x) -> None:
    """Write a vector in the binary format understood by ``read_vector``."""
    arr = np.asarray(x, dtype="<f8")
    if arr.ndim != 1:
        raise ValueError("x must be a 1-d vector")
    with open(path, "wb") as fh:
        fh.write(VECTOR_MAGIC)
        fh.write(struct.pack("<Q", arr.size))
        fh.write(arr.tobytes())
