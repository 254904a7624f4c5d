"""Mean-vector estimators and their serializable reports.

The main entry point applies a threshold family at the level chosen by the
multiple-testing selector.  The observations carry unit-variance Gaussian
noise; data with another noise level are divided by its standard deviation
first.  Hard thresholding falls outside the smooth-rule risk guarantees, so
it must be requested explicitly and the report flags it.
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .selector import FdrConfig, SelectorTrace, select_lambda
from .thresholds import ThresholdFamily, apply_family

__all__ = [
    "EstimateReport",
    "fdr_threshold_estimate",
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
    family: ThresholdFamily
    trace: SelectorTrace

    @property
    def level(self) -> float:
        """The selected level ``trace.lambda_hat``, ``inf`` when nothing is rejected."""
        return self.trace.lambda_hat

    @property
    def outside_theory(self) -> bool:
        """Whether the family lies outside the smooth-family risk guarantees (hard)."""
        return not self.family.is_smooth

    def to_dict(self) -> dict:
        """Summary of the level choice; the estimate itself is left out."""
        return {
            "n": int(self.estimate.size),
            "level": self.level,
            "family": self.family.describe(),
            "outside_theory": self.outside_theory,
            "trace": asdict(self.trace),
        }


def fdr_threshold_estimate(
    x,
    family: ThresholdFamily = ThresholdFamily("soft"),
    config: FdrConfig = FdrConfig(),
    allow_hard: bool = False,
) -> EstimateReport:
    """Threshold ``x``, observed with unit noise variance, at the selector's level.

    Hard thresholding is rejected unless ``allow_hard=True``; when allowed
    the report carries ``outside_theory=True`` since the risk guarantees
    cover only the smooth families.
    """
    if family.kind == "hard" and not allow_hard:
        raise ValueError(
            "hard thresholding is outside the smooth-family guarantees; "
            "pass allow_hard=True to use it anyway"
        )
    arr = np.asarray(x, dtype=float)
    trace = select_lambda(arr, config)
    est = apply_family(arr, trace.lambda_hat, family)
    return EstimateReport(estimate=np.asarray(est, dtype=float), family=family, trace=trace)


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
        values = np.frombuffer(raw, dtype="<f8", offset=16).astype(float)
    else:
        try:  # the decoded text stays a temporary: only the stripped lines outlive it
            lines = [line.partition("#")[0].strip() for line in raw.decode("utf-8").splitlines()]
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
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
