"""End-to-end estimator and vector-file round-trip tests."""

import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from fdrthresh.estimators import (
    VECTOR_MAGIC,
    EstimateReport,
    fdr_threshold_estimate,
    fixed_threshold_estimate,
    read_vector,
    sample_mean_estimate,
    write_vector_binary,
)
from fdrthresh.selector import FdrConfig
from fdrthresh.thresholds import ThresholdFamily, soft

X4 = np.array([3.0, 1.7, 1.5, 0.2])
CONFIG4 = FdrConfig(alpha1=0.2, alpha2=0.1, alpha1p=0.4, alpha2p=0.05)


def test_four_point_soft_estimate():
    report = fdr_threshold_estimate(X4, config=CONFIG4)
    lam = 1.4395314709384563
    assert report.level == pytest.approx(lam, rel=1e-12)
    np.testing.assert_allclose(report.estimate, soft(X4, lam), rtol=1e-12)
    assert report.trace is not None
    assert not report.outside_theory


def test_readme_example_level():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = float(re.search(r"report\.level\s+# (\S+)", readme).group(1))
    report = fdr_threshold_estimate(X4, ThresholdFamily("soft"), CONFIG4)
    assert report.level == documented


def test_zero_vector_estimates_zero():
    report = fdr_threshold_estimate(np.zeros(8), config=CONFIG4)
    assert report.level == np.inf
    assert not report.estimate.any()
    assert report.estimate.shape == (8,)


def test_hard_needs_explicit_flag():
    with pytest.raises(ValueError):
        fdr_threshold_estimate(X4, family=ThresholdFamily("hard"), config=CONFIG4)
    report = fdr_threshold_estimate(
        X4, family=ThresholdFamily("hard"), config=CONFIG4, allow_hard=True
    )
    assert report.outside_theory
    lam = report.level
    np.testing.assert_array_equal(report.estimate, X4 * (np.abs(X4) > lam))


def test_shrinks_towards_zero():
    rng = np.random.default_rng(61)
    for fam in (ThresholdFamily("soft"), ThresholdFamily("firm", firm_slope=1.5)):
        x = rng.standard_normal(200) * 3
        report = fdr_threshold_estimate(x, family=fam)
        assert np.all(np.abs(report.estimate) <= np.abs(x) + 1e-12)
        assert np.all(report.estimate * x >= 0)  # never flips sign


def test_dead_zone_is_exact():
    rng = np.random.default_rng(62)
    theta = np.where(rng.random(300) < 0.2, 4.0, 0.0)
    x = theta + rng.standard_normal(300)
    for fam in (ThresholdFamily("soft"), ThresholdFamily("firm", firm_slope=1.5)):
        report = fdr_threshold_estimate(x, family=fam)
        if math.isfinite(report.level):
            below = np.abs(x) < report.level
            assert not report.estimate[below].any()


def test_scale_standardizes_and_maps_back():
    rng = np.random.default_rng(63)
    x = rng.standard_normal(50) * 2
    base = fdr_threshold_estimate(x, config=CONFIG4)
    scaled = fdr_threshold_estimate(3.0 * x, config=CONFIG4, scale=3.0)
    np.testing.assert_allclose(scaled.estimate, 3.0 * base.estimate, rtol=1e-12)
    assert scaled.level == base.level  # reported in standardized units
    with pytest.raises(ValueError):
        fdr_threshold_estimate(x, scale=0.0)
    with pytest.raises(ValueError):
        fdr_threshold_estimate(x, scale=-1.0)
    with pytest.raises(ValueError):
        fdr_threshold_estimate(x, scale=np.inf)


def test_fixed_threshold_estimate():
    x = np.array([2.0, -0.4, 1.1])
    ident = fixed_threshold_estimate(x, ThresholdFamily("soft"), 0.0)
    np.testing.assert_array_equal(ident.estimate, x)
    assert ident.trace is None

    zero = fixed_threshold_estimate(x, ThresholdFamily("soft"), np.inf)
    assert not zero.estimate.any()

    n = 64
    rng = np.random.default_rng(64)
    big = rng.standard_normal(n)
    universal = fixed_threshold_estimate(
        big, ThresholdFamily("soft"), math.sqrt(2 * math.log(n))
    )
    np.testing.assert_allclose(
        universal.estimate, soft(big, math.sqrt(2 * math.log(n))), rtol=1e-12
    )

    with pytest.raises(ValueError):
        fixed_threshold_estimate(x, ThresholdFamily("soft"), -0.5)
    with pytest.raises(ValueError):
        fixed_threshold_estimate(x, ThresholdFamily("soft"), np.nan)


def test_sample_mean_estimate():
    report = sample_mean_estimate(np.array([1.0, 3.0]))
    np.testing.assert_array_equal(report.estimate, [2.0, 2.0])
    const = sample_mean_estimate(np.full(5, 1.7))
    np.testing.assert_allclose(const.estimate, np.full(5, 1.7), rtol=1e-15)
    assert math.isnan(report.level)
    assert report.trace is None


def test_report_serialization():
    report = fdr_threshold_estimate(X4, config=CONFIG4)
    payload = json.loads(report.to_json())
    assert payload["n"] == 4
    assert payload["family"] == "soft"
    assert payload["level"] == pytest.approx(report.level)
    assert set(payload) == {"n", "level", "family", "outside_theory", "trace"}
    assert payload["trace"]["xi2_hat"] == pytest.approx(2.2414027276049456)
    assert payload["trace"]["k_hat"] == 3

    inf_report = fdr_threshold_estimate(np.zeros(3), config=CONFIG4)
    decoded = json.loads(inf_report.to_json())
    assert decoded["level"] == float("inf")


def _read_text_by_line(path) -> np.ndarray:
    """Line-by-line reference for the text path of ``read_vector``."""
    values = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            values.append(float(text))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: not a number: {text!r}") from exc
    return np.asarray(values, dtype=float)


READER_CASES = [
    "# header\n1.5 # inline\n-0.0#tight\n  # only a comment\n2.5e-3\n",
    "\n\n1\n\n\t\n-3\n\n",
    "  0.1  \n\t-7.25\t\n 1e-300 \r\n5e-324\n1e16\n",
    "1.0\n2.0\n# note\n\n  x3 \n4.0\n",
    "1.0\n2.0 # fine\n3.0 4.0\n",
    "nan-ish\n",
]


class TestVectorFiles:
    @pytest.mark.parametrize("text", READER_CASES)
    def test_csv_reader_matches_line_by_line(self, tmp_path, text):
        path = tmp_path / "vec.csv"
        path.write_text(text)
        try:
            want = _read_text_by_line(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                read_vector(path)
            assert str(got.value) == str(exc)
        else:
            got = read_vector(path)
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(65)
        x = rng.standard_normal(257)
        path = tmp_path / "vec.bin"
        write_vector_binary(path, x)
        got = read_vector(path)
        np.testing.assert_array_equal(got, x)

    def test_binary_magic(self, tmp_path):
        path = tmp_path / "vec.bin"
        write_vector_binary(path, [1.0, 2.0])
        assert path.read_bytes()[:8] == VECTOR_MAGIC

    def test_csv_parsing(self, tmp_path):
        path = tmp_path / "vec.csv"
        path.write_text("# header comment\n1.5\n\n-2.25e0\n0.0  # inline\n")
        got = read_vector(path)
        np.testing.assert_array_equal(got, [1.5, -2.25, 0.0])

    def test_csv_error_names_line(self, tmp_path):
        path = tmp_path / "vec.csv"
        path.write_text("1.0\nnot-a-number\n")
        with pytest.raises(ValueError, match=r":2:"):
            read_vector(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="no values"):
            read_vector(path)

    def test_truncated_binary_rejected(self, tmp_path):
        path = tmp_path / "trunc.bin"
        path.write_bytes(VECTOR_MAGIC + b"\x05")
        with pytest.raises(ValueError, match="truncated"):
            read_vector(path)

    def test_binary_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        blob = bytearray(VECTOR_MAGIC)
        blob += struct.pack("<Q", 3)
        blob += struct.pack("<d", 1.0)  # header claims 3, provides 1
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="mismatch"):
            read_vector(path)

    def test_estimate_report_matches_cli_composition(self, tmp_path):
        path = tmp_path / "four.csv"
        path.write_text("\n".join(str(v) for v in X4) + "\n")
        x = read_vector(path)
        report = fdr_threshold_estimate(x, config=CONFIG4)
        assert isinstance(report, EstimateReport)
        assert report.level == pytest.approx(1.4395314709384563, rel=1e-12)
