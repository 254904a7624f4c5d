"""End-to-end estimator and vector-file round-trip tests."""

import dataclasses
import json
import math
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fdrthresh.estimators import (
    VECTOR_MAGIC,
    EstimateReport,
    fdr_threshold_estimate,
    read_vector,
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
    assert report.level == report.trace.lambda_hat == np.inf
    assert not report.outside_theory
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
    # level and outside_theory are read off the trace and the family, for every family
    for family in (
        ThresholdFamily("soft"),
        ThresholdFamily("hard"),
        ThresholdFamily("firm", firm_slope=1.7),
        ThresholdFamily("interpolated", firm_slope=1.5, weight=0.4),
    ):
        report = fdr_threshold_estimate(X4, family=family, config=CONFIG4, allow_hard=True)
        assert report.level == report.trace.lambda_hat
        assert report.outside_theory == (family.kind == "hard")
    assert {f.name for f in dataclasses.fields(EstimateReport)} == {"estimate", "family", "trace"}


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


def test_report_serialization():
    report = fdr_threshold_estimate(X4, config=CONFIG4)
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["n"] == 4
    assert payload["family"] == "soft"
    assert payload["level"] == pytest.approx(report.level)
    assert set(payload) == {"n", "level", "family", "outside_theory", "trace"}
    assert payload["trace"]["xi2_hat"] == pytest.approx(2.2414027276049456)
    assert payload["trace"]["k_hat"] == 3

    inf_report = fdr_threshold_estimate(np.zeros(3), config=CONFIG4)
    decoded = json.loads(json.dumps(inf_report.to_dict()))
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

    def test_binary_read_traced_peak_is_below_20_bytes_a_row(self, tmp_path):
        # the file's bytes plus the float64 result: no third copy of the payload
        n = 2**17
        x = np.random.default_rng(66).standard_normal(n)
        path = tmp_path / "big.bin"
        write_vector_binary(path, x)
        tracemalloc.start()
        try:
            got = read_vector(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 20.0
        assert got.tobytes() == x.tobytes()
        assert got.flags.writeable and got.flags.owndata

    def test_binary_magic(self, tmp_path):
        path = tmp_path / "vec.bin"
        write_vector_binary(path, [1.0, 2.0])
        assert path.read_bytes()[:8] == VECTOR_MAGIC

    def test_binary_writer_refuses_a_matrix(self, tmp_path):
        path = tmp_path / "vec.bin"
        with pytest.raises(ValueError, match="1-d"):
            write_vector_binary(path, np.zeros((2, 3)))
        assert not path.exists()

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

    def test_non_utf8_text_names_the_file(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"1.0\n\xff2.0\n")
        with pytest.raises(ValueError) as got:
            read_vector(path)
        assert str(got.value).startswith(f"{path}: ")
        assert "0xff" in str(got.value)

    def test_empty_file_rejected(self, tmp_path):
        # an empty binary file fails by the rule and message of an empty text file
        text, binary = tmp_path / "empty.csv", tmp_path / "empty.bin"
        text.write_text("# nothing here\n")
        write_vector_binary(binary, [])
        for path in (text, binary):
            with pytest.raises(ValueError) as got:
                read_vector(path)
            assert str(got.value) == f"{path}: no values found"

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
