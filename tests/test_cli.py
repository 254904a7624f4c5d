"""End-to-end CLI tests: exit codes, artifacts, reproducibility."""

import dataclasses
import hashlib
import inspect
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from fdrthresh import cli
from fdrthresh.cli import _BATCH, _READ_BY, _SCHEMAS, _format_value, _parse_config_text, main
from fdrthresh.estimators import fdr_threshold_estimate, read_vector, write_vector_binary
from fdrthresh.risk import EmpiricalPrior, bayes_soft_risk
from fdrthresh.selector import FdrConfig
from fdrthresh.simulate import (
    common_mean_experiment,
    concentration_check,
    minimax_ball_experiment,
    regret_experiment,
    spikes,
)
from fdrthresh.thresholds import ThresholdFamily, soft

SVG_NS = "{http://www.w3.org/2000/svg}"


def write(path, text):
    path.write_text(text)
    return str(path)


def run(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# estimate


@pytest.fixture
def four_point(tmp_path):
    """Input vector plus a config picking the worked four-point selector."""
    data = write(
        tmp_path / "x.csv",
        "# observations\n3.0\n1.7\n\n1.5\n0.2  # smallest\n",
    )
    cfg = write(
        tmp_path / "est.cfg",
        f"input = {data}\n"
        "family = soft\n"
        "alpha1 = 0.2\nalpha2 = 0.1\nalpha1p = 0.4\nalpha2p = 0.05\n",
    )
    return cfg


def test_estimate_end_to_end(tmp_path, four_point):
    out = tmp_path / "out"
    assert run("estimate", "--config", four_point, "--out", str(out)) == 0
    report = json.loads((out / "estimate.json").read_text())
    level = report["level"]
    assert level == pytest.approx(1.4395314709384563, rel=1e-12)
    assert "estimate" not in report
    assert report["trace"]["k_hat"] == 3
    x = np.array([3.0, 1.7, 1.5, 0.2])
    expect = soft(x, level)

    lines = (out / "estimate.csv").read_text().splitlines()
    assert lines[0].startswith("# schema:")
    assert len(lines) == 5
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [0, 1, 2, 3]
    np.testing.assert_array_equal([float(r[1]) for r in rows], x)
    np.testing.assert_allclose([float(r[2]) for r in rows], expect, rtol=1e-12)


def test_estimate_rerun_from_resolved_is_byte_identical(tmp_path, four_point):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("estimate", "--config", four_point, "--out", str(out1)) == 0
    resolved = out1 / "resolved.cfg"
    assert resolved.exists()
    assert run("estimate", "--config", str(resolved), "--out", str(out2)) == 0
    for name in ("estimate.csv", "estimate.json", "resolved.cfg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_estimate_hard_needs_opt_in(tmp_path, four_point):
    cfg_text = (tmp_path / "est.cfg").read_text()
    hard_text = cfg_text.replace("family = soft", "family = hard")
    bad = write(tmp_path / "hard.cfg", hard_text)
    assert run("estimate", "--config", bad, "--out", str(tmp_path / "o")) == 2
    ok = write(tmp_path / "hard_ok.cfg", hard_text + "allow_hard = true\n")
    assert run("estimate", "--config", ok, "--out", str(tmp_path / "o2")) == 0


@pytest.mark.parametrize(
    "mutate",
    [
        lambda text: text + "unknown_key = 3\n",                  # unknown key
        lambda text: text.replace("family = soft", "family = banana"),  # bad enum
        lambda text: text + "alpha1 = 0.2\n",                     # duplicate key
        lambda text: text.replace("alpha1 = 0.2", "alpha1 = abc"),  # unparsable
        lambda text: "\n".join(l for l in text.splitlines() if not l.startswith("input")),
        lambda text: text + "this line has no assignment\n",
        lambda text: text.replace("alpha1p = 0.4", "alpha1p = 0.1"),  # bad chain
        lambda text: text.replace("family = soft", "family = firm") + "firm_slope = 2.5\n",
        lambda text: text.replace("family = soft", "family = interpolated") + "weight = 2\n",
    ],
)
def test_estimate_config_validation_exit_2(tmp_path, four_point, mutate, capsys):
    bad = write(tmp_path / "bad.cfg", mutate((tmp_path / "est.cfg").read_text()))
    assert run("estimate", "--config", bad, "--out", str(tmp_path / "o")) == 2
    assert "error:" in capsys.readouterr().err


def test_estimate_missing_files_exit_2(tmp_path, four_point, capsys):
    assert run("estimate", "--config", str(tmp_path / "nope.cfg")) == 2
    # an --out that cannot be a directory: an existing file, or a path through one
    afile = write(tmp_path / "afile", "")
    for out in (afile, f"{afile}/sub"):
        capsys.readouterr()
        assert run("estimate", "--config", four_point, "--out", out) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot create output directory {out}: ")
    # an empty text file and an empty binary file fail by one rule
    write_vector_binary(tmp_path / "empty.bin", [])
    for empty_vec in (write(tmp_path / "empty.csv", "# nothing here\n"), tmp_path / "empty.bin"):
        cfg = write(tmp_path / "c.cfg", f"input = {empty_vec}\n")
        capsys.readouterr()
        assert run("estimate", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == f"error: {empty_vec}: no values found\n"


def test_estimate_non_utf8_input_exit_2(tmp_path, capsys):
    data = tmp_path / "x.csv"
    data.write_bytes(b"1.0\n\xff2.0\n")
    cfg = write(tmp_path / "c.cfg", f"input = {data}\n")
    assert run("estimate", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith(f"error: {data}: ")


# awkward values for ``repr``: signed zero, the smallest subnormal, tiny and
# huge magnitudes, a sum that does not round to one digit, integral floats
AWKWARD = [-0.0, 5e-324, 1e-300, 1e16, 0.1 + 0.2, 3.0, -2.0, 1e22, -1.7, 0.2]


def _cycled(n):
    """``n`` values cycling through ``AWKWARD`` and ``0.0``, so both signed zeros recur."""
    pool = [*AWKWARD, 0.0]
    return [pool[i % len(pool)] for i in range(n)]


# the lengths around the CSV writer's batch size, n = 1 included
_BATCH_SIZES = [1, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 1]


@pytest.mark.parametrize(
    "values, inf_level",
    [
        (AWKWARD, False),
        ([v for v in AWKWARD if abs(v) < 2.5], True),  # selects nothing
        *[(_cycled(n), n == 1) for n in _BATCH_SIZES],
    ],
    ids=["finite-level", "inf-level", *[f"n={n}" for n in _BATCH_SIZES]],
)
def test_estimate_csv_matches_row_by_row_repr(tmp_path, values, inf_level):
    data = write(tmp_path / "x.csv", "".join(f"{v!r}\n" for v in values))
    cfg = write(
        tmp_path / "c.cfg",
        f"input = {data}\nalpha1 = 0.2\nalpha2 = 0.1\nalpha1p = 0.4\nalpha2p = 0.05\n",
    )
    out = tmp_path / "out"
    assert run("estimate", "--config", cfg, "--out", str(out)) == 0
    x = read_vector(data)
    config = FdrConfig(alpha1=0.2, alpha2=0.1, alpha1p=0.4, alpha2p=0.05)
    report = fdr_threshold_estimate(x, ThresholdFamily("soft"), config)
    assert math.isinf(report.level) == inf_level
    rows = [(i, repr(float(x[i])), repr(float(report.estimate[i]))) for i in range(x.size)]
    lines = ["# schema: index:int,observation:float,estimate:float"]
    lines.extend(",".join(str(c) for c in row) for row in rows)
    # compared line by line: a failing diff of two multi-batch texts takes minutes
    assert (out / "estimate.csv").read_text().split("\n") == [*lines, ""]


def test_estimate_json_is_a_summary(tmp_path):
    x = np.random.default_rng(5).standard_normal(100_000)
    x[:500] += 4.0
    data = write(tmp_path / "x.csv", "\n".join(map(repr, x.tolist())) + "\n")
    cfg = write(tmp_path / "c.cfg", f"input = {data}\n")
    out = tmp_path / "out"
    assert run("estimate", "--config", cfg, "--out", str(out)) == 0
    blob = (out / "estimate.json").read_bytes()
    assert len(blob) < 4096
    report = json.loads(blob)
    assert report["n"] == 100_000
    assert report["trace"]["k_hat"] > 0
    assert report["trace"]["lambda_hat"] == report["level"]


def test_estimate_traced_peak_is_below_64_bytes_a_row(tmp_path):
    # a binary input, so the reader holds no text and the peak is the writer's;
    # holding the whole CSV text and a list of all its rows took 167 bytes a row
    n = 2**17
    x = np.random.default_rng(8).standard_normal(n)
    x[: n // 100] += 4.0
    write_vector_binary(tmp_path / "x.bin", x)
    cfg = write(tmp_path / "c.cfg", f"input = {tmp_path / 'x.bin'}\n")
    del x
    tracemalloc.start()
    try:
        assert run("estimate", "--config", cfg, "--out", str(tmp_path / "out")) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * n, f"{peak / n:.1f} bytes a row"


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_estimate_non_finite_input_exit_2(tmp_path, bad, capsys):
    data = write(tmp_path / "x.csv", f"3.0\n{bad}\n0.2\n")
    cfg = write(tmp_path / "c.cfg", f"input = {data}\n")
    assert run("estimate", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert "finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# curves


@pytest.fixture
def curve_cfg(tmp_path):
    return write(
        tmp_path / "curve.cfg",
        "atoms = 0, 3\nweights = 0.9, 0.1\nlevel_max = 4.0\npoints = 64\n",
    )


def test_risk_curve_csv(tmp_path, curve_cfg):
    out = tmp_path / "out"
    assert run("risk-curve", "--config", curve_cfg, "--out", str(out)) == 0
    lines = (out / "curve.csv").read_text().splitlines()
    assert lines[0] == "# schema: level:float,value:float"
    rows = [tuple(map(float, l.split(","))) for l in lines[1:]]
    assert len(rows) == 64
    assert rows[0][0] == 0.0
    assert rows[-1][0] == 4.0
    assert all(v > 0 for _, v in rows)


def test_risk_curve_svg_and_json(tmp_path, curve_cfg):
    out = tmp_path / "svg"
    code = run("risk-curve", "--config", curve_cfg, "--out", str(out), "--format", "svg")
    assert code == 0
    root = ET.fromstring((out / "curve.svg").read_text())
    assert root.tag == f"{SVG_NS}svg"
    assert root.findall(f".//{SVG_NS}polyline")
    # the optimal level of this prior is finite, so a marker line is drawn
    texts = [t.text for t in root.findall(f".//{SVG_NS}text")]
    assert "optimal" in texts

    out2 = tmp_path / "json"
    assert run("risk-curve", "--config", curve_cfg, "--out", str(out2), "--format", "json") == 0
    payload = json.loads((out2 / "curve.json").read_text())
    assert payload["functional"] == "bayes_risk"
    assert len(payload["levels"]) == len(payload["values"]) == 64
    assert "package_version" in payload


_CURVE_SVG_SHA256 = {
    "bayes_risk": "e4bb70ab27ed787f2331704d3672897f2c4e9fb4cf5712df2e91cb1df890783e",
    "surrogate_risk": "dba7d1edcfc712b776eed844b39a1968764a4afb9bc31bad473c92b2e8f84727",
    "fdr_curve": "c5ab8fd7871a43d3674dfe570f8ee8104d8a75eb84b03aef5ba3e43d6651d184",
}


@pytest.mark.parametrize("functional", list(_CURVE_SVG_SHA256))
def test_curve_svg_bytes_pinned(tmp_path, curve_cfg, functional):
    # both risk curves draw the optimal-level marker; the fdr curve draws none
    command, cfg = "fdr-curve", curve_cfg
    if functional != "fdr_curve":
        command = "risk-curve"
        text = (tmp_path / "curve.cfg").read_text()
        cfg = write(tmp_path / "f.cfg", f"{text}functional = {functional}\n")
    out = tmp_path / "svg"
    assert run(command, "--config", cfg, "--out", str(out), "--format", "svg") == 0
    data = (out / "curve.svg").read_bytes()
    assert (b">optimal</text>" in data) == (functional != "fdr_curve")
    assert hashlib.sha256(data).hexdigest() == _CURVE_SVG_SHA256[functional]


def test_svg_escape_matches_saxutils():
    from xml.sax.saxutils import escape

    from fdrthresh.svgplot import _escape

    for text in ["a & b < c > d", "\"double\" & 'single' <q>", "&amp;&lt;>><<&", "plain", ""]:
        assert _escape(text) == escape(text)


def test_cli_import_leaves_out_xml_sax():
    code = "import sys, fdrthresh.cli; print('xml.sax' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_fdr_curve_monotone(tmp_path, curve_cfg):
    out = tmp_path / "out"
    assert run("fdr-curve", "--config", curve_cfg, "--out", str(out)) == 0
    lines = (out / "curve.csv").read_text().splitlines()[1:]
    values = [float(l.split(",")[1]) for l in lines]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    # past t = 37.5, where 2 Phi(-t) underflows, the curve stays finite, warns of
    # nothing, and its JSON holds no bare NaN or Infinity token
    text = (tmp_path / "curve.cfg").read_text().replace("level_max = 4.0", "level_max = 60")
    cfg = write(tmp_path / "deep.cfg", f"{text}functional = fdr_curve\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("risk-curve", "--config", cfg, "--out", str(out), "--format", "json") == 0

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    payload = json.loads((out / "curve.json").read_text(), parse_constant=refuse)
    values = payload["values"]
    assert payload["levels"][-1] == 60.0
    assert all(0.0 < b < a for a, b in zip(values, values[1:]))
    # an atom of zero weight changes nothing: the curve of the point mass at 0 is 1
    ghost = write(tmp_path / "ghost.cfg", "atoms = 0, 100\nweights = 1, 0\nlevel_max = 60\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("fdr-curve", "--config", ghost, "--out", str(tmp_path / "ghost")) == 0
    lines = (tmp_path / "ghost" / "curve.csv").read_text().splitlines()[1:]
    assert lines and all(float(line.split(",")[1]) == 1.0 for line in lines)


def test_fdr_curve_rejects_risk_only_keys(tmp_path):
    cfg = write(tmp_path / "c.cfg", "atoms = 0, 3\nfunctional = fdr_curve\n")
    assert run("fdr-curve", "--config", cfg, "--out", str(tmp_path / "o")) == 2


def test_risk_curve_bad_geometry(tmp_path):
    cfg = write(tmp_path / "c.cfg", "atoms = 0, 3\nlevel_min = 5.0\nlevel_max = 4.0\n")
    assert run("risk-curve", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    cfg2 = write(tmp_path / "c2.cfg", "atoms = 0, 3\npoints = 1\n")
    assert run("risk-curve", "--config", cfg2, "--out", str(tmp_path / "o2")) == 2


# ---------------------------------------------------------------------------
# experiments

# one small config per experiment kind, and the SHA-256 of experiment.csv then
# experiment.json for seeds 1, 2 and 3 in turn; the hashes were taken before the
# refactor that gave N(t) and the prior average one owner each, which kept every byte.
# The common_mean hashes here and below were retaken when ``sample_mean_risk`` became
# the exact 1 and its Monte Carlo ``sample_mean_se`` row was dropped.
_EXPERIMENT_CFG = {
    "regret": "kind = regret\nn = 64\nspike_count = 4\nspike_value = 3.0\nreplicates = 20\n",
    "regret_strong": "kind = regret\nn = 64\nspike_count = 4\nspike_value = 3.0\n"
    "replicates = 20\nstrong = true\n",
    "common_mean": "kind = common_mean\nn = 32\nmu = 0.5\nreplicates = 20\n",
    "minimax": "kind = minimax\nn = 64\np = 1\nradius = 0.05\nreplicates = 20\n",
    "concentration": "kind = concentration\nn = 64\nspike_count = 4\nspike_value = 2.5\n"
    "level = 1.8\nreplicates = 20\n",
}
_EXPERIMENT_SHA256 = {
    "regret": "9c23c5595ad8b02f6e66b5183af7675b531aa8f961529ea104d6770044080fc6",
    "regret_strong": "214e2b9e10f08729de27d5571a00cb28a91db7e3e0649e2a540bf68177e108f5",
    "common_mean": "01acfadea12eff6b1ec441b51d368dbd6113bb54e0d06b17d4cb91ff2e2ccf70",
    "minimax": "0243c6bb3c2d518f3d44f52dd544e70293d891a70f12a7ff3f5c1dd37a3ddad2",
    "concentration": "97c65c900c6e8cad5cf9ecc493412e912a800b27f210508fb527c84c19910d52",
}


# configs on the paths the small pins above miss: one-row top-K blocks (regret at
# n = 20 000 with interp = 1 and alpha2 < alpha1, hard at n = 10 000, common_mean at
# n = 9000 with interp = 0.5) and a firm family with both deltas on 8-row blocks.
# The hashes were taken from the code before the top-K prefix lost the magnitude
# it appended after the last cut.  regret_one_row_tail ends each run with a one-row
# block of n = 64 after a 256-row block; its hash was taken from the code that
# still sorted every magnitude of a one-row block below 512 observations.
_PATH_EXPERIMENT_CFG = {
    "regret_top_k": "kind = regret\nn = 20000\nspike_count = 200\nspike_value = 3.5\n"
    "replicates = 4\nalpha2 = 0.04\ninterp = 1\n",
    "firm_deltas": "kind = regret\nn = 2048\nspike_count = 40\nspike_value = 3.0\n"
    "replicates = 24\nfamily = firm\nfirm_slope = 1.8\ndelta1 = 0.1\ndelta2 = 0.3\n"
    "interp = 0.4\n",
    "hard": "kind = regret\nn = 10000\nspike_count = 50\nspike_value = 4.0\nreplicates = 4\n"
    "family = hard\nallow_hard = true\n",
    "common_mean_interp": "kind = common_mean\nn = 9000\nmu = 0.005\nreplicates = 4\n"
    "interp = 0.5\n",
    "regret_one_row_tail": "kind = regret\nn = 64\nspike_count = 4\nspike_value = 3.0\n"
    "replicates = 257\nalpha2 = 0.04\ninterp = 1\n",
}
_PATH_EXPERIMENT_SHA256 = {
    "regret_top_k": "6f8424e49e7f8c8da4e15db12a0492ba4e050ee262daef684cf78a695877ae9f",
    "firm_deltas": "65f7824bdea8dedc0caa652063b21ce6e20bff258f897bb08681ced6abfa63f9",
    "hard": "3344320dc10f4dd6c877eb751f8e1fed8c69c258fceb45c75c1c16ce466e53c0",
    "common_mean_interp": "3ecc6d323c9928ba71ad69c85a51912f92d4e0c40295bf4031588bdac6c51775",
    "regret_one_row_tail": "1f0115bf1db6611615f0becfd72afba448c371ca11125ddc0b5244cf426a8650",
}
# the benchmark's selector (alpha2 = 0.1 below alpha1 = 0.2) at interp = 0, where
# the step-down level is not read: regret on one-row top-K blocks, strong regret on
# 16-row blocks, and the same strong regret at interp = 0.6.  The hashes were taken
# from the code before selection skipped the unread step-down level and bounded a
# block's sorted prefix by its first cut.  bench_big is the mc-regret-1e5 benchmark
# run; at seed 2 its second one-row block compares a longer prefix than its first
# (495 levels after 468).  Its hash was taken from the code that kept the candidate
# levels of a run in one store and computed only the missing ones for a longer prefix.
_BENCH_SELECTOR = "alpha1 = 0.2\nalpha2 = 0.1\nalpha1p = 0.4\nalpha2p = 0.05\n"
_BENCH_SELECTOR_CFG = {
    "bench_top_k": "kind = regret\nn = 20000\nspike_count = 200\nspike_value = 3.5\n"
    "replicates = 4\n" + _BENCH_SELECTOR,
    "bench_strong": "kind = regret\nn = 1024\nspike_count = 32\nspike_value = 3.0\n"
    "replicates = 16\nstrong = true\n" + _BENCH_SELECTOR,
    "bench_strong_interp": "kind = regret\nn = 1024\nspike_count = 32\nspike_value = 3.0\n"
    "replicates = 16\nstrong = true\n" + _BENCH_SELECTOR + "interp = 0.6\n",
    "bench_big": "kind = regret\nn = 100000\nspike_count = 500\nspike_value = 3.0\n"
    "replicates = 2\n" + _BENCH_SELECTOR,
}
_BENCH_SELECTOR_SHA256 = {
    "bench_top_k": "2172031bbecf37e3921c9b381896c8a4646b9346cb1149fa33149a40cec2e0fd",
    "bench_strong": "53808a20ec590db5731c34e673b641eb69678f53e1625a831e2a76043b75639a",
    "bench_strong_interp": "050a31b1649c4fa4ddb2a3e61cf7c7cc35bd53e44539530d9a2630bc0e829080",
    "bench_big": "8ab0fb9f4fd2bd7aa9c85dd9b5faeac47991a3829d5988c1f3953a2302f32614",
}
_PINNED_CFG = {**_EXPERIMENT_CFG, **_PATH_EXPERIMENT_CFG, **_BENCH_SELECTOR_CFG}
_PINNED_SHA256 = {**_EXPERIMENT_SHA256, **_PATH_EXPERIMENT_SHA256, **_BENCH_SELECTOR_SHA256}


@pytest.mark.parametrize("kind", list(_PINNED_SHA256))
def test_experiment_bytes_pinned(tmp_path, kind):
    cfg = write(tmp_path / "e.cfg", _PINNED_CFG[kind])
    digest = hashlib.sha256()
    for seed in ("1", "2", "3"):
        out = tmp_path / seed
        assert run("experiment", "--config", cfg, "--out", str(out), "--seed", seed) == 0
        for name in ("experiment.csv", "experiment.json"):
            digest.update((out / name).read_bytes())
    assert digest.hexdigest() == _PINNED_SHA256[kind]


# the default selector, and alpha2 < alpha1 with both deltas, interp inside the
# interval and a firm family; every estimate is one row, so it takes the top-K path
_ESTIMATE_SELECTOR = {
    "default": "",
    "interval": "alpha1 = 0.1\nalpha2 = 0.05\nalpha1p = 0.2\nalpha2p = 0.02\n"
    "delta1 = 0.05\ndelta2 = 0.2\ninterp = 0.7\nfamily = firm\n",
}
# the SHA-256 of estimate.csv then estimate.json for the inputs of seeds 1, 2 and 3
# in turn, taken like _PATH_EXPERIMENT_SHA256; the n = 300 hashes were taken from the
# code that still sorted every magnitude of a one-row selection below 512 observations
_ESTIMATE_SHA256 = {
    (300, "default"): "b30d6f007b65412c71d5b5c3243ef1c26c5fba3314f7dab72e5fe89c612414ac",
    (300, "interval"): "c1c19c7bde0ab9d549fc6898714fd679b98d55a2b2bee88d872b6c11e011a97f",
    (5000, "default"): "f7c16d88ef634c3c8b076785b38d7dca4cf119e71be68fc80ec48290f28e3b15",
    (5000, "interval"): "1b4314ac2c215b051380abdb7865cabb3f3c8ba6e3dec817c839c0ffdc754b18",
    (50000, "default"): "8e8b65cf33991f4510924a67b25805fc59dd64ea603bd9e33bf12dbbc88b0b7e",
    (50000, "interval"): "29dfdd68dd51227c6f089ba3b4d00a8bfd3a192e52aa920a86156de00bd9f3c2",
}


@pytest.mark.parametrize("n, selector", list(_ESTIMATE_SHA256))
def test_estimate_bytes_pinned(tmp_path, monkeypatch, n, selector):
    # a relative input path, since estimate.json repeats the configured one
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "e.cfg", f"input = x.bin\n{_ESTIMATE_SELECTOR[selector]}")
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        x = np.random.default_rng(seed).standard_normal(n)
        x[: n // 50] += 3.5
        write_vector_binary(tmp_path / "x.bin", x)
        assert run("estimate", "--config", "e.cfg", "--out", str(seed)) == 0
        for name in ("estimate.csv", "estimate.json"):
            digest.update((tmp_path / str(seed) / name).read_bytes())
    assert digest.hexdigest() == _ESTIMATE_SHA256[n, selector]


# the library call of each _EXPERIMENT_CFG config at seed 1
_EXPERIMENT_CALL = {
    "regret": lambda: regret_experiment(spikes(64, 4, 3.0), 20, 1),
    "regret_strong": lambda: regret_experiment(spikes(64, 4, 3.0), 20, 1, strong=True),
    "common_mean": lambda: common_mean_experiment(32, 0.5, 20, 1),
    "minimax": lambda: minimax_ball_experiment(64, 1.0, 0.05, 20, 1),
    "concentration": lambda: concentration_check(
        spikes(64, 4, 2.5), 1.8, ThresholdFamily("soft"), 20, 1
    ),
}


@pytest.mark.parametrize("kind", list(_EXPERIMENT_CFG))
def test_experiment_rows_are_the_report_fields(tmp_path, kind):
    # the metric rows are the report's non-None fields in order, then the seed,
    # and the fingerprint is the report's own
    cfg = write(tmp_path / "e.cfg", _EXPERIMENT_CFG[kind])
    assert run("experiment", "--config", cfg, "--out", str(tmp_path), "--seed", "1") == 0
    rep = _EXPERIMENT_CALL[kind]()
    names = [f.name for f in dataclasses.fields(rep) if getattr(rep, f.name) is not None]
    assert names.pop() == "config_fingerprint"
    lines = (tmp_path / "experiment.csv").read_text().splitlines()[1:]
    assert [line.split(",")[0] for line in lines] == names + ["seed"]
    payload = json.loads((tmp_path / "experiment.json").read_text())
    assert payload["fingerprint"] == rep.config_fingerprint


def test_experiment_regret_reproducible(tmp_path):
    cfg = write(
        tmp_path / "e.cfg",
        "kind = regret\nn = 64\nspike_count = 4\nspike_value = 2.5\n"
        "replicates = 50\nseed = 3\n",
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run("experiment", "--config", cfg, "--out", str(out1)) == 0
    assert run("experiment", "--config", cfg, "--out", str(out2)) == 0
    assert (out1 / "experiment.csv").read_bytes() == (out2 / "experiment.csv").read_bytes()
    assert (out1 / "experiment.json").read_bytes() == (out2 / "experiment.json").read_bytes()

    payload = json.loads((out1 / "experiment.json").read_text())
    results = payload["results"]
    assert results["degenerate"] == "false"
    assert float(results["ratio"]) > 0
    assert "fingerprint" in payload


def test_experiment_seed_override_lands_in_resolved(tmp_path):
    cfg = write(
        tmp_path / "e.cfg",
        "kind = regret\nn = 32\nspike_count = 2\nspike_value = 3.0\n"
        "replicates = 40\nseed = 3\n",
    )
    base, other = tmp_path / "b", tmp_path / "o"
    assert run("experiment", "--config", cfg, "--out", str(base)) == 0
    assert run("experiment", "--config", cfg, "--out", str(other), "--seed", "9") == 0
    assert "seed = 9" in (other / "resolved.cfg").read_text()
    assert (base / "experiment.csv").read_bytes() != (other / "experiment.csv").read_bytes()
    # replaying the override through its resolved config reproduces it
    replay = tmp_path / "replay"
    assert run("experiment", "--config", str(other / "resolved.cfg"), "--out", str(replay)) == 0
    assert (replay / "experiment.csv").read_bytes() == (other / "experiment.csv").read_bytes()


def test_experiment_replicates_override(tmp_path):
    cfg = write(tmp_path / "e.cfg", "kind = common_mean\nn = 50\nmu = 0.0\nreplicates = 10\n")
    out = tmp_path / "out"
    assert run("experiment", "--config", cfg, "--out", str(out), "--replicates", "24") == 0
    assert "replicates = 24" in (out / "resolved.cfg").read_text()
    rows = dict(
        line.split(",", 1)
        for line in (out / "experiment.csv").read_text().splitlines()[1:]
    )
    assert {"fdr_soft_risk", "fdr_firm_risk", "sample_mean_risk"} <= set(rows)
    assert rows["sample_mean_risk"] == "1.0"


def test_experiment_minimax(tmp_path):
    cfg = write(
        tmp_path / "e.cfg",
        "kind = minimax\nn = 200\np = 0.0\nradius = 0.025\nreplicates = 40\nseed = 1\n",
    )
    out = tmp_path / "out"
    assert run("experiment", "--config", cfg, "--out", str(out)) == 0
    rows = dict(
        line.split(",", 1)
        for line in (out / "experiment.csv").read_text().splitlines()[1:]
    )
    assert float(rows["level"]) == pytest.approx(math.sqrt(2 * math.log(40)), rel=1e-12)
    assert float(rows["ratio"]) > 0

    bad = write(tmp_path / "bad.cfg", "kind = minimax\nn = 200\nreplicates = 40\n")
    assert run("experiment", "--config", bad, "--out", str(tmp_path / "o2")) == 2


def test_experiment_concentration(tmp_path):
    cfg = write(
        tmp_path / "e.cfg",
        "kind = concentration\nn = 100\nlevel = 1.0\nreplicates = 60\nseed = 2\n",
    )
    out = tmp_path / "out"
    assert run("experiment", "--config", cfg, "--out", str(out)) == 0
    rows = dict(
        line.split(",", 1)
        for line in (out / "experiment.csv").read_text().splitlines()[1:]
    )
    assert rows["passed"] == "true"
    assert float(rows["bound"]) == pytest.approx(0.04)

    hard = write(
        tmp_path / "hard.cfg",
        "kind = concentration\nn = 20\nlevel = 1.0\nreplicates = 10\n"
        "family = hard\nallow_hard = true\n",
    )
    assert run("experiment", "--config", hard, "--out", str(tmp_path / "o2")) == 2


@pytest.mark.parametrize(
    "kind",
    [
        "kind = regret\nn = 64\nspike_count = 4\nspike_value = 3.0\nstrong = true\n",
        "kind = minimax\nn = 200\np = 0.0\nradius = 0.025\n",
    ],
    ids=["regret", "minimax"],
)
def test_experiment_hard_family_opt_in(tmp_path, kind):
    text = kind + "replicates = 10\nfamily = hard\n"
    refused = write(tmp_path / "refused.cfg", text)
    assert run("experiment", "--config", refused, "--out", str(tmp_path / "o1")) == 2
    allowed = write(tmp_path / "allowed.cfg", text + "allow_hard = true\n")
    out = tmp_path / "o2"
    assert run("experiment", "--config", allowed, "--out", str(out)) == 0
    rows = dict(
        line.split(",", 1)
        for line in (out / "experiment.csv").read_text().splitlines()[1:]
    )
    assert float(rows["mc_risk"]) > 0


def test_experiment_runtime_failure_exit_3(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("simulated failure")

    monkeypatch.setattr("fdrthresh.cli.concentration_check", fail)
    cfg = write(
        tmp_path / "e.cfg",
        "kind = concentration\nn = 20\nlevel = 1.0\nreplicates = 10\n",
    )
    assert run("experiment", "--config", cfg, "--out", str(tmp_path / "o")) == 3
    assert "runtime error:" in capsys.readouterr().err


def test_experiment_validation_exit_2(tmp_path):
    out = str(tmp_path / "o")
    bad_kind = write(tmp_path / "a.cfg", "kind = banana\nn = 10\n")
    assert run("experiment", "--config", bad_kind, "--out", out) == 2
    bad_n = write(tmp_path / "b.cfg", "kind = regret\nn = 0\n")
    assert run("experiment", "--config", bad_n, "--out", out) == 2
    bad_reps = write(tmp_path / "c.cfg", "kind = regret\nn = 10\nreplicates = 1\n")
    assert run("experiment", "--config", bad_reps, "--out", out) == 2


@pytest.mark.parametrize(
    "text",
    [
        "kind = common_mean\nn = 40\nmu = 0.5\nreplicates = 6\nseed = 1\n",
        "kind = concentration\nn = 40\nlevel = 1.0\nreplicates = 6\nseed = 1\n",
    ],
    ids=["common_mean", "concentration"],
)
def test_experiment_fingerprint(tmp_path, text):
    cfg = write(tmp_path / "e.cfg", text)

    def fingerprint(out, *extra):
        assert run("experiment", "--config", cfg, "--out", str(tmp_path / out), *extra) == 0
        return json.loads((tmp_path / out / "experiment.json").read_text())["fingerprint"]

    first = fingerprint("a")
    assert fingerprint("b") == first
    assert fingerprint("c", "--seed", "2") != first


def test_experiment_negative_seed_exit_2(tmp_path, capsys):
    out = str(tmp_path / "o")
    bad_seed = write(tmp_path / "a.cfg", "kind = regret\nn = 10\nreplicates = 4\nseed = -1\n")
    assert run("experiment", "--config", bad_seed, "--out", out) == 2
    good = write(tmp_path / "b.cfg", "kind = regret\nn = 10\nreplicates = 4\n")
    assert run("experiment", "--config", good, "--out", out, "--seed", "-1") == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert run("experiment", "--config", good, "--out", out, "--seed", "0") == 0


# ---------------------------------------------------------------------------
# entry point


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--seed", "5"],
        ["estimate", "--replicates", "3"],
        ["estimate", "--format", "svg"],
        ["experiment", "--format", "svg"],
    ],
)
def test_flags_a_subcommand_ignores_exit_2(tmp_path, four_point, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--config", four_point, "--out", str(tmp_path / "o"))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_EXPERIMENT = "experiment", "n = 20\nreplicates = 4\n"
_CURVE = "risk-curve", "atoms = 0, 3\n"


@pytest.mark.parametrize(
    "command,text",
    [
        (_EXPERIMENT, "kind = concentration\nlevel = -1\n"),
        (_EXPERIMENT, "kind = concentration\nlevel = nan\n"),
        (_EXPERIMENT, "kind = concentration\nspike_count = 2\nspike_value = nan\n"),
        (_EXPERIMENT, "kind = common_mean\nmu = nan\n"),
        (_EXPERIMENT, "kind = common_mean\nmu = inf\n"),
        (_EXPERIMENT, "kind = common_mean\nmu = 1e200\n"),
        (_EXPERIMENT, "kind = regret\nspike_count = 2\nspike_value = nan\n"),
        (_EXPERIMENT, "kind = regret\nspike_count = 2\nspike_value = inf\n"),
        (_EXPERIMENT, "kind = regret\nspike_count = 2\nspike_value = 1e200\n"),
        (_EXPERIMENT, "kind = minimax\np = -1\nradius = 0.1\n"),
        (_EXPERIMENT, "kind = minimax\np = 2.5\nradius = 0.1\n"),
        (_EXPERIMENT, "kind = minimax\np = 0\nweak = true\nradius = 0.1\n"),
        (_EXPERIMENT, "kind = minimax\np = 0\nradius = 2\n"),
        (_EXPERIMENT, "kind = minimax\np = 1\nradius = nan\n"),
        (_EXPERIMENT, "kind = regret\nfamily = firm\nfirm_slope = 2.5\n"),
        (_EXPERIMENT, "kind = regret\nfamily = interpolated\nweight = 2\n"),
        (_EXPERIMENT, "kind = regret\nalpha1p = 0.04\n"),
        (_EXPERIMENT, "kind = regret\ndelta2 = inf\n"),
        (_EXPERIMENT, "kind = regret\nseed =\n"),
        (_EXPERIMENT, "kind = regret\n= 3\n"),
        (_EXPERIMENT, "kind = minimax\np = 1\nradius = 0.1\nweak = maybe\n"),
        (("risk-curve", ""), "atoms = ,\n"),
        (_CURVE, "functional = surrogate_risk\nb0 = nan\n"),
        (_CURVE, "functional = surrogate_risk\nb0 = inf\n"),
        (_CURVE, "level_max = inf\n"),
        (_CURVE, "level_max = -5\n"),
        (_CURVE, "level_max = nan\n"),
        (("fdr-curve", "atoms = 0, 3\n"), "level_max = inf\n"),
        (("fdr-curve", "atoms = 0, 3\n"), "level_max = -5\n"),
        (("fdr-curve", "atoms = 0, 3\n"), "level_max = nan\n"),
        # library argument checks that a thin front end passes on as exit 2
        (_EXPERIMENT, "kind = common_mean\nfirm_slope = 2.5\n"),
        (_EXPERIMENT, f"kind = regret\nseed = {2**128 + 1}\n"),
        pytest.param(_EXPERIMENT, "kind = regret\n# \udcff\n", id="experiment-non-utf8"),
        (_EXPERIMENT, "kind = regret\nspike_count = -1\n"),
        (_CURVE, "n = -5\n"),
        (_EXPERIMENT, "kind = minimax\nradius = 1e-320\n"),
        (("risk-curve", ""), "atoms = 1e200\n"),
    ],
    ids=lambda v: v[0] if isinstance(v, tuple) else v.strip().replace("\n", ","),
)
def test_bad_config_values_exit_2(tmp_path, command, text, capsys):
    name, base = command
    # a lone surrogate is written as the single byte it escapes, which is not UTF-8
    (tmp_path / "c.cfg").write_bytes((base + text).encode("utf-8", "surrogateescape"))
    assert run(name, "--config", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_estimate_of_a_missing_input_exits_2(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", f"input = {tmp_path / 'missing.csv'}\n")
    assert run("estimate", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "command,text",
    [
        ("estimate", "input = {tmp}/missing.csv\n"),
        ("estimate", "input = {tmp}/nan.csv\n"),
        ("experiment", "kind = common_mean\nn = 20\nfirm_slope = 2.5\n"),
    ],
    ids=["missing-input", "non-finite-input", "firm-slope"],
)
def test_a_failed_check_leaves_no_output_directory(tmp_path, command, text, capsys):
    write(tmp_path / "nan.csv", "3.0\nnan\n0.2\n")
    cfg = write(tmp_path / "c.cfg", text.format(tmp=tmp_path))
    assert run(command, "--config", cfg, "--out", str(tmp_path / "o" / "sub")) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()


def test_comments_and_blank_lines_change_no_byte(tmp_path):
    plain = write(tmp_path / "plain.cfg", _EXPERIMENT_CFG["regret"])
    noted = write(
        tmp_path / "noted.cfg",
        "# a comment-only line\n\n" + _EXPERIMENT_CFG["regret"].replace("\n", "  # trailing comment\n", 1) + "\n",
    )
    for name, cfg in (("plain", plain), ("noted", noted)):
        assert run("experiment", "--config", cfg, "--out", str(tmp_path / name)) == 0
    for file in ("experiment.csv", "experiment.json", "resolved.cfg"):
        assert (tmp_path / "noted" / file).read_bytes() == (tmp_path / "plain" / file).read_bytes()


# ---------------------------------------------------------------------------
# the keys a run reads

# a small run of each experiment kind and curve functional, and an estimate
_RUN_CFG = {
    "estimate": ("estimate", "input = {tmp}/x.csv\n"),
    "regret": ("experiment", "kind = regret\nn = 20\nspike_count = 2\nspike_value = 3.0\n"),
    "common_mean": ("experiment", "kind = common_mean\nn = 20\nmu = 0.3\n"),
    "minimax": ("experiment", "kind = minimax\nn = 20\np = 1\nradius = 0.1\n"),
    "concentration": ("experiment", "kind = concentration\nn = 20\nlevel = 1.5\n"),
    "bayes_risk": ("risk-curve", "atoms = 0, 3\npoints = 8\n"),
    "surrogate_risk": ("risk-curve", "atoms = 0, 3\npoints = 8\nfunctional = surrogate_risk\n"),
    "fdr_curve": ("risk-curve", "atoms = 0, 3\npoints = 8\nfunctional = fdr_curve\n"),
}

_SELECTOR_VALUES = {
    "alpha1": 0.01, "alpha2": 0.04, "alpha1p": 0.2, "alpha2p": 0.01,
    "delta1": 0.1, "delta2": 0.2, "interp": 0.5,
}

# (run, added config lines, the keys the run must refuse as unread)
_UNREAD = [
    # a common_mean run always thresholds soft and firm, and selects no hard level
    ("common_mean", "family = hard\nallow_hard = true\nstrong = true\nspike_count = 5\n"
     "radius = 3\nlevel = 7\n", ["allow_hard", "family", "level", "radius", "spike_count", "strong"]),
    ("regret", "mu = nan\n", ["mu"]),
    ("concentration", "alpha1 = 0.01\n", ["alpha1"]),
    ("estimate", "family = soft\nweight = 0.3\n", ["weight"]),
    ("fdr_curve", "b0 = 5\n", ["b0"]),
    ("bayes_risk", "b0 = 5\n", ["b0"]),
    ("common_mean", "spike_value = 3.0\n", ["spike_value"]),
    ("minimax", "spike_count = 2\n", ["spike_count"]),
    ("regret", "p = 1\n", ["p"]),
    ("concentration", "radius = 0.1\n", ["radius"]),
    ("common_mean", "weak = true\n", ["weak"]),
    ("minimax", "strong = true\n", ["strong"]),
    ("concentration", "mu = 0.5\n", ["mu"]),
    ("minimax", "level = 2\n", ["level"]),
    *[("concentration", f"{k} = {v}\n", [k]) for k, v in _SELECTOR_VALUES.items()],
    ("common_mean", "family = firm\n", ["family"]),
    ("estimate", "allow_hard = true\n", ["allow_hard"]),
    ("regret", "family = firm\nallow_hard = true\n", ["allow_hard"]),
    ("minimax", "firm_slope = 1.8\n", ["firm_slope"]),
    ("regret", "family = hard\nallow_hard = true\nfirm_slope = 1.8\n", ["firm_slope"]),
    ("regret", "family = firm\nweight = 0.3\n", ["weight"]),
    ("common_mean", "weight = 0.3\n", ["weight"]),
]

# (run, added config lines): keys at their defaults, or read by the run
_READ_OR_DEFAULT = [
    ("common_mean", "family = soft\nallow_hard = false\nstrong = false\nlevel = 1.0\n"
     "spike_count = 0\nradius = 0\nweight = 0.5\n"),
    ("regret", "mu = -0.0\np = 0\nweak = false\nlevel = 1\nfirm_slope = 1.5\n"),
    ("concentration", "alpha1 = 0.05\ninterp = 0\nstrong = false\n"),
    ("fdr_curve", "b0 = 4.0\n"),
    ("bayes_risk", "b0 = 4\n"),
    ("estimate", "family = firm\nfirm_slope = 1.8\n"),
    ("estimate", "family = interpolated\nfirm_slope = 1.8\nweight = 0.3\n"),
    ("regret", "family = firm\nfirm_slope = 1.8\nalpha1 = 0.1\nalpha1p = 0.2\n"),
    ("regret", "family = hard\nallow_hard = true\nstrong = true\n"),
    ("common_mean", "firm_slope = 1.8\ninterp = 0.5\n"),
    ("minimax", "family = interpolated\nweight = 0.3\n"),
    ("concentration", "family = firm\nfirm_slope = 1.8\nspike_count = 2\nspike_value = 3.0\n"),
    ("surrogate_risk", "b0 = 5\n"),
]


def _run_cfg(tmp_path, run_name, text):
    write(tmp_path / "x.csv", "3.0\n1.7\n1.5\n0.2\n")
    command, base = _RUN_CFG[run_name]
    extra = "replicates = 4\n" if command == "experiment" else ""
    return command, write(tmp_path / "c.cfg", base.format(tmp=tmp_path) + extra + text)


def test_unread_cases_cover_every_key_some_runs_do_not_read():
    assert {key for _, _, keys in _UNREAD for key in keys} == set(_READ_BY)


@pytest.mark.parametrize(
    "run_name, text, keys", _UNREAD, ids=lambda v: v.strip().replace("\n", ",") if isinstance(v, str) else None
)
def test_a_key_the_run_does_not_read_exits_2(tmp_path, run_name, text, keys, capsys):
    command, cfg = _run_cfg(tmp_path, run_name, text)
    assert run(command, "--config", cfg, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command} ")
    assert run_name in err.split(" does not read ")[0].split()
    assert f"config keys {keys}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "run_name, text", _READ_OR_DEFAULT, ids=lambda v: v.strip().replace("\n", ",")
)
def test_a_key_read_or_at_its_default_is_accepted(tmp_path, run_name, text, capsys):
    command, cfg = _run_cfg(tmp_path, run_name, text)
    assert run(command, "--config", cfg, "--out", str(tmp_path / "o")) == 0, capsys.readouterr().err


_CURVE_RERUN = "atoms = 0, 3\nweights = 0.9, 0.1\npoints = 16\n"
# each experiment kind, curve functional and non-soft family, by its command and config
_RERUN_CFG = {
    **{kind: ("experiment", text) for kind, text in _EXPERIMENT_CFG.items()},
    **{
        functional: ("risk-curve", f"{_CURVE_RERUN}functional = {functional}\n")
        for functional in ("bayes_risk", "surrogate_risk", "fdr_curve")
    },
    "fdr-curve": ("fdr-curve", _CURVE_RERUN),
    "hard": ("estimate", "input = {tmp}/x.csv\nfamily = hard\nallow_hard = true\n"),
    "firm": ("experiment", _EXPERIMENT_CFG["regret"] + "family = firm\nfirm_slope = 1.8\n"),
    "interpolated": (
        "experiment", _EXPERIMENT_CFG["concentration"] + "family = interpolated\nweight = 0.3\n"
    ),
}


@pytest.mark.parametrize("name", list(_RERUN_CFG))
def test_rerun_from_resolved_is_byte_identical(tmp_path, name):
    write(tmp_path / "x.csv", "3.0\n1.7\n1.5\n0.2\n")
    command, text = _RERUN_CFG[name]
    cfg = write(tmp_path / "c.cfg", text.format(tmp=tmp_path))
    fmt = ["--format", "json"] if command.endswith("curve") else []
    first, second = tmp_path / "a", tmp_path / "b"
    assert run(command, "--config", cfg, "--out", str(first), *fmt) == 0
    assert run(command, "--config", str(first / "resolved.cfg"), "--out", str(second), *fmt) == 0
    names = sorted(p.name for p in first.iterdir())
    assert len(names) == 3 and names == sorted(p.name for p in second.iterdir())
    for file in names:
        assert (first / file).read_bytes() == (second / file).read_bytes(), file


def _refuse(token):
    raise ValueError(f"not JSON: {token}")


def test_json_outputs_write_infinite_floats_as_text(tmp_path):
    # an estimate that selects nothing has an infinite level and trace ends
    data = write(tmp_path / "x.csv", "0.1\n-0.2\n0.3\n")
    cfg = write(tmp_path / "e.cfg", f"input = {data}\n")
    assert run("estimate", "--config", cfg, "--out", str(tmp_path / "e")) == 0
    report = json.loads((tmp_path / "e" / "estimate.json").read_text(), parse_constant=_refuse)
    assert report["level"] == "inf"
    assert {k: v for k, v in report["trace"].items() if v == "inf"}.keys() == {
        "xi1_hat", "xi2_hat", "lower", "upper", "lambda_hat"
    }
    # an infinite configured level lands in the config block as text
    cfg = write(tmp_path / "c.cfg", "kind = concentration\nn = 20\nlevel = inf\nreplicates = 4\n")
    assert run("experiment", "--config", cfg, "--out", str(tmp_path / "c")) == 0
    payload = json.loads((tmp_path / "c" / "experiment.json").read_text(), parse_constant=_refuse)
    assert payload["config"]["level"] == "inf"
    assert "level = inf\n" in (tmp_path / "c" / "resolved.cfg").read_text()


def test_estimate_with_underflowing_slope_exits_2(tmp_path, capsys):
    # FdrConfig accepts alpha1 = alpha2 = 4e-323, but alpha / (2n) underflows to 0 at n = 1000
    data = write(tmp_path / "x.csv", "".join(f"{v!r}\n" for v in np.linspace(-3.0, 3.0, 1000).tolist()))
    cfg = write(tmp_path / "c.cfg", f"input = {data}\nalpha1 = 4e-323\nalpha2 = 4e-323\nalpha2p = 5e-324\n")
    assert run("estimate", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    message = "error: alpha = 4e-323 is too small for n = 1000: alpha / (2n) underflows to 0\n"
    assert capsys.readouterr().err == message


def test_parser_built_once_per_process(tmp_path, four_point, capsys):
    # one process: a usage error, --version, then an estimate and an
    # experiment whose outputs match those of fresh processes
    experiment = write(
        tmp_path / "e.cfg",
        "kind = regret\nn = 64\nspike_count = 4\nspike_value = 2.5\nreplicates = 20\nstrong = true\n",
    )
    commands = {
        "estimate": ["estimate", "--config", four_point],
        "experiment": ["experiment", "--config", experiment, "--seed", "4"],
    }
    cli._build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        run("experiment", "--config")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "fdrthresh" in capsys.readouterr().out
    for name, argv in commands.items():
        assert run(*argv, "--out", str(tmp_path / "same" / name)) == 0
        fresh = [*argv, "--out", str(tmp_path / "fresh" / name)]
        code = f"from fdrthresh.cli import main; raise SystemExit(main({fresh!r}))"
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0
        same = sorted((tmp_path / "same" / name).iterdir())
        assert [p.name for p in same] == [p.name for p in sorted((tmp_path / "fresh" / name).iterdir())]
        for path in same:
            assert path.read_bytes() == (tmp_path / "fresh" / name / path.name).read_bytes()
    assert cli._build_parser.cache_info().misses == 1



# ---------------------------------------------------------------------------
# output files

_REGRET_CFG = _EXPERIMENT_CFG["regret"]


def test_outputs_rewritten_in_place_match_fresh_runs(tmp_path, four_point, curve_cfg):
    # stale files of the same names, alternately shorter and longer than the new
    # ones, are overwritten exactly; the experiment runs strong regret first, then
    # plain regret, so its files also get shorter between the two runs, and so does
    # the multi-batch estimate.csv, after an estimate of a longer input
    strong = write(tmp_path / "strong.cfg", _REGRET_CFG + "strong = true\n")
    plain = write(tmp_path / "plain.cfg", _REGRET_CFG)
    batches = {}
    for n in (2 * _BATCH + 1, 3 * _BATCH):
        data = write(tmp_path / f"x{n}.csv", "".join(f"{v!r}\n" for v in _cycled(n)))
        batches[n] = ["estimate", "--config", write(tmp_path / f"x{n}.cfg", f"input = {data}\n")]
    cases = {
        "estimate": [["estimate", "--config", four_point]],
        "estimate-batches": [batches[2 * _BATCH + 1]],
        "estimate-batches-after-longer": [batches[3 * _BATCH], batches[2 * _BATCH + 1]],
        "experiment": [["experiment", "--config", strong], ["experiment", "--config", plain]],
        "risk-curve": [["risk-curve", "--config", curve_cfg, "--format", "svg"]],
    }
    for name, runs in cases.items():
        fresh, reused = tmp_path / "fresh" / name, tmp_path / "reused" / name
        assert run(*runs[-1], "--out", str(fresh)) == 0
        outputs = sorted(fresh.iterdir())
        assert len(outputs) == 3
        reused.mkdir(parents=True)
        for i, path in enumerate(outputs):
            size = path.stat().st_size
            (reused / path.name).write_bytes(b"#" * (3 * size if i % 2 else size // 2))
        for argv in runs:
            assert run(*argv, "--out", str(reused)) == 0
        assert sorted(p.name for p in reused.iterdir()) == [p.name for p in outputs]
        for path in outputs:
            assert (reused / path.name).read_bytes() == path.read_bytes(), (name, path.name)


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_new_output_files_get_the_write_text_mode(tmp_path, four_point, umask):
    old = os.umask(umask)
    try:
        (tmp_path / "reference").write_text("x")
        assert run("estimate", "--config", four_point, "--out", str(tmp_path / "out")) == 0
    finally:
        os.umask(old)
    want = stat.S_IMODE((tmp_path / "reference").stat().st_mode)
    for path in (tmp_path / "out").iterdir():
        assert stat.S_IMODE(path.stat().st_mode) == want, path.name


def test_outputs_opened_without_truncation(tmp_path, four_point, curve_cfg, monkeypatch):
    flags = []
    real_open = os.open

    def spy(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    out = str(tmp_path / "out")
    assert run("estimate", "--config", four_point, "--out", out) == 0
    assert run("risk-curve", "--config", curve_cfg, "--out", out, "--format", "svg") == 0
    assert len(flags) == 6
    assert not any(flag & os.O_TRUNC for flag in flags)


def test_outputs_hold_the_bytes_text_mode_writes(tmp_path, monkeypatch):
    # the outputs are written through a binary file object; each holds the bytes
    # that open(path, "w") writes for its text, here with a non-ASCII input path
    # in resolved.cfg (estimate.json escapes it)
    data = write(tmp_path / "données-ü€.csv", "3.0\n1.7\n1.5\n0.2\n")
    cfg = write(tmp_path / "est.cfg", f"input = {data}\n")
    texts = {}
    rewrite = cli._rewrite

    def record(path, pieces):
        pieces = list(pieces)
        texts[path.name] = "".join(pieces)
        rewrite(path, pieces)

    monkeypatch.setattr(cli, "_rewrite", record)
    out = tmp_path / "out"
    assert run("estimate", "--config", cfg, "--out", str(out)) == 0
    assert f"input = {data}\n" in texts["resolved.cfg"]
    assert sorted(texts) == ["estimate.csv", "estimate.json", "resolved.cfg"]
    for name, text in texts.items():
        with open(tmp_path / name, "w") as fh:
            fh.write(text)
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_console_script_version():
    proc = subprocess.run(
        [sys.executable, "-c", "from fdrthresh.cli import main; raise SystemExit(main(['--version']))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "fdrthresh" in proc.stdout


# ---------------------------------------------------------------------------
# defaults that read back, and the curve grid's top


def test_every_default_reads_back_from_its_resolved_text():
    # resolved.cfg writes each key as _format_value gives it; a key without a
    # default is required and always holds a value that was read
    for command, schema in _SCHEMAS.items():
        for name, key in schema.items():
            if key.default is None:
                continue
            raw = _parse_config_text(f"{name} = {_format_value(key.default)}\n", "resolved.cfg")
            value = key.parse(name, raw[name])
            assert value == key.default and type(value) is type(key.default), (command, name)


@pytest.mark.parametrize("command", ["risk-curve", "fdr-curve"])
def test_a_curve_without_weights_reruns_from_resolved(tmp_path, command):
    cfg = write(tmp_path / "c.cfg", "atoms = 0, 3\npoints = 16\n")
    first, second = tmp_path / "a", tmp_path / "b"
    assert run(command, "--config", cfg, "--out", str(first), "--format", "json") == 0
    assert "\nweights = \n" in (first / "resolved.cfg").read_text()
    rerun = str(first / "resolved.cfg")
    assert run(command, "--config", rerun, "--out", str(second), "--format", "json") == 0
    for file in ("curve.csv", "curve.json", "resolved.cfg"):
        assert (first / file).read_bytes() == (second / file).read_bytes(), file


@pytest.mark.parametrize(
    "command,text",
    [
        ("risk-curve", "atoms =\n"),
        ("risk-curve", "atoms = 0, 3\nweights = ,\n"),
        ("risk-curve", "atoms = 0, 3\nn =\n"),
        ("risk-curve", "atoms = 0, 3\nfunctional =\n"),
        ("fdr-curve", "atoms = 0, 3\nlevel_max =\n"),
        ("estimate", "input =\n"),
        ("experiment", "kind = regret\nn = 20\nfamily =\n"),
        ("experiment", "kind = minimax\nn = 20\np = 1\nradius = 0.1\nweak =\n"),
    ],
    ids=lambda v: v.strip().replace("\n", ","),
)
def test_an_empty_value_is_refused_but_on_an_empty_list_default(tmp_path, command, text, capsys):
    cfg = write(tmp_path / "c.cfg", text)
    assert run(command, "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith("error: config key ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command,functional",
    [("risk-curve", "bayes_risk"), ("risk-curve", "surrogate_risk"), ("risk-curve", "fdr_curve"),
     ("fdr-curve", None)],
)
def test_a_level_max_whose_square_overflows_exits_2(tmp_path, command, functional, capsys):
    # at 1e160 the bayes_risk values read NaN and the surrogate's optimum (inf, 0.9)
    base = "atoms = 0, 3\nweights = 0.9, 0.1\npoints = 3\n"
    if functional:
        base += f"functional = {functional}\n"
    big = write(tmp_path / "big.cfg", base + "level_max = 1e160\n")
    assert run(command, "--config", big, "--out", str(tmp_path / "big"), "--format", "svg") == 2
    assert "level_max**2 < inf" in capsys.readouterr().err
    assert not (tmp_path / "big").exists()
    # 1e150 squares to a finite float and still runs, with no RuntimeWarning
    ok = write(tmp_path / "ok.cfg", base + "level_max = 1e150\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(command, "--config", ok, "--out", str(tmp_path / "ok"), "--format", "svg") == 0
    rows = (tmp_path / "ok" / "curve.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [0.0, 5e149, 1e150]
    assert all(math.isfinite(float(r.split(",")[1])) for r in rows)


def test_a_curve_of_several_batches_matches_row_by_row_repr(tmp_path):
    points = 2 * _BATCH + 1
    cfg = write(tmp_path / "c.cfg", f"atoms = 0, 3\nweights = 0.9, 0.1\npoints = {points}\n")
    assert run("risk-curve", "--config", cfg, "--out", str(tmp_path / "o")) == 0
    prior = EmpiricalPrior.from_atoms([0.0, 3.0], [0.9, 0.1])
    levels = np.linspace(0.0, prior.default_level_max, points)
    values = bayes_soft_risk(prior, levels)
    want = "".join(f"{float(l)!r},{float(v)!r}\n" for l, v in zip(levels, values))
    assert (tmp_path / "o" / "curve.csv").read_text() == "# schema: level:float,value:float\n" + want


def test_family_defaults_have_one_owner():
    # the dataclass fields give the CLI's defaults and common_mean_experiment's
    defaults = {f.name: f.default for f in dataclasses.fields(ThresholdFamily)[1:]}
    assert defaults == {"firm_slope": 1.5, "weight": 0.5}
    for command in ("estimate", "experiment"):
        assert {k: _SCHEMAS[command][k].default for k in defaults} == defaults
    slope = inspect.signature(common_mean_experiment).parameters["firm_slope"].default
    assert slope == defaults["firm_slope"]
    assert ThresholdFamily("interpolated").slope == 1.25
