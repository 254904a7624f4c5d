"""End-to-end CLI tests: exit codes, artifacts, reproducibility."""

import dataclasses
import hashlib
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

from fdrthresh.cli import _BATCH, main
from fdrthresh.estimators import fdr_threshold_estimate, read_vector, write_vector_binary
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
# refactor that gave N(t) and the prior average one owner each, which kept every byte
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
    "common_mean": "1ce5e197acc142893438fe4fd998fad89b20529e1904e5cd21016dfdfb03e2a0",
    "minimax": "0243c6bb3c2d518f3d44f52dd544e70293d891a70f12a7ff3f5c1dd37a3ddad2",
    "concentration": "97c65c900c6e8cad5cf9ecc493412e912a800b27f210508fb527c84c19910d52",
}


# configs on the paths the small pins above miss: one-row top-K blocks (regret at
# n = 20 000 with interp = 1 and alpha2 < alpha1, hard at n = 10 000, common_mean at
# n = 9000 with interp = 0.5) and a firm family with both deltas on 8-row blocks.
# The hashes were taken from the code before the top-K prefix lost the magnitude
# it appended after the last cut.
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
}
_PATH_EXPERIMENT_SHA256 = {
    "regret_top_k": "6f8424e49e7f8c8da4e15db12a0492ba4e050ee262daef684cf78a695877ae9f",
    "firm_deltas": "65f7824bdea8dedc0caa652063b21ce6e20bff258f897bb08681ced6abfa63f9",
    "hard": "3344320dc10f4dd6c877eb751f8e1fed8c69c258fceb45c75c1c16ce466e53c0",
    "common_mean_interp": "8c18bfb03d66429c49ecb0379bfa5c1ab170b5eb7ca10158ec19c87adf8e6677",
}
_PINNED_CFG = {**_EXPERIMENT_CFG, **_PATH_EXPERIMENT_CFG}
_PINNED_SHA256 = {**_EXPERIMENT_SHA256, **_PATH_EXPERIMENT_SHA256}


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
# interval and a firm family; every estimate of n >= 512 takes the top-K path
_ESTIMATE_SELECTOR = {
    "default": "",
    "interval": "alpha1 = 0.1\nalpha2 = 0.05\nalpha1p = 0.2\nalpha2p = 0.02\n"
    "delta1 = 0.05\ndelta2 = 0.2\ninterp = 0.7\nfamily = firm\n",
}
# the SHA-256 of estimate.csv then estimate.json for the inputs of seeds 1, 2 and 3
# in turn, taken like _PATH_EXPERIMENT_SHA256
_ESTIMATE_SHA256 = {
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
    assert float(rows["sample_mean_risk"]) == pytest.approx(1.0, abs=0.5)


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
        (_CURVE, "functional = surrogate_risk\nb0 = nan\n"),
        (_CURVE, "level_max = inf\n"),
        (("fdr-curve", "atoms = 0, 3\n"), "level_max = inf\n"),
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


def test_parser_built_once_per_process(tmp_path, four_point, capsys):
    # one process: a usage error, --version, then an estimate and an
    # experiment whose outputs match those of fresh processes
    from fdrthresh import cli

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


def test_console_script_version():
    proc = subprocess.run(
        [sys.executable, "-c", "from fdrthresh.cli import main; raise SystemExit(main(['--version']))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "fdrthresh" in proc.stdout
