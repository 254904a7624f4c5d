"""The benchmark's three workloads: inputs, CLI arguments and output checks.

Each workload writes its inputs into a scratch directory from the seed,
names the ``fdrthresh`` argument vector one timed call runs, the number of
items one call completes and the output files that must repeat byte for
byte, and checks the outputs a call left behind against ``reference``
(never against the package itself).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import reference as ref

# Selector configuration shared by all workloads: plain step-up selection
# (interp = 0, no inflation), so the chosen level is the step-up level.
SELECTOR = {"alpha1": 0.2, "alpha2": 0.1, "alpha1p": 0.4, "alpha2p": 0.05}
ALPHA1 = SELECTOR["alpha1"]


def _write_config(path: Path, values: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))


def _read_rows(path: Path) -> dict[str, str]:
    rows = {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        key, _, value = line.partition(",")
        rows[key] = value
    return rows


class CliEstimate:
    """``fdrthresh estimate`` on a 250 000-line CSV of a sparse mean with 1 % spikes."""

    name = "cli-estimate-250k"
    n = 250_000
    spike_count = 2_500
    spike_value = 3.5
    kernels = ("text", "interpreter")
    outputs = ("estimate.csv", "estimate.json", "resolved.cfg")

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        theta = np.zeros(self.n)
        where = rng.choice(self.n, self.spike_count, replace=False)
        theta[where] = self.spike_value * rng.choice([-1.0, 1.0], self.spike_count)
        self.x = theta + rng.standard_normal(self.n)
        data = workdir / "x.csv"
        data.write_text("# observations\n" + "\n".join(map(repr, self.x.tolist())) + "\n")
        config = workdir / "estimate.cfg"
        _write_config(config, {"input": data.resolve(), "family": "soft", **SELECTOR})
        self.args = ["estimate", "--config", str(config)]
        self.items = self.n

    def check(self, out: Path) -> list[str]:
        problems = []
        idx, obs, est = [], [], []
        for line in (out / "estimate.csv").read_text().splitlines()[1:]:
            i, o, e = line.split(",")
            idx.append(int(i))
            obs.append(float(o))
            est.append(float(e))
        obs, est = np.array(obs), np.array(est)
        if idx != list(range(self.n)) or not np.array_equal(obs, self.x):
            problems.append("observation column does not round-trip the input")
        level = json.loads((out / "estimate.json").read_text())["level"]
        k = ref.step_up_count(self.x, ALPHA1)
        if np.count_nonzero(est) != k:
            problems.append(f"{np.count_nonzero(est)} nonzero estimates, step-up count is {k}")
        want = ref.step_up_level(self.n, k, ALPHA1)
        if not (level == want or ref.rel_close(level, want, 1e-12)):
            problems.append(f"level {level!r} differs from -ndtri(alpha1 k / 2n) = {want!r}")
        if not np.array_equal(est, ref.soft(self.x, level)):
            problems.append("CSV estimates differ from sign(x)(|x| - level)+")
        return problems


class McRegret:
    """``fdrthresh experiment`` with ``kind = regret`` on a spike signal."""

    outputs = ("experiment.csv", "experiment.json", "resolved.cfg")

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.theta = ref.spike_theta(self.n, self.spike_count, self.spike_value)
        config = workdir / "experiment.cfg"
        _write_config(
            config,
            {
                "kind": "regret",
                "n": self.n,
                "spike_count": self.spike_count,
                "spike_value": self.spike_value,
                "replicates": self.replicates,
                "strong": str(self.strong).lower(),
                "family": "soft",
                **SELECTOR,
            },
        )
        self.args = ["experiment", "--config", str(config), "--seed", str(seed)]
        self.items = self.replicates

    def check(self, out: Path) -> list[str]:
        rows = _read_rows(out / "experiment.csv")
        problems = []
        losses = ref.adaptive_losses(self.theta, self.seed, self.replicates, ALPHA1)
        risk, se = ref.mean_and_se(losses)
        for key, want in (("mc_risk", risk), ("mc_se", se)):
            if not ref.rel_close(float(rows[key]), want, 1e-9):
                problems.append(f"{key} {rows[key]} differs from recomputed {want!r}")
        exact = ref.min_bayes_risk_total(self.theta)
        if not ref.rel_close(float(rows["exact_total"]), exact, 1e-6):
            problems.append(f"exact_total {rows['exact_total']} differs from quadrature {exact!r}")
        if self.strong:
            problems += self._check_oracle(rows)
        return problems

    def _check_oracle(self, rows: dict[str, str]) -> list[str]:
        problems = []
        oracle, mc, ratio = (float(rows[k]) for k in ("oracle_risk", "mc_risk", "oracle_ratio"))
        if not (oracle <= mc and ratio >= 1.0):
            problems.append(f"oracle_risk {oracle!r} > mc_risk {mc!r} or oracle_ratio {ratio!r} < 1")
        draws = np.stack(
            [self.theta + ref.replicate_noise(self.seed, i, self.n) for i in range(self.replicates)]
        )
        minima = ref.oracle_minima(draws, self.theta)
        for x, low in zip(draws, minima):
            brute = ref.brute_losses(x, self.theta).min()
            if low > brute * (1.0 + 1e-12) + 1e-12:
                problems.append(f"vectorised oracle minimum {low!r} exceeds brute force {brute!r}")
                break
        want = float(minima.mean())
        if not ref.rel_close(oracle, want, 1e-9):
            problems.append(f"oracle_risk {oracle!r} differs from recomputed {want!r}")
        return problems


class McRegret1e5(McRegret):
    name = "mc-regret-1e5"
    n = 100_000
    spike_count = 500
    spike_value = 3.0
    replicates = 2
    strong = False
    kernels = ("numpy",)


class McOracle1024(McRegret):
    name = "mc-oracle-1024"
    n = 1024
    spike_count = 32
    spike_value = 3.0
    replicates = 16
    strong = True
    kernels = ("format",)


WORKLOADS = {w.name: w for w in (CliEstimate, McRegret1e5, McOracle1024)}
