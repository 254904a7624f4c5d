"""Time the rows of the ROADMAP baseline table (aim 1) on this host.

    python3 bench/baseline.py [--seed 1]

Each row is the median wall time of several calls with one thread for
the numeric libraries; inputs use the same signal make-up as the
benchmark workloads.  The tier-1 test suite row is not timed here.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import fdrthresh.cli as cli  # noqa: E402
from fdrthresh.selector import FdrConfig, select_lambda  # noqa: E402
from fdrthresh.simulate import oracle_loss_min, regret_experiment  # noqa: E402
from reference import spike_theta  # noqa: E402
from workloads import SELECTOR  # noqa: E402


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    config = FdrConfig(**SELECTOR)
    n = 1_000_000
    theta = np.zeros(n)
    theta[rng.choice(n, n // 100, replace=False)] = 3.5
    x = theta + rng.standard_normal(n)

    scratch = ROOT / ".bench_tmp" / f"baseline-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        (scratch / "x.csv").write_text("\n".join(map(repr, x.tolist())) + "\n")
        cfg = scratch / "estimate.cfg"
        cfg.write_text(f"input = {scratch / 'x.csv'}\n" + "".join(f"{k} = {v}\n" for k, v in SELECTOR.items()))
        argv = ["estimate", "--config", str(cfg), "--out", str(scratch / "out")]
        regret_theta = spike_theta(100_000, 500, 3.0)
        oracle_theta = spike_theta(1024, 32, 3.0)
        oracle_x = regret_theta + rng.standard_normal(100_000)
        rows = [
            ("select_lambda, n = 1e6", lambda: select_lambda(x, config), 5),
            ("CLI estimate, n = 1e6, end to end", lambda: cli.main(argv), 3),
            ("regret_experiment, n = 1e5, R = 100", lambda: regret_experiment(regret_theta, 100, 1, config), 3),
            (
                "regret_experiment strong, n = 1024, R = 300",
                lambda: regret_experiment(oracle_theta, 300, 1, config, strong=True),
                3,
            ),
            ("oracle_loss_min, n = 1e5", lambda: oracle_loss_min(oracle_x, regret_theta), 5),
        ]
        for label, fn, repeats in rows:
            print(f"{label:<46}{median_time(fn, repeats):9.3f} s  (median of {repeats})", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
