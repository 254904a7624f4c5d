"""Run one benchmark workload through the ``fdrthresh`` CLI and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from
``src/`` without being installed.  The run

1. times ``SETUP_RUNS`` fresh interpreters importing ``fdrthresh.cli``
   (``setup_s`` is their median; skipped when tracing),
2. writes the workload's inputs from ``--seed`` into a scratch directory
   under ``.bench_tmp/`` that it removes at the end,
3. calls ``fdrthresh.cli.main`` once untimed, then repeatedly for
   ``--seconds`` seconds, timing each call,
4. checks the outputs against the independent references in
   ``reference.py``; a call whose outputs fail a check, differ from the
   checked ones, or whose exit code is not 0 counts as failed,
5. prints the run's facts, then one JSON line with the end-to-end metrics
   (``--trace 0``) or the per-layer metrics (``--trace 1``).

With ``--trace 1`` every second call runs with span tracing on; the
per-layer metrics come from the traced calls, ``trace.overhead_pct``
compares them with the untraced ones, and the spans are written to
``.bench_out/``.
"""

import os

# One thread for every numeric library, before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 9
SETUP_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import fdrthresh.cli; print('ready', flush=True)"


def measure_setup() -> float:
    """Median rescaled time from starting an interpreter until ``fdrthresh.cli`` is imported."""

    def start_probe():
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE, str(SRC)], stdout=subprocess.PIPE, text=True
        )
        return proc, proc.stdout.readline()

    speed = HostSpeed(("interpreter",))
    times = []
    for i in range(SETUP_RUNS + 1):
        (proc, line), _, rescaled = speed.timed(start_probe)
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError("setup probe could not import fdrthresh.cli")
        if i:  # the first start also compiles the package's bytecode
            times.append(rescaled)
    return statistics.median(times)


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of ``values`` (all of them when there are fewer than 4)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def output_digest(out: Path, checked: tuple[str, ...]) -> tuple[str, int]:
    """Hash of the checked output files, and the size of every file written."""
    sha = hashlib.sha256()
    for name in checked:
        path = out / name
        sha.update(name.encode() + b"\0" + (path.read_bytes() if path.is_file() else b"missing"))
    return sha.hexdigest(), sum(path.stat().st_size for path in out.iterdir())


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    # One CPU for the run and its setup probes, so the kernel that rescales
    # a time ran on the same CPU as the work it rescales.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_s = None if trace else measure_setup()
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import fdrthresh.cli as cli
    import tracing
    import workloads

    scratch = ROOT / ".bench_tmp" / f"{name}-{os.getpid()}"
    out = scratch / "out"
    out.mkdir(parents=True)
    tracer = tracing.Tracer() if trace else None
    try:
        wl = workloads.WORKLOADS[name](seed, scratch)
        speed = HostSpeed(wl.kernels)
        argv = wl.args + ["--out", str(out)]
        codes, digests, sizes = [], [], []
        # traced? -> (wall times, rescaled times) of the timed calls
        timed = {False: ([], []), True: ([], [])}

        def call(traced: bool) -> tuple[float, float]:
            if traced:
                tracer.call += 1
                tracer.install()
            try:
                code, elapsed, rescaled = speed.timed(lambda: cli.main(argv))
            finally:
                if traced:
                    tracer.uninstall()
            codes.append(code)
            digest, size = output_digest(out, wl.outputs) if code == 0 else ("", 0)
            digests.append(digest)
            sizes.append(size)
            return elapsed, rescaled

        call(False)  # warm-up: caches, lazy imports, first file creation
        begin = time.perf_counter()
        while True:
            traced = trace and len(codes) % 2 == 0
            elapsed, rescaled = call(traced)
            timed[traced][0].append(elapsed)
            timed[traced][1].append(rescaled)
            # a traced run also needs an untraced call to compare with
            if time.perf_counter() - begin >= seconds and timed[False][0] and timed[trace][0]:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        try:
            problems = wl.check(out) if codes[-1] == 0 else [f"last call exited {codes[-1]}"]
        except (OSError, KeyError, ValueError) as exc:
            problems = [f"outputs unreadable: {exc!r}"]
        failed = sum(c != 0 or d != digests[-1] or bool(problems) for c, d in zip(codes, digests))
        for problem in problems:
            print(f"# check failed: {problem}")

        def rate(traced: bool) -> float:
            return wl.items / interquartile_mean(timed[traced][1])

        wall, rescaled = timed[trace]
        print(f"# workload: {name}  seed: {seed}  seconds: {seconds}  trace: {int(trace)}")
        print(
            f"# host: cores={os.cpu_count()} python={sys.version.split()[0]} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} src_lines={src_lines()}"
        )
        print(f"# operations: attempted={len(codes)} failed={failed}")
        for label, values in (("wall", wall), ("rescaled", rescaled)):
            q = quartiles(values)
            print(
                f"# {label} call_s over {len(values)} timed calls: min={min(values):.4f} "
                f"q1={q[0]:.4f} median={q[1]:.4f} q3={q[2]:.4f} max={max(values):.4f}"
            )
        if trace:
            layer = tracer.layer_metrics()
            layer["trace.overhead_pct"] = 100.0 * (rate(False) - rate(True)) / rate(False)
            units = {**tracing.LAYER_METRICS, "trace.overhead_pct": "%"}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
            spans_path = ROOT / ".bench_out" / f"trace-{name}-seed{seed}.json"
            tracer.write(spans_path)
            print(f"# spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "items_per_s": {"value": rate(False), "unit": "items/s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                "output_bytes": {"value": float(statistics.median(sizes)), "unit": "B"},
            }
        return {"correct": failed == 0, "attempted": len(codes), "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if not (SRC / "fdrthresh" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'fdrthresh'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
