"""Command-line interface.

Subcommands::

    fdrthresh estimate   --config cfg [--out DIR]
    fdrthresh risk-curve --config cfg [--out DIR] [--format F]
    fdrthresh fdr-curve  --config cfg [--out DIR] [--format F]
    fdrthresh experiment --config cfg [--out DIR] [--seed N] [--replicates N]

Configs are flat ``key = value`` text files validated against a typed
schema per subcommand; ``#`` starts a comment.  The selector keys of
``estimate`` and ``experiment`` and their defaults are the fields of
``FdrConfig``.  Every run writes the fully resolved configuration next to
its outputs, so rerunning with that file reproduces the outputs byte for
byte.  Every output is rewritten in place:
an existing file is overwritten from its start and then cut to the new
length, without truncating it to zero first.  CSV rows are formatted and
written a fixed-size batch at a time, so the whole text of a file is never
held in memory.  A killed run can leave a torn file, as a truncating
rewrite can.  The CLI itself checks only the
config syntax, the input file, the curve grid and the ``allow_hard``
opt-in; every other rule on a value is the library's, with its message.
Exit codes: 0 success; 2 for any ``ValueError``, whether from the config,
the input file or a library argument check; 3 for any other failure.  The
CLI has no error type of its own: its checks raise ``ValueError`` too.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .estimators import fdr_threshold_estimate, read_vector
from .risk import (
    EmpiricalPrior,
    bayes_soft_risk,
    fdr_curve,
    optimal_levels,
    surrogate_risk,
)
from .selector import FdrConfig
from .simulate import (
    common_mean_experiment,
    concentration_check,
    minimax_ball_experiment,
    regret_experiment,
    spikes,
)
from .svgplot import svg_line_chart
from .thresholds import ThresholdFamily

__all__ = ["main"]


# ---------------------------------------------------------------------------
# config schema machinery

class _Key:
    def __init__(self, kind: str, default=None, required: bool = False, choices=None):
        self.kind = kind
        self.default = default
        self.required = required
        self.choices = choices

    def parse(self, name: str, raw: str):
        try:
            if self.kind == "int":
                value = int(raw)
            elif self.kind == "float":
                value = float(raw)
            elif self.kind == "bool":
                low = raw.lower()
                if low in ("true", "yes", "1"):
                    value = True
                elif low in ("false", "no", "0"):
                    value = False
                else:
                    raise ValueError
            elif self.kind == "floats":
                value = tuple(float(part) for part in raw.split(",") if part.strip())
                if not value:
                    raise ValueError
            else:
                value = raw
        except ValueError:
            raise ValueError(f"config key {name!r}: cannot parse {raw!r} as {self.kind}")
        if self.choices is not None and value not in self.choices:
            raise ValueError(
                f"config key {name!r}: {value!r} not one of {sorted(self.choices)}"
            )
        return value


_SELECTOR_KEYS = {f.name: _Key("float", f.default) for f in dataclasses.fields(FdrConfig)}

_FAMILY_KEYS = {
    "family": _Key("str", "soft", choices={"soft", "hard", "firm", "interpolated"}),
    "firm_slope": _Key("float", 1.5),
    "weight": _Key("float", 0.5),
    "allow_hard": _Key("bool", False),
}

_SCHEMAS: dict[str, dict[str, _Key]] = {
    "estimate": {
        "input": _Key("str", required=True),
        **_FAMILY_KEYS,
        **_SELECTOR_KEYS,
    },
    "risk-curve": {
        "functional": _Key(
            "str", "bayes_risk", choices={"bayes_risk", "surrogate_risk", "fdr_curve"}
        ),
        "atoms": _Key("floats", required=True),
        "weights": _Key("floats", ()),
        "n": _Key("int", 0),
        "level_min": _Key("float", 0.0),
        "level_max": _Key("float", 0.0),
        "points": _Key("int", 256),
        "b0": _Key("float", 4.0),
    },
    "experiment": {
        "kind": _Key(
            "str",
            required=True,
            choices={"regret", "common_mean", "minimax", "concentration"},
        ),
        "n": _Key("int", required=True),
        "replicates": _Key("int", 1000),
        "seed": _Key("int", 0),
        "mu": _Key("float", 0.0),
        "spike_count": _Key("int", 0),
        "spike_value": _Key("float", 0.0),
        "p": _Key("float", 0.0),
        "radius": _Key("float", 0.0),
        "weak": _Key("bool", False),
        "level": _Key("float", 1.0),
        "strong": _Key("bool", False),
        **_FAMILY_KEYS,
        **_SELECTOR_KEYS,
    },
}
_SCHEMAS["fdr-curve"] = {
    k: v for k, v in _SCHEMAS["risk-curve"].items() if k not in ("functional", "b0")
}


def _parse_config_text(text: str, path: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        if key in raw:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _resolve_config(command: str, path: str, overrides: dict) -> dict:
    schema = _SCHEMAS[command]
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}")
    raw = _parse_config_text(text, path)
    unknown = set(raw) - set(schema)
    if unknown:
        raise ValueError(f"unknown config keys for {command}: {sorted(unknown)}")
    cfg = {}
    for name, key in schema.items():
        if name in raw:
            cfg[name] = key.parse(name, raw[name])
        elif key.required:
            raise ValueError(f"missing required config key {name!r}")
        else:
            cfg[name] = key.default
    for name, value in overrides.items():
        if value is not None and name in schema:
            cfg[name] = value
    return cfg


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# CSV lines formatted, joined and written at a time
_BATCH = 2**14


def _rewrite(path: Path, pieces) -> None:
    """Write the text ``pieces`` to ``path`` one after another, in place.

    The file is opened (or created) without truncation, written from its
    start in the default text mode and encoding of ``open(path, "w")``, and
    then cut at the end of the new text.  On ext4, truncating a file to
    zero (or renaming over it) and closing it forces a flush of its data;
    an in-place rewrite does not.  ``pieces`` is consumed lazily, so a
    caller can form each piece only when it is due to be written.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        fh.writelines(pieces)
        fh.truncate()


def _write_resolved(cfg: dict, out_dir: Path) -> None:
    _rewrite(out_dir / "resolved.cfg", (f"{k} = {_format_value(cfg[k])}\n" for k in sorted(cfg)))


def _write_csv(path: Path, schema: str, lines) -> None:
    """Write already formatted ``lines`` under a schema comment.

    The lines are joined and written ``_BATCH`` at a time, so the whole
    text of the file is never held at once.
    """
    lines = iter(lines)
    batches = iter(lambda: list(itertools.islice(lines, _BATCH)), [])
    pieces = itertools.chain([f"# schema: {schema}\n"], ("\n".join(b) + "\n" for b in batches))
    _rewrite(path, pieces)


def _write_json(path: Path, cfg: dict, extra: dict) -> None:
    meta = {"package_version": __version__, "config": {k: cfg[k] for k in sorted(cfg)}}
    _rewrite(path, (json.dumps({**meta, **extra}, indent=2, sort_keys=True), "\n"))


def _family(cfg: dict) -> ThresholdFamily:
    """The configured family; ``hard`` only with ``allow_hard = true``."""
    if cfg["family"] == "hard" and not cfg["allow_hard"]:
        raise ValueError("family = hard requires allow_hard = true")
    return ThresholdFamily(cfg["family"], cfg["firm_slope"], cfg["weight"])


# ---------------------------------------------------------------------------
# subcommands

def cmd_estimate(cfg: dict, out_dir: Path) -> None:
    try:
        x = read_vector(cfg["input"])
    except OSError as exc:
        raise ValueError(str(exc))
    if not np.isfinite(x).all():
        raise ValueError(f"input {cfg['input']}: every value must be finite")
    sel = FdrConfig(**{k: cfg[k] for k in _SELECTOR_KEYS})
    family = _family(cfg)
    report = fdr_threshold_estimate(x, family, sel, allow_hard=cfg["allow_hard"])
    est = report.estimate
    rows = (  # from one batch's ``tolist()`` slices at a time, never the whole vector's
        f"{i},{a!r},{b!r}"
        for start in range(0, x.size, _BATCH)
        for i, (a, b) in enumerate(
            zip(x[start:start + _BATCH].tolist(), est[start:start + _BATCH].tolist()), start
        )
    )
    _write_csv(out_dir / "estimate.csv", "index:int,observation:float,estimate:float", rows)
    _write_json(out_dir / "estimate.json", cfg, report.to_dict())


def cmd_risk_curve(cfg: dict, out_dir: Path, fmt: str, functional: str | None = None) -> None:
    # n = 0 (the default) sizes the prior by its atoms
    prior = EmpiricalPrior.from_atoms(cfg["atoms"], cfg["weights"] or None, cfg["n"] or None)
    functional = functional or cfg.get("functional", "bayes_risk")
    level_max = cfg["level_max"] if cfg["level_max"] > 0.0 else prior.default_level_max
    if not (cfg["level_min"] >= 0.0 and level_max > cfg["level_min"] and math.isfinite(level_max)):
        raise ValueError("need 0 <= level_min < level_max < inf")
    if cfg["points"] < 2:
        raise ValueError("points must be >= 2")
    levels = np.linspace(cfg["level_min"], level_max, cfg["points"])
    vlines = []
    if functional == "bayes_risk":
        values = bayes_soft_risk(prior, levels)
        opt = optimal_levels(prior, level_max=level_max)
        if math.isfinite(opt.level_exact):
            vlines.append((opt.level_exact, "optimal"))
    elif functional == "surrogate_risk":
        values = surrogate_risk(prior, levels, cfg["b0"])
        opt = optimal_levels(prior, b0=cfg["b0"], level_max=level_max)
        if math.isfinite(opt.level_surrogate):
            vlines.append((opt.level_surrogate, "optimal"))
    else:
        values = fdr_curve(prior, levels)
    _write_csv(
        out_dir / "curve.csv",
        "level:float,value:float",
        (f"{float(l)!r},{float(v)!r}" for l, v in zip(levels, values)),
    )
    if fmt == "json":
        _write_json(
            out_dir / "curve.json",
            cfg,
            {
                "functional": functional,
                "levels": [float(l) for l in levels],
                "values": [float(v) for v in values],
            },
        )
    elif fmt == "svg":
        svg = svg_line_chart(functional, levels, values, vlines)
        _rewrite(out_dir / "curve.svg", (svg, "\n"))


def cmd_experiment(cfg: dict, out_dir: Path) -> None:
    kind = cfg["kind"]
    sel = FdrConfig(**{k: cfg[k] for k in _SELECTOR_KEYS})
    family = _family(cfg)
    if kind in ("regret", "concentration"):
        theta = spikes(cfg["n"], cfg["spike_count"], cfg["spike_value"])
    if kind == "regret":
        rep = regret_experiment(
            theta, cfg["replicates"], cfg["seed"], sel, family, strong=cfg["strong"]
        )
        results = {
            "mc_risk": rep.mc.mean, "mc_se": rep.mc.std_error, "exact_total": rep.exact_total,
            "regret": rep.regret, "ratio": rep.ratio, "degenerate": rep.degenerate,
        }
        if rep.oracle_mc is not None:
            results.update(
                oracle_risk=rep.oracle_mc.mean,
                oracle_se=rep.oracle_mc.std_error,
                oracle_ratio=rep.oracle_ratio,
            )
    elif kind == "common_mean":
        rep = common_mean_experiment(
            cfg["n"], cfg["mu"], cfg["replicates"], cfg["seed"], sel, cfg["firm_slope"]
        )
        results = {}
        for label, mean, se in rep.rows:
            results.update({f"{label}_risk": mean, f"{label}_se": se})
        results["exact_total"] = rep.exact_total
    elif kind == "minimax":
        rep = minimax_ball_experiment(
            cfg["n"], cfg["p"], cfg["radius"], cfg["replicates"], cfg["seed"], sel, family,
            weak=cfg["weak"],
        )
        results = {
            "mc_risk": rep.mc.mean, "mc_se": rep.mc.std_error, "benchmark": rep.benchmark,
            "ratio": rep.ratio, "level": rep.level,
        }
    else:  # concentration
        rep = concentration_check(theta, cfg["level"], family, cfg["replicates"], cfg["seed"])
        results = {
            "variance": rep.variance, "bound": rep.bound, "se_variance": rep.se_variance,
            "passed": rep.passed,
        }
    results["seed"] = cfg["seed"]
    rows = {k: _format_value(v) for k, v in results.items()}
    _write_csv(out_dir / "experiment.csv", "metric:str,value:str", map(",".join, rows.items()))
    # regret and minimax reports carry their fingerprint in their McEstimate
    fingerprint = getattr(rep, "mc", rep).config_fingerprint
    extra = {"kind": kind, "fingerprint": fingerprint, "results": rows}
    _write_json(out_dir / "experiment.json", cfg, extra)


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every later one."""
    parser = argparse.ArgumentParser(
        prog="fdrthresh",
        description="Adaptive threshold estimation of Gaussian mean vectors",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("estimate", "risk-curve", "fdr-curve", "experiment"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--out", default=".", help="output directory (created if needed)")
        if name == "experiment":
            p.add_argument("--seed", type=int, help="override config seed")
            p.add_argument("--replicates", type=int, help="override config replicates")
        elif name in ("risk-curve", "fdr-curve"):
            p.add_argument(
                "--format", choices=("csv", "json", "svg"), default="csv", help="output format"
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {k: getattr(args, k, None) for k in ("seed", "replicates")}
    try:
        cfg = _resolve_config(args.command, args.config, overrides)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot create output directory {out_dir}: {exc}")
        if args.command == "estimate":
            cmd_estimate(cfg, out_dir)
        elif args.command == "risk-curve":
            cmd_risk_curve(cfg, out_dir, args.format)
        elif args.command == "fdr-curve":
            cmd_risk_curve(cfg, out_dir, args.format, functional="fdr_curve")
        else:
            cmd_experiment(cfg, out_dir)
        _write_resolved(cfg, out_dir)
    except ValueError as exc:  # a config, input-file or library argument check
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
