"""Command-line interface.

Subcommands::

    fdrthresh estimate   --config cfg [--out DIR]
    fdrthresh risk-curve --config cfg [--out DIR] [--format F]
    fdrthresh fdr-curve  --config cfg [--out DIR] [--format F]
    fdrthresh experiment --config cfg [--out DIR] [--seed N] [--replicates N]

Configs are flat ``key = value`` text files validated against a typed
schema per subcommand; ``#`` starts a comment.  The selector keys of
``estimate`` and ``experiment`` and their defaults are the fields of
``FdrConfig``.  A run reads only some keys of its schema, by its
experiment kind, curve functional and family (``_READ_BY``), and refuses
any other key that does not hold its default.  Every run writes the fully
resolved configuration, every key of its schema, next to its outputs, so
rerunning with that file reproduces the outputs byte for byte.  A JSON
output writes a non-finite float as its ``repr`` text (``"inf"``), as
``resolved.cfg`` does, never as a bare ``Infinity`` or ``NaN`` token.
The ``--out`` directory is created when the first output is
written, so a run that fails a check before then leaves none behind.
Every output is rewritten in place:
an existing file is overwritten from its start and then cut to the new
length, without truncating it to zero first.  CSV rows are formatted and
written a fixed-size batch at a time, so the whole text of a file is never
held in memory.  A killed run can leave a torn file, as a truncating
rewrite can.  The CLI itself checks only the
config syntax, the keys a run reads, the input file, the curve grid and
the ``allow_hard`` opt-in; every other rule on a value is the library's,
with its message.
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
import locale
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
    optimal_surrogate_level,
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
    """A typed config key; one without a default (``None``) is required."""

    def __init__(self, kind: str, default=None, choices=None):
        self.kind = kind
        self.default = default
        self.choices = choices

    def parse(self, name: str, raw: str):
        # the one empty value is an empty list's, as resolved.cfg writes "weights = "
        if not raw and self.default != ():
            raise ValueError(f"config key {name!r}: empty value")
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
                if raw and not value:
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
    # firm_slope and weight, the fields after kind, with their defaults
    **{f.name: _Key("float", f.default) for f in dataclasses.fields(ThresholdFamily)[1:]},
    "allow_hard": _Key("bool", False),
}

_SCHEMAS: dict[str, dict[str, _Key]] = {
    "estimate": {
        "input": _Key("str"),
        **_FAMILY_KEYS,
        **_SELECTOR_KEYS,
    },
    "risk-curve": {
        "functional": _Key(
            "str", "bayes_risk", choices={"bayes_risk", "surrogate_risk", "fdr_curve"}
        ),
        "atoms": _Key("floats"),
        "weights": _Key("floats", ()),
        "n": _Key("int", 0),
        "level_min": _Key("float", 0.0),
        "level_max": _Key("float", 0.0),
        "points": _Key("int", 256),
        "b0": _Key("float", 4.0),
    },
    "experiment": {
        "kind": _Key("str", choices={"regret", "common_mean", "minimax", "concentration"}),
        "n": _Key("int"),
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

# The keys that only some runs read, each with the experiment kinds, curve
# functionals and families whose runs read it; a run has a family only if it
# reads ``family``.  Every other key of a schema is read by every run of its command.
_SELECTING = {"estimate", "regret", "common_mean", "minimax"}
_READ_BY = {
    **dict.fromkeys(("spike_count", "spike_value"), {"regret", "concentration"}),
    **dict.fromkeys(("p", "radius", "weak"), {"minimax"}),
    "strong": {"regret"}, "mu": {"common_mean"}, "level": {"concentration"},
    "b0": {"surrogate_risk"}, **dict.fromkeys(_SELECTOR_KEYS, _SELECTING),
    "family": {"estimate", "regret", "minimax", "concentration"},
    "allow_hard": {"hard"}, "weight": {"interpolated"},
    "firm_slope": {"firm", "interpolated", "common_mean"},
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
        if not key:
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
        elif key.default is None:
            raise ValueError(f"missing required config key {name!r}")
        else:
            cfg[name] = key.default
    for name, value in overrides.items():
        if value is not None and name in schema:
            cfg[name] = value
    # a key the run does not read is refused unless it holds its default, so every
    # resolved.cfg, which lists every key of its schema, still reruns
    run = cfg.get("kind", command if command == "estimate" else cfg.get("functional", "fdr_curve"))
    family = [cfg["family"]] if run in _READ_BY["family"] else []
    unread = [k for k in _READ_BY if k in cfg and cfg[k] != schema[k].default]
    unread = sorted(k for k in unread if not _READ_BY[k] & {run, *family})
    if unread:
        name = " ".join(dict.fromkeys([command, run, *family]))
        raise ValueError(f"{name} does not read config keys {unread}; leave them out")
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

    The directory of ``path`` is created first if it is missing, so a run
    that fails a check before its first output leaves no directory behind.
    The file is opened (or created) without truncation, written from its
    start and then cut at the end of the new text.  On ext4, truncating a
    file to zero (or renaming over it) and closing it forces a flush of its
    data; an in-place rewrite does not.  Each piece is encoded as
    ``open(path, "w")`` encodes it, in ``locale.getpreferredencoding(False)``
    with no newline translation on POSIX, and written through a binary file
    object, without the text layer.  ``pieces`` is consumed lazily, so a
    caller can form each piece only when it is due to be written.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {path.parent}: {exc}")
    encoding = locale.getpreferredencoding(False)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        for piece in pieces:
            fh.write(piece.encode(encoding))
        fh.truncate()


def _write_resolved(cfg: dict, out_dir: Path) -> None:
    _rewrite(out_dir / "resolved.cfg", (f"{k} = {_format_value(cfg[k])}\n" for k in sorted(cfg)))


def _write_csv(path: Path, schema: str, batches) -> None:
    """Write ``batches``, nonempty lists of formatted lines, under a schema comment.

    Each batch is joined and written in turn, so a caller that forms its
    batches lazily never holds the whole text of the file at once.
    """
    pieces = itertools.chain([f"# schema: {schema}\n"], ("\n".join(b) + "\n" for b in batches))
    _rewrite(path, pieces)


def _slices(*columns):
    """Yield ``(start, rows)`` for each ``_BATCH`` rows of the equal-length arrays
    ``columns``; ``rows`` zips their ``tolist()`` slices, so no whole column is listed."""
    for start in range(0, len(columns[0]), _BATCH):
        yield start, zip(*(column[start:start + _BATCH].tolist() for column in columns))


def _strict(value):
    """``value`` with each non-finite float as its ``repr`` text, as ``resolved.cfg`` has it."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return repr(float(value)) if isinstance(value, float) and not math.isfinite(value) else value


def _write_json(path: Path, cfg: dict, extra: dict) -> None:
    """Write strict JSON: no bare ``NaN`` or ``Infinity`` token."""
    meta = {"package_version": __version__, "config": {k: cfg[k] for k in sorted(cfg)}}
    text = json.dumps(_strict({**meta, **extra}), indent=2, sort_keys=True, allow_nan=False)
    _rewrite(path, (text, "\n"))


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
    batches = (
        [f"{i},{a!r},{b!r}" for i, (a, b) in enumerate(rows, start)]
        for start, rows in _slices(x, est)
    )
    _write_csv(out_dir / "estimate.csv", "index:int,observation:float,estimate:float", batches)
    _write_json(out_dir / "estimate.json", cfg, report.to_dict())


def cmd_risk_curve(cfg: dict, out_dir: Path, fmt: str) -> None:
    # n = 0 (the default) sizes the prior by its atoms
    prior = EmpiricalPrior.from_atoms(cfg["atoms"], cfg["weights"] or None, cfg["n"] or None)
    functional = cfg.get("functional", "fdr_curve")  # fdr-curve's schema has no functional
    # level_max = 0 (the default) means the prior's default; any other value is checked
    level_max = cfg["level_max"] if cfg["level_max"] != 0.0 else prior.default_level_max
    # past sqrt(float max), about 1.34e154, level_max squares to inf and a risk reads NaN
    if not (0.0 <= cfg["level_min"] < level_max and level_max * level_max < math.inf):
        raise ValueError("need 0 <= level_min < level_max and level_max**2 < inf")
    if cfg["points"] < 2:
        raise ValueError("points must be >= 2")
    levels = np.linspace(cfg["level_min"], level_max, cfg["points"])
    optimum = None  # the minimizer of the drawn risk, for the SVG's marker
    if functional == "bayes_risk":
        values = bayes_soft_risk(prior, levels)
        optimum = lambda: optimal_levels(prior, level_max=level_max)
    elif functional == "surrogate_risk":
        values = surrogate_risk(prior, levels, cfg["b0"])
        optimum = lambda: optimal_surrogate_level(prior, cfg["b0"], level_max=level_max)
    else:
        values = fdr_curve(prior, levels)
    batches = ([f"{l!r},{v!r}" for l, v in rows] for _, rows in _slices(levels, values))
    _write_csv(out_dir / "curve.csv", "level:float,value:float", batches)
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
        svg = svg_line_chart(functional, levels, values, optimum()[0] if optimum else math.inf)
        _rewrite(out_dir / "curve.svg", (svg, "\n"))


def cmd_experiment(cfg: dict, out_dir: Path) -> None:
    kind = cfg["kind"]
    sel = FdrConfig(**{k: cfg[k] for k in _SELECTOR_KEYS}) if kind in _SELECTING else None
    family = _family(cfg) if kind in _READ_BY["family"] else None
    if kind in ("regret", "concentration"):
        theta = spikes(cfg["n"], cfg["spike_count"], cfg["spike_value"])
    if kind == "regret":
        rep = regret_experiment(
            theta, cfg["replicates"], cfg["seed"], sel, family, strong=cfg["strong"]
        )
    elif kind == "common_mean":
        rep = common_mean_experiment(
            cfg["n"], cfg["mu"], cfg["replicates"], cfg["seed"], sel, cfg["firm_slope"]
        )
    elif kind == "minimax":
        rep = minimax_ball_experiment(
            cfg["n"], cfg["p"], cfg["radius"], cfg["replicates"], cfg["seed"], sel, family,
            weak=cfg["weak"],
        )
    else:  # concentration
        rep = concentration_check(theta, cfg["level"], family, cfg["replicates"], cfg["seed"])
    # the report's fields are the metric rows, in order, then its fingerprint
    results = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)[:-1]}
    results["seed"] = cfg["seed"]
    rows = {k: _format_value(v) for k, v in results.items() if v is not None}
    _write_csv(out_dir / "experiment.csv", "metric:str,value:str", [[*map(",".join, rows.items())]])
    extra = {"kind": kind, "fingerprint": rep.config_fingerprint, "results": rows}
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
        if args.command == "estimate":
            cmd_estimate(cfg, out_dir)
        elif args.command == "experiment":
            cmd_experiment(cfg, out_dir)
        else:
            cmd_risk_curve(cfg, out_dir, args.format)
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
