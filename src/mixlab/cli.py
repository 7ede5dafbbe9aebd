"""Command-line front end.

    mixlab <subcommand> --config <path> --seed <u64> --out <dir> [--threads <n>] [--svg]

Config files are UTF-8 text, one ``key = value`` per line, ``#`` comments;
unknown keys are rejected.  Every run but ``classify`` writes
``<subcommand>.csv`` (LF line endings, ``#`` preamble with the resolved
configuration, 9-significant-digit numbers); every run writes
``<subcommand>_manifest.json``, and ``classify`` only that and its printed
line.  Identical config and seed give byte-identical CSVs regardless of
``--threads``.

Exit codes: 0 success, 2 configuration error, 3 run-end check failed,
4 numerical divergence.  No subcommand exits 4 today: only the tempered
Euler-Maruyama chain (``TemperedLangevin.sample_endpoints`` and
``sample_projection_norms``) raises ``DivergenceError``, and no subcommand
runs it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .errors import ConfigError, DivergenceError, DomainError, StructuralError
from .experiments import (
    ExperimentResult,
    run_classify,
    run_cutoff,
    run_ks_sweep,
    run_lowerbound,
    run_quantile_table,
    run_validate,
)
from .measures import MODE_KINDS


@dataclass(frozen=True)
class Key:
    kind: str  # int | float | str | floats | ints
    default: object = None  # None means required
    within: str | None = None  # interval such as "(0, 2]" or "[1, inf)", checked per element
    choices: tuple | None = None


_DATA_KEYS = {
    "d": Key("int", within="[1, inf)"),
    # R and bulk_scale end at 1e150, which keeps |x|^2 of a mode or bulk point finite
    "R": Key("float", within="(2, 1e150]"),
    "delta": Key("float", within="(0, 1)"),
    "eps": Key("float", within="(0, 1)"),
    "b_rho": Key("float", default=0.5, within="(0, 1]"),
    "bulk_scale": Key("float", default=0.0, within="[0, 1e150]"),  # 0 selects the built-in default
    "mode_kind": Key("str", default=MODE_KINDS[0], choices=MODE_KINDS),
}

_PROCESS_KEYS = {
    "process": Key("str", default="ou", choices=("ou", "tempered")),
    "mu": Key("float", default=1.0, within="(0, inf)"),
    "k": Key("int", default=3, within="[3, inf)"),
    "profile_a": Key("float", default=1.0, within="(0, inf)"),
    "profile_p": Key("float", default=1.0, within="(0, 2]"),
    "ell": Key("float", default=0.0, within="[0, inf)"),
}

SCHEMAS: dict[str, dict[str, Key]] = {
    "cutoff": {
        **_DATA_KEYS,
        "mu": Key("float", default=1.0, within="(0, inf)"),
        "n": Key("int", default=100_000, within="[100, inf)"),
        "times": Key("floats", default=(), within="[0, inf)"),
    },
    "lowerbound": {
        **_DATA_KEYS,
        **_PROCESS_KEYS,
        # n and rk_n are accepted and ignored, with no range to fail: every term
        # and r_k are computed exactly; perfbench/workloads.py still writes both
        "n": Key("int", default=100_000),
        "times": Key("floats", default=(), within="[0, inf)"),
        "rk_n": Key("int", default=300_000),
    },
    "quantile-table": {
        "p_list": Key("floats", default=(1.0, 1.2, 1.4, 1.6, 1.8), within="(0, 2]"),
        "d_list": Key("ints", default=(3, 30, 300, 3000), within="[1, inf)"),
        "eps": Key("float", default=0.1, within="(0, 1)"),
        "a": Key("float", default=1.0, within="(0, inf)"),
        "k": Key("int", default=3, within="[3, inf)"),
    },
    "ks-sweep": {
        "d": Key("int", within="[1, inf)"),
        # 0 starts at stationarity; the end 1e150 keeps R sqrt(mu) finite
        "R": Key("float", within="[0, 1e150]"),
        "mu": Key("float", default=1.0, within="(0, inf)"),
        "eps": Key("float", default=0.1, within="(0, 1)"),
        "reps": Key("int", default=20, within="[1, inf)"),
        "times": Key("floats", default=(), within="[0, inf)"),
    },
    "classify": {
        "p": Key("float", within="(0, inf)"),
        "ell": Key("float", default=0.0, within="[0, inf)"),
    },
    "validate": {
        **_DATA_KEYS,
        **_PROCESS_KEYS,
        # n_points is accepted and ignored, with no range to fail: the process
        # probes read a fixed grid; perfbench/workloads.py still writes it
        "n_points": Key("int", default=10_000),
        "beta": Key("float", default=0.0, within="[0, 1]"),
    },
}

RUNNERS = {
    "cutoff": run_cutoff,
    "lowerbound": run_lowerbound,
    "quantile-table": run_quantile_table,
    "ks-sweep": run_ks_sweep,
    "classify": run_classify,
    "validate": run_validate,
}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read ``key = value`` lines; reject unreadable files, duplicates and malformed lines."""
    raw: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        raw[key] = value.strip()
    return raw


def _parse_value(key: str, spec: Key, text: str):
    try:
        if spec.kind == "int":
            val = int(text)
        elif spec.kind == "float":
            val = float(text)
        elif spec.kind == "floats":
            val = tuple(float(s) for s in text.split(",") if s.strip())
        elif spec.kind == "ints":
            val = tuple(int(s) for s in text.split(",") if s.strip())
        else:
            val = text
    except ValueError as exc:
        raise ConfigError(f"key '{key}': cannot parse {text!r} as {spec.kind}") from exc
    items = val if isinstance(val, tuple) else (val,)
    if spec.kind in ("float", "floats") and not all(math.isfinite(v) for v in items):
        raise ConfigError(f"key '{key}': {text!r} is not a finite number")
    if spec.choices is not None and val not in spec.choices:
        raise ConfigError(f"key '{key}': {val!r} not one of {spec.choices}")
    if spec.within is not None:
        lo, hi = (float(end) for end in spec.within[1:-1].split(","))
        for v in items:
            if v < lo or (v == lo and spec.within[0] == "("):
                raise ConfigError(f"key '{key}': {v} below minimum of {spec.within}")
            if v > hi or (v == hi and spec.within[-1] == ")"):
                raise ConfigError(f"key '{key}': {v} above maximum of {spec.within}")
    return val


def resolve_config(subcommand: str, raw: dict[str, str]) -> dict:
    schema = SCHEMAS[subcommand]
    cfg = {}
    for key, text in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown configuration key '{key}' for {subcommand}")
        cfg[key] = _parse_value(key, schema[key], text)
    for key, spec in schema.items():
        if key not in cfg:
            if spec.default is None:
                raise ConfigError(f"missing required configuration key '{key}'")
            cfg[key] = spec.default
    return cfg


def format_number(v) -> str:
    """Fixed 9-significant-digit formatting; empty string for missing values."""
    if v is None:
        return ""
    if isinstance(v, int):
        return str(v)
    f = float(v)
    if f == 0.0:
        f = 0.0  # normalize -0.0
    return format(f, ".9g")


def _echo_value(v) -> str:
    if isinstance(v, tuple):
        return ",".join(format_number(x) for x in v)
    if isinstance(v, str):
        return v
    return format_number(v)


def csv_preamble(subcommand: str, seed: int, cfg: dict) -> list[str]:
    lines = [f"tool = mixlab {__version__}", f"subcommand = {subcommand}", f"seed = {seed}"]
    for key in sorted(cfg):
        lines.append(f"config.{key} = {_echo_value(cfg[key])}")
    return lines


def write_csv(path: Path, result: ExperimentResult, preamble: list[str]) -> None:
    out = []
    for line in preamble:
        out.append(f"# {line}")
    out.append(",".join(result.columns))
    for row in result.rows:
        cells = []
        for col in result.columns:
            v = row.get(col)
            cells.append(v if isinstance(v, str) else format_number(v))
        out.append(",".join(cells))
    path.write_text("\n".join(out) + "\n", encoding="utf-8", newline="\n")


def svg_line_chart(chart: dict) -> str:
    """Minimal self-contained SVG line chart (no external renderer)."""
    width, height, margin = 720, 440, 60.0
    xs = [float(v) for v in chart["x"]]
    all_y = [float(v) for ys in chart["series"].values() for v in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="24" text-anchor="middle" font-size="16">{chart["title"]}</text>',
        f'<line x1="{margin}" y1="{height-margin}" x2="{width-margin}" y2="{height-margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height-margin}" stroke="black"/>',
    ]
    for i in range(5):
        xt = x_lo + i * (x_hi - x_lo) / 4
        yt = y_lo + i * (y_hi - y_lo) / 4
        parts.append(
            f'<text x="{px(xt):.1f}" y="{height-margin+18:.1f}" text-anchor="middle" '
            f'font-size="11">{format(xt, ".4g")}</text>'
        )
        parts.append(
            f'<text x="{margin-8:.1f}" y="{py(yt)+4:.1f}" text-anchor="end" '
            f'font-size="11">{format(yt, ".4g")}</text>'
        )
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    for ci, (label, ys) in enumerate(chart["series"].items()):
        pts = " ".join(f"{px(x):.2f},{py(float(y)):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{colors[ci % 4]}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width-margin:.1f}" y="{margin+16*ci:.1f}" text-anchor="end" '
            f'font-size="12" fill="{colors[ci % 4]}">{label}</text>'
        )
    parts.append(
        f'<text x="{width/2:.1f}" y="{height-12}" text-anchor="middle" font-size="12">{chart["xlabel"]}</text>'
    )
    parts.append(f'<text x="16" y="{height/2:.1f}" font-size="12">{chart["ylabel"]}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _seed(text: str) -> int:
    """``--seed`` values: integers in [0, 2^64)."""
    try:
        val = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if not 0 <= val < 2 ** 64:
        raise argparse.ArgumentTypeError(f"{val} outside [0, 2^64)")
    return val


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and each build leaves about 300 objects in reference cycles
    for the garbage collector, which an in-process caller such as
    ``perfbench/run.py`` would pile up call after call."""
    parser = argparse.ArgumentParser(
        prog="mixlab",
        description="Forward-diffusion mixing laboratory: cut-off curves, TV bounds, "
                    "quantile tables, KS sweeps, admissibility validation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in RUNNERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="key = value configuration file")
        sp.add_argument("--seed", type=_seed, default=0, help="master seed in [0, 2^64) (default 0)")
        sp.add_argument("--out", default=".", help="output directory (default .)")
        sp.add_argument("--threads", type=int, default=1, help="worker threads (default 1)")
        sp.add_argument("--svg", action="store_true", help="also emit a line chart")
    return parser


@contextmanager
def _os_error_as_config_error(what: str):
    """Re-raise an ``OSError`` as a ``ConfigError`` saying what could not be done."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _run(args) -> int:
    t0 = time.perf_counter()
    cfg = resolve_config(args.subcommand, parse_config_file(args.config))
    out_dir = Path(args.out)
    with _os_error_as_config_error(f"cannot create output directory {out_dir}"):
        out_dir.mkdir(parents=True, exist_ok=True)
    result = RUNNERS[args.subcommand](cfg, args.seed, args.threads)
    written = []

    def write(name: str, emit) -> None:
        path = out_dir / name
        with _os_error_as_config_error(f"cannot write {path}"):
            emit(path)
        written.append(path)

    try:
        if args.subcommand != "classify":
            write(f"{args.subcommand}.csv", lambda path: write_csv(
                path, result, csv_preamble(args.subcommand, args.seed, cfg)))
            if args.svg and result.chart is not None:
                write(f"{args.subcommand}.svg", lambda path: path.write_text(
                    svg_line_chart(result.chart), encoding="utf-8", newline="\n"))
        manifest = {
            "tool": "mixlab",
            "version": __version__,
            "subcommand": args.subcommand,
            "seed": args.seed,
            "threads": args.threads,
            "config": {k: (_echo_value(v) if isinstance(v, tuple) else v)
                       for k, v in cfg.items()},
            "duration_seconds": time.perf_counter() - t0,
            "outputs": [path.name for path in written],
        }
        write(f"{args.subcommand}_manifest.json", lambda path: path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"))
    except ConfigError:
        # a failed run leaves none of the outputs it wrote
        for path in written:
            with suppress(OSError):
                path.unlink()
        raise
    if args.subcommand == "classify":
        print(result.info["line"])
    for path in written[:-1]:  # every output but the manifest, which is last
        print(f"wrote {path}")
    for check in result.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: value = {format_number(check.value)} "
              f"{check.relation} {format_number(check.threshold)}")
    return 0 if result.passed else 3


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (StructuralError, DomainError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
