"""Command line interface: batch commands over CSV files.

Subcommands
-----------
forward      sample a built-in source (or read one) and write (x, f, g)
simulate     forward data plus one seeded noise draw, write (x, g, g_delta)
invert       read measurements, write (x, f_estimate)
sweep        run a mu sweep from a config file, write the summary CSV
figures      write the five demonstration CSVs and their gnuplot scripts
dump-config  print the effective default configuration

Exit codes: 0 success, 1 validation error, 2 I/O error.  Errors are single
lines on stderr of the form `sourcefft: error: <message>`, and warnings
(such as a noise level above the smoothness bound) single lines
`sourcefft: warning: <message>`.  `invert --rule` reports the mu it chose
on one line `sourcefft: rule: p=<p> delta=<delta> E=<E> mu=<mu> bound=<b>`.

Config files are flat `key = value` text; `#` starts a comment.  Lists are
comma separated; `mus` additionally accepts `start:stop:count` (uniform
spacing, endpoints included) or the word `rule`.  Unknown keys are errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
import warnings
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ._floatfmt import parse_rows
from .experiments import (
    RULE_MUS,
    SweepConfig,
    _SUMMARY_HEADER,
    _summary_columns,
    _summary_rows,
    default_mu_grid,
    reproduce_figures,
    write_csv,
)
from .inversion import (
    _zero_mean,
    error_bound,
    estimate_source_regularized,
    select_mu,
    solve_forward,
)
from .noise_lab import NOISE_MODES, NoiseSpec, add_noise
from .source_models import cosine_source, exact_data, hat_source, sample_source
from .spectral_core import Grid, RealSignal, make_grid

__all__ = ["RunConfig", "parse_config", "serialize_config", "main", "entry"]


class CliError(Exception):
    """Validation problem in flags, config, or input data (exit code 1)."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Everything a sweep or figures run needs, with serializable defaults."""

    n: int = 256
    x_min: float = 0.0
    x_max: float = 2.0 * math.pi
    source: str = "cosine"
    hat_center: float = math.pi
    hat_half_width: float = 1.0
    hat_height: float = 1.0
    deltas: tuple = (0.015, 0.05, 0.1)
    mus: Union[tuple, str] = dataclasses.field(default_factory=default_mu_grid)
    p_values: tuple = (1.0, 2.0)
    replicates: int = 20
    base_seed: int = 42
    noise_mode: str = "iid"
    out: str = "figures"

    def source_spec(self):
        """The built-in source named by source.

        Also called as RunConfig.source_spec(args) on parsed command line
        flags, which carry the same four source fields.
        """
        if self.source == "cosine":
            return cosine_source()
        if self.source == "hat":
            return hat_source(self.hat_center, self.hat_half_width, self.hat_height)
        raise CliError(f"unknown source {self.source!r} (expected cosine or hat)")

    def to_sweep_config(self) -> SweepConfig:
        return SweepConfig(
            source=self.source_spec(),
            grid=make_grid(self.n, self.x_min, self.x_max),
            deltas=self.deltas,
            mus=self.mus,
            p_values=self.p_values,
            replicates=self.replicates,
            base_seed=self.base_seed,
            noise_mode=self.noise_mode,
        )


def _parse_float_list(text: str) -> tuple:
    items = [part.strip() for part in text.split(",")]
    if items == [""]:
        return ()
    try:
        return tuple(float(part) for part in items)
    except ValueError:
        raise CliError(f"expected a comma-separated list of numbers, got {text!r}")


def _parse_mus(text: str) -> Union[tuple, str]:
    text = text.strip()
    if text == RULE_MUS:
        return RULE_MUS
    if ":" in text:
        try:
            start, stop, count = text.split(":")
            start, stop, count = float(start), float(stop), int(count)
        except ValueError:
            raise CliError(f"range form must be start:stop:count, got {text!r}")
        if count < 1:
            raise CliError(f"range count must be >= 1, got {count}")
        if not math.isfinite(stop - start):
            raise CliError(f"range endpoints must be finite, got {text!r}")
        return tuple(float(v) for v in np.linspace(start, stop, count))
    return _parse_float_list(text)


def _parse_noise_mode(text: str) -> str:
    """A noise mode, spelled with hyphens or underscores."""
    mode = text.strip().replace("-", "_")
    if mode not in NOISE_MODES:
        raise CliError(
            f"noise mode must be one of {NOISE_MODES}, got {text.strip()!r}"
        )
    return mode


_CONFIG_PARSERS = {
    "n": int,
    "x_min": float,
    "x_max": float,
    "source": lambda s: s.strip(),
    "hat_center": float,
    "hat_half_width": float,
    "hat_height": float,
    "deltas": _parse_float_list,
    "mus": _parse_mus,
    "p_values": _parse_float_list,
    "replicates": int,
    "base_seed": int,
    "noise_mode": _parse_noise_mode,
    "out": lambda s: s.strip(),
}


def parse_config(text: str) -> RunConfig:
    """Parse flat key=value config text; unknown or repeated keys are errors."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_PARSERS:
            raise CliError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise CliError(f"config line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](val)
        except (TypeError, ValueError) as exc:
            raise CliError(f"config line {lineno}: bad value for {key}: {exc}")
    return RunConfig(**values)


def _serialize_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    lines = [
        f"{field.name} = {_serialize_value(getattr(cfg, field.name))}"
        for field in dataclasses.fields(cfg)
    ]
    return "\n".join(lines) + "\n"


def _load_config(path: Optional[str]) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        return parse_config(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, CliError) as exc:
        raise CliError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# CSV I/O

def _emit_csv(out_path: Optional[str], header, columns) -> None:
    write_csv(sys.stdout if out_path is None else out_path, header, columns)


def _read_csv_columns(path: str):
    """The columns of a CSV of numbers, by header name.

    Text as write_csv writes it goes through the vectorized reader
    (_floatfmt.parse_rows), anything else, or anything it declines, through
    np.loadtxt; the values are the same either way.
    """
    data = None
    # Only a regular file can be read twice (parse_rows seeks back to count
    # the lines) and reopened; a pipe goes to np.loadtxt alone.
    if Path(path).is_file():
        with open(path, "rb") as fh:
            first = fh.readline()
            # The text reader below ends a line at a CR as well.
            if b"\r" not in first:
                try:
                    header = _csv_header(first.decode("utf-8"))
                except UnicodeDecodeError:
                    pass
                else:
                    data = parse_rows(fh, len(header))
    if data is None:
        header, data = _load_csv_text(path)
    return {name: data[:, idx] for idx, name in enumerate(header)}


def _csv_header(line: str) -> list:
    return [name.strip() for name in next(csv.reader([line]), [])]


def _load_csv_text(path: str) -> tuple:
    """(header, rows) of any CSV of numbers, through np.loadtxt."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            first = fh.readline()
        except UnicodeDecodeError as exc:
            raise CliError(f"{path}: {exc}")
        if not first:
            raise CliError(f"{path}: empty CSV")
        header = _csv_header(first)
        try:
            # A header-only file warns "input contained no data"; the
            # no-rows error below says so on the one stderr line.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", quotechar='"', ndmin=2)
        except ValueError as exc:
            # numpy's " at row N" counts data rows from 0, not file lines.
            reason = str(exc).split(" at row ")[0]
            raise CliError(f"{path}: bad data row: {reason}")
    if data.shape[0] == 0:
        raise CliError(f"{path}: no data rows")
    if data.shape[1] != len(header):
        raise CliError(
            f"{path}: rows have {data.shape[1]} fields, header has {len(header)}"
        )
    return header, data


def _grid_from_x(x: np.ndarray, context: str) -> Grid:
    n = x.size
    if n < 2:
        raise CliError(f"{context}: need at least two samples")
    if not np.all(np.isfinite(x)):
        raise CliError(f"{context}: column 'x': non-finite entries")
    dx = (float(x[-1]) - float(x[0])) / (n - 1)  # inf past the float64 range
    if dx <= 0:
        raise CliError(f"{context}: x must be strictly increasing")
    if dx == math.inf:
        raise CliError(f"{context}: x spans more than the float64 range")
    with np.errstate(over="ignore"):
        deviation = float(np.max(np.abs(x - (x[0] + dx * np.arange(n)))))
    tol = 1e-8 * max(1.0, abs(float(x[0])), abs(float(x[-1])))
    if deviation > tol:
        raise CliError(
            f"{context}: x is not a uniform grid (max deviation {deviation:.3e})"
        )
    try:
        return make_grid(n, float(x[0]), float(x[0]) + n * dx)
    except ValueError as exc:
        raise CliError(f"{context}: {exc}")


def _signal_from_csv(path: str, column_names) -> tuple:
    cols = _read_csv_columns(path)
    if "x" not in cols:
        raise CliError(f"{path}: missing required column 'x'")
    grid = _grid_from_x(cols["x"], path)
    for name in column_names:
        if name in cols:
            try:
                return grid, RealSignal(grid, cols[name]), name
            except ValueError as exc:
                raise CliError(f"{path}: column {name!r}: {exc}")
    raise CliError(
        f"{path}: none of the columns {list(column_names)} present "
        f"(found {sorted(cols)})"
    )


# ---------------------------------------------------------------------------
# Subcommands

def _forward_data(args, with_source: bool = True):
    """Shared data path of `forward` and `simulate`: produce (grid, f, g).

    Without with_source a built-in source is not sampled and f is None;
    exact_data samples it on its own finer grid, which raises a hat's
    support and height errors with the same text."""
    if args.input is not None:
        grid, f, _ = _signal_from_csv(args.input, ("f",))
        try:
            f = _zero_mean(f, args.demean, "--demean")
        except ValueError as exc:
            raise CliError(f"{args.input}: {exc}")
        return grid, f, solve_forward(f, demean=args.demean)
    grid = make_grid(args.n, args.x_min, args.x_max)
    spec = RunConfig.source_spec(args)
    f = sample_source(spec, grid) if with_source else None
    return grid, f, exact_data(spec, grid)


def cmd_forward(args) -> int:
    grid, f, g = _forward_data(args)
    _emit_csv(args.out, ["x", "f", "g"], (grid.points, f.values, g.values))
    return 0


def cmd_simulate(args) -> int:
    grid, _, g = _forward_data(args, with_source=False)
    spec = NoiseSpec(args.delta, args.seed, _parse_noise_mode(args.noise_mode))
    noisy = add_noise(g, spec)
    _emit_csv(args.out, ["x", "g", "g_delta"], (grid.points, g.values, noisy.values))
    return 0


def cmd_invert(args) -> int:
    grid, g, _ = _signal_from_csv(args.input, ("g_delta", "g"))
    if args.rule is not None:
        if args.delta is None:
            raise CliError("--rule needs --delta (the rule maps delta to mu)")
        mu = select_mu(args.delta, args.E, args.rule)
        bound = error_bound(args.delta, args.rule, mu)
        print(
            f"sourcefft: rule: p={args.rule:g} delta={args.delta:g} E={args.E:g} "
            f"mu={mu!r} bound={bound!r}",
            file=sys.stderr,
        )
    else:
        mu = args.mu
        if not 0.0 <= mu < math.inf:
            raise CliError(f"--mu must be finite and nonnegative, got {mu}")
    try:
        estimate = estimate_source_regularized(g, mu)
    except FloatingPointError:
        raise CliError(f"{args.input}: the estimate at mu={mu!r} overflows float64")
    _emit_csv(args.out, ["x", "f_estimate"], (grid.points, estimate.values))
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    flags = {"replicates": args.replicates, "base_seed": args.base_seed}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    rows = _summary_rows(cfg.to_sweep_config())
    _emit_csv(args.out, _SUMMARY_HEADER, _summary_columns(rows))
    return 0


def cmd_figures(args) -> int:
    cfg = _load_config(args.config)
    out_dir = args.out if args.out is not None else cfg.out
    paths = reproduce_figures(
        out_dir, config=cfg.to_sweep_config(), workers=args.workers
    )
    print(*paths, sep="\n")
    return 0


def cmd_dump_config(args) -> int:
    text = serialize_config(RunConfig())
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# Parser wiring

class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2) on bad flags; route through CliError so
    # the documented exit-code contract (validation -> 1) holds.
    def error(self, message):
        raise CliError(message)


_WORKERS_HELP = "accepted and ignored: cells run serially"
_OUT_HELP = "output CSV path (default: stdout)"
_CONFIG_HELP = "config file (default: built-in defaults)"


def _add_grid_and_source_flags(sub):
    sub.add_argument("--n", type=int, default=256, help="sample count (even, >= 8)")
    sub.add_argument("--x-min", type=float, default=0.0)
    sub.add_argument("--x-max", type=float, default=2.0 * math.pi)
    sub.add_argument("--source", choices=("cosine", "hat"), default="cosine")
    sub.add_argument("--hat-center", type=float, default=math.pi)
    sub.add_argument("--hat-half-width", type=float, default=1.0)
    sub.add_argument("--hat-height", type=float, default=1.0)
    sub.add_argument("--input", help="CSV with columns x,f instead of --source")
    sub.add_argument(
        "--demean", action="store_true",
        help="subtract the source mean instead of rejecting nonzero means",
    )


def _forward_flags(sub):
    _add_grid_and_source_flags(sub)
    sub.add_argument("--out", help=_OUT_HELP)


def _simulate_flags(sub):
    _add_grid_and_source_flags(sub)
    sub.add_argument("--delta", type=float, default=0.05, help="noise level")
    sub.add_argument("--seed", type=int, default=42)
    sub.add_argument(
        "--noise-mode", default="iid",
        choices=tuple(mode.replace("_", "-") for mode in NOISE_MODES),
    )
    sub.add_argument("--out", help=_OUT_HELP)


def _invert_flags(sub):
    sub.add_argument("--input", required=True, help="CSV with x and g or g_delta")
    sub.add_argument("--mu", type=float, default=0.0,
                     help="regularization parameter (0 = unregularized)")
    sub.add_argument("--rule", type=float, metavar="P",
                     help="choose mu by the a-priori rule at smoothness p")
    sub.add_argument("--delta", type=float, help="noise level (needed by --rule)")
    sub.add_argument("--E", type=float, default=1.0,
                     help="smoothness bound for the rule (default 1)")
    sub.add_argument("--out", help=_OUT_HELP)


def _sweep_flags(sub):
    sub.add_argument("--config", help=_CONFIG_HELP)
    sub.add_argument("--replicates", type=int)
    sub.add_argument("--base-seed", type=int)
    sub.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    sub.add_argument("--out", help=_OUT_HELP)


def _figures_flags(sub):
    sub.add_argument("--config", help=_CONFIG_HELP)
    sub.add_argument("--out", help="output directory (default: from config)")
    sub.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)


def _dump_config_flags(sub):
    sub.add_argument("--out", help="write to a file instead of stdout")


# name -> (help, function adding its flags, handler), in --help order.
_COMMANDS = {
    "forward": ("write exact data for a source", _forward_flags, cmd_forward),
    "simulate": ("write data with seeded noise", _simulate_flags, cmd_simulate),
    "invert": ("estimate the source from data", _invert_flags, cmd_invert),
    "sweep": ("mu sweep from a config file", _sweep_flags, cmd_sweep),
    "figures": ("write demonstration CSVs and scripts", _figures_flags, cmd_figures),
    "dump-config": ("print the default config file", _dump_config_flags,
                    cmd_dump_config),
}


def build_parser(command: Optional[str] = None) -> _Parser:
    """The parser of every command, or of `command` (a key of _COMMANDS)
    alone: main runs one command per call and builds only its flags."""
    parser = _Parser(
        prog="sourcefft",
        description="Recover a 1-D source term from noisy line measurements.",
    )
    subs = parser.add_subparsers(dest="command")
    for name, (help_text, add_flags, _) in _COMMANDS.items():
        if command is None or name == command:
            add_flags(subs.add_parser(name, help=help_text))
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"sourcefft: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            args = parser.parse_args(argv)
            if args.command is None:
                raise CliError("missing command (run with --help for usage)")
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return _COMMANDS[args.command][2](args)
        except (CliError, ValueError, FloatingPointError, MemoryError) as exc:
            # numpy's MemoryError names the allocation; Python's own is empty.
            print(f"sourcefft: error: {str(exc) or 'out of memory'}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"sourcefft: error: {exc}", file=sys.stderr)
            return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
