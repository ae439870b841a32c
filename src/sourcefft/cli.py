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
import dataclasses
import functools
import math
import shutil
import sys
import warnings
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ._floatfmt import read_csv, write_csv
from .experiments import (
    RULE_MUS,
    SweepConfig,
    _SUMMARY_HEADER,
    _sweep_summary,
    default_config,
    reproduce_figures,
)
from .inversion import (
    _zero_mean,
    error_bound,
    estimate_source_regularized,
    select_mu,
    solve_forward,
)
from .noise_lab import NOISE_MODES, NoiseSpec, add_noise
from .source_models import _KINDS, SourceSpec, exact_data, hat_source, sample_source
from .spectral_core import Grid, RealSignal, make_grid

__all__ = ["RunConfig", "parse_config", "serialize_config", "main", "entry"]


class CliError(Exception):
    """Validation problem in flags, config, or input data (exit code 1)."""


_DEFAULTS = default_config()


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Everything a sweep or figures run needs, as a config file spells it.

    The experiment fields default to default_config()'s values; the hat
    shape and out have no SweepConfig counterpart and default here.
    """

    n: int = _DEFAULTS.grid.n
    x_min: float = _DEFAULTS.grid.x_min
    x_max: float = _DEFAULTS.grid.x_max
    source: str = _DEFAULTS.source.kind
    hat_center: float = math.pi
    hat_half_width: float = 1.0
    hat_height: float = 1.0
    deltas: tuple = _DEFAULTS.deltas
    mus: Union[tuple, str] = _DEFAULTS.mus
    p_values: tuple = _DEFAULTS.p_values
    replicates: int = _DEFAULTS.replicates
    base_seed: int = _DEFAULTS.base_seed
    noise_mode: str = _DEFAULTS.noise_mode
    out: str = "figures"

    def source_spec(self) -> SourceSpec:
        """The built-in source named by source; SourceSpec checks the name.

        Also called as RunConfig.source_spec(args) on parsed command line
        flags, which carry the same four source fields.
        """
        if self.source == "hat":
            return hat_source(self.hat_center, self.hat_half_width, self.hat_height)
        return SourceSpec(self.source)

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


def _load_config(path: Optional[str]) -> tuple:
    """(RunConfig, SweepConfig) of the config file at path, or the defaults.

    An error in the file's text or values names the file.  A hat's support
    is checked against the domain only when the source is sampled, so that
    error does not.
    """
    if path is None:
        return RunConfig(), _DEFAULTS
    try:
        cfg = parse_config(Path(path).read_text(encoding="utf-8-sig"))
        return cfg, cfg.to_sweep_config()
    except (CliError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise CliError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# CSV columns: _floatfmt reads and writes the files

def _emit_csv(out_path: Optional[str], header, columns) -> None:
    write_csv(sys.stdout if out_path is None else out_path, header, columns)


# Samples per block of the uniform-grid check: |x_j - (x[0] + dx * j)| is
# computed in one buffer of this size, not in five temporaries of all n
# samples.  A single n-sized buffer saves the temporaries as well, but at
# n = 2^20 it raised the peak RSS of `invert` by 6-11 MB (glibc's heap
# layout), and it was slower than the blocks.
_GRID_BLOCK = 1 << 16


def _grid_from_x(x: np.ndarray, context: str) -> Grid:
    """The uniform grid whose samples are x, first to last.

    x must be finite, increasing from x[0] to x[-1], and within
    1e-8 * max(|x[0]|, |x[-1]|) of the evenly spaced points between them,
    a bound that scales with the coordinates on any domain.
    """
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
    deviation = 0.0
    with np.errstate(over="ignore"):
        for start in range(0, n, _GRID_BLOCK):
            dev = np.arange(start, min(n, start + _GRID_BLOCK), dtype=float)
            dev *= dx
            dev += x[0]
            dev -= x[start:start + _GRID_BLOCK]
            deviation = max(deviation, float(np.max(np.abs(dev, out=dev))))
    tol = 1e-8 * max(abs(float(x[0])), abs(float(x[-1])))
    if deviation > tol:
        raise CliError(
            f"{context}: x is not a uniform grid (max deviation {deviation:.3e})"
        )
    try:
        return make_grid(n, float(x[0]), float(x[0]) + n * dx)
    except ValueError as exc:
        raise CliError(f"{context}: {exc}")


def _signal_from_csv(path: str, column_names) -> tuple:
    header, table = read_csv(path)
    cols = dict(zip(header, table.T))
    if len(cols) < len(header):
        name = next(name for name in header if header.count(name) > 1)
        raise CliError(f"{path}: header repeats column {name!r}")
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
        return grid, f, solve_forward(f)
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
    _, config = _load_config(args.config)
    flags = {"replicates": args.replicates, "base_seed": args.base_seed}
    overrides = {k: v for k, v in flags.items() if v is not None}
    if overrides:
        config = dataclasses.replace(config, **overrides)
    _emit_csv(args.out, _SUMMARY_HEADER, _sweep_summary(config))
    return 0


def cmd_figures(args) -> int:
    cfg, config = _load_config(args.config)
    out_dir = args.out if args.out is not None else cfg.out
    paths = reproduce_figures(out_dir, config=config)
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
    def __init__(self, **kwargs):
        # argparse builds a HelpFormatter for every add_argument, and each
        # asks the terminal for its width; ask once per parser instead, for
        # the width HelpFormatter would compute itself.
        kwargs.setdefault("formatter_class", functools.partial(
            argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2))
        super().__init__(**kwargs)

    # argparse wants to sys.exit(2) on bad flags; route through CliError so
    # the documented exit-code contract (validation -> 1) holds.
    def error(self, message):
        raise CliError(message)


_WORKERS_HELP = "accepted and ignored: cells run serially"
_OUT_HELP = "output CSV path (default: stdout)"
_CONFIG_HELP = "config file (default: built-in defaults)"


def _add_grid_and_source_flags(sub):
    sub.add_argument("--n", type=int, default=RunConfig.n,
                     help="sample count (even, >= 8)")
    sub.add_argument("--x-min", type=float, default=RunConfig.x_min)
    sub.add_argument("--x-max", type=float, default=RunConfig.x_max)
    sub.add_argument("--source", choices=_KINDS, default=RunConfig.source)
    sub.add_argument("--hat-center", type=float, default=RunConfig.hat_center)
    sub.add_argument("--hat-half-width", type=float, default=RunConfig.hat_half_width)
    sub.add_argument("--hat-height", type=float, default=RunConfig.hat_height)
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
        "--noise-mode", default=RunConfig.noise_mode,
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


def build_parser() -> _Parser:
    """The parser of every command, one subparser each."""
    parser = _Parser(
        prog="sourcefft",
        description="Recover a 1-D source term from noisy line measurements.",
    )
    subs = parser.add_subparsers(dest="command")
    for name, (help_text, add_flags, _) in _COMMANDS.items():
        add_flags(subs.add_parser(name, help=help_text))
    return parser


def _command_parser(command: str) -> _Parser:
    """The parser of one command's flags (a key of _COMMANDS), the one
    build_parser adds as its subparser: it reads the arguments after the
    command's name, and its help and error text are the full parser's."""
    parser = _Parser(prog=f"sourcefft {command}")
    _COMMANDS[command][1](parser)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"sourcefft: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            # A command runs through its own parser; the full one serves
            # --help, a missing command and an unknown one.
            if argv and argv[0] in _COMMANDS:
                args = _command_parser(argv[0]).parse_args(argv[1:])
                args.command = argv[0]
            else:
                args = build_parser().parse_args(argv)
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
