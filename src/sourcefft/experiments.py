"""Seeded parameter sweeps, the bound-check suite, and figure-style outputs.

An experiment cell is one noise realization at one parameter combination.
Replicate r at delta index i draws the stream of
Generator(PCG64(cell_seed(base_seed, i, 0, r))), and every column at that
delta (each mu of an explicit sweep, each p of the rule and the bound
check) inverts that same draw, so differences between columns are paired.
A sweep hashes the seeds of its (delta, replicate) draws, and the PCG64
words each seed expands to, in one vectorized SeedSequence pass.  Cells run
serially: one rfft of each delta's (replicates, n) block of noisy data,
then one irfft per cache-sized group of columns, each row still bit for
bit estimate_source_regularized; the drivers' workers argument is accepted
and ignored.  Result lists are sorted by parameter values, never by
position in the config.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
from operator import attrgetter
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from ._floatfmt import format_rows
from .inversion import (
    _filter_half,
    error_bound,
    estimate_source_regularized,
    estimate_source_unregularized,
    select_mu,
    sobolev_norm,
)
from .noise_lab import (
    NOISE_MODES,
    NoiseSpec,
    _int_words,
    _l2,
    _noise,
    _seed_words,
    add_noise,
    discrete_l2,
)
from .source_models import SourceSpec, cosine_source, exact_data, sample_source
from .spectral_core import Grid, _regularized_table, make_grid

__all__ = [
    "RULE_MUS",
    "SweepConfig",
    "SweepRecord",
    "BoundFinding",
    "cell_seed",
    "default_mu_grid",
    "default_config",
    "run_mu_sweep",
    "run_rule_comparison",
    "run_bound_check",
    "reproduce_figures",
]

# Marker accepted in SweepConfig.mus meaning "choose mu by the a-priori rule
# for each p in p_values".
RULE_MUS = "rule"


def default_mu_grid() -> tuple:
    """81 uniformly spaced mu values on [0, 40], the summary-sweep grid."""
    return tuple(float(v) for v in np.linspace(0.0, 40.0, 81))


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    """Full description of a sweep: what to invert, over which parameters.

    mus is either an explicit tuple of finite nonnegative values or the
    string RULE_MUS, in which case p_values drives the parameter choice.
    """

    source: SourceSpec
    grid: Grid
    deltas: Sequence[float]
    mus: Union[Sequence[float], str]
    p_values: Sequence[float] = (1.0, 2.0)
    replicates: int = 20
    base_seed: int = 42
    noise_mode: str = "iid"

    def __post_init__(self):
        for name in ("deltas", "mus", "p_values"):
            values = getattr(self, name)
            if name == "mus" and isinstance(values, str):
                if values != RULE_MUS:
                    raise ValueError(
                        f"mus must be a list of values or {RULE_MUS!r}, got {values!r}"
                    )
                continue
            values = tuple(float(v) for v in values)
            if not values:
                raise ValueError(f"{name} must be nonempty")
            if not all(0.0 <= v < math.inf for v in values):
                raise ValueError(f"{name} must be finite and nonnegative")
            object.__setattr__(self, name, values)
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        object.__setattr__(self, "replicates", int(self.replicates))
        if not (0 <= int(self.base_seed) < 2**64):
            raise ValueError("base_seed must fit in 64 unsigned bits")
        object.__setattr__(self, "base_seed", int(self.base_seed))
        if self.noise_mode not in NOISE_MODES:
            raise ValueError(
                f"noise_mode must be one of {NOISE_MODES}, got {self.noise_mode!r}"
            )


def default_config() -> SweepConfig:
    """Cosine source on [0, 2*pi) with n=256, the default experiment setup."""
    return SweepConfig(
        source=cosine_source(),
        grid=make_grid(256, 0.0, 2.0 * math.pi),
        deltas=(0.015, 0.05, 0.1),
        mus=default_mu_grid(),
    )


@dataclasses.dataclass(frozen=True)
class SweepRecord:
    """One experiment cell: one noise draw, one inversion, its errors.

    p and bound are set only for rule-driven cells (bound travels with the
    rule that justifies it); abs_error and empirical_noise_norm are discrete
    L2 norms, rel_error is abs_error over the true source's norm.
    """

    delta: float
    mu: float
    p: Optional[float]
    replicate: int
    rel_error: float
    abs_error: float
    bound: Optional[float]
    empirical_noise_norm: float

    def __post_init__(self):
        if self.rel_error < 0 or self.abs_error < 0:
            raise ValueError("errors must be nonnegative")
        if (self.p is None) != (self.bound is None):
            raise ValueError("bound must be present exactly when p is (rule cells)")


def cell_seed(base_seed: int, delta_index: int, mu_index: int, replicate: int) -> int:
    """Seed of one noise draw.

    The 64-bit state of SeedSequence((base_seed, delta_index, mu_index,
    replicate)), its first two uint32 words joined low word first;
    SeedSequence's expansion is specified and stable across platforms and
    numpy versions, so this is a documented pure function of its four
    nonnegative integer arguments.  Sweeps, the bound check and the figures
    draw with mu_index 0: cell_seed(base_seed, i, 0, r) seeds replicate r
    at delta index i, shared by every mu (or p) at that delta.
    """
    entropy = (base_seed, delta_index, mu_index, replicate)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _cell_streams(config: SweepConfig) -> tuple:
    """Seeds and PCG64 words of every (delta, replicate) draw, hashed in one
    array pass.

    Returns (seeds, words): seeds[i, r] is cell_seed(base_seed, i, 0, r) as
    uint64 and words[i, r] the 8 uint32 words PCG64 takes from it.
    """
    i, r = np.ogrid[:len(config.deltas), :config.replicates]
    base = [[w] for w in _int_words(config.base_seed)]
    low, high = np.moveaxis(_seed_words([*base, i, 0, r], 2), -1, 0)
    seeds = high.astype(np.uint64) << np.uint64(32) | low
    return seeds, _seed_words([low, high], 8)


# Bytes of the (columns, replicates, n) float64 estimates that one group of
# columns inverts at once.  The group's half spectra take as much again, and
# both stay well inside a 2 MiB L2 cache: at n = 256 and 20 replicates a
# group is 3 columns.  One group of all 81 columns of the default sweep
# (3.3 MB of temporaries) made the sweep a third slower than 6-column
# groups, and on the mu-sweep benchmark 6 columns raised peak RSS by
# 0.65 MB, 3 columns by 0.35 MB.
_GROUP_BYTES = 1 << 17


def _group_columns(replicates: int, n: int) -> int:
    """Columns per group: as many (replicates, n) blocks as _GROUP_BYTES
    holds, and 1 when a single block alone reaches it."""
    return max(1, _GROUP_BYTES // (8 * replicates * n))


def _cells(config: SweepConfig, columns, f_true, g_exact):
    """Run the cells in groups of columns, each group at one delta.

    columns[i][j] is a tuple whose first item is the mu of column j at delta
    index i.  Row r of every column at delta index i is the config.noise_mode
    draw of Generator(PCG64(cell_seed(base_seed, i, 0, r))) added to
    g_exact, as add_noise makes it.  The (replicates, n) rows of a delta get
    one rfft; its columns then run in cache-sized groups (_group_columns),
    each one irfft of the half spectrum times the group's weight rows, taken
    from one table of every distinct mu of the run.  Each row's estimate is bit
    for bit estimate_source_regularized of that row.  Yields (i, j, seeds,
    noisy rows, (k, replicates) array of the discrete L2 errors of columns
    j..j+k-1), in (i, j) order; the groups of one delta share seeds and
    noisy rows.  A group whose noise or errors overflow raises ValueError
    naming its delta.
    """
    grid = config.grid
    seeds, words = _cell_streams(config)
    gen = np.random.Generator(np.random.PCG64(0))
    mus = list(dict.fromkeys(mu for row in columns for mu, *_ in row))
    mu_rows = {mu: k for k, mu in enumerate(mus)}
    table = _regularized_table(grid.half_frequencies, np.array(mus)[:, None])
    size = _group_columns(config.replicates, grid.n)
    for i, (delta, row) in enumerate(zip(config.deltas, columns)):
        # C order all the way to the estimates, so _l2 takes its BLAS path.
        noisy = np.tile(g_exact.values, (config.replicates, 1))
        if delta > 0.0:
            noisy += _noise(grid, delta, words[i], config.noise_mode, gen)
        with np.errstate(over="ignore", invalid="ignore"):
            half = np.fft.rfft(noisy)
        row_seeds = seeds[i].tolist()
        rows = [mu_rows[mu] for mu, *_ in row]
        for j in range(0, len(rows), size):
            with np.errstate(over="ignore", invalid="ignore"):
                estimates = _filter_half(half, table[rows[j:j + size], None], grid.n)
                estimates -= f_true.values
                errs = _l2(grid.dx, estimates)
            if not np.isfinite(errs).all():
                raise ValueError(f"noise level delta={delta!r} overflows the estimates")
            yield i, j, row_seeds, noisy, errs


def _sweep_records(config: SweepConfig, order: str) -> list:
    """One SweepRecord per cell, sorted by (delta, order, replicate) values."""
    f_true = sample_source(config.source, config.grid)
    g_exact = exact_data(config.source, config.grid)
    f_norm = discrete_l2(f_true)
    columns = _columns(config)
    records = []
    for i, j, _, noisy, errs in _cells(config, columns, f_true, g_exact):
        if j == 0:
            noise_norms = _l2(config.grid.dx, noisy - g_exact.values).tolist()
        for (mu, p, _, bound, _), col in zip(columns[i][j:], errs.tolist()):
            for r, (err, noise_norm) in enumerate(zip(col, noise_norms)):
                records.append(SweepRecord(
                    delta=config.deltas[i],
                    mu=mu,
                    p=p,
                    replicate=r,
                    rel_error=err / f_norm,
                    abs_error=err,
                    bound=bound,
                    empirical_noise_norm=noise_norm,
                ))
    return sorted(records, key=attrgetter("delta", order, "replicate"))


def _columns(config: SweepConfig) -> list:
    """columns[i][j] = (mu, p, E, bound, scaled): one column per mu (the
    rest None), or for mus=RULE_MUS the rule's columns at E = 1."""
    if not isinstance(config.mus, str):
        row = [(mu, None, None, None, None) for mu in config.mus]
        return [row] * len(config.deltas)
    return _rule_columns(config.deltas, [(p, 1.0) for p in config.p_values])


def _rule_columns(deltas, smoothness) -> list:
    """The a-priori rule's columns: columns[i][j] = (mu, p, E, bound,
    scaled) at deltas[i] and the j-th (p, E) pair of smoothness, with
    mu = select_mu(delta, E, p), bound = error_bound(delta, p, mu) and
    scaled = E * error_bound(delta / E, p, mu)."""
    if any(d <= 0 for d in deltas):
        raise ValueError("the rule needs delta > 0 for every delta")
    columns = []
    for d in deltas:
        mus = [select_mu(d, E, p) for p, E in smoothness]
        columns.append([
            (mu, p, E, error_bound(d, p, mu), E * error_bound(d / E, p, mu))
            for mu, (p, E) in zip(mus, smoothness)
        ])
    return columns


# The columns of the sweep CSV and of fig5.csv.
_SUMMARY_HEADER = ["mu", "delta", "mean_rel_error", "stderr_rel_error"]


def _summary_rows(config: SweepConfig) -> list:
    """Sorted rows (mu, delta, mean, stderr) of summarize_rel_error over
    run_mu_sweep(config) (run_rule_comparison for mus=RULE_MUS), folded from
    the columns' error rows; equal (mu, delta) cells merge as the sorted
    records order them: by p, then replicate, so duplicate columns
    interleave."""
    f_true = sample_source(config.source, config.grid)
    g_exact = exact_data(config.source, config.grid)
    f_norm = discrete_l2(f_true)
    columns = _columns(config)
    keys: dict = {}  # (mu, delta) -> key index, in first-seen order
    col_keys, col_ps, errors = [], [], []
    for i, j, _, _, errs in _cells(config, columns, f_true, g_exact):
        for mu, p, *_ in columns[i][j:j + len(errs)]:
            col_keys.append(keys.setdefault((mu, config.deltas[i]), len(keys)))
            col_ps.append(p)
        errors.append(errs)
    # Sort the (column, replicate) values by key, p, replicate, then column:
    # each key's values come out contiguous and in the records' order.
    p_rank = {p: k for k, p in enumerate(sorted(set(col_ps)))}
    shape = (len(col_keys), config.replicates)
    order = np.lexsort([
        np.broadcast_to(a, shape).ravel() for a in (
            np.arange(shape[0])[:, None],
            np.arange(shape[1]),
            np.array([p_rank[p] for p in col_ps])[:, None],
            np.array(col_keys)[:, None],
        )
    ])
    values = (np.concatenate(errors) / f_norm).ravel()[order]
    counts = np.bincount(col_keys) * config.replicates
    starts = np.cumsum(counts) - counts
    stats = [None] * len(keys)
    for count in set(counts.tolist()):
        (which,) = np.nonzero(counts == count)
        table = values[starts[which][:, None] + np.arange(count)]
        means, stderrs = _mean_stderr(table)
        for k, mean, stderr in zip(which.tolist(), means.tolist(), stderrs.tolist()):
            stats[k] = (mean, stderr)
    return sorted(key + stats[k] for key, k in keys.items())


def run_mu_sweep(config: SweepConfig, workers: int = 1) -> list:
    """Evaluate every (delta, mu, replicate) cell with explicit mus.

    Returns SweepRecords sorted by (delta, mu, replicate) values.  Cells run
    serially; workers is accepted for compatibility and ignored.  `sweep`
    and fig5 summarize the same cells from their groups, building no records.
    """
    if isinstance(config.mus, str):
        raise ValueError(
            "run_mu_sweep needs explicit mus; use run_rule_comparison for "
            f"mus={RULE_MUS!r}"
        )
    return _sweep_records(config, "mu")


def run_rule_comparison(config: SweepConfig, workers: int = 1) -> list:
    """Evaluate every (delta, p, replicate) cell with mu from the rule (E=1).

    Each record carries the rule's mu, the p that produced it, and the
    theoretical bound error_bound(delta, p, mu).  Requires mus=RULE_MUS and
    strictly positive deltas (the rule is undefined at delta=0).  workers is
    ignored, as in run_mu_sweep.
    """
    if config.mus != RULE_MUS:
        raise ValueError(f"run_rule_comparison requires mus={RULE_MUS!r}")
    return _sweep_records(config, "p")


@dataclasses.dataclass(frozen=True)
class BoundFinding:
    """One bound-check cell: measured error vs both forms of the guarantee.

    bound_raw is error_bound(delta, p, mu) as written (unit smoothness
    bound); bound_scaled is E * error_bound(delta/E, p, mu), the same
    guarantee rescaled to the measured smoothness bound E of the source.
    """

    delta: float
    p: float
    replicate: int
    seed: int
    mu: float
    E: float
    error: float
    bound_raw: float
    bound_scaled: float
    violates_raw: bool
    violates_scaled: bool


def run_bound_check(
    config: Optional[SweepConfig] = None, workers: int = 1
) -> list:
    """Check the error guarantee under its exact hypotheses, cell by cell.

    Uses norm-calibrated noise (so the data error is delta exactly),
    E = sobolev_norm(f, p), mu = select_mu(delta, E, p), and compares the
    measured absolute error against both bound forms.  Returns one
    BoundFinding per cell regardless of outcome, so callers can report
    violations as structured records or confirm there are none.  workers is
    ignored, as in run_mu_sweep.
    """
    if config is None:
        config = dataclasses.replace(
            default_config(), mus=RULE_MUS, noise_mode="norm_calibrated"
        )
    if config.noise_mode != "norm_calibrated":
        raise ValueError("the bound check requires norm_calibrated noise")
    f_true = sample_source(config.source, config.grid)
    g_exact = exact_data(config.source, config.grid)
    smoothness = [(p, sobolev_norm(f_true, p)) for p in config.p_values]
    columns = _rule_columns(config.deltas, smoothness)
    findings = []
    for i, j, seeds, _, errs in _cells(config, columns, f_true, g_exact):
        for (mu, p, E, raw, scaled), col in zip(columns[i][j:], errs.tolist()):
            for r, (seed, err) in enumerate(zip(seeds, col)):
                findings.append(BoundFinding(
                    delta=config.deltas[i],
                    p=p,
                    replicate=r,
                    seed=seed,
                    mu=mu,
                    E=E,
                    error=err,
                    bound_raw=raw,
                    bound_scaled=scaled,
                    violates_raw=err > raw,
                    violates_scaled=err > scaled,
                ))
    return sorted(findings, key=attrgetter("delta", "p", "replicate"))


# Rows per write: bounds the text held in memory for a 2^20-row table, and
# keeps the formatter's temporaries small enough that the allocator reuses
# their pages; at 2^14 rows of 3 columns every chunk took about 4,000 minor
# page faults, over a third of the format time, and at 2^12 rows none.
_CSV_CHUNK_ROWS = 1 << 12


def write_csv(path, header: Sequence[str], rows) -> None:
    """Write a header and rows of numbers as CSV, LF endings, repr-exact floats.

    path is a file path, or an open text stream that is written to and left
    open.  rows is a 2-D array or a sequence of equal-length rows; every
    cell is written as repr(float(cell)), the shortest string that parses
    back to the identical double, which is what makes reruns
    byte-comparable.  The text comes from a vectorized shortest round-trip
    formatter (_floatfmt.format_rows), which calls repr itself only for
    zeros, inf, nan and |x| < 1e-4 or >= 1e16.  Rows go out in chunks, so a
    large table never exists as one string.
    """
    table = np.asarray(rows, dtype=float)
    if len(table) and table.shape[1:] != (len(header),):
        raise ValueError(
            f"rows have shape {table.shape[1:]}, header has {len(header)} fields"
        )
    chunks = itertools.chain(
        [(",".join(header) + "\n").encode("utf-8")],
        (format_rows(table[start:start + _CSV_CHUNK_ROWS])
         for start in range(0, len(table), _CSV_CHUNK_ROWS)),
    )
    if isinstance(path, (str, os.PathLike)):
        with open(path, "wb") as fh:
            fh.writelines(chunks)
    else:
        for chunk in chunks:
            path.write(chunk.decode("utf-8"))


def _mean_stderr(table: np.ndarray) -> tuple:
    """(means, standard errors) of the rows of a 2-D array, reduced along
    the last axis, so each row rounds as np.mean/np.std of it alone; the
    standard error of a one-value row is 0."""
    mean = np.mean(table, axis=-1)
    if table.shape[-1] < 2:
        return mean, np.zeros_like(mean)
    return mean, np.std(table, axis=-1, ddof=1) / math.sqrt(table.shape[-1])


def summarize_rel_error(records) -> dict:
    """Group records into {(mu, delta): (mean_rel_error, stderr_rel_error)};
    equal keys merge in record order, so over a sorted run_mu_sweep repeated
    columns interleave by replicate, as `sweep` and fig5 do without records."""
    groups: dict = {}
    for rec in records:
        groups.setdefault((rec.mu, rec.delta), []).append(rec.rel_error)
    return {
        key: tuple(float(v[0]) for v in _mean_stderr(np.array([vals])))
        for key, vals in groups.items()
    }


_GNUPLOT_SERIES = """set datafile separator ','
set key autotitle columnhead
set key outside
set xlabel 'x'
set ylabel '{ylabel}'
set terminal pngcairo size 960,600
set output '{png}'
plot {plots}
"""

_GNUPLOT_FIG5 = """set datafile separator ','
set xlabel 'mu'
set ylabel 'mean relative error'
set logscale y
set terminal pngcairo size 960,600
set output 'fig5.png'
plot {plots}
"""


def _series_plot(csv_name: str, n_cols: int) -> str:
    parts = [
        f"'{csv_name}' using 1:{c} with lines" for c in range(2, n_cols + 1)
    ]
    return ", \\\n     ".join(parts)


def reproduce_figures(out_dir, config: Optional[SweepConfig] = None,
                      workers: int = 1) -> list:
    """Write the five demonstration CSVs plus one gnuplot script per CSV.

    fig1: true source vs unregularized estimates, one column per delta.
    fig2-fig4: true source vs regularized estimates at delta = 0.015, 0.05,
    0.1 respectively, with mu in {rule p=1, rule p=2, 1, 3}.
    fig5: mean relative error (with standard error) over the whole mu grid,
    one row per (mu, delta).

    Figures 1-4 use one noise draw per delta, seed cell_seed(base_seed,
    delta_index, 0, 0), so their columns describe the same data a reader
    would compare by eye.  All outputs are byte-deterministic for a given
    config.  Returns the list of created paths.
    """
    if config is None:
        config = default_config()
    if isinstance(config.mus, str):
        raise ValueError("reproduce_figures needs explicit mus for the summary sweep")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = config.grid
    f_true = sample_source(config.source, grid)
    g_exact = exact_data(config.source, grid)
    created = []

    # One seeded draw per delta, shared by fig1 and the matching fig2-4 panel.
    draws = [
        add_noise(
            g_exact,
            NoiseSpec(d, cell_seed(config.base_seed, i, 0, 0), config.noise_mode),
        )
        for i, d in enumerate(config.deltas)
    ]

    header = ["x", "f_true"] + [
        f"f_unregularized_delta_{d:g}" for d in config.deltas
    ]
    columns = [grid.points, f_true.values] + [
        estimate_source_unregularized(noisy).values for noisy in draws
    ]
    path = out / "fig1.csv"
    write_csv(path, header, np.column_stack(columns))
    created.append(path)

    for fig_no, (i, delta) in zip((2, 3, 4), enumerate(config.deltas)):
        mu_set = (select_mu(delta, 1.0, 1.0), select_mu(delta, 1.0, 2.0), 1.0, 3.0)
        header = ["x", "f_true"] + [f"f_regularized_mu_{mu:.4g}" for mu in mu_set]
        columns = [grid.points, f_true.values] + [
            estimate_source_regularized(draws[i], mu).values for mu in mu_set
        ]
        path = out / f"fig{fig_no}.csv"
        write_csv(path, header, np.column_stack(columns))
        created.append(path)

    path = out / "fig5.csv"
    write_csv(path, _SUMMARY_HEADER, _summary_rows(config))
    created.append(path)

    for fig_no in (1, 2, 3, 4):
        name = f"fig{fig_no}"
        script = _GNUPLOT_SERIES.format(
            ylabel="f",
            png=f"{name}.png",
            plots=_series_plot(f"{name}.csv", 5),
        )
        path = out / f"{name}.gp"
        path.write_text(script, encoding="utf-8")
        created.append(path)
    fig5_plots = ", \\\n     ".join(
        f"'fig5.csv' using 1:($2=={float(d)!r} ? $3 : 1/0) "
        f"with linespoints title 'delta={d:g}'"
        for d in sorted(set(config.deltas))
    )
    path = out / "fig5.gp"
    path.write_text(_GNUPLOT_FIG5.format(plots=fig5_plots), encoding="utf-8")
    created.append(path)

    return sorted(created)
