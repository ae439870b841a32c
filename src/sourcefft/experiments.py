"""Seeded parameter sweeps, the bound-check suite, and figure-style outputs.

An experiment cell is one noise realization at one parameter combination.
Each delta index i has one noise stream, Generator(PCG64(cell_seed(base_seed,
i))), and replicate r is row r of its (replicates, n) standard normal draw;
every column at that delta (each mu of an explicit sweep, each p of the rule
and the bound check) inverts the same rows, so differences between columns
are paired.  One function, _cells, draws every stream and runs every cell
serially, returning arrays: the stream seeds, each delta's noisy row 0, the
noise norm of each row and the (deltas, columns, replicates) errors, read
off the spectra by Parseval's identity, with no estimate formed; records,
findings, summary rows and figures 1-4, which invert row 0, are read from
those arrays, so nothing else draws noise.  The workers argument of the
public runners is accepted and ignored.  Result lists are sorted by
parameter values, never by position in the config.
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
from .inversion import _filter_rows, error_bound, select_mu, sobolev_norm
from .noise_lab import NOISE_MODES, _l2, _noise, discrete_l2
from .source_models import SourceSpec, cosine_source, exact_data, sample_source
from .spectral_core import Grid, _regularized_table, make_grid

__all__ = [
    "RULE_MUS",
    "SweepConfig",
    "SweepRecord",
    "BoundFinding",
    "cell_seed",
    "expected_rel_error",
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


def cell_seed(base_seed: int, delta_index: int) -> int:
    """Seed of delta index delta_index's noise stream.

    The 64-bit state of SeedSequence((base_seed, delta_index, 0, 0)), its
    first two uint32 words joined low word first; SeedSequence's expansion
    is specified and stable across platforms and numpy versions, so this is
    a documented pure function of its two nonnegative integer arguments.
    _cells calls it once per delta: Generator(PCG64(cell_seed(base_seed,
    i))) is delta index i's stream, whose (replicates, n) draw holds
    replicate r in row r, shared by every mu (or p) at that delta and, for
    r = 0, by figures 1-4.
    """
    entropy = (base_seed, delta_index, 0, 0)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


# _cells' cancellation guard.  The default config's smallest share (seeds
# 42, 1, 7, both noise modes) is 0.012 in the mu sweep, 0.0045 in the rule
# sweeps and 0.005 in the bound check, so none of their cells is recomputed.
_CANCEL_TOL = 1e-3


def _power(z: np.ndarray) -> np.ndarray:
    """|z|^2, elementwise."""
    return np.square(z.real) + np.square(z.imag)


def _parseval_weights(grid: Grid) -> np.ndarray:
    """c = dx/n (1, 2, ..., 2, 1): sum c |rfft(v)|^2 = dx v.v for a real v."""
    weights = np.full(grid.n // 2 + 1, 2.0 * grid.dx / grid.n)
    weights[[0, -1]] = grid.dx / grid.n
    return weights


def _mu_table(grid: Grid, columns) -> tuple:
    """(mu_rows, table): the distinct mus of columns, in first-seen order,
    mapped to the rows of their multiplier table on the rfft modes."""
    mus = list(dict.fromkeys(mu for row in columns for mu, *_ in row))
    table = _regularized_table(grid.half_frequencies, np.array(mus)[:, None])
    return {mu: k for k, mu in enumerate(mus)}, table


def _cells(config: SweepConfig, columns, f_true) -> tuple:
    """Every cell of the sweep as arrays: (seeds, firsts, noise_norms, errors).

    columns[i][j] starts with the mu of column j at delta index i; every
    delta has as many columns.  seeds[i] = cell_seed(base_seed, i) seeds
    delta index i's stream, and row r there is the exact data plus row r of
    its (replicates, n) config.noise_mode draw, which for r = 0 is
    add_noise's draw of seeds[i]; firsts[i] is that row 0, the (deltas, n)
    data of figures 1-4, noise_norms[i, r] the noise's discrete L2 norm and
    errors[i, j, r] the one of column j's estimate minus f_true.  A delta
    whose noise or errors overflow raises ValueError naming it.

    No estimate is formed.  With c = dx/n (1, 2, ..., 2, 1) the Parseval
    weights of the K = n/2+1 rfft modes, F = rfft(f_true), h = rfft(row)
    and T the multipliers of the run's distinct mus, a cell's squared error
    is sum c |h T - F|^2 = A - 2B + C, A = (T*T) @ (c |h|^2), B = T @ (c
    Re(h conj F)), C = c . |F|^2: per delta two (mus, K) @ (K, replicates)
    products over the distinct mus of its columns, whose rows the columns
    index, so a repeated mu or p is a bit-identical copy.  A and C sum K
    nonnegative terms of at most 4 roundings each and |B| <= sqrt(A C), so
    the computed A - 2B + C is within gamma_{K+6} (sqrt(A) + sqrt(C))^2 of
    the exact sum over the computed h, T and F (Higham 2002, section 3.1:
    gamma_k = k u / (1 - k u), u = 2^-53).  That bound is absolute: a cell
    below _CANCEL_TOL (sqrt(A) + sqrt(C))^2, as delta = 0 at small mu
    (mu = 0 would read 0.0 for an error near 1e-12), is recomputed as the
    direct sum of the nonnegative c |h T - F|^2.
    """
    grid = config.grid
    g_exact = exact_data(config.source, grid)
    seeds = [cell_seed(config.base_seed, i) for i in range(len(columns))]
    mu_rows, table = _mu_table(grid, columns)
    weights = _parseval_weights(grid)
    f_half = np.fft.rfft(f_true.values)
    firsts = np.empty((len(columns), grid.n))
    noise_norms = np.empty((len(columns), config.replicates))
    errors = np.empty((len(columns), len(columns[0]), config.replicates))
    with np.errstate(over="ignore", invalid="ignore"):
        gram_c = float(_power(f_half) @ weights)
        for i, (delta, row) in enumerate(zip(config.deltas, columns)):
            noisy = np.tile(g_exact.values, (config.replicates, 1))
            if delta > 0.0:
                noisy += _noise(grid, delta, config.noise_mode,
                                np.random.default_rng(seeds[i]), config.replicates)
            firsts[i] = noisy[0]
            noise_norms[i] = _l2(grid.dx, noisy - g_exact.values)
            own, col_rows = np.unique([mu_rows[mu] for mu, *_ in row],
                                      return_inverse=True)
            t = table[own]
            half = np.fft.rfft(noisy)
            gram_a = (t * t) @ (weights * _power(half)).T
            squares = gram_a - 2.0 * (t @ (weights * (half * f_half.conj()).real).T)
            squares += gram_c
            scale = np.square(np.sqrt(gram_a) + math.sqrt(gram_c))
            cancelled = squares < _CANCEL_TOL * scale
            for k in np.flatnonzero(cancelled.any(axis=1)):
                direct = half[cancelled[k]] * t[k] - f_half
                squares[k, cancelled[k]] = _power(direct) @ weights
            errors[i] = np.sqrt(squares[col_rows])
            if not np.isfinite(errors[i]).all():
                raise ValueError(f"noise level delta={delta!r} overflows the estimates")
    return seeds, firsts, noise_norms, errors


def _source_norm(config: SweepConfig) -> tuple:
    """(f_true, discrete_l2(f_true)): the sampled source and the denominator
    of every relative error, which a zero source does not have.  Only a hat
    can be tall enough for the norm's sum of squares to overflow."""
    f_true = sample_source(config.source, config.grid)
    with np.errstate(over="ignore"):
        f_norm = discrete_l2(f_true)
    if f_norm == 0.0:
        raise ValueError("relative error is undefined against a zero source")
    if f_norm == math.inf:
        raise ValueError(
            f"hat height={config.source.height:g} overflows the source norm"
        )
    return f_true, f_norm


def _sweep_records(config: SweepConfig, order: str) -> list:
    """One SweepRecord per cell, sorted by (delta, order, replicate) values."""
    f_true, f_norm = _source_norm(config)
    columns = _columns(config)
    _, _, noise_norms, errors = _cells(config, columns, f_true)
    records = [
        SweepRecord(delta=delta, mu=mu, p=p, replicate=r, rel_error=err / f_norm,
                    abs_error=err, bound=bound, empirical_noise_norm=noise_norm)
        for delta, row, row_errs, row_norms in zip(
            config.deltas, columns, errors.tolist(), noise_norms.tolist()
        )
        for (mu, p, _, bound, _), col in zip(row, row_errs)
        for r, (err, noise_norm) in enumerate(zip(col, row_norms))
    ]
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


def _summary_columns(rows) -> np.ndarray:
    """The rows of _summary_rows as the columns write_csv takes."""
    return np.reshape(rows, (-1, len(_SUMMARY_HEADER))).T


def _summary_rows(config: SweepConfig) -> list:
    """Sorted rows (mu, delta, mean, stderr) of summarize_rel_error over
    run_mu_sweep(config) (run_rule_comparison for mus=RULE_MUS), folded from
    the columns' error rows by _fold_summary."""
    f_true, f_norm = _source_norm(config)
    columns = _columns(config)
    _, _, _, errors = _cells(config, columns, f_true)
    return _fold_summary(config, columns, errors / f_norm)


def _fold_summary(config: SweepConfig, columns, rel_errors) -> list:
    """Sorted rows (mu, delta, mean, stderr) of the (deltas, columns,
    replicates) relative errors of _cells over columns; equal (mu, delta)
    cells merge as the sorted records order them: by p, then replicate, so
    duplicate columns interleave.  Every column at one delta inverts the
    same draws, so only a repeated delta adds independent values; a
    repeated mu (or a p giving the same mu) adds copies, and the merged
    stderr counts them as independent."""
    keys: dict = {}  # (mu, delta) -> key index, in first-seen order
    col_keys = [
        keys.setdefault((mu, delta), len(keys))
        for delta, row in zip(config.deltas, columns) for mu, *_ in row
    ]
    col_ps = [p for row in columns for _, p, *_ in row]
    # Sort the (column, replicate) values by key, p, then replicate; the
    # sort is stable, so ties keep column order and each key's values come
    # out contiguous and in the records' order.
    p_rank = {p: k for k, p in enumerate(sorted(set(col_ps)))}
    shape = (len(col_keys), config.replicates)
    order = np.lexsort([
        np.broadcast_to(a, shape).ravel() for a in (
            np.arange(shape[1]),
            np.array([p_rank[p] for p in col_ps])[:, None],
            np.array(col_keys)[:, None],
        )
    ])
    values = rel_errors.ravel()[order]
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


def expected_rel_error(config: SweepConfig) -> dict:
    """{(mu, delta): sqrt(E ||f_mu - f||^2) / ||f||} over the noise law of
    config.noise_mode: the root mean squared relative error of every
    (mu, delta) column of the sweep of config, in closed form, with no
    draw and so no seed.

    With c, T, F as in _cells and G = rfft(exact data), noise of covariance
    s^2 I has E |rfft(noise)_k|^2 = n s^2 at every mode, so the value is
    sqrt(sum c |T G - F|^2 + s^2 n sum c T^2) / ||f||: s = delta for iid
    noise, and s = delta / sqrt(length) for norm_calibrated noise, which is
    uniform on the sphere dx eps.eps = delta^2 and so has covariance
    delta^2 / (n dx) I.  At delta = 0 it is the noiseless error.
    """
    f_true, f_norm = _source_norm(config)
    grid = config.grid
    columns = _columns(config)
    mu_rows, table = _mu_table(grid, columns)
    weights = _parseval_weights(grid)
    g_half = np.fft.rfft(exact_data(config.source, grid).values)
    bias = _power(table * g_half - np.fft.rfft(f_true.values)) @ weights
    gain = grid.n * (np.square(table) @ weights)
    out = {}
    for delta, row in zip(config.deltas, columns):
        variance = delta * delta
        if config.noise_mode != "iid":
            variance /= grid.length
        for mu, *_ in row:
            k = mu_rows[mu]
            out[(mu, delta)] = math.sqrt(bias[k] + variance * gain[k]) / f_norm
    return out


def run_mu_sweep(config: SweepConfig, workers: int = 1) -> list:
    """Evaluate every (delta, mu, replicate) cell with explicit mus.

    Returns SweepRecords sorted by (delta, mu, replicate) values.  Cells run
    serially; workers is accepted for compatibility and ignored.  `sweep`
    and fig5 summarize the same cells' error array, building no records.
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
    seed is the delta's stream seed, cell_seed(base_seed, i) at delta index
    i, and the cell's noise is row `replicate` of that stream's draw.
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
    smoothness = [(p, sobolev_norm(f_true, p)) for p in config.p_values]
    columns = _rule_columns(config.deltas, smoothness)
    seeds, _, _, errors = _cells(config, columns, f_true)
    findings = [
        BoundFinding(delta=delta, p=p, replicate=r, seed=seed, mu=mu, E=E,
                     error=err, bound_raw=raw, bound_scaled=scaled,
                     violates_raw=err > raw, violates_scaled=err > scaled)
        for delta, row, seed, row_errs in zip(
            config.deltas, columns, seeds, errors.tolist()
        )
        for (mu, p, E, raw, scaled), col in zip(row, row_errs)
        for r, err in enumerate(col)
    ]
    return sorted(findings, key=attrgetter("delta", "p", "replicate"))


# Rows per write: bounds the text held in memory for a 2^20-row table, and
# keeps the formatter's temporaries small enough that the allocator reuses
# their pages; at 2^14 rows of 3 columns every chunk took about 4,000 minor
# page faults, over a third of the format time, and at 2^12 rows none.
_CSV_CHUNK_ROWS = 1 << 12


def write_csv(path, header: Sequence[str], columns) -> None:
    """Write a header and columns of numbers as CSV, LF endings, repr-exact floats.

    path is a file path, or an open text stream that is written to and left
    open.  columns holds one equal-length 1-D array of numbers per header
    field (a 2-D array holds them as its rows).  Every cell is written as
    repr(float(cell)), the shortest string that parses back to the
    identical double, which is what makes reruns byte-comparable.  The text
    comes from a vectorized shortest round-trip formatter
    (_floatfmt.format_rows).  Rows go out in chunks, each stacked from the
    columns' slices, so a large table never exists as one array or one
    string.
    """
    columns = [np.asarray(column, dtype=float) for column in columns]
    rows = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(c.shape != (rows,) for c in columns):
        raise ValueError(
            f"columns have shapes {[c.shape for c in columns]}, "
            f"header has {len(header)} fields"
        )
    chunks = itertools.chain(
        [(",".join(header) + "\n").encode("utf-8")],
        (format_rows(np.column_stack([c[i:i + _CSV_CHUNK_ROWS] for c in columns]))
         for i in range(0, rows, _CSV_CHUNK_ROWS)),
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
    fig2-fig4: true source vs regularized estimates at the first, second
    and third delta (0.015, 0.05, 0.1 by default) respectively, with mu in
    {rule p=1, rule p=2, 1, 3}; a config with fewer deltas has fewer of
    them.  fig5: mean relative error (with standard error) over the whole
    mu grid, one row per (mu, delta).  Each script plots every column of
    its CSV.

    One _cells call draws every delta's stream and gives fig5's errors;
    figures 1-4 invert its row 0 per delta, replicate 0 of the sweep,
    drawing nothing of their own, so their columns describe the same data
    a reader would compare by eye.  Their estimates come from one
    rfft/irfft pass over those rows, each bit for bit the public
    estimator's; a delta whose estimates overflow raises ValueError naming
    it, as the sweep does.  Every table is built before any file is
    written, so a config that fails writes no file.  All outputs are
    byte-deterministic for a given config.  Returns the sorted list of
    created paths.
    """
    if config is None:
        config = default_config()
    if isinstance(config.mus, str):
        raise ValueError("reproduce_figures needs explicit mus for the summary sweep")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = config.grid
    f_true, f_norm = _source_norm(config)
    columns = _columns(config)
    _, draws, _, errors = _cells(config, columns, f_true)

    mu_sets = [(select_mu(d, 1.0, 1.0), select_mu(d, 1.0, 2.0), 1.0, 3.0)
               for d in config.deltas[:3]]
    # Row i: mu = 0, fig1's column, then panel i's four mus.  A delta past
    # the third has no panel; its row repeats mu = 0 and is not written.
    mus = np.zeros((len(config.deltas), 5))
    mus[:len(mu_sets), 1:] = mu_sets
    with np.errstate(over="ignore", invalid="ignore"):
        weights = _regularized_table(grid.half_frequencies, mus[:, :, None])
        estimates = _filter_rows(draws[:, None, :], weights)
    for delta, block in zip(config.deltas, estimates):
        if not np.isfinite(block).all():
            raise ValueError(f"noise level delta={delta!r} overflows the estimates")

    base = [grid.points, f_true.values]
    tables = {"fig1": (
        ["x", "f_true"] + [f"f_unregularized_delta_{d:g}" for d in config.deltas],
        base + list(estimates[:, 0]),
    )}
    for i, mu_set in enumerate(mu_sets):
        tables[f"fig{i + 2}"] = (
            ["x", "f_true"] + [f"f_regularized_mu_{mu:.4g}" for mu in mu_set],
            base + list(estimates[i, 1:]),
        )
    tables["fig5"] = (_SUMMARY_HEADER, _summary_columns(
        _fold_summary(config, columns, errors / f_norm)))

    created = []
    for name, (header, data) in tables.items():
        path = out / f"{name}.csv"
        write_csv(path, header, data)
        created.append(path)
    scripts = {
        name: _GNUPLOT_SERIES.format(
            ylabel="f", png=f"{name}.png",
            plots=_series_plot(f"{name}.csv", len(header)),
        )
        for name, (header, _) in tables.items() if name != "fig5"
    }
    scripts["fig5"] = _GNUPLOT_FIG5.format(plots=", \\\n     ".join(
        f"'fig5.csv' using 1:($2=={float(d)!r} ? $3 : 1/0) "
        f"with linespoints title 'delta={d:g}'"
        for d in sorted(set(config.deltas))
    ))
    for name, script in scripts.items():
        path = out / f"{name}.gp"
        path.write_text(script, encoding="utf-8")
        created.append(path)

    return sorted(created)
