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
findings, summary columns and figures 1-4, which invert row 0, are read from
those arrays, so nothing else draws noise.  Records and findings are named
tuples, in lists sorted by parameter values, never by position in the
config.  One fold, _fold_summary, gives the (mu, delta) summary of
summarize_rel_error, `sweep` and fig5.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from ._floatfmt import _write_text, format_tables
from .inversion import (
    _filter_rows, _zero_mean, error_bound, select_mu, sobolev_norm,
    solve_forward,
)
from .noise_lab import NOISE_MODES, _l2, _noise, discrete_l2
from .source_models import SourceSpec, cosine_source, exact_data, sample_source
from .spectral_core import (
    Grid, _parseval_weights, _power, _regularized_table, make_grid,
)

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
    "summarize_rel_error",
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


class SweepRecord(NamedTuple):
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


def _mu_table(grid: Grid, mus) -> tuple:
    """(mu_rows, table): the distinct values of the (deltas, columns) array
    mus, in first-seen order (0.0 and -0.0 are one), mapped to the rows of
    their multiplier table on the rfft modes."""
    distinct = list(dict.fromkeys(mus.ravel().tolist()))
    table = _regularized_table(grid.half_frequencies, np.array(distinct)[:, None])
    return {mu: k for k, mu in enumerate(distinct)}, table


def _cells(config: SweepConfig, columns, f_true, data=None) -> tuple:
    """Every cell of the sweep as arrays: (seeds, firsts, noise_norms, errors).

    columns holds _columns' (deltas, columns) arrays; columns["mu"][i, j]
    is the mu of column j at delta index i, and no other array is read
    here.  data is the noiseless data, by default
    exact_data(config.source, config.grid).  seeds[i] = cell_seed(base_seed,
    i) seeds delta index i's stream, and row r there is row r of its
    (replicates, n) config.noise_mode draw plus data, added into the draw
    in place (noise + data, the same sum as data + noise bit for bit; at
    delta = 0 the row is data itself), which for r = 0 is add_noise's
    draw of seeds[i]; firsts[i] is that row 0, the (deltas, n)
    data of figures 1-4, noise_norms[i, r] the noise's discrete L2 norm and
    errors[i, j, r] the one of column j's estimate minus f_true.  A delta
    whose noise or errors overflow raises ValueError naming it.

    No estimate is formed.  With c = dx/n (1, 2, ..., 2, 1) the Parseval
    weights of the K = n/2+1 rfft modes, F = rfft(f_true), h = rfft(row)
    and T the multipliers of the run's distinct mus, a cell's squared error
    is sum c |h T - F|^2 = A - 2B + C, A = (T*T) @ (c |h|^2), B = T @ (c
    Re(h conj F)), C = c . |F|^2: per delta two (mus, K) @ (K, replicates)
    products over the distinct mus of its columns, in ascending order of
    their table rows (first-seen order over all deltas), whose rows the
    columns index, so a repeated mu or p is a bit-identical copy.  The loop
    stays per delta, so each product keeps its shape and its bits.  A and
    C sum K nonnegative terms of at most 4 roundings each and |B| <=
    sqrt(A C), so the computed A - 2B + C is within gamma_{K+6} (sqrt(A) +
    sqrt(C))^2 of the exact sum over the computed h, T and F (Higham 2002,
    section 3.1: gamma_k = k u / (1 - k u), u = 2^-53).  That bound is
    absolute: a cell below _CANCEL_TOL (sqrt(A) + sqrt(C))^2, as delta = 0
    at small mu (mu = 0 would read 0.0 for an error near 1e-12), is
    recomputed as the direct sum of the nonnegative c |h T - F|^2.
    """
    grid = config.grid
    g_exact = exact_data(config.source, grid) if data is None else data
    deltas, width = columns["mu"].shape
    seeds = [cell_seed(config.base_seed, i) for i in range(deltas)]
    mu_rows, table = _mu_table(grid, columns["mu"])
    weights = _parseval_weights(grid)
    f_half = np.fft.rfft(f_true.values)
    firsts = np.empty((deltas, grid.n))
    noise_norms = np.empty((deltas, config.replicates))
    errors = np.empty((deltas, width, config.replicates))
    with np.errstate(over="ignore", invalid="ignore"):
        gram_c = float(_power(f_half) @ weights)
        for i, (delta, row) in enumerate(zip(config.deltas, columns["mu"].tolist())):
            if delta > 0.0:
                noisy = _noise(grid, delta, config.noise_mode,
                               np.random.default_rng(seeds[i]), config.replicates)
                noisy += g_exact.values
            else:
                noisy = np.tile(g_exact.values, (config.replicates, 1))
            firsts[i] = noisy[0]
            noise_norms[i] = _l2(grid.dx, noisy - g_exact.values)
            keys = [mu_rows[mu] for mu in row]
            own = sorted(set(keys))
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
            position = {k: m for m, k in enumerate(own)}
            errors[i] = np.sqrt(squares[[position[k] for k in keys]])
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
    """One SweepRecord per cell, sorted by (delta, order, replicate) values
    as tuples, stably."""
    f_true, f_norm = _source_norm(config)
    columns = _columns(config)
    _, _, noise_norms, errors = _cells(config, columns, f_true)
    mus = columns["mu"].tolist()
    # An explicit sweep's p and bound are None in every column.
    nones = [[None] * len(mus[0])] * len(mus)
    ps, bounds = (columns[name].tolist() if name in columns else nones
                  for name in ("p", "bound"))
    rows = [
        (delta, mu, p, r, err / f_norm, err, bound, noise_norm)
        for delta, row_errs, row_norms, *row in zip(
            config.deltas, errors.tolist(), noise_norms.tolist(), mus, ps, bounds
        )
        for col, mu, p, bound in zip(row_errs, *row)
        for r, (err, noise_norm) in enumerate(zip(col, row_norms))
    ]
    rows.sort(key=itemgetter(0, 1 if order == "mu" else 2, 3))
    return list(map(SweepRecord._make, rows))


def _columns(config: SweepConfig) -> dict:
    """The sweep's columns as (deltas, columns) arrays by name: "mu" alone,
    one column per mu (config.mus in every row), or for mus=RULE_MUS the
    rule's columns at E = 1 (_rule_columns).  _cells, _fold_summary, the
    records and findings index these arrays."""
    if not isinstance(config.mus, str):
        shape = (len(config.deltas), len(config.mus))
        return {"mu": np.broadcast_to(config.mus, shape)}
    return _rule_columns(config.deltas, [(p, 1.0) for p in config.p_values])


def _rule_columns(deltas, smoothness) -> dict:
    """The a-priori rule's columns as (deltas, columns) arrays "mu", "p",
    "E", "bound" and "scaled": at deltas[i] and the j-th (p, E) pair of
    smoothness, mu = select_mu(delta, E, p), bound = error_bound(delta, p,
    mu) and scaled = E * error_bound(delta / E, p, mu)."""
    if any(d <= 0 for d in deltas):
        raise ValueError("the rule needs delta > 0 for every delta")
    cells = []
    for d in deltas:
        for p, E in smoothness:
            mu = select_mu(d, E, p)
            bound = error_bound(d, p, mu)
            cells.append((mu, p, E, bound, E * error_bound(d / E, p, mu)))
    table = np.array(cells).reshape(len(deltas), len(smoothness), 5)
    return dict(zip(("mu", "p", "E", "bound", "scaled"), table.transpose(2, 0, 1)))


# The columns of the sweep CSV and of fig5.csv.
_SUMMARY_HEADER = ["mu", "delta", "mean_rel_error", "stderr_rel_error"]


def _sweep_summary(config: SweepConfig) -> np.ndarray:
    """The (4, keys) columns (mu, delta, mean, stderr) of the `sweep` CSV
    of config, explicit mus or RULE_MUS, folded from the relative errors
    of its cells by _fold_summary."""
    f_true, f_norm = _source_norm(config)
    columns = _columns(config)
    _, _, _, errors = _cells(config, columns, f_true)
    return _fold_summary(config, columns, errors / f_norm)


def _fold_summary(config: SweepConfig, columns, rel_errors) -> np.ndarray:
    """The (4, keys) columns (mu, delta, mean, stderr) of the (deltas,
    columns, replicates) relative errors of _cells over columns, one per
    (mu, delta) key, sorted by (mu, delta).

    The deltas x columns columns are sorted by (mu, delta), then p, then
    position (delta index, then column); equal keys, -0.0 and 0.0
    included, merge, and a merged key shows its first sorted column's mu
    and delta.  Its values go to _mean_stderr by p, then replicate, then
    position, the order of the sorted run_mu_sweep or run_rule_comparison
    records, so columns of one p interleave by replicate.  Every column at
    one delta inverts the same draws, so only a repeated delta adds
    independent values; a repeated mu (or a p giving the same mu) adds
    copies, and the merged stderr counts them as independent."""
    replicates = config.replicates
    mus = columns["mu"].ravel()
    deltas = np.repeat(config.deltas, columns["mu"].shape[1])
    # An explicit sweep has no p; every column sorts as p = 0.0.
    ps = columns["p"].ravel() if "p" in columns else np.zeros(len(mus))
    # lexsort is stable, so ties keep position order.
    order = np.lexsort((ps, deltas, mus))
    mus, deltas, ps = mus[order], deltas[order], ps[order]
    new_key = np.ones(len(order), dtype=bool)
    new_key[1:] = (mus[1:] != mus[:-1]) | (deltas[1:] != deltas[:-1])
    new_run = new_key.copy()
    new_run[1:] |= ps[1:] != ps[:-1]
    # The values of a run of w sorted columns of one key and p go in
    # replicate order, so its (w, replicates) block is stored transposed.
    values = rel_errors.reshape(-1, replicates)[order]
    run_starts = np.flatnonzero(new_run)
    widths = np.diff(run_starts, append=len(order))
    for a, w in zip(run_starts[widths > 1].tolist(), widths[widths > 1].tolist()):
        values[a:a + w] = values[a:a + w].T.reshape(w, replicates)
    values = values.reshape(-1)

    key_starts = np.flatnonzero(new_key)
    counts = np.diff(key_starts, append=len(order)) * replicates
    starts = key_starts * replicates
    means, stderrs = np.empty((2, len(key_starts)))
    for count in set(counts.tolist()):
        (which,) = np.nonzero(counts == count)
        table = values[starts[which][:, None] + np.arange(count)]
        means[which], stderrs[which] = _mean_stderr(table)
    return np.array([mus[key_starts], deltas[key_starts], means, stderrs])


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
    mus = _columns(config)["mu"]
    mu_rows, table = _mu_table(grid, mus)
    weights = _parseval_weights(grid)
    g_half = np.fft.rfft(exact_data(config.source, grid).values)
    bias = _power(table * g_half - np.fft.rfft(f_true.values)) @ weights
    gain = grid.n * (np.square(table) @ weights)
    out = {}
    for delta, row in zip(config.deltas, mus.tolist()):
        variance = delta * delta
        if config.noise_mode != "iid":
            variance /= grid.length
        for mu in row:
            k = mu_rows[mu]
            out[(mu, delta)] = math.sqrt(bias[k] + variance * gain[k]) / f_norm
    return out


def run_mu_sweep(config: SweepConfig) -> list:
    """Evaluate every (delta, mu, replicate) cell with explicit mus.

    Returns SweepRecords sorted by (delta, mu, replicate) values.  A
    cell's noisy data is its noise row plus the exact data, added in that
    order, and its errors come from _cells' Parseval sums.
    summarize_rel_error, `sweep` and fig5 summarize the same cells' error
    array, building no records.
    """
    if isinstance(config.mus, str):
        raise ValueError(
            "run_mu_sweep needs explicit mus; use run_rule_comparison for "
            f"mus={RULE_MUS!r}"
        )
    return _sweep_records(config, "mu")


def run_rule_comparison(config: SweepConfig) -> list:
    """Evaluate every (delta, p, replicate) cell with mu from the rule (E=1).

    Each record carries the rule's mu, the p that produced it, and the
    theoretical bound error_bound(delta, p, mu).  Requires mus=RULE_MUS and
    strictly positive deltas (the rule is undefined at delta=0).  Cells,
    sum order and record building are run_mu_sweep's; the records are
    sorted by (delta, p, replicate) values.
    """
    if config.mus != RULE_MUS:
        raise ValueError(f"run_rule_comparison requires mus={RULE_MUS!r}")
    return _sweep_records(config, "p")


class BoundFinding(NamedTuple):
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


def run_bound_check(config: Optional[SweepConfig] = None) -> list:
    """Check the error guarantee under its exact hypotheses, cell by cell.

    The guarantee assumes ||g_delta - K f|| <= delta for the f the errors
    are measured against, the sampled source f_n less its mean (which no
    estimator recovers), so the noiseless data is K f_n = solve_forward(f_n).
    Sweeps and figures keep exact_data, whose refined forward solve of a
    hat differs from K f_n by a discretization error that no delta counts.
    Uses norm-calibrated noise (so the data error is delta exactly),
    E = sobolev_norm(f_n, p), mu = select_mu(delta, E, p), and compares the
    measured absolute error against both bound forms.  Returns one
    BoundFinding per cell regardless of outcome, so callers can report
    violations as structured records or confirm there are none.
    """
    if config is None:
        config = dataclasses.replace(
            default_config(), mus=RULE_MUS, noise_mode="norm_calibrated"
        )
    if config.noise_mode != "norm_calibrated":
        raise ValueError("the bound check requires norm_calibrated noise")
    f_true = _zero_mean(sample_source(config.source, config.grid), demean=True)
    smoothness = [(p, sobolev_norm(f_true, p)) for p in config.p_values]
    columns = _rule_columns(config.deltas, smoothness)
    data = solve_forward(f_true)
    seeds, _, _, errors = _cells(config, columns, f_true, data)
    fields = [columns[name].tolist() for name in ("mu", "p", "E", "bound", "scaled")]
    rows = [
        (delta, p, r, seed, mu, E, err, raw, scaled, err > raw, err > scaled)
        for delta, seed, row_errs, *row in zip(
            config.deltas, seeds, errors.tolist(), *fields
        )
        for col, mu, p, E, raw, scaled in zip(row_errs, *row)
        for r, err in enumerate(col)
    ]
    rows.sort(key=itemgetter(0, 1, 2))
    return list(map(BoundFinding._make, rows))


def _mean_stderr(table: np.ndarray) -> tuple:
    """(means, standard errors) of the rows of a 2-D array, reduced along
    the last axis, so each row rounds as np.mean/np.std of it alone; the
    standard error of a one-value row is 0."""
    mean = np.mean(table, axis=-1)
    if table.shape[-1] < 2:
        return mean, np.zeros_like(mean)
    return mean, np.std(table, axis=-1, ddof=1) / math.sqrt(table.shape[-1])


def summarize_rel_error(config: SweepConfig) -> dict:
    """{(mu, delta): (mean_rel_error, stderr_rel_error)} over the cells of
    config, with explicit mus or RULE_MUS: the rows of its `sweep` CSV, in
    their (mu, delta) order, as _fold_summary merges and folds them."""
    if not isinstance(config, SweepConfig):
        raise TypeError(f"summarize_rel_error takes a SweepConfig, not {type(config)}")
    mus, deltas, means, stderrs = _sweep_summary(config).tolist()
    return dict(zip(zip(mus, deltas), zip(means, stderrs)))


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


def reproduce_figures(out_dir, config: Optional[SweepConfig] = None) -> list:
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
    it, as the sweep does.  fig5 is _fold_summary of the errors, the
    sweep's bytes: its columns sorted by (mu, delta), then p, then
    position, and equal keys merged by p, then replicate, then position.
    The five tables go to one format_tables call, the writer write_csv
    uses, as lists of positions in one list of columns: while those hold
    at most _floatfmt._POOL_MAX_VALUES values, one formatter pass covers
    x, f_true, every estimate column written and fig5's columns, each
    once; past it, each table is written in chunks.  Every table is built
    before any file is written, so a config that fails writes no file.
    All outputs are byte-deterministic for a given config.  Returns the
    sorted list of created paths.
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
        estimates = _filter_rows(draws[:, None, :], _regularized_table(
            grid.half_frequencies, mus[:, :, None]))
    for delta, block in zip(config.deltas, estimates):
        if not np.isfinite(block).all():
            raise ValueError(f"noise level delta={delta!r} overflows the estimates")

    headers = {"fig1": ["x", "f_true"] + [
        f"f_unregularized_delta_{d:g}" for d in config.deltas]}
    for i, mu_set in enumerate(mu_sets):
        headers[f"fig{i + 2}"] = ["x", "f_true"] + [
            f"f_regularized_mu_{mu:.4g}" for mu in mu_set]
    headers["fig5"] = _SUMMARY_HEADER
    summary = _fold_summary(config, columns, errors / f_norm)

    # x, f_true, fig1's columns and each panel's four, then fig5's four.
    series = [grid.points, f_true.values, *estimates[:, 0],
              *itertools.chain.from_iterable(estimates[:len(mu_sets), 1:]), *summary]
    fig1_cols = 2 + len(config.deltas)
    tables = [range(fig1_cols)] + [
        [0, 1, *range(fig1_cols + 4 * i, fig1_cols + 4 * i + 4)]
        for i in range(len(mu_sets))
    ] + [range(len(series) - len(summary), len(series))]

    created = []
    for (name, header), body in zip(headers.items(), format_tables(series, tables)):
        path = out / f"{name}.csv"
        _write_text(path, header, body)
        created.append(path)
    scripts = {
        name: _GNUPLOT_SERIES.format(
            ylabel="f", png=f"{name}.png",
            plots=_series_plot(f"{name}.csv", len(header)),
        )
        for name, header in headers.items() if name != "fig5"
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
