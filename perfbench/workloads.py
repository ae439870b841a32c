"""The benchmark's three workloads: their inputs, operations and output checks.

Each workload is a closed loop run by one client in this process.  One loop
iteration runs a fixed list of operations.  Operations reach sourcefft
through module attributes looked up at call time (``cli.main``,
``experiments.run_bound_check``, ...) so a traced run sees every call.

Inputs come from the benchmark seed only: iteration i of a run with seed s
uses the seeds ``iteration_seed(s, i)``, so the same seed gives the same
inputs and no two iterations repeat one.  Output checks compare against
references computed here with numpy, never against sourcefft's own helpers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import random
import shutil
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from sourcefft import cli, experiments, inversion, noise_lab, source_models, spectral_core

LARGE_N = 1 << 20
LARGE_DELTA = 0.05
LARGE_LENGTH = 2.0 * math.pi  # the command line's default domain [0, 2 pi)
# Relative L2 distance allowed between an estimate and the filter formula
# evaluated here with numpy's real FFT.  Both are a few roundings of an
# FFT pair apart (about 1e-15); 1e-9 leaves room for a different but exact
# transform, and still catches a wrong mu, multiplier or input column.
ESTIMATE_RTOL = 1e-9
SWEEP_HEADER = "mu,delta,mean_rel_error,stderr_rel_error"
# The default config's noise levels and smoothness orders.
DEFAULT_DELTAS = (0.015, 0.05, 0.1)
DEFAULT_P_VALUES = (1.0, 2.0)


def iteration_seed(seed: int, iteration: int) -> int:
    """A 32-bit seed for one loop iteration, a pure function of its inputs."""
    return random.Random(f"{seed}/{iteration}").getrandbits(32)


@dataclasses.dataclass
class Op:
    """One timed operation: run() is timed, check(result) is not.

    check returns None when the output is right, else a one-line reason.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def run_cli(argv):
    """Call the command line entry point in-process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _exit_ok(result):
    code, err = result
    if code != 0:
        return f"exit code {code}: {err.strip()[-200:]}"
    return None


def filter_reference(g, length, mu):
    """xi^2 / ((1 - e^{-|xi|}) (1 + xi^2 mu^2)) applied to g, via numpy's rfft."""
    n = g.size
    xi = 2.0 * np.pi * np.fft.rfftfreq(n, d=length / n)
    m = np.zeros_like(xi)
    a = xi[1:]
    m[1:] = a * a / (-np.expm1(-a) * (1.0 + (a * mu) ** 2))
    return np.fft.irfft(np.fft.rfft(g) * m, n)


def rel_l2(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def read_csv(path):
    """Header and float columns of a CSV written by sourcefft."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


class Workload:
    """Base: a work directory, the seed, and per-iteration operations."""

    name = ""
    n = 0
    # End-to-end slots of BENCHMARK.json -> the operations each one times.
    # A slot naming one operation takes every run of it as a sample; a slot
    # naming several takes their per-iteration sum.
    slots = {}

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        # Sizes of the files the command line operations read and wrote.
        self.bytes_read = 0
        self.bytes_written = 0

    def ops(self, iteration: int):
        raise NotImplementedError

    def _count(self, read=(), written=()):
        self.bytes_read += sum(Path(p).stat().st_size for p in read)
        self.bytes_written += sum(
            f.stat().st_size for p in written
            for f in (Path(p).iterdir() if Path(p).is_dir() else [Path(p)])
        )


class MuSweep(Workload):
    """`sweep` (workers=1) then `figures --workers 2`, default config, n=256."""

    name = "mu-sweep"
    n = 256
    slots = {"op1": ("sweep",), "op2": ("figures",)}
    figure_files = 10

    def ops(self, iteration):
        base_seed = iteration_seed(self.seed, iteration)
        cfg = self.dir / "sweep.cfg"
        cfg.write_text(f"base_seed = {base_seed}\n", encoding="utf-8")
        sweep_csv = self.dir / "sweep.csv"
        fig_dir = self.dir / "figures"
        sweep_csv.unlink(missing_ok=True)
        shutil.rmtree(fig_dir, ignore_errors=True)

        def check_sweep(result):
            problem = _exit_ok(result)
            if problem:
                return problem
            self._count(read=[cfg], written=[sweep_csv])
            return check_mu_sweep_csv(sweep_csv)

        def check_figures(result):
            problem = _exit_ok(result)
            if problem:
                return problem
            self._count(read=[cfg], written=[fig_dir])
            files = sorted(p.name for p in fig_dir.iterdir())
            if len(files) != self.figure_files:
                return f"figures wrote {len(files)} files, expected {self.figure_files}"
            # Same config at workers 2 and 1 must give the same bytes.
            if (fig_dir / "fig5.csv").read_bytes() != sweep_csv.read_bytes():
                return "fig5.csv (workers=2) differs from the sweep CSV (workers=1)"
            return None

        return [
            Op("sweep", lambda: run_cli(
                ["sweep", "--config", str(cfg), "--workers", "1",
                 "--out", str(sweep_csv)]), check_sweep),
            Op("figures", lambda: run_cli(
                ["figures", "--config", str(cfg), "--workers", "2",
                 "--out", str(fig_dir)]), check_figures),
        ]


def check_mu_sweep_csv(path):
    header, data = read_csv(path)
    if ",".join(header) != SWEEP_HEADER:
        return f"unexpected header {header}"
    if data.shape != (243, 4) or not np.all(np.isfinite(data)):
        return f"expected 243 finite rows of 4, got shape {data.shape}"
    for delta in np.unique(data[:, 1]):
        rows = data[data[:, 1] == delta]
        at_zero = rows[rows[:, 0] == 0.0, 2]
        if at_zero.size != 1 or not at_zero[0] > 1.0:
            return f"delta={delta:g}: mean rel. error at mu=0 is not > 1"
        if not rows[:, 2].min() < 1.0:
            return f"delta={delta:g}: no mu reaches mean rel. error < 1"
    return None


class RuleCells(Workload):
    """`run_bound_check()` (120 cells) then `sweep` with `mus = rule` (120 cells)."""

    name = "rule-cells"
    n = 256
    slots = {"op1": ("bound_check",), "op2": ("rule_sweep",)}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.bound_config = dataclasses.replace(
            experiments.default_config(), mus=experiments.RULE_MUS,
            noise_mode="norm_calibrated",
        )
        self.rule_mus = sorted(
            d ** (1.0 / (p + 2.0)) for d in DEFAULT_DELTAS for p in DEFAULT_P_VALUES
        )

    def ops(self, iteration):
        base_seed = iteration_seed(self.seed, iteration)
        config = dataclasses.replace(self.bound_config, base_seed=base_seed)
        cfg = self.dir / "rule.cfg"
        cfg.write_text(f"mus = rule\nbase_seed = {base_seed}\n", encoding="utf-8")
        out = self.dir / "rule.csv"
        out.unlink(missing_ok=True)

        def check_bound(findings):
            if len(findings) != 120:
                return f"expected 120 findings, got {len(findings)}"
            bad = [f for f in findings if f.violates_raw or f.violates_scaled]
            if bad:
                return f"{len(bad)} cells violate the error bound"
            if not all(math.isfinite(f.error) for f in findings):
                return "non-finite error in a finding"
            return None

        def check_rule_sweep(result):
            problem = _exit_ok(result)
            if problem:
                return problem
            self._count(read=[cfg], written=[out])
            header, data = read_csv(out)
            if ",".join(header) != SWEEP_HEADER:
                return f"unexpected header {header}"
            if data.shape != (6, 4) or not np.all(np.isfinite(data)):
                return f"expected 6 finite rows of 4, got shape {data.shape}"
            # mu = (delta/E)^(1/(p+2)) with E = 1, up to the rule's ulp nudges.
            if not np.allclose(np.sort(data[:, 0]), self.rule_mus, rtol=1e-12, atol=0):
                return "rule sweep mus differ from (delta)^(1/(p+2))"
            return None

        return [
            Op("bound_check", lambda: experiments.run_bound_check(config), check_bound),
            Op("rule_sweep", lambda: run_cli(
                ["sweep", "--config", str(cfg), "--out", str(out)]), check_rule_sweep),
        ]


class LargeN(Workload):
    """`simulate` and `invert --rule 1` at n=2^20 over CSV, and the API pipeline."""

    name = "large-n"
    n = LARGE_N
    slots = {"op1": ("simulate", "invert"), "op2": ("estimate",)}
    # The in-memory pipeline is ~1/70 of the CSV round trip.  Four draws
    # before, between and after the commands give its median enough samples
    # spread over the whole iteration, so a burst of machine load hits few.
    estimates_per_slot = 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        grid = spectral_core.make_grid(LARGE_N, 0.0, LARGE_LENGTH)
        spec = source_models.cosine_source()
        self.f_true = source_models.sample_source(spec, grid)
        self.g_exact = source_models.exact_data(spec, grid)
        x = 2.0 * np.pi * np.arange(LARGE_N) / LARGE_N
        self.cos_x = np.cos(x)
        self.mu = LARGE_DELTA ** (1.0 / 3.0)  # a-priori rule, p = 1, E = 1

    def ops(self, iteration):
        seed = iteration_seed(self.seed, iteration)
        sim = self.dir / "sim.csv"
        inv = self.dir / "inv.csv"
        sim.unlink(missing_ok=True)
        inv.unlink(missing_ok=True)
        consumed = {}

        def check_simulate(result):
            problem = _exit_ok(result)
            if problem:
                return problem
            self._count(written=[sim])
            header, data = read_csv(sim)
            if header != ["x", "g", "g_delta"] or data.shape != (LARGE_N, 3):
                return f"unexpected simulate output {header} {data.shape}"
            if not np.all(np.isfinite(data)):
                return "non-finite value in simulate output"
            dev = float(np.max(np.abs(data[:, 1] + math.expm1(-1.0) * self.cos_x)))
            if dev > 1e-12:
                return f"g deviates from (1 - e^-1) cos(x) by {dev:.3e}"
            consumed["g_delta"] = data[:, 2]
            return None

        def check_invert(result):
            problem = _exit_ok(result)
            if problem:
                return problem
            self._count(read=[sim], written=[inv])
            if "g_delta" not in consumed:
                return "no simulate output to compare against"
            header, data = read_csv(inv)
            if header != ["x", "f_estimate"] or data.shape != (LARGE_N, 2):
                return f"unexpected invert output {header} {data.shape}"
            ref = filter_reference(consumed["g_delta"], LARGE_LENGTH, self.mu)
            err = rel_l2(data[:, 1], ref)
            if not err <= ESTIMATE_RTOL:
                return f"invert output is {err:.3e} from the filter formula"
            return None

        simulate = Op("simulate", lambda: run_cli(
            ["simulate", "--n", str(LARGE_N), "--delta", str(LARGE_DELTA),
             "--seed", str(seed), "--out", str(sim)]), check_simulate)
        invert = Op("invert", lambda: run_cli(
            ["invert", "--input", str(sim), "--rule", "1",
             "--delta", str(LARGE_DELTA), "--out", str(inv)]), check_invert)
        noise_seeds = iter(range(seed + 1, seed + 1 + 3 * self.estimates_per_slot))

        def estimates():
            return [Op("estimate", self._estimate_op(next(noise_seeds)),
                       self._check_estimate) for _ in range(self.estimates_per_slot)]

        return estimates() + [simulate] + estimates() + [invert] + estimates()

    def _estimate_op(self, noise_seed):
        def run():
            noisy = noise_lab.add_noise(
                self.g_exact, noise_lab.NoiseSpec(LARGE_DELTA, noise_seed))
            est = inversion.estimate_source_regularized(noisy, self.mu)
            return noisy, est, noise_lab.relative_l2_error(est, self.f_true)
        return run

    def _check_estimate(self, result):
        noisy, est, err = result
        ref = filter_reference(noisy.values, LARGE_LENGTH, self.mu)
        dist = rel_l2(est.values, ref)
        if not dist <= ESTIMATE_RTOL:
            return f"estimate is {dist:.3e} from the filter formula"
        own = rel_l2(est.values, self.cos_x)
        if not abs(err - own) <= 1e-9 * own:
            return f"relative_l2_error {err!r} disagrees with {own!r}"
        return None


WORKLOADS = {w.name: w for w in (MuSweep, RuleCells, LargeN)}

