"""Acceptance suite: one test per shipped guarantee, A1 through A10, plus
A5b beside A5.

Each test prints a single PASS/FAIL line (with the measured quantity and
runtime) directly to the real stdout so the verdicts stay visible under
pytest's capture, then asserts.  A FAIL line followed by the assertion
error is the expected shape for a genuinely failing criterion.
"""

import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from sourcefft.cli import main
from sourcefft.experiments import (
    RULE_MUS,
    SweepConfig,
    default_config,
    expected_rel_error,
    run_bound_check,
    run_rule_comparison,
    summarize_rel_error,
)
from sourcefft.inversion import (
    error_bound,
    estimate_source_regularized,
    estimate_source_unregularized,
    select_mu,
    solve_forward,
)
from sourcefft.noise_lab import relative_l2_error
from sourcefft.quadrature_oracle import aligned_spec, invert_via_quadrature
from sourcefft.source_models import (
    cosine_source,
    exact_data,
    hat_source,
    sample_source,
)
from sourcefft.spectral_core import make_grid

TWO_PI = 2.0 * math.pi

REPORT_LINES = []


def _report(name, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    line = f"{name}: {verdict} ({detail})"
    REPORT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def test_a1_closed_form_forward(default_grid):
    with _Timer() as t:
        f = sample_source(cosine_source(), default_grid)
        g = solve_forward(f)
        expected = -math.expm1(-1.0) * np.cos(default_grid.points)
        err = float(np.max(np.abs(g.values - expected)))
    ok = err < 1e-10 and t.elapsed < 0.1
    _report("A1 closed-form forward", ok, f"max error {err:.1e}, {t.elapsed:.3f}s")
    assert err < 1e-10
    assert t.elapsed < 0.1


def test_a2_noiseless_recovery(default_grid):
    with _Timer() as t:
        f = sample_source(cosine_source(), default_grid)
        g = exact_data(cosine_source(), default_grid)
        rel = relative_l2_error(estimate_source_unregularized(g), f)
    ok = rel < 1e-8 and t.elapsed < 0.1
    _report("A2 noiseless recovery", ok, f"rel error {rel:.1e}, {t.elapsed:.3f}s")
    assert rel < 1e-8
    assert t.elapsed < 0.1


def test_a3_instability_demonstrated():
    with _Timer() as t:
        cfg = SweepConfig(
            source=cosine_source(),
            grid=make_grid(256, 0.0, TWO_PI),
            deltas=(0.1,),
            mus=(0.0, 3.0),
            p_values=(1.0,),
            replicates=20,
            base_seed=42,
        )
        summary = summarize_rel_error(cfg)
        factor = summary[(0.0, 0.1)][0] / summary[(3.0, 0.1)][0]
    # measured on this seeded run: factor ~= 1129
    ok = factor >= 5.0 and t.elapsed < 5.0
    _report("A3 instability demonstrated", ok, f"factor {factor:.0f}x, {t.elapsed:.2f}s")
    assert factor >= 5.0
    assert t.elapsed < 5.0


def test_a4_rule_improves_on_unregularized():
    with _Timer() as t:
        deltas = (0.015, 0.05, 0.1)
        raw_cfg = SweepConfig(
            source=cosine_source(),
            grid=make_grid(256, 0.0, TWO_PI),
            deltas=deltas,
            mus=(0.0,),
            p_values=(1.0,),
            replicates=20,
            base_seed=42,
        )
        raw = summarize_rel_error(raw_cfg)
        rule = run_rule_comparison(replace(raw_cfg, mus=RULE_MUS))
        gains = {}
        for delta in deltas:
            rule_mean = float(
                np.mean([r.rel_error for r in rule if r.delta == delta and r.p == 1.0])
            )
            gains[delta] = (rule_mean, raw[(0.0, delta)][0])
        improved = all(r < u for r, u in gains.values())
    ok = improved and t.elapsed < 10.0
    detail = ", ".join(f"d={d:g}: {r:.3f} vs {u:.0f}" for d, (r, u) in gains.items())
    _report("A4 rule improves on mu=0", ok, f"{detail}; {t.elapsed:.2f}s")
    assert improved
    assert t.elapsed < 10.0


def closed_form_argmins(config):
    """{delta: the mu of least expected_rel_error}, for the report only."""
    curves = {}
    for (mu, delta), rms in expected_rel_error(config).items():
        curves.setdefault(delta, {})[mu] = rms
    return {delta: min(curve, key=curve.get) for delta, curve in curves.items()}


def test_a5_interior_optimum_near_three():
    with _Timer() as t:
        summary = summarize_rel_error(default_config())
        argmins = {}
        for delta in (0.015, 0.05, 0.1):
            curve = {mu: m for (mu, d), (m, _) in summary.items() if d == delta}
            argmins[delta] = min(curve, key=curve.get)
        values = list(argmins.values())
        in_window = all(1.0 <= v <= 6.0 for v in values)
        stable = all(abs(a - b) <= 2.0 for a in values for b in values)
    ok = in_window and stable and t.elapsed < 60.0
    _report(
        "A5 interior optimum near 3",
        ok,
        f"argmins {argmins}, closed-form argmins "
        f"{closed_form_argmins(default_config())}, window [1, 6], {t.elapsed:.2f}s",
    )
    assert in_window, f"argmin outside [1, 6] for some delta: {argmins}"
    assert stable
    assert t.elapsed < 60.0


def test_a5b_long_domain_optimum():
    # demos/07's configuration: a hat of half-width 32 on [0, 128 pi), whose
    # spectrum sits below xi ~ 1/32, moves the optimum to 2-3.5.  Measured
    # margins of the runner-up mu over the argmin: 12.7%, 2.7%, 1.0%.
    length = 128.0 * math.pi
    cfg = SweepConfig(
        source=hat_source(length / 2.0, 32.0),
        grid=make_grid(2048, 0.0, length),
        deltas=(0.015, 0.05, 0.1),
        mus=tuple(np.linspace(0.0, 40.0, 81)),
        p_values=(1.0,),
        replicates=10,
        base_seed=42,
    )
    with _Timer() as t:
        summary = summarize_rel_error(cfg)
        argmins = {}
        for delta in cfg.deltas:
            curve = {mu: m for (mu, d), (m, _) in summary.items() if d == delta}
            argmins[delta] = min(curve, key=curve.get)
    expected = {0.015: 2.0, 0.05: 2.5, 0.1: 3.5}
    ok = argmins == expected and t.elapsed < 10.0
    _report(
        "A5b long-domain optimum",
        ok,
        f"argmins {argmins}, closed-form argmins {closed_form_argmins(cfg)}, "
        f"expected {expected}, {t.elapsed:.2f}s",
    )
    assert argmins == expected
    assert t.elapsed < 10.0


def test_a6_parameter_range_law():
    with _Timer() as t:
        worst = 0.0
        holds = True
        for k in range(0, 7):
            delta = 10.0 ** (-k)
            for p in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0):
                mu = select_mu(delta, 1.0, p)
                holds = holds and (delta <= mu * mu <= 1.0)
                worst = max(worst, delta - mu * mu, mu * mu - 1.0)
    ok = holds and t.elapsed < 0.1
    _report("A6 parameter range law", ok, f"42 cells exact, {t.elapsed:.3f}s")
    assert holds
    assert t.elapsed < 0.1


def test_a7_bound_evaluator():
    with _Timer() as t:
        val = error_bound(0.01, 2.0, select_mu(0.01, 1.0, 2.0))
        gap = abs(val - 0.3)
    ok = gap < 1e-12 and t.elapsed < 0.1
    _report("A7 bound evaluator", ok, f"value {val!r}, gap {gap:.1e}, {t.elapsed:.3f}s")
    assert gap < 1e-12
    assert t.elapsed < 0.1


def test_a8_bound_holds_suite():
    with _Timer() as t:
        findings = run_bound_check()
        violations = [f for f in findings if f.violates_raw]
        worst = max(f.error / f.bound_raw for f in findings)
    # The suite must run and report either way; violations are acceptable
    # when each is emitted as a structured finding record.
    structured = all(
        f.bound_raw > 0 and f.seed is not None for f in violations
    )
    ok = (not violations or structured) and t.elapsed < 10.0
    _report(
        "A8 bound-holds suite",
        ok,
        f"{len(findings)} cells, {len(violations)} violations,"
        f" worst ratio {worst:.2f}, {t.elapsed:.2f}s",
    )
    assert not violations or structured
    assert len(findings) == 120
    assert t.elapsed < 10.0


def test_a9_oracle_equivalence(band_limited):
    with _Timer() as t:
        grid = make_grid(64, 0.0, TWO_PI)
        spec = aligned_spec(grid)
        worst = 0.0
        for seed in range(20):
            f = band_limited(grid, seed)
            g = solve_forward(f)
            for mu in (0.0, 0.5, 1.0, 3.0):
                a = invert_via_quadrature(g, mu, spec)
                b = (
                    estimate_source_unregularized(g)
                    if mu == 0.0
                    else estimate_source_regularized(g, mu)
                )
                worst = max(worst, relative_l2_error(a, b))
    ok = worst < 1e-6 and t.elapsed < 30.0
    _report("A9 oracle equivalence", ok, f"worst rel {worst:.1e}, {t.elapsed:.2f}s")
    assert worst < 1e-6
    assert t.elapsed < 30.0


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_a10_determinism(tmp_path, capsys):
    # Two runs of each command, with and without the --workers flag that
    # the CLI keeps and ignores, write the same bytes.
    with _Timer() as t:
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["figures", "--out", str(out_a)]) == 0
        assert main(["figures", "--out", str(out_b), "--workers", "2"]) == 0
        capsys.readouterr()
        figures_a, figures_b = _dir_bytes(out_a), _dir_bytes(out_b)
        csvs_identical = len(figures_a) == 10 and figures_a == figures_b
        sweeps = []
        for workers in ("1", "8"):
            assert main(["sweep", "--workers", workers]) == 0
            sweeps.append(capsys.readouterr().out)
        schedule_free = sweeps[0] != "" and sweeps[0] == sweeps[1]
    ok = csvs_identical and schedule_free and t.elapsed < 120.0
    _report(
        "A10 determinism",
        ok,
        f"CSVs identical: {csvs_identical}, schedule-free: {schedule_free},"
        f" {t.elapsed:.2f}s",
    )
    assert csvs_identical
    assert schedule_free
    assert t.elapsed < 120.0
