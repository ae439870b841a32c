"""Shared fixtures for the test suite."""

import math
import sys

import numpy as np
import pytest

from sourcefft import make_grid
from sourcefft.spectral_core import RealSignal


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Re-print the acceptance verdict lines after the capture machinery is
    # done with them, so they survive a plain `pytest` run.
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def default_grid():
    return make_grid(256, 0.0, 2.0 * math.pi)


@pytest.fixture
def band_limited():
    """Factory for seeded random band-limited mean-zero real signals.

    The spectrum is supported on 1 <= |k| <= k_max (default n//8, well below
    the top quarter), so these signals are exactly representable on the grid
    and exactly mean-free.
    """

    def make(grid, seed, k_max=None):
        n = grid.n
        if k_max is None:
            k_max = n // 8
        assert 1 <= k_max < n // 2
        rng = np.random.Generator(np.random.PCG64(seed))
        coeffs = np.zeros(n, dtype=complex)
        for k in range(1, k_max + 1):
            c = rng.standard_normal() + 1j * rng.standard_normal()
            coeffs[k] = c
            coeffs[n - k] = np.conj(c)
        return RealSignal(grid, np.fft.ifft(coeffs).real)

    return make


@pytest.fixture(scope="session")
def reference_summary():
    """A reference for summarize_rel_error, `sweep` and fig5, folded from
    the records of run_mu_sweep or run_rule_comparison one group at a time:
    {(mu, delta): (mean, stderr)} of their rel_error, grouped by (mu, delta)
    in record order (-0.0 and 0.0 are one key, as first seen), with np.mean
    and np.std(ddof=1) / sqrt(count) of each group, 0.0 for one value."""

    def summarize(records):
        groups = {}
        for rec in records:
            groups.setdefault((rec.mu, rec.delta), []).append(rec.rel_error)
        return {
            key: (float(np.mean(values)), float(
                np.std(values, ddof=1) / math.sqrt(len(values))
                if len(values) > 1 else 0.0))
            for key, values in groups.items()
        }

    return summarize
