"""Quadrature-based cross-check of the FFT inversion pipeline.

The oracle agrees with the pipeline only when its nodes align with the
grid frequencies (see the module docstring); every agreement test below
therefore passes aligned_spec explicitly.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sourcefft.inversion import (
    estimate_source_regularized,
    sobolev_norm,
    solve_forward,
)
from sourcefft.noise_lab import relative_l2_error
from sourcefft.quadrature_oracle import (
    QuadratureSpec,
    aligned_spec,
    continuous_ft,
    invert_via_quadrature,
    sobolev_norm_via_quadrature,
)
from sourcefft.source_models import cosine_source, exact_data, sample_source
from sourcefft.spectral_core import (
    RealSignal,
    make_grid,
    regularized_multiplier,
    to_spectrum,
)

TWO_PI = 2.0 * math.pi


class TestQuadratureSpec:
    def test_rejects_small_node_count(self):
        with pytest.raises(ValueError, match="64"):
            QuadratureSpec(xi_max=8.0, m=32)

    def test_rejects_bad_xi_max(self):
        with pytest.raises(ValueError, match="xi_max"):
            QuadratureSpec(xi_max=0.0, m=129)
        with pytest.raises(ValueError, match="xi_max"):
            QuadratureSpec(xi_max=math.inf, m=129)

    def test_even_count_bumped_to_odd(self):
        spec = QuadratureSpec(xi_max=8.0, m=64)
        assert spec.node_count == 65
        assert QuadratureSpec(xi_max=8.0, m=65).node_count == 65

    def test_nodes_and_weights(self):
        spec = QuadratureSpec(xi_max=8.0, m=65)
        nodes, weights = spec.nodes_and_weights()
        assert nodes.shape == weights.shape == (65,)
        assert nodes[0] == -8.0 and nodes[-1] == 8.0
        assert nodes[32] == 0.0  # exact, not just tiny
        assert np.all(np.diff(nodes) > 0)
        h = 8.0 / 32
        assert weights[0] == pytest.approx(h / 2.0)
        assert weights[-1] == pytest.approx(h / 2.0)
        assert np.allclose(weights[1:-1], h)
        assert np.sum(weights) == pytest.approx(16.0, rel=1e-12)


class TestSpecFactories:
    def test_aligned_matches_grid(self):
        grid = make_grid(64, 0.0, TWO_PI)
        spec = aligned_spec(grid)
        assert spec.xi_max == grid.nyquist == 32.0
        assert spec.node_count == 65
        nodes, _ = spec.nodes_and_weights()
        assert np.allclose(np.diff(nodes), TWO_PI / grid.length)

    def test_aligned_rejects_coarse_grids(self):
        with pytest.raises(ValueError, match="64"):
            aligned_spec(make_grid(32, 0.0, TWO_PI))


class TestContinuousFt:
    def test_zero_signal(self):
        grid = make_grid(64, 0.0, TWO_PI)
        z = RealSignal(grid, np.zeros(grid.n))
        out = continuous_ft(z, np.array([0.0, 1.0, 5.5]))
        assert np.all(out == 0)

    def test_cosine_peak_value(self, default_grid):
        f = RealSignal(default_grid, np.cos(default_grid.points))
        out = continuous_ft(f, np.array([1.0, -1.0]))
        expected = math.sqrt(math.pi / 2.0)
        assert abs(out[0] - expected) < 1e-10 * expected
        assert abs(out[1] - expected) < 1e-10 * expected

    def test_off_peak_vanishes(self, default_grid):
        f = RealSignal(default_grid, np.cos(default_grid.points))
        out = continuous_ft(f, np.array([0.0, 2.0, 3.0]))
        assert np.max(np.abs(out)) < 1e-12

    def test_matches_fft_scaling_on_grid_frequencies(self):
        # continuous_ft(s, xi_k) = dx * exp(-i xi_k x_min) * C_k / sqrt(2 pi)
        # on every grid frequency, including for shifted domains.
        # Measured agreement: 2e-14 relative.
        for x_min in (0.0, 1.0):
            grid = make_grid(128, x_min, x_min + TWO_PI)
            rng = np.random.Generator(np.random.PCG64(3))
            s = RealSignal(grid, rng.standard_normal(grid.n))
            xi = grid.frequencies
            lhs = continuous_ft(s, xi)
            rhs = (
                grid.dx
                * np.exp(-1j * xi * grid.x_min)
                * to_spectrum(s).coeffs
                / math.sqrt(TWO_PI)
            )
            scale = np.max(np.abs(rhs))
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale


class TestInvertViaQuadrature:
    @pytest.fixture
    def cosine_data(self):
        grid = make_grid(64, 0.0, TWO_PI)
        f = sample_source(cosine_source(), grid)
        g = exact_data(cosine_source(), grid)
        return grid, f, g

    def test_unregularized_recovers_cosine(self, cosine_data):
        grid, f, g = cosine_data
        rec = invert_via_quadrature(g, 0.0, aligned_spec(grid))
        # measured 2.8e-12; the kernel's kink at xi = 0 dominates the error
        assert np.max(np.abs(rec.values - f.values)) < 1e-4

    def test_mu_one_halves_the_mode(self, cosine_data):
        grid, f, g = cosine_data
        rec = invert_via_quadrature(g, 1.0, aligned_spec(grid))
        assert np.max(np.abs(rec.values - 0.5 * f.values)) < 1e-10

    def test_agrees_with_pipeline_when_aligned(self, cosine_data, band_limited):
        grid, _, _ = cosine_data
        spec = aligned_spec(grid)
        for seed in range(5):
            f = band_limited(grid, seed)
            g = solve_forward(f)
            for mu in (0.0, 0.5, 1.0, 3.0):
                a = invert_via_quadrature(g, mu, spec)
                b = estimate_source_regularized(g, mu)
                assert relative_l2_error(a, b) < 1e-6

    # The band_limited fixture is a stateless factory, safe to share.
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        half_n=st.integers(32, 128),
        length=st.floats(-1.0, 3.0).map(lambda e: 10.0 ** e),
        x_min=st.floats(-50.0, 50.0),
        mu=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_pipeline_within_rounding(self, band_limited, half_n,
                                                  length, x_min, mu, seed):
        """Over drawn grids: n in [64, 256], length 0.1 to 1000 (log
        uniform), x_min in [-50, 50], mu = 0 or in [1e-3, 10].

        The two agree up to the oracle's rounding.  With u = 2^-53, Theta
        = max |xi_j x_l| over its nodes and points, A = sum_l w_l |g_l| /
        sqrt(2 pi), which bounds every |g_hat_j|, and S = sum_j h_j G_j /
        sqrt(2 pi), the gain of the kernel G on the nodes: each phase
        xi_j x_l is off by at most about 3 u Theta (node, point and their
        product rounded), so every term of the transform and of its
        inverse by (3 Theta + 2) u, and each sum of N <= n + 1 terms adds
        N u of its terms' magnitudes.  So |oracle - pipeline| <=
        u (6 Theta + 2n + 16) S A, the pipeline's FFT rounding included,
        below the 8 u (Theta + n) S A asserted.  The largest share of
        u (Theta + n) S A seen over 1,800 random draws was 0.038.
        """
        grid = make_grid(2 * half_n, x_min, x_min + length)
        g = solve_forward(band_limited(grid, seed))
        spec = aligned_spec(grid)
        a = invert_via_quadrature(g, mu, spec).values
        b = estimate_source_regularized(g, mu).values
        nodes, weights = spec.nodes_and_weights()
        theta = nodes[-1] * max(abs(x_min), abs(x_min + length))
        gain = weights @ regularized_multiplier(nodes, mu) / math.sqrt(TWO_PI)
        amp = grid.dx * np.sum(np.abs(g.values)) / math.sqrt(TWO_PI)
        u = np.finfo(float).eps / 2
        assert np.max(np.abs(a - b)) <= 8 * u * (theta + grid.n) * gain * amp

    def test_rejects_mu_below_zero(self, cosine_data):
        grid, _, g = cosine_data
        with pytest.raises(ValueError, match="mu"):
            invert_via_quadrature(g, -1.0, aligned_spec(grid))

    def test_rejects_truncated_band(self, cosine_data):
        grid, _, g = cosine_data
        with pytest.raises(ValueError, match="largest frequency"):
            invert_via_quadrature(g, 1.0, QuadratureSpec(xi_max=8.0, m=129))

    def test_self_convergence_under_node_refinement(self):
        # Richardson-style check at fixed xi_max: halving the spacing must
        # shrink consecutive differences by >= 3x.  Measured ratios ~16.
        grid = make_grid(16, 0.0, TWO_PI)
        g = exact_data(cosine_source(), grid)
        recs = [
            invert_via_quadrature(g, 1.0, QuadratureSpec(xi_max=8.0, m=m))
            for m in (129, 257, 513, 1025)
        ]
        diffs = [
            float(np.sqrt(grid.dx * np.sum((a.values - b.values) ** 2)))
            for a, b in zip(recs, recs[1:])
        ]
        for coarse, fine in zip(diffs, diffs[1:]):
            assert coarse >= 3.0 * fine


class TestSobolevViaQuadrature:
    def test_zero(self):
        grid = make_grid(64, 0.0, TWO_PI)
        z = RealSignal(grid, np.zeros(grid.n))
        assert sobolev_norm_via_quadrature(z, 1.0, aligned_spec(grid)) == 0.0

    def test_cosine_l2(self, default_grid):
        f = RealSignal(default_grid, np.cos(default_grid.points))
        val = sobolev_norm_via_quadrature(f, 0.0, aligned_spec(default_grid))
        assert val == pytest.approx(math.sqrt(math.pi), rel=1e-3)

    def test_agrees_with_pipeline_norm(self, default_grid):
        f = RealSignal(default_grid, np.cos(default_grid.points))
        spec = aligned_spec(default_grid)
        for p in (0.0, 1.0, 2.0):
            a = sobolev_norm_via_quadrature(f, p, spec)
            b = sobolev_norm(f, p)
            assert a == pytest.approx(b, rel=1e-3)
