"""Grid, transform pair, and multiplier contracts."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from sourcefft.spectral_core import (
    Grid,
    RealSignal,
    Spectrum,
    apply_multiplier,
    forward_multiplier,
    from_spectrum,
    inverse_multiplier,
    make_grid,
    regularized_multiplier,
    to_spectrum,
)

TWO_PI = 2.0 * math.pi


def _expm1_multipliers(xi):
    """Reference forward and inverse symbols, evaluating -expm1 at every xi."""
    xi = np.asarray(xi, dtype=float)
    a = np.abs(xi)
    safe = np.where(a == 0.0, 1.0, a)
    fwd = np.where(a == 0.0, 0.0, -np.expm1(-a) / (safe * safe))
    denom = -np.expm1(-a)
    inv = np.where(a == 0.0, 0.0, (a * a) / np.where(denom == 0.0, 1.0, denom))
    return fwd, inv


class TestGrid:
    def test_small_grid_arithmetic(self):
        g = make_grid(8, 0.0, TWO_PI)
        assert g.dx == pytest.approx(math.pi / 4, rel=1e-15)
        assert g.points[0] == 0.0
        assert g.points[7] == pytest.approx(7 * math.pi / 4, rel=1e-15)

    def test_default_grid_spacing(self):
        g = make_grid(256, 0.0, TWO_PI)
        assert g.dx == pytest.approx(TWO_PI / 256, rel=1e-15)
        assert g.n == 256

    def test_spacing_times_n_reconstructs_length(self):
        g = make_grid(256, -1.3, 4.7)
        assert g.dx * g.n == pytest.approx(g.length, rel=1e-15)

    def test_frequency_map(self):
        g = make_grid(8, 0.0, TWO_PI)
        # length 2*pi makes xi_k = k; FFT storage order.
        assert np.allclose(g.frequencies, [0, 1, 2, 3, -4, -3, -2, -1], atol=1e-14)

    def test_frequency_map_scales_with_length(self):
        g = make_grid(16, 0.0, 1.0)
        assert g.frequencies[1] == pytest.approx(TWO_PI, rel=1e-15)
        assert g.nyquist == pytest.approx(16 * math.pi, rel=1e-15)

    @pytest.mark.parametrize("n", [7, 9, 255])
    def test_rejects_odd_n(self, n):
        with pytest.raises(ValueError, match="even"):
            make_grid(n, 0.0, 1.0)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_rejects_tiny_n(self, n):
        with pytest.raises(ValueError, match="at least 8"):
            make_grid(n, 0.0, 1.0)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError, match="x_max"):
            make_grid(8, 1.0, 1.0)
        with pytest.raises(ValueError, match="x_max"):
            make_grid(8, 2.0, 1.0)

    @pytest.mark.parametrize("x_min, x_max", [
        (-1e308, 1e308), (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0),
    ])
    def test_rejects_non_finite_length(self, x_min, x_max):
        with pytest.raises(ValueError, match="finite"):
            make_grid(8, x_min, x_max)

    @pytest.mark.parametrize("n, x_min, x_max, interval", [
        (8, 0.0, 1e-300, "[0.0, 1e-300)"),  # nyquist^2 overflows
        (8, 0.0, 1e308, "[0.0, 1e+308)"),  # (2 pi / length)^2 underflows to 0
        (256, -1e307, 1e307, "[-1e+307, 1e+307)"),
        (2**20, 0.0, 1e-150, "[0.0, 1e-150)"),
    ])
    def test_rejects_frequency_squares_out_of_range(self, n, x_min, x_max, interval):
        with pytest.raises(ValueError, match=re.escape(f"grid of n={n} on {interval} ")):
            make_grid(n, x_min, x_max)

    @pytest.mark.parametrize("n, x_min, x_max", [
        (8, 0.0, 1e-150), (8, 0.0, 1e150), (256, -1e150, 1e150),
    ])
    def test_accepts_extreme_but_representable_grids(self, n, x_min, x_max):
        g = make_grid(n, x_min, x_max)
        assert np.isfinite(g.frequencies ** 2).all()
        assert g.frequencies[1] ** 2 > 0.0

    def test_points_are_read_only(self):
        g = make_grid(8, 0.0, 1.0)
        with pytest.raises(ValueError):
            g.points[0] = 5.0


class TestSignalAndSpectrum:
    def test_signal_length_checked(self):
        g = make_grid(8, 0.0, 1.0)
        with pytest.raises(ValueError, match="shape"):
            RealSignal(g, np.zeros(7))

    def test_signal_rejects_non_finite(self):
        g = make_grid(8, 0.0, 1.0)
        vals = np.zeros(8)
        vals[3] = np.inf
        with pytest.raises(ValueError, match="finite"):
            RealSignal(g, vals)

    def test_signal_values_read_only(self):
        g = make_grid(8, 0.0, 1.0)
        s = RealSignal(g, np.arange(8.0))
        with pytest.raises(ValueError):
            s.values[0] = -1.0

    def test_signal_copies_the_callers_array(self):
        g = make_grid(8, 0.0, 1.0)
        values = np.arange(8.0)
        s = RealSignal(g, values)
        values[0] = -1.0
        assert values.flags.writeable
        assert np.array_equal(s.values, np.arange(8.0))

    def test_spectrum_coeff_indexing(self):
        g = make_grid(8, 0.0, TWO_PI)
        sp = to_spectrum(RealSignal(g, np.cos(g.points)))
        assert sp.coeff(1) == pytest.approx(4.0, rel=1e-12)
        assert sp.coeff(-1) == pytest.approx(4.0, rel=1e-12)
        with pytest.raises(ValueError, match="wavenumber"):
            sp.coeff(4)  # valid range is -4..3 for n=8

    def test_zero_signal_zero_spectrum(self):
        g = make_grid(16, 0.0, 1.0)
        sp = to_spectrum(RealSignal(g, np.zeros(16)))
        assert np.all(sp.coeffs == 0)

    def test_cosine_is_two_modes(self, default_grid):
        sp = to_spectrum(RealSignal(default_grid, np.cos(default_grid.points)))
        mags = np.abs(sp.coeffs)
        peak = mags[1]
        assert mags[-1] == pytest.approx(peak, rel=1e-12)
        others = np.delete(mags, [1, default_grid.n - 1])
        assert np.all(others < 1e-12 * peak)

    def test_round_trip_identity(self):
        g = make_grid(64, -2.0, 3.0)
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(100):
            s = RealSignal(g, rng.standard_normal(64))
            back = from_spectrum(to_spectrum(s))
            assert np.max(np.abs(back.values - s.values)) < 1e-12

    def test_spectrum_round_trip_identity(self):
        g = make_grid(32, 0.0, 1.0)
        rng = np.random.Generator(np.random.PCG64(11))
        s = RealSignal(g, rng.standard_normal(32))
        sp = to_spectrum(s)
        again = to_spectrum(from_spectrum(sp))
        assert np.max(np.abs(again.coeffs - sp.coeffs)) < 1e-12 * np.max(
            np.abs(sp.coeffs)
        )

    @pytest.mark.parametrize("scale", [1e6, 1e12])
    def test_large_spectrum_passes_residue_guard(self, scale):
        # The residue tolerance scales with the data: a valid spectrum of a
        # large signal has a large rounding residue, not a broken symmetry.
        g = make_grid(256, 0.0, TWO_PI)
        rng = np.random.Generator(np.random.PCG64(5))
        s = RealSignal(g, rng.standard_normal(256))
        sp = apply_multiplier(to_spectrum(s), inverse_multiplier)
        big = Spectrum(g, sp.coeffs * scale)
        back = from_spectrum(big).values
        assert np.max(np.abs(back - scale * from_spectrum(sp).values)) <= (
            1e-12 * np.max(np.abs(back))
        )

    def test_real_signal_spectra_conjugate_symmetric(self):
        g = make_grid(32, 0.0, 2.0)
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(20):
            sp = to_spectrum(RealSignal(g, rng.standard_normal(32)))
            scale = np.max(np.abs(sp.coeffs))
            for k in range(1, 16):
                assert abs(sp.coeff(-k) - np.conj(sp.coeff(k))) < 1e-12 * scale
            assert abs(sp.coeff(-16).imag) < 1e-12 * scale


class TestMultipliers:
    @pytest.mark.parametrize("n, length", [(8, 1.0), (256, TWO_PI), (1000, 7.5)])
    def test_half_spectrum_weights_match_full(self, n, length):
        # The rfft kernel takes weights on xi_0..xi_{n/2}.  Its last entry is
        # +nyquist where the full order has -nyquist; even symbols agree.
        g = make_grid(n, 0.0, length)
        half = g.half_frequencies
        assert half.shape == (n // 2 + 1,)
        assert half[-1] == -g.frequencies[n // 2]
        assert half[-1] == pytest.approx(g.nyquist, rel=1e-15)
        for symbol in (
            forward_multiplier, inverse_multiplier,
            lambda xi: regularized_multiplier(xi, 0.7),
        ):
            assert np.array_equal(symbol(half), symbol(g.frequencies)[: n // 2 + 1])

    def test_forward_at_one(self):
        expected = -math.expm1(-1.0)  # 1 - e^{-1}
        assert forward_multiplier(1.0) == pytest.approx(expected, rel=1e-15)
        assert forward_multiplier(1.0) == pytest.approx(0.63212, abs=1e-5)

    def test_forward_even_and_dc(self):
        assert forward_multiplier(0.0) == 0.0
        assert forward_multiplier(-1.0) == forward_multiplier(1.0)

    def test_inverse_at_one(self):
        expected = 1.0 / -math.expm1(-1.0)
        assert inverse_multiplier(1.0) == pytest.approx(expected, rel=1e-15)
        assert inverse_multiplier(1.0) == pytest.approx(1.58198, abs=1e-5)

    def test_inverse_dc_and_large(self):
        assert inverse_multiplier(0.0) == 0.0
        # e^{-100} underflows the sum 1 - e^{-100} to exactly 1.
        assert inverse_multiplier(100.0) == pytest.approx(10000.0, rel=1e-12)

    def test_inverse_monotone_and_unbounded(self):
        xs = np.linspace(1.0, 50.0, 200)
        vals = inverse_multiplier(xs)
        assert np.all(np.diff(vals) > 0)
        assert inverse_multiplier(1e6) > 1e11

    def test_inverse_taylor_near_zero(self):
        for k in range(4, 13):
            a = 10.0 ** (-k)
            taylor = a + a * a / 2.0
            assert inverse_multiplier(a) == pytest.approx(taylor, rel=1e-6)

    def test_regularized_mu_zero_is_inverse_bitwise(self):
        xs = np.linspace(-40.0, 40.0, 1001)
        assert np.array_equal(regularized_multiplier(xs, 0.0), inverse_multiplier(xs))

    def test_regularized_examples(self):
        expected = 1.0 / (-math.expm1(-1.0) * 2.0)
        assert regularized_multiplier(1.0, 1.0) == pytest.approx(expected, rel=1e-15)
        assert regularized_multiplier(1.0, 1.0) == pytest.approx(0.79099, abs=1e-5)
        assert regularized_multiplier(100.0, 3.0) == pytest.approx(
            10000.0 / 90001.0, rel=1e-12
        )
        assert regularized_multiplier(100.0, 3.0) == pytest.approx(0.11110, abs=1e-4)

    def test_regularized_rejects_negative_mu(self):
        with pytest.raises(ValueError, match="nonnegative"):
            regularized_multiplier(1.0, -0.5)

    def test_all_multipliers_even(self):
        rng = np.random.Generator(np.random.PCG64(5))
        xs = np.concatenate(
            [rng.uniform(0, 100, 500), 10 ** rng.uniform(-8, 6, 500)]
        )
        for m in (forward_multiplier, inverse_multiplier):
            assert np.array_equal(m(xs), m(-xs))
        assert np.array_equal(
            regularized_multiplier(xs, 2.5), regularized_multiplier(-xs, 2.5)
        )

    def test_forward_inverse_product_is_one(self):
        xs = 10.0 ** np.linspace(-6, 3, 400)
        prod = forward_multiplier(xs) * inverse_multiplier(xs)
        assert np.max(np.abs(prod - 1.0)) < 1e-12

    def test_regularized_below_inverse(self):
        xs = np.linspace(0.01, 30.0, 300)
        for mu in (0.3, 1.0, 4.0):
            reg = regularized_multiplier(xs, mu)
            inv = inverse_multiplier(xs)
            assert np.all(reg < inv)  # strict: xi != 0 and mu > 0

    def test_regularized_nonincreasing_in_mu(self):
        xs = np.linspace(0.1, 20.0, 50)
        mus = [0.0, 0.1, 0.5, 1.0, 3.0, 10.0]
        prev = regularized_multiplier(xs, mus[0])
        for mu in mus[1:]:
            cur = regularized_multiplier(xs, mu)
            assert np.all(cur <= prev)
            prev = cur

    def test_exponential_saturates_from_forty(self):
        # The multipliers skip expm1 from |xi| = 40 on and use 1.0, the value
        # -expm1 rounds to there on this platform (e^{-40} < 2^-57).
        a = np.concatenate([
            [40.0, np.nextafter(40.0, np.inf)],
            np.geomspace(np.nextafter(40.0, np.inf), 1e300, 20001),
            np.linspace(40.0, 800.0, 20001),
        ])
        assert np.all(-np.expm1(-a) == 1.0)

    @pytest.mark.parametrize("n", [8, 256, 1000, 4096, 2**16, 2**20])
    @pytest.mark.parametrize("length", [1e-3, 1.0, TWO_PI, 7.5, 1e2, 1e4])
    def test_multipliers_match_expm1_everywhere_on_grids(self, n, length):
        xi = make_grid(n, 0.0, length).frequencies
        for half in (xi, make_grid(n, -3.0, length - 3.0).half_frequencies):
            fwd, inv = _expm1_multipliers(half)
            assert np.array_equal(forward_multiplier(half), fwd)
            assert np.array_equal(inverse_multiplier(half), inv)

    def test_multipliers_match_expm1_on_scalars_and_edges(self):
        values = [0.0, -0.0, 5e-324, 1e-300, 1e-8, 1.0, -3.5, 39.999, 40.0,
                  np.nextafter(40.0, np.inf), -41.0, 1e6, 1e150, 1e300,
                  np.inf, -np.inf, np.nan]
        with np.errstate(over="ignore", divide="ignore"):
            for v in values:
                fwd, inv = _expm1_multipliers(v)
                for got, want in ((forward_multiplier(v), fwd),
                                  (inverse_multiplier(v), inv)):
                    assert type(got) is float
                    assert np.array_equal(got, want, equal_nan=True)
                    assert np.signbit(got) == np.signbit(want)
            fwd, inv = _expm1_multipliers(np.array(values))
            assert np.array_equal(forward_multiplier(values), fwd, equal_nan=True)
            assert np.array_equal(inverse_multiplier(values), inv, equal_nan=True)

    # Zeros anywhere, both signs, and both sides of 40, where expm1 stops.
    @settings(max_examples=200, deadline=None)
    @given(
        xi=arrays(float, array_shapes(min_dims=1, max_dims=2, max_side=12),
                  elements=st.one_of(
                      st.sampled_from([0.0, -0.0, 40.0, -40.0,
                                       np.nextafter(40.0, 0.0),
                                       np.nextafter(40.0, np.inf)]),
                      st.floats(-1e-6, 1e-6),
                      st.floats(-1e3, 1e3))),
        mu=st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
    )
    def test_multipliers_match_a_where_reference(self, xi, mu):
        # Entries below about 1e-154 square to 0, so the forward symbol is inf.
        with np.errstate(divide="ignore"):
            fwd, inv = _expm1_multipliers(xi)
            assert np.array_equal(forward_multiplier(xi), fwd)
        assert np.array_equal(inverse_multiplier(xi), inv)
        reg = inv / (1.0 + np.square(xi * mu))
        assert np.array_equal(regularized_multiplier(xi, mu), reg)

    def test_regularized_high_frequency_cap(self):
        # For |xi| >= 1: reg <= 1/(mu^2 (1 - e^{-1})).
        xs = 10.0 ** np.linspace(0.0, 6.0, 200)
        for mu in (0.2, 1.0, 5.0):
            cap = 1.0 / (mu * mu * -math.expm1(-1.0))
            assert np.all(regularized_multiplier(xs, mu) <= cap)


class TestApplyMultiplier:
    def test_identity_and_zero(self, default_grid):
        rng = np.random.Generator(np.random.PCG64(2))
        sp = to_spectrum(RealSignal(default_grid, rng.standard_normal(256)))
        same = apply_multiplier(sp, lambda xi: np.ones_like(xi))
        assert np.array_equal(same.coeffs, sp.coeffs)
        gone = apply_multiplier(sp, lambda xi: np.zeros_like(xi))
        assert np.all(gone.coeffs == 0)

    def test_scales_cosine_modes(self, default_grid):
        sp = to_spectrum(RealSignal(default_grid, np.cos(default_grid.points)))
        out = apply_multiplier(sp, inverse_multiplier)
        factor = 1.0 / -math.expm1(-1.0)
        assert out.coeff(1) == pytest.approx(factor * sp.coeff(1), rel=1e-12)
        assert out.coeff(-1) == pytest.approx(factor * sp.coeff(-1), rel=1e-12)

    def test_odd_multiplier_trips_residue_guard(self, default_grid):
        sp = to_spectrum(RealSignal(default_grid, np.sin(default_grid.points)))
        odd = apply_multiplier(sp, lambda xi: xi)
        with pytest.raises(ValueError, match="imaginary residue"):
            from_spectrum(odd)

    def test_preserves_conjugate_symmetry(self, default_grid, band_limited):
        s = band_limited(default_grid, 9)
        out = apply_multiplier(to_spectrum(s), inverse_multiplier)
        back = from_spectrum(out)
        redo = to_spectrum(back)
        assert np.max(np.abs(redo.coeffs - out.coeffs)) < 1e-9
