"""Forward solver, inverters, parameter rule, norms, and the error bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sourcefft.inversion import (
    _filter_rows,
    error_bound,
    estimate_source_regularized,
    estimate_source_unregularized,
    select_mu,
    sobolev_norm,
    solve_forward,
)
from sourcefft.noise_lab import NoiseSpec, add_noise, discrete_l2, relative_l2_error
from sourcefft.source_models import cosine_source, exact_data, sample_source
from sourcefft.spectral_core import (
    RealSignal,
    _regularized_table,
    apply_multiplier,
    from_spectrum,
    inverse_multiplier,
    make_grid,
    regularized_multiplier,
    to_spectrum,
)

TWO_PI = 2.0 * math.pi


@pytest.fixture
def cosine_problem(default_grid):
    f = sample_source(cosine_source(), default_grid)
    g = exact_data(cosine_source(), default_grid)
    return default_grid, f, g


class TestSolveForward:
    def test_cosine_closed_form(self, cosine_problem):
        grid, f, g_exact = cosine_problem
        g = solve_forward(f)
        assert np.max(np.abs(g.values - g_exact.values)) < 1e-10

    def test_zero_maps_to_zero(self, default_grid):
        z = RealSignal(default_grid, np.zeros(default_grid.n))
        assert np.all(solve_forward(z).values == 0)

    def test_second_mode_scaling(self, default_grid):
        f = RealSignal(default_grid, np.cos(2.0 * default_grid.points))
        g = solve_forward(f)
        factor = -math.expm1(-2.0) / 4.0
        assert factor == pytest.approx(0.21617, abs=1e-5)
        expected = factor * np.cos(2.0 * default_grid.points)
        assert np.max(np.abs(g.values - expected)) < 1e-12

    def test_rejects_nonzero_mean(self, default_grid):
        f = RealSignal(default_grid, np.cos(default_grid.points) + 0.5)
        with pytest.raises(ValueError, match="mean"):
            solve_forward(f)

    @pytest.mark.parametrize("scale", [1e7, 1e150])
    def test_mean_tolerance_grows_with_the_source(self, default_grid, scale):
        # 1e-10 * max(1, max |f|): a large source's rounding residue passes,
        # a real mean of the same relative size as at scale 1 does not.
        x = default_grid.points
        g = solve_forward(RealSignal(default_grid, scale * np.cos(x)))
        assert np.max(np.abs(g.values)) == pytest.approx(
            -math.expm1(-1.0) * scale, rel=1e-5)
        with pytest.raises(ValueError, match="mean"):
            solve_forward(RealSignal(default_grid, scale * (np.cos(x) + 1e-6)))

    def test_demean_flag_subtracts(self, default_grid):
        f0 = RealSignal(default_grid, np.cos(default_grid.points))
        f = RealSignal(default_grid, f0.values + 0.5)
        g = solve_forward(f, demean=True)
        assert np.max(np.abs(g.values - solve_forward(f0).values)) < 1e-12


class TestEstimators:
    def test_unregularized_exact_recovery(self, cosine_problem):
        grid, f, g = cosine_problem
        est = estimate_source_unregularized(g)
        assert np.max(np.abs(est.values - f.values)) < 1e-8

    def test_unregularized_zero(self, default_grid):
        z = RealSignal(default_grid, np.zeros(default_grid.n))
        assert np.all(estimate_source_unregularized(z).values == 0)

    def test_unregularized_blows_up_on_noise(self, cosine_problem):
        grid, f, g = cosine_problem
        noisy = add_noise(g, NoiseSpec(0.05, 1234))
        raw = relative_l2_error(estimate_source_unregularized(noisy), f)
        reg = relative_l2_error(estimate_source_regularized(noisy, 3.0), f)
        assert raw >= 5.0 * reg

    def test_regularized_mu_zero_exact_recovery(self, cosine_problem):
        grid, f, g = cosine_problem
        est = estimate_source_regularized(g, 0.0)
        assert np.max(np.abs(est.values - f.values)) < 1e-8

    def test_regularized_mu_one_halves_the_mode(self, cosine_problem):
        grid, f, g = cosine_problem
        est = estimate_source_regularized(g, 1.0)
        assert np.max(np.abs(est.values - 0.5 * f.values)) < 1e-8

    def test_regularized_beats_unregularized_on_noise(self, cosine_problem):
        grid, f, g = cosine_problem
        noisy = add_noise(g, NoiseSpec(0.1, 77))
        reg_err = relative_l2_error(estimate_source_regularized(noisy, 3.0), f)
        raw_err = relative_l2_error(estimate_source_unregularized(noisy), f)
        assert reg_err < raw_err

    def test_mu_zero_reduction_is_bitwise(self, default_grid, band_limited):
        g = band_limited(default_grid, 31)
        a = estimate_source_regularized(g, 0.0)
        b = estimate_source_unregularized(g)
        assert np.array_equal(a.values, b.values)

    def test_rejects_negative_mu(self, cosine_problem):
        _, _, g = cosine_problem
        with pytest.raises(ValueError, match="nonnegative"):
            estimate_source_regularized(g, -0.1)

    def test_damping_monotone_in_mu(self, default_grid):
        rng = np.random.Generator(np.random.PCG64(8))
        g = RealSignal(default_grid, rng.standard_normal(default_grid.n))
        norms = [
            discrete_l2(estimate_source_regularized(g, mu))
            for mu in (0.0, 0.2, 0.7, 1.5, 4.0, 12.0)
        ]
        for small, large in zip(norms[1:], norms):
            assert small <= large * (1.0 + 1e-12)

    def test_exact_inverse_on_band_limited_sources(self, band_limited):
        grid = make_grid(64, 0.0, TWO_PI)
        for seed in range(50):
            f = band_limited(grid, seed)  # top quarter of the spectrum empty
            back = estimate_source_unregularized(solve_forward(f))
            assert np.max(np.abs(back.values - f.values)) < 1e-8


def random_rows(draw_seed, grid, rows):
    # Scaled so the filtered rows stay O(1) even at mu = 0.
    rng = np.random.Generator(np.random.PCG64(draw_seed))
    return rng.standard_normal((rows, grid.n)) / (1.0 + grid.nyquist**2)


grids = st.builds(
    lambda half_n, length: make_grid(2 * half_n, 0.0, length),
    st.integers(4, 512),
    st.floats(0.1, 1000.0),
)


# Zero or a magnitude in [1e-3, 1e3], so no product reaches the subnormals.
coefficients = st.one_of(
    st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)
)


# Largest deviation allowed between the rfft kernel and the full complex
# Spectrum path (to_spectrum, apply_multiplier, from_spectrum), relative to
# the largest sample of the latter: two FFT pairs of different shape round
# differently; measured at most 1.5e-15 over 3,000 random cases.
SPECTRUM_PATH_RTOL = 1e-13


class TestBatchedKernel:
    """_filter_rows, the array kernel of the estimators and the sweep cells."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mu", [math.inf, math.nan])
    def test_rejects_non_finite_mu(self, cosine_problem, mu):
        _, _, g = cosine_problem
        with pytest.raises(ValueError, match="nonnegative"):
            estimate_source_regularized(g, mu)

    @settings(max_examples=60, deadline=None)
    @given(
        grid=grids,
        mu=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
        rows=st.integers(1, 24),
        draw_seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_single_estimates(self, grid, mu, rows, draw_seed):
        values = random_rows(draw_seed, grid, rows)
        weights = regularized_multiplier(grid.half_frequencies, mu)
        batched = _filter_rows(values, weights)
        assert batched.shape == values.shape
        for row, out in zip(values, batched):
            g = RealSignal(grid, row)
            single = estimate_source_regularized(g, mu)
            assert np.array_equal(out, single.values)
            # The same filter through the Spectrum-level public API, which
            # keeps all n complex coefficients: equal up to rounding.
            spectrum = apply_multiplier(
                to_spectrum(g), lambda xi: regularized_multiplier(xi, mu)
            )
            full = from_spectrum(spectrum).values
            assert np.max(np.abs(out - full)) <= SPECTRUM_PATH_RTOL * np.max(np.abs(full))

    @settings(max_examples=40, deadline=None)
    @given(
        grid=grids,
        rows=st.integers(1, 8),
        draw_seed=st.integers(0, 2**32 - 1),
    )
    def test_mu_zero_is_unregularized(self, grid, rows, draw_seed):
        values = random_rows(draw_seed, grid, rows)
        batched = _filter_rows(values, regularized_multiplier(grid.half_frequencies, 0.0))
        direct = _filter_rows(values, inverse_multiplier(grid.half_frequencies))
        assert np.array_equal(batched, direct)
        for row, out in zip(values, batched):
            g = RealSignal(grid, row)
            unregularized = estimate_source_unregularized(g).values
            regularized = estimate_source_regularized(g, 0.0).values
            assert np.array_equal(regularized, unregularized)
            assert np.array_equal(out, unregularized)

    # The figures' layout: a (D, 1, n) block of rows against (D, J, n/2+1)
    # weights, a different set of mus for each row.
    @settings(max_examples=40, deadline=None)
    @given(
        grid=grids,
        mus=st.lists(
            st.lists(st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
                     min_size=3, max_size=3),
            min_size=1, max_size=4,
        ),
        draw_seed=st.integers(0, 2**32 - 1),
    )
    def test_per_row_weights_equal_single_estimates(self, grid, mus, draw_seed):
        values = random_rows(draw_seed, grid, len(mus))
        # mu = 0 heads every row, as fig1's column heads the figures' block.
        table = np.array([[0.0] + row for row in mus])
        weights = _regularized_table(grid.half_frequencies, table[:, :, None])
        batched = _filter_rows(values[:, None, :], weights)
        assert batched.shape == (*table.shape, grid.n)
        for row, row_mus, outs in zip(values, table, batched):
            g = RealSignal(grid, row)
            assert np.array_equal(outs[0], estimate_source_unregularized(g).values)
            for mu, out in zip(row_mus, outs):
                assert np.array_equal(out, estimate_source_regularized(g, mu).values)


    # Linearity holds whatever delta means: no noise model enters.  The
    # rounding of one rfft/irfft pair is a few ulps per log2(n) of the input
    # norm, amplified at most by the largest weight.
    @settings(max_examples=60, deadline=None)
    @given(
        grid=grids,
        mu=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
        alpha=coefficients,
        beta=coefficients,
        draw_seed=st.integers(0, 2**32 - 1),
    )
    def test_linear_in_the_data(self, grid, mu, alpha, beta, draw_seed):
        a, b = random_rows(draw_seed, grid, 2)
        estimate = lambda values: estimate_source_regularized(
            RealSignal(grid, values), mu
        ).values
        combined = estimate(alpha * a + beta * b)
        separate = alpha * estimate(a) + beta * estimate(b)
        weight = np.max(regularized_multiplier(grid.half_frequencies, mu))
        norms = abs(alpha) * np.linalg.norm(a) + abs(beta) * np.linalg.norm(b)
        tol = 16 * np.finfo(float).eps * math.log2(grid.n) * weight * norms
        assert np.linalg.norm(combined - separate) <= tol


class TestSelectMu:
    def test_unit_ratio_gives_one(self):
        for p in (0.0, 1.0, 2.0, 7.5):
            assert select_mu(1.0, 1.0, p) == 1.0

    def test_rule_examples(self):
        assert select_mu(0.015, 1.0, 1.0) == pytest.approx(0.24662, abs=1e-5)
        assert select_mu(0.015, 1.0, 1.0) == pytest.approx(
            0.015 ** (1.0 / 3.0), rel=1e-15
        )
        assert select_mu(0.05, 1.0, 2.0) == pytest.approx(0.47287, abs=1e-5)
        assert select_mu(0.05, 1.0, 2.0) == pytest.approx(0.05**0.25, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="delta"):
            select_mu(0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="E"):
            select_mu(0.1, 0.0, 1.0)
        with pytest.raises(ValueError, match="p"):
            select_mu(0.1, 1.0, -1.0)

    def test_delta_above_bound_warns(self):
        with pytest.warns(UserWarning, match="exceeds"):
            mu = select_mu(2.0, 1.0, 1.0)
        assert mu > 1.0

    def test_range_law_exact(self):
        # Includes delta=1e-3, p=0, where bare pow lands one ulp below the
        # law and the implementation's nudge is what saves exactness.
        for k in range(0, 7):
            delta = 10.0 ** (-k)
            for p in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0):
                mu = select_mu(delta, 1.0, p)
                assert delta <= mu * mu <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        bounds=st.tuples(
            st.floats(5e-324, 1e308), st.floats(5e-324, 1e308)
        ).map(sorted),
        p=st.one_of(st.floats(0.0, 50.0), st.floats(0.0, 1e300)),
    )
    def test_range_law_property(self, bounds, p):
        delta, E = bounds
        mu = select_mu(delta, E, p)
        assert delta / E <= mu * mu <= 1.0

    def test_range_law_with_general_bound(self):
        for delta, E in ((2e-3, 0.5), (0.03, 3.0), (0.9, 1.1)):
            for p in (0.0, 1.0, 2.0):
                mu = select_mu(delta, E, p)
                assert delta / E <= mu * mu <= 1.0

    def test_monotone_in_p(self):
        delta = 0.05
        mus = [select_mu(delta, 1.0, p) for p in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0)]
        assert all(a < b for a, b in zip(mus, mus[1:]))

    def test_tends_to_one_for_large_p(self):
        # At p=100 the rule value IS delta^(1/102); the point is proximity
        # to 1, asserted against that analytic distance (with float slack).
        for delta in (1e-6, 1e-3, 0.1):
            mu = select_mu(delta, 1.0, 100.0)
            assert abs(mu - 1.0) <= abs(delta ** (1.0 / 102.0) - 1.0) + 1e-15
            assert abs(mu - 1.0) < 0.13


    @pytest.mark.parametrize(
        "name, args",
        [("delta", (math.nan, 1.0, 1.0)), ("delta", (math.inf, 1.0, 1.0)),
         ("E", (0.1, math.nan, 1.0)), ("E", (0.1, math.inf, 1.0)),
         ("p", (0.1, 1.0, math.nan)), ("p", (0.1, 1.0, math.inf))],
    )
    def test_rejects_non_finite(self, name, args):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            select_mu(*args)


class TestSobolevNorm:
    def test_zero(self, default_grid):
        z = RealSignal(default_grid, np.zeros(default_grid.n))
        for p in (0.0, 1.0, 2.0):
            assert sobolev_norm(z, p) == 0.0

    def test_cosine_p0_is_l2(self, default_grid):
        f = RealSignal(default_grid, np.cos(default_grid.points))
        assert sobolev_norm(f, 0.0) == pytest.approx(math.sqrt(math.pi), rel=1e-10)

    def test_cosine_p2(self, default_grid):
        f = RealSignal(default_grid, np.cos(default_grid.points))
        assert sobolev_norm(f, 2.0) == pytest.approx(
            2.0 * math.sqrt(math.pi), rel=1e-12
        )
        assert sobolev_norm(f, 2.0) == pytest.approx(3.54491, abs=1e-5)

    def test_p0_matches_discrete_l2_generally(self, default_grid):
        rng = np.random.Generator(np.random.PCG64(21))
        for _ in range(10):
            s = RealSignal(default_grid, rng.standard_normal(default_grid.n))
            assert sobolev_norm(s, 0.0) == pytest.approx(discrete_l2(s), rel=1e-12)

    def test_rejects_negative_p(self, default_grid):
        f = RealSignal(default_grid, np.cos(default_grid.points))
        with pytest.raises(ValueError, match="p"):
            sobolev_norm(f, -0.5)


class TestErrorBound:
    def test_forced_value_at_p2(self):
        mu = select_mu(0.01, 1.0, 2.0)
        assert abs(error_bound(0.01, 2.0, mu) - 0.3) < 1e-12

    def test_p1_example(self):
        mu = 0.1 ** (1.0 / 3.0)
        val = error_bound(0.1, 1.0, mu)
        assert val == pytest.approx(3.0 * mu, rel=1e-15)
        assert val == pytest.approx(1.39248, abs=1e-5)

    def test_all_units(self):
        assert error_bound(1.0, 1.0, 1.0) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError, match="delta"):
            error_bound(0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="p"):
            error_bound(0.1, -1.0, 1.0)
        with pytest.raises(ValueError, match="mu"):
            error_bound(0.1, 1.0, 0.0)

    @pytest.mark.parametrize(
        "name, args",
        [("delta", (math.nan, 1.0, 0.5)), ("delta", (math.inf, 1.0, 0.5)),
         ("p", (0.1, math.nan, 0.5)), ("p", (0.1, math.inf, 0.5)),
         ("mu", (0.1, 1.0, math.nan)), ("mu", (0.1, 1.0, math.inf))],
    )
    def test_rejects_non_finite(self, name, args):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            error_bound(*args)
