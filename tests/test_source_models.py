"""Built-in sources and their reference measurements."""

import math

import numpy as np
import pytest

from sourcefft.inversion import solve_forward
from sourcefft.noise_lab import discrete_l2
from sourcefft.source_models import (
    SourceSpec,
    cosine_source,
    exact_data,
    hat_source,
    sample_source,
)
from sourcefft.spectral_core import RealSignal, make_grid

TWO_PI = 2.0 * math.pi


class TestSourceSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            SourceSpec(kind="gaussian")

    def test_hat_requires_all_parameters(self):
        with pytest.raises(ValueError, match="hat"):
            SourceSpec(kind="hat", center=1.0)

    def test_hat_rejects_nonpositive_width(self):
        with pytest.raises(ValueError, match="half_width"):
            hat_source(center=3.0, half_width=0.0)

    @pytest.mark.parametrize("field", ["center", "half_width", "height"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_hat_rejects_non_finite(self, field, value):
        params = {"center": 3.0, "half_width": 1.0, "height": 1.0, field: value}
        with pytest.raises(ValueError, match="finite"):
            hat_source(**params)

    def test_cosine_takes_no_parameters(self):
        with pytest.raises(ValueError, match="no shape parameters"):
            SourceSpec(kind="cosine", center=1.0)


class TestSampleSource:
    def test_cosine_values_on_coarse_grid(self):
        g = make_grid(8, 0.0, TWO_PI)
        s = sample_source(cosine_source(), g)
        r = math.sqrt(2.0) / 2.0
        assert np.allclose(
            s.values, [1.0, r, 0.0, -r, -1.0, -r, 0.0, r], atol=1e-15
        )

    def test_hat_peak_and_mean(self, default_grid):
        s = sample_source(hat_source(math.pi, 1.0, 1.0), default_grid)
        # The shift equals the tent's discrete mean, which matches the
        # continuous area ratio w*h/L up to dx^2 sampling error (the kinks
        # fall between grid points): measured 1.8e-5 at n=256.
        mean_shift = 1.0 / TWO_PI
        assert float(np.max(s.values)) == pytest.approx(1.0 - mean_shift, abs=1e-4)
        assert abs(float(np.mean(s.values))) < 1e-12

    def test_hat_support_must_stay_inside(self):
        g = make_grid(256, 0.0, TWO_PI)
        with pytest.raises(ValueError, match="support"):
            sample_source(hat_source(0.1, 1.0, 1.0), g)
        # Touching an endpoint counts as leaving: the domain is open.
        with pytest.raises(ValueError, match="support"):
            sample_source(hat_source(1.0, 1.0, 1.0), g)

    @pytest.mark.parametrize(
        "spec",
        [cosine_source(), hat_source(3.0, 0.7, 2.0), hat_source(4.0, 1.5, -1.0)],
    )
    def test_sampled_sources_are_mean_free(self, spec, default_grid):
        s = sample_source(spec, default_grid)
        assert abs(float(np.mean(s.values))) < 1e-12

    def test_hat_shape_is_triangular(self, default_grid):
        spec = hat_source(math.pi, 1.0, 1.0)
        s = sample_source(spec, default_grid)
        x = default_grid.points
        inside = np.abs(x - math.pi) < 1.0
        shift = float(np.max(s.values)) - 1.0
        expected = 1.0 - np.abs(x[inside] - math.pi) + shift
        assert np.allclose(s.values[inside], expected, atol=1e-12)
        outside = np.abs(x - math.pi) > 1.0
        assert np.allclose(s.values[outside], shift, atol=1e-12)


@pytest.mark.parametrize("produce", [sample_source, exact_data])
@pytest.mark.parametrize("spec", [cosine_source(), hat_source(3.0, 0.7, 2.0)])
def test_values_are_read_only_and_share_nothing_with_the_grid(produce, spec):
    grid = make_grid(64, 0.0, TWO_PI)
    out = produce(spec, grid)
    assert not out.values.flags.writeable
    assert not np.shares_memory(out.values, grid.points)


class TestExactData:
    def test_cosine_closed_form(self, default_grid):
        g_sig = exact_data(cosine_source(), default_grid)
        expected = -math.expm1(-1.0) * np.cos(default_grid.points)
        assert np.array_equal(g_sig.values, expected)
        assert float(np.max(g_sig.values)) == pytest.approx(0.63212, abs=1e-5)

    def test_cosine_zero_at_quarter_period(self):
        g = make_grid(256, 0.0, TWO_PI)
        g_sig = exact_data(cosine_source(), g)
        j = 64  # x_j = pi/2 exactly on this grid
        assert g.points[j] == pytest.approx(math.pi / 2, rel=1e-15)
        assert abs(g_sig.values[j]) < 1e-15

    def test_forward_solver_matches_closed_form(self, default_grid):
        f = sample_source(cosine_source(), default_grid)
        g_solved = solve_forward(f)
        g_closed = exact_data(cosine_source(), default_grid)
        assert np.max(np.abs(g_solved.values - g_closed.values)) < 1e-10

    def test_hat_reference_close_to_direct_solve(self, default_grid):
        # The reference comes from a 4x refined forward solve restricted to
        # the target grid.  The hat's spectrum decays only like 1/xi^2, so
        # the two differ at the aliasing level: measured 1.2e-4 relative at
        # n=256 (frozen from the verification run).
        spec = hat_source(math.pi, 1.0, 1.0)
        ref = exact_data(spec, default_grid)
        direct = solve_forward(sample_source(spec, default_grid))
        diff = RealSignal(default_grid, ref.values - direct.values)
        rel = discrete_l2(diff) / discrete_l2(direct)
        assert rel < 5e-4

    def test_hat_reference_error_path(self):
        g = make_grid(256, 0.0, TWO_PI)
        with pytest.raises(ValueError, match="support"):
            exact_data(hat_source(0.1, 1.0, 1.0), g)
