"""Noise generation determinism, calibration, and error metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sourcefft.noise_lab import (
    NoiseSpec,
    _int_words,
    _l2,
    _seed_words,
    add_noise,
    discrete_l2,
    relative_l2_error,
)
from sourcefft.spectral_core import RealSignal, make_grid

TWO_PI = 2.0 * math.pi


@pytest.fixture
def cosine_signal(default_grid):
    return RealSignal(default_grid, np.cos(default_grid.points))


class TestNoiseSpec:
    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError, match="nonnegative"):
            NoiseSpec(-0.1, 0)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            NoiseSpec(0.1, 0, "white")

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValueError, match="64"):
            NoiseSpec(0.1, 2**64)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_rejects_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match="delta must be finite"):
            NoiseSpec(delta, 0)


# Edge values of SeedSequence's int-to-words split: one word, the largest
# one-word value, the smallest two-word value, the largest 64-bit value.
EDGE_INTS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
entropy_int = st.one_of(
    st.sampled_from(EDGE_INTS), st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1)
)


class TestSeedWords:
    """The vectorized hash against numpy's own SeedSequence."""

    @settings(max_examples=200, deadline=None)
    @given(
        entropy_int,
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
        st.sampled_from((1, 2, 4, 8, 9)),
    )
    def test_matches_seed_sequence(self, base, i, j, reps, n_words):
        # One base_seed and (i, j) for all rows, as a sweep block has:
        # 4-word entropy below 2^32, 5-word at or above it.
        columns = [[w] for w in _int_words(base)] + [[i], [j], reps]
        got = _seed_words(columns, n_words)
        assert got.dtype == np.uint32 and got.shape == (len(reps), n_words)
        for row, r in zip(got, reps):
            expected = np.random.SeedSequence((base, i, j, r)).generate_state(
                n_words, np.uint32
            )
            assert np.array_equal(row, expected)

    @pytest.mark.parametrize("value", EDGE_INTS + (2**64, 2**96 + 5))
    def test_single_int_entropy(self, value):
        columns = [[w] for w in _int_words(value)]
        expected = np.random.SeedSequence(value).generate_state(8, np.uint32)
        assert np.array_equal(_seed_words(columns, 8)[0], expected)

    def test_two_word_seed_below_2_32_hashes_as_one_word(self):
        # A sweep always passes a seed as (low, high); high = 0 must equal
        # the one-word entropy SeedSequence(seed) itself uses.
        for seed in (0, 5, 2**32 - 1):
            expected = np.random.SeedSequence(seed).generate_state(8, np.uint32)
            assert np.array_equal(_seed_words([[seed], [0]], 8)[0], expected)

    def test_negative_entropy_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            _int_words(-1)


def numpy_noise(grid, spec):
    """The noise of NoiseSpec spec, drawn through numpy's public API only."""
    eps = np.random.Generator(np.random.PCG64(spec.seed)).standard_normal(grid.n)
    if spec.mode == "iid":
        return spec.delta * eps
    return eps * (spec.delta / math.sqrt(grid.dx * float(np.dot(eps, eps))))


class TestAddNoise:
    def test_zero_delta_returns_input_unchanged(self, cosine_signal):
        out = add_noise(cosine_signal, NoiseSpec(0.0, 123))
        assert out is cosine_signal

    def test_norm_calibrated_hits_delta_exactly(self, cosine_signal):
        for seed in range(5):
            out = add_noise(cosine_signal, NoiseSpec(0.05, seed, "norm_calibrated"))
            eps = RealSignal(out.grid, out.values - cosine_signal.values)
            assert abs(discrete_l2(eps) - 0.05) < 1e-12

    @pytest.mark.parametrize("mode", ["iid", "norm_calibrated"])
    @pytest.mark.parametrize(
        "seed", [0, 1, 99, 2**31, 2**32 - 1, 2**32, 11465652750463011511, 2**64 - 1]
    )
    def test_equals_numpy_generator(self, cosine_signal, mode, seed):
        spec = NoiseSpec(0.07, seed, mode)
        out = add_noise(cosine_signal, spec)
        expected = cosine_signal.values + numpy_noise(cosine_signal.grid, spec)
        assert np.array_equal(out.values, expected)

    # A numpy RuntimeWarning would print a second stderr line in the CLI.
    @pytest.mark.filterwarnings("error")
    def test_overflowing_delta_names_delta(self, cosine_signal):
        with pytest.raises(ValueError, match=r"^noise level delta=1e\+308 overflows"):
            add_noise(cosine_signal, NoiseSpec(1e308, 3))

    def test_deterministic_given_spec(self, cosine_signal):
        spec = NoiseSpec(0.07, 99)
        a = add_noise(cosine_signal, spec)
        b = add_noise(cosine_signal, spec)
        assert np.array_equal(a.values, b.values)

    def test_iid_sample_std(self, cosine_signal):
        # 1000 seeds x 256 samples; the pooled std-dev of a chi distribution
        # with this many degrees of freedom lands within 0.002 of delta.
        # Measured with these exact seeds: 0.04993.
        delta = 0.05
        chunks = [
            add_noise(cosine_signal, NoiseSpec(delta, seed)).values
            - cosine_signal.values
            for seed in range(1000)
        ]
        pooled = np.concatenate(chunks)
        assert 0.048 < float(np.std(pooled)) < 0.052

    def test_adjacent_seed_correlation_small(self, cosine_signal):
        # Spot check on frozen seeds.  |rho| fluctuates at the 1/sqrt(256)
        # = 0.0625 scale, so some seed pairs elsewhere do exceed 0.1; these
        # ten were verified to stay below it.
        for seed in range(10):
            a = add_noise(cosine_signal, NoiseSpec(1.0, seed)).values
            b = add_noise(cosine_signal, NoiseSpec(1.0, seed + 1)).values
            ea, eb = a - cosine_signal.values, b - cosine_signal.values
            rho = float(np.corrcoef(ea, eb)[0, 1])
            assert abs(rho) < 0.1


class TestRowNorms:
    """_l2 over the rows of a block equals each row's own dot product."""

    @pytest.mark.parametrize("n", [8, 10, 64, 250, 256, 1000, 4096, 1 << 14])
    @pytest.mark.parametrize("rows", [1, 3, 20, 81])
    def test_equals_row_by_row_dot(self, n, rows):
        rng = np.random.default_rng(1000 * n + rows)
        scales = 10.0 ** rng.integers(-6, 7, size=(rows, 1))
        block = rng.standard_normal((rows, n)) * scales
        dx = TWO_PI / n
        expected = [math.sqrt(dx * np.dot(row, row)) for row in block]
        assert _l2(dx, block).tolist() == expected
        assert _l2(dx, block[0]) == expected[0]


class TestMetrics:
    def test_l2_of_zero(self):
        g = make_grid(64, 0.0, 1.0)
        assert discrete_l2(RealSignal(g, np.zeros(64))) == 0.0

    def test_l2_of_ones_over_period(self):
        g = make_grid(256, 0.0, TWO_PI)
        val = discrete_l2(RealSignal(g, np.ones(256)))
        assert val == pytest.approx(math.sqrt(TWO_PI), rel=1e-12)
        assert val == pytest.approx(2.50663, abs=1e-5)

    def test_l2_of_cosine(self, cosine_signal):
        assert discrete_l2(cosine_signal) == pytest.approx(
            math.sqrt(math.pi), rel=1e-12
        )

    def test_relative_error_trivial_cases(self, cosine_signal):
        assert relative_l2_error(cosine_signal, cosine_signal) == 0.0
        doubled = RealSignal(cosine_signal.grid, 2.0 * cosine_signal.values)
        assert relative_l2_error(doubled, cosine_signal) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_relative_error_constant_offset(self, cosine_signal):
        # Constants and cos are orthogonal on the periodic grid, so an
        # offset c contributes |c| sqrt(2 pi) / sqrt(pi) = |c| sqrt(2).
        c = 0.3
        shifted = RealSignal(cosine_signal.grid, cosine_signal.values + c)
        assert relative_l2_error(shifted, cosine_signal) == pytest.approx(
            c * math.sqrt(2.0), rel=1e-12
        )

    def test_relative_error_rejects_zero_truth(self, default_grid):
        zero = RealSignal(default_grid, np.zeros(default_grid.n))
        one = RealSignal(default_grid, np.ones(default_grid.n))
        with pytest.raises(ValueError, match="zero"):
            relative_l2_error(one, zero)

    def test_relative_error_rejects_grid_mismatch(self, default_grid):
        other = make_grid(256, 0.0, 1.0)
        a = RealSignal(default_grid, np.ones(256))
        b = RealSignal(other, np.ones(256))
        with pytest.raises(ValueError, match="grid"):
            relative_l2_error(a, b)
