"""The vectorized CSV float formatter against Python's own repr.

Every reference here is built with Python's '%r' formatting of float(v),
never through sourcefft, so a passing test means the bytes are exactly
what the repr-per-value writer produced.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sourcefft._floatfmt import format_rows


def reference(table) -> bytes:
    table = np.asarray(table, dtype=float)
    line = ",".join(["%r"] * table.shape[1]) + "\n"
    return "".join(
        line % tuple(float(v) for v in row) for row in table
    ).encode("ascii")


def assert_formats(values, cols=3):
    """format_rows equals the reference on values laid out cols wide."""
    values = np.asarray(values, dtype=float).ravel()
    padded = np.concatenate([values, np.ones(-len(values) % cols)])
    table = padded.reshape(-1, cols)
    assert format_rows(table) == reference(table)


# Any 64-bit pattern read as a double reaches every exponent, both signs,
# subnormals and NaN payloads.
any_bits = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64))
)
# Decimals with few digits, and the doubles next to them, put a short
# candidate right at a rounding interval's edge, where the one-digit-shorter
# test and the round-to-odd bit decide the result.
short_decimal = st.builds(
    lambda digits, exponent, step: math.nextafter(
        float(f"{digits}e{exponent}"), step * math.inf
    ) if step else float(f"{digits}e{exponent}"),
    st.integers(-10**8, 10**8),
    st.integers(-12, 16),
    st.sampled_from([-1, 0, 1]),
)
cell = st.one_of(
    st.floats(allow_subnormal=True),
    any_bits,
    st.floats(min_value=-1e16, max_value=1e16),
    short_decimal,
)


@st.composite
def tables(draw):
    rows, cols = draw(st.integers(0, 40)), draw(st.integers(1, 5))
    cells = draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols))
    return np.array(cells, dtype=float).reshape(rows, cols)


class TestAgainstRepr:
    @settings(max_examples=300, deadline=None)
    @given(tables())
    def test_property(self, table):
        assert format_rows(table) == reference(table)

    def test_powers_of_two_and_neighbours(self):
        # Powers of two have the irregular rounding interval (the double
        # below is closer than the double above).
        p2 = np.ldexp(1.0, np.arange(-20, 61))
        values = np.concatenate(
            [p2, np.nextafter(p2, 0.0), np.nextafter(p2, math.inf)]
        )
        assert_formats(np.concatenate([values, -values]))

    def test_powers_of_ten(self):
        values = np.array([float(f"1e{k}") for k in range(-6, 18)])
        assert_formats(np.concatenate([values, -values]))

    def test_integers(self):
        assert_formats(np.arange(-5000, 5001, dtype=float))

    @pytest.mark.parametrize("decimals", range(8))
    def test_rounded_decimals(self, decimals):
        rng = np.random.default_rng(decimals)
        values = rng.standard_normal(3000) * 10.0 ** rng.integers(-4, 12, 3000)
        assert_formats(np.round(values, decimals))

    def test_fixed_notation_edges(self):
        # The largest double below 1e16 and the smallest at or above 1e-4 are
        # the ends of repr's fixed notation; 1e16 itself is exponent notation.
        edges = [9999999999999998.0, 1e16, 1e-4, 0.0001000000000001,
                 np.nextafter(1e-4, 0.0), np.nextafter(1e16, 0.0)]
        assert_formats(edges + [-v for v in edges], cols=4)

    def test_values_repr_formats_itself(self):
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                    -2.2250738585072014e-308, 1.7976931348623157e308, 1e-5]
        assert_formats(specials, cols=2)

    def test_simulate_shaped_table(self):
        n = 1 << 16
        x = 2.0 * math.pi * np.arange(n) / n
        g = -math.expm1(-1.0) * np.cos(x)
        noisy = g + 0.05 * np.random.default_rng(5).standard_normal(n)
        table = np.column_stack([x, g, noisy])
        assert format_rows(table) == reference(table)

    def test_empty_table(self):
        assert format_rows(np.empty((0, 3))) == b""
