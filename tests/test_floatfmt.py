"""The vectorized CSV float formatter against Python's own repr, and the
vectorized reader against np.loadtxt.

Every formatter reference here is built with Python's '%r' formatting of
float(v), never through sourcefft, so a passing test means the bytes are
exactly what the repr-per-value writer produced.  Every reader reference is
np.loadtxt of the same text, compared bit for bit.
"""

import io
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sourcefft import _floatfmt
from sourcefft._floatfmt import (
    _CHUNK_ROWS,
    _P5_HI,
    _POOL_MAX_VALUES,
    _REPR_MAX_VALUES,
    _mul,
    format_rows,
    format_tables,
    parse_rows,
    write_csv,
)


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
        # Small tables take the repr join; the kernel must agree on them too.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_floatfmt, "_REPR_MAX_VALUES", 0)
            assert format_rows(table) == reference(table)

    @pytest.mark.parametrize("values", [
        _REPR_MAX_VALUES - 1, _REPR_MAX_VALUES, _REPR_MAX_VALUES + 1,
        4 * _REPR_MAX_VALUES,
    ])
    @pytest.mark.parametrize("cols", [1, 4])
    def test_both_sides_of_the_repr_join_boundary(self, values, cols):
        rng = np.random.default_rng(values)
        table = rng.standard_normal(values - values % cols).reshape(-1, cols)
        table *= 10.0 ** rng.integers(-6, 18)
        assert format_rows(table) == reference(table)

    def test_powers_of_two_and_neighbours(self):
        # Powers of two have the irregular rounding interval (the double
        # below is closer than the double above), except the smallest
        # normal; every normal exponent, in fixed and exponent notation.
        p2 = np.ldexp(1.0, np.arange(-1022, 1024))
        values = np.concatenate(
            [p2, np.nextafter(p2, 0.0), np.nextafter(p2, math.inf)]
        )
        assert_formats(np.concatenate([values, -values]))

    def test_powers_of_ten(self):
        values = np.array([float(f"1e{k}") for k in range(-307, 309)])
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

    # Tables that are mostly or wholly outside fixed notation: the kernel
    # runs on the fixed-notation subset only, the rest go through repr.
    @pytest.mark.parametrize("outside", ["zeros", "tiny", "mixed"])
    def test_tables_outside_fixed_notation(self, outside):
        rng = np.random.default_rng(11)
        tiny = rng.standard_normal((500, 3)) * 1e-6
        # Tiny, signed zero and huge (exponent notation) values.
        pick = rng.integers(0, 3, tiny.shape)
        repr_only = np.choose(pick, [tiny, -tiny * 0.0, tiny * 1e24])
        table = {
            "zeros": np.zeros((500, 3)),
            "tiny": tiny,
            "mixed": np.where(
                rng.random(tiny.shape) < 0.5, repr_only, rng.standard_normal(tiny.shape)
            ),
        }[outside]
        assert format_rows(table) == reference(table)

    def test_simulate_shaped_table(self):
        n = 1 << 16
        x = 2.0 * math.pi * np.arange(n) / n
        g = -math.expm1(-1.0) * np.cos(x)
        noisy = g + 0.05 * np.random.default_rng(5).standard_normal(n)
        table = np.column_stack([x, g, noisy])
        assert format_rows(table) == reference(table)

    def test_empty_table(self):
        assert format_rows(np.empty((0, 3))) == b""


# Values off the fixed-notation path: the ones format_rows leaves to repr
# (signed zeros, subnormals, the infinities and nan) and exponent-notation
# magnitudes, which the kernel writes.
REPR_VALUES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, math.inf,
               -math.inf, math.nan, 1e-5, -1e-5, 1e16, 1e300, -1e300]


def repr_column(rng, rows):
    """rows random values of many magnitudes, up to three of them from
    REPR_VALUES."""
    column = rng.standard_normal(rows) * 10.0 ** rng.integers(-6, 18, rows)
    if rows:
        column[rng.integers(0, rows, 3)] = rng.choice(REPR_VALUES, 3)
    return column


@st.composite
def column_tables(draw):
    """(columns, tables): one to six columns of up to three lengths, repr's
    values among their cells, and one to four tables, each one to five
    positions of columns of one length, repeated and in any order."""
    lengths = draw(st.lists(st.integers(0, 60), min_size=1, max_size=3))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        rows = draw(st.sampled_from(lengths))
        cells = draw(st.lists(cell | st.sampled_from(REPR_VALUES), min_size=rows,
                              max_size=rows))
        columns.append(np.array(cells, dtype=float))
    tables = []
    for _ in range(draw(st.integers(1, 4))):
        rows = draw(st.sampled_from([len(c) for c in columns]))
        same = [i for i, c in enumerate(columns) if len(c) == rows]
        tables.append(draw(st.lists(st.sampled_from(same), min_size=1, max_size=5)))
    return columns, tables


def formatted(columns, tables):
    """The text of every table of format_tables, each read only after the
    iterators of all of them were made."""
    return [b"".join(chunks) for chunks in list(format_tables(columns, tables))]


def stacked(columns, table):
    """format_rows of the table's columns side by side; no text for a
    table of no columns."""
    return format_rows(np.column_stack([columns[c] for c in table])) if table else b""


def assert_tables(columns, tables):
    """format_tables equals format_rows of each table's stacked columns."""
    assert formatted(columns, tables) == [stacked(columns, t) for t in tables]


class TestFormatTables:
    """format_tables, which joins several small tables from one formatter
    pass over their columns and writes every other table in chunks of
    _CHUNK_ROWS rows, against format_rows of each table's stacked columns."""

    @settings(max_examples=200, deadline=None)
    @given(column_tables())
    def test_property(self, case):
        assert_tables(*case)

    @staticmethod
    def kernel_passes(columns, tables):
        """The sizes of the arrays the per-value pass formats while
        format_tables writes the tables, whose text must be the reference."""
        expected = [stacked(columns, t) for t in tables]
        calls = []
        per_value = _floatfmt._format_values

        def spy(values):
            calls.append(len(values))
            return per_value(values)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_floatfmt, "_format_values", spy)
            texts = formatted(columns, tables)
        assert texts == expected
        return calls

    def test_mixed_lengths_and_shared_columns(self):
        # Tables in the shape of `figures`: shared x and f_true columns,
        # each table's own columns, and a shorter table of other columns.
        rng = np.random.default_rng(3)
        columns = [repr_column(rng, 256) for _ in range(11)]
        columns += [repr_column(rng, 10) for _ in range(4)]
        tables = [[0, 1, 2, 3, 4], [0, 1, 5, 6, 7, 8], [0, 1, 9, 10, 2],
                  [11, 12, 13, 14]]
        assert self.kernel_passes(columns, tables) == [11 * 256 + 4 * 10]

    def test_repr_values(self):
        # Columns of nothing but the values format_rows leaves to repr.
        columns = [np.array(REPR_VALUES * 12)[np.random.default_rng(k).permutation(144)]
                   for k in range(3)]
        assert_tables(columns, [[0, 1], [2], [1, 2, 0]])

    @pytest.mark.parametrize("values", [
        _REPR_MAX_VALUES - 1, _REPR_MAX_VALUES, _REPR_MAX_VALUES + 1,
    ])
    @pytest.mark.parametrize("cols", [1, 3])
    def test_tables_around_the_repr_join(self, values, cols):
        # A table of `values` values beside a small one: only a table above
        # _REPR_MAX_VALUES values starts the pass over both tables' columns.
        rng = np.random.default_rng(values * cols)
        rows = -(-values // cols)
        columns = [repr_column(rng, rows) for _ in range(cols)] + [repr_column(rng, 5)]
        tables = [list(range(cols)), [cols]]
        pooled = rows * cols > _REPR_MAX_VALUES
        assert self.kernel_passes(columns, tables) == ([rows * cols + 5] if pooled else [])

    def test_one_kernel_pass_per_pool(self):
        rng = np.random.default_rng(4)
        columns = [rng.standard_normal(rows) for rows in (500, 500, 200, 200, 200, 10)]
        # The third table is small enough for the repr join; its column is
        # in the pool all the same.
        assert self.kernel_passes(columns, [[0, 1], [2, 3, 4], [5, 5, 5]]) == [1610]

    def test_a_single_table_goes_in_chunks(self, monkeypatch):
        monkeypatch.setattr(_floatfmt, "_CHUNK_ROWS", 100)
        rng = np.random.default_rng(5)
        columns = [repr_column(rng, 1090) for _ in range(2)]
        assert self.kernel_passes(columns, [[0, 1]]) == [200] * 10 + [180]

    @pytest.mark.parametrize("limit", [_POOL_MAX_VALUES, 64])
    def test_columns_over_the_pool_limit_go_table_by_table(self, monkeypatch, limit):
        monkeypatch.setattr(_floatfmt, "_POOL_MAX_VALUES", limit)
        rng = np.random.default_rng(limit)
        # Two columns of limit // 2 values are pooled; one more value is not,
        # and then each table goes in chunks of _CHUNK_ROWS rows.
        columns = [repr_column(rng, limit // 2) for _ in range(2)]
        tables = [[0, 1, 0, 1, 0, 1], [1, 0, 1]]
        assert self.kernel_passes(columns, tables) == [limit]
        rows = limit // 2 + 1
        columns = [repr_column(rng, rows) for _ in range(2)] + [np.ones(rows)]
        tables = [[0, 1, 0, 1, 0, 1], [2], [1, 0, 1]]
        chunks = [min(_CHUNK_ROWS, rows - i) * len(t) for t in tables
                  for i in range(0, rows, _CHUNK_ROWS)]
        assert self.kernel_passes(columns, tables) == [
            size for size in chunks if size > _REPR_MAX_VALUES]

    def test_empty_tables(self):
        rng = np.random.default_rng(6)
        columns = [np.empty(0), repr_column(rng, 100), repr_column(rng, 100), np.empty(0)]
        assert self.kernel_passes(columns, [[0, 3], [1, 2], [], [3]]) == [200]
        assert formatted(columns, [[0]]) == [b""]
        assert formatted(columns, []) == []


finite_bits = any_bits.filter(math.isfinite)


# The ends of the kernel's range 2^-32 <= |x| < 2^54 and their neighbours
# outside it.
RANGE_EDGES = [math.nextafter(2.0**-32, 0.0), 2.0**-32,
               math.nextafter(2.0**54, 0.0), 2.0**54]


class TestExponentNotation:
    """Exponent notation, |x| < 1e-4 or |x| >= 1e16, against repr: the
    kernel writes it within its range 2^-32 <= |x| < 2^54, repr outside."""

    def test_exponent_width_and_digit_edges(self):
        # The two- to three-digit exponent boundaries, powers of ten with
        # an inexact double (1e23) and an exact one (1e22), and the smallest
        # normal, whose spacing below is the subnormals'.
        edges = [1e-100, 9.999999999999999e-101, 1e100, 9.999999999999999e99,
                 1e16, 1e22, 1e23, 2.2250738585072014e-308,
                 2.225073858507202e-308, 1e-05, 9.999999999999999e-05]
        assert_formats(edges + [-v for v in edges], cols=2)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(finite_bits, min_size=1, max_size=60))
    def test_property(self, values):
        # Small tables take the kernel too when the repr join is off.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_floatfmt, "_REPR_MAX_VALUES", 0)
            assert_formats(values, cols=1)
            assert_formats(values, cols=4)

    def test_repr_runs_only_off_the_normals(self, monkeypatch):
        # repr writes exactly the values outside the kernel's range
        # 2^-32 <= |x| < 2^54: the normals below and above it, signed
        # zeros, subnormals, inf and nan.
        rng = np.random.default_rng(8)
        normal = rng.integers(1, 2047, 3001, dtype=np.uint64) << np.uint64(52)
        normal |= rng.integers(0, 2**52, 3001, dtype=np.uint64)
        normal |= rng.integers(0, 2, 3001, dtype=np.uint64) << np.uint64(63)
        others = [0.0, -0.0, 5e-324, -2.225073858507201e-308, math.inf,
                  -math.inf, math.nan]
        values = np.concatenate([normal.view(np.float64), RANGE_EDGES,
                                 [-v for v in RANGE_EDGES], others])
        rng.shuffle(values)
        calls = []
        monkeypatch.setattr(_floatfmt, "repr", lambda v: calls.append(v) or repr(v),
                            raising=False)
        slots, mask = _floatfmt._format_values(values)
        text = _floatfmt._join(slots, mask, 4)
        assert text == reference(values.reshape(-1, 4))
        magnitude = np.abs(values)
        outside = values[~((2.0**-32 <= magnitude) & (magnitude < 2.0**54))]
        assert len(outside) > len(others)
        assert sorted(map(str, calls)) == sorted(map(str, outside.tolist()))

    def test_kernel_range_edges(self, monkeypatch):
        # The doubles on both sides of each end of the kernel's range, and
        # the smallest, second and largest significand of every biased
        # exponent in it, 991 ... 1076, with the repr join off.
        monkeypatch.setattr(_floatfmt, "_REPR_MAX_VALUES", 0)
        exponent = np.arange(991, 1077, dtype=np.uint64)[:, None] << np.uint64(52)
        significand = np.array([0, 1, 2**52 - 1], dtype=np.uint64)
        values = np.concatenate([RANGE_EDGES, (exponent | significand).view(np.float64).ravel()])
        assert_formats(np.concatenate([values, -values]), cols=4)


def test_mul_is_exact_for_full_64_bit_operands():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2**64, 20000, dtype=np.uint64, endpoint=False)
    b = rng.integers(0, 2**64, 20000, dtype=np.uint64, endpoint=False)
    top = np.uint64(2**64 - 1)
    a[:3], b[:3] = top, [top, 1, 0]
    hi, lo = _mul(a, b)
    for x, y, h, low in zip(a.tolist(), b.tolist(), hi.tolist(), lo.tolist()):
        assert (h << 64) + low == x * y


def loadtxt_bits(text: str) -> np.ndarray:
    return np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2).view(np.uint64)


def parsed_bits(text: str, fields: int):
    table = parse_rows(io.BytesIO(text.encode("ascii")), fields)
    return None if table is None else table.view(np.uint64)


def assert_reads_like_loadtxt(lines, fields=1):
    """parse_rows takes the text and reads the same bits as np.loadtxt."""
    text = "".join(line + "\n" for line in lines)
    got = parsed_bits(text, fields)
    assert got is not None, "the reader declined"
    np.testing.assert_array_equal(got, loadtxt_bits(text))


finite_cell = st.one_of(
    any_bits.filter(math.isfinite),
    st.floats(allow_nan=False, allow_infinity=False),
    short_decimal,
    st.sampled_from([0.0, -0.0, 5e-324, 1e-4, 1e16]),
)


plain_token = st.from_regex(r"-?[0-9]{1,20}\.[0-9]{1,22}", fullmatch=True)
exponent_token = st.from_regex(r"[-+]?[0-9]{0,3}\.?[0-9]{0,3}e[-+]?[0-9]{0,3}",
                               fullmatch=True)
junk_token = st.text(alphabet='0123456789.-+e "\r', max_size=5)


@st.composite
def near_miss_csv(draw):
    """(fields, text): rows of plain values with some in exponent form, a
    few near misses, and now and then a row of the wrong length or a
    missing final newline."""
    fields = draw(st.integers(1, 3))
    token = st.one_of(plain_token, plain_token, plain_token, exponent_token, junk_token)
    width = st.one_of(st.just(fields), st.just(fields), st.integers(1, 4))
    rows = draw(st.lists(width.flatmap(
        lambda n: st.lists(token, min_size=n, max_size=n)), min_size=1, max_size=6))
    end = draw(st.sampled_from(["\n", "\n", ""]))
    return fields, "\n".join(",".join(row) for row in rows) + end


class CountingStream(io.BytesIO):
    """A binary stream that counts the bytes read from it."""

    bytes_read = 0

    def read(self, size=-1):
        block = super().read(size)
        self.bytes_read += len(block)
        return block


class TestReader:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda cols: st.lists(
        st.lists(finite_cell, min_size=cols, max_size=cols), min_size=1, max_size=60
    )))
    def test_write_csv_output_reads_like_loadtxt(self, rows):
        # Random bit patterns reach every exponent and both signs; with the
        # other draws they cover subnormals, zeros and exponent form.
        header = [f"c{i}" for i in range(len(rows[0]))]
        out = io.StringIO()
        write_csv(out, header, np.array(rows).T)
        text = out.getvalue()
        body = io.BytesIO(text.encode("ascii"))
        body.readline()
        table = parse_rows(body, len(header))
        assert table is not None
        expected = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
        np.testing.assert_array_equal(table.view(np.uint64), expected.view(np.uint64))

    def test_simulate_shaped_text(self, monkeypatch):
        n = 1 << 15
        x = 2.0 * math.pi * np.arange(n) / n
        g = -math.expm1(-1.0) * np.cos(x)
        noisy = g + 0.05 * np.random.default_rng(5).standard_normal(n)
        text = format_rows(np.column_stack([x, g, noisy])).decode("ascii")
        # Only the values in exponent form go through float().
        import sourcefft._floatfmt as floatfmt
        calls = []
        monkeypatch.setattr(floatfmt, "float", lambda v: calls.append(v) or float(v),
                            raising=False)
        np.testing.assert_array_equal(parsed_bits(text, 3), loadtxt_bits(text))
        tokens = text.replace("\n", ",").split(",")
        assert len(calls) == len([token for token in tokens if "e" in token])

    def test_exact_halfway_decimals_round_to_even(self):
        # (2c + 1) * 2^(j - 1) lies halfway between the adjacent doubles
        # c * 2^j and (c + 1) * 2^j; written out exactly it has 1 - j
        # decimals for j <= 0 and is an integer, written with ".0", above.
        rng = random.Random(7)
        lines = []
        for _ in range(400):
            c = rng.randrange(2**52, 2**53)
            j = rng.randrange(-4, 11)
            if j > 0:
                lines.append(f"{(2 * c + 1) << (j - 1)}.0")
            else:
                digits = str((2 * c + 1) * 5 ** (1 - j))
                lines.append(f"{digits[:j - 1]}.{digits[j - 1:]}")
        lines += ["-" + line for line in lines[:50]]
        assert_reads_like_loadtxt(lines)
        assert parsed_bits("9007199254740993.0\n", 1).view(np.float64)[0, 0] == 2.0**53

    def test_decimals_needing_the_second_product(self):
        # Significands whose first 64 x 64-bit product with the power of
        # five has its low nine bits all ones: only the second product
        # decides the rounding there.
        rng = random.Random(11)
        lines = []
        while len(lines) < 300:
            m = rng.randrange(2**53, 10**19)
            k = rng.randrange(1, 21)
            w = m << 64 - m.bit_length()
            if (w * int(_P5_HI[k]) >> 64) & 0x1FF == 0x1FF:
                digits = str(m).rjust(k + 1, "0")
                lines.append(f"{digits[:-k]}.{digits[-k:]}")
        assert_reads_like_loadtxt(lines)

    def test_long_and_padded_tokens(self):
        # More digits than a uint64 holds, leading zeros and integer parts
        # of every width up to past 16 digits: read by float().
        lines = ["0.00012345678901234567", "0.99999999999999999999",
                 "123456789012345678901234.5", "00000000000000000001.5",
                 "1." + "3" * 30, "0." + "0" * 25 + "1", "18446744073709551615.0",
                 "1844.6744073709551615", "9999999999999999999.0"]
        lines += [str(10 ** width // 7) + ".25" for width in range(1, 22)]
        lines += ["-" + line for line in lines]
        assert_reads_like_loadtxt(lines)
        assert_reads_like_loadtxt(
            [",".join(lines[i:i + 3]) for i in range(0, len(lines) - 2, 3)], 3)

    def test_exponent_form_values(self):
        values = [1e-5, -2.5e-7, 1e16, -1.7976931348623157e308, 5e-324,
                  2.2250738585072014e-308, 1.5e+300]
        lines = [f"{v!r},{1.0 + v!r}" for v in values] + ["1e5,2.0", "1.e5,-0.0"]
        assert_reads_like_loadtxt(lines, 2)

    @pytest.mark.parametrize("text", [
        pytest.param("1.0,2.0\r\n", id="crlf"),
        pytest.param('"1.0",2.0\n', id="quoted"),
        pytest.param("1.0,2.0\n\n3.0,4.0\n", id="blank-line"),
        pytest.param("1.0, 2.0\n", id="space"),
        pytest.param("1.0,2.0\n# note\n", id="comment"),
        pytest.param("1.0,inf\n", id="inf"),
        pytest.param("nan,2.0\n", id="nan"),
        pytest.param("1.0,2.0,3.0\n", id="ragged"),
        pytest.param("1.0\n", id="short-row"),
        pytest.param("1.0,2.0", id="no-final-newline"),
        pytest.param("1,2.0\n", id="integer"),
        pytest.param(".5,2.0\n", id="no-integer-digits"),
        pytest.param("1.,2.0\n", id="no-fraction-digits"),
        pytest.param("+1.0,2.0\n", id="plus-sign"),
        pytest.param("1.0.0,2.0\n", id="two-points"),
        pytest.param("1-0.5,2.0\n", id="inner-minus"),
        pytest.param("1.0,2.5/5\n", id="slash"),
        pytest.param("1e,2.0\n", id="bad-exponent"),
        pytest.param("1e5 ,2.0\n", id="space-in-exponent-form"),
        pytest.param("1.0,\xff\n", id="non-ascii"),
        pytest.param("", id="empty"),
    ])
    def test_declines_what_format_rows_never_writes(self, text):
        assert parse_rows(io.BytesIO(text.encode("latin-1")), 2) is None

    @pytest.mark.parametrize("text", ["\n", "1.0\n\n", "\n1.0\n", "-\n", ".\n"])
    def test_declines_blank_and_bare_lines_of_one_column(self, text):
        assert parse_rows(io.BytesIO(text.encode("ascii")), 1) is None

    @settings(max_examples=400, deadline=None)
    @given(text=near_miss_csv())
    def test_accepts_only_what_loadtxt_reads_the_same(self, text):
        # Whatever the reader accepts, np.loadtxt reads to the same bits.
        fields, text = text
        got = parsed_bits(text, fields)
        if got is not None:
            np.testing.assert_array_equal(got, loadtxt_bits(text))

    @pytest.mark.parametrize("first", [
        pytest.param("1.0,2.0\r\n", id="crlf"),
        pytest.param("1.0,2.0\n\n", id="blank-line"),
        pytest.param("1.0,2.0,3.0\n", id="ragged"),
    ])
    def test_declined_first_block_is_read_once(self, monkeypatch, first):
        # Reading stops at the first block declined, so text declined in
        # the first block is not read to its end.
        import sourcefft._floatfmt as floatfmt
        monkeypatch.setattr(floatfmt, "_READ_BYTES", 64)
        stream = CountingStream((first + "1.5,2.5\n" * 100).encode("ascii"))
        assert parse_rows(stream, 2) is None
        assert stream.bytes_read == 64

    def test_accepted_text_is_read_once(self, monkeypatch):
        # Every byte is read once: no pass counts the lines first.
        monkeypatch.setattr(_floatfmt, "_READ_BYTES", 64)
        values = np.linspace(-3.0, 7.0, 240).tolist()
        text = "".join(f"{a!r},{b!r}\n" for a, b in zip(values[::2], values[1::2]))
        stream = CountingStream(text.encode("ascii"))
        table = parse_rows(stream, 2)
        assert stream.bytes_read == len(text)
        np.testing.assert_array_equal(table.view(np.uint64), loadtxt_bits(text))

    @pytest.mark.parametrize("last", [
        pytest.param("1.5,2.5\r\n", id="crlf"),
        pytest.param("1.5,2.5,3.5\n", id="ragged"),
    ])
    def test_block_declined_after_accepted_ones(self, monkeypatch, last):
        # The values already written do not make a table: the answer is
        # None, after one read of the text.
        monkeypatch.setattr(_floatfmt, "_READ_BYTES", 64)
        stream = CountingStream(("1.5,2.5\n" * 100 + last).encode("ascii"))
        assert parse_rows(stream, 2) is None
        assert stream.bytes_read == 800 + len(last)

    def test_read_csv_of_a_late_decline_reads_like_loadtxt(self, monkeypatch, tmp_path):
        # Many blocks are accepted before the last line, with its CRLF, is
        # declined; np.loadtxt then reads the whole file.
        monkeypatch.setattr(_floatfmt, "_READ_BYTES", 64)
        values = np.linspace(0.1, 100.0, 300).tolist()
        lines = [f"{a!r},{-a!r}" for a in values]
        path = tmp_path / "late.csv"
        path.write_bytes(("a,b\n" + "\n".join(lines) + "\r\n").encode("ascii"))
        parsed, parse = [], _floatfmt.parse_rows
        monkeypatch.setattr(_floatfmt, "parse_rows",
                            lambda *args: parsed.append(parse(*args)) or parsed[-1])
        header, table = _floatfmt.read_csv(path)
        assert header == ["a", "b"] and parsed == [None]
        expected = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        np.testing.assert_array_equal(table.view(np.uint64), expected.view(np.uint64))

    def test_lines_longer_than_a_read(self, monkeypatch):
        # A line split across reads is carried to the next one.
        import sourcefft._floatfmt as floatfmt
        monkeypatch.setattr(floatfmt, "_READ_BYTES", 7)
        lines = [f"{v!r},{-v!r}" for v in np.linspace(0.1, 100.0, 50).tolist()]
        assert_reads_like_loadtxt(lines, 2)
