"""CSV files of float64 as repr text, written and read by array operations.

format_rows(table) is "".join of "%r,%r,...\\n" % row over the rows of a
2-D float table, encoded as ASCII, computed without a Python call per
value; parse_rows reads such text back.  Like Python's repr, the writer
picks the shortest decimal that reads back to the same double, the closest
one among those, and the one with an even last digit on a tie.

It finds those digits exactly.  A normal double x = c * 2^q, 2^52 <= c <
2^53, scaled by 10^m is c * 5^m * 2^(q + m); m is minus the decimal
exponent k that Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020; the algorithm of java.lang.DoubleToDecimal) picks, so the
digits number 16 or 17.  For 2^-32 <= |x| < 2^54, q from -84 to 1, m is at
most 26, so 5^m < 2^61, and 4c * 5^m is a 128-bit product whose binary
point lies r = 2 - q - m bits from its end, 1 <= r <= 60: its integer part,
the bits below the point and the rounding interval's half-widths in units
of 2^-r are all compared in uint64.  From 2^54 up r is 0 or less, and from
2^56 up m turns negative, which makes x * 10^m a quotient; below 2^-32 r
passes 60, and ten units of 2^r no longer fit in 64 bits.  The range holds
nearly every value the commands write at their defaults.  Every value
outside it, signed zeros, rounding residues such as cos(pi / 2) = 6e-17,
subnormals, inf and nan among them, is formatted by repr itself, about
five times slower per value than the kernel.  The digits are laid out as
repr does: in fixed notation for 1e-4 <= |x| < 1e16, else in exponent
notation ("1.5e-05", "1.8e+16").

The kernel is a per-value pass, which gives each value a 48-byte slot of
text and a mask of the bytes it keeps, and a join, which compacts a table's
slots in row order into its lines.  format_rows joins the slots where the
pass left them.  format_tables is the one writer of tables of columns: it
formats a table _CHUNK_ROWS rows at a time through format_rows, except
that several tables of few values in all are joined from one pass over
their columns, so a `figures` run formats each of its columns once.  Its
text goes to files after a header line: write_csv's and `figures`'.

parse_rows turns the digits of each value into a uint64 m and a decimal
exponent -k by SWAR (eight ASCII digits per uint64 word) and m * 10^-k into
the nearest double as Clinger's exact division when m <= 2^53, else by the
Eisel-Lemire algorithm (D. Lemire, "Number parsing at a gigabyte per
second", Software: Practice and Experience 51(8), 2021), whose 128-bit
product never needs a fallback (N. Mushtak and D. Lemire, "Fast number
parsing without fallback", SPE 53(6), 2023).  It reads the stream once,
block by block, into one table sized from the bytes left: an upper bound,
of which only the rows read are touched.  It takes only the text
format_rows writes and declines anything else, which read_csv, the reader
of every CSV file, hands to np.loadtxt.

The integer arithmetic runs on uint64 arrays with uint64 operands only, so
no value is promoted to float64 unasked (numpy 1.24's value-based casting
included); 64 x 64-bit products are assembled from 32-bit limbs.
"""

from __future__ import annotations

import csv
import functools
import itertools
import os
import warnings

import numpy as np

__all__ = ["format_rows", "format_tables", "parse_rows", "read_csv", "write_csv"]

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_MASK63 = _U64((1 << 63) - 1)
_T_MASK = _U64((1 << 52) - 1)
_C_MIN = _U64(1 << 52)

# repr uses fixed notation exactly for these magnitudes: the shortest digits
# of a double at or above 1e-4 never read below 0.0001, of one below 1e16
# never reach 1e16.  Compared as the bits of |x|, which order like the values.
_FIXED_LO = _U64(np.float64(1e-4).view(_U64))
_FIXED_SPAN = _U64(np.float64(1e16).view(_U64)) - _FIXED_LO
# The kernel's range, 2^-32 <= |x| < 2^54: the normal doubles of biased
# exponent _BQ_MIN ... _BQ_MAX, whose bits of |x| lie in
# [_KERNEL_LO, _KERNEL_LO + _KERNEL_SPAN).
_BQ_MIN, _BQ_MAX = 991, 1076
_KERNEL_LO = _U64(_BQ_MIN << 52)
_KERNEL_SPAN = _U64(_BQ_MAX + 1 - _BQ_MIN << 52)
_ONE = _U64(np.float64(1.0).view(_U64))


def _flog10pow2(e):
    """floor(log10(2^e)), exact for |e| <= 5456721 (DoubleToDecimal)."""
    return e * 661971961083 >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 * 2^e)), exact for |e| <= 5456721."""
    return (e * 661971961083 - 274743187321) >> 41


def _scales():
    """Per (biased exponent, irregular spacing): k, r and 5^m, m = -k.

    Row (bq - _BQ_MIN) * 2 + irregular holds, for q = bq - 1075,
    Schubfach's decimal exponent k of the result (floor(log10) of the
    rounding interval's width), the shift r = 2 - q - m, which makes
    4c * 5^m / 2^r = x * 10^m, and 5^m.
    """
    q = np.arange(_BQ_MIN, _BQ_MAX + 1) - 1075
    k = np.stack([_flog10pow2(q), _flog10_three_quarters_pow2(q)], axis=1).reshape(-1)
    m = -k
    r = 2 - np.repeat(q, 2) - m
    # m <= 26 keeps 5^m below 2^61, and r <= 60 keeps 10 * 2^r below 2^64:
    # every product, sum and comparison in _shortest fits in uint64.
    assert m.min() >= 0 and m.max() <= 26 and r.min() >= 1 and r.max() <= 60
    return k, r.astype(_U64), np.array([5 ** e for e in m.tolist()], dtype=_U64)


_K, _R, _FIVE = _scales()


def _mul(a, b):
    """(high, low) 64-bit words of a * b, for any uint64 a and b."""
    a_hi, a_lo = a >> _U64(32), a & _MASK32
    b_hi, b_lo = b >> _U64(32), b & _MASK32
    # Neither sum can carry out of 64 bits: with x = 2^32 - 1, mid is at
    # most x * x + x and then x * x + 2x = 2^64 - 1.
    mid = (a_lo * b_lo >> _U64(32)) + a_lo * b_hi
    cross = a_hi * b_lo
    mid += cross & _MASK32
    return a_hi * b_hi + (cross >> _U64(32)) + (mid >> _U64(32)), a * b


def _shortest(bits):
    """The shortest decimal of doubles 2^-32 <= x < 2^54, found exactly.

    bits are the uint64 bits of |x|.  Returns (d, k): |x| prints as the
    digits of d times 10^k, d has 16 or 17 digits, trailing zeros included.
    """
    t = bits & _T_MASK
    c = t | _C_MIN
    # A power of two has the irregular interval, its lower neighbour closer.
    irregular = t == 0
    row = ((bits - _KERNEL_LO) >> _U64(52)).astype(np.intp) * 2 + irregular
    r, five = _R[row], _FIVE[row]

    # x * 10^m = 4c * 5^m / 2^r = s + rem / 2^r.
    hi, lo = _mul(c << _U64(2), five)
    s = (hi << _U64(64) - r) | (lo >> r)
    one = _U64(1) << r
    rem = lo & (one - _U64(1))
    # In units of 2^-r, the rounding interval reaches 2 * 5^m above x * 10^m
    # and as far below, 5^m at a power of two.  repr keeps an end only for an
    # even c, but no candidate below is an end: for q <= 0 an end has 1 - q
    # decimals (2 - q below a power of two) and a candidate at most m <= -q,
    # save at 2^52 (q = 0, m = 1), whose ends x + 1/2 and x - 1/4 are not x,
    # x + 0.1 or x + 1; at q = 1, x = s is an even integer, and the one end
    # a candidate reaches, s + 1, loses to s.
    above = five << _U64(1)
    below = above - irregular * five

    # One digit shorter: sp10 and sp10 + 10 are 10^(k+1) apart and the
    # interval is narrower, so at most one of them is in it.
    sp10 = s // _U64(10) * _U64(10)
    j = s - sp10
    upin = (j << r) + rem <= below
    wpin = ((_U64(10) - j) << r) - rem <= above
    # Full length: s or s + 1 is in the interval; if both are, take the
    # closer, the even one on a tie.
    uin = rem <= below
    win = one - rem <= above
    closer_w = (rem << _U64(1)) + (s & _U64(1)) > one
    full = s + (~uin | win & closer_w)
    shorter = sp10 + _U64(10) * wpin
    return np.where(upin | wpin, shorter, full), _K[row]


def _digit_tables():
    """ASCII of the 4-digit groups 0000 ... 9999 in the low and in the high
    half of a little-endian uint64, so two groups make one 8-byte word of
    text, and _LAST.

    _LAST[j][g]: with group j (digits 4j+1 ... 4j+4 of 17) equal to g, the
    count of digits up to its last nonzero one; 0 for g = 0, except 1 in
    group 0, for the lead digit.  The maximum over the groups is the number
    of significant digits.
    """
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    text = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    text[..., 0] = digit[:, None, None, None]
    text[..., 1] = digit[:, None, None]
    text[..., 2] = digit[:, None]
    text[..., 3] = digit
    ascii_lo = text.reshape(-1).view("<u4").astype(_U64)
    group = np.arange(10000)
    trailing_zeros = sum((group % 10 ** z == 0).astype(np.intp) for z in (1, 2, 3))
    last = [np.where(group > 0, 4 * j + 5 - trailing_zeros, 0).astype(np.uint8)
            for j in range(4)]
    last[0][0] = 1
    return ascii_lo, ascii_lo << _U64(32), last


_DIGITS_LO, _DIGITS_HI, _LAST = _digit_tables()

# A value's slot is six little-endian uint64 words, 48 bytes.  In fixed
# notation:
#   0 separator before the value ("," or the previous row's "\n"), 1 "-",
#   2-6 "0.000", 7 lead digit, 8-23 digits 1-16, 24-30 unused, 31 ".",
#   32-47 digits 1-16 again;
# in exponent notation:
#   0 separator, 1 "-", 2-5 unused, 6 lead digit, 7 ".", 8-23 digits 1-16,
#   24-27 the exponent ("e-05" or "e+16"), 28-47 unused.
# Every layout keeps a subset of these bytes, so a block is one column stack
# and one mask compaction.  The digits appear twice so that the integer
# part (from byte 7) and the fraction (after byte 31) are both plain runs.
_SLOT = 48
_DIGITS_AT = 7
_POINT_AT = 31
_EXP_LEAD_AT = 6
_EXP_AT = 24
_PREFIX = int.from_bytes(b",-0.0000", "little")
_EXP_PREFIX = int.from_bytes(b",-00000.", "little")
_POINT_WORD = _U64(ord(".") << 56)
# Forms: decimal point positions -3 ... 16, then exponent notation.
_N_FORMS = 21
_EXP_FORM = 20
# Exponent notation is written for the two-digit exponents _EXP_MIN ...
# -_EXP_MIN; the kernel's range, 2.3e-10 to 1.8e16, needs -10 ... 16.
_EXP_MIN = -99


def _exponent_words():
    """Per decimal exponent e, _EXP_MIN ... -_EXP_MIN: the little-endian
    word of repr's "e-05" text of e, placed at byte _EXP_AT."""
    e = np.arange(_EXP_MIN, 1 - _EXP_MIN)
    size = np.abs(e)
    text = np.zeros((len(e), 8), dtype=np.uint8)
    text[:, 0] = ord("e")
    text[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    text[:, 2] = size // 10 + ord("0")
    text[:, 3] = size % 10 + ord("0")
    return text.view("<u8").reshape(-1).astype(_U64)


_EXP_WORD = _exponent_words()


def _layouts() -> np.ndarray:
    """The byte mask of every (negative, form, digit count) layout.

    With n significant digits and the decimal point decpt places right of
    the first one, repr's fixed notation is "0." + "0" * -decpt + digits
    for decpt <= 0, the digits split by "." for 0 < decpt < n, and the
    digits padded with zeros to decpt places plus ".0" for decpt >= n.  Its
    exponent notation is the first digit, then "." and the others if n > 1,
    then the exponent.
    """
    b = np.arange(_SLOT)
    n = np.arange(1, 18)[:, None]
    decpt = np.arange(-3, 17)[:, None, None]
    small = ((2 <= b) & (b < 4 - decpt)) | ((_DIGITS_AT <= b) & (b < _DIGITS_AT + n))
    large = (((_DIGITS_AT <= b) & (b < _DIGITS_AT + decpt)) | (b == _POINT_AT)
             | ((_POINT_AT + decpt <= b) & (b < _POINT_AT + np.maximum(n, decpt + 1))))
    exponent = ((b == _EXP_LEAD_AT) | ((b == _EXP_LEAD_AT + 1) & (n > 1))
                | ((_EXP_LEAD_AT + 1 < b) & (b < _EXP_LEAD_AT + 1 + n))
                | ((_EXP_AT <= b) & (b < _EXP_AT + 4)))
    masks = np.concatenate([np.where(decpt <= 0, small, large), exponent[None]])
    masks = np.stack([masks, masks])
    masks[..., 0] = True
    masks[1, ..., 1] = True
    return masks.reshape(-1, _SLOT)


_LAYOUTS = _layouts()


# Tables of at most this many values are formatted by the repr join itself:
# the kernel's fixed cost of about 150 numpy calls made a 6 x 4 table take
# 310 us against 38 us for the join, 128 values 324 us against 202 us; the
# two were even near 256 values and the kernel ahead from 512 on.
_REPR_MAX_VALUES = 128


def format_rows(table) -> bytes:
    """ASCII of the rows of a 2-D float64 table as CSV lines.

    Equal to "".join(",".join(repr(float(v)) for v in row) + "\\n" for row
    in table).encode("ascii"), which is how tables of at most
    _REPR_MAX_VALUES values are formatted.  In larger ones, the values
    2^-32 <= |x| < 2^54 go through the array kernel, the rest through repr;
    the slots are joined where the per-value pass left them.
    """
    table = np.ascontiguousarray(table, dtype=np.float64)
    if table.size <= _REPR_MAX_VALUES:
        return "".join(",".join(map(repr, row)) + "\n"
                       for row in table.tolist()).encode("ascii")
    return _join(*_format_values(table.reshape(-1)), table.shape[1])


# Pools of more values are not held as slots, 96 bytes a value, nor passed
# whole through the per-value pass, whose temporaries are larger still.
_POOL_MAX_VALUES = 1 << 15

# Rows per chunk of a table that is not joined from a pool: bounds the text
# held in memory for a 2^20-row table, and keeps the formatter's temporaries
# small enough that the allocator reuses their pages; at 2^14 rows of 3
# columns every chunk took about 4,000 minor page faults, over a third of
# the format time, and at 2^12 rows none.
_CHUNK_ROWS = 1 << 12


def format_tables(columns, tables):
    """Per table, in order, an iterator of the ASCII chunks of
    format_rows(np.column_stack([columns[c] for c in table])).

    columns is a list of 1-D float arrays and every table a list of
    positions in it whose columns share one length.  When there are
    several tables and the columns hold at most _POOL_MAX_VALUES values,
    one per-value kernel pass formats every column once, when the first
    table above _REPR_MAX_VALUES values is reached, and every such table
    gathers its rows' slots and joins them, so a column shared by several
    tables is formatted once.  Every other table goes through format_rows,
    _CHUNK_ROWS rows at a time, as its iterator is read.
    """
    tables = [list(table) for table in tables]
    offsets = np.cumsum([0] + [len(c) for c in columns])
    pooled = len(tables) > 1 and offsets[-1] <= _POOL_MAX_VALUES
    slots = None
    for table in tables:
        rows = len(columns[table[0]]) if table else 0
        if not pooled or rows * len(table) <= _REPR_MAX_VALUES:
            yield _chunks([columns[c] for c in table], rows)
            continue
        if slots is None:
            slots = _format_values(np.concatenate(columns, axis=None, dtype=np.float64))
        # np.take copies whole rows; it is about 4x faster here than
        # indexing the 2-D slot arrays with the same index.
        flat = (np.arange(rows)[:, None] + offsets[table]).reshape(-1)
        yield iter([_join(*(np.take(a, flat, axis=0) for a in slots), len(table))])


def _chunks(columns, rows: int):
    """format_rows of the equal-length columns, _CHUNK_ROWS rows at a time,
    each chunk stacked from the columns' slices."""
    for i in range(0, rows, _CHUNK_ROWS):
        yield format_rows(np.column_stack([c[i:i + _CHUNK_ROWS] for c in columns]))


def _join(slots, mask, cols: int) -> bytes:
    """The CSV text of the (values, _SLOT) slots and byte masks of a
    table's values in row order, cols to a row; changes both in place."""
    # A row's first value is separated from the previous row by a newline;
    # the table's first value has no separator.
    slots[::cols, 0] = ord("\n")
    mask[0, 0] = False
    # A boolean index copies the kept bytes; np.compress would also build
    # an int64 index of them, eight bytes per byte kept.
    return slots.reshape(-1)[mask.reshape(-1)].tobytes() + b"\n"


def _format_values(values) -> tuple:
    """(slots, mask) of a nonempty 1-D float64 array: per value its 48-byte
    slot, whose separator byte is ",", and the mask of the bytes its text
    keeps (_join compacts them)."""
    bits = values.view(_U64)
    magnitude = bits & _MASK63
    # The kernel formats every value; each one outside its range (zeros,
    # subnormals, inf and nan among them) is formatted as 1.0 there, and
    # then by repr below.
    (others,) = np.nonzero(magnitude - _KERNEL_LO >= _KERNEL_SPAN)
    magnitude[others] = _ONE
    d, k = _shortest(magnitude)

    # Left-align d to exactly 17 digits, so |x| = 0.ddd... * 10^decpt.
    short = d < _U64(10 ** 16)
    d += short * _U64(9) * d
    decpt = k + 17 - short
    lead = d // _U64(10 ** 16)
    d -= lead * _U64(10 ** 16)
    hi = d // _U64(10 ** 8)
    lo = (d - hi * _U64(10 ** 8)).astype(np.uint32)
    hi = hi.astype(np.uint32)
    groups = []
    for half in (hi, lo):
        top = half // np.uint32(10 ** 4)
        groups += [top, half - top * np.uint32(10 ** 4)]
    n = np.maximum(np.maximum(_LAST[0][groups[0]], _LAST[1][groups[1]]),
                   np.maximum(_LAST[2][groups[2]], _LAST[3][groups[3]]))
    text_a = _DIGITS_LO[groups[0]] | _DIGITS_HI[groups[1]]
    text_b = _DIGITS_LO[groups[2]] | _DIGITS_HI[groups[3]]
    lead_word = (lead << _U64(56)) + _U64(_PREFIX)
    point_word = np.full(len(lead), _POINT_WORD)
    form = decpt + 3
    (scientific,) = np.nonzero(magnitude - _FIXED_LO >= _FIXED_SPAN)
    if len(scientific):
        # repr's exponent notation: |x| = d.ddd... * 10^(decpt - 1).
        exponent = decpt[scientific] - (_EXP_MIN + 1)
        form[scientific] = _EXP_FORM
        lead_word[scientific] = (lead[scientific] << _U64(48)) + _U64(_EXP_PREFIX)
        point_word[scientific] = _EXP_WORD[exponent]
    negative = (bits >> _U64(63)).astype(np.intp)
    layout = (negative * _N_FORMS + form) * 17 + n - 1

    slots = np.column_stack(
        [lead_word, text_a, text_b, point_word, text_a, text_b]
    ).astype("<u8", copy=False).view(np.uint8)

    mask = np.take(_LAYOUTS, layout, axis=0)
    if len(others):
        # NUL-padded repr bytes, one row per value; repr never writes a NUL.
        text = np.array(list(map(repr, values[others].tolist())), dtype="S")
        text = text.view(np.uint8).reshape(len(others), -1)
        slots[others, 1:1 + text.shape[1]] = text
        mask[others, 1:] = False
        mask[others, 1:1 + text.shape[1]] = text != 0
    return slots, mask


# ---------------------------------------------------------------------------
# Reading: the inverse of format_rows.

def _powers_of_five():
    """Eisel-Lemire's table, row k for q = -k, k = 1 ... 20 (row 0 unused):
    the high and low words of 5^-q as a 128-bit fraction with its top bit
    set, rounded up (floor(2^(z + 127) / 5^k) + 1, z the bit length of
    5^k), and power(q) + 1022, the biased binary exponent less the leading
    bit a mantissa adds to it, with power(q) = floor(q * 217706 / 2^16) + 63
    (fast_float's table and power)."""
    c = [0] + [(1 << (5 ** k).bit_length() + 127) // 5 ** k + 1 for k in range(1, 21)]
    k = np.arange(21)
    return (np.array([v >> 64 for v in c], dtype=_U64),
            np.array([v & (1 << 64) - 1 for v in c], dtype=_U64),
            ((-217706 * k >> 16) + 63 + 1022).astype(_U64))


_P5_HI, _P5_LO, _P5_EXP = _powers_of_five()
_POW10 = np.array([10 ** k % (1 << 64) for k in range(21)], dtype=_U64)
_POW10_F = 10.0 ** np.arange(21)       # exact: 10^k < 2^53 * 2^k for k <= 22
_TWO53 = _U64(1 << 53)


def _eisel_lemire(m, k):
    """Bits of the double nearest m * 10^-k, ties to even, for uint64
    2^53 < m < 10^19 and 1 <= k <= 20 (fast_float's compute_float)."""
    # m >> 11 >= 2^42 converts to a double exactly; its exponent gives the
    # bit length of m, and so the shift that sets the top bit.
    lz = _U64(1075) - ((m >> _U64(11)).astype(np.float64).view(_U64) >> _U64(52))
    w = m << lz
    hi, lo = _mul(w, _P5_HI[k])
    # Only where the low nine bits of hi are all ones can the truncated
    # rest of 5^-q carry into the bits kept.
    (near,) = np.nonzero(hi & _U64(0x1FF) == _U64(0x1FF))
    if len(near):
        carry, _ = _mul(w[near], _P5_LO[k[near]])
        low = lo[near] + carry
        hi[near] += low < carry
        lo[near] = low
    upper = hi >> _U64(63)
    shift = upper + _U64(9)
    mantissa = hi >> shift
    # A product with nothing below the kept bits is an exact halfway case
    # (possible only for k <= 4): round down to even instead of up.
    (exact,) = np.nonzero(lo <= _U64(1))
    tie = exact[(k[exact] <= 4) & (mantissa[exact] & _U64(3) == _U64(1))
                & (mantissa[exact] << shift[exact] == hi[exact])]
    mantissa[tie] -= _U64(1)
    mantissa += mantissa & _U64(1)
    mantissa >>= _U64(1)
    # The mantissa's leading bit adds one to the exponent, two when the
    # rounding carried it to 2^53.
    return (_P5_EXP[k] + upper - lz << _U64(52)) + mantissa


def _eight_digits(words):
    """Turn little-endian uint64 words of ASCII digits, first byte most
    significant, into the numbers they write, in place; a zero byte reads
    as a zero digit."""
    for mask, scale, shift in _SWAR_STEPS:
        words &= mask
        words *= scale
        words >>= shift
    return words


# Pairs of digits, then pairs of those, then of those.
_SWAR_STEPS = [(_U64(0x0F0F0F0F0F0F0F0F), _U64(10 << 8 | 1), _U64(8)),
               (_U64(0x00FF00FF00FF00FF), _U64(100 << 16 | 1), _U64(16)),
               (_U64(0x0000FFFF0000FFFF), _U64(10000 << 32 | 1), _U64(32))]


def _keep_digits():
    """Row n: the masks of three consecutive 8-byte words that keep their
    last n bytes (all 24 for n >= 24), the last n digits of a run."""
    def keep(j):
        j = min(max(j, 0), 8)
        return (1 << 64) - (1 << 64 - 8 * j) if j else 0
    return np.array([[keep(n - 16), keep(n - 8), keep(n)] for n in range(25)],
                    dtype=_U64)


_KEEP_DIGITS = _keep_digits()
# Bytes read at a time.  Peak memory grows with the block and numpy calls
# per byte shrink: a 2^20-row `invert` peaked at 89 MB with 256 KiB reads,
# 94 MB with 1 MiB and 102 MB with 4 MiB, in about the same time.
_READ_BYTES = 1 << 18
# Zero bytes ahead of each block, so the 24 bytes that end at any value
# are inside the buffer.
_PAD = bytes(24)
# The bytes a value in exponent form may hold, as a lookup table.
_EXP_FORM_BYTES = np.zeros(256, dtype=bool)
_EXP_FORM_BYTES[list(b"0123456789.-+e")] = True


def _digit_run(windows, at, count):
    """(len(at), 3) uint64: the number written by the last `count` digits
    of the 24 bytes at each offset `at` of windows, eight digits per column,
    most significant first; only the last 24 digits of a longer run."""
    words = windows[at].view(_U64).reshape(-1, 3)
    words &= np.take(_KEEP_DIGITS, np.minimum(count, 24), axis=0)
    return _eight_digits(words)


def _parse_lines(text, fields):
    """The values of the lines of text after _PAD, each ending in a newline,
    as a flat float64 array; None unless every line holds `fields` values
    -?D+.D+ or values holding an "e", which float() reads."""
    exp_form = b"e" in text
    if exp_form:
        text = bytearray(text)
    body = np.frombuffer(text, np.uint8, offset=len(_PAD))
    # Every byte below "/" (separators, points, minus signs and any other
    # punctuation, space or control byte) and every e.
    marks = body < ord("/")
    if exp_form:
        marks |= body == ord("e")
    marks = np.flatnonzero(marks)
    kind = body[marks]
    (sep,) = np.nonzero((kind == ord(",")) | (kind == ord("\n")))
    ends = marks[sep]
    # Every value holds a mark of its own: its point or its e.
    if len(ends) % fields or len(marks) < 2 * len(ends):
        return None
    # Each line has `fields` values, the last ended by the newline.
    line = np.full(fields, ord(","), dtype=np.uint8)
    line[-1] = ord("\n")
    if (kind[sep].reshape(-1, fields) != line).any():
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    # A value -?D+.D+ holds one mark, its point, or two, a minus sign at
    # its start and then the point.
    points = marks[sep - 1]
    count = sep.copy()
    count[1:] -= sep[:-1] + 1
    negative = count == 2
    plain = (kind[sep - 1] == ord(".")) & ((count == 1) | negative
                                         & (kind[sep - 2] == ord("-"))
                                         & (marks[sep - 2] == starts))
    tok, exact = np.empty(0, np.intp), []
    if exp_form:
        # Values in exponent form go through float(), and their bytes are
        # overwritten with "0.0...0" for the checks and the digit words.
        # The value of each e, without repeats: searchsorted's result does
        # not decrease, so a repeat equals its left neighbour.
        tok = np.searchsorted(ends, marks[kind == ord("e")])
        first = np.ones(len(tok), dtype=bool)
        first[1:] = tok[1:] != tok[:-1]
        tok = tok[first]
        lengths = ends[tok] - starts[tok]
        inside = np.repeat(starts[tok] - np.cumsum(lengths) + lengths, lengths)
        inside += np.arange(len(inside))
        if not _EXP_FORM_BYTES[body[inside]].all():
            return None
        try:
            exact = [float(text[len(_PAD) + i:len(_PAD) + j])
                     for i, j in zip(starts[tok].tolist(), ends[tok].tolist())]
        except ValueError:
            return None
        body[inside] = ord("0")
        points[tok] = starts[tok] + 1
        body[points[tok]] = ord(".")
        plain[tok] = True
        negative[tok] = False
    # Above "/" only digits are left.
    if not plain.all() or body.max() > ord("9") or b"/" in text:
        return None
    int_len = points - starts - negative
    frac_len = ends - points - 1
    if (int_len < 1).any() or (frac_len < 1).any():
        return None

    # SWAR over the 24 bytes that end each fraction, and those that end
    # each integer part of more than one digit.
    windows = np.ndarray((len(text) - 23,), "V24", text, strides=(1,))
    high, mid, low = _digit_run(windows, ends + (len(_PAD) - 24), frac_len).T
    frac = (high * _U64(10 ** 8) + mid) * _U64(10 ** 8) + low
    whole = (body[points - 1] - np.uint8(ord("0"))).astype(_U64)
    (long,) = np.nonzero(int_len > 1)
    at_point = points[long] + (len(_PAD) - 24)
    _, mid, low = _digit_run(windows, at_point, int_len[long]).T
    whole[long] = mid * _U64(10 ** 8) + low
    # m has at most 19 digits, or it is the fraction alone and below
    # 1844 * 10^16 < 2^64.
    fits = (int_len <= 16) & (frac_len <= 20) & (high < _U64(1844)) \
        & ((whole == _U64(0)) | (int_len + frac_len <= 19))
    k = np.minimum(frac_len, 20)
    m = whole * _POW10[k] + frac

    bits = (m.astype(np.float64) / _POW10_F[k]).view(_U64)
    (large,) = np.nonzero(m > _TWO53)
    bits[large] = _eisel_lemire(m[large], k[large])
    bits |= negative.astype(_U64) << _U64(63)
    values = bits.view(np.float64)
    fits[tok] = True
    for t in np.flatnonzero(~fits).tolist():
        values[t] = float(text[len(_PAD) + starts[t]:len(_PAD) + ends[t]])
    values[tok] = exact
    return values


def parse_rows(stream, fields: int):
    """The (rows, fields) float64 table of the CSV lines left in the binary
    stream, read as float() reads each value; None when the lines are not
    text as format_rows writes it.

    Accepted: LF line ends with none missing, no blank line, exactly
    `fields` comma-separated values per line, and only the bytes
    0-9 . - + e , and newline; every value is -?D+.D+ or holds an "e"
    (repr's exponent form, read by float()).  The stream is read once, in
    blocks of _READ_BYTES, each cut after its last newline and parsed
    straight into one table sized for the most values the bytes left can
    hold; reading stops at the first block declined.
    """
    if fields < 1:
        return None
    start = stream.tell()
    end = stream.seek(0, os.SEEK_END)
    stream.seek(start)
    # A value and its separator take at least 4 bytes ("0.0," or "1e5,").
    # The pages past the last value written are never touched, so only the
    # values read become resident.
    flat = np.empty((end - start) // 4)
    done = 0
    tail = b""
    for block in iter(functools.partial(stream.read, _READ_BYTES), b""):
        cut = block.rfind(b"\n") + 1
        if not cut:
            tail += block
            continue
        values = _parse_lines(b"".join((_PAD, tail, memoryview(block)[:cut])), fields)
        if values is None or done + len(values) > len(flat):
            return None
        flat[done:done + len(values)] = values
        done += len(values)
        tail = block[cut:]
    return flat[:done].reshape(-1, fields) if done and not tail else None


# ---------------------------------------------------------------------------
# Files: where a CSV file becomes a table, and a table a CSV file.

def write_csv(path, header, columns) -> None:
    """Write a header line and columns of numbers as CSV, LF line endings.

    path is a file path, or an open text stream, written to and left open.
    columns holds one equal-length 1-D array per header field (a 2-D array
    holds them as its rows).  Each value is written as repr(float(value)),
    in chunks of _CHUNK_ROWS rows from format_tables, the writer `figures`
    shares, so a large table never exists as one array or one string.
    """
    columns = [np.asarray(column, dtype=float) for column in columns]
    rows = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(c.shape != (rows,) for c in columns):
        raise ValueError(
            f"columns have shapes {[c.shape for c in columns]}, "
            f"header has {len(header)} fields"
        )
    (body,) = format_tables(columns, [range(len(columns))])
    _write_text(path, header, body)


def _write_text(path, header, body) -> None:
    """Write write_csv's header line, then the ASCII chunks of body, to
    path: a file path, or an open text stream left open."""
    chunks = itertools.chain([(",".join(header) + "\n").encode("utf-8")], body)
    if isinstance(path, (str, os.PathLike)):
        with open(path, "wb") as fh:
            fh.writelines(chunks)
    else:
        for chunk in chunks:
            path.write(chunk.decode("utf-8"))


def read_csv(path) -> tuple:
    """(header, table) of the CSV of numbers at path: the header's names,
    stripped, and the (rows, len(header)) float64 table.

    Text as write_csv writes it goes through parse_rows; anything else, or
    anything it declines, through np.loadtxt, which reads the same values.
    A file neither reads as such a table raises ValueError naming the path.
    """
    # Only a regular file can be sized (parse_rows seeks to its end) and
    # reopened; a pipe goes to np.loadtxt alone.
    if os.path.isfile(path):
        with open(path, "rb") as fh:
            first = fh.readline()
            # The text reader below ends a line at a CR as well.
            if b"\r" not in first:
                try:
                    header = _csv_header(first.decode("utf-8"))
                except UnicodeDecodeError:
                    pass
                else:
                    table = parse_rows(fh, len(header))
                    if table is not None:
                        return header, table
    with open(path, "r", encoding="utf-8") as fh:
        try:
            first = fh.readline()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}")
        if not first:
            raise ValueError(f"{path}: empty CSV")
        header = _csv_header(first)
        try:
            # A header-only file warns "input contained no data"; the
            # no-rows error below says so on the one stderr line.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(fh, delimiter=",", quotechar='"', ndmin=2)
        except ValueError as exc:
            # numpy's " at row N" counts data rows from 0, not file lines.
            reason = str(exc).split(" at row ")[0]
            raise ValueError(f"{path}: bad data row: {reason}")
    if table.shape[0] == 0:
        raise ValueError(f"{path}: no data rows")
    if table.shape[1] != len(header):
        raise ValueError(
            f"{path}: rows have {table.shape[1]} fields, header has {len(header)}"
        )
    return header, table


def _csv_header(line: str) -> list:
    return [name.strip() for name in next(csv.reader([line]), [])]
