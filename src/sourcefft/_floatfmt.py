"""CSV rows of float64 as repr text, formatted by array operations.

format_rows(table) is "".join of "%r,%r,...\\n" % row over the rows of a
2-D float table, encoded as ASCII, computed without a Python call per
value.  The shortest round-trip digits come from Schubfach (R. Giulietti,
"The Schubfach way to render doubles", 2020; the algorithm of
java.lang.DoubleToDecimal), which, like Python's repr, picks the shortest
decimal that reads back to the same double, the closest one among those,
and the one with an even last digit on a tie.  The digits are then laid out
as repr does in fixed notation, which it uses for 1e-4 <= |x| < 1e16.
Every other value (zeros, subnormals, inf, nan and the exponent-notation
magnitudes) is formatted by repr itself.

The decimal conversion runs on uint64 arrays with uint64 operands only, so
no value is ever promoted to float64 (numpy 1.24's value-based casting
included); 64 x 64-bit products are assembled from 32-bit limbs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_rows"]

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_MASK63 = _U64((1 << 63) - 1)
_T_MASK = _U64((1 << 52) - 1)
_C_MIN = _U64(1 << 52)

# repr uses fixed notation exactly for these magnitudes: the shortest digits
# of a double at or above 1e-4 never read below 0.0001, of one below 1e16
# never reach 1e16.  Compared as the bits of |x|, which order like the values.
_FIXED_LO = _U64(np.float64(1e-4).view(_U64))
_FIXED_HI = _U64(np.float64(1e16).view(_U64))

# Biased exponents of the fixed-notation range: 1e-4 lies in [2^-14, 2^-13)
# and 1e16 in [2^53, 2^54).  A normal double is c * 2^q with q = bq - 1075.
_BQ_LO, _BQ_HI = 1023 - 14, 1023 + 53


def _flog10pow2(e: int) -> int:
    """floor(log10(2^e)), exact for |e| <= 5456721 (DoubleToDecimal)."""
    return e * 661971961083 >> 41


def _flog10_three_quarters_pow2(e: int) -> int:
    """floor(log10(3/4 * 2^e)), exact for |e| <= 5456721."""
    return (e * 661971961083 - 274743187321) >> 41


def _flog2pow10(e: int) -> int:
    """floor(log2(10^e)), exact for |e| <= 6432162."""
    return e * 913124641741 >> 38


def _build_table():
    """Per (biased exponent, irregular spacing): k, h, g1 and g0.

    Row (bq - _BQ_LO) * 2 + irregular holds, for q = bq - 1075, the decimal
    exponent k of the result (Schubfach's floor(log10) of the rounding
    interval's width), the shift h = q + floor(log2(10^-k)) + 2, and
    g = floor(10^-k * 2^(125 - floor(log2(10^-k)))) + 1 split as
    g1 * 2^63 + g0.  Over the fixed-notation range -k lies in [0, 20], so
    10^-k * 2^(...) is an integer and g is exact.
    """
    rows = []
    for bq in range(_BQ_LO, _BQ_HI + 1):
        q = bq - 1075
        for irregular in (False, True):
            k = _flog10_three_quarters_pow2(q) if irregular else _flog10pow2(q)
            shift = 125 - _flog2pow10(-k)
            h = q + _flog2pow10(-k) + 2
            assert k <= 0 and shift >= 0 and 2 <= h <= 5
            g = (10 ** -k << shift) + 1
            rows.append((k, h, g >> 63, g & ((1 << 63) - 1)))
    k, h, g1, g0 = zip(*rows)
    return (np.array(k, dtype=np.intp), np.array(h, dtype=_U64),
            np.array(g1, dtype=_U64), np.array(g0, dtype=_U64))


_K, _H, _G1, _G0 = _build_table()


def _mul(a, b):
    """(high, low) 64-bit words of a * b, for b < 2^60."""
    a_hi, a_lo = a >> _U64(32), a & _MASK32
    b_hi, b_lo = b >> _U64(32), b & _MASK32
    # a_lo * b_hi < 2^60 leaves room to add the carry out of a_lo * b_lo.
    mid = (a_lo * b_lo >> _U64(32)) + a_lo * b_hi
    cross = a_hi * b_lo
    mid += cross & _MASK32
    return a_hi * b_hi + (cross >> _U64(32)) + (mid >> _U64(32)), a * b


def _add(hi, lo, a, shift):
    """hi:lo + a * 2^shift as 128-bit words, for a < 2^63, 1 <= shift <= 6."""
    low = lo + (a << shift)
    return hi + (a >> _U64(64) - shift) + (low < lo), low


def _sub(hi, lo, a, shift):
    """hi:lo - a * 2^shift as 128-bit words; the result is nonnegative."""
    low = lo - (a << shift)
    return hi - (a >> _U64(64) - shift) - (low > lo), low


def _rop(y1, y0, x1):
    """Round to odd of g * cp / 2^127 from y1:y0 = g1 * cp and x1, the high
    word of g0 * cp: DoubleToDecimal.rop, which leaves out the low word of
    g0 * cp and the low bit of y0; the paper proves the result still
    orders correctly against the candidates."""
    z = (y0 >> _U64(1)) + x1
    return y1 + (z >> _U64(63)) | ((z & _MASK63) != 0)


def _shortest(bits):
    """Schubfach's shortest decimal of normal doubles in the fixed range.

    bits are the uint64 bits of |x|.  Returns (d, k): |x| prints as the
    digits of d times 10^k, d has 16 or 17 digits, trailing zeros included.
    """
    t = bits & _T_MASK
    c = t | _C_MIN
    irregular = t == 0
    row = ((bits >> _U64(52)).astype(np.intp) - _BQ_LO) * 2 + irregular
    h, g1, g0 = _H[row], _G1[row], _G0[row]

    # v is scaled to cb = 4c and its interval bounds to cb - 2 (cb - 1 at
    # a power of two, whose lower neighbour is closer) and cb + 2, each
    # shifted by h; the two bounds differ from cb << h by a power of two,
    # so their products follow from cb's by one 128-bit add.
    cp = c << h + _U64(2)
    y1, y0 = _mul(g1, cp)
    x1, x0 = _mul(g0, cp)
    vb = _rop(y1, y0, x1)
    up = h + _U64(1)
    vbr = _rop(*_add(y1, y0, g1, up), _add(x1, x0, g0, up)[0])
    down = up - irregular
    vbl = _rop(*_sub(y1, y0, g1, down), _sub(x1, x0, g0, down)[0])

    # vbl + odd <= 4u decides u in the rounding interval, 4w + odd <= vbr
    # decides w: the bounds belong to it only for an even significand.
    odd = c & _U64(1)
    vbl += odd
    vbr -= odd
    s = vb >> _U64(2)
    # One digit shorter: sp10 and sp10 + 10 are 10^(k+1) apart and the
    # interval is narrower, so at most one of them is in it.
    sp10 = s // _U64(10) * _U64(10)
    upin = vbl <= sp10 << _U64(2)
    wpin = (sp10 << _U64(2)) + _U64(40) <= vbr
    # Full length: s or s + 1 is in the interval; if both are, take the
    # closer, the even one on a tie.  4s + 2 is their midpoint, and vb is
    # odd unless v is exactly there.
    s4 = s << _U64(2)
    uin = vbl <= s4
    win = s4 + _U64(4) <= vbr
    closer_w = vb + (s & _U64(1)) > s4 + _U64(2)
    full = s + (~uin | win & closer_w)
    shorter = sp10 + _U64(10) * wpin
    return full + (upin ^ wpin) * (shorter - full), _K[row]


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

# A value's slot is six little-endian uint64 words, 48 bytes:
#   0 separator before the value ("," or the previous row's "\n"), 1 "-",
#   2-6 "0.000", 7 lead digit, 8-23 digits 1-16, 24-30 unused, 31 ".",
#   32-47 digits 1-16 again.
# Every layout keeps a subset of these bytes, so a block is one column stack
# and one mask compaction.  The digits appear twice so that the integer
# part (from byte 7) and the fraction (after byte 31) are both plain runs.
_SLOT = 48
_DIGITS_AT = 7
_POINT_AT = 31
_PREFIX = int.from_bytes(b",-0.0000", "little")
_ROW_PREFIX = int.from_bytes(b"\n-0.0000", "little")
_POINT_WORD = _U64(ord(".") << 56)
_N_DECPT = 20       # decimal point positions -3 ... 16


def _layouts() -> np.ndarray:
    """The byte mask of every (negative, decimal point, digit count) layout.

    With n significant digits and the decimal point decpt places right of
    the first one, repr's fixed notation is "0." + "0" * -decpt + digits
    for decpt <= 0, the digits split by "." for 0 < decpt < n, and the
    digits padded with zeros to decpt places plus ".0" for decpt >= n.
    """
    masks = np.zeros((2, _N_DECPT, 17, _SLOT), dtype=bool)
    masks[..., 0] = True
    masks[1, ..., 1] = True
    for decpt in range(-3, 17):
        for n in range(1, 18):
            m = masks[:, decpt + 3, n - 1]
            if decpt <= 0:
                m[:, 2:4 - decpt] = True
                m[:, _DIGITS_AT:_DIGITS_AT + n] = True
            else:
                m[:, _DIGITS_AT:_DIGITS_AT + decpt] = True
                m[:, _POINT_AT:_POINT_AT + max(n, decpt + 1)] = True
                m[:, _POINT_AT + 1:_POINT_AT + decpt] = False
    return masks.reshape(-1, _SLOT)


_LAYOUTS = _layouts()


def format_rows(table) -> bytes:
    """ASCII of the rows of a 2-D float64 table as CSV lines.

    Equal to "".join(",".join(repr(float(v)) for v in row) + "\\n" for row
    in table).encode("ascii").  Values with 1e-4 <= |x| < 1e16 go through
    the array kernel; the rest through repr.
    """
    table = np.ascontiguousarray(table, dtype=np.float64)
    rows, cols = table.shape
    if rows == 0 or cols == 0:
        return b"\n" * rows
    values = table.reshape(-1)
    bits = values.view(_U64)
    magnitude = bits & _MASK63
    fixed = (magnitude >= _FIXED_LO) & (magnitude < _FIXED_HI)
    # The kernel runs on the fixed-notation values only: the whole table
    # when it holds nothing else, else a compacted copy of them.
    everywhere = fixed.all()
    kernel = slice(None) if everywhere else fixed
    d, k = _shortest(magnitude[kernel])

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
    negative = (bits[kernel] >> _U64(63)).astype(np.intp)
    layout = (negative * _N_DECPT + decpt + 3) * 17 + n - 1
    if not everywhere:
        # The other values keep layout row 0; repr's text replaces it below.
        parts = lead, text_a, text_b, layout
        lead, text_a, text_b, layout = [np.zeros(len(values), p.dtype) for p in parts]
        for whole, part in zip((lead, text_a, text_b, layout), parts):
            whole[fixed] = part

    first = np.full(cols, _PREFIX, dtype=_U64)
    first[0] = _ROW_PREFIX
    first = (lead.reshape(rows, cols) << _U64(56)) + first
    slots = np.column_stack(
        [first.reshape(-1), text_a, text_b,
         np.full(len(values), _POINT_WORD), text_a, text_b]
    ).astype("<u8", copy=False).view(np.uint8)

    mask = np.take(_LAYOUTS, layout, axis=0)
    others = np.flatnonzero(~fixed)
    if len(others):
        # NUL-padded repr bytes, one row per value; repr never writes a NUL.
        text = np.array(list(map(repr, values[others].tolist())), dtype="S")
        text = text.view(np.uint8).reshape(len(others), -1)
        slots[others, 1:1 + text.shape[1]] = text
        mask[others, 1:] = False
        mask[others, 1:1 + text.shape[1]] = text != 0
    # The first value's separator is the newline ending the previous row.
    mask[0, 0] = False
    return np.compress(mask.reshape(-1), slots.reshape(-1)).tobytes() + b"\n"
