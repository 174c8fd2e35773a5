"""Shortest round-trip text of float64 arrays, computed in numpy.

``repr`` of a Python float prints the shortest decimal string that reads
back to the same double.  This module produces exactly those bytes for whole
arrays at once, so grid-sized CSV files are written without a Python call
per cell.

The digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020): for each double it picks, among the decimals inside the
interval of reals that round to it, one of the shortest, the closest to the
double if several share that length, and the even one on a tie.  The
128-bit products it needs are done in 32-bit limbs of ``uint64`` arrays.

The layout follows CPython (see docs/formats.md): positional for
1e-4 <= |x| < 1e16 with ``.0`` after integers, otherwise ``d[.ddd]e±XX``
with at least two exponent digits; ``0.0``, ``-0.0``, ``nan``, ``inf`` and
``-inf`` for the special values.

Grid spectra are zero over much of their area (the pump envelope underflows
away from its band), so cells are classified first: zeros and the other
special values are written over a template row of ``0.0`` with the value's
sign, and only the finite nonzero values are gathered for the digit search
and the layout.  An array with no special value skips the gather and the
template.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = ["format_rows"]

_M32 = np.uint64(0xFFFFFFFF)
_C_MIN = 1 << 52  # hidden bit of a normal significand
_K_MIN, _K_MAX = -324, 292  # decimal exponents k that Schubfach needs
_POW10 = np.array([10**i for i in range(20)], dtype=np.uint64)
_EXP_MASK = np.uint64(0x7FF0_0000_0000_0000)
_ZERO, _NAN, _INF = (np.frombuffer(text, np.uint8) for text in (b"0.0", b"nan", b"inf"))

# Mantissa layout: at most 22 characters ("0.000" and 17 digits), and a value
# in [1e-4, 1) needs up to 4 zeros ahead of its first digit.  The digit table
# holds one more '0' column in front, read as the digit before the first.
_MANT, _LEAD = 22, 4
_FIRST = _LEAD + 1  # table column of the first significant digit
_COLS = np.arange(_MANT)
_BELOW = np.where(_COLS < np.arange(_MANT + 1)[:, None], 0xFF, 0).astype(np.uint8)
_NOT_AT = np.where(_COLS == np.arange(_MANT + 1)[:, None], 0, 0xFF).astype(np.uint8)
_DOT_AT = np.where(_NOT_AT == 0, ord("."), 0).astype(np.uint8)
_ROW = 1 + _MANT + 6  # bytes of one text row: sign, mantissa, "e±ddd" and separator


def _flog10pow2(q):
    """floor(q log10 2), exact for |q| <= 5456721 (fixed-point, Giulietti 2020)."""
    return (q * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(q):
    """floor(q log10 2 + log10 3/4), exact for |q| <= 5456721."""
    return (q * 661_971_961_083 - 274_743_187_321) >> 41


@cache
def _pow10_table():
    """For each k in [_K_MIN, _K_MAX]: the 126-bit g(k) = floor(10^-k 2^(125 - r)) + 1
    as four 32-bit limbs (rows, least significant first), and r = floor(log2 10^-k)."""
    limbs, r_exp = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            p = 10**-k
            r = p.bit_length() - 1
            g = (p << (125 - r) if r <= 125 else p >> (r - 125)) + 1
        else:
            p = 10**k
            r = -p.bit_length()  # 10^k is no power of two, so ceil(log2) = bit length
            g = (1 << (125 - r)) // p + 1
        limbs.append([(g >> (32 * i)) & 0xFFFFFFFF for i in range(4)])
        r_exp.append(r)
    return np.array(limbs, dtype=np.uint64).T.copy(), np.array(r_exp, dtype=np.int64)


def _round_to_odd(g, cp):
    """floor(g cp / 2^127), with its lowest bit set when the quotient is inexact.

    ``g`` is the (4, N) limb array of a 126-bit factor, ``cp`` a uint64 array.
    """
    c0, c1 = cp & _M32, cp >> 32
    p00, p01 = g[0] * c0, g[0] * c1
    p10, p11 = g[1] * c0, g[1] * c1
    p20, p21 = g[2] * c0, g[2] * c1
    p30, p31 = g[3] * c0, g[3] * c1
    col = (p00 >> 32) + (p10 & _M32) + (p01 & _M32)
    col = (col >> 32) + (p10 >> 32) + (p01 >> 32) + (p20 & _M32) + (p11 & _M32)
    r2 = col & _M32
    col = (col >> 32) + (p20 >> 32) + (p11 >> 32) + (p30 & _M32) + (p21 & _M32)
    r3 = col & _M32
    col = (col >> 32) + (p30 >> 32) + (p21 >> 32) + (p31 & _M32)
    r4 = col & _M32
    r5 = (col >> 32) + (p31 >> 32)
    quotient = (r3 >> 31) | (r4 << 1) | (r5 << 33)
    # g exceeds the exact 10^-k 2^(125 - r) by less than 1, so g cp exceeds the
    # exact product by less than 2^64: bits below 64 carry only that error.
    inexact = (r2 | (r3 & np.uint64(0x7FFFFFFF))) != 0
    return quotient | inexact


def _shortest_decimal(bits):
    """Shortest decimal D * 10^E that rounds to each finite nonzero double.

    ``bits`` are the raw uint64 patterns; returns (D uint64, E int64).
    """
    g_table, r_table = _pow10_table()
    t = bits & np.uint64(_C_MIN - 1)
    bq = ((bits >> 52) & np.uint64(0x7FF)).astype(np.int64)
    c = np.where(bq > 0, t | np.uint64(_C_MIN), t)
    q = np.maximum(bq, 1) - 1075
    # At a power of two the gap below is half the gap above, so the rounding
    # interval is asymmetric (except at the smallest normal).
    asym = (t == 0) & (bq > 1)
    k = np.where(asym, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    row = k - _K_MIN
    h = (q + r_table[row] + 2).astype(np.uint64)
    g = np.take(g_table, row, axis=1)

    cb = c << np.uint64(2)
    vb = _round_to_odd(g, cb << h)
    vbl = _round_to_odd(g, (cb - np.where(asym, np.uint64(1), np.uint64(2))) << h)
    vbr = _round_to_odd(g, (cb + np.uint64(2)) << h)
    # ties round to even, so the interval's endpoints belong to it only for even c
    out = c & np.uint64(1)
    lo, hi = vbl + out, vbr - out

    s = vb >> np.uint64(2)
    sp10 = s // np.uint64(10) * np.uint64(10)
    tp10 = sp10 + np.uint64(10)
    upin = lo <= sp10 << np.uint64(2)
    wpin = tp10 << np.uint64(2) <= hi
    uin = lo <= s << np.uint64(2)
    win = (s + np.uint64(1)) << np.uint64(2) <= hi
    mid = (s << np.uint64(2)) + np.uint64(2)
    closer_u = (vb < mid) | ((vb == mid) & ((s & np.uint64(1)) == 0))
    pick_u = np.where(uin != win, uin, closer_u)
    digits = np.where(upin != wpin, np.where(upin, sp10, tp10), np.where(pick_u, s, s + np.uint64(1)))
    return digits, k


def _digit_table(digits):
    """ASCII digits of each D > 0, left-aligned in 17 places at column _FIRST
    with '0' all around; its digit count; and its significant digit count."""
    n_raw = np.searchsorted(_POW10, digits, side="right")
    d17 = digits * _POW10[17 - n_raw]  # a double's shortest D has at most 17 digits
    hi = (d17 // np.uint64(10**8)).astype(np.uint32)
    lo = (d17 - hi.astype(np.uint64) * np.uint64(10**8)).astype(np.uint32)
    dig = np.empty((17, digits.size), dtype=np.uint8)
    trailing = np.zeros(digits.size, dtype=np.int8)
    run = np.ones(digits.size, dtype=bool)
    for part, first, count in ((lo, 9, 8), (hi, 0, 9)):
        for i in range(first + count - 1, first - 1, -1):
            rest = part // np.uint32(10)
            dig[i] = part - rest * np.uint32(10)
            run &= dig[i] == 0
            trailing += run
            part = rest
    dig += ord("0")
    table = np.full((digits.size, _FIRST + _MANT), ord("0"), dtype=np.uint8)
    table[:, _FIRST:_FIRST + 17] = dig.T
    return table, n_raw, 17 - trailing


def _regular_rows(bits: np.ndarray, sep: np.ndarray) -> np.ndarray:
    """Text rows of finite nonzero doubles: sign, mantissa, exponent and ``sep``,
    padded with zero bytes to _ROW columns."""
    digits, exp10 = _shortest_decimal(bits)
    table, n_raw, n_sig = _digit_table(digits)
    decpt = exp10 + n_raw  # value = 0.d1d2... x 10^decpt
    expo = (decpt <= -4) | (decpt > 16)
    # An exponent-form mantissa is laid out as the positional text of decpt 1.
    dp = np.where(expo, 1, decpt)
    lead = np.maximum(1 - dp, 0)  # zeros before the first digit: "0.000ddd"
    dot = np.maximum(dp, 1)  # mantissa column of the "."
    end = dot + 1 + np.maximum(n_sig - dp, 1)
    end[expo & (n_sig == 1)] = 1  # "1e+16", not "1.0e+16"

    # zs[:, c + 1] is the c-th digit of the mantissa, counting its leading zeros.
    zs = table[:, _FIRST - 1:]
    shifted = np.flatnonzero(lead)
    if shifted.size:
        zs = zs.copy()
        for shift in range(1, _LEAD + 1):
            rows = shifted[lead[shifted] == shift]
            zs[rows] = table[rows, _FIRST - 1 - shift:_FIRST - 1 - shift + _MANT + 1]
    before, after = zs[:, 1:], zs[:, :-1]  # text at column c before / after the dot
    below = np.take(_BELOW, dot, axis=0)
    mantissa = (after ^ ((after ^ before) & below)) & np.take(_NOT_AT, dot, axis=0)
    mantissa |= np.take(_DOT_AT, dot, axis=0)
    mantissa &= np.take(_BELOW, end, axis=0)

    e_val = decpt - 1
    e_abs = np.abs(e_val).astype(np.uint16)
    wide = e_abs >= 100
    zero = np.uint8(0)
    out = np.empty((bits.size, _ROW), dtype=np.uint8)
    out[:, 0] = np.where(bits >> np.uint64(63), ord("-"), zero)
    out[:, 1:1 + _MANT] = mantissa
    tail = out[:, 1 + _MANT:]
    hundreds, tens, units = (d + ord("0") for d in (e_abs // 100, e_abs // 10 % 10, e_abs % 10))
    tail[:, 0] = np.where(expo, ord("e"), sep)
    tail[:, 1] = np.where(expo, np.where(e_val < 0, ord("-"), ord("+")), zero)
    tail[:, 2] = np.where(expo, np.where(wide, hundreds, tens), zero)
    tail[:, 3] = np.where(expo, np.where(wide, tens, units), zero)
    tail[:, 4] = np.where(expo, np.where(wide, units, sep), zero)
    tail[:, 5] = np.where(expo & wide, sep, zero)
    return out


def _text(values: np.ndarray, sep: np.ndarray) -> bytes:
    """repr text of each float64 in ``values``, each followed by its ``sep`` byte.

    Only the finite nonzero values go through the digit search; zeros, nan
    and inf are written over a template row.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    finite = (bits & _EXP_MASK) != _EXP_MASK
    regular = finite & ((bits << np.uint64(1)) != 0)
    if regular.all():
        out = _regular_rows(bits, sep)
    else:
        # every row starts as the text of a zero with the value's sign
        out = np.zeros((bits.size, _ROW), dtype=np.uint8)
        out[:, 0] = np.where(bits >> np.uint64(63), ord("-"), 0)
        out[:, 1:4] = _ZERO
        out[:, 4] = sep
        picked = np.flatnonzero(regular)
        if picked.size:
            out[picked] = _regular_rows(bits[picked], sep[picked])
        special = np.flatnonzero(~finite)
        if special.size:
            nan = bits[special] << np.uint64(1) > np.uint64(0xFFE0_0000_0000_0000)
            out[special, 1:4] = np.where(nan[:, None], _NAN, _INF)
            out[special[nan], 0] = 0  # nan prints without a sign
    return out.tobytes().translate(None, b"\0")


def format_rows(values) -> bytes:
    """One CSV line per row of a 2-D array: ``repr`` of each value, comma-joined, ``\\n``-ended."""
    values = np.asarray(values, dtype=np.float64)
    sep = np.full(values.shape, ord(","), dtype=np.uint8)
    sep[:, -1:] = ord("\n")
    return _text(values.ravel(), sep.ravel())
