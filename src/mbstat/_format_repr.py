"""``repr(v)`` for float64 arrays, byte for byte, in numpy, and the canonical
CSV rows of a trade series written with it.

``repr`` writes the shortest decimal that reads back as the same double and,
of the shortest, the one nearest ``v`` (Steele & White 1990, Gay's
``dtoa``).  Every decimal inside the rounding interval of ``v`` reads back
as ``v``; Ryu (Adams 2018) finds the shortest one from that interval with
exact integer arithmetic.  Here the interval is taken on the 17-digit grid
of ``_grid17``: ``X = |v| * 10**(16 - k)`` as a double-double, and the
half-gaps to the neighbouring doubles on that grid, ``2**(E - 53) * 10**(16
- k)`` above and, at a power of two, half that below (``2**E <= |v| <
2**(E + 1)``).  The integers from ``ceil(X - below)`` to ``floor(X +
above)`` are the 17-digit candidates.  That range is at most 23 wide, so it
holds at most one multiple of 100, which has the fewest digits when it is
there (its trailing zeros are not written); else the multiple of 10
nearest ``X`` wins, else the integer nearest ``X``.  A digit string of
``10**17`` is ``10**16`` one decade up.

``repr`` itself formats a value the double-double cannot settle: an
interval end within ``2**-30`` of an integer (this also covers the rule
that an exact end reads back as ``v`` only when its significand is even),
``X`` within ``2**-30`` of a tie between two candidates, zero, a subnormal,
or a k outside the table.

The layout is ``repr``'s: fixed notation for ``-4 <= k <= 15``, with ``.0``
on integral values, else ``d.ddde+XX``, or ``de+XX`` for one digit.  Bytes
are built eight at a time in uint64 words (SWAR): a value's 17 digits come
from two 8-digit conversions by multiply-and-shift, the point is inserted
by a masked one-byte shift, and a ``0.000`` prefix by a shift of the whole
string.  Every byte past the last one written is NUL, and so are the bytes
of a digit past the last significant one (and past ``.0``), so dropping
the NULs of a row leaves ``repr``'s bytes.

``mbstat.trade_series.serialize`` imports this module on first use.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

from ._grid17 import _K_MAX, _K_MIN, grid_17

# An interval end within this of an integer, or X within this of a tie
# between two candidates, is left to repr: X is off by under 1e-14.
_EDGE = 2.0**-30
_EXPONENT = 0x7FF << 52
_SIGNIFICAND = (1 << 52) - 1
_U = np.uint64
_WORD = np.dtype("<u8")  # eight bytes of text, the first in the lowest byte
_ZEROS = _U(0x3030303030303030)  # "00000000": digit values to ASCII
_DOTS = _U(0x2E2E2E2E2E2E2E2E)
# A float's area of 3 words holds ",", its sign and at most 22 bytes (the
# "0.000" prefix and 17 digits); a fourth word its exponent.  An int64's
# area of 3 words holds its sign and 19 digits.
_AREA = 24
_MINUS, _LF = _U(ord("-") << 8), _U(ord("\n") << 56)
# Rows per block of the CSV body, one matrix of words each.  On a 250k-tick
# series (2-core Xeon) 8,192 and 16,384 rows took 0.17-0.20 s, 4,096 rows
# 0.19-0.24 s: a block makes some 200 numpy calls.
_BLOCK_ROWS = 8192


@functools.cache
def _layout() -> SimpleNamespace:
    """Per decade k, how ``repr`` lays out its digits; built on first use."""
    point, keep, shift, prefix, exponent = [], [], [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        pre, exp = b"", b""
        if 0 <= k <= 15:
            point.append(k)
            keep.append(k + 2)  # one digit after the point: ".0"
        elif -4 <= k < 0:
            point.append(_AREA - 1)
            keep.append(1)
            pre = b"0." + b"0" * (-k - 1)
        else:
            point.append(0)
            keep.append(1)
            exp = b"e%+03d" % k
        shift.append(8 * (2 + len(pre)))
        prefix.append(int.from_bytes(b",\0" + pre, "little"))
        exponent.append(int.from_bytes(exp, "little"))
    ones = [(1 << 8 * c) - 1 for c in range(_AREA + 2)]
    low = [[min(m >> 64 * w, 2**64 - 1) for m in ones] for w in range(3)]
    return SimpleNamespace(
        low=np.array(low, np.uint64),  # (3, 26): word w of the area with bytes [0, c) set
        point=np.array(point),  # per k: the digit the point follows, or 23 for none
        keep=np.array(keep),  # ... and the digits written at least
        shift=np.array(shift, np.uint64),  # ... and how far the digits move on, in bits
        prefix=np.array(prefix, np.uint64),  # ... and the area's first word before them
        exponent=np.array(exponent, np.uint64),  # ... and the exponent word
        powers=np.array([10**j for j in range(1, 20)], np.uint64),
    )


def shortest(x: np.ndarray):
    """``(ki, digits, fast)`` for finite float64 ``x``: where ``fast`` holds,
    ``repr(x)`` writes the significant digits of ``digits`` (``10**16 <=
    digits < 10**17``, trailing zeros dropped) with exponent ``k = ki +
    _K_MIN``.  Elsewhere ``digits`` is ``10**16``."""
    ki, a, hi, p, r, fast = grid_17(x)
    bits = a.view(np.int64)
    above = (bits & _EXPONENT).view(np.float64) * hi * 2.0**-53
    below = np.where(bits & _SIGNIFICAND, above, 0.5 * above)
    # Offsets from p: the interval's ends and the candidates are small
    # integers, exact in float64.
    top, bottom = r + above, r - below
    hi_end, lo_end = np.floor(top), np.ceil(bottom)
    fast &= (np.abs(top - np.rint(top)) > _EDGE) & (np.abs(bottom - np.rint(bottom)) > _EDGE)
    whole = p.astype(np.int64)
    fast &= (whole < 10**17) | ((whole == 10**17) & (r < 0))  # else |x| >= 10**(_K_MAX + 1)
    base = (whole - whole // 100 * 100).astype(np.float64)  # p mod 100
    h100 = base + hi_end
    h100 -= 100.0 * np.floor(h100 / 100.0)  # the top candidate mod 100
    width = hi_end - lo_end
    tens = h100 - 10.0 * np.floor(h100 / 10.0) <= width  # a multiple of 10 inside
    b10 = base - 10.0 * np.floor(base / 10.0)
    u = (r + b10) / 10.0  # X / 10 less p // 10
    ten = 10.0 * np.rint(u) - b10  # the multiple of 10 nearest X ...
    ten = np.where(ten < lo_end, ten + 10.0, np.where(ten > hi_end, ten - 10.0, ten))  # ... inside
    step = np.where(h100 <= width, hi_end - h100, np.where(tens, ten, np.rint(r)))
    tie = np.where(tens, u, r)
    fast &= np.abs(tie - np.floor(tie) - 0.5) > _EDGE
    digits = np.where(fast, whole + step.astype(np.int64), 10**16)
    # 10**(k + 1) is read back as x, one decade up: never past the table, as
    # the double nearest 10**100 is above it.
    carried = digits == 10**17
    digits[carried] = 10**16
    return ki + carried, digits, fast


def _digits8(v: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each uint64 ``v < 10**8`` as byte values
    0-9, the first digit in the lowest byte: two 4-digit lanes, then four
    2-digit lanes, then eight, each split by a multiply and a shift."""
    high = v // _U(10**4)
    w = high | ((v - high * _U(10**4)) << _U(32))
    q = ((w * _U(5243)) >> _U(19)) & _U(0x0000007F0000007F)  # // 100 in each lane
    w = q | ((w - q * _U(100)) << _U(16))
    q = ((w * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)  # // 10 in each lane
    return q | ((w - q * _U(10)) << _U(8))


def _top_byte(w: np.ndarray) -> np.ndarray:
    """The index of the highest nonzero byte of each nonzero uint64 ``w``
    whose bytes are below 16, from the exponent of ``float(w)`` (a rounding
    up stays inside the byte)."""
    return ((w.astype(np.float64).view(np.int64) >> 52) - 1023) >> 3


def _float_words(x: np.ndarray, out: np.ndarray) -> None:
    """Fill the ``(n, 4)`` uint64 rows ``out`` with ``b"," + repr(v)`` for
    each finite float64 ``v`` of ``x``, NUL-padded."""
    lay = _layout()
    ki, digits, fast = shortest(x)
    d = digits.view(np.uint64)
    lead = d // _U(10**16)
    rest = d - lead * _U(10**16)
    mid = rest // _U(10**8)
    w1, w2 = _digits8(mid), _digits8(rest - mid * _U(10**8))
    # The 17 digits as bytes 0-16 of three words.
    s = [lead | (w1 << _U(8)), (w1 >> _U(56)) | (w2 << _U(8)), w2 >> _U(56)]
    last = np.where(s[1] != 0, 8 + _top_byte(s[1]), _top_byte(s[0]))
    keep = np.maximum(np.where(s[2] != 0, 17, last + 1), lay.keep[ki])  # digits written
    point = lay.point[ki]
    point[point + 1 >= keep] = _AREA - 1  # "1e+16", not "1.e+16"
    moved = 0
    for w, low in enumerate(lay.low):
        word = s[w] + (low[keep] & _ZEROS)  # ASCII for the digits written, else NUL
        # The point after digit `point`, the digits after it one byte on.
        below, upto = low[point + 1], low[point + 2]
        s[w] = (word & below) | (((word << _U(8)) | moved) & ~upto) | (upto & ~below & _DOTS)
        moved = word >> _U(56)
    shift = lay.shift[ki]
    back = _U(64) - shift
    out[:, 0] = (s[0] << shift) | lay.prefix[ki] | np.where(np.signbit(x), _MINUS, _U(0))
    out[:, 1] = (s[1] << shift) | (s[0] >> back)
    out[:, 2] = (s[2] << shift) | (s[1] >> back)
    out[:, 3] = lay.exponent[ki]
    for i in np.flatnonzero(~fast).tolist():
        text = b"," + repr(float(x[i])).encode()
        out[i] = np.frombuffer(text.ljust(32, b"\0"), _WORD)


def _int_words(t: np.ndarray, out: np.ndarray) -> None:
    """Fill the ``(n, 3)`` uint64 rows ``out`` with ``str(v)`` of each int64
    ``v`` of ``t``, NUL-padded: the sign in byte 0, the digits right-aligned
    in the 24 bytes."""
    lay = _layout()
    u = t.view(np.uint64)
    u = np.where(t < 0, _U(0) - u, u)  # |t|, also for -2**63
    lead = u // _U(10**16)  # at most 922
    rest = u - lead * _U(10**16)
    mid = rest // _U(10**8)
    # The leading zeros of the 24 digits stay NUL.
    first = _AREA - 1 - np.searchsorted(lay.powers, u, side="right")
    digits = [_digits8(lead), _digits8(mid), _digits8(rest - mid * _U(10**8))]
    for w, low in enumerate(lay.low):
        out[:, w] = digits[w] + (~low[first] & _ZEROS)
    out[:, 0] |= np.where(t < 0, _U(ord("-")), _U(0))


def format_repr(values) -> list:
    """``repr(v).encode()`` for each finite float64 in ``values``."""
    x = np.asarray(values, dtype=np.float64).ravel()
    words = np.empty((len(x), 4), _WORD)
    _float_words(x, words)
    text = words.view(np.uint8)
    return text[text != 0].tobytes().split(b",")[1:]


def csv_rows(t: np.ndarray, price: np.ndarray, volume: np.ndarray) -> bytes:
    """``b"%d,%r,%r\\n"`` for each row of the int64 ``t`` and the finite
    float64 ``price`` and ``volume``, in blocks of rows.  A block is one
    NUL-padded matrix of 11 words per row (``t``, then price and volume with
    their exponents, the LF in the last byte), its bytes compressed with one
    ``m[m != 0]``."""
    t = np.asarray(t, np.int64)
    price, volume = np.asarray(price, np.float64), np.asarray(volume, np.float64)
    mat = np.empty((min(len(t), _BLOCK_ROWS), 11), _WORD)
    parts = []
    for b0 in range(0, len(t), _BLOCK_ROWS):
        span = slice(b0, b0 + _BLOCK_ROWS)
        block = mat[: len(t[span])]
        _int_words(t[span], block[:, :3])
        _float_words(price[span], block[:, 3:7])
        _float_words(volume[span], block[:, 7:])
        block[:, -1] |= _LF
        text = block.view(np.uint8)
        parts.append(text[text != 0].tobytes())
    return b"".join(parts)
