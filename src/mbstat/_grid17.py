"""The 17-digit decimal grid of float64 values, and the text of digits
found on it, in numpy.

``k = floor(log10|x|)`` is exact from the binary exponent and one
comparison with ``10**(k + 1)``; ``|x| * 10**(16 - k)`` is a double-double:
Dekker's TwoProduct of ``|x|`` with the double ``hi`` nearest the power,
plus ``|x| * lo`` for the rest.  ``decimal_17`` rounds that to 17 digits,
and ``float_words`` writes their ``"%.17g"`` text in uint64 words (SWAR),
into rows of text from ``row_template``.  Tables are built on first use.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import numpy as np

# Exponents k = floor(log10|x|) on the grid: two-digit exponents, and
# 10**(16 - k) a double-double of normal doubles.
_K_MIN, _K_MAX = -99, 99
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for float64
# |frac(y) - 1/2| at or below this is a near-tie, left to "%.17g": the
# double-double y is off by under 1e-14.
_TIE = 2.0**-40
AREA = 24  # bytes of a value's text at most: "-1.2345678901234567e-100"
WORD = np.dtype("<u8")  # 8 bytes of text, the first in the lowest byte
U = np.uint64
ZEROS = U(0x3030303030303030)  # "00000000": digit values to ASCII


@functools.cache
def _tables() -> SimpleNamespace:
    """No ``log10`` and no cast of small integers per call: their numpy
    kernels would count in the resident set."""
    ks = range(_K_MIN, _K_MAX + 1)
    hi, lo, tens = [], [], []
    for k in ks:
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        h = num / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
        # 10**k rounded up, so that |x| >= it exactly when |x| >= 10**k
        ten = float(10**k) if k >= 0 else 1 / 10**-k
        n, d = ten.as_integer_ratio()
        tens.append(math.nextafter(ten, math.inf) if n * 10**max(-k, 0) < d * 10**max(k, 0) else ten)
    hi = np.array(hi)
    t = hi * _SPLIT
    hh = t - (t - hi)
    # floor(log10|x|) is floor(e * log10(2)) or one more, for |x| in
    # [2**e, 2**(e+1)): one more exactly when |x| >= 10**(that + 1).
    biased = np.arange(2048)
    k_low = np.floor((biased - 1023) * 0.30102999566398120).astype(np.int64) - _K_MIN
    in_table = (biased > 0) & (biased < 2047) & (k_low >= 0) & (k_low < len(ks))
    k_low[~in_table] = -_K_MIN
    step = np.append(tens[1:], np.inf)[k_low]
    step[~in_table] = np.inf
    return SimpleNamespace(
        powers=(hi, np.array(lo), hh, hi - hh),  # 10**(16 - k): hi, lo, and hi split in halves
        k_low=k_low,  # per biased binary exponent: the lower candidate k, as k - _K_MIN
        k_step=step,  # ... and 10**(k + 1), at or above which k is one more
        in_table=in_table,  # ... and whether k is in the table
    )


def decimal_17(x: np.ndarray):
    """``(ki, digits, fast)`` for finite float64 ``x``: where ``fast``,
    ``|x|`` rounded to 17 digits is ``digits * 10**(k - 16)``, ``k = ki +
    _K_MIN``.  Zero is fast, with ``digits`` 0 and k 0; ``digits`` is below
    ``10**18`` throughout.

    ``|x| * 10**(16 - k)``, in ``[10**16, 10**17)``, is ``p + r`` to 1e-14,
    ``p`` integer-valued.  Subnormals and a k outside the table are not
    fast, and are taken as 0."""
    tab = _tables()
    hi, lo, hh, hl = tab.powers
    a = np.abs(x)
    biased = a.view(np.int64) >> 52
    ki = tab.k_low[biased]
    ki += a >= tab.k_step[biased]
    fast = tab.in_table[biased]
    del biased  # in place from here, and each power gathered where it is used
    a[~fast] = 0.0
    p = a * hi[ki]
    ah = a * _SPLIT
    ah -= ah - a  # t - (t - a), t = a * _SPLIT
    al = a - ah
    hh, hl = hh[ki], hl[ki]
    r = ah * hh  # ((ah*hh - p) + ah*hl + al*hh) + al*hl + a*lo
    r -= p
    r += ah * hl
    del ah
    r += al * hh
    r += al * hl
    del al, hh, hl
    r += a * lo[ki]
    near = np.rint(r)
    digits = p.astype(np.int64)
    digits += near.astype(np.int64)
    fast &= digits < 10**17  # else the rounding carried, or k is past _K_MAX
    r -= near
    fast &= np.abs(r) < 0.5 - _TIE
    fast |= x == 0.0
    return ki, digits, fast


@functools.cache
def layout(point_zero: bool) -> SimpleNamespace:
    """Per decade k, the layout of ``"%.17g"``: fixed notation for ``-4 <= k
    <= 16``, else ``d.ddde+XX``; with ``point_zero``, ``.0`` on integral
    values in fixed notation, as ``repr`` writes them."""
    point, keep, head, exponent = [], [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        fixed, small = 0 <= k <= 16, -4 <= k < 0
        point.append(k if fixed else AREA - 1 if small else 0)
        keep.append(k + 1 + point_zero if fixed else 1)
        head.append(b"0." + b"0" * (-k - 1) if small else b"")
        exponent.append(0 if fixed or small else int.from_bytes(b"e%+03d" % k, "little"))
    head += [b"-" + pre for pre in head]
    # Column c: 3 words with bytes [0, c) set.
    low = np.array([[((1 << 8 * c) - 1) >> 64 * w & (2**64 - 1) for c in range(AREA + 2)]
                    for w in range(3)], U)
    return SimpleNamespace(
        zeros=low & ZEROS,  # column c: "0" in bytes [0, c)
        below=low[:, 1:-1],  # column c: the bytes up to a point after digit c
        above=~low[:, 2:],  # ... past it
        dot=low[:, 2:] & ~low[:, 1:-1] & U(0x2E2E2E2E2E2E2E2E),  # ... the point
        point=np.array(point),  # per k: the digit the point follows, or 23
        keep=np.array(keep),  # ... the digits written at least
        exponent=np.array(exponent, U),
        # per k, then per k of a negative value: sign and "0.000", and bits
        head=np.array([int.from_bytes(h, "little") for h in head], U),
        shift=np.array([8 * len(h) for h in head], U),
    )


# Per split of digits8: c, the bits of half a lane, and v // c per lane as
# (v * m) >> s & mask.
_LANES = ((10**4, 32, 109951163, 40, 0xFFFFFFFF), (100, 16, 5243, 19, 0x7F0000007F),
          (10, 8, 103, 10, 0x000F000F000F000F))


def digits8(v: np.ndarray) -> np.ndarray:
    """Turn each uint64 ``v < 10**8`` into its 8 digits as bytes 0-9, the
    first lowest, in place: each split puts ``q = v // c`` in the low half of
    each lane and ``v - c * q`` in its high half."""
    q = np.empty_like(v)
    for c, bits, m, s, mask in _LANES:
        np.multiply(v, U(m), out=q)
        q >>= U(s)
        q &= U(mask)
        v <<= U(bits)
        q *= U(c * 2**bits - 1)
        v -= q
    return v


# Per word: its first bit; (its float64 exponent + _TOP) >> 3 is one past
# its highest nonzero byte (a byte below 16 rounds up inside it).
_BIT = np.array([[0], [64], [128]])
_TOP = 8 - 1023 + _BIT


def float_words(x, out, lay) -> None:
    """Fill the ``(n, 3)`` rows ``out`` with the NUL-padded text of each
    finite float64 of ``x``, laid out by ``lay``: the digits of
    ``decimal_17`` where it is fast, else ``"%.17g" % v`` (never integral in
    fixed notation: there the 17 digits are exact, so no ``.0`` is due)."""
    ki, digits, fast = decimal_17(x)
    # The 17 digits as bytes 0-16 of three words: 0-7, 8-15, 16.  Each
    # temporary is dropped once used, so that a block of n values peaks near
    # 12 arrays of n words.
    d = digits.view(U)
    s = np.empty((3, len(x)), U)
    high = d // U(10)
    s[2] = d - high * U(10)
    s[0] = high // U(10**8)
    s[1] = high - s[0] * U(10**8)
    del d, digits, high
    digits8(s[:2])
    # The digits written: up to the last nonzero one, and at least lay.keep.
    last = s.astype(np.float64).view(np.int64)
    last >>= 52
    last += _TOP
    last >>= 3
    keep = np.maximum(last.max(axis=0), lay.keep[ki])
    del last
    point = lay.point[ki]
    point[point + 1 >= keep] = AREA - 1  # "1e+16", not "1.e+16"
    s |= np.take(lay.zeros, keep, axis=1)  # ASCII for the digits written
    # The exponent after them (shifts by 64 or more give 0), then the point
    # after digit `point`, the bytes after it one byte on (in place: large
    # temporaries cost page faults).
    at = 8 * keep - _BIT
    del keep
    e = lay.exponent[ki]
    part = e << at.view(U)
    s |= part
    at *= -1
    np.right_shift(e, at.view(U), out=part)
    s |= part
    del at, e, part
    moved = s << U(8)
    moved[1:] |= s[:-1] >> U(56)
    moved &= np.take(lay.above, point, axis=1)
    s &= np.take(lay.below, point, axis=1)
    s |= moved
    del moved
    s |= np.take(lay.dot, point, axis=1)
    # The sign and "0.000" before them.
    at = ki + np.signbit(x) * len(lay.keep)
    shift = lay.shift[at]
    carry = s[:-1] >> (U(64) - shift)
    s <<= shift
    s[1:] |= carry
    s[0] |= lay.head[at]
    out[:] = s.T
    for i in np.flatnonzero(~fast).tolist():
        out[i] = np.frombuffer((b"%.17g" % float(x[i])).ljust(AREA, b"\0"), WORD)


def float_texts(values, lay) -> list:
    """The texts of ``float_words`` for each finite float64 in ``values``, as
    a list of bytes."""
    x = np.asarray(values, dtype=np.float64).ravel()
    words = np.empty((len(x), 3), WORD)
    float_words(x, words, lay)
    return words.view("S24").ravel().tolist()


def row_template(pieces):
    """The words of text ``pieces`` NUL-padded, 3 zero words for a number
    between each two, and the first word of each number."""
    padded = [piece.ljust(8 * -(-len(piece) // 8), b"\0") for piece in pieces]
    at = np.cumsum([len(piece) // 8 + 3 for piece in padded[:-1]]) - 3
    return np.frombuffer(bytes(AREA).join(padded), WORD), at


def nonzero_bytes(m: np.ndarray) -> bytes:
    """The bytes of the word matrix ``m``, NULs left out."""
    text = m.view(np.uint8)
    return text[text != 0].tobytes()
