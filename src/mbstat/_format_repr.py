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

The layout is ``repr``'s, by ``_grid17.float_words``: fixed notation for
``-4 <= k <= 15``, with ``.0`` on integral values, else ``d.ddde+XX``, or
``de+XX`` for one digit.

``mbstat.trade_series.serialize`` imports this module on first use.
"""

from __future__ import annotations

import numpy as np

from ._grid17 import (AREA, ZEROS, U, digits8, float_texts, float_words, grid_17, layout,
                      nonzero_bytes, row_template)

# An interval end within this of an integer, or X within this of a tie
# between two candidates, is left to repr: X is off by under 1e-14.
_EDGE = 2.0**-30
_EXPONENT = 0x7FF << 52
_SIGNIFICAND = (1 << 52) - 1
_POWERS = np.array([10**j for j in range(1, 20)], U)
# Rows per block of the CSV body, one matrix of words each.  On a 250k-tick
# series (2-core Xeon) 8,192 and 16,384 rows took 0.17-0.20 s, 4,096 rows
# 0.19-0.24 s: a block makes some 200 numpy calls.
_BLOCK_ROWS = 8192
_REPR = (15, True)  # fixed notation up to k = 15, ".0" on integral values


def _repr(v: float) -> bytes:
    return repr(v).encode()


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


def _int_words(t: np.ndarray, out: np.ndarray) -> None:
    """Fill the ``(n, 3)`` uint64 rows ``out`` with ``str(v)`` of each int64
    ``v`` of ``t``, NUL-padded: the sign in byte 0, the digits right-aligned
    in the 24 bytes."""
    u = t.view(U)
    u = np.where(t < 0, U(0) - u, u)  # |t|, also for -2**63
    lead = u // U(10**16)  # at most 922
    rest = u - lead * U(10**16)
    mid = rest // U(10**8)
    digits = digits8(np.stack([lead, mid, rest - mid * U(10**8)]))
    # The leading zeros of the 24 digits stay NUL.
    first = AREA - 1 - np.searchsorted(_POWERS, u, side="right")
    digits |= ZEROS ^ np.take(layout(*_REPR).zeros, first, axis=1)
    out[:] = digits.T
    out[:, 0] |= np.where(t < 0, U(ord("-")), U(0))


def format_repr(values) -> list:
    """``repr(v).encode()`` for each finite float64 in ``values``."""
    return float_texts(values, shortest, _repr, layout(*_REPR))


def csv_rows(t: np.ndarray, price: np.ndarray, volume: np.ndarray) -> bytes:
    """``b"%d,%r,%r\\n"`` for each row of the int64 ``t`` and the finite
    float64 ``price`` and ``volume``, in blocks of rows.  A block is one
    ``row_template`` matrix of 12 words per row (``t``, ``,``, price, ``,``,
    volume, LF), written out by ``nonzero_bytes``."""
    t = np.asarray(t, np.int64)
    price, volume = np.asarray(price, np.float64), np.asarray(volume, np.float64)
    row, (at_t, at_price, at_volume) = row_template((b"", b",", b",", b"\n"))
    mat = np.tile(row, (min(len(t), _BLOCK_ROWS), 1))
    parts = []
    for b0 in range(0, len(t), _BLOCK_ROWS):
        span = slice(b0, b0 + _BLOCK_ROWS)
        block = mat[: len(t[span])]
        _int_words(t[span], block[:, at_t : at_t + 3])
        for x, at in ((price[span], at_price), (volume[span], at_volume)):
            float_words(x, block[:, at : at + 3], shortest(x), _repr, layout(*_REPR))
        parts.append(nonzero_bytes(block))
    return b"".join(parts)
