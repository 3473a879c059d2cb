"""``"%.17g" % v`` for float64 arrays, byte for byte, in numpy.

CPython's ``"%.17g"`` takes its correctly rounded bignum path for every
17-digit value, about 1 us per float.  Here ``|x|`` is taken on the 17-digit
grid of ``_grid17`` (exact ``k = floor(log10|x|)``, ``|x| * 10**(16 - k)``
as a double-double) and rounded to the 17-digit integer, whose digits come
from a table of 4-digit groups and whose layout (``0.000...``, the point,
trailing zeros stripped, ``e+XX``) from a table indexed by k, the number of
significant digits and the sign.  A value the double-double cannot settle
(a near tie, a rounding that carries into an 18th digit, a subnormal or a k
outside the table) is formatted by ``"%.17g"`` itself.

The tables are built on first use.  ``mbstat.reports`` imports this module
on the first block it writes.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from ._grid17 import _K_MAX, _K_MIN, grid_17

# |frac(y) - 1/2| at or below this is a near-tie, left to "%.17g": the
# double-double y is off by under 1e-14.
_TIE = 2.0**-40
_GATHER = 256  # values per gather of their output bytes
_WIDTH = 24  # the longest "%.17g" of a double, "-1.2345678901234567e-100"
# A value's byte row is 7 words of the word table: its digits 1-16 as four
# 4-digit groups, then digit 0 with ".-0", then "e", the exponent's sign and
# two digits, then NULs.  A layout row names the row byte each output byte
# copies.
_ROW = 7
_LEAD_AT = 10000
_EXP_AT = _LEAD_AT + 10
_NUL_AT = _EXP_AT + _K_MAX - _K_MIN + 1
_DIGITS = bytes([16, *range(16)])  # the row byte of each of the 17 digits
_DOT, _MINUS, _ZERO, _E_EXP, _NUL = b"\x11", b"\x12", b"\x13", b"\x14\x15\x16\x17", b"\x18"


class _Tables(NamedTuple):
    words: np.ndarray
    flags: np.ndarray  # per 4-digit group: one bit, for its last nonzero digit
    nsig_at: np.ndarray  # 2 * (nsig - 1) per float64 exponent of four flags
    class_at: np.ndarray  # 34 * layout class per k
    layout: np.ndarray


def _layouts() -> bytes:
    """Layout rows indexed by ``(class * 17 + nsig - 1) * 2 + negative``:
    class ``k + 4`` in fixed notation (-4 <= k <= 16), 21 in e-notation."""
    rows = []
    for k in [*range(-4, 17), None]:
        for nsig in range(1, 18):
            if k is not None and k < 0:
                body = _ZERO + _DOT + _ZERO * (-k - 1) + _DIGITS[:nsig]
            else:
                point = 1 if k is None else k + 1
                frac = _DIGITS[point:nsig]
                body = _DIGITS[:point] + (_DOT + frac if frac else b"")
                if k is None:
                    body += _E_EXP
            body = body.ljust(_WIDTH, _NUL)
            rows += (body, _MINUS + body[:-1])
    return b"".join(rows)


@functools.cache
def _tables() -> _Tables:
    """The digit and layout tables of ``format_17g``, built on first use."""
    ks = range(_K_MIN, _K_MAX + 1)
    groups = flags = 0
    for j, digit in enumerate(np.ix_(*[np.arange(10)] * 4)):
        groups = groups + (digit + 48) * 256**j  # little-endian: digit j is byte j
        flags = np.where(digit > 0, 1 << j, flags)
    tail = b"".join([*(b"%d.-0" % d for d in range(10)),
                     *(b"e%c%02d" % (45 if k < 0 else 43, abs(k)) for k in ks), bytes(4)])
    words = np.concatenate([groups.astype("<u4").ravel(), np.frombuffer(tail, "<u4")])
    # The highest flag bit b = 8 * group + digits - 1 has float64 exponent 1023 + b.
    nsig_at = np.zeros(1023 + 32, np.int64)
    nsig_at[1023:] = [2 * (4 * (b // 8) + 1 + b % 8) for b in range(32)]
    return _Tables(
        words=words, flags=flags.astype(np.uint8).ravel(),
        nsig_at=nsig_at, class_at=34 * np.array([k + 4 if -4 <= k <= 16 else 21 for k in ks]),
        layout=np.frombuffer(_layouts(), np.uint8).reshape(-1, _WIDTH),
    )


def decimal_17(x: np.ndarray):
    """``(ki, digits, fast)`` for finite float64 ``x``: where ``fast``
    holds, ``|x|`` rounded to 17 significant digits is ``digits * 10**(k -
    16)`` with ``k = ki + _K_MIN``.

    ``_grid17.grid_17``'s ``p + r`` rounded to an integer.  Not ``fast``:
    subnormals and k outside the table (their ``digits`` are 0), near-ties,
    and roundings that carry into an 18th digit.  Zero is fast, with
    ``digits`` 0 and k 0.  ``digits`` is below ``10**18`` throughout.
    """
    ki, _, _, p, r, fast = grid_17(x)
    near = np.rint(r)
    digits = p.astype(np.int64) + near.astype(np.int64)
    fast &= digits < 10**17  # else the rounding carried, or k is past _K_MAX
    fast &= np.abs(r - near) < 0.5 - _TIE
    fast |= x == 0.0
    return ki, digits, fast


def format_17g(values: np.ndarray) -> list:
    """``b"%.17g" % v`` for each finite float64 in ``values``, vectorized;
    values off the fast path of ``decimal_17`` are formatted one by one."""
    tab = _tables()
    x = np.asarray(values, dtype=np.float64).ravel()
    n = len(x)
    ki, digits, fast = decimal_17(x)
    at = np.empty((n, _ROW), np.intp)
    high, low = np.divmod(digits, 10**8)
    high, at[:, 1] = np.divmod(high, 10**4)
    at[:, 4], at[:, 0] = np.divmod(high, 10**4)
    at[:, 2], at[:, 3] = np.divmod(low, 10**4)
    at[:, 4] += _LEAD_AT
    at[:, 5] = ki + _EXP_AT
    at[:, 6] = _NUL_AT
    row = tab.words[at].view(np.uint8).ravel()
    # The four groups' flags as one word; its float64 exponent tells nsig.
    flagged = tab.flags[at[:, :4]].view("<u4").ravel().astype(np.float64)
    pick = tab.class_at[ki] + tab.nsig_at[flagged.view(np.int64) >> 52]
    pick[np.signbit(x)] += 1
    text = []
    step = 4 * _ROW
    # In float64, since casting the uint8 layout to intp would page in one
    # more numpy kernel (peak RSS counts it).
    base = np.arange(0.0, n * step, step)[:, None]
    for i in range(0, n, _GATHER):  # bounds the intp index of 24 per value
        cols = tab.layout[pick[i : i + _GATHER]].astype(np.float64)
        cols += base[i : i + _GATHER]
        text += row[cols.astype(np.intp)].view("S%d" % _WIDTH).ravel().tolist()
    for i in np.flatnonzero(~fast).tolist():
        text[i] = b"%.17g" % x[i]
    return text
