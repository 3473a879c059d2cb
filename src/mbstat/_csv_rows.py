"""The canonical CSV rows of a trade series, in numpy: each ``t`` as
``str`` writes it, each price and volume as ``"%.17g"`` writes it, by
``_grid17.float_words``, with ``.0`` on an integral value in fixed
notation, so that every float cell holds a point.  17 significant digits
read back as the same double.

``mbstat.trade_series.serialize``, which joins the blocks of
``csv_blocks``, and ``mbstat generate``, which writes them as they come,
import this module on first use.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ._grid17 import AREA, ZEROS, U, digits8, float_words, layout, nonzero_bytes, row_template
from .trade_series import CSV_HEADER, TradeSeries

_POWERS = np.array([10**j for j in range(1, 20)], U)
# Rows per block of the CSV body, one matrix of words each, written out
# _TEXT_ROWS at a time.  A block makes some 200 numpy calls: on a 250k-tick
# series (2-core Xeon) 4,096 rows took 5-10% longer than 8,192, and 6,144
# rows 2-4% longer.  With 6,144 the matrix and the formatter's temporaries,
# or a third of the matrix's bytes and their NUL mask, stay below one
# series-long column of a 200k-tick series.
_BLOCK_ROWS = 6144
_TEXT_ROWS = 2048


def _int_words(t: np.ndarray, out: np.ndarray) -> None:
    """Fill the ``(n, 3)`` uint64 rows ``out`` with ``str(v)`` of each int64
    ``v`` of ``t``, NUL-padded: the sign in byte 0, the digits right-aligned
    in the 24 bytes."""
    u = t.view(U)
    u = np.where(t < 0, U(0) - u, u)  # |t|, also for -2**63
    digits = np.empty((3, len(t)), U)  # |t| as 8-digit groups, filled in place
    lead, mid, rest = digits
    np.floor_divide(u, U(10**16), out=lead)  # at most 922
    np.multiply(lead, U(10**16), out=rest)
    np.subtract(u, rest, out=rest)
    np.floor_divide(rest, U(10**8), out=mid)
    rest -= mid * U(10**8)
    digits8(digits)
    # The leading zeros of the 24 digits stay NUL.
    first = AREA - 1 - np.searchsorted(_POWERS, u, side="right")
    shown = np.take(layout(True).zeros, first, axis=1)
    shown ^= ZEROS
    digits |= shown
    out[:] = digits.T
    out[:, 0] |= np.where(t < 0, U(ord("-")), U(0))


def csv_blocks(series: TradeSeries) -> Iterator[bytes]:
    """The canonical CSV of ``series``: its header line, then the row
    ``t,price,volume`` and an LF for each tick, in blocks of rows.  A block
    is one ``row_template`` matrix of 12 words per row (``t``, ``,``, price,
    ``,``, volume, LF), written out by ``nonzero_bytes``; the tick times of
    a block are built from the series' grid."""
    yield CSV_HEADER.encode() + b"\n"
    n = len(series)
    price, volume = np.asarray(series.price, np.float64), np.asarray(series.volume, np.float64)
    row, (at_t, at_price, at_volume) = row_template((b"", b",", b",", b"\n"))
    mat = np.tile(row, (min(n, _BLOCK_ROWS), 1))
    for b0 in range(0, n, _BLOCK_ROWS):
        span = slice(b0, b0 + _BLOCK_ROWS)
        block = mat[: len(price[span])]
        _int_words(series.times(b0, len(block)), block[:, at_t : at_t + 3])
        for x, at in ((price[span], at_price), (volume[span], at_volume)):
            float_words(x, block[:, at : at + 3], layout(True))
        for r0 in range(0, len(block), _TEXT_ROWS):
            yield nonzero_bytes(block[r0 : r0 + _TEXT_ROWS])
