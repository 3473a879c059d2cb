"""``"%.17g" % v`` for float64 arrays, byte for byte, in numpy.

CPython's ``"%.17g"`` takes its bignum path, about 1 us per float.  Here
``|x|`` on the grid of ``_grid17`` is rounded to 17 digits and laid out by
``_grid17.float_words``, in fixed notation for ``-4 <= k <= 16``.  Near
ties, carries into an 18th digit, subnormals and k outside the table go to
``"%.17g"``.  ``mbstat.reports`` imports this module on its first block.
"""

from __future__ import annotations

import numpy as np

from ._grid17 import _K_MAX, _K_MIN, float_texts, grid_17, layout  # noqa: F401

# |frac(y) - 1/2| at or below this is a near-tie, left to "%.17g": the
# double-double y is off by under 1e-14.
_TIE = 2.0**-40


def decimal_17(x: np.ndarray):
    """``(ki, digits, fast)`` for finite float64 ``x``: where ``fast``,
    ``|x|`` rounded to 17 digits is ``digits * 10**(k - 16)``, ``k = ki +
    _K_MIN``.  Zero is fast, with ``digits`` 0 and k 0; ``digits`` is below
    ``10**18`` throughout."""
    ki, _, _, p, r, fast = grid_17(x)
    near = np.rint(r)
    digits = p.astype(np.int64) + near.astype(np.int64)
    fast &= digits < 10**17  # else the rounding carried, or k is past _K_MAX
    fast &= np.abs(r - near) < 0.5 - _TIE
    fast |= x == 0.0
    return ki, digits, fast


def format_17g(values) -> list:
    """``b"%.17g" % v`` for each finite float64 in ``values``."""
    x = np.asarray(values, dtype=np.float64).ravel()
    return float_texts(x, decimal_17(x), b"%.17g".__mod__, layout(16, False))
