"""The 17-digit decimal grid of float64 values, in numpy.

``k = floor(log10|x|)`` comes exactly from the binary exponent and one
comparison with ``10**(k + 1)``, and ``|x|`` is scaled by ``10**(16 - k)``
as a double-double: Dekker's TwoProduct of ``|x|`` with the double ``hi``
nearest ``10**(16 - k)``, plus ``|x| * lo`` for the rest of the power, taken
from integer arithmetic.  ``_format17g`` rounds that to 17 digits;
``_format_repr`` finds on it the shortest digits that read back.

The tables are built on first use.
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


@functools.cache
def _tables() -> SimpleNamespace:
    """Built from integer arithmetic.  The per-call path uses no ``log10``
    and no cast of small integers, whose numpy kernels would count in the
    resident set."""
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


def grid_17(x: np.ndarray):
    """``(ki, a, hi, p, r, in_table)`` for finite float64 ``x``: ``|x|`` on
    the 17-digit grid of its decade ``k = ki + _K_MIN``.  ``X = |x| * 10**(16
    - k)``, which lies in ``[10**16, 10**17)``, is ``p + r`` with an error
    under 1e-14, and ``p`` is an integer-valued double; ``a`` is ``|x|`` and
    ``hi`` the double nearest ``10**(16 - k)``.  Where ``in_table`` is False
    (zero, subnormals, k outside the table) ``a``, ``p`` and ``r`` are 0."""
    tab = _tables()
    a = np.abs(x)
    biased = a.view(np.int64) >> 52
    ki = tab.k_low[biased]
    ki = np.where(a >= tab.k_step[biased], ki + 1, ki)
    in_table = tab.in_table[biased]
    a[~in_table] = 0.0
    hi, lo, hh, hl = (power[ki] for power in tab.powers)
    p = a * hi
    t = a * _SPLIT
    ah = t - (t - a)
    al = a - ah
    r = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo
    return ki, a, hi, p, r, in_table
