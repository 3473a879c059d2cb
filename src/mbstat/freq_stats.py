"""Equal-weight (frequency-based) statistics over per-tick sequences.

Everything here is a plain ``(1/N) * sum`` over the window's ticks, and
``cov`` is the unnormalized covariance (joint moment minus product of means);
Pearson normalization is deliberately not applied here.  These are the public
equal-weight figures.  The closed forms of :mod:`mbstat.market_core` take
their means from its shifted kernel instead (``market_core.pair_forms``),
which also gives the frequency values it reports; ``vwap`` reads ``mean``.

Sums use ``math.fsum`` (exactly rounded compensated summation): windows can
reach 10^6 ticks, and the raw moments here cancel in ``cov``, so naive
accumulation would lose digits on top.  ``fsum`` is fed Python floats
(``tolist``), not the array, so it does not box a numpy scalar per element;
the floats and hence the sums are the same.  Every term must be finite: an
infinite or NaN term is refused as ``ConsistencyError``, by its index, rather
than giving ``nan`` or ``fsum``'s bare ``ValueError``.  A sum of finite terms
whose exact value is past the float range raises ``ConsistencyError`` rather
than ``fsum``'s bare ``OverflowError``, and so does a product of finite terms
that overflows, rather than giving ``inf``.  ``market_core.portfolio_return``
checks its returns and sums through the same functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, EmptyInput, LengthMismatch


def _as_floats(xs) -> np.ndarray:
    arr = np.asarray(xs, dtype=np.float64)
    if arr.ndim != 1:
        raise LengthMismatch(f"expected a 1-D sequence, got shape {arr.shape}")
    if arr.size == 0:
        raise EmptyInput("statistics of an empty sequence are undefined")
    return _finite(arr)


def _finite(arr: np.ndarray, what: str = "term") -> np.ndarray:
    """``arr``, none of whose terms may be infinite or NaN."""
    bad = ~np.isfinite(arr)
    if bad.any():
        i = int(np.argmax(bad))
        raise ConsistencyError(f"{what} {i} is {float(arr[i])!r}, not a finite number")
    return arr


def _fsum(arr: np.ndarray) -> float:
    try:
        return math.fsum(arr.tolist())
    except OverflowError:
        raise ConsistencyError(
            f"the compensated sum of {arr.size} terms overflows the float range"
        ) from None


def _products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The terms ``x_i * y_i``, none of which may overflow from finite factors."""
    with np.errstate(over="ignore"):  # refused just below, naming the term
        xy = x * y
    over = np.isinf(xy) & np.isfinite(x) & np.isfinite(y)
    if over.any():
        i = int(np.argmax(over))
        raise ConsistencyError(f"the product {float(x[i])!r}*{float(y[i])!r} of term {i} "
                               "overflows the float range")
    return xy


def mean(xs) -> float:
    """Arithmetic mean ``(1/N) * sum(x_i)``; N*mean is the total sum."""
    arr = _as_floats(xs)
    return _fsum(arr) / arr.size


def joint_moment(xs, ys) -> float:
    """``(1/N) * sum(x_i * y_i)`` of two equally long sequences."""
    x = _as_floats(xs)
    y = _as_floats(ys)
    if x.size != y.size:
        raise LengthMismatch(f"joint moment needs equal lengths, got {x.size} and {y.size}")
    return _fsum(_products(x, y)) / x.size


def cov(xs, ys) -> float:
    """Unnormalized covariance: joint moment minus product of means.

    For a single tick this is 0 (the lone deviation is zero), not an error.
    """
    return joint_moment(xs, ys) - mean(xs) * mean(ys)


@dataclass(frozen=True)
class MomentSet:
    """Mean, raw second moment, and their difference (the variance)."""

    mean: float
    second_moment: float
    variance: float


def moments(xs) -> MomentSet:
    """First and second moments of one sequence, sharing ``cov``'s summation."""
    m = mean(xs)
    second = joint_moment(xs, xs)
    return MomentSet(mean=m, second_moment=second, variance=second - m * m)
