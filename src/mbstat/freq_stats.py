"""Equal-weight (frequency-based) statistics over per-tick sequences.

Everything here is a plain ``(1/N) * sum`` over the window's ticks.  The
unnormalized covariance ``cov`` (joint moment minus product of means) is the
quantity the closed forms in :mod:`mbstat.market_core` consume; Pearson
normalization is deliberately not applied here.

Sums use ``math.fsum`` (exactly rounded compensated summation): windows can
reach 10^6 ticks and the downstream identity checks sit at 1e-12 relative,
which naive accumulation does not reliably deliver.  ``fsum`` is fed Python
floats (``tolist``), not the array, so it does not box a numpy scalar per
element; the floats and hence the sums are the same.  A sum of finite terms
whose exact value is past the float range raises ``ConsistencyError``
rather than ``fsum``'s bare ``OverflowError``.
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
    return arr


def _fsum_mean(arr: np.ndarray) -> float:
    try:
        return math.fsum(arr.tolist()) / arr.size
    except OverflowError:
        raise ConsistencyError(
            f"the compensated sum of {arr.size} terms overflows the float range"
        ) from None


def mean(xs) -> float:
    """Arithmetic mean ``(1/N) * sum(x_i)``; N*mean is the total sum."""
    return _fsum_mean(_as_floats(xs))


def joint_moment(xs, ys) -> float:
    """``(1/N) * sum(x_i * y_i)`` of two equally long sequences."""
    x = _as_floats(xs)
    y = _as_floats(ys)
    if x.size != y.size:
        raise LengthMismatch(f"joint moment needs equal lengths, got {x.size} and {y.size}")
    return _fsum_mean(x * y)


def spec_means(arrays: dict, specs) -> list[float]:
    """Per ``(x, y)`` spec over the named, equally long sequences ``arrays``:
    the mean of ``x`` (``y=None``) or the joint moment of ``x`` and ``y``.
    Each sequence is checked once, not once per spec it appears in.  A
    product that overflows gives an ``inf`` mean without a warning: the
    closed forms refuse it, naming the moment."""
    arrs = {name: _as_floats(xs) for name, xs in arrays.items()}
    if len(sizes := {arr.size for arr in arrs.values()}) > 1:
        raise LengthMismatch(f"sequences differ in length: {sorted(sizes)}")
    with np.errstate(over="ignore", under="ignore"):
        return [_fsum_mean(arrs[x] if y is None else arrs[x] * arrs[y]) for x, y in specs]


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
