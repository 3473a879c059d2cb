"""Brute-force weighted-expectation engine used as ground truth.

Every market-based closed form in :mod:`mbstat.market_core` must equal a
direct weighted mean of per-tick deviation products.  This module computes
those weighted means from the raw per-tick sequences with its own plain
sequential summation, on purpose sharing no arithmetic helpers with the code
it checks: an oracle built from the same intermediates would prove nothing.

Weight kinds (each normalized to sum 1 over the window):

- ``volume``:               U_i / sum(U)               (single asset)
- ``past_value``:           Co_i / sum(Co)             (single asset)
- ``volume_product``:       U1_i*U2_i / sum(...)       (price-price)
- ``past_value_product``:   Co1_i*Co2_i / sum(...)     (return-return)
- ``volume_past_value``:    U1_i*Co2_i / sum(...)      (price-return)

:func:`oracle_corr_windows` takes the same definition over many windows at
once, for ``verify``: numpy evaluates one block of windows per array
operation, still with each window's own weight sum and no cumulative sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyInput, LengthMismatch, NonPositiveInput, UnnormalizedWeights

SINGLE_KINDS = ("volume", "past_value")
PRODUCT_KINDS = ("volume_product", "past_value_product", "volume_past_value")

WEIGHT_SUM_ABS_TOL = 1e-12  # invariant on freshly built weights
WEIGHT_SUM_CHECK_TOL = 1e-9  # acceptance gate inside em_expectation

# Float64 elements per temporary of oracle_corr_windows (64 KiB); a window
# longer than this makes a block of one window.
_BLOCK_ELEMENTS = 8192

_CORR_WEIGHT_KIND = {
    "price_price": "volume_product",
    "return_return": "past_value_product",
    "price_return": "volume_past_value",
}


def _plain_sum(values) -> float:
    total = 0.0
    for v in values:
        total += float(v)
    return total


def _floats(seq) -> list[float]:
    """``[float(v) for v in seq]``.  A 1-D float64 array gives the same list
    from one ``tolist`` call, without a numpy scalar per element."""
    if getattr(seq, "dtype", None) == "float64" and seq.ndim == 1:
        return seq.tolist()
    return [float(v) for v in seq]


def _check_positive(seq, name: str) -> list[float]:
    out = _floats(seq)
    if not out:
        raise EmptyInput(f"{name} entries are empty")
    for v in out:
        if not v > 0.0:
            raise NonPositiveInput(f"{name} entries must be > 0, got {v}")
    return out


@dataclass(frozen=True)
class WeightVector:
    """Normalized weights of one of the five kinds."""

    kind: str
    weights: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.weights)


def make_weights(kind: str, first, second=None) -> WeightVector:
    """Build normalized weights of the requested kind.

    Single-sequence kinds take one positive sequence; product kinds take two
    of equal length.  The denominator is the plain sum of the (products of)
    entries.
    """
    if kind in SINGLE_KINDS:
        if second is not None:
            raise LengthMismatch(f"kind {kind!r} takes a single sequence")
        raw = _check_positive(first, kind)
    elif kind in PRODUCT_KINDS:
        if second is None:
            raise LengthMismatch(f"kind {kind!r} takes two sequences")
        a = _check_positive(first, kind + "[1]")
        b = _check_positive(second, kind + "[2]")
        if len(a) != len(b):
            raise LengthMismatch(
                f"weight inputs differ in length: {len(a)} vs {len(b)}"
            )
        raw = [x * y for x, y in zip(a, b)]
    else:
        raise NonPositiveInput(f"unknown weight kind {kind!r}")
    total = _plain_sum(raw)
    weights = tuple(v / total for v in raw)
    spread = abs(_plain_sum(weights) - 1.0)
    if spread > WEIGHT_SUM_ABS_TOL:
        raise UnnormalizedWeights(f"normalization drifted by {spread:.3e}")
    return WeightVector(kind=kind, weights=weights)


def em_expectation(values, weights: WeightVector) -> float:
    """Weighted mean ``sum(values_i * weights_i)`` under a weight vector."""
    vals = _floats(values)
    if len(vals) != len(weights):
        raise LengthMismatch(
            f"values and weights differ in length: {len(vals)} vs {len(weights)}"
        )
    drift = abs(_plain_sum(weights.weights) - 1.0)
    if drift > WEIGHT_SUM_CHECK_TOL:
        raise UnnormalizedWeights(f"weights sum to 1{drift:+.3e}")
    return _plain_sum(v * w for v, w in zip(vals, weights.weights))


def relative_deviation(x, y, floor=0.0):
    """Deviation of two evaluations of one statistic, relative to its scale.

    The denominator is the larger of the two magnitudes, but never less than
    ``floor`` (pass the statistic's natural magnitude, e.g. the product of
    the two market averages): a correlation that happens to sit near zero
    must not turn benign summation-order noise into a huge ratio.  Floats
    give a float, arrays an array of the element-wise rule: 0 where
    ``|x - y|`` is 0, else ``|x - y|`` over the largest of ``|x|``, ``|y|``
    and ``floor``.  A NaN or an inf in ``x`` or ``y`` gives NaN.
    """
    with np.errstate(invalid="ignore"):  # inf against inf is NaN, a breach
        diff = np.abs(np.subtract(x, y))
        dev = diff / np.fmax(np.fmax(np.abs(x), np.abs(y)), floor)
    return np.where(diff == 0.0, 0.0, dev)[()]  # [()]: a 0-d result as a float


def _weight_kind(kind: str) -> str:
    try:
        return _CORR_WEIGHT_KIND[kind]
    except KeyError:
        raise NonPositiveInput(f"unknown correlation kind {kind!r}") from None


def oracle_corr(kind: str, x1, x2, carrier1, carrier2, avg1: float, avg2: float) -> float:
    """Directly averaged correlation: weighted mean of the deviation product.

    ``x1``/``x2`` are the per-tick prices or returns of the two legs,
    ``carrier1``/``carrier2`` the weight-bearing sequences (volumes for a
    price leg, past values for a return leg), and ``avg1``/``avg2`` the
    market-based averages (VWAP or value-weighted average return) the
    deviations are taken against.
    """
    w = make_weights(_weight_kind(kind), carrier1, carrier2)
    a = _floats(x1)
    b = _floats(x2)
    if not (len(a) == len(b) == len(w)):
        raise LengthMismatch(
            f"sequence lengths differ: {len(a)}, {len(b)}, weights {len(w)}"
        )
    return _plain_sum(
        (ai - avg1) * (bi - avg2) * wi for ai, bi, wi in zip(a, b, w.weights)
    )


def oracle_corr_windows(kind: str, x1, x2, carrier1, carrier2, avg1, avg2, *,
                        window: int, stride: int):
    """:func:`oracle_corr` at the positions ``0, 1, ...``, one per entry of
    ``avg1``/``avg2``, as a float64 array.

    Position ``i``'s window is ``[i*stride, i*stride + window)`` of each of the
    four per-tick arrays.  Each window's product weights are normalized by that
    window's own sum, and the weighted mean of its deviation products is one
    row of an ``einsum``.  The checks are the scalar oracle's, per window: an
    unknown kind or a carrier entry that is not > 0 is a NonPositiveInput, a
    normalization drift above ``WEIGHT_SUM_ABS_TOL`` an UnnormalizedWeights.
    Windows are taken in blocks, so that no temporary holds more than
    ``_BLOCK_ELEMENTS`` floats (or one window, if that is longer).
    """
    weight_kind = _weight_kind(kind)
    avg1, avg2 = np.asarray(avg1, dtype=np.float64), np.asarray(avg2, dtype=np.float64)
    if len(avg1) != len(avg2):
        raise LengthMismatch(f"averages differ in length: {len(avg1)} vs {len(avg2)}")
    arrays = [np.asarray(a, dtype=np.float64) for a in (x1, x2, carrier1, carrier2)]
    end = (len(avg1) - 1) * stride + window
    if any(len(a) < max(end, window) for a in arrays):
        raise LengthMismatch(f"sequence lengths {[len(a) for a in arrays]} end before "
                             f"the last window's end {end}")
    # Row i of each view is position i's window; the views copy nothing.
    v1, v2, c1, c2 = (sliding_window_view(a, window)[::stride] for a in arrays)
    names = (weight_kind + "[1]", weight_kind + "[2]")
    out = np.empty(len(avg1), dtype=np.float64)
    step = max(1, _BLOCK_ELEMENTS // window)
    with np.errstate(all="ignore"):  # Python floats give inf and NaN silently
        for b in range(0, len(out), step):
            rows = slice(b, min(b + step, len(out)))
            for name, c in zip(names, (c1[rows], c2[rows])):
                bad = ~(c > 0)
                if bad.any():
                    raise NonPositiveInput(f"{name} entries must be > 0, got {c[bad][0]}")
            w = c1[rows] * c2[rows]
            w /= w.sum(axis=1, keepdims=True)
            spread = np.abs(w.sum(axis=1) - 1.0)
            drifted = spread[spread > WEIGHT_SUM_ABS_TOL]
            if len(drifted):
                raise UnnormalizedWeights(f"normalization drifted by {drifted[0]:.3e}")
            d = v1[rows] - avg1[rows, None]
            d *= v2[rows] - avg2[rows, None]
            out[rows] = np.einsum("ij,ij->i", d, w)
    return out
