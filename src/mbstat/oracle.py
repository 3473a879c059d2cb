"""Brute-force weighted-expectation engine used as ground truth.

Every market-based closed form in :mod:`mbstat.market_core` must equal a
direct weighted mean of per-tick deviation products.  This module computes
those weighted means from the raw per-tick sequences, each window with its
own weight sum and no cumulative sums, on purpose sharing no arithmetic
helpers with the code it checks: an oracle built from the same
intermediates would prove nothing.

Weight kinds (each normalized to sum 1 over the window):

- ``volume``:               U_i / sum(U)               (single asset)
- ``past_value``:           Co_i / sum(Co)             (single asset)
- ``volume_product``:       U1_i*U2_i / sum(...)       (price-price)
- ``past_value_product``:   Co1_i*Co2_i / sum(...)     (return-return)
- ``volume_past_value``:    U1_i*Co2_i / sum(...)      (price-return)

One weight rule (:func:`_weights`) checks the carriers and the
normalization, over rows of windows.  :func:`oracle_corr_windows` applies
it and the weighted mean to one block of windows per numpy operation, for
``verify``; the public scalar functions are the same code at one window:
:func:`make_weights` is the rule on one row, :func:`oracle_corr` one window
of :func:`oracle_corr_windows`, and :func:`em_expectation` one dot product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (EmptyInput, InvalidConfig, LengthMismatch, NonPositiveInput,
                     UnnormalizedWeights)

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


@dataclass(frozen=True)
class WeightVector:
    """Normalized weights of one of the five kinds."""

    kind: str
    weights: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.weights)


def _weights(names, carriers) -> np.ndarray:
    """The weight rule, on one or two carrier arrays whose rows are windows.

    Each carrier in turn must be non-empty (else EmptyInput) with every entry
    > 0 (else NonPositiveInput naming the first that is not), and the two
    must be of one length (else LengthMismatch).  Each row of their product,
    divided by its own sum, must then sum to 1 within ``WEIGHT_SUM_ABS_TOL``;
    a row that does not, or whose sum is not finite, is an
    UnnormalizedWeights.  Returns the normalized rows.
    """
    for name, c in zip(names, carriers):
        if not c.shape[-1]:
            raise EmptyInput(f"{name} entries are empty")
        bad = ~(c > 0)
        if bad.any():
            raise NonPositiveInput(f"{name} entries must be > 0, got {c[bad][0]}")
    if carriers[0].shape != carriers[-1].shape:
        raise LengthMismatch(f"weight inputs differ in length: {carriers[0].shape[-1]} vs "
                             f"{carriers[-1].shape[-1]}")
    with np.errstate(all="ignore"):  # an overflowing sum is refused just below
        w = carriers[0] * (carriers[1] if len(carriers) == 2 else 1.0)
        w /= w.sum(axis=-1, keepdims=True)
        spread = np.abs(w.sum(axis=-1) - 1.0)
    drifted = spread[~(spread <= WEIGHT_SUM_ABS_TOL)]
    if len(drifted):
        raise UnnormalizedWeights(f"normalization drifted by {drifted[0]:.3e}")
    return w


def make_weights(kind: str, first, second=None) -> WeightVector:
    """Build normalized weights of the requested kind: the weight rule on one
    row.  Single-sequence kinds take one positive sequence; product kinds
    take two of equal length."""
    if kind in SINGLE_KINDS:
        if second is not None:
            raise LengthMismatch(f"kind {kind!r} takes a single sequence")
        names, carriers = (kind,), (first,)
    elif kind in PRODUCT_KINDS:
        if second is None:
            raise LengthMismatch(f"kind {kind!r} takes two sequences")
        names, carriers = (kind + "[1]", kind + "[2]"), (first, second)
    else:
        raise NonPositiveInput(f"unknown weight kind {kind!r}")
    rows = [np.asarray(c, dtype=np.float64)[None] for c in carriers]
    return WeightVector(kind=kind, weights=tuple(_weights(names, rows)[0].tolist()))


def em_expectation(values, weights: WeightVector) -> float:
    """Weighted mean ``sum(values_i * weights_i)`` under a weight vector.

    The weights may come from any caller, so their length and their sum are
    checked: a sum off 1 by more than ``WEIGHT_SUM_CHECK_TOL``, or not
    finite, is an UnnormalizedWeights.
    """
    vals = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights.weights, dtype=np.float64)
    if len(vals) != len(w):
        raise LengthMismatch(f"values and weights differ in length: {len(vals)} vs {len(w)}")
    drift = abs(w.sum() - 1.0)
    if not drift <= WEIGHT_SUM_CHECK_TOL:
        raise UnnormalizedWeights(f"weights sum to 1{drift:+.3e}")
    return float(vals @ w)


def relative_deviation(x, y, floor=0.0):
    """Deviation of two evaluations of one statistic, relative to its scale.

    The denominator is the larger of the two magnitudes, but never less than
    ``floor`` (pass the statistic's natural magnitude, e.g. the product of
    the two market averages): a correlation that happens to sit near zero
    must not turn benign summation-order noise into a huge ratio.  Floats
    give a float, arrays an array of the element-wise rule: 0 where
    ``|x - y|`` is 0, else ``|x - y|`` over the largest of ``|x|``, ``|y|``
    and ``floor``.  A NaN or an inf in ``x`` or ``y``, or an infinite
    ``floor``, gives NaN: no deviation is small against an infinite scale.
    """
    with np.errstate(invalid="ignore"):  # inf against inf is NaN, a breach
        diff = np.abs(np.subtract(x, y))
        scale = np.fmax(np.fmax(np.abs(x), np.abs(y)), floor)
        dev = np.where(scale < np.inf, diff / scale, np.nan)
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
    deviations are taken against.  It is :func:`oracle_corr_windows` over
    one window of all four sequences.
    """
    weight_kind = _weight_kind(kind)
    arrays = [np.asarray(a, dtype=np.float64) for a in (x1, x2, carrier1, carrier2)]
    n1, n2, n = (len(a) for a in arrays[:3])
    if not n or {n1, n2, len(arrays[3])} != {n}:
        # The carriers' own errors, as make_weights raises them, come first.
        make_weights(weight_kind, carrier1, carrier2)
        raise LengthMismatch(f"sequence lengths differ: {n1}, {n2}, weights {n}")
    return float(oracle_corr_windows(kind, *arrays, [avg1], [avg2], window=n, stride=1)[0])


def oracle_corr_windows(kind: str, x1, x2, carrier1, carrier2, avg1, avg2, *,
                        window: int, stride: int):
    """:func:`oracle_corr` at the positions ``0, 1, ...``, one per entry of
    ``avg1``/``avg2``, as a float64 array.

    Position ``i``'s window is ``[i*stride, i*stride + window)`` of each of the
    four per-tick arrays.  Each block of windows passes the weight rule
    (:func:`_weights`, with each window normalized by its own sum), and the
    weighted mean of each window's deviation products is one row of an
    ``einsum``.  A window or stride below 1 is an InvalidConfig, and an
    unknown kind a NonPositiveInput.  Windows are taken in blocks, so that no
    temporary holds more than ``_BLOCK_ELEMENTS`` floats (or one window, if
    that is longer).
    """
    for name, steps in (("window", window), ("stride", stride)):
        if steps < 1:
            raise InvalidConfig(f"{name} must be >= 1, got {steps}")
    weight_kind = _weight_kind(kind)
    avg1, avg2 = np.asarray(avg1, dtype=np.float64), np.asarray(avg2, dtype=np.float64)
    if len(avg1) != len(avg2):
        raise LengthMismatch(f"averages differ in length: {len(avg1)} vs {len(avg2)}")
    arrays = [np.asarray(a, dtype=np.float64) for a in (x1, x2, carrier1, carrier2)]
    end = (len(avg1) - 1) * stride + window
    if any(len(a) < max(end, window) for a in arrays):
        raise LengthMismatch(f"sequence lengths {[len(a) for a in arrays]} end before "
                             f"the last window's end {end}")
    # Row i of each view is position i's window, over one copy of the four
    # arrays' spans (one view of four arrays costs less than four views).
    spans = np.stack([a[:max(end, window)] for a in arrays])
    v1, v2, c1, c2 = sliding_window_view(spans, window, axis=1)[:, ::stride]
    names = (weight_kind + "[1]", weight_kind + "[2]")
    out = np.empty(len(avg1), dtype=np.float64)
    step = max(1, _BLOCK_ELEMENTS // window)
    with np.errstate(all="ignore"):  # Python floats give inf and NaN silently
        for b in range(0, len(out), step):
            rows = slice(b, min(b + step, len(out)))
            w = _weights(names, (c1[rows], c2[rows]))
            d = v1[rows] - avg1[rows, None]
            d *= v2[rows] - avg2[rows, None]
            out[rows] = np.einsum("ij,ij->i", d, w)
    return out
