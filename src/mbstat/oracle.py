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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LengthMismatch, NonPositiveInput, UnnormalizedWeights

SINGLE_KINDS = ("volume", "past_value")
PRODUCT_KINDS = ("volume_product", "past_value_product", "volume_past_value")

WEIGHT_SUM_ABS_TOL = 1e-12  # invariant on freshly built weights
WEIGHT_SUM_CHECK_TOL = 1e-9  # acceptance gate inside em_expectation

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


def relative_deviation(x: float, y: float, floor: float = 0.0) -> float:
    """Deviation of two evaluations of one statistic, relative to its scale.

    The denominator is the larger of the two magnitudes, but never less than
    ``floor`` (pass the statistic's natural magnitude, e.g. the product of
    the two market averages): a correlation that happens to sit near zero
    must not turn benign summation-order noise into a huge ratio.
    """
    diff = abs(x - y)
    if diff == 0.0:
        return 0.0
    return diff / max(abs(x), abs(y), floor)


def oracle_corr(kind: str, x1, x2, carrier1, carrier2, avg1: float, avg2: float) -> float:
    """Directly averaged correlation: weighted mean of the deviation product.

    ``x1``/``x2`` are the per-tick prices or returns of the two legs,
    ``carrier1``/``carrier2`` the weight-bearing sequences (volumes for a
    price leg, past values for a return leg), and ``avg1``/``avg2`` the
    market-based averages (VWAP or value-weighted average return) the
    deviations are taken against.
    """
    try:
        weight_kind = _CORR_WEIGHT_KIND[kind]
    except KeyError:
        raise NonPositiveInput(f"unknown correlation kind {kind!r}") from None
    w = make_weights(weight_kind, carrier1, carrier2)
    a = _floats(x1)
    b = _floats(x2)
    if not (len(a) == len(b) == len(w)):
        raise LengthMismatch(
            f"sequence lengths differ: {len(a)}, {len(b)}, weights {len(w)}"
        )
    return _plain_sum(
        (ai - avg1) * (bi - avg2) * wi for ai, bi, wi in zip(a, b, w.weights)
    )
