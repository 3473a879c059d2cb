"""Exact-rational reference for every family's record fields.

Shares no arithmetic with mbstat.  Each stored double of a window's legs (the
arrays ``rolling.leg_sequences`` returns over a span of the grid; the engine
builds them per anchor block, the tests here over the whole plan, and both
are the arrays of the window's ``Window`` and ``ReturnView``, element for
element) is turned into an integer times one power of two per array, every
sum is taken in Python integers, and each field is a ``fractions.Fraction``
of those sums.  With ``C`` a leg's stored trade values, ``W`` its carrier
(volumes or past values) and ``x`` its per-tick prices or returns,

    market = sum((C1 - g1*W1) * (C2 - g2*W2)) / sum(W1*W2),  g = sum(C)/sum(W),
    frequency = mean(x1*x2) - mean(x1)*mean(x2),

a joint family adding ``g1*g2`` to the market value and taking ``mean(x1*x2)``
as its frequency value.

An error is measured against a field's natural scale (:func:`scales`).  For
the market and frequency values that is ``max(|value|, S)``, where ``S`` is
the Cauchy-Schwarz bound ``sqrt(E[d1^2] * E[d2^2])`` of the covariance: the
oracle's weights ``W1*W2`` and deviations ``x - g`` for the market value,
equal weights and ``x - mean(x)`` for the frequency value.  A near-zero value
is then not divided by itself, and a value of typical size is.
"""

from __future__ import annotations

import math
from fractions import Fraction

EPS = 2.0**-52

JOINT = ("joint_price_moment", "joint_return_moment")


def _dyadic(values: list[float]) -> tuple[list[int], int]:
    """Integers m_i and one shift e with values[i] == m_i * 2**e exactly."""
    parts = [math.frexp(v) for v in values]
    e = min((x for m, x in parts if m), default=0) - 53
    return [int(m * 2**53) << (x - 53 - e) if m else 0 for m, x in parts], e


def _scaled(m: int, e: int) -> Fraction:
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _total(a) -> Fraction:
    return _scaled(sum(a[0]), a[1])


def _dot(a, b) -> Fraction:
    return _scaled(sum(x * y for x, y in zip(a[0], b[0])), a[1] + b[1])


def _float(q: Fraction) -> float:
    try:
        return float(q)
    except OverflowError:  # past the float range
        return math.inf if q > 0 else -math.inf


class Leg:
    """One leg's window: its value, carrier and per-tick arrays, as floats
    and as exact integers over a power of two."""

    def __init__(self, c, w, x):
        self.floats = [[float(v) for v in a] for a in (c, w, x)]
        self.c, self.w, self.x = (_dyadic(a) for a in self.floats)
        self.n = len(self.floats[0])
        if {len(a) for a in self.floats} != {self.n}:
            raise ValueError("a leg's arrays differ in length")
        self.mean, self.var = {}, {}  # per array ``c``, ``w``, ``x``, as floats
        for name in "cwx":
            a = getattr(self, name)
            mean = _total(a) / self.n
            self.mean[name], self.var[name] = _float(mean), _float(_dot(a, a) / self.n - mean**2)

    @classmethod
    def of(cls, src):
        """The leg of a price ``Window`` or a ``ReturnView``."""
        if hasattr(src, "c_past"):
            return cls(src.value, src.c_past, src.r)
        return cls(src.value, src.volume, src.price)


def values(family: str, leg1: Leg, leg2: Leg) -> dict[str, Fraction]:
    """The exact record fields of ``family`` over the windows of two legs
    (one leg twice for a volatility)."""
    n = leg1.n
    if leg2.n != n:
        raise ValueError("the legs differ in length")
    c1, w1, c2, w2 = _total(leg1.c), _total(leg1.w), _total(leg2.c), _total(leg2.w)
    cc, wc = _dot(leg1.c, leg2.c), _dot(leg1.w, leg2.c)
    cw, ww = _dot(leg1.c, leg2.w), _dot(leg1.w, leg2.w)
    g1, g2 = c1 / w1, c2 / w2
    market = (cc - g1 * wc - g2 * cw + g1 * g2 * ww) / ww
    x1, x2, xx = _total(leg1.x), _total(leg2.x), _dot(leg1.x, leg2.x)
    frequency = xx / n - x1 * x2 / n**2
    if family in JOINT:
        market += g1 * g2
        frequency = xx / n
    return {
        "market_value": market, "frequency_value": frequency, "g1": g1, "g2": g2,
        "denominator": ww / n, "cov_cc": cc / n - c1 * c2 / n**2,
        "cov_uc": wc / n - w1 * c2 / n**2, "cov_cu": cw / n - c1 * w2 / n**2,
        "cov_ww": ww / n - w1 * w2 / n**2, "freq_avg1": x1 / n, "freq_avg2": x2 / n,
    }


def _weighted_sq(leg: Leg, g: float, weights: list[float]) -> float:
    return math.fsum(w * (x - g) ** 2 for w, x in zip(weights, leg.floats[2])) / math.fsum(weights)


def scales(leg1: Leg, leg2: Leg, exact: dict[str, Fraction], floor: float = EPS**2,
           cov_floor: float | None = None) -> dict[str, float]:
    """Per field of :func:`values`, the scale its error is measured against.
    Each is floored at ``floor`` (``cov_floor`` for the covariances of ``C``
    and ``W``) times the product of the magnitudes it is built from
    (``|g1*g2|`` for the market value): a window that is constant to the
    last bit of its doubles has no covariance of its own, only rounding."""
    g1, g2 = float(exact["g1"]), float(exact["g2"])
    m1, m2 = float(exact["freq_avg1"]), float(exact["freq_avg2"])
    weights = [a * b for a, b in zip(leg1.floats[1], leg2.floats[1])]
    s_market = math.sqrt(_weighted_sq(leg1, g1, weights) * _weighted_sq(leg2, g2, weights))
    s_freq = math.sqrt(leg1.var["x"] * leg2.var["x"])
    out = {key: abs(float(v)) for key, v in exact.items()}
    out["market_value"] = max(out["market_value"], s_market, floor * abs(g1 * g2))
    out["frequency_value"] = max(out["frequency_value"], s_freq, floor * abs(m1 * m2))
    for name, a, b in (("cov_cc", "c", "c"), ("cov_uc", "w", "c"), ("cov_cu", "c", "w"),
                       ("cov_ww", "w", "w")):
        out[name] = max(out[name], math.sqrt(leg1.var[a] * leg2.var[b]),
                        (floor if cov_floor is None else cov_floor)
                        * abs(leg1.mean[a] * leg2.mean[b]))
    return out


def errors(got: dict[str, float], exact: dict[str, Fraction],
           scale: dict[str, float]) -> dict[str, tuple[float, float]]:
    """Per field of ``got``: its error relative to the field's scale, and
    relative to the exact value (``inf`` when that is 0 and ``got`` is not)."""
    out = {}
    for key, value in got.items():
        diff = abs(Fraction(float(value)) - exact[key])
        if not diff:
            out[key] = (0.0, 0.0)
        else:
            out[key] = (float(diff / Fraction(scale[key])),
                        float(diff / abs(exact[key])) if exact[key] else math.inf)
    return out


def weighted_cov(x1, x2, w1, w2, g1: float, g2: float) -> Fraction:
    """The exact weighted covariance ``sum(W1*W2*(x1-g1)*(x2-g2)) / sum(W1*W2)``
    of four equally long windows of doubles at the float averages ``g1`` and
    ``g2``: the oracle's definition, with no rounding."""
    (m1, e1), (m2, e2) = (_dyadic([float(v) for v in x] + [float(g)])
                          for x, g in ((x1, g1), (x2, g2)))
    (u1, f1), (u2, f2) = (_dyadic([float(v) for v in w]) for w in (w1, w2))
    ww = [a * b for a, b in zip(u1, u2)]
    num = sum(w * (a - m1[-1]) * (b - m2[-1]) for w, a, b in zip(ww, m1[:-1], m2[:-1]))
    return _scaled(num, e1 + e2 + f1 + f2) / _scaled(sum(ww), f1 + f2)
