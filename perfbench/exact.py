"""Exact-rational reference for the three market-based correlations.

Shares no arithmetic with mbstat: the pair is read from the CSV text with
``float()``, every double is turned into an exact integer times a power of
two, and each window's closed form is evaluated in Python integers and one
final ``fractions.Fraction``.  With ``C = p*U`` taken exactly (not the
rounded product the program stores) and ``W`` the leg's weight carrier,

    corr = sum((C1 - g1*W1) * (C2 - g2*W2)) / sum(W1*W2),  g = sum(C)/sum(W),

which is the program's closed form with the mean-zero residual terms
cancelled, and the oracle's weighted mean of deviation products.
"""

from __future__ import annotations

import math
from fractions import Fraction

from checks import LAG

PRICE, RETURN, PRICE_RETURN = "price_corr", "return_corr", "price_return_corr"
CORR_FAMILIES = (PRICE, RETURN, PRICE_RETURN)


def read_pair_floats(path: str) -> tuple[list[float], list[float]]:
    """Prices and volumes of a ``t,price,volume`` CSV, by the harness's own reader."""
    prices, volumes = [], []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            _, p, u = line.split(",")
            prices.append(float(p))
            volumes.append(float(u))
    return prices, volumes


def _dyadic(values) -> tuple[list[int], int]:
    """Integers m_i and shift e with values[i] == m_i * 2**e exactly."""
    parts = [math.frexp(v) for v in values]
    e = min(x for _, x in parts) - 53
    return [int(m * 2**53) << (x - 53 - e) for m, x in parts], e


def _products(a, b) -> tuple[list[int], int]:
    (ia, ea), (ib, eb) = _dyadic(a), _dyadic(b)
    return [x * y for x, y in zip(ia, ib)], ea + eb


def exact_corr(c1, w1, c2, w2) -> Fraction:
    """The correlation of dyadic integer legs ``(ints, shift)``, exactly."""
    (c1, ec1), (w1, ew1), (c2, ec2), (w2, ew2) = c1, w1, c2, w2
    p1, q1, p2, q2 = sum(c1), sum(w1), sum(c2), sum(w2)
    s_cc = sum(x * y for x, y in zip(c1, c2))
    s_wc = sum(x * y for x, y in zip(w1, c2))
    s_cw = sum(x * y for x, y in zip(c1, w2))
    s_ww = sum(x * y for x, y in zip(w1, w2))
    # g1 = (p1/q1) * 2**(ec1-ew1); the shifts of g*W equal those of C.
    num = s_cc * q1 * q2 - p1 * s_wc * q2 - p2 * s_cw * q1 + p1 * p2 * s_ww
    value = Fraction(num, q1 * q2 * s_ww)
    shift = ec1 + ec2 - ew1 - ew2
    return value * 2**shift if shift >= 0 else value / 2**-shift


class ExactPair:
    """The pair's raw columns; every workload uses alpha = beta = ``LAG``."""

    def __init__(self, path1: str, path2: str):
        self.p1, self.u1 = read_pair_floats(path1)
        self.p2, self.u2 = read_pair_floats(path2)

    def reference(self, family: str, i1: int, i2: int, n: int) -> Fraction:
        """Exact value for the window whose first ticks are ``i1``/``i2``."""
        p1, u1, p2, u2 = self.p1, self.u1, self.p2, self.u2
        a = b = LAG
        if family == PRICE:  # leg 2 read beta steps back
            lo = i2 - b
            legs = ((p1[i1:i1 + n], u1[i1:i1 + n]), (p2[lo:lo + n], u2[lo:lo + n]))
            carriers = (u1[i1:i1 + n], u2[lo:lo + n])
        elif family == RETURN:
            legs = ((p1[i1:i1 + n], u1[i1:i1 + n]), (p2[i2:i2 + n], u2[i2:i2 + n]))
            carriers = (_products(p1[i1 - a:i1 - a + n], u1[i1:i1 + n]),
                        _products(p2[i2 - b:i2 - b + n], u2[i2:i2 + n]))
        elif family == PRICE_RETURN:
            legs = ((p1[i1:i1 + n], u1[i1:i1 + n]), (p2[i2:i2 + n], u2[i2:i2 + n]))
            carriers = (u1[i1:i1 + n], _products(p2[i2 - b:i2 - b + n], u2[i2:i2 + n]))
        else:
            raise ValueError(f"no exact reference for {family!r}")
        c1, c2 = (_products(p, u) for p, u in legs)
        w1, w2 = (c if isinstance(c, tuple) else _dyadic(c) for c in carriers)
        return exact_corr(c1, w1, c2, w2)


def value_rel_error(value: float, exact: Fraction) -> float:
    """|value - exact| / |exact|, computed exactly then rounded once."""
    return float(abs(Fraction(value) - exact) / abs(exact))


def error_digits(worst: float) -> float:
    """-log10 of the worst relative error; an exact match counts as 2**-53."""
    return -math.log10(max(worst, 2.0**-53))
