"""Market-based averages, volatilities, correlations, and joint moments.

The central fact this module implements: every trade-weighted correlation of
prices/returns is a closed form over frequency-based moments of trade values,
volumes, and past values.  All three correlation families share one bilinear
shape.  Writing ``W`` for the weight-bearing sequence of a leg (volumes for a
price leg, past values for a return leg) and ``g = mean(C)/mean(W)`` for its
market-based average (VWAP or value-weighted average return):

    corr = [cov(C1,C2) - g1*cov(W1,C2) - g2*cov(C1,W2) + g1*g2*cov(W1,W2)]
           / joint_moment(W1, W2)

:func:`closed_form` is that shape, written once for one window (Python
floats) and for many (arrays over window positions, as :mod:`mbstat.rolling`
calls it); :func:`checked_joint_moment` is the joint moment ``g1*g2 + corr``
checked against its expanded form.  ``FAMILY_LEGS`` names the two legs of
each statistic family; the rolling engine derives its arrays, window sums,
averages slots and lag rules from it.  Volatilities are the same-leg
specialization of the same closed form, so the specialization-chain
identities hold bit-exactly.

Each compensated sum is taken once.  A leg's moment table holds the means of
``C``, ``W`` and its per-tick prices or returns ``x`` and the joint moments
``W*W``, ``W*C``, ``C*C`` and ``x*x``, from which its market and frequency
variances follow: a volatility reads that table alone (7 sums), and a
correlation report or joint moment adds the five cross joint moments
``C1*C2``, ``W1*C2``, ``C1*W2``, ``W1*W2`` and ``x1*x2`` (19 sums, where
summing every covariance from scratch took 60).  The results are
bit-identical: ``x*y == y*x`` holds bit for bit, so ``cov(W,C)`` and
``cov(C,W)`` are one number, and every expression keeps its operand order.

``cov`` throughout is the unnormalized covariance (joint moment minus product
of means).  A Pearson-style normalization is available only on the report
objects, clearly named, and never feeds back into any closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    DegenerateDenominator,
    LengthMismatch,
    NonPositiveInvestment,
)
from .freq_stats import joint_moment, mean
from .trade_series import ReturnView, Window

# Joint-moment denominators are strictly positive for valid trade data; this
# floor only catches pathological underflow before it turns into inf/nan.
DENOM_FLOOR = 1e-300

# Internal agreement required between two algebraically identical evaluations
# of the same joint moment (different arrangement, same compensated moments).
JOINT_MOMENT_REL_TOL = 1e-12

PRICE_FAMILY = "price_corr"
RETURN_FAMILY = "return_corr"
PRICE_RETURN_FAMILY = "price_return_corr"
PRICE_VOL_FAMILY = "price_vol"
RETURN_VOL_FAMILY = "return_vol"
JOINT_PRICE_FAMILY = "joint_price_moment"
JOINT_RETURN_FAMILY = "joint_return_moment"

#: Each family's two legs, in canonical emission order.  A leg is the price
#: (``p``) or return (``r``) leg of asset 1 or 2; a rolling run lags leg-2
#: prices by ``beta`` and takes leg-1 and leg-2 returns over ``alpha`` and
#: ``beta``.  Volatilities pair a leg with itself.
FAMILY_LEGS = {
    PRICE_FAMILY: ("p1", "p2"),
    RETURN_FAMILY: ("r1", "r2"),
    PRICE_RETURN_FAMILY: ("p1", "r2"),
    PRICE_VOL_FAMILY: ("p1", "p1"),
    RETURN_VOL_FAMILY: ("r1", "r1"),
    JOINT_PRICE_FAMILY: ("p1", "p2"),
    JOINT_RETURN_FAMILY: ("r1", "r2"),
}

#: Canonical emission order; reports iterate families in this order.
FAMILIES = tuple(FAMILY_LEGS)


def average_slots(family: str) -> tuple[str, str]:
    """The :class:`MarketAverages` slots a family's two averages fill: ``a``
    (VWAP) for a price leg, ``h`` for a return leg, numbered by place."""
    leg1, leg2 = FAMILY_LEGS[family]
    return ("a" if leg1[0] == "p" else "h") + "1", ("a" if leg2[0] == "p" else "h") + "2"


@dataclass(frozen=True)
class MarketAverages:
    """VWAP (a) and value-weighted average return (h) per leg.

    Slots that do not apply to a report's family are 0.0: a price leg has no
    h, a return leg no a.
    """

    a1: float = 0.0
    a2: float = 0.0
    h1: float = 0.0
    h2: float = 0.0


@dataclass(frozen=True)
class CorrelationReport:
    """Market-based and frequency-based figures for one window pair.

    ``cov_wc`` is the covariance of leg 1's weight carrier against leg 2's
    values; ``cov_cw`` the mirror image; ``cov_ww`` the carrier-carrier
    covariance whose joint moment is the ``denominator``.
    """

    stat_family: str
    market_value: float
    frequency_value: float
    averages: MarketAverages
    freq_avg1: float
    freq_avg2: float
    denominator: float
    cov_cc: float
    cov_wc: float
    cov_cw: float
    cov_ww: float
    market_var1: float
    market_var2: float
    freq_var1: float
    freq_var2: float
    n: int
    alpha: int
    beta: int
    asset1: str
    asset2: str
    t_center: float

    @property
    def market_pearson(self) -> float:
        """Pearson-style normalization of the market-based covariance.

        This is a reporting convenience only; no closed form divides by
        standard deviations.  ``nan`` when either leg has zero variance.
        """
        prod = self.market_var1 * self.market_var2
        if prod <= 0.0:
            return math.nan
        return self.market_value / math.sqrt(prod)

    @property
    def frequency_pearson(self) -> float:
        """Pearson-style normalization of the frequency-based covariance."""
        prod = self.freq_var1 * self.freq_var2
        if prod <= 0.0:
            return math.nan
        return self.frequency_value / math.sqrt(prod)


def _everywhere(cond) -> bool:
    """A comparison over one window (a bool) or over window positions (an
    array) holds throughout.  Plain comparisons keep the one-window path free
    of numpy calls, which cost microseconds each on a Python float."""
    return bool(cond.all()) if isinstance(cond, np.ndarray) else cond


def require_finite(family: str, **fields) -> None:
    """Refuse a non-finite value (a float or an array of them), naming it."""
    for field, value in fields.items():
        if not _everywhere(abs(value) < math.inf):
            bad = float(np.extract(~np.isfinite(value), value)[0])
            raise ConsistencyError(f"{family}: non-finite {field} {bad!r}")


def closed_form(family: str, m_c1, m_w1, m_c2, m_w2, jm_cc, jm_wc, jm_cw, jm_ww):
    """The bilinear closed form from the legs' means of ``C`` and ``W`` and
    their cross joint moments, for one window (floats) or for many (arrays
    over window positions).  Returns ``(g1, g2, cov_cc, cov_wc, cov_cw,
    cov_ww, market)``; the denominator is ``jm_ww``."""
    g1 = m_c1 / m_w1
    g2 = m_c2 / m_w2
    if not _everywhere(jm_ww > DENOM_FLOOR):
        raise DegenerateDenominator(
            f"{family}: carrier joint moment {float(np.min(jm_ww))!r} is too small to divide by"
        )
    cov_cc = jm_cc - m_c1 * m_c2
    cov_wc = jm_wc - m_w1 * m_c2
    cov_cw = jm_cw - m_c1 * m_w2
    cov_ww = jm_ww - m_w1 * m_w2
    market = (cov_cc - g1 * cov_wc - g2 * cov_cw + g1 * g2 * cov_ww) / jm_ww
    return g1, g2, cov_cc, cov_wc, cov_cw, cov_ww, market


def checked_joint_moment(family: str, g1, g2, market, jm_cc, cov_wc, cov_cw, cov_ww, jm_ww):
    """Joint market moment ``g1*g2 + market``, cross-checked against the
    expanded form assembled from the raw moments.  The two arrangements are
    algebraically identical; disagreement indicates a bug, not bad data."""
    combined = g1 * g2 + market
    expanded = (jm_cc - g1 * cov_wc - g2 * cov_cw + 2.0 * g1 * g2 * cov_ww) / jm_ww
    gap = abs(combined - expanded)
    tol = JOINT_MOMENT_REL_TOL
    # Relative to the larger form; a NaN gap (gap != gap) is let through.
    agree = (gap <= tol * abs(combined)) | (gap <= tol * abs(expanded)) | (gap != gap)
    if not _everywhere(agree):
        raise ConsistencyError(f"{family}: joint-moment evaluations disagree")
    return combined


class _Leg:
    """Moment table of one leg: its values ``C``, weight carrier ``W``,
    per-tick prices or returns ``x``, and its lag or return horizon."""

    __slots__ = ("values", "carrier", "x", "lag", "m_c", "m_w", "m_x",
                 "jm_ww", "jm_wc", "jm_cc", "freq_var")

    def __init__(self, values, carrier, x, lag: int):
        self.values, self.carrier, self.x, self.lag = values, carrier, x, lag
        self.m_c = mean(values)
        self.m_w = mean(carrier)
        self.m_x = mean(x)
        self.jm_ww = joint_moment(carrier, carrier)
        self.jm_wc = joint_moment(carrier, values)
        self.jm_cc = joint_moment(values, values)
        self.freq_var = joint_moment(x, x) - self.m_x * self.m_x

    def market_var(self, family: str) -> float:
        """The closed form of the leg against itself (its volatility); ``jm_wc``
        stands for ``jm(C, W)`` too, which is the same number bit for bit."""
        return closed_form(family, self.m_c, self.m_w, self.m_c, self.m_w,
                           self.jm_cc, self.jm_wc, self.jm_wc, self.jm_ww)[-1]


def _price_leg(w: Window) -> _Leg:
    return _Leg(w.value, w.volume, w.price, w.lag)


def _return_leg(rv: ReturnView) -> _Leg:
    return _Leg(rv.value, rv.c_past, rv.r, rv.alpha)


_LEG_READERS = {"p": _price_leg, "r": _return_leg}


def _report(family: str, src1, src2) -> tuple[CorrelationReport, float]:
    """The closed form of a pair, the figures reported beside it, and the
    cross joint moment ``jm(C1, C2)`` the joint moments read.  Past the two
    legs' tables, only the five cross joint moments are summed."""
    if len(src1) != len(src2):
        raise LengthMismatch(f"window lengths differ: {len(src1)} vs {len(src2)}")
    kind1, kind2 = (leg[0] for leg in FAMILY_LEGS[family])
    leg1, leg2 = _LEG_READERS[kind1](src1), _LEG_READERS[kind2](src2)
    denominator = joint_moment(leg1.carrier, leg2.carrier)
    jm_cc = joint_moment(leg1.values, leg2.values)
    g1, g2, cov_cc, cov_wc, cov_cw, cov_ww, market = closed_form(
        family, leg1.m_c, leg1.m_w, leg2.m_c, leg2.m_w, jm_cc,
        joint_moment(leg1.carrier, leg2.values), joint_moment(leg1.values, leg2.carrier),
        denominator,
    )
    frequency = joint_moment(leg1.x, leg2.x) - leg1.m_x * leg2.m_x
    # After the pair's denominator, so a degenerate cross moment is reported first.
    market_var1, market_var2 = leg1.market_var(family), leg2.market_var(family)
    require_finite(family, market_value=market, frequency_value=frequency,
                   denominator=denominator)
    slot1, slot2 = average_slots(family)
    report = CorrelationReport(
        stat_family=family,
        market_value=market,
        frequency_value=frequency,
        averages=MarketAverages(**{slot1: g1, slot2: g2}),
        freq_avg1=leg1.m_x,
        freq_avg2=leg2.m_x,
        denominator=denominator,
        cov_cc=cov_cc,
        cov_wc=cov_wc,
        cov_cw=cov_cw,
        cov_ww=cov_ww,
        market_var1=market_var1,
        market_var2=market_var2,
        freq_var1=leg1.freq_var,
        freq_var2=leg2.freq_var,
        n=len(src1),
        alpha=leg1.lag,
        beta=leg2.lag,
        asset1=src1.asset_id,
        asset2=src2.asset_id,
        t_center=src1.t_center,
    )
    return report, jm_cc


def _volatility(family: str, leg: _Leg) -> float:
    """A leg's closed form against itself, read from its one moment table."""
    market = leg.market_var(family)
    require_finite(family, market_value=market, frequency_value=leg.freq_var,
                   denominator=leg.jm_ww)
    return market


def _joint_moment(family: str, src1, src2) -> float:
    report, jm_cc = _report(family, src1, src2)
    g1, g2 = (getattr(report.averages, slot) for slot in average_slots(family))
    return checked_joint_moment(family, g1, g2, report.market_value, jm_cc, report.cov_wc,
                                report.cov_cw, report.cov_ww, report.denominator)


def vwap(window: Window) -> float:
    """Volume-weighted average price: mean(value) / mean(volume).

    Equals the ratio of total traded value to total traded volume; with
    constant volumes it reduces to the frequency mean price.
    """
    return mean(window.value) / mean(window.volume)


def portfolio_return(r, investments) -> float:
    """Investment-weighted return ``sum(r_i * X_i) / sum(X_i)``."""
    r = [float(v) for v in r]
    x = [float(v) for v in investments]
    if len(r) != len(x):
        raise LengthMismatch(f"returns and investments differ: {len(r)} vs {len(x)}")
    for v in x:
        if not v > 0.0:
            raise NonPositiveInvestment(f"investments must be > 0, got {v}")
    return math.fsum(ri * xi for ri, xi in zip(r, x)) / math.fsum(x)


def vawar(returns: ReturnView) -> float:
    """Value-weighted average return: returns weighted by their past values.

    Identical, term by term, to the portfolio return with the past values as
    the amounts invested; with constant past values it reduces to the
    frequency mean return.
    """
    return portfolio_return(returns.r, returns.c_past)


def mb_corr_prices(w1: Window, w2: Window) -> CorrelationReport:
    """Market-based correlation of the prices of two (possibly lagged) windows.

    The same series with ``w2 = lag_view(w1, beta)`` gives the price
    autocorrelation; ``w2 = w1`` gives the price volatility.  The
    frequency-based price covariance is reported alongside.
    """
    return _report(PRICE_FAMILY, w1, w2)[0]


def mb_price_volatility(window: Window) -> float:
    """Market-based price volatility: the zero-lag same-asset correlation."""
    return _volatility(PRICE_VOL_FAMILY, _price_leg(window))


def mb_corr_returns(rv1: ReturnView, rv2: ReturnView) -> CorrelationReport:
    """Market-based correlation of the returns of two legs.

    Both legs are taken at the same tick times; the horizons are the legs'
    own ``alpha``.  Same-series input realizes the return autocorrelation,
    and identical views the return volatility.  The frequency-based return
    covariance is reported alongside.
    """
    return _report(RETURN_FAMILY, rv1, rv2)[0]


def mb_return_volatility(returns: ReturnView) -> float:
    """Market-based return volatility: the equal-horizon same-asset case."""
    return _volatility(RETURN_VOL_FAMILY, _return_leg(returns))


def mb_corr_price_return(w1: Window, rv2: ReturnView) -> CorrelationReport:
    """Market-based correlation between leg-1 prices and leg-2 returns."""
    return _report(PRICE_RETURN_FAMILY, w1, rv2)[0]


def mb_joint_price_moment(w1: Window, w2: Window) -> float:
    """Market-based second joint moment of the two legs' prices.

    Defined as ``a1*a2 + market correlation``; the expanded evaluation over
    the raw value/volume moments is asserted to agree before returning.
    """
    return _joint_moment(JOINT_PRICE_FAMILY, w1, w2)


def mb_joint_return_moment(rv1: ReturnView, rv2: ReturnView) -> float:
    """Market-based second joint moment of the two legs' returns."""
    return _joint_moment(JOINT_RETURN_FAMILY, rv1, rv2)
