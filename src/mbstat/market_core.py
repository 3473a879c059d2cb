"""Market-based averages, volatilities, correlations, and joint moments.

The central fact this module implements: every trade-weighted correlation of
prices/returns is a closed form over frequency-based moments of trade values,
volumes, and past values.  All three correlation families share one bilinear
shape.  Writing ``W`` for the weight-bearing sequence of a leg (volumes for a
price leg, past values for a return leg) and ``g = mean(C)/mean(W)`` for its
market-based average (VWAP or value-weighted average return):

    corr = [cov(C1,C2) - g1*cov(W1,C2) - g2*cov(C1,W2) + g1*g2*cov(W1,W2)]
           / joint_moment(W1, W2)

Volatilities are the same-leg specialization of the same code path (no
separate formula is evaluated here; the specialized forms are used as
cross-checks in the test suite), so the specialization-chain identities hold
bit-exactly.

Each compensated sum is taken once per report.  A leg's moment table holds
the means of ``C``, ``W`` and its per-tick prices or returns ``x`` and the
joint moments ``W*W``, ``W*C``, ``C*C`` and ``x*x``, from which its market
and frequency variances follow; the pair adds the five cross joint moments
``C1*C2``, ``W1*C2``, ``C1*W2``, ``W1*W2`` and ``x1*x2``.  That is 19 sums
where summing every covariance from scratch took 60, with bit-identical
results: ``x*y == y*x`` holds bit for bit, so ``cov(W,C)`` and ``cov(C,W)``
are one number, and every expression keeps its operand order.

``cov`` throughout is the unnormalized covariance (joint moment minus product
of means).  A Pearson-style normalization is available only on the report
objects, clearly named, and never feeds back into any closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


class _Leg:
    """Moment table of one leg: its values ``C``, weight carrier ``W``,
    per-tick prices or returns ``x``, and its lag or return horizon."""

    __slots__ = ("values", "carrier", "x", "lag", "m_c", "m_w", "m_x", "g",
                 "jm_ww", "jm_wc", "jm_cc", "freq_var")

    def __init__(self, values, carrier, x, lag: int):
        self.values, self.carrier, self.x, self.lag = values, carrier, x, lag
        self.m_c = mean(values)
        self.m_w = mean(carrier)
        self.g = self.m_c / self.m_w
        self.m_x = mean(x)
        self.jm_ww = joint_moment(carrier, carrier)
        self.jm_wc = joint_moment(carrier, values)
        self.jm_cc = joint_moment(values, values)
        self.freq_var = joint_moment(x, x) - self.m_x * self.m_x

    def market_var(self) -> float:
        """The closed form of the leg against itself (its volatility).  Not
        taken in ``__init__``, so that a degenerate cross denominator is
        reported before a degenerate same-leg one."""
        g = self.g
        cov_cc = self.jm_cc - self.m_c * self.m_c
        cov_wc = self.jm_wc - self.m_w * self.m_c  # == cov(C, W) bit for bit
        cov_ww = self.jm_ww - self.m_w * self.m_w
        return (cov_cc - g * cov_wc - g * cov_wc + g * g * cov_ww) / _divisor(self.jm_ww)


def _price_leg(w: Window) -> _Leg:
    return _Leg(w.value, w.volume, w.price, w.lag)


def _return_leg(rv: ReturnView) -> _Leg:
    return _Leg(rv.value, rv.c_past, rv.r, rv.alpha)


def _divisor(denominator: float) -> float:
    if not denominator > DENOM_FLOOR:
        raise DegenerateDenominator(
            f"carrier joint moment {denominator!r} is too small to divide by"
        )
    return denominator


# Per family: how each leg's table is read from its window or return view, and
# the MarketAverages slot its average goes to.
_FAMILY_LEGS = {
    PRICE_FAMILY: (_price_leg, "a1", _price_leg, "a2"),
    RETURN_FAMILY: (_return_leg, "h1", _return_leg, "h2"),
    PRICE_RETURN_FAMILY: (_price_leg, "a1", _return_leg, "h2"),
}


def _report(family: str, src1, src2) -> CorrelationReport:
    """The closed form of a pair and the figures reported beside it.  Past
    the two legs' tables, only the five cross joint moments are summed."""
    if len(src1) != len(src2):
        raise LengthMismatch(f"window lengths differ: {len(src1)} vs {len(src2)}")
    leg_of1, slot1, leg_of2, slot2 = _FAMILY_LEGS[family]
    leg1, leg2 = leg_of1(src1), leg_of2(src2)
    g1, g2 = leg1.g, leg2.g
    denominator = joint_moment(leg1.carrier, leg2.carrier)
    cov_cc = joint_moment(leg1.values, leg2.values) - leg1.m_c * leg2.m_c
    cov_wc = joint_moment(leg1.carrier, leg2.values) - leg1.m_w * leg2.m_c
    cov_cw = joint_moment(leg1.values, leg2.carrier) - leg1.m_c * leg2.m_w
    cov_ww = denominator - leg1.m_w * leg2.m_w
    market = (cov_cc - g1 * cov_wc - g2 * cov_cw + g1 * g2 * cov_ww) / _divisor(denominator)
    frequency = joint_moment(leg1.x, leg2.x) - leg1.m_x * leg2.m_x
    market_var1, market_var2 = leg1.market_var(), leg2.market_var()
    for field, value in (("market_value", market), ("frequency_value", frequency),
                         ("denominator", denominator)):
        if not math.isfinite(value):
            raise ConsistencyError(f"{family}: non-finite {field} {value!r}")
    return CorrelationReport(
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
    return _report(PRICE_FAMILY, w1, w2)


def mb_price_volatility(window: Window) -> float:
    """Market-based price volatility: the zero-lag same-asset correlation."""
    return mb_corr_prices(window, window).market_value


def mb_corr_returns(rv1: ReturnView, rv2: ReturnView) -> CorrelationReport:
    """Market-based correlation of the returns of two legs.

    Both legs are taken at the same tick times; the horizons are the legs'
    own ``alpha``.  Same-series input realizes the return autocorrelation,
    and identical views the return volatility.  The frequency-based return
    covariance is reported alongside.
    """
    return _report(RETURN_FAMILY, rv1, rv2)


def mb_return_volatility(returns: ReturnView) -> float:
    """Market-based return volatility: the equal-horizon same-asset case."""
    return mb_corr_returns(returns, returns).market_value


def mb_corr_price_return(w1: Window, rv2: ReturnView) -> CorrelationReport:
    """Market-based correlation between leg-1 prices and leg-2 returns."""
    return _report(PRICE_RETURN_FAMILY, w1, rv2)


def _joint_moment_both_ways(report: CorrelationReport, values1, values2) -> float:
    """Joint market moment as avg1*avg2 + corr, cross-checked against the
    expanded form assembled from the raw moments.  The two arrangements are
    algebraically identical; disagreement indicates a bug, not bad data."""
    avgs = report.averages
    g1 = avgs.a1 if report.stat_family == PRICE_FAMILY else avgs.h1
    g2 = avgs.a2 if report.stat_family == PRICE_FAMILY else avgs.h2
    combined = g1 * g2 + report.market_value
    cc = joint_moment(values1, values2)
    expanded = (
        cc - g1 * report.cov_wc - g2 * report.cov_cw + 2.0 * g1 * g2 * report.cov_ww
    ) / report.denominator
    scale = max(abs(combined), abs(expanded))
    if scale > 0.0 and abs(combined - expanded) > JOINT_MOMENT_REL_TOL * scale:
        raise ConsistencyError(
            f"joint moment evaluations disagree: {combined!r} vs {expanded!r}"
        )
    return combined


def mb_joint_price_moment(w1: Window, w2: Window) -> float:
    """Market-based second joint moment of the two legs' prices.

    Defined as ``a1*a2 + market correlation``; the expanded evaluation over
    the raw value/volume moments is asserted to agree before returning.
    """
    report = mb_corr_prices(w1, w2)
    return _joint_moment_both_ways(report, w1.value, w2.value)


def mb_joint_return_moment(rv1: ReturnView, rv2: ReturnView) -> float:
    """Market-based second joint moment of the two legs' returns."""
    report = mb_corr_returns(rv1, rv2)
    return _joint_moment_both_ways(report, rv1.value, rv2.value)
