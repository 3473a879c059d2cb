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
floats) and for many (arrays over window positions).  Both kernels, the
per-window functions here and :mod:`mbstat.rolling`, read one moment table:
``FAMILY_LEGS`` names each family's two legs, ``LEG_ARRAYS`` each leg's
value, carrier and per-tick arrays, :func:`sum_specs` the means a leg pair's
closed form reads, and :func:`family_values` turns a closed form into the
family's checked values.  They differ only in how a mean is summed:
``math.fsum`` per window, anchored window sums per block.

Per window, each distinct mean is summed once: 19 for a correlation report or
joint moment, 7 for a volatility, the same-leg specialization of the closed
form.  ``x*y == y*x`` bit for bit, so mirrored products are one sum and the
specialization-chain identities hold bit-exactly.

``cov`` throughout is the unnormalized covariance (joint moment minus product
of means).  A Pearson-style normalization is available only on the report
objects, clearly named, and never feeds back into any closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import attrgetter, itemgetter

import numpy as np

from .errors import (
    ConsistencyError,
    DegenerateDenominator,
    LengthMismatch,
    NonPositiveInvestment,
)
from .freq_stats import mean, spec_means
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

#: The joint moments ``g1*g2 + corr``, each over its correlation's legs.
JOINT_FAMILIES = (JOINT_PRICE_FAMILY, JOINT_RETURN_FAMILY)


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
        require_finite(family, denominator=jm_ww)  # a NaN is not "too small"
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


#: Per leg of ``FAMILY_LEGS``: the names of its value, carrier and per-tick
#: arrays.  Asset 1's trade values ``C1`` serve both its legs.
LEG_ARRAYS = {
    "p1": ("C1", "U1", "p1"),
    "r1": ("C1", "Co1", "r1"),
    "p2": ("C2b", "U2b", "p2b"),
    "r2": ("C2", "Co2", "r2"),
}


@functools.cache
def sum_specs(leg1: str, leg2: str) -> dict[str, tuple[str, str | None]]:
    """The means the closed form of a leg pair reads, as ``(x, y)`` names of
    ``LEG_ARRAYS`` arrays (``y=None`` is a plain mean).  A product's names are
    sorted: ``x*y == y*x`` bit for bit, so mirrored products are one sum.
    Built once per pair and shared, so callers must not change it."""
    (c1, w1, x1), (c2, w2, x2) = LEG_ARRAYS[leg1], LEG_ARRAYS[leg2]
    plain = {"c1": c1, "w1": w1, "c2": c2, "w2": w2, "x1": x1, "x2": x2}
    products = {"cc": (c1, c2), "wc": (w1, c2), "cw": (c1, w2), "ww": (w1, w2), "xx": (x1, x2)}
    return {**{k: (name, None) for k, name in plain.items()},
            **{k: tuple(sorted(pair)) for k, pair in products.items()}}


def family_values(family: str, m, form) -> tuple:
    """A family's market and frequency values from its pair's means ``m``
    (keyed as in :func:`sum_specs`) and closed form ``form``: for a joint
    family the checked joint moment and the raw frequency joint moment.  Both
    values and the denominator must be finite."""
    g1, g2, cov_cc, cov_wc, cov_cw, cov_ww, market = form
    frequency = m["xx"] - m["x1"] * m["x2"]
    if family in JOINT_FAMILIES:
        market = checked_joint_moment(family, g1, g2, market, m["cc"], cov_wc, cov_cw, cov_ww,
                                      m["ww"])
        frequency = m["xx"]
    require_finite(family, market_value=market, frequency_value=frequency, denominator=m["ww"])
    return market, frequency


#: The arrays of a price leg's Window and a return leg's ReturnView, in
#: ``LEG_ARRAYS`` order.
_SOURCE_ARRAYS = {"p": attrgetter("value", "volume", "price"),
                  "r": attrgetter("value", "c_past", "r")}


@functools.cache
def _window_specs(leg1: str, leg2: str) -> tuple[list, list]:
    """The distinct sum specs of a pair and of each leg against itself (one
    table when the legs are one), and per table its keys and a getter of
    their means from the sums of those specs."""
    pairs = dict.fromkeys([(leg1, leg2), (leg1, leg1), (leg2, leg2)])
    tables = [sum_specs(*pair) for pair in pairs]
    distinct = list(dict.fromkeys(spec for table in tables for spec in table.values()))
    return distinct, [(tuple(table), itemgetter(*map(distinct.index, table.values())))
                      for table in tables]


def _closed_forms(family: str, src1, src2) -> list[tuple[dict, tuple]]:
    """The means and closed form of a family's pair, then of each of its legs
    against itself, means keyed as in :func:`sum_specs`.  Each distinct mean
    is summed once: 19 for two legs, 7 for a leg against itself."""
    if len(src1) != len(src2):
        raise LengthMismatch(f"window lengths differ: {len(src1)} vs {len(src2)}")
    arrays = {}
    for leg, src in dict(zip(FAMILY_LEGS[family], (src1, src2))).items():
        arrays.update(zip(LEG_ARRAYS[leg], _SOURCE_ARRAYS[leg[0]](src)))
    distinct, tables = _window_specs(*FAMILY_LEGS[family])
    sums = spec_means(arrays, distinct)
    forms = []
    for keys, get in tables:  # the pair's first: its degenerate moment is reported first
        m = dict(zip(keys, get(sums)))
        forms.append((m, closed_form(family, m["c1"], m["w1"], m["c2"], m["w2"], m["cc"],
                                     m["wc"], m["cw"], m["ww"])))
    return forms


def _volatility(family: str, src) -> float:
    """A leg's closed form against itself, from its one table of 7 means."""
    [(m, form)] = _closed_forms(family, src, src)
    return family_values(family, m, form)[0]


def _report(family: str, src1, src2) -> CorrelationReport:
    """The closed form of a pair, the figures reported beside it, and the
    family's values (a joint family's market value is its joint moment)."""
    (m, form), (m1, form1), (m2, form2) = _closed_forms(family, src1, src2)
    market, frequency = family_values(family, m, form)
    g1, g2, cov_cc, cov_wc, cov_cw, cov_ww, _ = form
    variances = dict(market_var1=form1[-1], market_var2=form2[-1],
                     freq_var1=m1["xx"] - m1["x1"] * m1["x2"],
                     freq_var2=m2["xx"] - m2["x1"] * m2["x2"])
    require_finite(family, **variances)
    slot1, slot2 = average_slots(family)
    leg1, leg2 = FAMILY_LEGS[family]
    return CorrelationReport(
        stat_family=family, market_value=market, frequency_value=frequency,
        averages=MarketAverages(**{slot1: g1, slot2: g2}),
        freq_avg1=m["x1"], freq_avg2=m["x2"], denominator=m["ww"],
        cov_cc=cov_cc, cov_wc=cov_wc, cov_cw=cov_cw, cov_ww=cov_ww, **variances,
        n=len(src1),
        alpha=src1.lag if leg1[0] == "p" else src1.alpha,
        beta=src2.lag if leg2[0] == "p" else src2.alpha,
        asset1=src1.asset_id, asset2=src2.asset_id, t_center=src1.t_center,
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
    return _volatility(PRICE_VOL_FAMILY, window)


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
    return _volatility(RETURN_VOL_FAMILY, returns)


def mb_corr_price_return(w1: Window, rv2: ReturnView) -> CorrelationReport:
    """Market-based correlation between leg-1 prices and leg-2 returns."""
    return _report(PRICE_RETURN_FAMILY, w1, rv2)


def mb_joint_price_moment(w1: Window, w2: Window) -> float:
    """Market-based second joint moment of the two legs' prices.

    Defined as ``a1*a2 + market correlation``; the expanded evaluation over
    the raw value/volume moments is asserted to agree before returning.
    """
    return _report(JOINT_PRICE_FAMILY, w1, w2).market_value


def mb_joint_return_moment(rv1: ReturnView, rv2: ReturnView) -> float:
    """Market-based second joint moment of the two legs' returns."""
    return _report(JOINT_RETURN_FAMILY, rv1, rv2).market_value
