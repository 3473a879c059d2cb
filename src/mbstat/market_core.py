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
floats) and for many (arrays over window positions).  One kernel evaluates
it for both paths, the per-window functions here and :mod:`mbstat.rolling`,
in residual form (Chan, Golub & LeVeque 1983): :func:`shifted_means` shifts
each leg by the first window of its span, ``D = C - g0*W`` and ``y = x -
x0``, and takes the means :func:`sum_specs` names with :func:`window_means`,
two per pass: the real and imaginary lanes of one ``complex128`` cumulative
sum, each bit for bit its own float64 sum; :func:`pair_forms` runs the
closed form on them, which gives ``g - g0`` and the same market value, and
reassembles ``g`` and the reported covariances; :func:`family_values`
checks a family's values.  A per-window function is a one-position run over
the window's own arrays, two-pass: 19 window sums in 10 passes for a
correlation report or joint moment, 7 in 4 for a volatility.  ``x*y ==
y*x`` bit for bit, so mirrored products are one sum and the
specialization-chain identities hold bit-exactly.

``cov`` throughout is the unnormalized covariance (joint moment minus product
of means).  A Pearson-style normalization is available only on the report
objects, clearly named, and never feeds back into any closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    DegenerateDenominator,
    EmptyInput,
    LengthMismatch,
    NonPositiveInvestment,
)
from .freq_stats import _finite, _fsum, _products, mean
from .trade_series import ReturnView, Window

# Joint-moment denominators are strictly positive for valid trade data; this
# floor only catches pathological underflow before it turns into inf/nan.
DENOM_FLOOR = 1e-300

# Internal agreement required between two algebraically identical evaluations
# of the same joint moment (different arrangement, same compensated moments).
JOINT_MOMENT_REL_TOL = 1e-12

# The shortest segment :func:`window_means` sums before its cumulative sum:
# below 4 ticks a row reduction costs more than the cumulative sum it saves.
_MIN_SEGMENT = 4

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
    """Refuse a non-finite value (a float or an array of them), naming it.  An
    array is read once; a float is compared, so that one window makes no
    numpy call here."""
    for field, value in fields.items():
        if isinstance(value, np.ndarray):
            finite = bool(np.isfinite(value).all())
        else:
            finite = abs(value) < math.inf
        if not finite:
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


@functools.cache
def sum_specs(leg1: str, leg2: str) -> dict[str, tuple[str, str | None]]:
    """The means the closed form of a leg pair reads: per leg ``d``, ``w`` and
    ``y`` (of its arrays ``D``, ``W`` and ``y``, see :func:`shifted_means`)
    and their cross products, as ``(x, y)`` array names (``y=None`` is a plain
    mean).  A product's names are sorted: ``x*y == y*x`` bit for bit, so
    mirrored products are one sum.  Shared, so callers must not change it."""
    (d1, w1, y1), (d2, w2, y2) = ((f"D{leg}", f"W{leg}", f"y{leg}") for leg in (leg1, leg2))
    plain = {"d1": d1, "w1": w1, "y1": y1, "d2": d2, "w2": w2, "y2": y2}
    products = {"dd": (d1, d2), "wd": (w1, d2), "dw": (d1, w2), "ww": (w1, w2), "yy": (y1, y2)}
    return {**{k: (name, None) for k, name in plain.items()},
            **{k: tuple(sorted(pair)) for k, pair in products.items()}}


def window_means(terms, k: int, stride: int, n: int, buf: np.ndarray) -> list[np.ndarray]:
    """Means over the ``k`` windows ``[j*stride, j*stride + n)`` of one or two
    terms, each ``(x, None)`` for ``x`` or ``(x, y)`` for ``x*y``, ``x`` being
    their span: one fresh array per term, both summed in one pass.  The terms
    fill the real and imaginary lanes of ``buf``, a ``complex128`` array as
    long as the span (overwritten); a lone term's partner lane is zeros.
    Complex addition and subtraction are one IEEE operation per lane, so one
    cumulative sum and one strided difference serve both lanes and give each
    the bits of its own float64 sum.  Each window is a run of whole segments
    of ``g = gcd(n, stride)`` ticks.  From ``g = 4`` on, the segments are
    summed first, one row reduction each into the lane (a product needs no
    span-long temporary), and the windows are read from the segment sums at
    window ``n/g`` and stride ``stride/g``; below it a segment is a tick.
    Each lane's first window is summed in full, the others are the difference
    of two strided slices of the cumulative sum; a one-segment window is its
    segment's sum, so a one-tick covariance is exactly 0.  Each lane is
    divided by ``n`` on its own, as a complex-by-real division is not one
    operation per lane."""
    g = math.gcd(n, stride)
    if g < _MIN_SEGMENT:
        g = 1
    seg = buf[: len(terms[0][0]) // g]
    lanes = seg.real, seg.imag
    if len(terms) == 1:
        lanes[1][:] = 0.0
    for lane, (x, y) in zip(lanes, terms):
        if g == 1 and y is None:
            np.copyto(lane, x)
        elif g == 1:
            np.multiply(x, y, out=lane)
        elif y is None:
            np.einsum("ij->i", x.reshape(-1, g), out=lane)
        else:
            np.einsum("ij,ij->i", x.reshape(-1, g), y.reshape(-1, g), out=lane)
    step, m = stride // g, n // g
    if m == 1:
        sums = seg[::step]
    else:
        first = [np.add.reduce(lane[:m]) for lane in lanes[: len(terms)]]
        if k == 1:
            return [np.array([s / n]) for s in first]
        sums = np.empty(k, np.complex128)
        sums[0] = complex(*first)
        c = np.cumsum(seg, out=seg)
        np.subtract(c[step + m - 1 :: step], c[step - 1 :: step][: k - 1], out=sums[1:])
    return [np.divide(lane, n) for lane in (sums.real, sums.imag)[: len(terms)]]


def shifted_means(legs: dict, pairs, k: int, stride: int, n: int) -> tuple[dict, dict]:
    """The sums of the one kernel of both paths.  ``legs`` maps a leg to its
    ``(C, W, x)`` over a span of ``k`` windows ``[j*stride, j*stride + n)``,
    shifted by the first: ``D = C - g0*W`` with ``g0 = sum(C)/sum(W)``, and
    ``y = x - mean(x)``.  Returns the means the closed forms of ``pairs`` read,
    keyed by :func:`sum_specs` spec, and per leg its shift ``(g0, x0)``.  The
    distinct specs are taken two to a :func:`window_means` pass, in order; an
    odd last one rides alone.  Warnings are the caller's to silence: the
    checks name a non-finite figure."""
    arrays, shifts = {}, {}
    for leg, (c, w, x) in legs.items():
        g0 = np.add.reduce(c[:n]) / np.add.reduce(w[:n])
        x0 = np.add.reduce(x[:n]) / n
        shifts[leg] = g0, x0
        arrays[f"D{leg}"], arrays[f"W{leg}"], arrays[f"y{leg}"] = c - g0 * w, w, x - x0
    buf = np.empty((k - 1) * stride + n, np.complex128)
    specs = list(dict.fromkeys(spec for pair in pairs for spec in sum_specs(*pair).values()))
    means = {}
    for i in range(0, len(specs), 2):
        lane_specs = specs[i : i + 2]
        terms = [(arrays[a], b and arrays[b]) for a, b in lane_specs]
        means.update(zip(lane_specs, window_means(terms, k, stride, n, buf)))
    return means, shifts


def pair_forms(means: dict, shifts: dict, pairs: dict):
    """The closed forms of the one kernel.  Per pair of ``pairs`` (mapped to
    the family its errors name), :func:`closed_form` over the shifted means
    gives ``g - g0`` and the market value; ``g`` and the covariances of ``C``
    and ``W`` are reassembled.  Yields, pair by pair so that a caller can
    check a family before the next form runs, the pair's means (plus the
    shifts ``x1``, ``x2``) and form.  A leg's average is one array across the
    pairs, and a leg paired with itself has one array for both cross
    covariances."""
    averages = {}
    for (leg1, leg2), family in pairs.items():
        m = {key: means[spec] for key, spec in sum_specs(leg1, leg2).items()}
        (g01, m["x1"]), (g02, m["x2"]) = shifts[leg1], shifts[leg2]
        d1, d2, cov_dd, cov_wd, cov_dw, cov_ww, market = closed_form(
            family, m["d1"], m["w1"], m["d2"], m["w2"], m["dd"], m["wd"], m["dw"], m["ww"])
        cov_wc = cov_wd + g02 * cov_ww
        cov_cw = cov_wc if leg1 == leg2 else cov_dw + g01 * cov_ww
        cov_cc = cov_dd + g02 * cov_dw + g01 * cov_wc
        yield m, (averages.setdefault(leg1, g01 + d1), averages.setdefault(leg2, g02 + d2),
                  cov_cc, cov_wc, cov_cw, cov_ww, market)


def family_values(family: str, m, form) -> tuple:
    """A family's market and frequency values from its pair's means ``m`` and
    closed form ``form`` (as :func:`pair_forms` returns them): for a joint
    family the checked joint moment and the frequency joint moment, both
    reassembled from the shifted sums.  Both values and the denominator must
    be finite."""
    g1, g2, cov_cc, cov_wc, cov_cw, cov_ww, market = form
    frequency = m["yy"] - m["y1"] * m["y2"]
    if family in JOINT_FAMILIES:
        jm_cc = cov_cc + g1 * m["w1"] * (g2 * m["w2"])
        market = checked_joint_moment(family, g1, g2, market, jm_cc, cov_wc, cov_cw, cov_ww,
                                      m["ww"])
        frequency = frequency + (m["x1"] + m["y1"]) * (m["x2"] + m["y2"])
    require_finite(family, market_value=market, frequency_value=frequency, denominator=m["ww"])
    return market, frequency


def _forms(family: str, src1, src2) -> list[tuple[dict, tuple]]:
    """The means and closed form of a family's pair, then of each of its legs
    against itself (one pair for a volatility), from the kernel run over the
    window, the closed forms on Python floats.  The shift is the window's
    own, so ``g - g0`` is 0 up to rounding and the form is two-pass."""
    if len(src1) != len(src2):
        raise LengthMismatch(f"window lengths differ: {len(src1)} vs {len(src2)}")
    legs = {leg: (src.value, src.volume, src.price) if leg[0] == "p" else
            (src.value, src.c_past, src.r) for leg, src in zip(FAMILY_LEGS[family], (src1, src2))}
    pairs = dict.fromkeys([FAMILY_LEGS[family], *((leg, leg) for leg in legs)], family)
    with np.errstate(all="ignore"):  # a non-finite figure is refused by name
        means, shifts = shifted_means(legs, pairs, 1, 1, len(src1))
    means = {spec: mean.item() for spec, mean in means.items()}
    shifts = {leg: (float(g0), float(x0)) for leg, (g0, x0) in shifts.items()}
    return list(pair_forms(means, shifts, pairs))


def _volatility(family: str, src) -> float:
    """A leg's closed form against itself, from its one table of 7 means."""
    [(m, form)] = _forms(family, src, src)
    return family_values(family, m, form)[0]


def _report(family: str, src1, src2) -> CorrelationReport:
    """The closed form of a pair, the figures reported beside it, and the
    family's values (a joint family's market value is its joint moment)."""
    (m, form), (m1, form1), (m2, form2) = _forms(family, src1, src2)
    market, frequency = family_values(family, m, form)
    g1, g2, cov_cc, cov_wc, cov_cw, cov_ww, _ = form
    variances = dict(market_var1=form1[-1], market_var2=form2[-1],
                     freq_var1=m1["yy"] - m1["y1"] * m1["y2"],
                     freq_var2=m2["yy"] - m2["y1"] * m2["y2"])
    require_finite(family, **variances)
    slot1, slot2 = average_slots(family)
    leg1, leg2 = FAMILY_LEGS[family]
    return CorrelationReport(
        stat_family=family, market_value=market, frequency_value=frequency,
        averages=MarketAverages(**{slot1: g1, slot2: g2}),
        freq_avg1=m["x1"] + m["y1"], freq_avg2=m["x2"] + m["y2"], denominator=m["ww"],
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
    r = np.asarray(r, dtype=np.float64)
    x = np.asarray(investments, dtype=np.float64)
    if len(r) != len(x):
        raise LengthMismatch(f"returns and investments differ: {len(r)} vs {len(x)}")
    if not len(x):
        raise EmptyInput("a portfolio return needs at least one investment")
    bad = ~((x > 0.0) & (x < math.inf))  # also NaN
    if bad.any():
        v = float(x[np.argmax(bad)])
        raise NonPositiveInvestment(f"investments must be finite and > 0, got {v}")
    return _fsum(_products(_finite(r, "return"), x)) / _fsum(x)


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
