import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import return_view_pairs, trade_windows, window_pairs
from direct import legs, returns_of
from mbstat import (
    CorrelationReport,
    FAMILIES,
    MarketAverages,
    Window,
    compute_returns,
    cov,
    joint_moment,
    lag_view,
    make_series,
    mb_corr_price_return,
    mb_corr_prices,
    mb_corr_returns,
    mb_joint_price_moment,
    mb_joint_return_moment,
    mb_price_volatility,
    mb_return_volatility,
    mean,
    moments,
    oracle_corr,
    portfolio_return,
    vawar,
    vwap,
)
from mbstat.errors import (
    ConsistencyError,
    DegenerateDenominator,
    LengthMismatch,
    NonPositiveInvestment,
)
from mbstat.market_core import DENOM_FLOOR, JOINT_MOMENT_REL_TOL, closed_form
from mbstat.oracle import relative_deviation


def constant_past_value_view(prices, k, alpha=1):
    """Series whose volumes make every past value equal k."""
    n = len(prices)
    volumes = [k / prices[max(0, i - alpha)] for i in range(n)]
    s = make_series("cpv", np.arange(n), prices, volumes)
    return compute_returns(Window(s, alpha, n - alpha), alpha)


class TestVwap:
    def test_worked(self):
        s = make_series("a", [0, 1, 2], [2, 4, 3], [1, 2, 1])
        assert vwap(Window(s, 0, 3)) == 3.25

    def test_equal_volumes_reduce_to_frequency_mean(self):
        s = make_series("a", [0, 1], [1, 3], [2, 2])
        assert vwap(Window(s, 0, 2)) == 2.0

    def test_constant_price(self):
        s = make_series("a", [0, 1, 2], [5, 5, 5], [1, 7, 2])
        assert vwap(Window(s, 0, 3)) == 5.0

    @given(trade_windows(min_n=1, max_n=24))
    def test_equals_mean_ratio_exactly_and_sum_ratio_closely(self, w):
        a = vwap(w)
        assert a == mean(w.value) / mean(w.volume)
        sum_ratio = math.fsum(w.value) / math.fsum(w.volume)
        assert a == pytest.approx(sum_ratio, rel=1e-15)


class TestVawarAndPortfolio:
    def test_worked(self, worked_returns):
        assert vawar(worked_returns) == 10 / 11

    def test_constant_past_value_reduces_to_frequency_mean(self):
        rv = constant_past_value_view([1, 2, 4, 2], k=3.0)
        assert list(rv.r) == [2.0, 2.0, 0.5]
        assert vawar(rv) == pytest.approx(1.5, rel=1e-14)

    def test_constant_return(self):
        s = make_series("a", np.arange(4), [1, 2, 4, 8], [1, 3, 2, 1])
        rv = compute_returns(Window(s, 1, 3), 1)
        assert vawar(rv) == 2.0

    def test_portfolio_equal_weights(self):
        assert portfolio_return([2, 2, 0.5], [3, 3, 3]) == 1.5

    def test_portfolio_worked(self):
        assert portfolio_return([2, 2, 0.5], [1, 2, 8]) == 10 / 11

    def test_portfolio_single_asset(self):
        assert portfolio_return([1.25], [7.0]) == 1.25

    def test_portfolio_rejects_nonpositive(self):
        with pytest.raises(NonPositiveInvestment):
            portfolio_return([1.0, 2.0], [1.0, 0.0])

    def test_portfolio_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            portfolio_return([1.0, 2.0], [1.0])

    @given(return_view_pairs(min_n=2, max_n=24))
    def test_vawar_is_portfolio_return_exactly(self, pair):
        rv, _ = pair
        assert vawar(rv) == portfolio_return(rv.r, rv.c_past)


class TestPriceCorrelation:
    def test_worked_instance(self, worked_price_pair):
        w1, w2 = worked_price_pair
        rep = mb_corr_prices(w1, w2)
        direct = oracle_corr(
            "price_price", w1.price, w2.price, w1.volume, w2.volume,
            rep.averages.a1, rep.averages.a2,
        )
        scale = rep.averages.a1 * rep.averages.a2
        assert relative_deviation(rep.market_value, direct, scale) <= 1e-12
        assert rep.market_value == pytest.approx(0.375, rel=1e-12)
        assert rep.averages.a1 == pytest.approx(3.25, rel=1e-14)
        assert rep.averages.a2 == pytest.approx(1.5, rel=1e-14)
        assert rep.denominator == pytest.approx(5 / 3, rel=1e-14)
        assert rep.cov_cw == pytest.approx(-7 / 9, rel=1e-13)
        assert rep.frequency_value == pytest.approx(
            cov(w1.price, w2.price), rel=1e-15
        )

    def test_constant_volumes_reduce_to_frequency(self):
        s1 = make_series("a", np.arange(3), [2, 4, 3], [5, 5, 5])
        s2 = make_series("b", np.arange(3), [1, 2, 2], [2, 2, 2])
        rep = mb_corr_prices(Window(s1, 0, 3), Window(s2, 0, 3))
        assert abs(rep.market_value - rep.frequency_value) <= 1e-12 * max(
            1.0, abs(rep.frequency_value)
        )

    def test_single_tick_is_zero(self):
        s1 = make_series("a", [0], [2.5], [1.5])
        s2 = make_series("b", [0], [1.5], [4.0])
        rep = mb_corr_prices(Window(s1, 0, 1), Window(s2, 0, 1))
        assert rep.market_value == 0.0

    def test_length_mismatch(self):
        s1 = make_series("a", np.arange(3), [2, 4, 3], [1, 2, 1])
        s2 = make_series("b", np.arange(2), [1, 2], [2, 1])
        with pytest.raises(LengthMismatch):
            mb_corr_prices(Window(s1, 0, 3), Window(s2, 0, 2))

    def test_lagged_autocorrelation_runs(self):
        s = make_series("a", np.arange(6), [2, 4, 3, 5, 4, 6], [1, 2, 1, 3, 2, 1])
        w = Window(s, 2, 4)
        rep = mb_corr_prices(w, lag_view(w, 2))
        assert math.isfinite(rep.market_value)
        assert rep.beta == 2

    @given(window_pairs(min_n=2, max_n=24), st.sampled_from([0.5, 2.0, 8.0]))
    def test_volume_scale_covariance_exact_for_pow2(self, pair, lam):
        w1, w2 = pair
        rep = mb_corr_prices(w1, w2)
        scaled = make_series(
            "scaled", w1.series.t, w1.series.price, lam * w1.series.volume
        )
        rep2 = mb_corr_prices(Window(scaled, 0, w1.count), w2)
        assert rep2.market_value == rep.market_value

    @given(window_pairs(min_n=2, max_n=24), st.floats(min_value=0.1, max_value=30.0))
    def test_volume_scale_covariance(self, pair, lam):
        w1, w2 = pair
        rep = mb_corr_prices(w1, w2)
        scaled = make_series(
            "scaled", w1.series.t, w1.series.price, lam * w1.series.volume
        )
        rep2 = mb_corr_prices(Window(scaled, 0, w1.count), w2)
        scale = abs(rep.averages.a1 * rep.averages.a2)
        assert relative_deviation(rep2.market_value, rep.market_value, scale) <= 1e-12


class TestPriceVolatility:
    def test_worked(self, vol_window):
        assert mb_price_volatility(vol_window) == pytest.approx(0.45, rel=1e-12)

    def test_constant_price(self):
        s = make_series("a", np.arange(3), [2, 2, 2], [1, 5, 2])
        assert abs(mb_price_volatility(Window(s, 0, 3))) <= 1e-15

    def test_constant_volume_reduces_to_frequency_variance(self):
        s = make_series("a", [0, 1], [1, 3], [1, 1])
        w = Window(s, 0, 2)
        assert mb_price_volatility(w) == pytest.approx(1.0, rel=1e-13)
        assert mb_price_volatility(w) == pytest.approx(
            moments(w.price).variance, rel=1e-13
        )

    def test_specialization_is_exact(self, vol_window):
        rep = mb_corr_prices(vol_window, vol_window)
        assert mb_price_volatility(vol_window) == rep.market_value
        assert rep.market_var1 == rep.market_value

    def test_matches_direct_formula(self, vol_window):
        w = vol_window
        a = vwap(w)
        omega_c = moments(w.value).variance
        omega_u = moments(w.volume).variance
        u_second = moments(w.volume).second_moment
        direct = (omega_c - 2 * a * cov(w.value, w.volume) + a * a * omega_u) / u_second
        assert relative_deviation(mb_price_volatility(w), direct, a * a) <= 1e-12

    @given(trade_windows(min_n=1, max_n=32))
    def test_nonnegative(self, w):
        vol = mb_price_volatility(w)
        scale = moments(w.price).second_moment
        assert vol >= -1e-12 * scale


class TestReturnCorrelation:
    def test_same_series_equals_volatility_exactly(self, worked_returns):
        rv = worked_returns
        rep = mb_corr_returns(rv, rv)
        assert rep.market_value == mb_return_volatility(rv)
        assert rep.market_value == pytest.approx(672 / 2783, rel=1e-12)
        assert rep.averages.h1 == pytest.approx(10 / 11, rel=1e-14)

    def test_constant_past_values_reduce_to_frequency(self):
        rv1 = constant_past_value_view([1.0, 2.0, 4.0, 2.0, 3.0], k=2.0)
        rv2 = constant_past_value_view([2.0, 1.0, 3.0, 4.0, 2.0], k=5.0)
        rep = mb_corr_returns(rv1, rv2)
        assert abs(rep.market_value - rep.frequency_value) <= 1e-12 * max(
            1.0, abs(rep.frequency_value)
        )

    def test_constant_returns_give_zero(self):
        s1 = make_series("a", np.arange(4), [1, 2, 4, 8], [1, 3, 2, 1])
        s2 = make_series("b", np.arange(4), [1, 2, 1, 3], [2, 1, 1, 2])
        rv1 = returns_of(s1, 1, 3, 1)
        rv2 = returns_of(s2, 1, 3, 1)
        rep = mb_corr_returns(rv1, rv2)
        assert abs(rep.market_value) <= 1e-14

    def test_length_mismatch(self, worked_returns):
        s2 = make_series("b", np.arange(3), [1, 2, 1], [2, 1, 1])
        rv2 = returns_of(s2, 1, 2, 1)
        with pytest.raises(LengthMismatch):
            mb_corr_returns(worked_returns, rv2)


class TestReturnVolatility:
    def test_worked(self, worked_returns):
        rv = worked_returns
        direct = oracle_corr(
            "return_return", rv.r, rv.r, rv.c_past, rv.c_past, 10 / 11, 10 / 11
        )
        vol = mb_return_volatility(rv)
        assert relative_deviation(vol, direct, (10 / 11) ** 2) <= 1e-12

    def test_matches_direct_formula(self, worked_returns):
        rv = worked_returns
        h = mean(rv.value) / mean(rv.c_past)
        omega_c = moments(rv.value).variance
        phi = moments(rv.c_past).variance
        co_second = moments(rv.c_past).second_moment
        direct = (omega_c + h * h * phi - 2 * h * cov(rv.value, rv.c_past)) / co_second
        assert relative_deviation(mb_return_volatility(rv), direct, h * h) <= 1e-12

    def test_constant_return(self):
        s = make_series("a", np.arange(4), [1, 2, 4, 8], [1, 3, 2, 1])
        rv = compute_returns(Window(s, 1, 3), 1)
        assert abs(mb_return_volatility(rv)) <= 1e-14

    def test_constant_past_value_reduces_to_frequency_variance(self):
        rv = constant_past_value_view([1, 2, 4, 2], k=1.0)
        assert list(rv.r) == [2.0, 2.0, 0.5]
        assert mb_return_volatility(rv) == pytest.approx(0.5, rel=1e-12)

    @given(return_view_pairs(min_n=2, max_n=24))
    def test_nonnegative(self, pair):
        rv, _ = pair
        vol = mb_return_volatility(rv)
        scale = joint_moment(rv.r, rv.r)
        assert vol >= -1e-12 * scale


class TestPriceReturnCorrelation:
    def test_degenerate_worked_instance(self):
        s1 = make_series("a", [0, 1], [2, 4], [1, 1])
        rv2 = constant_past_value_view([1.0, 2.0, 1.0], k=1.0)
        # leg 2 has two usable ticks with r = [2, 0.5] and constant past value
        w1 = Window(s1, 0, 2)
        rep = mb_corr_price_return(w1, rv2)
        assert rep.market_value == pytest.approx(-0.75, rel=1e-13)
        assert rep.frequency_value == pytest.approx(-0.75, rel=1e-13)

    def test_constant_price_gives_zero(self):
        s1 = make_series("a", np.arange(3), [2, 2, 2], [1, 3, 2])
        s2 = make_series("b", np.arange(4), [1, 2, 1, 3], [2, 1, 1, 2])
        rv2 = returns_of(s2, 1, 3, 1)
        rep = mb_corr_price_return(Window(s1, 0, 3), rv2)
        assert abs(rep.market_value) <= 1e-14

    def test_constant_return_gives_zero(self):
        s1 = make_series("a", np.arange(3), [2, 5, 3], [1, 3, 2])
        s2 = make_series("b", np.arange(4), [1, 2, 4, 8], [2, 1, 1, 2])
        rv2 = returns_of(s2, 1, 3, 1)
        rep = mb_corr_price_return(Window(s1, 0, 3), rv2)
        assert abs(rep.market_value) <= 1e-14

    def test_length_mismatch(self, worked_returns):
        s1 = make_series("a", [0, 1], [2, 4], [1, 1])
        with pytest.raises(LengthMismatch):
            mb_corr_price_return(Window(s1, 0, 2), worked_returns)


class TestJointMoments:
    def test_price_worked(self, worked_price_pair):
        w1, w2 = worked_price_pair
        value = mb_joint_price_moment(w1, w2)
        assert value == pytest.approx(5.25, rel=1e-12)
        rep = mb_corr_prices(w1, w2)
        assert value == rep.averages.a1 * rep.averages.a2 + rep.market_value

    def test_price_expansion_agrees(self, worked_price_pair):
        w1, w2 = worked_price_pair
        rep = mb_corr_prices(w1, w2)
        expanded = (
            joint_moment(w1.value, w2.value)
            - rep.averages.a1 * rep.cov_wc
            - rep.averages.a2 * rep.cov_cw
            + 2 * rep.averages.a1 * rep.averages.a2 * rep.cov_ww
        ) / rep.denominator
        value = mb_joint_price_moment(w1, w2)
        assert relative_deviation(value, expanded, abs(value)) <= 1e-12

    def test_same_asset_zero_lag(self, vol_window):
        w = vol_window
        value = mb_joint_price_moment(w, w)
        assert value == pytest.approx(6.7, rel=1e-12)
        assert value == pytest.approx(
            vwap(w) ** 2 + mb_price_volatility(w), rel=1e-12
        )
        # second-moment form over the raw volume moments
        a = vwap(w)
        direct = (
            moments(w.value).second_moment
            + 2 * a * a * moments(w.volume).variance
            - 2 * a * cov(w.value, w.volume)
        ) / moments(w.volume).second_moment
        assert relative_deviation(value, direct, abs(value)) <= 1e-12

    def test_constant_price(self):
        s = make_series("a", np.arange(3), [4, 4, 4], [1, 3, 2])
        w = Window(s, 0, 3)
        assert mb_joint_price_moment(w, w) == pytest.approx(16.0, rel=1e-13)

    def test_return_worked(self, worked_returns):
        rv = worked_returns
        value = mb_joint_return_moment(rv, rv)
        expect = (10 / 11) ** 2 + 672 / 2783
        assert value == pytest.approx(expect, rel=1e-12)
        h = vawar(rv)
        assert value == pytest.approx(h * h + mb_return_volatility(rv), rel=1e-12)

    def test_return_same_asset_second_moment_form(self, worked_returns):
        rv = worked_returns
        h = mean(rv.value) / mean(rv.c_past)
        direct = (
            moments(rv.value).second_moment
            + 2 * h * h * moments(rv.c_past).variance
            - 2 * h * cov(rv.value, rv.c_past)
        ) / moments(rv.c_past).second_moment
        value = mb_joint_return_moment(rv, rv)
        assert relative_deviation(value, direct, abs(value)) <= 1e-12

    def test_constant_returns(self):
        s = make_series("a", np.arange(4), [1, 2, 4, 8], [1, 3, 2, 1])
        rv = compute_returns(Window(s, 1, 3), 1)
        assert mb_joint_return_moment(rv, rv) == pytest.approx(4.0, rel=1e-13)

    def test_constant_past_value_reduces_to_frequency_second_moment(self):
        rv = constant_past_value_view([1, 2, 4, 2], k=1.0)
        value = mb_joint_return_moment(rv, rv)
        assert value == pytest.approx((4 + 4 + 0.25) / 3, rel=1e-12)


class TestOracleEquivalence:
    """The module's central property: each closed form equals the direct
    weighted expectation of the deviation product."""

    @settings(max_examples=60)
    @given(window_pairs(min_n=2, max_n=32))
    def test_price_family(self, pair):
        w1, w2 = pair
        rep = mb_corr_prices(w1, w2)
        direct = oracle_corr(
            "price_price", w1.price, w2.price, w1.volume, w2.volume,
            rep.averages.a1, rep.averages.a2,
        )
        scale = abs(rep.averages.a1 * rep.averages.a2)
        assert relative_deviation(rep.market_value, direct, scale) <= 1e-9

    @settings(max_examples=60)
    @given(return_view_pairs(min_n=2, max_n=32))
    def test_return_family(self, pair):
        rv1, rv2 = pair
        rep = mb_corr_returns(rv1, rv2)
        direct = oracle_corr(
            "return_return", rv1.r, rv2.r, rv1.c_past, rv2.c_past,
            rep.averages.h1, rep.averages.h2,
        )
        scale = abs(rep.averages.h1 * rep.averages.h2)
        assert relative_deviation(rep.market_value, direct, scale) <= 1e-9

    @settings(max_examples=60)
    @given(return_view_pairs(min_n=2, max_n=32), st.data())
    def test_price_return_family(self, pair, data):
        _, rv2 = pair
        n = len(rv2)
        prices = data.draw(
            st.lists(
                st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
        volumes = data.draw(
            st.lists(
                st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
        w1 = Window(make_series("a", np.arange(n), prices, volumes), 0, n)
        rep = mb_corr_price_return(w1, rv2)
        direct = oracle_corr(
            "price_return", w1.price, rv2.r, w1.volume, rv2.c_past,
            rep.averages.a1, rep.averages.h2,
        )
        scale = abs(rep.averages.a1 * rep.averages.h2)
        assert relative_deviation(rep.market_value, direct, scale) <= 1e-9


class TestReportExtras:
    def test_pearson_labels(self, worked_price_pair):
        w1, w2 = worked_price_pair
        rep = mb_corr_prices(w1, w2)
        expect_market = rep.market_value / math.sqrt(rep.market_var1 * rep.market_var2)
        expect_freq = rep.frequency_value / math.sqrt(rep.freq_var1 * rep.freq_var2)
        assert rep.market_pearson == pytest.approx(expect_market, rel=1e-14)
        assert rep.frequency_pearson == pytest.approx(expect_freq, rel=1e-14)

    def test_pearson_nan_on_constant_leg(self):
        s1 = make_series("a", np.arange(2), [2, 2], [1, 3])
        s2 = make_series("b", np.arange(2), [1, 3], [1, 1])
        rep = mb_corr_prices(Window(s1, 0, 2), Window(s2, 0, 2))
        assert math.isnan(rep.market_pearson)

    def test_metadata(self, worked_price_pair):
        w1, w2 = worked_price_pair
        rep = mb_corr_prices(w1, lag_view(w2, 0))
        assert rep.n == 3
        assert (rep.asset1, rep.asset2) == ("asset1", "asset2")
        assert rep.t_center == 1.0
        assert rep.stat_family == "price_corr"


def test_degenerate_denominator_guard():
    tiny = 1e-200
    s1 = make_series("a", np.arange(2), [1.0, 2.0], [tiny, tiny])
    s2 = make_series("b", np.arange(2), [1.0, 2.0], [tiny, tiny])
    with pytest.raises(DegenerateDenominator):
        mb_corr_prices(Window(s1, 0, 2), Window(s2, 0, 2))


@pytest.mark.parametrize("jm_ww", [math.nan, np.array([1.0, math.nan, 1e-310])],
                         ids=["float", "array"])
def test_nan_denominator_is_non_finite_not_too_small(jm_ww):
    # A NaN from overflowed sums (inf - inf) fails the floor check too; it
    # is named as non-finite, not as a degenerate denominator.
    with pytest.raises(ConsistencyError, match=r"^price_corr: non-finite denominator nan$"):
        closed_form("price_corr", 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, jm_ww)


@pytest.mark.parametrize("prices2, volumes2, shown", [
    ([1.0, 1.0, 1.0], [1e200, 2e200, 1e200], "nan"),  # the leg's carrier products overflow
    ([1e200, 2e200, 1e200], [1e-150, 2e-150, 1e-150], "inf"),  # its prices square to inf
])
def test_non_finite_leg_variance_is_refused(prices2, volumes2, shown):
    # The pair's own figures are finite; the second leg's variance is not.
    s1 = make_series("a", np.arange(3), [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    s2 = make_series("b", np.arange(3), prices2, volumes2)
    with pytest.raises(ConsistencyError, match=rf"^price_corr: non-finite market_var2 {shown}$"):
        mb_corr_prices(Window(s1, 0, 3), Window(s2, 0, 3))


# ---------------------------------------------------------------------------
# Test-only reference: the per-report evaluation that takes every covariance
# from scratch (60 compensated sums per correlation report), with ndarray
# sums.  The moment-table code must reproduce it bit for bit.


def _ref_mean(xs):
    arr = np.asarray(xs, dtype=np.float64)
    return math.fsum(arr) / arr.size


def _ref_joint_moment(xs, ys):
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    return math.fsum(x * y) / x.size


def _ref_cov(xs, ys):
    return _ref_joint_moment(xs, ys) - _ref_mean(xs) * _ref_mean(ys)


def _ref_variance(xs):
    m = _ref_mean(xs)
    return _ref_joint_moment(xs, xs) - m * m


def _ref_carrier_corr(values1, carrier1, values2, carrier2):
    g1 = _ref_mean(values1) / _ref_mean(carrier1)
    g2 = _ref_mean(values2) / _ref_mean(carrier2)
    denominator = _ref_joint_moment(carrier1, carrier2)
    if not denominator > DENOM_FLOOR:
        raise DegenerateDenominator(
            f"carrier joint moment {denominator!r} is too small to divide by"
        )
    cov_cc = _ref_cov(values1, values2)
    cov_wc = _ref_cov(carrier1, values2)
    cov_cw = _ref_cov(values1, carrier2)
    cov_ww = _ref_cov(carrier1, carrier2)
    market = (cov_cc - g1 * cov_wc - g2 * cov_cw + g1 * g2 * cov_ww) / denominator
    return g1, g2, denominator, cov_cc, cov_wc, cov_cw, cov_ww, market


def _ref_self_market_var(values, carrier):
    return _ref_carrier_corr(values, carrier, values, carrier)[-1]


def _ref_price_leg(w):
    return w.value, w.volume, w.price, w.lag


def _ref_return_leg(rv):
    return rv.value, rv.c_past, rv.r, rv.alpha


def _ref_report(family, slots, src1, leg1, src2, leg2):
    """The three former builders, which differed only in the legs' sequences
    and in the averages slots."""
    (c1, w1, x1, lag1), (c2, w2, x2, lag2) = leg1, leg2
    if len(src1) != len(src2):
        raise LengthMismatch(f"window lengths differ: {len(src1)} vs {len(src2)}")
    g1, g2, denominator, cov_cc, cov_wc, cov_cw, cov_ww, market = _ref_carrier_corr(
        c1, w1, c2, w2
    )
    return CorrelationReport(
        stat_family=family,
        market_value=market,
        frequency_value=_ref_cov(x1, x2),
        averages=MarketAverages(**{slots[0]: g1, slots[1]: g2}),
        freq_avg1=_ref_mean(x1),
        freq_avg2=_ref_mean(x2),
        denominator=denominator,
        cov_cc=cov_cc,
        cov_wc=cov_wc,
        cov_cw=cov_cw,
        cov_ww=cov_ww,
        market_var1=_ref_self_market_var(c1, w1),
        market_var2=_ref_self_market_var(c2, w2),
        freq_var1=_ref_variance(x1),
        freq_var2=_ref_variance(x2),
        n=len(src1),
        alpha=lag1,
        beta=lag2,
        asset1=src1.asset_id,
        asset2=src2.asset_id,
        t_center=src1.t_center,
    )


def ref_corr_prices(w1, w2):
    return _ref_report("price_corr", ("a1", "a2"), w1, _ref_price_leg(w1), w2, _ref_price_leg(w2))


def ref_corr_returns(rv1, rv2):
    return _ref_report(
        "return_corr", ("h1", "h2"), rv1, _ref_return_leg(rv1), rv2, _ref_return_leg(rv2)
    )


def ref_corr_price_return(w1, rv2):
    return _ref_report(
        "price_return_corr", ("a1", "h2"), w1, _ref_price_leg(w1), rv2, _ref_return_leg(rv2)
    )


def _ref_joint_moment_both_ways(report, values1, values2):
    avgs = report.averages
    g1 = avgs.a1 if report.stat_family == "price_corr" else avgs.h1
    g2 = avgs.a2 if report.stat_family == "price_corr" else avgs.h2
    combined = g1 * g2 + report.market_value
    cc = _ref_joint_moment(values1, values2)
    expanded = (
        cc - g1 * report.cov_wc - g2 * report.cov_cw + 2.0 * g1 * g2 * report.cov_ww
    ) / report.denominator
    scale = max(abs(combined), abs(expanded))
    if scale > 0.0 and abs(combined - expanded) > JOINT_MOMENT_REL_TOL * scale:
        raise ConsistencyError(f"joint moment evaluations disagree: {combined!r} vs {expanded!r}")
    return combined


def ref_joint_price_moment(w1, w2):
    return _ref_joint_moment_both_ways(ref_corr_prices(w1, w2), w1.value, w2.value)


def ref_joint_return_moment(rv1, rv2):
    return _ref_joint_moment_both_ways(ref_corr_returns(rv1, rv2), rv1.value, rv2.value)


def _outcome(fn, *args):
    """``repr`` of every field of the result (``-0.0`` and ``nan`` included),
    or the name of the exception raised."""
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc).__name__
    if isinstance(result, CorrelationReport):
        return repr(dataclasses.astuple(result))
    return float.hex(result)


def assert_matches_reference(w1, w2, rv1, rv2):
    """Every public per-window statistic of the legs against the reference.

    ``w1``/``w2`` are price windows, ``rv1``/``rv2`` return views, all of one
    length.
    """
    pairs = [
        (mb_corr_prices, ref_corr_prices, w1, w2),
        (mb_corr_prices, ref_corr_prices, w1, w1),
        (mb_corr_returns, ref_corr_returns, rv1, rv2),
        (mb_corr_returns, ref_corr_returns, rv1, rv1),
        (mb_corr_price_return, ref_corr_price_return, w1, rv2),
        (mb_joint_price_moment, ref_joint_price_moment, w1, w2),
        (mb_joint_return_moment, ref_joint_return_moment, rv1, rv2),
    ]
    for fn, ref, a, b in pairs:
        assert _outcome(fn, a, b) == _outcome(ref, a, b), fn.__name__
    assert _outcome(mb_price_volatility, w1) == _outcome(
        lambda w: ref_corr_prices(w, w).market_value, w1
    )
    assert _outcome(mb_return_volatility, rv1) == _outcome(
        lambda rv: ref_corr_returns(rv, rv).market_value, rv1
    )


def lognormal_series(name, rng, n, price, step_sd, volumes="lognormal"):
    prices = price * np.exp(np.cumsum(rng.normal(0.0, step_sd, n)))
    if volumes == "constant":
        vols = np.full(n, 3.0)
    else:
        vols = np.exp(rng.normal(0.0, 0.4, n))
    return make_series(name, np.arange(n), prices, vols)


class TestBitIdentityWithReference:
    """The moment table changes no bit of any report or statistic."""

    @settings(max_examples=40)
    @given(return_view_pairs(min_n=1, max_n=32), st.data())
    def test_hypothesis_windows(self, pair, data):
        rv1, rv2 = pair
        n = len(rv1)
        cols = [
            data.draw(st.lists(st.floats(0.25, 4.0), min_size=n + 2, max_size=n + 2))
            for _ in range(4)
        ]
        s1 = make_series("p1", np.arange(n + 2), cols[0], cols[1])
        s2 = make_series("p2", np.arange(n + 2), cols[2], cols[3])
        w1 = Window(s1, 2, n)
        w2 = lag_view(Window(s2, 2, n), data.draw(st.integers(0, 2)))
        assert_matches_reference(w1, w2, rv1, rv2)

    @pytest.mark.parametrize(
        "price,step_sd,volumes",
        [
            (1.0, 3e-2, "lognormal"),
            (100.0, 3e-3, "lognormal"),
            (1e4, 1e-4, "lognormal"),
            (1e4, 1e-4, "constant"),
            (100.0, 1e-2, "constant"),
        ],
    )
    def test_regimes(self, price, step_sd, volumes):
        rng = np.random.default_rng(17)
        s1 = lognormal_series("a", rng, 320, price, step_sd, volumes)
        s2 = lognormal_series("b", rng, 320, price, step_sd, volumes)
        for start, n in [(3, 1), (3, 2), (5, 7), (10, 64), (3, 300)]:
            assert_matches_reference(*legs(s1, s2, start, start, n, 1, 3))

    def test_single_tick_window(self):
        s1 = make_series("a", np.arange(3), [2.5, 3.0, 1.5], [1.5, 2.0, 4.0])
        s2 = make_series("b", np.arange(3), [1.5, 4.0, 0.5], [4.0, 1.0, 2.0])
        assert_matches_reference(*legs(s1, s2, 2, 2, 1, 1, 2))

    @pytest.mark.parametrize(
        "vols1,vols2",
        [
            ([1e-200, 1e-200, 1e-200], [1e-200, 1e-200, 1e-200]),  # cross and both legs
            ([1.0, 1e-300, 1.0], [1e-300, 1.0, 1e-300]),  # cross only
            ([1e-200, 1e-200, 1e-200], [1e200, 1e200, 1e200]),  # leg 1 only
            ([1.0, 2.0, 3.0], [1e-170, 1e-170, 1e-170]),  # leg 2 only
        ],
    )
    def test_degenerate_denominators(self, vols1, vols2):
        s1 = make_series("a", np.arange(3), [1.0, 2.0, 1.5], vols1)
        s2 = make_series("b", np.arange(3), [1.0, 3.0, 2.0], vols2)
        w1, w2 = Window(s1, 0, 3), Window(s2, 0, 3)
        assert _outcome(mb_corr_prices, w1, w2) == "DegenerateDenominator"
        assert _outcome(ref_corr_prices, w1, w2) == "DegenerateDenominator"
        assert_matches_reference(*legs(s1, s2, 1, 1, 2, 1, 1))


def test_overflowing_moment_is_refused_without_a_warning():
    """Leg 2's volumes square past the float range: the overflow is not
    warned of, and the pair's vanishing carrier moment is refused by name."""
    s1 = make_series("a", np.arange(3), [1.0, 2.0, 1.5], [1e-200] * 3)
    s2 = make_series("b", np.arange(3), [1.0, 3.0, 2.0], [1e200] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateDenominator) as raised:
            mb_corr_prices(Window(s1, 0, 3), Window(s2, 0, 3))
    assert str(raised.value) == "price_corr: carrier joint moment 0.0 is too small to divide by"


def test_each_compensated_sum_once_per_report(monkeypatch):
    """A correlation report takes 19 compensated sums: per leg the means of
    C, W and x and the joint moments W*W, W*C, C*C and x*x, plus the five
    cross joint moments.  Summing each covariance from scratch took 60."""
    rng = np.random.default_rng(3)
    s1 = lognormal_series("a", rng, 40, 100.0, 3e-3)
    s2 = lognormal_series("b", rng, 40, 100.0, 3e-3)
    w1, w2, rv1, rv2 = legs(s1, s2, 5, 5, 30, 1, 2)
    calls = 0
    fsum = math.fsum

    def counting_fsum(values):
        nonlocal calls
        calls += 1
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counting_fsum)
    for fn, a, b in [
        (mb_corr_prices, w1, w2),
        (mb_corr_returns, rv1, rv2),
        (mb_corr_price_return, w1, rv2),
    ]:
        calls = 0
        fn(a, b)
        assert calls <= 19, (fn.__name__, calls)


def test_volatility_reads_one_moment_table(monkeypatch):
    """A volatility takes the 7 sums of its leg's moment table: the means of
    C, W and x and the joint moments W*W, W*C, C*C and x*x.  Building the
    pair report of the leg with itself took 19.  A joint moment reads the
    cross moment C1*C2 of its report instead of summing it again: 19, not 20."""
    rng = np.random.default_rng(3)
    w1, w2, rv1, rv2 = legs(*(lognormal_series(k, rng, 40, 100.0, 3e-3) for k in "ab"),
                            5, 5, 30, 1, 2)
    calls = 0
    fsum = math.fsum

    def counting_fsum(values):
        nonlocal calls
        calls += 1
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counting_fsum)
    for fn, args, sums in [
        (mb_price_volatility, (w1,), 7),
        (mb_return_volatility, (rv1,), 7),
        (mb_joint_price_moment, (w1, w2), 19),
        (mb_joint_return_moment, (rv1, rv2), 19),
    ]:
        calls = 0
        fn(*args)
        assert calls == sums, (fn.__name__, calls)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("fn", [mb_price_volatility, mb_return_volatility])
def test_volatility_refuses_degenerate_and_non_finite_legs(fn):
    def leg(volumes, scale):
        s = make_series("a", np.arange(4), np.array([1.0, 2.0, 1.5, 3.0]) * scale, volumes)
        w = Window(s, 1, 3)
        return w if fn is mb_price_volatility else compute_returns(w, 1)

    with pytest.raises(DegenerateDenominator):
        fn(leg([1e-200] * 4, 1.0))
    with pytest.raises(ConsistencyError, match="non-finite market_value"):
        fn(leg([1.0] * 4, 1e160))  # values square to inf


_ERROR_PRICES = ([1.0, 2.0, 1.5, 2.5], [1.0, 3.0, 2.0, 1.5])
_DEGENERATE = "DegenerateDenominator: {}: carrier joint moment {} is too small to divide by"
_NON_FINITE = "ConsistencyError: {}: non-finite market_value nan"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale, vols1, vols2, outcomes", [
    pytest.param(1.0, [1.0, 1e-300, 1e-300, 1.0], [1.0, 1.0, 1e-300, 1e-300], (
        _DEGENERATE.format("price_corr", "1e-300"),
        "8.326672684688674e+283",
        _DEGENERATE.format("price_return_corr", "1e-300"),
        "-6.661338147750939e-16",
        "2.9605947323337506e-16",
        _DEGENERATE.format("joint_price_moment", "1e-300"),
        "ConsistencyError: joint_return_moment: joint-moment evaluations disagree",
    ), id="cross-only-degenerate"),
    pytest.param(1.0, [1e-200] * 4, [1e200] * 4,
                 tuple(_DEGENERATE.format(family, "0.0") for family in FAMILIES),
                 id="leg-1-only-degenerate"),
    pytest.param(1e160, [1.0, 2.0, 3.0, 1.0], [2.0, 1.0, 4.0, 1.0],
                 tuple(_NON_FINITE.format(family) for family in FAMILIES), id="prices-near-1e160"),
])
def test_per_window_outcomes_keep_their_messages(scale, vols1, vols2, outcomes):
    """Each ``mb_*`` function's error, message included, or its market value."""
    s1, s2 = (make_series(name, np.arange(4), np.array(prices) * scale, vols)
              for name, prices, vols in zip("ab", _ERROR_PRICES, (vols1, vols2)))
    w1, w2, rv1, rv2 = legs(s1, s2, 1, 1, 3, 1, 1)
    calls = [(mb_corr_prices, w1, w2), (mb_corr_returns, rv1, rv2),
             (mb_corr_price_return, w1, rv2), (mb_price_volatility, w1),
             (mb_return_volatility, rv1), (mb_joint_price_moment, w1, w2),
             (mb_joint_return_moment, rv1, rv2)]
    got = []
    for fn, *args in calls:
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - the outcome is compared as is
            got.append(f"{type(exc).__name__}: {exc}")
        else:
            got.append(repr(getattr(result, "market_value", result)))
    assert tuple(got) == outcomes
