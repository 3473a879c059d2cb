import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import return_view_pairs, trade_windows, window_pairs
from direct import legs, returns_of
from exact import EPS, Leg, errors, scales
from exact import values as exact_values
from mbstat import (
    CorrelationReport,
    FAMILIES,
    ReturnView,
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
    EmptyInput,
    LengthMismatch,
    NonPositiveInvestment,
)
from mbstat import market_core
from mbstat.market_core import DENOM_FLOOR, average_slots, closed_form
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

    def test_portfolio_rejects_empty(self):
        with pytest.raises(EmptyInput):
            portfolio_return([], [])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_portfolio_rejects_non_finite(self, bad):
        with pytest.raises(NonPositiveInvestment, match=f"finite and > 0, got {bad}$"):
            portfolio_return([1.0, 2.0], [1.0, bad])

    @pytest.mark.parametrize("stat, message", [
        (lambda: portfolio_return([1.0, 1.0], [1e308, 1e308]),
         "^the compensated sum of 2 terms overflows the float range$"),
        (lambda: portfolio_return([1e300, 1.0], [1e10, 1.0]),
         r"^the product 1e\+300\*10000000000.0 of term 0 overflows the float range$"),
        (lambda: vawar(compute_returns(Window(make_series("s", [0, 1, 2], [1e308] * 3, [1.0] * 3),
                                              1, 2), 1)),
         "^the compensated sum of 2 terms overflows the float range$"),
    ], ids=["portfolio-sum", "portfolio-product", "vawar-sum"])
    def test_an_overflow_of_finite_terms_is_refused(self, stat, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning on the way
            with pytest.raises(ConsistencyError, match=message):
                stat()

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
        assert math.isnan(rep.frequency_pearson)

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


def test_closed_form_of_unshifted_means(worked_price_pair):
    # A per-window run shifts by the window's own averages, so g1 and g2
    # reach closed_form as 0 up to rounding; fed the raw means of the worked
    # pair, every term counts: g = (3.25, 1.5), cov_ww = -1/9, market 0.375.
    w1, w2 = worked_price_pair
    means = [mean(a) for a in (w1.value, w1.volume, w2.value, w2.volume)]
    moments = [joint_moment(a, b) for a, b in ((w1.value, w2.value), (w1.volume, w2.value),
                                               (w1.value, w2.volume), (w1.volume, w2.volume))]
    g1, g2, _, _, cov_cw, cov_ww, market = closed_form("price_corr", *means, *moments)
    assert (g1, g2) == (3.25, 1.5)
    assert cov_cw == pytest.approx(-7 / 9, rel=1e-14)
    assert cov_ww == pytest.approx(-1 / 9, rel=1e-14)
    assert market == pytest.approx(0.375, rel=1e-14)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("box", [float, lambda v: np.array([1.0, v, math.nan])],
                         ids=["float", "array"])
def test_require_finite_names_the_first_non_finite_value(bad, box):
    market_core.require_finite("price_corr", market_value=1.0, denominator=np.ones(3))
    with pytest.raises(ConsistencyError, match=rf"^price_corr: non-finite cov_cc {bad!r}$"):
        market_core.require_finite("price_corr", market_value=1.0, cov_cc=box(bad))


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


# Every public per-window statistic against the exact-rational reference of
# ``tests/exact.py``, relative to each field's scale (max(|value|, S) for the
# market and frequency values and the leg variances).  Measured worst over the
# regimes below: 7.1e-12 for the values (value-relative the same), 1.1e-14
# for the other fields (3.0e-13 of the floored scale at constant volumes).
VALUE_BOUND, FIELD_BOUND = 1e-9, 1e-12

# Where a window or a carrier may be constant, an error of a few roundings of
# the product of the magnitudes a field is built from (|g1*g2| for the market
# value) is the rounding of the stored doubles, whatever its relative size:
# these floors let the bounds allow 4 such roundings.  The kernel's shift
# ``g0`` is one rounded quotient, so a constant window's value is not 0 to
# the last bit; and the carriers are not shifted, so a covariance of constant
# carriers is taken from raw moments (measured up to 1.2 roundings).
ROUNDING_FLOORS = {"floor": 4 * EPS / VALUE_BOUND, "cov_floor": 4 * EPS / FIELD_BOUND}

_FAMILY_CALLS = [
    ("price_corr", mb_corr_prices, "w1", "w2"),
    ("price_corr", mb_corr_prices, "w1", "w1"),
    ("return_corr", mb_corr_returns, "rv1", "rv2"),
    ("return_corr", mb_corr_returns, "rv1", "rv1"),
    ("price_return_corr", mb_corr_price_return, "w1", "rv2"),
    ("joint_price_moment", mb_joint_price_moment, "w1", "w2"),
    ("joint_return_moment", mb_joint_return_moment, "rv1", "rv2"),
    ("price_vol", mb_price_volatility, "w1", "w1"),
    ("return_vol", mb_return_volatility, "rv1", "rv1"),
]


def _report_fields(rep, family):
    slot1, slot2 = average_slots(family)
    return {"market_value": rep.market_value, "frequency_value": rep.frequency_value,
            "g1": getattr(rep.averages, slot1), "g2": getattr(rep.averages, slot2),
            "denominator": rep.denominator, "cov_cc": rep.cov_cc, "cov_uc": rep.cov_wc,
            "cov_cu": rep.cov_cw, "cov_ww": rep.cov_ww, "freq_avg1": rep.freq_avg1,
            "freq_avg2": rep.freq_avg2}


def _check_exact(got, family, leg1, leg2, floors):
    exact = exact_values(family, leg1, leg2)
    scale = scales(leg1, leg2, exact, **floors)
    for field, (scaled, _) in errors(got, exact, scale).items():
        bound = VALUE_BOUND if field.endswith("_value") else FIELD_BOUND
        assert scaled <= bound, (family, field, scaled)


def assert_matches_exact(w1, w2, rv1, rv2, floors=None):
    """Every public per-window statistic of the legs against the exact
    reference; a refusal must be a denominator at the floor.

    ``w1``/``w2`` are price windows, ``rv1``/``rv2`` return views, all of one
    length.  ``floors`` are ``exact.scales``'s, if not its defaults.
    """
    sources = {"w1": w1, "w2": w2, "rv1": rv1, "rv2": rv2}
    floors = floors or {}
    for family, fn, name1, name2 in _FAMILY_CALLS:
        src1, src2 = sources[name1], sources[name2]
        leg1, leg2 = Leg.of(src1), Leg.of(src2)
        try:
            result = fn(src1) if family.endswith("_vol") else fn(src1, src2)
        except (DegenerateDenominator, ConsistencyError) as exc:
            # a denominator at the floor, or near it for the joint-moment
            # cross-check, whose products there lose their digits
            lowest = min(exact_values(family, a, b)["denominator"]
                         for a, b in ((leg1, leg2), (leg1, leg1), (leg2, leg2)))
            near = DENOM_FLOOR * (1 + 1e-12) if isinstance(exc, DegenerateDenominator) else 1e-290
            assert lowest <= near, (fn.__name__, exc, float(lowest))
            continue
        if not isinstance(result, CorrelationReport):
            _check_exact({"market_value": result}, family, leg1, leg2, floors)
            continue
        _check_exact(_report_fields(result, family), family, leg1, leg2, floors)
        kind = family.split("_")[0]  # the leg variances are the volatilities of the legs
        for leg, market_var, freq_var in ((leg1, result.market_var1, result.freq_var1),
                                          (leg2, result.market_var2, result.freq_var2)):
            _check_exact({"market_value": market_var, "frequency_value": freq_var},
                         f"{kind}_vol", leg, leg, floors)
        assert (result.stat_family, result.n) == (family, len(src1))
        assert (result.asset1, result.asset2) == (src1.asset_id, src2.asset_id)
        assert result.t_center == src1.t_center
        assert (result.alpha, result.beta) == tuple(
            src.alpha if isinstance(src, ReturnView) else src.lag for src in (src1, src2))


def lognormal_series(name, rng, n, price, step_sd, volumes="lognormal"):
    prices = price * np.exp(np.cumsum(rng.normal(0.0, step_sd, n)))
    if volumes == "constant":
        vols = np.full(n, 3.0)
    else:
        vols = np.exp(rng.normal(0.0, 0.4, n))
    return make_series(name, np.arange(n), prices, vols)


class TestExactReference:
    """Every report and statistic against the exact reference."""

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
        assert_matches_exact(w1, w2, rv1, rv2, ROUNDING_FLOORS)

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
        floors = ROUNDING_FLOORS if volumes == "constant" else None
        for start, n in [(3, 1), (3, 2), (5, 7), (10, 64), (3, 300)]:
            assert_matches_exact(*legs(s1, s2, start, start, n, 1, 3), floors)

    def test_single_tick_window(self):
        s1 = make_series("a", np.arange(3), [2.5, 3.0, 1.5], [1.5, 2.0, 4.0])
        s2 = make_series("b", np.arange(3), [1.5, 4.0, 0.5], [4.0, 1.0, 2.0])
        assert_matches_exact(*legs(s1, s2, 2, 2, 1, 1, 2))

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
        with pytest.raises(DegenerateDenominator):
            mb_corr_prices(w1, w2)
        assert_matches_exact(*legs(s1, s2, 1, 1, 2, 1, 1))


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


@pytest.mark.parametrize("n, stride, k", [
    (1, 1, 1), (1, 3, 7),  # one-tick windows
    (7, 3, 9), (64, 1, 40), (6, 4, 9),  # g = gcd(n, stride) is 1, or 2: below a segment
    (8, 8, 9), (32, 16, 1),  # g = n; one window
    (96, 64, 7), (12, 8, 9),  # 1 < g < n
    (64, 128, 5), (12, 20, 9),  # stride > n, at g = n and g < n
])
def test_window_means_are_window_sums_over_n(n, stride, k):
    """Each window's mean is its exactly rounded sum over ``n`` to 1e-14, for
    plain means and products, at every kind of segment the kernel takes."""
    rng = np.random.default_rng(1000 * n + stride)
    span = (k - 1) * stride + n
    x = 1e4 * rng.lognormal(0.0, 1e-4, span)
    y = rng.lognormal(0.0, 0.4, span)
    buf = np.empty(span, np.complex128)
    means = market_core.window_means([(x, None), (x, y)], k, stride, n, buf)
    for got, terms in zip(means, (x, x * y)):
        want = [math.fsum(terms[j * stride : j * stride + n].tolist()) / n for j in range(k)]
        assert got.shape == (k,) and not np.shares_memory(got, buf)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        if n == 1:  # a one-tick window is its value, bit for bit
            assert np.array_equal(got, terms[::stride])


def _one_sum_means(x, y, k, stride, n):
    """The window means of ``x`` or ``x*y`` by the single-sum float64 rule
    the kernel's lanes must match bit for bit: segment sums of ``g`` ticks
    from ``g = 4`` on, the first window reduced in full, the others read from
    one cumulative sum, and each divided by ``n``."""
    g = math.gcd(n, stride)
    if g < market_core._MIN_SEGMENT:
        seg, g = (x if y is None else x * y), 1
    elif y is None:
        seg = np.einsum("ij->i", x.reshape(-1, g))
    else:
        seg = np.einsum("ij,ij->i", x.reshape(-1, g), y.reshape(-1, g))
    step, m = stride // g, n // g
    if m == 1:
        return seg[::step] / n
    c = np.cumsum(seg)
    sums = np.concatenate([[np.add.reduce(seg[:m])],
                           c[step + m - 1 :: step] - c[step - 1 :: step][: k - 1]])
    return sums / n


@pytest.mark.parametrize("n, stride, k", [
    (1, 1, 1), (1, 7, 40),  # one-tick windows
    (30, 1, 1), (256, 1, 300), (64, 3, 50),  # g = 1
    (96, 64, 9), (8, 4, 30), (20, 5, 30), (64, 16, 30), (256, 64, 9),  # g = 32, 4, 5, 16, 64
    (512, 256, 5), (256, 256, 6), (64, 128, 5),  # g = 256, one segment, stride > n
])
def test_each_lane_is_its_own_float64_sum(n, stride, k):
    """Each lane of a pass is, bit for bit, the float64 rule run on its term
    alone, whichever term shares the pass; a lone term gives the same bits."""
    rng = np.random.default_rng(10 * n + stride)
    span = (k - 1) * stride + n
    x, y, z = (scale * rng.lognormal(0.0, sd, span) for scale, sd in
               ((1e4, 1e-4), (1.0, 0.4), (1e-3, 1.0)))
    buf = np.empty(span, np.complex128)
    for terms in ([(x, None), (y, z)], [(y, z), (x, None)], [(x, y), (z, None)], [(z, x)]):
        got = market_core.window_means(terms, k, stride, n, buf)
        assert len(got) == len(terms)
        for mean, (a, b) in zip(got, terms):
            assert mean.shape == (k,) and mean.flags.c_contiguous
            assert mean.tobytes() == _one_sum_means(a, b, k, stride, n).tobytes()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("n, stride, k", [(16, 1, 40), (64, 16, 20)])
def test_a_non_finite_lane_leaves_its_partner_alone(bad, n, stride, k):
    """A non-finite term spoils its own windows only: the other lane of the
    pass keeps the bits of its own float64 sum."""
    rng = np.random.default_rng(7)
    span = (k - 1) * stride + n
    x, y = rng.lognormal(0.0, 0.4, span), rng.lognormal(0.0, 0.4, span)
    x[span // 2] = bad
    buf = np.empty(span, np.complex128)
    with np.errstate(all="ignore"):  # inf - inf in the spoiled lane
        for terms, spoiled in (([(x, y), (y, None)], 0), ([(y, None), (x, None)], 1)):
            got = market_core.window_means(terms, k, stride, n, buf)
            want = [_one_sum_means(a, b, k, stride, n) for a, b in terms]
            assert got[1 - spoiled].tobytes() == want[1 - spoiled].tobytes()
            assert not np.isfinite(got[spoiled]).all()
            np.testing.assert_array_equal(got[spoiled], want[spoiled])  # NaN where NaN


def _count_window_sums(monkeypatch):
    """A counter of the kernel's window sums, one per distinct mean (a pass
    of the kernel sums one or two)."""
    calls = [0]
    window_means = market_core.window_means

    def counting(terms, *args):
        calls[0] += len(terms)
        return window_means(terms, *args)

    monkeypatch.setattr(market_core, "window_means", counting)
    return calls


def test_each_window_sum_once_per_report(monkeypatch):
    """A correlation report takes 19 window sums: per leg the means of its
    shifted D, W and y and the products W*W, W*D, D*D and y*y, plus the five
    cross products.  Summing each covariance from scratch took 60."""
    rng = np.random.default_rng(3)
    s1 = lognormal_series("a", rng, 40, 100.0, 3e-3)
    s2 = lognormal_series("b", rng, 40, 100.0, 3e-3)
    w1, w2, rv1, rv2 = legs(s1, s2, 5, 5, 30, 1, 2)
    calls = _count_window_sums(monkeypatch)
    for fn, a, b in [
        (mb_corr_prices, w1, w2),
        (mb_corr_returns, rv1, rv2),
        (mb_corr_price_return, w1, rv2),
    ]:
        calls[0] = 0
        fn(a, b)
        assert calls[0] == 19, (fn.__name__, calls[0])


def test_volatility_reads_one_moment_table(monkeypatch):
    """A volatility takes the 7 window sums of its leg's moment table: the
    means of D, W and y and the products W*W, W*D, D*D and y*y.  Building the
    pair report of the leg with itself took 19.  A joint moment reads the
    cross product D1*D2 of its report instead of summing C1*C2: 19, not 20."""
    rng = np.random.default_rng(3)
    w1, w2, rv1, rv2 = legs(*(lognormal_series(k, rng, 40, 100.0, 3e-3) for k in "ab"),
                            5, 5, 30, 1, 2)
    calls = _count_window_sums(monkeypatch)
    for fn, args, sums in [
        (mb_price_volatility, (w1,), 7),
        (mb_return_volatility, (rv1,), 7),
        (mb_joint_price_moment, (w1, w2), 19),
        (mb_joint_return_moment, (rv1, rv2), 19),
    ]:
        calls[0] = 0
        fn(*args)
        assert calls[0] == sums, (fn.__name__, calls[0])


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
_NON_FINITE = "ConsistencyError: {}: non-finite market_value {}"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale, vols1, vols2, outcomes", [
    pytest.param(1.0, [1.0, 1e-300, 1e-300, 1.0], [1.0, 1.0, 1e-300, 1e-300], (
        _DEGENERATE.format("price_corr", "1e-300"),
        "0.0",  # exact 2.5e-300
        _DEGENERATE.format("price_return_corr", "1e-300"),
        "0.0",  # exact 0
        "0.0",  # exact 0
        _DEGENERATE.format("joint_price_moment", "1e-300"),
        "ConsistencyError: joint_return_moment: joint-moment evaluations disagree",
    ), id="cross-only-degenerate"),
    pytest.param(1.0, [1e-200] * 4, [1e200] * 4,
                 tuple(_DEGENERATE.format(family, "0.0") for family in FAMILIES),
                 id="leg-1-only-degenerate"),
    pytest.param(1e160, [1.0, 2.0, 3.0, 1.0], [2.0, 1.0, 4.0, 1.0],
                 tuple(_NON_FINITE.format(family, "inf" if family == "price_vol" else "nan")
                       for family in FAMILIES), id="prices-near-1e160"),
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


class TestLegDispatch:
    """A leg is read by its family's leg letter, not by the type passed."""

    @pytest.fixture
    def pair(self):
        rng = np.random.default_rng(5)
        s1, s2 = (lognormal_series(name, rng, 12, 100.0, 0.01) for name in "ab")
        return Window(s1, 2, 8), Window(s2, 2, 8)

    def test_a_return_view_as_a_price_leg_reads_its_window(self, pair):
        w1, w2 = pair
        rv1, rv2 = compute_returns(w1, 2), compute_returns(w2, 1)
        assert mb_corr_prices(rv1, rv2) == mb_corr_prices(w1, w2)
        assert mb_price_volatility(rv1) == mb_price_volatility(w1)
        assert mb_corr_price_return(rv1, rv2) == mb_corr_price_return(w1, rv2)

    def test_a_plain_window_is_no_return_leg(self, pair):
        w1, w2 = pair
        with pytest.raises(AttributeError, match="c_past"):
            mb_corr_returns(w1, compute_returns(w2, 1))
        with pytest.raises(AttributeError, match="c_past"):
            mb_return_volatility(w1)
