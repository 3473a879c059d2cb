import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import positive_floats, trade_windows
from mbstat import (
    Window,
    compute_returns,
    lag_view,
    make_series,
    parse_trades,
    serialize,
    slice_window,
)
from mbstat.errors import (
    EmptyInput,
    EmptyWindow,
    LagNotOnGrid,
    MissingHistory,
    NonPositivePrice,
    NonPositiveVolume,
    NonUniformSpacing,
    ParseError,
    ValueMismatch,
)


class TestParse:
    def test_basic(self):
        s = parse_trades("t,price,volume\n0,2,1\n1,4,2\n2,3,1")
        assert len(s) == 3
        assert s.epsilon == 1
        assert list(s.value) == [2.0, 8.0, 3.0]

    def test_epsilon_inferred(self):
        s = parse_trades("t,price,volume\n0,2,1\n5,4,2\n10,3,1")
        assert s.epsilon == 5

    def test_value_column_accepted(self):
        s = parse_trades("t,price,volume,value\n0,2,1,2\n1,4,2,8")
        assert list(s.value) == [2.0, 8.0]

    def test_value_column_recomputed(self):
        # a declared value inside tolerance is replaced by the exact product
        p, u = 0.1, 0.3
        declared = p * u * (1 + 2e-10)
        s = parse_trades(f"t,price,volume,value\n0,{p!r},{u!r},{declared!r}")
        assert s.value[0] == p * u

    def test_value_mismatch(self):
        with pytest.raises(ValueMismatch):
            parse_trades("t,price,volume,value\n0,2,1,3")

    def test_nonpositive_volume(self):
        with pytest.raises(NonPositiveVolume):
            parse_trades("t,price,volume\n0,2,1\n1,4,2\n2,3,1\n3,5,0")

    def test_nonpositive_price(self):
        with pytest.raises(NonPositivePrice):
            parse_trades("t,price,volume\n0,-2,1")

    def test_gap_rejected(self):
        with pytest.raises(NonUniformSpacing):
            parse_trades("t,price,volume\n0,2,1\n1,4,2\n3,3,1")

    def test_duplicate_timestamp_rejected(self):
        with pytest.raises(NonUniformSpacing):
            parse_trades("t,price,volume\n0,2,1\n1,4,2\n1,3,1")

    def test_empty(self):
        with pytest.raises(EmptyInput):
            parse_trades("")
        with pytest.raises(EmptyInput):
            parse_trades("t,price,volume\n")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_trades("time,px,qty\n0,2,1")

    def test_bad_cell(self):
        with pytest.raises(ParseError):
            parse_trades("t,price,volume\n0,two,1")

    def test_column_count(self):
        with pytest.raises(ParseError):
            parse_trades("t,price,volume\n0,2")

    def test_overflowing_trade_value_rejected(self):
        # price and volume are finite, their product is not
        text = "t,price,volume\n0,2,1\n1,1e300,1e9\n2,3,1"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused by the rule, not a numpy warning
            with pytest.raises(ParseError, match=r"= 1e\+300\*1000000000\.0 at t=1 "):
                parse_trades(text)
            with pytest.raises(ParseError, match="at t=5 is not finite"):
                make_series("a", [4, 5], [2.0, 1e200], [1.0, 1e200])

    @pytest.mark.parametrize("row", ["99999999999999999999,1.0,1.0", "-9223372036854775809,2,1"])
    def test_tick_time_outside_int64_rejected(self, row):
        with pytest.raises(ParseError, match=r"row 2: tick time .* outside the 64-bit"):
            parse_trades(f"t,price,volume\n0,1,1\n{row}")

    @pytest.mark.parametrize("times, named", [
        ([1e19], "1e+19"), ([-1e19], "-1e+19"), ([float("inf")], "inf"),
        ([2**63], "9223372036854775808"), ([10**20], "100000000000000000000"),
    ])
    def test_make_series_refuses_tick_times_outside_int64(self, times, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused by the rule, not after a cast warning
            with pytest.raises(ParseError, match=f"tick time {re.escape(named)} is outside"):
                make_series("a", times, [1.0], [1.0])


class TestRoundTrip:
    @given(
        st.lists(positive_floats, min_size=1, max_size=40),
        st.lists(positive_floats, min_size=1, max_size=40),
    )
    def test_parse_serialize_identity(self, prices, volumes):
        n = min(len(prices), len(volumes))
        s = make_series("rt", np.arange(n), prices[:n], volumes[:n])
        text = serialize(s)
        again = parse_trades(text, asset_id="rt")
        assert again == s
        assert serialize(again) == text

    def test_canonical_form(self):
        s = make_series("x", [0, 1], [2.0, 0.5], [1.0, 3.0])
        assert serialize(s) == "t,price,volume\n0,2.0,1.0\n1,0.5,3.0\n"


class TestSliceWindow:
    @pytest.fixture
    def five(self):
        return make_series("s", np.arange(5), np.arange(1.0, 6.0), np.ones(5))

    def test_interval_membership(self, five):
        w = slice_window(five, center=2, half_width=1)
        assert w.count == 3
        assert list(w.times) == [1, 2, 3]

    def test_empty(self, five):
        with pytest.raises(EmptyWindow):
            slice_window(five, center=10, half_width=1)

    def test_degenerate_interval(self, five):
        w = slice_window(five, center=2, half_width=0)
        assert w.count == 1
        assert list(w.times) == [2]

    def test_clipped_at_edges(self, five):
        w = slice_window(five, center=0, half_width=2)
        assert list(w.times) == [0, 1, 2]

    def test_wider_grid(self):
        s = make_series("s", [0, 3, 6, 9], [1, 2, 3, 4], [1, 1, 1, 1])
        w = slice_window(s, center=3, half_width=1)
        assert list(w.times) == [0, 3, 6]

    def test_fractional_half_width(self, five):
        with pytest.raises(LagNotOnGrid):
            slice_window(five, center=2, half_width=0.5)


class TestLagView:
    @pytest.fixture
    def window(self):
        s = make_series("s", np.arange(5), [1.0, 2.0, 3.0, 4.0, 5.0], np.ones(5))
        return Window(s, start=2, count=3)

    def test_shift(self, window):
        v = lag_view(window, 2)
        assert list(v.price) == [1.0, 2.0, 3.0]
        assert list(v.times) == [2, 3, 4]  # the window's own times stay put
        assert v.count == window.count

    def test_missing_history(self, window):
        with pytest.raises(MissingHistory):
            lag_view(window, 3)

    def test_identity(self, window):
        v = lag_view(window, 0)
        assert list(v.price) == list(window.price)

    def test_composition(self, window):
        twice = lag_view(lag_view(window, 1), 1)
        once = lag_view(window, 2)
        assert twice.lag == once.lag == 2
        assert list(twice.price) == list(once.price)

    def test_not_on_grid(self, window):
        with pytest.raises(LagNotOnGrid):
            lag_view(window, 1.5)
        with pytest.raises(LagNotOnGrid):
            lag_view(window, -1)


class TestComputeReturns:
    def test_worked_instance(self):
        s = make_series("a", [0, 1, 2, 3], [1, 2, 4, 2], [1, 1, 1, 2])
        rv = compute_returns(Window(s, 1, 3), 1)
        assert list(rv.r) == [2.0, 2.0, 0.5]
        assert list(rv.c_past) == [1.0, 2.0, 8.0]
        assert list(rv.value) == [2.0, 4.0, 4.0]

    def test_constant_price(self):
        s = make_series("a", np.arange(4), [3.0] * 4, [1.0, 2.0, 4.0, 0.5])
        rv = compute_returns(Window(s, 1, 3), 1)
        assert list(rv.r) == [1.0, 1.0, 1.0]
        assert np.array_equal(rv.c_past, rv.value)

    def test_missing_history(self):
        s = make_series("a", np.arange(3), [1.0, 2.0, 4.0], np.ones(3))
        with pytest.raises(MissingHistory):
            compute_returns(Window(s, 0, 3), 1)

    def test_horizon_validation(self):
        s = make_series("a", np.arange(4), np.ones(4), np.ones(4))
        w = Window(s, 1, 3)
        with pytest.raises(LagNotOnGrid):
            compute_returns(w, 0)
        with pytest.raises(LagNotOnGrid):
            compute_returns(w, 1.5)

    @given(trade_windows(min_n=1, max_n=24, history=3), st.integers(1, 3))
    def test_value_identity(self, window, alpha):
        rv = compute_returns(window, alpha)
        err = np.max(np.abs(rv.value - rv.r * rv.c_past) / rv.value)
        assert err <= 1e-12
