import dataclasses
import io
import os
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import INT64_END_GRIDS, positive_floats, trade_windows
from mbstat import (
    ReturnView,
    SynthConfig,
    TradeSeries,
    Window,
    compute_returns,
    gen_trades,
    lag_view,
    make_series,
    parse_trades,
    serialize,
    slice_window,
)
from mbstat import trade_series
from mbstat.trade_series import build_leg
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
        # a declared value inside tolerance is dropped: the value is the exact product
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

    def test_underflowing_trade_value_rejected(self):
        # price and volume are positive, their product is not a normal float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match=re.escape(
                    "trade value price*volume = 1e-200*1e-200 at t=0 underflows to 0.0")):
                make_series("a", [0, 1, 2], [1e-200, 2e-200, 3e-200], [1e-200] * 3)
            with pytest.raises(ParseError, match=r"= 1e-160\*1e-160 at t=1 underflows to 1e-320"):
                make_series("a", [0, 1], [2.0, 1e-160], [1.0, 1e-160])  # subnormal

    @pytest.mark.parametrize("row", ["99999999999999999999,1.0,1.0", "-9223372036854775809,2,1",
                                     "9223372036854775808,1.5,2.5", "9999999999999999999,1.5,2.5"])
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


class TestDerivedColumns:
    """A series stores its grid and the columns it was read from; the tick
    times, the trade value and the grid step are derived from them."""

    def test_a_series_stores_its_grid_and_two_columns(self):
        assert [f.name for f in dataclasses.fields(TradeSeries)] == [
            "asset_id", "start_time", "epsilon", "price", "volume"]

    @pytest.mark.parametrize("derived", [{"value": np.ones(2)}, {"t": np.arange(2)}])
    def test_value_and_t_cannot_be_set(self, derived):
        ones = np.ones(2)
        with pytest.raises(TypeError):
            TradeSeries("s", 0, 1, ones, ones, **derived)
        s = TradeSeries("s", 0, 1, ones, ones)
        with pytest.raises(AttributeError):
            setattr(s, *derived.popitem())

    def test_value_is_the_product_bit_for_bit(self):
        s = gen_trades(SynthConfig(n_ticks=2000, seed=4, price_start=1e4,
                                   log_price_step_sd=1e-4, volume_log_sd=0.4))
        product = s.price * s.volume
        assert s.value.tobytes() == product.tobytes()
        w = Window(s, start=700, count=300, lag=5)
        assert w.value.tobytes() == product[695:995].tobytes()
        assert build_leg(s, 700, 300, 5)[0].tobytes() == product[700:1000].tobytes()

    @pytest.mark.parametrize("times, step", [([3, 8, 13], 5), ([-4, -3], 1), ([7], 1)])
    def test_epsilon_is_the_step(self, times, step):
        ones = [1.0] * len(times)
        s = make_series("s", times, ones, ones)
        assert s.epsilon == step and type(s.epsilon) is int
        assert s.start_time == times[0] and type(s.start_time) is int

    def test_t_is_built_from_the_grid_on_each_read(self):
        s = make_series("s", [3, 8, 13, 18], [1.0] * 4, [1.0] * 4)
        assert s.t.dtype == np.int64 and s.t.tolist() == [3, 8, 13, 18]
        assert s.t is not s.t and not s.t.flags.writeable
        assert s.times(1, 2).tolist() == [8, 13] and s.times(4, 0).tolist() == []
        assert [s.time_at(i) for i in range(4)] == s.t.tolist()

    @pytest.mark.parametrize("start, step, n", INT64_END_GRIDS)
    def test_grids_at_the_ends_of_int64(self, start, step, n):
        times = [start + i * step for i in range(n)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning on the way
            s = make_series("s", np.array(times, np.int64), [1.0] * n, [1.0] * n)
            assert (s.start_time, s.epsilon) == (start, step)
            assert s.t.tolist() == times
            assert Window(s, 1, n - 1).times.tolist() == times[1:]
            assert Window(s, 1, n - 1).t_center == (float(times[1]) + float(times[-1])) / 2

    def test_a_single_tick_has_its_time_at_any_step(self):
        s = TradeSeries("s", 5, 2**64 + 3, np.ones(1), np.ones(1))
        assert s.t.tolist() == Window(s, 0, 1).times.tolist() == [5]
        assert serialize(s) == "t,price,volume\n5,1.0,1.0\n"

    def test_errors_and_windows_read_times_off_the_grid(self):
        s = make_series("s", [100, 105, 110, 115], [1.0, 1e300, 1e-300, 2.0], [1.0] * 4)
        with pytest.raises(ParseError, match="^return 0.0 at t=110 over horizon 1 "):
            build_leg(s, 1, 3, 1)
        w = slice_window(s, center=110, half_width=1)
        assert (w.start, w.count, w.times.tolist(), w.t_center) == (1, 3, [105, 110, 115], 110.0)

    @pytest.mark.parametrize("times, message", [
        ([2**63 - 1, -2], f"strictly increasing (duplicate or reversed timestamp after "
                          f"t={2**63 - 1})"),
        ([0, 2**63 - 1, -2], f"strictly increasing (duplicate or reversed timestamp after "
                             f"t={2**63 - 1})"),
        ([-(2**63), 0, 2**63 - 1], f"spacing {2**63 - 1} between t=0 and t={2**63 - 1} "
                                   f"differs from epsilon={2**63}"),
    ], ids=["max-then-back", "zero-max-back", "min-zero-max"])
    def test_steps_that_wrap_around_int64_are_refused(self, times, message):
        # Each step here equals the first modulo 2**64, but one goes back, or
        # the grid's next time lies past 2**63 - 1: a time off the grid.
        with pytest.raises(NonUniformSpacing, match=re.escape(message)):
            make_series("s", np.array(times, np.int64), [1.0] * len(times), [1.0] * len(times))

    def test_a_grid_from_one_end_of_int64_to_the_other(self):
        ends = [-(2**63), 2**63 - 1]
        ones = np.ones(2)
        s = make_series("s", np.array(ends, np.int64), ones, ones)
        assert s == TradeSeries("s", -(2**63), 2**64 - 1, ones, ones)
        assert s.t.tolist() == ends
        text = "t,price,volume\n" + "".join(f"{t},1.0,1.0\n" for t in ends)
        assert parse_trades(text, "s") == s

    def test_a_wrapped_step_is_named_by_its_true_value(self):
        times = [-(2**63), -(2**63) + 1, 2**63 - 1]
        message = (f"spacing {2**64 - 2} between t={-(2**63) + 1} and t={2**63 - 1} "
                   "differs from epsilon=1")
        with pytest.raises(NonUniformSpacing, match=f"^{re.escape(message)}$"):
            make_series("s", np.array(times, np.int64), [1.0] * 3, [1.0] * 3)
        text = "t,price,volume\n" + "".join(f"{t},1.0,1.0\n" for t in times)
        with pytest.raises(NonUniformSpacing, match=f"^input: {re.escape(message)}$"):
            parse_trades(text)

    @pytest.mark.parametrize("grid, error, message", [
        ((0, 0), NonUniformSpacing, "epsilon must be >= 1, got 0"),
        ((-(2**63) - 1, 1), ParseError, "a grid of 3 ticks from t=-9223372036854775809 in steps "
                                        "of 1 leaves the 64-bit integer range"),
        ((2**63 - 2, 1), ParseError, "a grid of 3 ticks from t=9223372036854775806 in steps "
                                     "of 1 leaves the 64-bit integer range"),
        ((0, 2**62), ParseError, "a grid of 3 ticks from t=0 in steps of 4611686018427387904 "
                                 "leaves the 64-bit integer range"),
    ])
    def test_a_grid_outside_int64_cannot_be_built(self, grid, error, message):
        ones = np.ones(3)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            TradeSeries("s", *grid, ones, ones)
        with pytest.raises(TypeError):
            TradeSeries("s", 0.0, 1, ones, ones)  # a grid of whole numbers

    def test_equal_series_compare_their_grids_and_columns(self):
        s = make_series("s", [0, 2], [1.0, 2.0], [3.0, 4.0])
        assert s == TradeSeries("s", s.start_time, s.epsilon, s.price.copy(), s.volume.copy())
        assert s != make_series("s", [0, 2], [1.0, 2.0], [3.0, 5.0])
        assert s != make_series("s", [1, 3], [1.0, 2.0], [3.0, 4.0])
        assert s != make_series("s", [0, 3], [1.0, 2.0], [3.0, 4.0])


# Cells outside the canonical form; int() or float() reads most of them.
NON_CANONICAL_CELLS = ["1_0.5", " 10", "+0", "10\r", "1E5", "inf", "nan", "", "0x1p3"]


def _columns_equal(parsed, reference):
    """Every column of two series has the same dtype and the same bits."""
    return parsed.epsilon == reference.epsilon and all(
        getattr(parsed, name).dtype == getattr(reference, name).dtype
        and getattr(parsed, name).tobytes() == getattr(reference, name).tobytes()
        for name in ("t", "price", "volume", "value"))


class TestStrictParse:
    @pytest.mark.parametrize("header", ["t,price,volume\r", " t,price,volume",
                                        "t,price,volume ", "t,price,volume,value\r"])
    def test_header_is_exact(self, header):
        with pytest.raises(ParseError, match="unexpected header"):
            parse_trades(f"{header}\n0,2,1\n")

    @given(st.lists(positive_floats, min_size=1, max_size=20), st.data())
    def test_a_non_canonical_cell_is_refused_naming_its_row(self, prices, data):
        s = make_series("f", np.arange(len(prices)), prices, prices[::-1])
        lines = serialize(s).split("\n")
        row = data.draw(st.integers(1, len(prices)), label="row")
        column = data.draw(st.integers(0, 2), label="column")
        cells = lines[row].split(",")
        cells[column] = data.draw(st.sampled_from(NON_CANONICAL_CELLS), label="cell")
        lines[row] = ",".join(cells)
        with pytest.raises(ParseError, match=f"^input: row {row}: "):
            parse_trades("\n".join(lines))

    @pytest.mark.parametrize("text, message", [
        ("0,2,1\n1,,2\n", "row 2: price cell is empty"),
        ("0,2,1\n,4,2\n", "row 2: t cell is empty"),
        ("0,2,1\n1,4,2,\n", "row 2: expected 3 columns, got 4"),
        ("0,2,1\n1,4\n", "row 2: expected 3 columns, got 2"),
        ("0,2,1\n\n1,4,2\n", "row 2: expected 3 columns, got 1"),
        ("0,2,1\n1,4,2\n\n", "row 3: expected 3 columns, got 1"),
        ("0,2\n5\n", "row 1: expected 3 columns, got 2"),  # 3 separators, 2 of them LF
        ("0,2\n1,4,2,5\n", "row 1: expected 3 columns, got 2"),  # 6 separators, 1 LF
        ("0,2,1\n1.5,4,2\n", "row 2: t '1.5' is not a canonical integer"),
        ("0,2,1\n1,4e+-1,2\n", "row 2: price '4e+-1' is not a canonical decimal number"),
        ("0,2,1\n1,4,2-\n", "row 2: volume '2-' is not a canonical decimal number"),
        ("0,2,1\n1,4+1,2\n", "row 2: price '4+1' is not a canonical decimal number"),
    ])
    def test_first_bad_row_is_named(self, text, message):
        with pytest.raises(ParseError, match=f"^input: {re.escape(message)}$"):
            parse_trades("t,price,volume\n" + text)

    def test_exponent_forms_are_read(self):
        s = parse_trades("t,price,volume\n-1,1e+300,2.5e-300\n0,4e5,1.\n1,.5,2e-0")
        assert s.price.tolist() == [1e300, 4e5, 0.5] and s.volume.tolist() == [2.5e-300, 1, 2]

    @pytest.mark.parametrize("with_value", [False, True], ids=["3-columns", "value-column"])
    def test_chunk_boundaries_keep_every_bit(self, monkeypatch, with_value):
        # 64-character chunks: rows fall on, across and (with the value
        # column) beyond every chunk boundary.
        monkeypatch.setattr(trade_series, "_CHUNK_CHARS", 64)
        rng = np.random.default_rng(10)
        for n in range(1, 301):
            times = np.arange(-150, n - 150) * 3
            prices = 10.0 ** rng.uniform(-20, 20, n)  # '1.5e-05' and '2.5e+17' forms too
            volumes = rng.uniform(0.5, 2.0, n)
            reference = make_series("c", times, prices, volumes)
            header = "t,price,volume,value" if with_value else "t,price,volume"
            rows = [f"{t},{p!r},{v!r}" + (f",{p * v!r}" if with_value else "")
                    for t, p, v in zip(times.tolist(), prices.tolist(), volumes.tolist())]
            text = "\n".join([header, *rows])
            for ending in ("", "\n"):
                assert _columns_equal(parse_trades(text + ending, "c"), reference), (n, ending)
            if n >= 250:
                rows[n - 20] = rows[n - 20].replace(",", ",+", 1)
                with pytest.raises(ParseError, match=f"^input: row {n - 19}: price '\\+"):
                    parse_trades("\n".join([header, *rows]))

    def test_canonical_file_never_runs_the_row_loop(self, monkeypatch):
        def row_loop(*args):
            raise AssertionError("the per-row loop ran on a canonical file")

        text = serialize(gen_trades(SynthConfig(n_ticks=5000, seed=3)))
        monkeypatch.setattr(trade_series, "_raise_first_bad_row", row_loop)
        assert len(parse_trades(text)) == 5000
        with pytest.raises(AssertionError, match="per-row loop ran"):
            parse_trades(text.replace("\n4000,", "\n4000,+", 1))

    def test_row_loop_on_canonical_rows_names_the_chunk(self):
        # parse_trades runs the loop only on a chunk it has refused, so this
        # last guard is reached only by a direct call.
        with pytest.raises(ParseError, match="^rows 1 to 2 are not canonical CSV$"):
            trade_series._raise_first_bad_row("0,1.5,2\n1,2.25,3\n", 3, 0)


class TestTimesChunkByChunk:
    """Each tick time is checked against the grid of the first two as its
    chunk is read: ``parse_trades`` refuses a time off the grid with the error
    ``make_series`` gives for the same columns, wherever the chunks fall."""

    TIMES = [-7 + 3 * i for i in range(12)]

    @staticmethod
    def off_grid(times, k, fault):
        times = list(times)
        if fault == "gap":  # a tick missing before index k
            times[k:] = [t + 3 for t in times[k:]]
        elif fault == "duplicate":
            times[k] = times[k - 1]
        else:  # reversed
            times[k] = times[k - 1] - 1
        return times

    @pytest.mark.parametrize("long_first_row", [False, True], ids=["short-rows", "long-first-row"])
    @pytest.mark.parametrize("chunk", [8, 20, 33, 64])
    def test_parse_and_make_series_agree_at_every_chunk_boundary(self, monkeypatch, chunk,
                                                                 long_first_row):
        # At 8 characters every row is a chunk; a first row longer than a
        # chunk fills one alone, so the grid's second time is in the next.
        monkeypatch.setattr(trade_series, "_CHUNK_CHARS", chunk)
        n = len(self.TIMES)
        cells = [repr(1.5 + i / 8) for i in range(n)]
        if long_first_row:
            cells[0] = "1." + "0" * (2 * chunk) + "1"
        prices, volumes = [float(c) for c in cells], [2.5] * n

        def text(times):
            return "t,price,volume\n" + "".join(f"{t},{p},2.5\n" for t, p in zip(times, cells))

        assert parse_trades(text(self.TIMES), "x") == make_series("x", self.TIMES, prices, volumes)
        for fault in ("gap", "duplicate", "reversed"):
            for k in range(1, n):
                times = self.off_grid(self.TIMES, k, fault)
                kind, message = _outcome(lambda: make_series("x", times, prices, volumes))
                assert kind is NonUniformSpacing
                assert _outcome(lambda: parse_trades(text(times))) == (kind, f"input: {message}")

    @pytest.mark.parametrize("fault, k, message", [
        ("gap", 5, "spacing 6 between t=5 and t=11 differs from epsilon=3"),
        ("duplicate", 1, "tick times must be strictly increasing (duplicate or reversed "
                         "timestamp after t=-7)"),
        ("reversed", 9, "tick times must be strictly increasing (duplicate or reversed "
                        "timestamp after t=17)"),
    ])
    def test_the_first_time_off_the_grid_is_named(self, fault, k, message):
        times = self.off_grid(self.TIMES, k, fault)
        with pytest.raises(NonUniformSpacing, match=f"^{re.escape(message)}$"):
            make_series("x", times, [1.0] * len(times), [1.0] * len(times))

    GAP = (NonUniformSpacing, "input: spacing 2 between t=5 and t=7 differs from epsilon=1")

    @pytest.mark.parametrize("row, price, outcome", [
        (2, "-2.5", GAP), (2, "1e999", GAP), (8, "-2.5", GAP), (8, "+2", GAP),
        (5, "+2", (ParseError, "input: row 6: price '+2' is not a canonical decimal number")),
    ], ids=["earlier-negative", "earlier-infinite", "later-negative", "later-bad-cell",
            "earlier-bad-cell"])
    def test_a_time_off_the_grid_is_named_when_its_chunk_is_read(self, monkeypatch, row, price,
                                                                 outcome):
        # One row a chunk; the gap is in row 7.  It comes before any price
        # rule, and before a bad cell in a later chunk, but not an earlier one.
        monkeypatch.setattr(trade_series, "_CHUNK_CHARS", 8)
        times = [*range(6), *range(7, 11)]
        rows = [f"{t},2.5,1.5" for t in times]
        rows[row] = f"{times[row]},{price},1.5"
        assert _outcome(lambda: parse_trades("\n".join(["t,price,volume", *rows]))) == outcome
        if outcome is self.GAP and "+" not in price:
            prices = [float(r.split(",")[1]) for r in rows]
            assert _outcome(lambda: make_series("x", times, prices, [1.5] * 10)) == (
                NonUniformSpacing, self.GAP[1].removeprefix("input: "))


def _rows(n, first=0):
    """``n`` canonical rows from tick ``first``, about 30 bytes each."""
    return "".join(f"{t},{100 + t % 97 / 8},{1 + t % 13 / 4}\n" for t in range(first, first + n))


def _outcome(parse):
    try:
        return parse()
    except Exception as exc:  # noqa: BLE001 - the outcome is compared as is
        return type(exc), str(exc)


class TestStreamReader:
    """A file, read as a binary stream, against the same text: the same bits
    or the same error, wherever the chunks fall."""

    BIG = _rows(5000)  # 82 KB: a row falls across the first 64 KiB boundary
    CASES = {
        "straddles-a-chunk": "t,price,volume\n" + BIG,
        "row-longer-than-a-chunk": "t,price,volume\n" + _rows(3)
        + "3,1." + "0" * 70_000 + "1,2\n" + _rows(3, 4),
        "no-final-lf": "t,price,volume\n" + BIG.removesuffix("\n"),
        "value-column": "t,price,volume,value\n0,2,1,2\n1,4,2,8\n",
        "cr-in-a-row": "t,price,volume\n" + BIG + "5000,2,1\r\n",
        "cr-in-the-header": "t,price,volume\r\n0,2,1\n",
        "non-ascii-cell": "t,price,volume\n" + BIG + "5000,\u00e9,1\n",
        "bad-row-in-a-later-chunk": "t,price,volume\n" + BIG + "5000,+2,1\n" + _rows(2, 5001),
        "header-only": "t,price,volume\n",
        "header-only-no-lf": "t,price,volume",
        "bad-header": "t,price\n0,1\n",
        "empty": "",
    }
    PARSED = ("straddles-a-chunk", "row-longer-than-a-chunk", "no-final-lf", "value-column")

    @pytest.mark.parametrize("case", CASES)
    def test_file_and_text_agree(self, tmp_path, case):
        text = self.CASES[case]
        if case == "straddles-a-chunk":
            assert "\n" not in text[trade_series._CHUNK_CHARS - 4 : trade_series._CHUNK_CHARS + 4]
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        want = _outcome(lambda: parse_trades(text, "x"))
        with open(path, "rb") as fh:
            got = _outcome(lambda: parse_trades(fh, "x"))
        if case in self.PARSED:
            assert _columns_equal(got, want) and got.asset_id == "x"
        elif case == "non-ascii-cell":  # the same offset; the message names the stream
            offset = len(text) - len("\u00e9,1\n")
            assert want == (ParseError, f"input: byte {offset} is not ASCII")
            assert got == (ParseError, f"{path}: byte {offset} is not ASCII")
        else:  # the same error, each message naming its own stream
            kind, message = want
            assert message.startswith("input: ")
            assert got == (kind, f"{path}: {message.removeprefix('input: ')}")

    def test_a_stream_that_cannot_seek_is_read(self):
        text = self.CASES["straddles-a-chunk"]
        assert _columns_equal(_through_a_pipe(text.encode()), parse_trades(text, "x"))
        # A stream opened from a descriptor is named input.
        data = text.encode() + b"5000,\xff,1\n"
        assert _through_a_pipe(data) == (ParseError, f"input: byte {len(text) + 5} is not ASCII")

    def test_a_source_that_is_not_text_or_a_binary_stream_is_refused(self, tmp_path):
        # Each was a bare AttributeError (readinto or seekable) mid-read.
        text = "t,price,volume\n0,2,1\n"
        path = tmp_path / "in.csv"
        path.write_text(text)
        with open(path) as fh:
            sources = [fh, io.StringIO(text), text.encode()]
            for source in sources:
                name = type(source).__name__
                with pytest.raises(TypeError, match=f"^expected CSV text or a binary stream, "
                                                    f"got {name}$"):
                    parse_trades(source)
            assert fh.tell() == 0 and sources[1].tell() == 0  # nothing was read

    BAD_ROW = "t,price,volume\n0,2,1\n1,+4,1\n"  # row 2 is not canonical

    # The bytes before the first one that is not ASCII, that byte, and the
    # rest.  A bad row comes earlier in each file (the header case has a bad
    # header instead); the first pass reads blocks of 64 bytes.
    @pytest.mark.parametrize("head, tail", [
        (b"t,pr", b"\xe9ce,volume\n0,2,1\n"),
        ((BAD_ROW + "2,").encode(), b"\xff,1\n"),
        ((BAD_ROW + _rows(10, 2) + "12,").encode(), b"\xc3(,1\n"),
        ((BAD_ROW + _rows(10, 2) + "12,2,").encode(), b"\xe2"),
        ((BAD_ROW + "2,").encode(), "\uff11\uff10,1\n".encode()),
    ], ids=["header", "first-block", "later-block", "last-byte", "valid-character"])
    def test_a_byte_that_is_not_ascii_is_named_before_any_bad_row(self, monkeypatch, tmp_path,
                                                                  head, tail):
        monkeypatch.setattr(trade_series, "_COUNT_BYTES", 64)
        path = tmp_path / "in.csv"
        path.write_bytes(head + tail)
        message = f"{path}: byte {len(head)} is not ASCII"
        with open(path, "rb") as fh:
            assert _outcome(lambda: parse_trades(fh)) == (ParseError, message)

    @pytest.mark.parametrize("text, kind, message", [
        ("", EmptyInput, "empty CSV input"),
        ("t,price,volume\n", EmptyInput, "CSV has a header but no rows"),
        ("t,px\n0,1\n", ParseError, "unexpected header 't,px', want 't,price,volume[,value]'"),
        (BAD_ROW, ParseError, "row 2: price '+4' is not a canonical decimal number"),
        ("t,price,volume\n0,2,1\n1,1e999,1\n", ParseError, "price inf at t=1 is not finite"),
        ("t,price,volume\n0,2,1\n1,-4,1\n", NonPositivePrice, "price -4.0 at t=1 must be > 0"),
        ("t,price,volume\n0,2,1\n2,4,1\n3,4,1\n", NonUniformSpacing,
         "spacing 1 between t=2 and t=3 differs from epsilon=2"),
        ("t,price,volume,value\n0,2,1,3\n", ValueMismatch,
         "declared value 3.0 at t=0 deviates from price*volume=2.0 by more than 1e-09 relative"),
    ], ids=["empty", "header-only", "bad-header", "bad-row", "inf-price", "negative-price",
            "gap", "value-mismatch"])
    def test_every_error_names_its_stream_once(self, tmp_path, text, kind, message):
        path = tmp_path / "in.csv"
        path.write_text(text)
        with open(path, "rb") as fh:
            assert _outcome(lambda: parse_trades(fh)) == (kind, f"{path}: {message}")
        assert _outcome(lambda: parse_trades(text)) == (kind, f"input: {message}")

    @pytest.mark.parametrize("cell", ["\uff11\uff10", "\ud800"], ids=["fullwidth-10", "surrogate"])
    def test_text_that_is_not_ascii_is_named_by_its_offset(self, cell):
        head = self.BAD_ROW + "2,"
        assert _outcome(lambda: parse_trades(head + cell + ",1\n")) == (
            ParseError, f"input: byte {len(head.encode())} is not ASCII")


def _through_a_pipe(data: bytes):
    """What ``parse_trades`` makes of ``data`` read from a pipe, which cannot
    seek: the series, or the error's type and message."""
    read, write = os.pipe()

    def send():
        with open(write, "wb") as out:
            out.write(data)

    writer = threading.Thread(target=send)
    writer.start()
    with open(read, "rb") as fh:
        assert not fh.seekable() and fh.name == read
        got = _outcome(lambda: parse_trades(fh, "x"))
    writer.join(timeout=10)
    assert not writer.is_alive()
    return got


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

    def test_a_series_is_not_equal_to_another_type(self):
        s = make_series("x", [0, 1], [2.0, 0.5], [1.0, 3.0])
        assert s.__eq__(object()) is NotImplemented
        assert (s == 1) is False and s != "x"


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

    def test_bounds_are_exact_on_a_wide_grid(self):
        # At steps of 2**51, (lo_t - t0) / eps as a float rounds up to the
        # next whole step when lo_t lies one below a tick.
        eps = 2**51
        s = TradeSeries("s", 0, eps, np.ones(8), np.ones(8))
        assert slice_window(s, 4 * eps - 1, 1).times.tolist() == [3 * eps, 4 * eps]
        for center in (k * eps + d for k in range(-2, 11) for d in (-1, 0, 1)):
            for hw in range(4):
                lo, hi = center - hw * eps, center + hw * eps
                inside = [i for i in range(8) if lo <= s.time_at(i) <= hi]
                got = _outcome(lambda: slice_window(s, center, hw))
                if inside:
                    assert (got.start, got.count) == (inside[0], len(inside)), (center, hw)
                else:
                    assert got[0] is EmptyWindow, (center, hw)

    def test_fractional_half_width(self, five):
        with pytest.raises(LagNotOnGrid):
            slice_window(five, center=2, half_width=0.5)

    def test_numpy_int_center_gives_the_bounds_of_an_int(self):
        # center + hw*eps is past the int64 range: a NumPy int center must
        # not wrap there, but bound the window as the same Python int does.
        s = make_series("a", np.arange(10) * 10**17, np.ones(10), np.ones(10))
        for center in (5 * 10**17, np.int64(5 * 10**17)):
            w = slice_window(s, center, 90)
            assert (w.start, w.count) == (0, 10), type(center)


class TestBoundaryRules:
    """Each refusal of a series or window, by type and whole message."""

    @staticmethod
    def raises(exc, message):
        return pytest.raises(exc, match=f"^{re.escape(message)}$")

    def test_window_of_no_ticks(self):
        s = make_series("s", np.arange(3), [1.0, 2.0, 3.0], np.ones(3))
        with self.raises(EmptyWindow, "window must contain at least one tick"):
            Window(s, start=0, count=0)

    def test_window_before_the_start(self):
        s = make_series("s", np.arange(3), [1.0, 2.0, 3.0], np.ones(3))
        with self.raises(EmptyWindow, "window starts at index -2, before the series start"):
            Window(s, start=-2, count=2)

    @pytest.mark.parametrize("price, volume, message", [
        ([1.0, np.inf, 1.0], [1.0] * 3, "price inf at t=6 is not finite"),
        ([1.0, 1.0, -np.inf], [1.0] * 3, "price -inf at t=7 is not finite"),
        ([1.0, -1.0, np.nan], [1.0] * 3, "price nan at t=7 is not finite"),
        ([1.0, -1.0, 1.0], [1.0, np.nan, 1.0], "volume nan at t=6 is not finite"),
    ])
    def test_a_non_finite_price_or_volume_names_its_tick(self, price, volume, message):
        with self.raises(ParseError, message):
            make_series("s", [5, 6, 7], price, volume)

    def test_window_past_the_end(self):
        s = make_series("s", np.arange(3), [1.0, 2.0, 3.0], np.ones(3))
        with self.raises(EmptyWindow, "window extends past the end of the series"):
            Window(s, start=1, count=3)

    @pytest.mark.parametrize("lag, message", [
        (-1, "lag must be >= 0 grid steps, got -1"),
        (0.5, "lag must be a whole number, got 0.5"),
        (True, "lag must be a whole number, got True"),
    ])
    def test_window_lag_off_the_grid(self, lag, message):
        s = make_series("a", np.arange(4), [1.0, 2.0, 4.0, 3.0], [1.0, 2.0, 1.0, 3.0])
        with self.raises(LagNotOnGrid, message):
            Window(s, start=1, count=2, lag=lag)

    @pytest.mark.parametrize("lag", [1.0, np.int64(1)])
    def test_window_lag_is_stored_as_int(self, lag):
        s = make_series("a", np.arange(4), [1.0, 2.0, 4.0, 3.0], [1.0, 2.0, 1.0, 3.0])
        w = Window(s, start=1, count=2, lag=lag)
        assert w.lag == 1 and type(w.lag) is int
        assert list(w.price) == [1.0, 2.0]

    @pytest.mark.parametrize("start, count, message", [
        (0.5, 2, "start must be a whole number, got 0.5"),
        (True, 2, "start must be a whole number, got True"),
        (0, 2.5, "count must be a whole number, got 2.5"),
        (0, True, "count must be a whole number, got True"),
    ])
    def test_window_start_and_count_off_the_grid(self, start, count, message):
        s = make_series("a", np.arange(4), [1.0, 2.0, 4.0, 3.0], [1.0, 2.0, 1.0, 3.0])
        with self.raises(LagNotOnGrid, message):
            Window(s, start=start, count=count)

    def test_window_start_and_count_are_stored_as_ints(self):
        s = make_series("a", np.arange(4), [1.0, 2.0, 4.0, 3.0], [1.0, 2.0, 1.0, 3.0])
        w = Window(s, start=1.0, count=np.int64(2))
        assert (w.start, w.count) == (1, 2) and type(w.start) is type(w.count) is int
        assert list(w.price) == [2.0, 4.0]

    def test_non_integral_float_times(self):
        with self.raises(ParseError, "tick times must be integers on the grid"):
            make_series("s", [0.0, 1.5], [1.0, 1.0], [1.0, 1.0])

    def test_no_ticks(self):
        with self.raises(EmptyInput, "series must contain at least one tick"):
            make_series("s", [], [], [])

    def test_columns_of_unequal_length(self):
        with self.raises(ParseError, "time/price/volume columns differ in length"):
            make_series("s", [0, 1], [1.0], [1.0, 1.0])

    def test_declared_values_of_another_length(self):
        with self.raises(ParseError, "value column differs in length"):
            make_series("s", [0, 1], [1.0, 2.0], [1.0, 1.0], declared_values=[1.0])

    def test_a_nan_declared_value_is_a_mismatch(self):
        with self.raises(ValueMismatch, "declared value nan at t=1 deviates from "
                                        "price*volume=2.0 by more than 1e-09 relative"):
            make_series("s", [0, 1, 2], [1.0, 2.0, 3.0], [1.0] * 3,
                        declared_values=[1.0, np.nan, 3.0])

    @pytest.mark.parametrize("times", [[3, 3, 4], [3, 2, 1]])
    def test_first_step_not_increasing(self, times):
        with self.raises(NonUniformSpacing, "tick times must be strictly increasing "
                                            "(duplicate or reversed timestamp after t=3)"):
            make_series("s", times, [1.0] * 3, [1.0] * 3)


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
        with pytest.raises(MissingHistory, match="horizon 1 reaches before the start of 'a'"):
            ReturnView(s, 0, 3, alpha=1)
        with pytest.raises(MissingHistory, match="horizon 2 reaches before the start of 'a'"):
            ReturnView(s, 1, 2, lag=1, alpha=2)

    @pytest.mark.parametrize("alpha", [0, 1.5, True, -1])
    def test_horizon_validation(self, alpha):
        s = make_series("a", np.arange(4), np.ones(4), np.ones(4))
        with pytest.raises(LagNotOnGrid, match="^alpha "):
            compute_returns(Window(s, 1, 3), alpha)
        with pytest.raises(LagNotOnGrid, match="^alpha "):
            ReturnView(s, 1, 3, alpha=alpha)

    @given(trade_windows(min_n=1, max_n=24, history=3), st.integers(1, 3))
    def test_value_identity(self, window, alpha):
        rv = compute_returns(window, alpha)
        err = np.max(np.abs(rv.value - rv.r * rv.c_past) / rv.value)
        assert err <= 1e-12

    @pytest.mark.parametrize("prices, volumes, message", [
        ([1e-300, 1e10], [1.0, 1.0],
         "return inf at t=1 over horizon 1 is not a positive normal float"),
        ([1e-200, 1.0], [1.0, 1e-200],
         "past value 0.0 at t=1 over horizon 1 is not a positive normal float"),
    ], ids=["return-overflows", "past-value-underflows"])
    def test_out_of_range_return_or_past_value(self, prices, volumes, message):
        s = make_series("a", [0, 1], prices, volumes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused by the rule, not a numpy warning
            with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
                compute_returns(Window(s, 1, 1), 1)
            with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
                ReturnView(s, 1, 1, alpha=1)
            with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
                build_leg(s, 1, 1, 1)

    def test_leg_builder_refuses_missing_history(self):
        s = make_series("a", np.arange(3), [1.0, 2.0, 4.0], np.ones(3))
        with pytest.raises(MissingHistory, match="horizon 2 reaches before the start of 'a'"):
            build_leg(s, 1, 2, 2)

    def test_fuzz_over_the_float_range_never_fails_the_identity(self):
        # Prices and volumes log-uniform in [1e-300, 1e300]: a return or past
        # value outside the float range is refused by name, and every view
        # accepted keeps value == return * past_value to test_value_identity's
        # bound.
        rng = np.random.default_rng(9)
        refused = accepted = 0
        for _ in range(3000):
            for prices, volumes in 10.0 ** rng.uniform(-300.0, 300.0, (2, 2, 5)):
                try:
                    s = make_series("a", np.arange(5), prices, volumes)
                except ParseError:
                    continue
                try:
                    rv = compute_returns(Window(s, 1, 4), 1)
                except ParseError:
                    refused += 1
                else:
                    accepted += 1
                    assert np.max(np.abs(rv.value - rv.r * rv.c_past) / rv.value) <= 1e-12
        assert refused > 0 and accepted > 0


class TestReturnView:
    """A return view is its window read over a horizon: a frozen ``Window``
    with one more field, ``alpha``."""

    @pytest.fixture
    def series(self):
        return make_series("a", np.arange(5), [1.0, 2.0, 4.0, 2.0, 8.0],
                           [1.0, 1.0, 1.0, 2.0, 0.5])

    def test_equality(self, series):
        w = Window(series, 2, 3)
        rv = compute_returns(w, 1)
        assert rv == compute_returns(w, 1)
        assert rv == ReturnView(series, 2.0, 3, alpha=1.0)
        assert rv != compute_returns(w, 2)
        assert rv != compute_returns(Window(series, 2, 3, lag=1), 1)
        assert rv != w and w != rv

    def test_window_rules_come_first(self, series):
        with pytest.raises(EmptyWindow):
            ReturnView(series, 3, 3, alpha=1)
        with pytest.raises(LagNotOnGrid, match="^lag "):
            ReturnView(series, 2, 3, lag=0.5, alpha=1)

    def test_arrays_are_not_arguments(self, series):
        with pytest.raises(TypeError):
            ReturnView(series, 2, 3, alpha=1, r=np.ones(3))
        with pytest.raises(TypeError):
            ReturnView(series, 2, 3, alpha=1, _leg=None)
        with pytest.raises(TypeError):
            ReturnView(series, 2, 3)  # alpha has no default
        with pytest.raises(TypeError):
            ReturnView(series, 2, 3, 0, 1)  # alpha is keyword-only

    def test_frozen_and_read_only(self, series):
        rv = ReturnView(series, 2, 3, alpha=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rv.alpha = 2
        for arr in (rv.value, rv.c_past, rv.r):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize("lag", [0, 1])
    def test_reads_its_own_window(self, series, lag):
        w = Window(series, 3, 2, lag=lag)
        rv = compute_returns(w, 1)
        assert isinstance(rv, Window) and (rv.lag, rv.alpha) == (lag, 1)
        for name in ("times", "price", "volume", "value"):
            assert np.array_equal(getattr(rv, name), getattr(w, name)), name
        assert (len(rv), rv.asset_id, rv.t_center) == (len(w), w.asset_id, w.t_center)
        then = series.price[2 - lag : 4 - lag]
        assert np.array_equal(rv.r, w.price / then)
        assert np.array_equal(rv.c_past, then * w.volume)


@pytest.mark.parametrize("build", [
    lambda s: s, lambda s: Window(s, 2, 3), lambda s: compute_returns(Window(s, 2, 3), 1),
], ids=["TradeSeries", "Window", "ReturnView"])
def test_value_types_are_not_hashable(build):
    # Each compares its arrays by value, which a hash could not follow.
    value = build(make_series("a", np.arange(5), [1.0, 2.0, 4.0, 2.0, 8.0], [1.0] * 5))
    assert type(value).__hash__ is None
    with pytest.raises(TypeError, match=f"^unhashable type: '{type(value).__name__}'$"):
        hash(value)
