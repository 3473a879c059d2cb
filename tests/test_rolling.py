import functools
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import INT64_END_GRIDS
from direct import direct_values, returns_of
from exact import EPS, Leg, errors, scales, values
from mbstat import (
    SynthConfig,
    Window,
    collect_rolling_stats,
    gen_trades,
    iter_rolling_stats,
    make_plan,
    make_series,
    mb_corr_prices,
    mb_price_volatility,
)
from mbstat import market_core, rolling
from mbstat.errors import (DegenerateDenominator, InvalidConfig, MissingHistory,
                           NonUniformSpacing, ParseError)
from mbstat.market_core import FAMILY_LEGS, average_slots, window_layout
from mbstat.oracle import relative_deviation
from mbstat.rolling import FAMILIES, RollingPlan


def synth_pair(n, seed=100, **kw):
    s1 = gen_trades(SynthConfig(n_ticks=n, seed=seed, **kw), asset_id="one")
    s2 = gen_trades(SynthConfig(n_ticks=n, seed=seed + 1, **kw), asset_id="two")
    return s1, s2


class TestPlan:
    def test_geometry(self):
        s1, s2 = synth_pair(100)
        plan = make_plan(s1, s2, window=10, stride=3, alpha=2, beta=4)
        assert plan.n_positions == (plan.length - 10) // 3 + 1
        # history for the largest lag is reserved in front of every window
        assert plan.start_index1(0) >= 2
        assert plan.start_index2(0) >= 4

    def test_time_offsets(self):
        s1 = make_series("a", np.arange(10), np.ones(10) * 2, np.ones(10))
        s2 = make_series("b", np.arange(4, 14), np.ones(10) * 3, np.ones(10))
        plan = make_plan(s1, s2, window=3, families=("price_corr",), beta=0)
        assert plan.t_origin == 4
        assert plan.start_index1(0) == 4
        assert plan.start_index2(0) == 0
        assert plan.t_center(0) == 5.0

    def test_requires_matching_epsilon(self):
        s1 = make_series("a", [0, 1, 2], [1, 2, 3], [1, 1, 1])
        s2 = make_series("b", [0, 2, 4], [1, 2, 3], [1, 1, 1])
        with pytest.raises(NonUniformSpacing):
            make_plan(s1, s2, window=2, families=("price_corr",), beta=0)

    def test_requires_grid_alignment(self):
        s1 = make_series("a", [0, 2, 4], [1, 2, 3], [1, 1, 1])
        s2 = make_series("b", [1, 3, 5], [1, 2, 3], [1, 1, 1])
        with pytest.raises(NonUniformSpacing):
            make_plan(s1, s2, window=2, families=("price_corr",), beta=0)

    def test_no_overlap(self):
        s1 = make_series("a", [0, 1, 2], [1, 2, 3], [1, 1, 1])
        s2 = make_series("b", [10, 11, 12], [1, 2, 3], [1, 1, 1])
        with pytest.raises(MissingHistory):
            make_plan(s1, s2, window=2, families=("price_corr",), beta=0)

    def test_insufficient_history(self):
        s1, s2 = synth_pair(6)
        with pytest.raises(MissingHistory):
            make_plan(s1, s2, window=3, alpha=5, families=("return_corr",), beta=1)

    @pytest.mark.parametrize("argument, value", [
        ("window", 8.5), ("window", True), ("stride", 1.5), ("alpha", 1.5), ("beta", 0.5),
    ])
    def test_a_step_argument_must_be_a_whole_number(self, argument, value):
        s1, s2 = synth_pair(20)
        request = {"window": 8, "alpha": 1, "beta": 1, argument: value}
        with pytest.raises(InvalidConfig, match=re.escape(
                f"{argument} must be a whole number, got {value!r}") + "$"):
            make_plan(s1, s2, **request)

    def test_integral_float_steps_are_stored_as_ints(self):
        s1, s2 = synth_pair(20)
        plan = make_plan(s1, s2, window=8.0, stride=2.0, alpha=1.0, beta=np.int64(1))
        assert [plan.window, plan.stride, plan.alpha, plan.beta] == [8, 2, 1, 1]
        assert {type(n) for n in (plan.window, plan.stride, plan.alpha, plan.beta)} == {int}
        assert plan == make_plan(s1, s2, window=8, stride=2, alpha=1, beta=1)

    def test_flag_validation(self):
        s1, s2 = synth_pair(20)
        with pytest.raises(InvalidConfig):
            make_plan(s1, s2, window=0)
        with pytest.raises(InvalidConfig):
            make_plan(s1, s2, window=4, stride=0)
        with pytest.raises(InvalidConfig):
            make_plan(s1, s2, window=4, families=("nope",))
        with pytest.raises(InvalidConfig):
            make_plan(s1, s2, window=4, families=("return_corr",), alpha=0, beta=1)
        with pytest.raises(InvalidConfig):
            make_plan(s1, s2, window=4, families=("price_return_corr",), beta=0)

    def test_no_families_is_invalid_config(self):
        s1, s2 = synth_pair(20)
        with pytest.raises(InvalidConfig, match="^at least one stat family is required$"):
            make_plan(s1, s2, window=4, families=())

    @pytest.mark.parametrize("lags", [{"alpha": -1}, {"beta": -1}])
    def test_negative_lag_is_invalid_config(self, lags):
        s1, s2 = synth_pair(20)
        with pytest.raises(InvalidConfig, match="lags must be >= 0"):
            make_plan(s1, s2, window=4, families=("price_corr",), **lags)

    @pytest.mark.parametrize("window, stride, layout", [
        (256, 1, (4096, 1)), (2, 1, (191, 1)),  # the 4096 cap; a tiny window's short block
        (1024, 256, (80, 256)), (96, 64, (102, 32)), (64, 4, (1327, 4)),  # segments of g >= 4
        (96, 65, (100, 1)), (64, 6, (885, 1)),  # g = 1 and g = 2: tick sums
        (64, 128, (42, 64)),  # stride past the window: one segment per window
        (256, 100000, (1, 32)),  # a stride past any span: one position per block
    ])
    def test_window_layout(self, window, stride, layout):
        """The kernel's layout, ``(anchor, segment)``, and the plan reads it
        as it is."""
        assert window_layout(window, stride) == layout
        s1, s2 = synth_pair(window + 1)
        plan = make_plan(s1, s2, window=window, stride=stride, families=("price_corr",))
        assert (plan.anchor, plan.segment) == layout

    @pytest.fixture(scope="class")
    def pair_plan(self):
        """The 2,000-tick pair at window 64, stride 6: anchor 885, tick sums,
        323 positions over 1,999 ticks."""
        s1, s2 = synth_pair(2000, seed=1)
        plan = make_plan(s1, s2, window=64, stride=6, alpha=1, beta=1)
        assert (plan.anchor, plan.segment, plan.n_positions, plan.length) == (885, 1, 323, 1999)
        return s1, s2, plan

    def test_a_replaced_stride_rederives_the_layout(self, pair_plan):
        s1, s2, plan = pair_plan
        plan = replace(plan, stride=4)
        assert (plan.anchor, plan.segment, plan.n_positions) == (1327, 4, 484)
        assert len(collect_rolling_stats(s1, s2, plan)) == 484

    def test_a_replaced_length_rederives_the_positions(self, pair_plan):
        assert replace(pair_plan[2], length=1899).n_positions == 306

    @pytest.mark.parametrize("derived", ["n_positions", "anchor", "segment"])
    def test_derived_values_are_not_fields(self, pair_plan, derived):
        with pytest.raises(TypeError):
            replace(pair_plan[2], **{derived: 4})

    def test_a_plan_keeps_ten_fields(self):
        assert len(fields(RollingPlan)) == 10


def family_floor(arrays, i):
    """Natural magnitude of one record's statistic: the product of its two
    market averages (unused average slots hold zero)."""
    a1 = float(arrays["a1"][i])
    a2 = float(arrays["a2"][i])
    h1 = float(arrays["h1"][i])
    h2 = float(arrays["h2"][i])
    return abs(a1 * a2) + abs(h1 * h2) + abs(a1 * h2)


class TestEngineMatchesDirect:
    def test_every_position_small(self):
        s1, s2 = synth_pair(400, price_start=10.0, log_price_step_sd=0.03)
        plan = make_plan(s1, s2, window=16, stride=1, alpha=1, beta=2)
        merged = collect_rolling_stats(s1, s2, plan)
        assert len(merged) == plan.n_positions
        for i in range(plan.n_positions):
            expect = direct_values(s1, s2, plan, i)
            for family in FAMILIES:
                arrays = merged.families[family]
                floor = family_floor(arrays, i)
                em, ef = expect[family]
                assert relative_deviation(
                    float(arrays["market_value"][i]), em, floor
                ) <= 1e-9, family
                assert relative_deviation(
                    float(arrays["frequency_value"][i]), ef, floor
                ) <= 1e-9, family

    def test_multi_block_positions(self):
        # enough positions to cross several anchor blocks for a small window
        s1, s2 = synth_pair(9000, log_price_step_sd=0.005)
        plan = make_plan(s1, s2, window=8, stride=1, alpha=1, beta=1)
        assert plan.anchor < plan.n_positions  # really multi-block
        merged = collect_rolling_stats(s1, s2, plan)
        boundary = [0, plan.anchor - 1, plan.anchor, 2 * plan.anchor - 1,
                    2 * plan.anchor, plan.n_positions - 1]
        sampled = sorted(set(boundary) | set(range(0, plan.n_positions, 251)))
        for i in sampled:
            expect = direct_values(s1, s2, plan, i)
            for family in FAMILIES:
                arrays = merged.families[family]
                market = float(arrays["market_value"][i])
                em, _ = expect[family]
                floor = family_floor(arrays, i)
                assert relative_deviation(market, em, floor) <= 1e-9, (family, i)

    def test_stride(self):
        s1, s2 = synth_pair(200)
        plan = make_plan(s1, s2, window=10, stride=7, alpha=1, beta=1)
        merged = collect_rolling_stats(s1, s2, plan)
        for i in [0, 1, plan.n_positions - 1]:
            expect = direct_values(s1, s2, plan, i)
            arrays = merged.families["price_corr"]
            market = float(arrays["market_value"][i])
            floor = family_floor(arrays, i)
            assert relative_deviation(market, expect["price_corr"][0], floor) <= 1e-9


class TestChunking:
    def test_streaming_equals_collected(self):
        s1, s2 = synth_pair(9000)
        plan = make_plan(s1, s2, window=8, stride=2, alpha=1, beta=1,
                         families=("price_corr", "return_vol"))
        merged = collect_rolling_stats(s1, s2, plan)
        total = 0
        for chunk in iter_rolling_stats(s1, s2, plan):
            for family in plan.families:
                for key, arr in chunk.families[family].items():
                    expect = merged.families[family][key][total : total + len(chunk)]
                    assert np.array_equal(arr, expect)
            total += len(chunk)
        assert total == plan.n_positions

    def test_deterministic(self):
        s1, s2 = synth_pair(500)
        plan = make_plan(s1, s2, window=12, alpha=1, beta=1)
        a = collect_rolling_stats(s1, s2, plan)
        b = collect_rolling_stats(s1, s2, plan)
        for family in plan.families:
            for key in a.families[family]:
                assert np.array_equal(a.families[family][key], b.families[family][key])

    def test_a_chunk_compares_and_hashes_by_identity(self):
        s1, s2 = synth_pair(100)
        plan = make_plan(s1, s2, window=12, alpha=1, beta=1)
        a = collect_rolling_stats(s1, s2, plan)
        b = collect_rolling_stats(s1, s2, plan)
        assert a == a and a != b  # equal contents, two chunks
        assert {a: 1, b: 2}[a] == 1

    def test_all_outputs_finite(self):
        s1, s2 = synth_pair(300, volume_log_sd=1.0)
        plan = make_plan(s1, s2, window=9, alpha=2, beta=3)
        merged = collect_rolling_stats(s1, s2, plan)
        for family in plan.families:
            for key, arr in merged.families[family].items():
                assert np.all(np.isfinite(arr)), (family, key)

    def test_t_center_matches_plan(self):
        s1, s2 = synth_pair(60)
        plan = make_plan(s1, s2, window=5, stride=3, alpha=1, beta=1)
        merged = collect_rolling_stats(s1, s2, plan)
        for i in range(plan.n_positions):
            assert merged.t_center[i] == plan.t_center(i)

    def test_mirrored_products_are_one_pass(self, monkeypatch):
        # (W_p1,D_p1)/(D_p1,W_p1) and (W_r1,D_r1)/(D_r1,W_r1) are one window sum
        # each: 12 means of the four legs' shifted arrays and 23 products, 35
        # sums that take 18 passes of two lanes (the last one alone).  So too
        # at window 1024, stride 256, where a window sum reads segment sums.
        # A per-window report takes its 19 sums in 10 passes, a volatility
        # its 7 in 4.
        passes = 0
        window_sums = market_core.window_means

        def counting(*args):
            nonlocal passes
            passes += 1
            return window_sums(*args)

        monkeypatch.setattr(market_core, "window_means", counting)
        for n_ticks, window, stride in ((9000, 8, 1), (23000, 1024, 256)):
            s1, s2 = synth_pair(n_ticks)
            plan = make_plan(s1, s2, window=window, stride=stride, alpha=1, beta=1)
            passes = 0
            blocks = sum(1 for _ in iter_rolling_stats(s1, s2, plan))
            assert blocks > 1
            assert passes == 18 * blocks
        w1, w2 = Window(s1, 0, 30), Window(s2, 0, 30)
        for fn, args, want in ((mb_corr_prices, (w1, w2), 10), (mb_price_volatility, (w1,), 4)):
            passes = 0
            fn(*args)
            assert passes == want, fn.__name__

    @pytest.mark.parametrize("window, stride", [(256, 1), (64, 3), (96, 64), (1, 7)])
    def test_a_family_is_the_same_whatever_shares_its_passes(self, window, stride):
        # The kernel sums two means per pass, so a sum's lane partner depends
        # on which families are asked for.  Each family's records are the same
        # bytes alone, beside others with an odd or an even number of sums,
        # and among all seven (at 256/1 over two anchor blocks; at 64/3
        # g = 1, at 96/64 g = 32 segment sums).  Every request runs the
        # all-family plan's windows and blocks, so that only the passes differ.
        s1, s2 = synth_pair(5000)
        plan = make_plan(s1, s2, window=window, stride=stride, alpha=1, beta=1)
        requests = [FAMILIES, *((family,) for family in FAMILIES),
                    ("price_corr", "return_corr"), ("price_corr", "return_vol"),
                    ("price_return_corr", "price_vol", "joint_return_moment")]
        sums = [len({spec for family in families
                     for spec in market_core.sum_specs(*FAMILY_LEGS[family]).values()})
                for families in requests[len(FAMILIES) + 1 :]]
        assert {count % 2 for count in sums} == {0, 1}, sums
        runs = {families: collect_rolling_stats(s1, s2, replace(plan, families=families))
                for families in requests}
        for families, run in runs.items():
            for family in families:
                for key, arr in run.families[family].items():
                    want = runs[FAMILIES].families[family][key]
                    assert arr.tobytes() == want.tobytes(), (families, family, key)

    def test_shared_slots_are_one_array(self):
        # Dense 5k-tick pair, window 256, stride 1, all families: of a chunk's
        # 78 slots (t_center and 11 per family) 43 are distinct arrays, and no
        # two of those hold the same bytes.
        s1, s2 = synth_pair(5000, price_start=100.0, log_price_step_sd=3e-3, volume_log_sd=0.4)
        plan = make_plan(s1, s2, window=256, stride=1, alpha=1, beta=1)
        chunk = next(iter_rolling_stats(s1, s2, plan))
        f = chunk.families
        slots = [chunk.t_center, *(arr for arrays in f.values() for arr in arrays.values())]
        assert len(slots) == 78
        assert len({id(arr) for arr in slots}) == len({arr.tobytes() for arr in slots}) == 43
        # one zero array for every unused average slot
        zeros = f["price_corr"]["h1"]
        assert not zeros.any()
        assert all(f[family][slot] is zeros for family in f for slot in ("a1", "a2", "h1", "h2")
                   if slot not in average_slots(family))
        # one average array per leg, whichever pairs read it
        p1, p2 = f["price_corr"]["a1"], f["price_corr"]["a2"]
        r1, r2 = f["return_corr"]["h1"], f["return_corr"]["h2"]
        assert f["price_return_corr"]["a1"] is f["price_vol"]["a1"] is f["price_vol"]["a2"] is p1
        assert f["return_vol"]["h1"] is f["return_vol"]["h2"] is r1
        assert f["price_return_corr"]["h2"] is r2
        assert f["joint_price_moment"]["a1"] is p1 and f["joint_price_moment"]["a2"] is p2
        assert f["joint_return_moment"]["h1"] is r1 and f["joint_return_moment"]["h2"] is r2
        # a leg paired with itself has one cross covariance
        assert f["price_vol"]["cov_cu"] is f["price_vol"]["cov_uc"]
        assert f["return_vol"]["cov_cu"] is f["return_vol"]["cov_uc"]
        # a joint moment reads its correlation's denominator and covariances
        for joint, corr in (("joint_price_moment", "price_corr"),
                            ("joint_return_moment", "return_corr")):
            for key in ("denominator", "cov_cc", "cov_uc", "cov_cu", "cov_ww"):
                assert f[joint][key] is f[corr][key], (joint, key)


    def test_one_chunk_collect_shares_no_array(self):
        # A 300-tick pair at window 16 is one anchor block.  The collected
        # result is fresh arrays, so writing one record leaves the others as
        # they were, as a multi-chunk result always did.
        s1, s2 = synth_pair(300)
        plan = make_plan(s1, s2, window=16, alpha=1, beta=1)
        (chunk,) = iter_rolling_stats(s1, s2, plan)
        merged = collect_rolling_stats(s1, s2, plan)
        assert merged.legs is None and merged.first_position == 0
        slots = [merged.t_center,
                 *(arr for arrays in merged.families.values() for arr in arrays.values())]
        assert len(slots) == 78
        assert not any(np.shares_memory(a, b) for i, a in enumerate(slots) for b in slots[:i])
        assert np.array_equal(merged.t_center, chunk.t_center)
        for family in plan.families:
            assert merged.families[family].keys() == chunk.families[family].keys()
            for key, arr in chunk.families[family].items():
                assert np.array_equal(merged.families[family][key], arr), (family, key)


class TestLegSequences:
    """The arrays the engine reads, windowed, are the per-window legs bit for bit."""

    @pytest.mark.parametrize("families", [("price_corr",), ("return_corr",),
                                          ("price_return_corr",), ("return_vol",), FAMILIES],
                             ids=lambda fs: ",".join(fs) if len(fs) == 1 else "all")
    @pytest.mark.parametrize("alpha, beta", [(1, 1), (3, 2)])
    def test_windows_match_direct_legs(self, alpha, beta, families):
        s1, s2 = synth_pair(90)
        s2 = make_series("two", s2.t + 4, s2.price, s2.volume)  # the grids start apart
        plan = make_plan(s1, s2, window=16, stride=5, alpha=alpha, beta=beta, families=families)
        sequences = rolling.leg_sequences(s1, s2, plan)
        assert set(sequences) == {leg for f in families for leg in rolling.FAMILY_LEGS[f]}
        n = plan.window
        for position in (0, plan.n_positions // 2, plan.n_positions - 1):
            i1, i2 = plan.start_index1(position), plan.start_index2(position)
            direct = {
                "p1": lambda: Window(s1, i1, n),
                "p2": lambda: Window(s2, i2, n, lag=beta),
                "r1": lambda: returns_of(s1, i1, n, alpha),
                "r2": lambda: returns_of(s2, i2, n, beta),
            }
            lo = position * plan.stride
            for leg, (_, w, x) in sequences.items():
                src = direct[leg]()
                want = (src.price, src.volume) if leg[0] == "p" else (src.r, src.c_past)
                assert x[lo : lo + n].tobytes() == want[0].tobytes(), (leg, position)
                assert w[lo : lo + n].tobytes() == want[1].tobytes(), (leg, position)


    @pytest.mark.parametrize("stride", [1, 5, 40])
    def test_each_block_reads_its_span_of_the_legs(self, stride):
        s1, s2, plan = _guard_plan(8, stride, 2, FAMILIES)
        whole = rolling.leg_sequences(s1, s2, plan)
        for chunk in iter_rolling_stats(s1, s2, plan):
            lo = chunk.first_position * stride
            span = slice(lo, lo + (len(chunk) - 1) * stride + plan.window)
            assert list(chunk.legs) == list(whole)
            for leg, arrays in chunk.legs.items():
                assert [a.tobytes() for a in arrays] == [a[span].tobytes() for a in whole[leg]]
            assert np.shares_memory(chunk.legs["p1"][2], s1.price)  # a price leg is a view

    @pytest.mark.parametrize("prices, volumes, message", [
        ([1e-300, 1e10], [1.0, 1.0],
         "return inf at t=1 over horizon 1 is not a positive normal float"),
        ([1e-200, 1.0], [1.0, 1e-200],
         "past value 0.0 at t=1 over horizon 1 is not a positive normal float"),
    ], ids=["return-overflows", "past-value-underflows"])
    def test_out_of_range_leg_is_refused_by_name(self, prices, volumes, message):
        s = make_series("a", [0, 1], prices, volumes)
        plan = make_plan(s, s, window=1, alpha=1, families=("return_vol",))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused by the rule, not a numpy warning
            with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
                collect_rolling_stats(s, s, plan)

    def test_first_bad_leg_in_leg_order_is_named(self):
        bad = make_series("b", [0, 1], [1e-300, 1e10], [1.0, 1.0])  # return inf
        worse = make_series("w", [0, 1], [1e-200, 1.0], [1.0, 1e-200])  # past value 0.0
        plan = make_plan(worse, bad, window=1, alpha=1, beta=1, families=("return_corr",))
        with pytest.raises(ParseError, match="^past value 0.0 at t=1"):
            rolling.leg_sequences(worse, bad, plan)
        with pytest.raises(ParseError, match="^return inf at t=1"):
            rolling.leg_sequences(bad, worse, plan)

    def test_a_bad_leg_is_refused_when_its_block_is_reached(self):
        # Legs are built per anchor block: a bad r2 return in the first block
        # is named before a bad r1 return in the second, and the first
        # block's chunk is out before a bad return in a later block.
        n = 1200
        prices = np.ones((2, n))
        prices[0, 499], prices[0, 500] = 1e-300, 1e10  # r1 = inf at t=500
        prices[1, 99], prices[1, 100] = 1e-300, 1e10  # r2 = inf at t=100
        s1, s2 = (make_series(name, np.arange(n), p, np.ones(n)) for name, p in
                  zip(("one", "two"), prices))
        plan = make_plan(s1, s2, window=4, stride=1, alpha=1, beta=1, families=("return_corr",))
        assert 100 < plan.anchor < 500
        with pytest.raises(ParseError, match="^return inf at t=100 "):
            list(iter_rolling_stats(s1, s2, plan))
        chunks = iter_rolling_stats(s1, s1, plan)
        assert next(chunks).first_position == 0
        with pytest.raises(ParseError, match="^return inf at t=500 "):
            next(chunks)

    def test_ticks_no_window_reads_are_not_refused(self):
        # Window 4 at stride 3 over the 11 ticks after the first reads ticks
        # 1 to 10; the return at tick 11 overflows, but no statistic reads it.
        prices = [1.0] * 11 + [1e10]
        prices[10] = 1e-300
        s = make_series("a", np.arange(12), prices, [1.0] * 12)
        plan = make_plan(s, s, window=4, stride=3, alpha=1, beta=1, families=("return_vol",))
        assert (plan.n_positions - 1) * plan.stride + plan.window == plan.length - 1
        assert len(collect_rolling_stats(s, s, plan)) == plan.n_positions
        with pytest.raises(ParseError, match="^return inf at t=11 "):
            rolling.leg_sequences(s, s, plan)


@functools.lru_cache(maxsize=None)
def _guard_pair(n_ticks):
    return synth_pair(n_ticks, seed=300, price_start=1e4, log_price_step_sd=1e-3)


def _guard_plan(window, stride, lag, families):
    """A plan of at least three anchor blocks, the last one partial (unless a
    block is one position)."""
    anchor, _ = window_layout(window, stride)
    positions = 2 * anchor + (anchor + 1) // 2
    s1, s2 = _guard_pair(window + (positions - 1) * stride + lag)
    plan = make_plan(s1, s2, window=window, stride=stride, alpha=lag, beta=lag,
                     families=families)
    assert plan.n_positions > 2 * plan.anchor, plan
    assert plan.n_positions % plan.anchor or plan.anchor == 1, plan
    return s1, s2, plan


def _outcome(run):
    try:
        return run()
    except Exception as exc:  # noqa: BLE001 - the outcome is compared as is
        return type(exc), str(exc)


RECORD_KEYS = ["market_value", "frequency_value", "a1", "a2", "h1", "h2", "denominator",
               "cov_cc", "cov_uc", "cov_cu", "cov_ww"]

# Bounds against the exact reference, relative to each field's scale
# (``exact.scales``): max(|value|, S) for the market and frequency values,
# max(|cov|, sqrt(var*var)) for a covariance, |value| for an average and the
# denominator.  Measured worst over every plan below: 1.2e-10 for the values
# (price_vol frequency at windows 4 and 256; value-relative the same),
# 6.8e-13 for the other fields (value-relative 1.3e-12); at window 1 the
# covariances and the non-joint values are exactly 0 (TestWindowOneIsExact).
VALUE_BOUND, FIELD_BOUND = 1e-9, 1e-11


class TestExactReferenceGuard:
    """Every chunk of the engine against the exact-rational reference, at each
    anchor block's first and last position."""

    FAMILY_SETS = [FAMILIES, ("joint_price_moment",), ("price_corr", "joint_price_moment"),
                   ("return_vol",)]

    @pytest.mark.parametrize("families", FAMILY_SETS, ids=lambda fs: ",".join(fs))
    @pytest.mark.parametrize("lag", [1, 3])
    @pytest.mark.parametrize("stride", [1, 7, 256])
    @pytest.mark.parametrize("window", [1, 4, 10, 256])  # 10: 1/n is inexact
    def test_engine_matches_exact_reference(self, window, stride, lag, families):
        s1, s2, plan = _guard_plan(window, stride, lag, families)
        sequences = rolling.leg_sequences(s1, s2, plan)
        chunks = list(iter_rolling_stats(s1, s2, plan))
        assert len(chunks) >= 3
        for c0, chunk in zip(range(0, plan.n_positions, plan.anchor), chunks):
            k = min(plan.anchor, plan.n_positions - c0)
            assert chunk.first_position == c0
            assert chunk.t_center.tobytes() == plan.t_center(c0 + np.arange(k)).tobytes()
            assert list(chunk.families) == list(plan.families)
            for family, arrays in chunk.families.items():
                assert list(arrays) == RECORD_KEYS
                assert all(a.dtype == np.float64 and a.shape == (k,) for a in arrays.values())
                slot1, slot2 = average_slots(family)
                for slot in {"a1", "a2", "h1", "h2"} - {slot1, slot2}:
                    assert not arrays[slot].any(), (family, slot)
            for j in (0, k - 1):
                lo = (c0 + j) * stride
                legs = {leg: Leg(*(a[lo : lo + window] for a in arrays))
                        for leg, arrays in sequences.items()}
                for family, arrays in chunk.families.items():
                    for field, (scaled, _) in _exact_errors(legs, family, arrays, j).items():
                        bound = VALUE_BOUND if field.endswith("_value") else FIELD_BOUND
                        assert scaled <= bound, (family, c0 + j, field, scaled)

    def test_one_closed_form_per_leg_pair(self, monkeypatch):
        # seven families over five leg pairs: the joint moments reuse the
        # closed form of their correlation
        s1, s2, plan = _guard_plan(8, 1, 1, FAMILIES)
        calls = []
        form = market_core.closed_form

        def counting(family, *args):
            calls.append(family)
            return form(family, *args)

        monkeypatch.setattr(market_core, "closed_form", counting)
        blocks = sum(1 for _ in iter_rolling_stats(s1, s2, plan))
        assert blocks >= 3
        assert calls == ["price_corr", "return_corr", "price_return_corr", "price_vol",
                         "return_vol"] * blocks

    @pytest.mark.parametrize("families, named", [
        (("price_corr", "joint_price_moment"), "price_corr"),
        (("joint_price_moment", "price_corr"), "joint_price_moment"),
        (("joint_price_moment",), "joint_price_moment"),
    ])
    def test_degenerate_shared_carrier_error_unchanged(self, families, named):
        # volumes near 1e-160 put jm(U1, U2) near 1e-320, below DENOM_FLOOR
        n = 40
        rng = np.random.default_rng(7)
        s1, s2 = (make_series(name, np.arange(n), 100.0 + rng.random(n),
                              1e-160 * (1.0 + rng.random(n))) for name in ("one", "two"))
        plan = make_plan(s1, s2, window=8, stride=1, families=families)
        got = _outcome(lambda: list(iter_rolling_stats(s1, s2, plan)))
        assert got[0] is DegenerateDenominator
        prefix, suffix = f"{named}: carrier joint moment ", " is too small to divide by"
        assert got[1].startswith(prefix) and got[1].endswith(suffix)
        # the smallest of the first block's denominators, which underflow
        sequences = rolling.leg_sequences(s1, s2, plan)
        lowest = min(values("price_corr", Leg(*(a[i : i + 8] for a in sequences["p1"])),
                            Leg(*(a[i : i + 8] for a in sequences["p2"])))["denominator"]
                     for i in range(plan.n_positions))
        shown = float(got[1][len(prefix) : -len(suffix)])
        assert shown <= 1e-300 and abs(shown - float(lowest)) <= 1e-3 * float(lowest) + 5e-324


class TestWindowOneIsExact:
    """A one-tick window has no spread: its means are the tick's own values,
    so every covariance, and each non-joint family's market and frequency
    value, is exactly 0, not rounding noise."""

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("lag", [1, 3])
    def test_every_covariance_is_exactly_zero(self, stride, lag):
        s1, s2 = _guard_pair(3000)
        plan = make_plan(s1, s2, window=1, stride=stride, alpha=lag, beta=lag, families=FAMILIES)
        positions = 0
        for chunk in iter_rolling_stats(s1, s2, plan):
            for family, arrays in chunk.families.items():
                keys = ["cov_cc", "cov_uc", "cov_cu", "cov_ww"]
                if family not in market_core.JOINT_FAMILIES:
                    keys += ["market_value", "frequency_value"]
                for key in keys:
                    assert not arrays[key].any(), (family, key, chunk.first_position)
            positions += len(chunk)
        assert positions == plan.n_positions > 2 * plan.anchor


def _exact_errors(legs, family, arrays, j):
    """Per field, the error of chunk position ``j`` against the exact value
    over the position's ``legs``.  A one-tick window has no covariance (``S``
    is 0), so its fields are measured against the magnitudes they are built
    from."""
    leg1, leg2 = (legs[leg] for leg in FAMILY_LEGS[family])
    exact = values(family, leg1, leg2)
    slot1, slot2 = average_slots(family)
    got = {key: arrays[key][j] for key in RECORD_KEYS if key[0] not in "ah"}
    got.update(g1=arrays[slot1][j], g2=arrays[slot2][j])
    return errors(got, exact, scales(leg1, leg2, exact, 1.0 if leg1.n == 1 else EPS**2))


_EPOCH_NS = 1_700_000_000_000_000_000  # 2023-11-14, in nanoseconds since 1970


def _check_centers(s, window, stride):
    """Every window's center, from the rolling engine, its plan and a
    ``Window`` with the report over it, is ``(t_first + t_last) / 2`` of the
    int tick times, which Python rounds once to the nearest double."""
    plan = make_plan(s, s, window=window, stride=stride, families=("price_corr",))
    firsts = [s.time_at(p * stride) for p in range(plan.n_positions)]
    want = [(t + t + (window - 1) * s.epsilon) / 2 for t in firsts]
    chunks = list(iter_rolling_stats(s, s, plan))
    assert np.concatenate([c.t_center for c in chunks]).tolist() == want
    centers = [plan.t_center(p) for p in range(plan.n_positions)]
    assert centers == want and {type(c) for c in centers} == {float}
    windows = [Window(s, p * stride, window) for p in range(plan.n_positions)]
    assert [w.t_center for w in windows] == want
    assert [mb_corr_prices(w, w).t_center for w in windows] == want


class TestExactCenters:
    """Tick times past 2**53 are not all doubles, and a window's center is
    the double nearest its midpoint on both paths, at every position."""

    # The doubles near 1.7e18 are 256 apart: a start 97 past one is not a
    # double, and rounds 97 down, so the grid's times round both ways.
    @pytest.mark.parametrize("start", [_EPOCH_NS, _EPOCH_NS + 97], ids=["1.7e18", "1.7e18+97"])
    @pytest.mark.parametrize("step", [1, 10**3, 10**6], ids=["1ns", "1us", "1ms"])
    @pytest.mark.parametrize("window, stride", [(1, 1), (2, 1), (256, 1), (64, 7)])
    def test_every_position_on_an_epoch_nanosecond_grid(self, start, step, window, stride):
        n = 1000
        times = np.arange(n, dtype=np.int64) * step + start
        s = make_series("s", times, np.linspace(1.0, 2.0, n), np.ones(n))
        _check_centers(s, window, stride)

    @pytest.mark.parametrize("start, step, n", INT64_END_GRIDS)
    def test_every_window_on_grids_at_the_ends_of_int64(self, start, step, n):
        s = make_series("s", np.array([start + i * step for i in range(n)], np.int64),
                        [1.0] * n, [1.0] * n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning on the way
            for window in range(1, n + 1):
                _check_centers(s, window, 1)
