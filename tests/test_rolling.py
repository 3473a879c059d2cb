import numpy as np
import pytest

from mbstat import (
    SynthConfig,
    Window,
    collect_rolling_stats,
    compute_returns,
    gen_trades,
    iter_rolling_stats,
    make_plan,
    make_series,
    mb_corr_price_return,
    mb_corr_prices,
    mb_corr_returns,
    mb_joint_price_moment,
    mb_joint_return_moment,
    mb_price_volatility,
    mb_return_volatility,
)
from mbstat import rolling
from mbstat.errors import InvalidConfig, MissingHistory, NonUniformSpacing
from mbstat.oracle import relative_deviation
from mbstat.rolling import FAMILIES, _anchor_interval


def synth_pair(n, seed=100, **kw):
    s1 = gen_trades(SynthConfig(n_ticks=n, seed=seed, **kw), asset_id="one")
    s2 = gen_trades(SynthConfig(n_ticks=n, seed=seed + 1, **kw), asset_id="two")
    return s1, s2


def direct_values(s1, s2, plan, position):
    """Per-window recomputation of every family via the closed-form layer."""
    n = plan.window
    i1 = plan.start_index1(position)
    i2 = plan.start_index2(position)
    w1 = Window(s1, i1, n)
    w2_lagged = Window(s2, i2, n, lag=plan.beta)
    rv1 = compute_returns(w1, plan.alpha)
    rv2 = compute_returns(Window(s2, i2, n), plan.beta)
    price = mb_corr_prices(w1, w2_lagged)
    ret = mb_corr_returns(rv1, rv2)
    mixed = mb_corr_price_return(w1, rv2)
    return {
        "price_corr": (price.market_value, price.frequency_value),
        "return_corr": (ret.market_value, ret.frequency_value),
        "price_return_corr": (mixed.market_value, mixed.frequency_value),
        "price_vol": (
            mb_price_volatility(w1),
            np.var(np.asarray(w1.price)),
        ),
        "return_vol": (
            mb_return_volatility(rv1),
            np.var(np.asarray(rv1.r)),
        ),
        "joint_price_moment": (
            mb_joint_price_moment(w1, w2_lagged),
            float(np.mean(np.asarray(w1.price) * np.asarray(w2_lagged.price))),
        ),
        "joint_return_moment": (
            mb_joint_return_moment(rv1, rv2),
            float(np.mean(np.asarray(rv1.r) * np.asarray(rv2.r))),
        ),
    }


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

    @pytest.mark.parametrize("lags", [{"alpha": -1}, {"beta": -1}])
    def test_negative_lag_is_invalid_config(self, lags):
        s1, s2 = synth_pair(20)
        with pytest.raises(InvalidConfig, match="lags must be >= 0"):
            make_plan(s1, s2, window=4, families=("price_corr",), **lags)

    def test_anchor_interval_snaps_to_default(self):
        assert _anchor_interval(256, 1) == 4096
        assert _anchor_interval(1024, 1) == 4096
        # tiny windows and big strides shorten the block to bound drift
        assert _anchor_interval(2, 1) < 4096
        assert _anchor_interval(256, 64) < 4096
        assert _anchor_interval(256, 100000) == 1


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
        # (U1,C1)/(C1,U1) and (Co1,C1)/(C1,Co1) are one window sum each.
        s1, s2 = synth_pair(9000)
        plan = make_plan(s1, s2, window=8, alpha=1, beta=1)
        passes = 0
        window_sums = rolling._chunk_window_sums

        def counting(*args):
            nonlocal passes
            passes += 1
            return window_sums(*args)

        monkeypatch.setattr(rolling, "_chunk_window_sums", counting)
        blocks = sum(1 for _ in iter_rolling_stats(s1, s2, plan))
        assert blocks > 1
        assert passes == 31 * blocks
