import functools
import re
import warnings

import numpy as np
import pytest

from direct import direct_values, returns_of
from mbstat import (
    SynthConfig,
    Window,
    collect_rolling_stats,
    gen_trades,
    iter_rolling_stats,
    make_plan,
    make_series,
)
from mbstat import rolling
from mbstat.errors import (DegenerateDenominator, InvalidConfig, MissingHistory,
                           NonUniformSpacing, ParseError)
from mbstat.market_core import average_slots, checked_joint_moment, closed_form, require_finite
from mbstat.oracle import relative_deviation
from mbstat.rolling import FAMILIES, _anchor_interval


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


# Test-only reference: the engine as it stood before strided window sums, one
# mean per distinct sum and one closed form per leg pair; every array it
# yields must be bit-identical to the engine's.
def _ref_chunk_window_sums(x, y, s_anchor, rel, n):
    hi = s_anchor + int(rel[-1]) + n
    seg = x[s_anchor:hi] if y is None else x[s_anchor:hi] * y[s_anchor:hi]
    out = np.empty(rel.size, dtype=np.float64)
    out[0] = np.sum(seg[:n])
    if rel.size > 1:
        c = np.cumsum(seg)
        r = rel[1:]
        out[1:] = out[0] + (c[r + n - 1] - c[n - 1]) - c[r - 1]
    return out


def _ref_family_records(family, sums, n):
    inv_n = 1.0 / n
    m = {key: total * inv_n for key, total in sums.items()}
    g1, g2, cov_cc, cov_wc, cov_cw, cov_ww, market = closed_form(
        family, m["c1"], m["w1"], m["c2"], m["w2"], m["cc"], m["wc"], m["cw"], m["ww"]
    )
    freq = m["xx"] - m["x1"] * m["x2"]
    if family in ("joint_price_moment", "joint_return_moment"):
        market = checked_joint_moment(family, g1, g2, market, m["cc"], cov_wc, cov_cw, cov_ww,
                                      m["ww"])
        freq = m["xx"]
    require_finite(family, market_value=market, frequency_value=freq, denominator=m["ww"])
    averages = dict.fromkeys(("a1", "a2", "h1", "h2"), np.zeros_like(market))
    averages.update(zip(average_slots(family), (g1, g2)))
    return {"market_value": market, "frequency_value": freq, **averages, "denominator": m["ww"],
            "cov_cc": cov_cc, "cov_uc": cov_wc, "cov_cu": cov_cw, "cov_ww": cov_ww}


def ref_iter_rolling_stats(s1, s2, plan):
    arrays = rolling._base_arrays(s1, s2, plan)
    n = plan.window
    half = (n - 1) / 2.0
    family_specs = {f: rolling.sum_specs(*rolling.FAMILY_LEGS[f]) for f in plan.families}
    sum_specs = dict.fromkeys(spec for specs in family_specs.values() for spec in specs.values())
    for c0 in range(0, plan.n_positions, plan.anchor):
        c1 = min(c0 + plan.anchor, plan.n_positions)
        rel = np.arange(c1 - c0, dtype=np.int64) * plan.stride
        s_anchor = c0 * plan.stride
        sums_by_spec = {
            (xn, yn): _ref_chunk_window_sums(
                arrays[xn], None if yn is None else arrays[yn], s_anchor, rel, n
            )
            for (xn, yn) in sum_specs
        }
        t_center = plan.t_origin + (s_anchor + rel + half) * plan.epsilon
        families = {}
        for family in plan.families:
            sums = {k: sums_by_spec[spec] for k, spec in family_specs[family].items()}
            families[family] = _ref_family_records(family, sums, n)
        yield c0, t_center, families


@functools.lru_cache(maxsize=None)
def _guard_pair(n_ticks):
    return synth_pair(n_ticks, seed=300, price_start=1e4, log_price_step_sd=1e-3)


def _guard_plan(window, stride, lag, families):
    """A plan of at least three anchor blocks, the last one partial."""
    anchor = _anchor_interval(window, stride)
    positions = 2 * anchor + anchor // 2 + 1
    s1, s2 = _guard_pair(window + (positions - 1) * stride + lag)
    plan = make_plan(s1, s2, window=window, stride=stride, alpha=lag, beta=lag,
                     families=families)
    assert plan.n_positions > 2 * plan.anchor and plan.n_positions % plan.anchor, plan
    return s1, s2, plan


def _outcome(run):
    try:
        return run()
    except Exception as exc:  # noqa: BLE001 - the outcome is compared as is
        return type(exc), str(exc)


class TestBitIdentityGuard:
    FAMILY_SETS = [FAMILIES, ("joint_price_moment",), ("price_corr", "joint_price_moment"),
                   ("return_vol",)]

    @pytest.mark.parametrize("families", FAMILY_SETS, ids=lambda fs: ",".join(fs))
    @pytest.mark.parametrize("lag", [1, 3])
    @pytest.mark.parametrize("stride", [1, 7, 256])
    @pytest.mark.parametrize("window", [1, 4, 10, 256])  # 10: 1/n is inexact
    def test_engine_matches_reference_bits(self, window, stride, lag, families):
        s1, s2, plan = _guard_plan(window, stride, lag, families)
        got = list(iter_rolling_stats(s1, s2, plan))
        want = list(ref_iter_rolling_stats(s1, s2, plan))
        assert len(got) == len(want) >= 3
        for chunk, (c0, t_center, ref_families) in zip(got, want):
            assert chunk.first_position == c0
            assert chunk.t_center.tobytes() == t_center.tobytes()
            assert list(chunk.families) == list(ref_families)
            for family, arrays in ref_families.items():
                assert list(chunk.families[family]) == list(arrays)
                for key, arr in arrays.items():
                    assert chunk.families[family][key].dtype == arr.dtype
                    assert chunk.families[family][key].tobytes() == arr.tobytes(), (family, key)

    def test_one_closed_form_per_leg_pair(self, monkeypatch):
        # seven families over five leg pairs: the joint moments reuse the
        # closed form of their correlation
        s1, s2, plan = _guard_plan(8, 1, 1, FAMILIES)
        calls = []
        form = rolling.closed_form

        def counting(family, *args):
            calls.append(family)
            return form(family, *args)

        monkeypatch.setattr(rolling, "closed_form", counting)
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
        want = _outcome(lambda: list(ref_iter_rolling_stats(s1, s2, plan)))
        assert got == want
        assert got[0] is DegenerateDenominator
        assert got[1].startswith(f"{named}: carrier joint moment ")
