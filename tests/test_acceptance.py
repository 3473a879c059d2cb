"""End-to-end acceptance suite.

Each test drives one acceptance criterion at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
Expected values are frozen from the brute-force oracle layer, never from the
closed forms under test.
"""

import math
import time

import numpy as np

from direct import direct_values, legs, returns_of
from mbstat import (
    SynthConfig,
    Window,
    compute_returns,
    cov,
    em_expectation,
    gen_trades,
    iter_rolling_stats,
    make_plan,
    make_series,
    make_weights,
    mb_corr_price_return,
    mb_corr_prices,
    mb_corr_returns,
    mb_joint_price_moment,
    mb_joint_return_moment,
    mb_price_volatility,
    mb_return_volatility,
    moments,
    oracle_corr,
    parse_trades,
    portfolio_return,
    serialize,
    vawar,
    vwap,
)
from mbstat.oracle import relative_deviation
from mbstat.rolling import FAMILIES

ORACLE_TOL = 1e-9
IDENTITY_TOL = 1e-12
REDUCTION_TOL = 1e-12


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def free_pair(seed, n_ticks, rng, price_start=None):
    kw = dict(
        price_start=price_start or float(rng.choice([1.0, 20.0, 250.0])),
        log_price_step_sd=float(rng.uniform(0.002, 0.08)),
        volume_log_mean=float(rng.uniform(-1.0, 1.0)),
        volume_log_sd=float(rng.uniform(0.1, 1.2)),
    )
    s1 = gen_trades(SynthConfig(n_ticks=n_ticks, seed=2 * seed, **kw))
    s2 = gen_trades(SynthConfig(n_ticks=n_ticks, seed=2 * seed + 1, **kw))
    return s1, s2


def three_family_deviation(w1, w2_lagged, rv1, rv2):
    """(closed form, oracle, scale floor) per correlation family."""
    price = mb_corr_prices(w1, w2_lagged)
    ret = mb_corr_returns(rv1, rv2)
    mixed = mb_corr_price_return(w1, rv2)
    return {
        "price": (
            price.market_value,
            oracle_corr("price_price", w1.price, w2_lagged.price,
                        w1.volume, w2_lagged.volume,
                        price.averages.a1, price.averages.a2),
            abs(price.averages.a1 * price.averages.a2),
        ),
        "return": (
            ret.market_value,
            oracle_corr("return_return", rv1.r, rv2.r, rv1.c_past, rv2.c_past,
                        ret.averages.h1, ret.averages.h2),
            abs(ret.averages.h1 * ret.averages.h2),
        ),
        "price_return": (
            mixed.market_value,
            oracle_corr("price_return", w1.price, rv2.r, w1.volume, rv2.c_past,
                        mixed.averages.a1, mixed.averages.h2),
            abs(mixed.averages.a1 * mixed.averages.h2),
        ),
    }


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(1001)
    worst = {"price": 0.0, "return": 0.0, "price_return": 0.0}
    started = time.perf_counter()
    for seed in range(1000):
        n = int(rng.integers(2, 257))
        alpha = int(rng.integers(1, 4))
        beta = int(rng.integers(1, 4))
        hist = max(alpha, beta)
        s1, s2 = free_pair(seed, n + hist, rng)
        w1, w2_lagged, rv1, rv2 = legs(s1, s2, hist, hist, n, alpha, beta)
        for family, (closed, direct, floor) in three_family_deviation(
            w1, w2_lagged, rv1, rv2
        ).items():
            worst[family] = max(
                worst[family], relative_deviation(closed, direct, floor)
            )
    elapsed = time.perf_counter() - started
    ok = all(v <= ORACLE_TOL for v in worst.values()) and elapsed < 10.0
    detail = (
        f"1000 pairs, max_rel_dev price={worst['price']:.3e} "
        f"return={worst['return']:.3e} price_return={worst['price_return']:.3e}, "
        f"runtime={elapsed:.2f}s"
    )
    report(1, "oracle-equivalence", ok, detail)


def test_criterion_2_degenerate_reductions():
    rng = np.random.default_rng(2002)
    gaps = {"price": 0.0, "return": 0.0, "price_return": 0.0}

    def bound(market, freq):
        return abs(market - freq) / max(1.0, abs(freq))

    for seed in range(100):
        n = 8 + seed % 48
        beta = seed % 3
        step = float(rng.uniform(0.01, 0.06))
        vol_mean = float(rng.uniform(-1.0, 1.0))
        mk = lambda sd: SynthConfig(
            n_ticks=n + beta, seed=sd, price_start=1.0, log_price_step_sd=step,
            volume_log_mean=vol_mean, mode="constant_volume",
        )
        s1 = gen_trades(mk(3000 + 2 * seed))
        s2 = gen_trades(mk(3001 + 2 * seed))
        rep = mb_corr_prices(Window(s1, beta, n), Window(s2, beta, n, lag=beta))
        gaps["price"] = max(gaps["price"], bound(rep.market_value, rep.frequency_value))

    for seed in range(100):
        n = 8 + seed % 48
        alpha = 1 + seed % 2
        beta = 1 + (seed // 2) % 2
        hist = max(alpha, beta)
        step = float(rng.uniform(0.01, 0.06))
        mk = lambda sd, horizon: SynthConfig(
            n_ticks=n + hist, seed=sd, price_start=1.0, log_price_step_sd=step,
            mode="constant_past_value", alpha=horizon,
        )
        s1 = gen_trades(mk(4000 + 2 * seed, alpha))
        s2 = gen_trades(mk(4001 + 2 * seed, beta))
        rv1 = returns_of(s1, hist, n, alpha)
        rv2 = returns_of(s2, hist, n, beta)
        rep = mb_corr_returns(rv1, rv2)
        gaps["return"] = max(gaps["return"], bound(rep.market_value, rep.frequency_value))

    for seed in range(100):
        n = 8 + seed % 48
        beta = 1 + seed % 2
        step = float(rng.uniform(0.01, 0.06))
        s1 = gen_trades(SynthConfig(
            n_ticks=n + beta, seed=5000 + 2 * seed, price_start=1.0,
            log_price_step_sd=step, mode="constant_volume",
        ))
        s2 = gen_trades(SynthConfig(
            n_ticks=n + beta, seed=5001 + 2 * seed, price_start=1.0,
            log_price_step_sd=step, mode="constant_past_value", alpha=beta,
        ))
        w1 = Window(s1, beta, n)
        rv2 = returns_of(s2, beta, n, beta)
        rep = mb_corr_price_return(w1, rv2)
        gaps["price_return"] = max(
            gaps["price_return"], bound(rep.market_value, rep.frequency_value)
        )

    ok = all(v <= REDUCTION_TOL for v in gaps.values())
    detail = (
        f"100 seeds each, max gap/1e-12 bound: price={gaps['price']:.3e} "
        f"return={gaps['return']:.3e} price_return={gaps['price_return']:.3e}"
    )
    report(2, "degenerate-reductions", ok, detail)


def test_criterion_3_worked_instances():
    s1 = make_series("asset1", [0, 1, 2], [2, 4, 3], [1, 2, 1])
    s2 = make_series("asset2", [0, 1, 2], [1, 2, 2], [2, 1, 1])
    w1, w2 = Window(s1, 0, 3), Window(s2, 0, 3)
    sv = make_series("vol", [0, 1], [1, 3], [1, 3])
    wv = Window(sv, 0, 2)
    sr = make_series("ret", [0, 1, 2, 3], [1, 2, 4, 2], [1, 1, 1, 2])
    rv = compute_returns(Window(sr, 1, 3), 1)

    checks = []

    rep = mb_corr_prices(w1, w2)
    direct = oracle_corr("price_price", w1.price, w2.price, w1.volume, w2.volume,
                         rep.averages.a1, rep.averages.a2)
    checks.append(("price_corr", rep.market_value, direct, 0.375))

    vol = mb_price_volatility(wv)
    a = vwap(wv)
    direct_vol = oracle_corr("price_price", wv.price, wv.price,
                             wv.volume, wv.volume, a, a)
    checks.append(("price_vol", vol, direct_vol, 0.45))

    h = vawar(rv)
    direct_h = em_expectation(rv.r, make_weights("past_value", rv.c_past))
    checks.append(("vawar", h, direct_h, 10 / 11))

    rvol = mb_return_volatility(rv)
    direct_rvol = oracle_corr("return_return", rv.r, rv.r, rv.c_past, rv.c_past, h, h)
    checks.append(("return_vol", rvol, direct_rvol, 672 / 2783))

    jp = mb_joint_price_moment(w1, w2)
    checks.append(("joint_price", jp, rep.averages.a1 * rep.averages.a2 + direct, 5.25))

    second = mb_joint_price_moment(wv, wv)
    checks.append(("price_second_moment", second, a * a + direct_vol, 6.7))

    worst = 0.0
    for name, closed, direct, frozen in checks:
        worst = max(
            worst,
            relative_deviation(closed, direct, 1.0),
            relative_deviation(closed, frozen, 1.0),
        )
    # the quoted approximation of the return volatility and the plain
    # weighted second moment of prices both stay where the oracle puts them
    assert abs(rvol - 0.2414657) <= 1e-6
    pp = em_expectation(
        wv.price * wv.price, make_weights("volume_product", wv.volume, wv.volume)
    )
    assert relative_deviation(pp, 41 / 5, 1.0) <= IDENTITY_TOL

    ok = worst <= IDENTITY_TOL
    report(3, "worked-instances", ok, f"6 values, max_rel_dev={worst:.3e}")


def test_criterion_4_identity_suite():
    rng = np.random.default_rng(4004)
    worst = 0.0
    exact_failures = 0
    for seed in range(1000):
        n = int(rng.integers(2, 65))
        alpha = int(rng.integers(1, 3))
        beta = int(rng.integers(1, 3))
        hist = max(alpha, beta)
        s1, s2 = free_pair(40000 + seed, n + hist, rng)
        w1, w2_lagged, rv1, rv2 = legs(s1, s2, hist, hist, n, alpha, beta)

        # combined vs expanded arrangements of the joint moments
        from mbstat import joint_moment

        rep_p = mb_corr_prices(w1, w2_lagged)
        jp = mb_joint_price_moment(w1, w2_lagged)
        expanded_p = (
            joint_moment(w1.value, w2_lagged.value)
            - rep_p.averages.a1 * rep_p.cov_wc
            - rep_p.averages.a2 * rep_p.cov_cw
            + 2 * rep_p.averages.a1 * rep_p.averages.a2 * rep_p.cov_ww
        ) / rep_p.denominator
        worst = max(worst, relative_deviation(jp, expanded_p, abs(jp)))

        rep_r = mb_corr_returns(rv1, rv2)
        jr = mb_joint_return_moment(rv1, rv2)
        expanded_r = (
            joint_moment(rv1.value, rv2.value)
            - rep_r.averages.h1 * rep_r.cov_wc
            - rep_r.averages.h2 * rep_r.cov_cw
            + 2 * rep_r.averages.h1 * rep_r.averages.h2 * rep_r.cov_ww
        ) / rep_r.denominator
        worst = max(worst, relative_deviation(jr, expanded_r, abs(jr)))

        # same-asset second moments against their direct expressions
        a1 = vwap(w1)
        second_p = mb_joint_price_moment(w1, w1)
        direct_p = (
            moments(w1.value).second_moment
            + 2 * a1 * a1 * moments(w1.volume).variance
            - 2 * a1 * cov(w1.value, w1.volume)
        ) / moments(w1.volume).second_moment
        sigma_p = mb_price_volatility(w1)
        worst = max(worst, relative_deviation(second_p, direct_p, abs(second_p)))
        worst = max(
            worst, relative_deviation(second_p, a1 * a1 + sigma_p, abs(second_p))
        )

        from mbstat import mean

        h1 = mean(rv1.value) / mean(rv1.c_past)
        second_r = mb_joint_return_moment(rv1, rv1)
        direct_r = (
            moments(rv1.value).second_moment
            + 2 * h1 * h1 * moments(rv1.c_past).variance
            - 2 * h1 * cov(rv1.value, rv1.c_past)
        ) / moments(rv1.c_past).second_moment
        sigma_r = mb_return_volatility(rv1)
        worst = max(worst, relative_deviation(second_r, direct_r, abs(second_r)))
        worst = max(
            worst, relative_deviation(second_r, h1 * h1 + sigma_r, abs(second_r))
        )

        # bit-exact specializations
        if mb_corr_prices(w1, w1).market_value != sigma_p:
            exact_failures += 1
        if vawar(rv1) != portfolio_return(rv1.r, rv1.c_past):
            exact_failures += 1

    ok = worst <= IDENTITY_TOL and exact_failures == 0
    report(
        4,
        "identity-suite",
        ok,
        f"1000 instances, max_rel_dev={worst:.3e}, exact_failures={exact_failures}",
    )


def test_criterion_5_nonnegativity():
    rng = np.random.default_rng(5005)
    worst = 0.0  # most negative volatility, normalized by its second-moment scale
    for seed in range(1000):
        n = int(rng.integers(2, 65))
        alpha = int(rng.integers(1, 3))
        s1, s2 = free_pair(50000 + seed, n + alpha, rng)
        w1 = Window(s1, alpha, n)
        rv1 = compute_returns(w1, alpha)
        sp = mb_price_volatility(w1) / moments(w1.price).second_moment
        sr = mb_return_volatility(rv1) / moments(rv1.r).second_moment
        worst = min(worst, sp, sr)
    ok = worst >= -1e-12
    report(5, "nonnegativity", ok, f"1000 instances, most negative scaled={worst:.3e}")


def test_criterion_6_performance():
    n_ticks = 1_000_000
    window = 256
    kw = dict(price_start=100.0, log_price_step_sd=0.003, volume_log_sd=0.4)
    s1 = gen_trades(SynthConfig(n_ticks=n_ticks, seed=61, **kw), asset_id="perf1")
    s2 = gen_trades(SynthConfig(n_ticks=n_ticks, seed=62, **kw), asset_id="perf2")
    plan = make_plan(s1, s2, window=window, stride=1, alpha=1, beta=1,
                     families=FAMILIES)
    assert plan.anchor == 4096

    rng = np.random.default_rng(6006)
    sampled = np.sort(rng.choice(plan.n_positions, size=1000, replace=False))
    kept = {family: {} for family in FAMILIES}

    started = time.perf_counter()
    position = 0
    for chunk in iter_rolling_stats(s1, s2, plan):
        size = len(chunk)
        lo = np.searchsorted(sampled, position)
        hi = np.searchsorted(sampled, position + size)
        if hi > lo:
            local = sampled[lo:hi] - position
            for family in FAMILIES:
                arrays = chunk.families[family]
                for key in ("market_value", "frequency_value", "a1", "a2", "h1", "h2"):
                    kept[family].setdefault(key, []).append(arrays[key][local])
        position += size
    elapsed = time.perf_counter() - started
    assert position == plan.n_positions

    for family in kept:
        for key in kept[family]:
            kept[family][key] = np.concatenate(kept[family][key])

    worst = 0.0
    for j, pos in enumerate(sampled.tolist()):
        direct = {family: market for family, (market, _) in
                  direct_values(s1, s2, plan, pos).items()}
        for family in FAMILIES:
            got = float(kept[family]["market_value"][j])
            a1 = float(kept[family]["a1"][j])
            a2 = float(kept[family]["a2"][j])
            h1 = float(kept[family]["h1"][j])
            h2 = float(kept[family]["h2"][j])
            floor = abs(a1 * a2) + abs(h1 * h2) + abs(a1 * h2)
            worst = max(worst, relative_deviation(got, direct[family], floor))

    ok = elapsed < 5.0 and worst <= ORACLE_TOL
    report(
        6,
        "performance",
        ok,
        f"{plan.n_positions} positions x {len(FAMILIES)} families in "
        f"{elapsed:.2f}s (< 5s), incremental vs full max_rel_dev={worst:.3e} "
        f"at 1000 sampled positions",
    )


def test_criterion_7_round_trip():
    failures = 0
    for seed in range(10):
        mode = ("free", "constant_volume", "constant_past_value")[seed % 3]
        cfg = SynthConfig(
            n_ticks=500, seed=7000 + seed, mode=mode,
            alpha=1 if mode == "constant_past_value" else 0,
            price_start=float(1.0 + 17.3 * seed),
            log_price_step_sd=0.005 + 0.01 * (seed % 4),
            volume_log_sd=0.1 * (seed % 5),
        )
        series = gen_trades(cfg)
        text = serialize(series)
        parsed = parse_trades(text, asset_id=series.asset_id)
        if serialize(parsed) != text or parsed != series:
            failures += 1
    ok = failures == 0
    report(7, "round-trip", ok, f"10 seeds, byte-identical failures={failures}")
