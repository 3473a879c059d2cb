import hashlib
import math
import re
import warnings

import numpy as np
import pytest

from mbstat import GENERATOR_ID, SynthConfig, gen_trades, parse_trades, serialize
from mbstat.errors import InvalidConfig


def past_values(series, alpha):
    p, u = series.price, series.volume
    return p[: len(series) - alpha] * u[alpha:]


class TestDeterminism:
    def test_same_seed_same_series(self):
        cfg = SynthConfig(n_ticks=500, seed=42)
        assert gen_trades(cfg) == gen_trades(cfg)

    def test_different_seeds_differ(self):
        a = gen_trades(SynthConfig(n_ticks=100, seed=1))
        b = gen_trades(SynthConfig(n_ticks=100, seed=2))
        assert not np.array_equal(a.price, b.price)

    def test_generator_identity_recorded(self):
        s = gen_trades(SynthConfig(n_ticks=10, seed=3))
        assert GENERATOR_ID in s.asset_id

    def test_price_path_shared_across_modes(self):
        free = gen_trades(SynthConfig(n_ticks=50, seed=9, mode="free"))
        const = gen_trades(SynthConfig(n_ticks=50, seed=9, mode="constant_volume"))
        assert np.array_equal(free.price, const.price)


# SHA-256 of serialize(gen_trades(...)) at 2000 ticks.  GENERATOR_ID promises
# the same bits on every platform; a change here means np.exp, np.log or np.cos
# (or the generator itself) now gives other bits, and GENERATOR_ID must move.
PINNED_DIGESTS = {
    ("free", 1): "a22bbb57d3d23b1a8416e0ee41279094f8ad6d3e31883fe3a58573d85da4f65c",
    ("free", 42): "78f14c257b2425fef647f70e807cbc675055aed291879f6f2a28adb42e9c6488",
    ("free", 20260): "dbb54afca0aa4e20e0bf99421427b116f8bcb4604a48763520a76299ed454a71",
    ("constant_past_value", 1):
        "ab9f51926675d974debce656ab7e37bb6461633cb35932955225272a55eb6389",
    ("constant_past_value", 42):
        "b81b0bf87556feedc118372a4d2492ad0079f3a36dd8e852e76f5b65f281ae25",
    ("constant_past_value", 20260):
        "53db3d3893318365d3b11d12d84f3a6d4004eeb78fb3e87c0be2b7961df6b0a9",
}


@pytest.mark.parametrize("mode, seed", sorted(PINNED_DIGESTS))
def test_pinned_digest(mode, seed):
    extra = {"alpha": 2} if mode == "constant_past_value" else {}
    text = serialize(gen_trades(SynthConfig(n_ticks=2000, seed=seed, mode=mode, **extra)))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DIGESTS[mode, seed]


class TestModes:
    def test_constant_volume(self):
        s = gen_trades(SynthConfig(n_ticks=100, seed=7, mode="constant_volume"))
        assert np.all(s.volume == s.volume[0])

    def test_constant_past_value_spread(self):
        cfg = SynthConfig(
            n_ticks=300, seed=11, mode="constant_past_value", alpha=1,
            price_start=1.0, log_price_step_sd=0.05,
        )
        co = past_values(gen_trades(cfg), 1)
        spread = (co.max() - co.min()) / co.max()
        assert spread <= 1e-12

    def test_constant_past_value_higher_horizon(self):
        cfg = SynthConfig(
            n_ticks=300, seed=12, mode="constant_past_value", alpha=3,
            price_start=2.0, log_price_step_sd=0.02,
        )
        co = past_values(gen_trades(cfg), 3)
        assert (co.max() - co.min()) / co.max() <= 1e-12

    def test_free_mode_volumes_vary(self):
        s = gen_trades(SynthConfig(n_ticks=100, seed=5, volume_log_sd=0.5))
        assert len(np.unique(s.volume)) > 1


class TestValidity:
    def test_output_passes_parse_validation(self):
        for seed in range(5):
            s = gen_trades(SynthConfig(n_ticks=200, seed=seed))
            again = parse_trades(serialize(s), asset_id=s.asset_id)
            assert again == s
            assert again.epsilon == 1

    def test_positive_columns(self):
        s = gen_trades(SynthConfig(n_ticks=1000, seed=3, log_price_step_sd=0.2,
                                   volume_log_sd=1.5))
        assert np.all(s.price > 0)
        assert np.all(s.volume > 0)


class TestConfigValidation:
    def test_too_few_ticks(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(n_ticks=1, seed=0)

    def test_bad_mode(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(n_ticks=10, seed=0, mode="chaotic")

    def test_constant_past_value_needs_alpha(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(n_ticks=10, seed=0, mode="constant_past_value", alpha=0)

    def test_constant_past_value_needs_room(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(n_ticks=3, seed=0, mode="constant_past_value", alpha=3)

    def test_negative_sd(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(n_ticks=10, seed=0, log_price_step_sd=-0.1)

    @pytest.mark.parametrize("field, value", [
        ("log_price_step_sd", math.nan),
        ("price_start", math.inf),
        ("volume_log_mean", math.nan),
        ("volume_log_mean", -math.inf),
        ("volume_log_sd", math.inf),
        ("volume_log_sd", math.nan),
    ])
    def test_non_finite_float(self, field, value):
        with pytest.raises(InvalidConfig, match=f"{field} must be finite"):
            SynthConfig(n_ticks=10, seed=0, **{field: value})

    def test_negative_seed(self):
        with pytest.raises(InvalidConfig, match="seed must be >= 0, got -1"):
            SynthConfig(n_ticks=10, seed=-1)

    @pytest.mark.parametrize("fields, shown", [
        ({"volume_log_mean": 1000.0}, "non-finite volume"),
        ({"log_price_step_sd": 1e300}, "non-finite price"),
        ({"mode": "constant_past_value", "alpha": 1, "volume_log_mean": -800.0},
         "volume 0.0 at t=0 must be > 0"),
        ({"mode": "constant_volume", "volume_log_mean": 1000.0}, "math range error"),
    ])
    def test_walk_out_of_range_names_the_config(self, fields, shown):
        config = SynthConfig(n_ticks=10, seed=1, **fields)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidConfig, match=re.escape(f"{config!r} gives no valid series")
                               + ".*" + shown):
                gen_trades(config)

    def test_nonpositive_price_start(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(n_ticks=10, seed=0, price_start=0.0)
