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


# SHA-256 at 2000 ticks of the series' bits (its t, price and volume as
# little-endian int64 and float64, in that order), then of its CSV text,
# serialize(gen_trades(...)).  GENERATOR_ID promises the same bits on every
# platform: a change in the first pin means np.exp, np.log or np.cos (or the
# generator itself) now gives other bits, and GENERATOR_ID must move.  A
# change in the second alone means serialize writes other text for the same
# bits.
PINNED_DIGESTS = {
    ("free", 1): ("73df1ba2ac8e1f1008dfa640255e3f56c977ef684c34bdb6554633ce4a0a6550",
                  "333c0efd7f53caa95a65a0dffa4c4d666f15f8719d3ab483a5db6d09f2b89473"),
    ("free", 42): ("389bd58d662cab6024232fc20794b1f7c31ed19a86b1c3f716a6f5b9ebfc8ca3",
                   "07c077247d876a686f37b70eba73dce0117b4ee3b729a3bc04a5d91a4f723271"),
    ("free", 20260): ("32c850131ef88b0a399c2dec23197447b403dc8e97ecd63ecbba8821ae805f82",
                      "59019db90159c75e810253445bc820e702c5009cca208810bd6496974614ebcd"),
    ("constant_past_value", 1):
        ("cd85ec0ccd880e9baabf3a3728a096962831fcff4a86ef32c29231357fed36df",
         "a37aab859a3008d4f83e254a0c7cc7d30ee0a5ce518ac782a3e6dd24c504ded0"),
    ("constant_past_value", 42):
        ("3f5347e782034566782390af00101dfbe832a70190d71d338e85b89c57c68cf2",
         "249928a1d3f23f854d97f4579f6ade768240756e43547d031efd915c8ff7f959"),
    ("constant_past_value", 20260):
        ("ed188b9c142cc7383537ce63a6790067fbc3eaa773beb5b4d8eb40411f36c44d",
         "333c1b168735311b007ed2b4e68b9744fe3f9073f5ffd3d2bbbd82677c2627f2"),
}


@pytest.mark.parametrize("mode, seed", sorted(PINNED_DIGESTS))
def test_pinned_digest(mode, seed):
    extra = {"alpha": 2} if mode == "constant_past_value" else {}
    series = gen_trades(SynthConfig(n_ticks=2000, seed=seed, mode=mode, **extra))
    bits = hashlib.sha256()
    for column, dtype in ((series.t, "<i8"), (series.price, "<f8"), (series.volume, "<f8")):
        bits.update(column.astype(dtype).tobytes())
    text = hashlib.sha256(serialize(series).encode())
    assert (bits.hexdigest(), text.hexdigest()) == PINNED_DIGESTS[mode, seed]


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

    @pytest.mark.parametrize("field, value", [
        ("n_ticks", 2.5), ("n_ticks", True), ("seed", 1.5), ("seed", True),
        ("alpha", 1.5), ("alpha", True),
    ])
    def test_non_integral_count(self, field, value):
        fields = {"n_ticks": 10, "seed": 1, "mode": "constant_past_value", "alpha": 1}
        with pytest.raises(InvalidConfig, match=f"^{field} must be a whole number, "
                                                f"got {value!r}$"):
            SynthConfig(**{**fields, field: value})

    def test_integral_floats_are_ints(self):
        config = SynthConfig(n_ticks=10.0, seed=np.int64(7), mode="constant_past_value",
                             alpha=2.0)
        assert (config.n_ticks, config.seed, config.alpha) == (10, 7, 2)
        assert all(type(v) is int for v in (config.n_ticks, config.seed, config.alpha))
        series = gen_trades(config)
        assert series == gen_trades(SynthConfig(n_ticks=10, seed=7, mode="constant_past_value",
                                                alpha=2))
        assert series.asset_id == f"synth-{GENERATOR_ID}-seed7"

    def test_negative_seed(self):
        with pytest.raises(InvalidConfig, match="seed must be >= 0, got -1"):
            SynthConfig(n_ticks=10, seed=-1)

    @pytest.mark.parametrize("fields, shown", [
        ({"volume_log_mean": 1000.0}, "volume inf at t=0 is not finite"),
        ({"log_price_step_sd": 1e300}, "price inf at t=1 is not finite"),
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
