"""Seeded synthetic trade series for property tests and benchmarks.

Determinism contract: for a given config the output is bit-identical across
runs and platforms.  Randomness comes from the PCG64 bit generator (O'Neill's
permuted congruential generator, as shipped in numpy) consumed as 53-bit
uniform doubles, turned into normals by an explicit Box-Muller transform.
The scheme is versioned as :data:`GENERATOR_ID` and recorded in the generated
series' asset id, so fixtures can be regenerated independently.

Draw order: first the ``n_ticks - 1`` price-step normals, then (in ``free``
mode only) the ``n_ticks`` volume normals.  Price paths therefore coincide
across modes for one seed.

Modes mirror the degenerate regimes in which every market-based statistic
collapses to its frequency-based counterpart: ``constant_volume`` makes all
volumes equal; ``constant_past_value`` chooses volumes so that every tick's
past value at horizon ``alpha`` equals one constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, MbstatError
from .trade_series import TradeSeries, make_series

GENERATOR_ID = "pcg64-boxmuller-v1"

MODES = ("free", "constant_volume", "constant_past_value")


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of one synthetic series.

    Prices follow a multiplicative (log-space) random walk, which guarantees
    positivity without clamping; volumes are log-normal in ``free`` mode.
    """

    n_ticks: int
    seed: int
    price_start: float = 100.0
    log_price_step_sd: float = 0.01
    volume_log_mean: float = 0.0
    volume_log_sd: float = 0.5
    mode: str = "free"
    alpha: int = 0  # horizon pinned by constant_past_value mode

    def __post_init__(self):
        if self.n_ticks < 2:
            raise InvalidConfig(f"n_ticks must be >= 2, got {self.n_ticks}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        for name in ("price_start", "log_price_step_sd", "volume_log_mean", "volume_log_sd"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfig(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.price_start > 0.0:
            raise InvalidConfig(f"price_start must be > 0, got {self.price_start}")
        if self.log_price_step_sd < 0.0 or self.volume_log_sd < 0.0:
            raise InvalidConfig("step/volume standard deviations must be >= 0")
        if self.mode not in MODES:
            raise InvalidConfig(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "constant_past_value":
            if self.alpha < 1:
                raise InvalidConfig("constant_past_value mode needs alpha >= 1")
            if self.n_ticks <= self.alpha:
                raise InvalidConfig(
                    f"n_ticks={self.n_ticks} must exceed alpha={self.alpha}"
                )


def _normals(uniform01: np.ndarray, phase: np.ndarray) -> np.ndarray:
    # Box-Muller, cosine branch; 1-u keeps the log argument in (0, 1].
    return np.sqrt(-2.0 * np.log1p(-uniform01)) * np.cos(2.0 * math.pi * phase)


def gen_trades(config: SynthConfig, asset_id: str | None = None) -> TradeSeries:
    """Generate one validated series on the grid t = 0..n_ticks-1, eps = 1.
    A config whose prices or volumes leave the range of a valid series (an
    overflow, an underflow to zero) is an ``InvalidConfig``."""
    n = config.n_ticks
    rng = np.random.Generator(np.random.PCG64(config.seed))
    if asset_id is None:
        asset_id = f"synth-{GENERATOR_ID}-seed{config.seed}"
    try:
        with np.errstate(over="ignore", under="ignore"):
            steps = _normals(rng.random(n - 1), rng.random(n - 1)) * config.log_price_step_sd
            log_price = np.concatenate(([0.0], np.cumsum(steps)))
            price = config.price_start * np.exp(log_price)
            if config.mode == "free":
                vol_normals = _normals(rng.random(n), rng.random(n))
                volume = np.exp(config.volume_log_mean + config.volume_log_sd * vol_normals)
            elif config.mode == "constant_volume":
                volume = np.full(n, math.exp(config.volume_log_mean))
            else:  # constant_past_value: past value p(t-alpha)*U(t) pinned to K
                k = math.exp(config.volume_log_mean) * config.price_start
                lagged = np.concatenate((price[: config.alpha], price[: n - config.alpha]))
                volume = k / lagged
        return make_series(asset_id, np.arange(n, dtype=np.int64), price, volume)
    except (MbstatError, OverflowError) as exc:
        raise InvalidConfig(f"{config!r} gives no valid series: {exc}") from exc
