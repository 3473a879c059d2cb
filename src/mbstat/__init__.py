"""Market-based (trade-weighted) statistics of prices and returns.

Two conventions for the same questions: the usual equal-weight time-series
statistics (:mod:`mbstat.freq_stats`) and the trade-weighted ones
(:mod:`mbstat.market_core`) in which averages are VWAP / value-weighted
average return and correlations are closed forms over moments of trade
values, volumes, and past values.  :mod:`mbstat.oracle` re-derives every
closed form by brute-force weighted expectation, :mod:`mbstat.rolling` runs
them incrementally over rolling windows, and :mod:`mbstat.cli` exposes
``mbstat generate|analyze|verify``.
"""

from .errors import MbstatError
from .freq_stats import MomentSet, cov, joint_moment, mean, moments
from .market_core import (
    CorrelationReport,
    MarketAverages,
    mb_corr_price_return,
    mb_corr_prices,
    mb_corr_returns,
    mb_joint_price_moment,
    mb_joint_return_moment,
    mb_price_volatility,
    mb_return_volatility,
    portfolio_return,
    vawar,
    vwap,
)
from .oracle import WeightVector, em_expectation, make_weights, oracle_corr
from .rolling import FAMILIES, collect_rolling_stats, iter_rolling_stats, make_plan
from .synth import GENERATOR_ID, SynthConfig, gen_trades
from .trade_series import (
    ReturnView,
    TradeSeries,
    Window,
    compute_returns,
    lag_view,
    make_series,
    parse_trades,
    serialize,
    slice_window,
)

__all__ = [
    "CorrelationReport",
    "FAMILIES",
    "GENERATOR_ID",
    "MarketAverages",
    "MbstatError",
    "MomentSet",
    "ReturnView",
    "SynthConfig",
    "TradeSeries",
    "WeightVector",
    "Window",
    "collect_rolling_stats",
    "compute_returns",
    "cov",
    "em_expectation",
    "gen_trades",
    "iter_rolling_stats",
    "joint_moment",
    "lag_view",
    "make_plan",
    "make_series",
    "make_weights",
    "mb_corr_price_return",
    "mb_corr_prices",
    "mb_corr_returns",
    "mb_joint_price_moment",
    "mb_joint_return_moment",
    "mb_price_volatility",
    "mb_return_volatility",
    "mean",
    "moments",
    "oracle_corr",
    "parse_trades",
    "portfolio_return",
    "serialize",
    "slice_window",
    "vawar",
    "vwap",
]

__version__ = "0.1.0"
