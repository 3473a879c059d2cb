"""Tick-level trade data: parsing, validation, windowing, lagging, returns.

A trade series lives on a uniform time grid: integer tick times with one
constant spacing ``epsilon`` between consecutive trades.  All lags and window
widths are expressed in grid steps.  Gaps and duplicate timestamps are hard
errors; filling them would invent trades with fictitious volumes and poison
every volume-weighted statistic downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConsistencyError,
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

# Declared `value` column may deviate from price*volume by at most this
# relative amount before the row is rejected.
VALUE_REL_TOL = 1e-9

# value == return * past_value must hold to this relative tolerance for every
# tick of a ReturnView (it is a two-rounding identity, so ~4e-16 in practice).
RETURN_IDENTITY_REL_TOL = 1e-12

CSV_HEADER = "t,price,volume"


@dataclass(frozen=True)
class TradeSeries:
    """A uniformly spaced sequence of trades for one asset.

    The per-tick columns are stored as read-only numpy arrays.  ``epsilon``
    is the constant spacing between consecutive tick times.
    """

    asset_id: str
    t: np.ndarray
    price: np.ndarray
    volume: np.ndarray
    value: np.ndarray = field(repr=False)
    epsilon: int = 1

    def __post_init__(self):
        for arr in (self.t, self.price, self.volume, self.value):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.t)

    @property
    def start_time(self) -> int:
        return int(self.t[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TradeSeries):
            return NotImplemented
        return (
            self.asset_id == other.asset_id
            and self.epsilon == other.epsilon
            and np.array_equal(self.t, other.t)
            and np.array_equal(self.price, other.price)
            and np.array_equal(self.volume, other.volume)
        )


def make_series(asset_id, times, prices, volumes, declared_values=None) -> TradeSeries:
    """Validate raw columns and build a :class:`TradeSeries`.

    Times must be strictly increasing with one constant integer spacing;
    prices and volumes strictly positive, their product (the trade value)
    finite.  A declared value column, if given, is checked against
    price*volume and then discarded: the stored value is always the exact
    float product, so the trade identity holds bit-exactly.
    """
    t_raw = np.asarray(times)
    if t_raw.dtype.kind == "f" and not np.all(t_raw == np.floor(t_raw)):
        raise ParseError("tick times must be integers on the grid")
    if t_raw.dtype.kind in "fuO":  # the kinds that can hold a time past int64
        inside = (t_raw >= -(2**63)) & (t_raw < 2**63)
        if not np.all(inside):
            bad = t_raw.tolist()[int(np.argmin(inside))]
            raise ParseError(f"tick time {bad!r} is outside the 64-bit integer range")
    t = t_raw.astype(np.int64, copy=False)
    price = np.ascontiguousarray(prices, dtype=np.float64)
    volume = np.ascontiguousarray(volumes, dtype=np.float64)
    if t.size == 0:
        raise EmptyInput("series must contain at least one tick")
    if not (t.size == price.size == volume.size):
        raise ParseError("time/price/volume columns differ in length")
    if not np.all(np.isfinite(price)):
        raise ParseError("non-finite price")
    if not np.all(np.isfinite(volume)):
        raise ParseError("non-finite volume")
    if np.any(price <= 0.0):
        i = int(np.argmax(price <= 0.0))
        raise NonPositivePrice(f"price {price[i]} at t={t[i]} must be > 0")
    if np.any(volume <= 0.0):
        i = int(np.argmax(volume <= 0.0))
        raise NonPositiveVolume(f"volume {volume[i]} at t={t[i]} must be > 0")

    if t.size >= 2:
        steps = np.diff(t)
        epsilon = int(steps[0])
        if epsilon <= 0:
            raise NonUniformSpacing(
                f"tick times must be strictly increasing (duplicate or reversed "
                f"timestamp after t={t[0]})"
            )
        if np.any(steps != epsilon):
            i = int(np.argmax(steps != epsilon))
            raise NonUniformSpacing(
                f"spacing {int(steps[i])} between t={t[i]} and t={t[i + 1]} "
                f"differs from epsilon={epsilon}"
            )
    else:
        epsilon = 1  # single tick: spacing is vacuous

    with np.errstate(over="ignore"):  # refused just below, naming the row
        value = price * volume
    if not np.all(np.isfinite(value)):
        i = int(np.argmax(~np.isfinite(value)))
        raise ParseError(f"trade value price*volume = {float(price[i])!r}*{float(volume[i])!r} "
                         f"at t={t[i]} is not finite")
    if declared_values is not None:
        declared = np.asarray(declared_values, dtype=np.float64)
        if declared.size != t.size:
            raise ParseError("value column differs in length")
        bad = np.abs(declared - value) > VALUE_REL_TOL * np.abs(value)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValueMismatch(
                f"declared value {declared[i]} at t={t[i]} deviates from "
                f"price*volume={value[i]} by more than {VALUE_REL_TOL:g} relative"
            )

    return TradeSeries(
        asset_id=asset_id, t=t, price=price, volume=volume, value=value, epsilon=epsilon
    )


def parse_trades(text: str, asset_id: str = "asset") -> TradeSeries:
    """Parse canonical CSV trade content into a validated series.

    Expected header ``t,price,volume`` with an optional fourth ``value``
    column; rows sorted by ``t``.  The grid spacing is inferred from the
    first two rows.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise EmptyInput("empty CSV input")
    header = lines[0].strip()
    if header == CSV_HEADER:
        has_value = False
    elif header == CSV_HEADER + ",value":
        has_value = True
    else:
        raise ParseError(f"unexpected header {header!r}, want '{CSV_HEADER}[,value]'")
    if len(lines) == 1:
        raise EmptyInput("CSV has a header but no rows")

    n = len(lines) - 1
    times = np.empty(n, dtype=np.int64)
    prices = np.empty(n, dtype=np.float64)
    volumes = np.empty(n, dtype=np.float64)
    declared = np.empty(n, dtype=np.float64) if has_value else None
    want_cols = 4 if has_value else 3
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != want_cols:
            raise ParseError(f"row {i + 1}: expected {want_cols} columns, got {len(cells)}")
        try:
            times[i] = int(cells[0])
            prices[i] = float(cells[1])
            volumes[i] = float(cells[2])
            if has_value:
                declared[i] = float(cells[3])
        except ValueError as exc:
            raise ParseError(f"row {i + 1}: {exc}") from None
        except OverflowError:
            raise ParseError(f"row {i + 1}: tick time {cells[0]} is outside the 64-bit "
                             "integer range") from None
    return make_series(asset_id, times, prices, volumes, declared)


def serialize(series: TradeSeries) -> str:
    """Render the canonical CSV form: three columns, LF endings, shortest
    round-trip-exact decimal for each float.  ``parse_trades(serialize(s))``
    reproduces ``s`` bit-exactly."""
    columns = zip(series.t.tolist(), series.price.tolist(), series.volume.tolist())
    return "\n".join([CSV_HEADER, *(f"{t},{p!r},{v!r}" for t, p, v in columns), ""])


@dataclass(frozen=True)
class Window:
    """N consecutive ticks of a series, optionally read ``lag`` grid steps back.

    The i-th tick of a lagged window is the source tick at ``t_i - lag*eps``,
    where ``t_i`` runs over the window's own (unlagged) tick times.
    """

    series: TradeSeries
    start: int  # index of the first windowed tick, before applying lag
    count: int
    lag: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise EmptyWindow("window must contain at least one tick")
        if self.start + self.count > len(self.series):
            raise EmptyWindow("window extends past the end of the series")
        if self.start - self.lag < 0:
            raise MissingHistory(
                f"lag {self.lag} reaches before the series start "
                f"(window starts at index {self.start})"
            )

    def __len__(self) -> int:
        return self.count

    @property
    def _lo(self) -> int:
        return self.start - self.lag

    @property
    def times(self) -> np.ndarray:
        """Unlagged tick times the window refers to."""
        return self.series.t[self.start : self.start + self.count]

    @property
    def price(self) -> np.ndarray:
        return self.series.price[self._lo : self._lo + self.count]

    @property
    def volume(self) -> np.ndarray:
        return self.series.volume[self._lo : self._lo + self.count]

    @property
    def value(self) -> np.ndarray:
        return self.series.value[self._lo : self._lo + self.count]

    @property
    def asset_id(self) -> str:
        return self.series.asset_id

    @property
    def t_center(self) -> float:
        ts = self.times
        return (float(ts[0]) + float(ts[-1])) / 2.0


def _check_steps(lag, minimum: int, what: str) -> int:
    if isinstance(lag, bool) or not (
        isinstance(lag, (int, np.integer))
        or (isinstance(lag, float) and lag.is_integer())
    ):
        raise LagNotOnGrid(f"{what} must be a whole number of grid steps, got {lag!r}")
    lag = int(lag)
    if lag < minimum:
        raise LagNotOnGrid(f"{what} must be >= {minimum} grid steps, got {lag}")
    return lag


def slice_window(series: TradeSeries, center, half_width) -> Window:
    """Window over the ticks inside ``[center - hw*eps, center + hw*eps]``.

    ``center`` is a time value on the series' grid; ``half_width`` a count of
    grid steps.
    """
    hw = _check_steps(half_width, 0, "half_width")
    eps = series.epsilon
    t0 = series.start_time
    lo_t = center - hw * eps
    hi_t = center + hw * eps
    i_lo = max(0, math.ceil((lo_t - t0) / eps))
    i_hi = min(len(series) - 1, math.floor((hi_t - t0) / eps))
    if i_lo > i_hi or series.t[i_lo] < lo_t or series.t[i_hi] > hi_t:
        raise EmptyWindow(
            f"no ticks of {series.asset_id!r} inside [{lo_t}, {hi_t}]"
        )
    return Window(series=series, start=i_lo, count=i_hi - i_lo + 1, lag=0)


def lag_view(window: Window, lag) -> Window:
    """The same window read ``lag`` grid steps into the past."""
    steps = _check_steps(lag, 0, "lag")
    return Window(
        series=window.series,
        start=window.start,
        count=window.count,
        lag=window.lag + steps,
    )


@dataclass(frozen=True)
class ReturnView:
    """Per-tick returns and past values of a window, for horizon ``alpha``.

    ``r[i] = p(t_i) / p(t_i - alpha*eps)`` and
    ``c_past[i] = p(t_i - alpha*eps) * volume(t_i)``, so that
    ``value[i] == r[i] * c_past[i]`` up to two float roundings.
    """

    r: np.ndarray
    c_past: np.ndarray
    value: np.ndarray
    alpha: int
    asset_id: str
    times: np.ndarray = field(repr=False)

    def __post_init__(self):
        for arr in (self.r, self.c_past, self.value, self.times):
            arr.setflags(write=False)
        err = np.max(np.abs(self.value - self.r * self.c_past) / self.value)
        if err > RETURN_IDENTITY_REL_TOL:
            raise ConsistencyError(
                f"value != return * past_value (relative error {err:.3e})"
            )

    def __len__(self) -> int:
        return len(self.r)

    @property
    def t_center(self) -> float:
        return (float(self.times[0]) + float(self.times[-1])) / 2.0


def compute_returns(window: Window, alpha) -> ReturnView:
    """Derive per-tick returns and past values for a window.

    ``alpha`` is the return horizon in grid steps (>= 1); history must exist
    ``alpha`` steps before every windowed tick.
    """
    steps = _check_steps(alpha, 1, "alpha")
    lo = window._lo
    if lo - steps < 0:
        raise MissingHistory(
            f"horizon {steps} reaches before the start of {window.asset_id!r}"
        )
    series = window.series
    n = window.count
    p_now = series.price[lo : lo + n]
    p_then = series.price[lo - steps : lo - steps + n]
    volume = series.volume[lo : lo + n]
    return ReturnView(
        r=p_now / p_then,
        c_past=p_then * volume,
        value=series.value[lo : lo + n].copy(),
        alpha=steps,
        asset_id=series.asset_id,
        times=series.t[window.start : window.start + n].copy(),
    )
