"""``serialize``, the numpy CSV writer of ``mbstat._csv_rows``, against an
f-string serializer with ``"%.17g"`` floats."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mbstat import SynthConfig, TradeSeries, gen_trades, make_series, parse_trades, serialize
from mbstat import _csv_rows, trade_series
from mbstat._grid17 import decimal_17

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def _text(v: float) -> str:
    """``"%.17g" % v``, with ``.0`` where that has no ``.`` and no ``e``."""
    text = "%.17g" % v
    return text if "." in text or "e" in text else text + ".0"


def reference_serialize(series) -> str:
    """One f-string per row."""
    columns = zip(series.t.tolist(), series.price.tolist(), series.volume.tolist())
    return "\n".join(["t,price,volume", *(f"{t},{_text(p)},{_text(v)}" for t, p, v in columns),
                      ""])


def _assert_round_trip(series):
    text = serialize(series)
    assert text == reference_serialize(series)
    assert parse_trades(text, series.asset_id) == series


@pytest.mark.parametrize("seed, regime, mode", [(41, (1e4, 1e-4), "free"),
                                                (42, (100.0, 3e-3), "free"),
                                                (43, (1e4, 1e-4), "constant_volume")])
def test_generated_series_take_the_fast_paths(monkeypatch, seed, regime, mode):
    """The benchmark's two price regimes, and a constant volume: every price
    and volume of a 250k-tick series is written from ``decimal_17``'s
    digits, and every chunk of the CSV is read by ``_plain_columns``."""
    price_start, step = regime
    series = gen_trades(SynthConfig(n_ticks=250_000, seed=seed, mode=mode,
                                    price_start=price_start, log_price_step_sd=step,
                                    volume_log_sd=0.4))
    assert decimal_17(series.price)[2].all()
    assert decimal_17(series.volume)[2].all()
    plain_columns, plain = trade_series._plain_columns, []

    def counted(*args):
        columns = plain_columns(*args)
        plain.append(columns is not None)
        return columns

    monkeypatch.setattr(trade_series, "_plain_columns", counted)
    assert parse_trades(serialize(series), series.asset_id) == series
    assert len(plain) > 50
    assert all(plain)


def _series(t, price, volume) -> TradeSeries:
    """A series built without validation, so that any int64 times serialize."""
    t = np.asarray(t, np.int64)
    price, volume = np.asarray(price, np.float64), np.asarray(volume, np.float64)
    return TradeSeries("s", t, price, volume)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_serialize_matches_the_reference(data):
    n = data.draw(st.integers(0, 60))
    t = data.draw(arrays(np.int64, n, elements=st.integers(-(2**63), 2**63 - 1)))
    price = data.draw(arrays(np.float64, n, elements=finite_floats))
    volume = data.draw(arrays(np.float64, n, elements=finite_floats))
    with np.errstate(over="ignore", invalid="ignore"):
        series = _series(t, price, volume)
    assert serialize(series) == reference_serialize(series)


def test_serialize_time_column_edges():
    t = [-(2**63), -(2**63) + 1, -(10**18), -1234567890123456789, -10, -1, 0, 1, 9, 10, 99,
         100, 10**8 - 1, 10**8, 10**15, 10**16 - 1, 10**16, 10**18, 1234567890123456789,
         2**63 - 1]
    series = _series(t, np.linspace(0.5, 2.0, len(t)), np.full(len(t), 3.0))
    assert serialize(series) == reference_serialize(series)
    assert serialize(_series([], [], [])) == "t,price,volume\n"
    assert serialize(_series([-3, 0], [100.25, 300.0], [0.1, 1e17])) == (
        "t,price,volume\n-3,100.25,0.10000000000000001\n0,300.0,1e+17\n")


def test_serialize_prices_below_1e300():
    """Prices far outside the table whose trade values are still normal."""
    prices = [1e-305, 3.5e-302, 1.2345e-300, 7e-301]
    _assert_round_trip(make_series("tiny", np.arange(-2, 2), prices, [1e10, 2e9, 1e8, 3.25e7]))


def test_serialize_across_blocks(monkeypatch):
    monkeypatch.setattr(_csv_rows, "_BLOCK_ROWS", 7)
    rng = np.random.default_rng(11)
    price = np.exp(rng.normal(0, 30, 100))
    series = _series(np.arange(-50, 50) * 10**14, price, np.exp(rng.normal(0, 3, 100)))
    assert serialize(series) == reference_serialize(series)


@pytest.mark.parametrize("regime", [(1e4, 1e-4), (100.0, 3e-3)])
def test_serialize_generated_series(regime):
    price_start, step = regime
    _assert_round_trip(gen_trades(SynthConfig(n_ticks=20_000, seed=5, price_start=price_start,
                                              log_price_step_sd=step, volume_log_sd=0.4)))


def test_cli_import_leaves_the_csv_writer_out():
    """``analyze`` and ``verify`` never compile the CSV writer: ``serialize``
    imports it on first use."""
    code = (
        "import sys\n"
        "import mbstat.cli\n"
        "assert 'mbstat._csv_rows' not in sys.modules\n"
        "assert 'mbstat._grid17' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
