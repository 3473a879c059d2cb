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
from mbstat._grid17 import U, decimal_17

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


# Tick times at the edges of each digit group and of the int64 range.
TIME_EDGES = [-(2**63), -(2**63) + 1, -(10**18), -1234567890123456789, -10, -1, 0, 1, 9, 10,
              99, 100, 10**8 - 1, 10**8, 10**15, 10**16 - 1, 10**16, 10**18,
              1234567890123456789, 2**63 - 1]


@settings(max_examples=50, deadline=None)
@given(arrays(np.int64, st.integers(0, 60), elements=st.integers(-(2**63), 2**63 - 1)))
def test_int_words_matches_str(t):
    """The ``t`` cells, over any int64 times: a series holds only times on a
    grid, so ``_int_words`` is checked on its own."""
    t = np.concatenate([t, TIME_EDGES])
    out = np.zeros((len(t), 3), U)
    _csv_rows._int_words(t, out)
    assert [row.tobytes().replace(b"\0", b"") for row in out] == [
        str(v).encode() for v in t.tolist()]


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_serialize_matches_the_reference(data):
    # Any grid inside int64, and any finite floats: the series is built
    # without make_series, which would refuse most of them.
    n = data.draw(st.integers(0, 60))
    step = data.draw(st.integers(1, min(2**63 - 1, (2**64 - 1) // max(n - 1, 1))))
    start = data.draw(st.integers(-(2**63), 2**63 - 1 - max(n - 1, 0) * step))
    price = data.draw(arrays(np.float64, n, elements=finite_floats))
    volume = data.draw(arrays(np.float64, n, elements=finite_floats))
    series = TradeSeries("s", start, step, price, volume)
    assert serialize(series) == reference_serialize(series)


@pytest.mark.parametrize("start, step, n", [
    (-(2**63), 1, 30), (2**63 - 30, 1, 30), (-(2**63), 2**32 + 7, 30),
    (2**63 - 1 - 29 * (2**40 + 3), 2**40 + 3, 30), (-(2**63), 2**63 - 1, 3)])
def test_serialize_time_column_edges(start, step, n):
    """Grids that start at -2**63 or end at 2**63 - 1, with steps above
    2**32, round-trip through the CSV."""
    rng = np.random.default_rng(n)
    series = make_series("s", [start + i * step for i in range(n)],
                         rng.uniform(0.5, 2.0, n), rng.uniform(1.0, 3.0, n))
    _assert_round_trip(series)
    assert serialize(TradeSeries("s", 0, 1, np.ones(0), np.ones(0))) == "t,price,volume\n"
    assert serialize(TradeSeries("s", -3, 3, np.array([100.25, 300.0]), np.array([0.1, 1e17]))) == (
        "t,price,volume\n-3,100.25,0.10000000000000001\n0,300.0,1e+17\n")


def test_serialize_prices_below_1e300():
    """Prices far outside the table whose trade values are still normal."""
    prices = [1e-305, 3.5e-302, 1.2345e-300, 7e-301]
    _assert_round_trip(make_series("tiny", np.arange(-2, 2), prices, [1e10, 2e9, 1e8, 3.25e7]))


def test_serialize_across_blocks(monkeypatch):
    monkeypatch.setattr(_csv_rows, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(_csv_rows, "_TEXT_ROWS", 3)
    rng = np.random.default_rng(11)
    price = np.exp(rng.normal(0, 30, 100))
    series = TradeSeries("s", -50 * 10**14, 10**14, price, np.exp(rng.normal(0, 3, 100)))
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
