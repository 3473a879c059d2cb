"""The vectorized ``repr`` of ``mbstat._format_repr`` against ``repr``, and
``serialize`` against the f-string serializer it replaced."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mbstat import SynthConfig, TradeSeries, gen_trades, make_series, parse_trades, serialize
from mbstat import _format_repr
from mbstat._format_repr import format_repr, shortest
from mbstat._grid17 import _K_MAX, _K_MIN

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def reference_serialize(series) -> str:
    """The serializer ``serialize`` replaced: one f-string and two ``repr``
    calls per row."""
    columns = zip(series.t.tolist(), series.price.tolist(), series.volume.tolist())
    return "\n".join(["t,price,volume", *(f"{t},{p!r},{v!r}" for t, p, v in columns), ""])


def _assert_exact(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    got, want = format_repr(values), [repr(v).encode() for v in values.tolist()]
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
        raise AssertionError(bad[:5])


def _fast(values):
    return shortest(np.asarray(values, dtype=np.float64))[2]


def _neighbours(x, ulps=2):
    """``x`` and its ``ulps`` nearest doubles on each side."""
    out = [x]
    below = above = x
    for _ in range(ulps):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += [below, above]
    return out


def _both_signs(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


def test_random_bit_patterns():
    bits = np.random.default_rng(2026).integers(0, 2**64, 1_000_000, dtype=np.uint64)
    values = bits.view(np.float64)
    _assert_exact(values[np.isfinite(values)])


def test_random_significands_inside_the_table():
    """Random significands and signs at decades -90 to 90 take the fast path,
    but for many at decades 11 to 21: there the grid holds few of a value's
    binary fraction digits, and an interval end is an integer often."""
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2**52, 500_000, dtype=np.uint64)
    bits |= rng.integers(1023 - 299, 1023 + 299, 500_000).astype(np.uint64) << np.uint64(52)
    bits |= rng.integers(0, 2, 500_000).astype(np.uint64) << np.uint64(63)
    values = bits.view(np.float64)
    _assert_exact(values)
    fast, size = _fast(values), np.abs(values)
    assert fast[(size < 1e11) | (size >= 1e22)].all()
    assert fast.mean() > 0.98


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.integers(1, 300), elements=finite_floats))
def test_hypothesis_floats(values):
    _assert_exact(values)


def test_powers_of_two():
    """A power of two has half the gap below it that it has above."""
    values = [2.0**e for e in range(-1074, 1024)]
    _assert_exact(_both_signs(values))
    # 2**-25 and 2**-24 sit at a tie on the grid, 2**52 to 2**56 have integral
    # interval ends
    middle = 2.0 ** np.arange(-300, 52)
    assert (~_fast(middle)).sum() == 2


def test_powers_of_ten_and_neighbours():
    values = [v for k in range(_K_MIN - 1, _K_MAX + 2) for v in _neighbours(float(f"1e{k}"))]
    _assert_exact(_both_signs(values))
    assert _fast(values).mean() > 0.9


def test_notation_switches():
    """Fixed notation for -4 <= k <= 15, with ``.0`` on integral values."""
    switches = [1e15, 1e16, 1e-4, 1e-5, 9999999999999998.0, 999999999999999.9, 123.0, 0.5]
    _assert_exact(_both_signs([v for x in switches for v in _neighbours(x)]))
    assert format_repr(switches) == [b"1000000000000000.0", b"1e+16", b"0.0001", b"1e-05",
                                     b"9999999999999998.0", b"999999999999999.9", b"123.0",
                                     b"0.5"]
    assert format_repr([-1.5e-7, 1.25e20, -1e-99]) == [b"-1.5e-07", b"1.25e+20", b"-1e-99"]


def test_digits_that_carry_into_the_next_decade():
    """The double nearest ``10**k`` may lie below it, in decade k - 1: its
    shortest digits are then ``10**17`` on that decade's grid."""
    values = [float(f"1e{k}") for k in range(_K_MIN, _K_MAX + 1)]
    values = [v for k, v in zip(range(_K_MIN, _K_MAX + 1), values) if Fraction(v) < Fraction(10)**k]
    assert len(values) > 80
    _assert_exact(_both_signs(values))
    assert format_repr([1e-6, 1e24, 1e23]) == [b"1e-06", b"1e+24", b"1e+23"]
    assert _fast([1e-6, 1e24]).all()


def test_common_values():
    values = [0.1, 1 / 3, 2 / 3, 0.3, 0.1 + 0.2, 100.0, 2.5, 1e-3, 12345.678]
    _assert_exact(_both_signs(values))
    assert _fast(_both_signs(values)).all()


def test_subnormals_and_wide_exponents():
    values = [5e-324, 1e-320, 2.225073858507201e-308, 2.2250738585072014e-308, 1e-200, 1e-100,
              1e100, 1.5e250, 1.7976931348623157e308]
    _assert_exact(_both_signs(values))
    assert not _fast(_both_signs(values)).any()


def test_each_fallback_reason():
    cases = {
        "upper end exactly 10**17, included as the significand is even": 1e23,
        "integral interval ends": 2.0**54 + 4,
        "near tie between two integers": 1e15 + 0.25,
        "near tie between two multiples of 10": 90000000.001953125,
        "zero": 0.0,
        "negative zero": -0.0,
        "subnormal": 5e-324,
        "below the table": 1e-100,
        "above the table, k one past it": 1e100,
        "far above the table": 1e300,
    }
    values = list(cases.values())
    assert not _fast(values).any()
    _assert_exact(values)


@pytest.mark.parametrize("seed", [41, 42])
@pytest.mark.parametrize("regime", [(1e4, 1e-4), (100.0, 3e-3)])
def test_generated_series_take_the_fast_path(seed, regime):
    """The benchmark's two price regimes: every price and volume of a
    250k-tick series is formatted without ``repr``."""
    price_start, step = regime
    series = gen_trades(SynthConfig(n_ticks=250_000, seed=seed, price_start=price_start,
                                    log_price_step_sd=step, volume_log_sd=0.4))
    assert _fast(series.price).all()
    assert _fast(series.volume).all()


def _series(t, price, volume) -> TradeSeries:
    """A series built without validation, so that any int64 times serialize."""
    t = np.asarray(t, np.int64)
    price, volume = np.asarray(price, np.float64), np.asarray(volume, np.float64)
    return TradeSeries("s", t, price, volume, price * volume)


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


def test_serialize_prices_below_1e300():
    """Prices far outside the table whose trade values are still normal."""
    prices = [1e-305, 3.5e-302, 1.2345e-300, 7e-301]
    series = make_series("tiny", np.arange(-2, 2), prices, [1e10, 2e9, 1e8, 3.25e7])
    text = serialize(series)
    assert text == reference_serialize(series)
    assert parse_trades(text, "tiny") == series


def test_serialize_across_blocks(monkeypatch):
    monkeypatch.setattr(_format_repr, "_BLOCK_ROWS", 7)
    rng = np.random.default_rng(11)
    price = np.exp(rng.normal(0, 30, 100))
    series = _series(np.arange(-50, 50) * 10**14, price, np.exp(rng.normal(0, 3, 100)))
    assert serialize(series) == reference_serialize(series)


@pytest.mark.parametrize("regime", [(1e4, 1e-4), (100.0, 3e-3)])
def test_serialize_generated_series(regime):
    price_start, step = regime
    series = gen_trades(SynthConfig(n_ticks=20_000, seed=5, price_start=price_start,
                                    log_price_step_sd=step, volume_log_sd=0.4))
    assert serialize(series) == reference_serialize(series)


def test_cli_import_leaves_the_repr_formatter_out():
    """``analyze`` and ``verify`` never compile the formatter: ``serialize``
    imports it on first use."""
    code = (
        "import sys\n"
        "import mbstat.cli\n"
        "assert 'mbstat._format_repr' not in sys.modules\n"
        "assert 'mbstat._grid17' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
