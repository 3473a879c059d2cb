"""The vectorized ``%.17g`` of ``mbstat._grid17`` against ``"%.17g" % v``,
in both layouts: the reports' (``layout(False)``), and the CSV's
(``layout(True)``), which adds ``.0`` to a text with no ``.`` and no ``e``."""

import math
import os
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mbstat import FAMILIES, SynthConfig, gen_trades, iter_rolling_stats, make_plan, serialize
from mbstat._grid17 import _K_MAX, _K_MIN, decimal_17, float_texts, layout
from mbstat.reports import _ARRAY_KEYS, _BLOCK


def _expected(values, point_zero):
    texts = [b"%.17g" % v for v in np.ravel(values).tolist()]
    return [t + b".0" if point_zero and b"." not in t and b"e" not in t else t for t in texts]


def _assert_exact(values):
    """Both layouts give the text of ``_expected``."""
    values = np.asarray(values, dtype=np.float64)
    for point_zero in (False, True):
        got, want = float_texts(values, layout(point_zero)), _expected(values, point_zero)
        if got != want:
            bad = [(v, g, e) for v, g, e in zip(values.tolist(), got, want) if g != e]
            raise AssertionError((point_zero, bad[:5]))


def _fast(values):
    return decimal_17(np.asarray(values, dtype=np.float64))[2]


def _power_of_ten(k):
    """The double nearest 10**k."""
    return float(10**k) if k >= 0 else 1 / 10**-k


def _neighbours(x, ulps=2):
    """``x`` and its ``ulps`` nearest doubles on each side."""
    out = [x]
    below = above = x
    for _ in range(ulps):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += [below, above]
    return out


def _ties():
    """Exact 17-digit ties: odd m/4 >= 1e15 and odd m/8 >= 1e14, both signs."""
    rng = np.random.default_rng(7)
    quarters = (rng.integers(4 * 10**15, 2**53, 20_000) | 1) / 4.0
    eighths = (rng.integers(8 * 10**14, 2**53, 20_000) | 1) / 8.0
    ties = np.concatenate([quarters, eighths])
    return np.concatenate([ties, -ties])


def test_random_bit_patterns():
    bits = np.random.default_rng(2024).integers(0, 2**64, 200_000, dtype=np.uint64)
    values = bits.view(np.float64)
    _assert_exact(values[np.isfinite(values)])


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.integers(1, 300),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_hypothesis_floats(values):
    _assert_exact(values)


def test_scaled_normals():
    rng = np.random.default_rng(5)
    _assert_exact(rng.standard_normal(50_000) * 10.0 ** rng.integers(-110, 111, 50_000))


def test_ties_round_half_even():
    ties = _ties()
    _assert_exact(ties)
    # below 2**51 every odd m/4 and, at k = 14, every odd m/8 is an exact tie
    exact = np.abs(ties) < 2.0**51
    exact &= (np.abs(ties) < 1e15) | (np.abs(ties) * 4 % 2 == 1)
    assert exact.sum() > 1000
    assert not _fast(ties[exact]).any()


def test_powers_of_ten_and_neighbours():
    values = [v for k in range(_K_MIN - 1, _K_MAX + 2) for v in _neighbours(_power_of_ten(k))]
    _assert_exact(values)
    _assert_exact([-v for v in values])
    assert _fast(values).mean() > 0.8


def test_edge_values():
    edges = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e15, 1e16,
             1e17, 9999999999999999.0, 99999999999999990.0, 0.1, 1 / 3, 2.5, 1e-5, 1e-4,
             123456789.0, 123.0]
    _assert_exact(edges)
    _assert_exact([-v for v in edges])
    assert float_texts([0.0, -0.0], layout(False)) == [b"0", b"-0"]
    assert float_texts([0.0, -0.0, 1e16, 1e17, 123.0, 0.1, 1e-5], layout(True)) == [
        b"0.0", b"-0.0", b"10000000000000000.0", b"1e+17", b"123.0", b"0.10000000000000001",
        b"1.0000000000000001e-05"]
    assert _fast([0.0, -0.0, 1e16, 1e17, 0.1, 2.5]).all()


def test_integral_values_in_fixed_notation_are_fast():
    """Their 17 digits are exact, so the ``"%.17g"`` fallback, which writes
    no ``.0``, never meets one."""
    rng = np.random.default_rng(3)
    whole = np.floor(10.0 ** rng.uniform(0, 17, 100_000))
    whole = np.concatenate([whole, 10.0 ** np.arange(17), 2.0 ** np.arange(57), [1e17 - 16]])
    assert (whole < 1e17).all()
    assert _fast(whole).all()
    assert _fast(-whole).all()


def test_each_fallback_reason():
    cases = {
        "subnormal": 5e-324,
        "below the table": 10.0 ** (_K_MIN - 1),
        "above the table": 10.0 ** (_K_MAX + 2),
        "at the table's top edge, k one past it": _power_of_ten(_K_MAX + 1),
        "near-tie": 999999999999999.875,
        "rounding carries to 18 digits": 1e-79,  # 9.99999999999999995e-80...
    }
    values = list(cases.values())
    assert not _fast(values).any()
    _assert_exact(values)
    assert float_texts([1e-79], layout(True)) == [b"1e-79"]


def test_dense_block_takes_the_fast_path():
    """A block shaped like the ``dense-emit`` benchmark workload (price 100,
    log step 3e-3, all families, window 256, stride 1), distinct rows only."""
    pair = [gen_trades(SynthConfig(n_ticks=600, seed=41 + k, price_start=100.0,
                                   log_price_step_sd=3e-3, volume_log_sd=0.4), f"asset{k + 1}")
            for k in range(2)]
    plan = make_plan(*pair, window=256, stride=1, alpha=1, beta=1, families=FAMILIES)
    chunk = next(iter(iter_rolling_stats(*pair, plan)))
    rows = {}
    for family in plan.families:
        for col in (chunk.t_center, *(chunk.families[family][k] for k in _ARRAY_KEYS)):
            rows.setdefault(col[:_BLOCK].tobytes(), col[:_BLOCK])
    values = np.concatenate(list(rows.values()))
    assert len(rows) > 20
    assert _fast(values).mean() >= 0.99
    _assert_exact(values)


def test_import_leaves_the_formatter_and_exact_arithmetic_out():
    code = (
        "import sys\n"
        "import mbstat.cli\n"
        "assert 'fractions' not in sys.modules and 'decimal' not in sys.modules\n"
        "assert 'mbstat._grid17' not in sys.modules\n"
        "from mbstat import _grid17\n"
        "assert _grid17._tables.cache_info().currsize == 0\n"
        "assert _grid17.layout.cache_info().currsize == 0\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_analyze_imports_the_grid_and_leaves_the_csv_writer_out(tmp_path):
    """A report is laid out by ``_grid17`` alone: ``analyze`` never compiles
    ``_csv_rows``, the CSV writer of ``generate``."""
    paths = []
    for k in range(2):
        series = gen_trades(SynthConfig(n_ticks=300, seed=7 + k), f"asset{k + 1}")
        paths.append(tmp_path / f"a{k + 1}.csv")
        paths[-1].write_text(serialize(series))
    argv = ["analyze", "--asset1-path", str(paths[0]), "--asset2-path", str(paths[1]),
            "--window", "16", "--stride", "5", "--alpha", "1", "--beta", "1",
            "--output", str(tmp_path / "report.json")]
    code = (
        "import sys\n"
        "from mbstat.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "assert 'mbstat._grid17' in sys.modules\n"
        "assert 'mbstat._csv_rows' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report.json").read_text().startswith('{\n"schema_version": 1,')
