"""Working-set bounds, measured with ``tracemalloc`` (numpy reports its
buffers to it): reading a file holds its float columns and a few chunks,
not its text or its tick times, and keeps two columns, not the trade value; a
rolling drain holds one anchor block, not a series-long leg, and its window
sums one group of rows, not a matrix of all of them, writing a
series' CSV one block of rows, not its tick times, and writing a report one
block of rows, not a table of indices per position."""

import tracemalloc

import pytest

from mbstat import (FAMILIES, SynthConfig, Window, gen_trades, iter_rolling_stats, make_plan,
                    serialize)
from mbstat import _csv_rows, _grid17, market_core, reports, trade_series
from mbstat.market_core import FAMILY_LEGS
from mbstat.rolling import leg_sequences
from mbstat.trade_series import parse_trades

N = 100_000


def _traced(run) -> tuple[int, int]:
    """Bytes allocated when ``run()`` returns, its result still held, and at
    its peak, above what was allocated before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = run()  # noqa: F841 - held while the memory is read
        held, peak = tracemalloc.get_traced_memory()
        return held - base, peak - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def long_pair():
    config = dict(price_start=1e4, log_price_step_sd=1e-4, volume_log_sd=0.4)
    return (gen_trades(SynthConfig(n_ticks=2 * N, seed=11, **config), asset_id="one"),
            gen_trades(SynthConfig(n_ticks=2 * N, seed=12, **config), asset_id="two"))


@pytest.fixture(scope="module")
def long_file(tmp_path_factory, long_pair):
    path = tmp_path_factory.mktemp("memory") / "long.csv"
    path.write_text(serialize(long_pair[0]))
    return path, len(long_pair[0])


def _read(path, rows):
    with open(path, "rb") as fh:
        series = parse_trades(fh)
    assert len(series) == rows
    return series


def test_reading_a_file_holds_its_columns_and_a_few_chunks(long_file):
    path, rows = long_file
    columns = 4 * 8 * rows  # t, price, volume and the trade value, checked once

    _, peak = _traced(lambda: _read(path, rows))
    assert peak < columns + 8 * trade_series._CHUNK_CHARS, (peak, columns)
    # the text alone is larger than the margin over the columns
    assert path.stat().st_size > 8 * trade_series._CHUNK_CHARS


def test_reading_a_file_holds_no_tick_times(long_file):
    # Each chunk's times are checked against the grid as it is read, so no
    # column of them is held.
    path, rows = long_file
    columns = 3 * 8 * rows  # price, volume and the trade value, checked once

    _, peak = _traced(lambda: _read(path, rows))
    assert peak < columns + 8 * trade_series._CHUNK_CHARS, (peak, columns)


def test_a_parsed_series_keeps_three_columns(long_file):
    # The trade value is formed to check it and then dropped.
    path, rows = long_file
    columns = 3 * 8 * rows  # t, price and volume

    held, _ = _traced(lambda: _read(path, rows))
    assert held < columns + trade_series._CHUNK_CHARS, (held, columns)


def test_a_parsed_series_keeps_two_columns(long_file):
    # The tick times are read to check them and then dropped for the grid.
    path, rows = long_file
    columns = 2 * 8 * rows  # price and volume

    held, _ = _traced(lambda: _read(path, rows))
    assert held < columns + trade_series._CHUNK_CHARS, (held, columns)


def test_a_rolling_drain_allocates_no_array_as_long_as_the_series(long_pair):
    # Window 8 keeps an anchor block at 761 positions, so one block's legs,
    # sums and records stay well below one series-long float array.
    s1, s2 = long_pair
    plan = make_plan(s1, s2, window=8, stride=1, alpha=1, beta=1, families=FAMILIES)
    assert plan.n_positions > 100 * plan.anchor

    def drain():
        for _ in iter_rolling_stats(s1, s2, plan):
            pass

    _, peak = _traced(drain)
    assert peak < 8 * len(s1), peak


def test_a_plan_and_its_drain_allocate_no_array_as_long_as_the_series(long_pair):
    # The plan places the grids from their first times and steps, and no
    # engine path builds a series' tick times.
    s1, s2 = long_pair

    def plan_and_drain():
        plan = make_plan(s1, s2, window=8, stride=1, alpha=1, beta=1, families=FAMILIES)
        for _ in iter_rolling_stats(s1, s2, plan):
            pass

    _, peak = _traced(plan_and_drain)
    assert peak < 8 * len(s1), peak


def test_a_block_of_window_sums_holds_one_row_group(long_pair):
    # One all-family block at window 256, stride 1: 35 means over 4,096
    # windows.  Its kernel's peak above the means was measured at 1.46x
    # their bytes: the legs' shifted arrays and one row group of the
    # cumulative sums (7 rows).  Two means to a complex128 buffer took
    # 1.37x, and all 35 rows in one matrix 2.31x.
    s1, s2 = long_pair
    plan = make_plan(s1, s2, window=256, stride=1, alpha=1, beta=1, families=FAMILIES)
    k = plan.anchor
    legs = leg_sequences(s1, s2, plan, 0, (k - 1) * plan.stride + plan.window)
    pairs = dict.fromkeys(FAMILY_LEGS[family] for family in FAMILIES)

    def block():
        return market_core.shifted_means(legs, pairs, k, plan.stride, plan.window, plan.segment)

    means, _ = block()
    nbytes = sum(m.nbytes for m in means.values())
    assert (len(means), k, nbytes) == (35, 4096, 35 * 4096 * 8)
    _, peak = _traced(block)
    assert peak < 1.8 * nbytes, (peak, nbytes)


def test_a_window_builds_only_its_own_times(long_pair):
    series = long_pair[0]
    window = Window(series, 1000, 100)

    held, peak = _traced(lambda: window.times)
    assert held < 8 * 1000 and peak < 8 * 1000, (held, peak)


def test_writing_a_series_csv_holds_no_series_long_column(long_pair):
    series = long_pair[0]
    assert len(series) == 2 * N

    _, peak = _traced(lambda: sum(map(len, _csv_rows.csv_blocks(series))))
    assert peak < 8 * len(series), peak


class _Sink:
    def write(self, data):
        pass


@pytest.mark.parametrize("writer, record, sep", [
    (reports.write_json, reports._json_record, ",\n"),
    (reports.write_csv, reports._csv_record, ""),
], ids=["json", "csv"])
def test_writing_a_report_holds_one_block_of_rows(writer, record, sep):
    # The dense pair at window 256, all families: a block of 128 rows of 482
    # words (JSON) or 353 (CSV).  Its peak was measured at 3.15x (JSON) and
    # 3.06x (CSV) the block's matrix: the matrix, the block's floats and the
    # formatter's temporaries.  Flat scatter indices for every position and
    # number word of a block raised it to 4.19x and 4.48x.
    config = dict(price_start=100.0, log_price_step_sd=3e-3, volume_log_sd=0.4)
    s1, s2 = (gen_trades(SynthConfig(n_ticks=5000, seed=seed, **config), asset_id=name)
              for seed, name in ((41, "one"), (42, "two")))
    plan = make_plan(s1, s2, window=256, stride=1, alpha=1, beta=1, families=FAMILIES)
    chunks = list(iter_rolling_stats(s1, s2, plan))
    pieces = "".join(sep + record(plan, family) for family in plan.families).split("%s")
    row, _ = _grid17.row_template([piece.encode() for piece in pieces])
    matrix = min(plan.n_positions, reports._BLOCK) * len(row) * 8
    writer(_Sink(), plan, iter(chunks))  # the formatter's tables are built once

    _, peak = _traced(lambda: writer(_Sink(), plan, iter(chunks)))
    assert peak < 3.6 * matrix, (peak, matrix)
