"""Working-set bounds, measured with ``tracemalloc`` (numpy reports its
buffers to it): reading a file holds its columns and a few chunks, not its
text, and a rolling drain holds one anchor block, not a series-long leg."""

import tracemalloc

import pytest

from mbstat import FAMILIES, SynthConfig, gen_trades, iter_rolling_stats, make_plan, serialize
from mbstat import trade_series
from mbstat.trade_series import parse_trades

N = 100_000


def _peak(run) -> int:
    """Bytes ``run()`` allocates at its peak, above what was allocated before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def long_pair():
    config = dict(price_start=1e4, log_price_step_sd=1e-4, volume_log_sd=0.4)
    return (gen_trades(SynthConfig(n_ticks=2 * N, seed=11, **config), asset_id="one"),
            gen_trades(SynthConfig(n_ticks=2 * N, seed=12, **config), asset_id="two"))


def test_reading_a_file_holds_its_columns_and_a_few_chunks(tmp_path, long_pair):
    path = tmp_path / "long.csv"
    path.write_text(serialize(long_pair[0]))
    rows = len(long_pair[0])
    columns = 4 * 8 * rows  # t, price, volume and value

    def read():
        with open(path, "rb") as fh:
            assert len(parse_trades(fh)) == rows

    peak = _peak(read)
    assert peak < columns + 8 * trade_series._CHUNK_CHARS, (peak, columns)
    # the text alone is larger than the margin over the columns
    assert path.stat().st_size > 8 * trade_series._CHUNK_CHARS


def test_a_rolling_drain_allocates_no_array_as_long_as_the_series(long_pair):
    # Window 8 keeps an anchor block at 761 positions, so one block's legs,
    # sums and records stay well below one series-long float array.
    s1, s2 = long_pair
    plan = make_plan(s1, s2, window=8, stride=1, alpha=1, beta=1, families=FAMILIES)
    assert plan.n_positions > 100 * plan.anchor

    def drain():
        for _ in iter_rolling_stats(s1, s2, plan):
            pass

    peak = _peak(drain)
    assert peak < 8 * len(s1), peak
