"""The vectorized reader of plain CSV chunks in ``mbstat.trade_series``
against ``int()`` and ``float()``, bit for bit."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mbstat import SynthConfig, gen_trades, make_series, parse_trades, serialize
from mbstat import trade_series
from mbstat.errors import ParseError
from mbstat.trade_series import _convert_chunk, _plain_columns, _quotients


def _rows_text(cells, ncols=3):
    """Rows of ``ncols`` cells: a running t, then ``cells`` in order (the
    last row padded with "1.")."""
    per = ncols - 1
    cells = list(cells) + ["1."] * (-len(cells) % per)
    return "".join(f"{i},{','.join(row)}\n" for i, row in enumerate(zip(*[iter(cells)] * per)))


def _plain(text, ncols=3):
    """``_plain_columns`` of a chunk; None when the chunk is not plain."""
    raw = text.encode()
    codes = np.frombuffer(raw, np.uint8)
    seps = np.flatnonzero((codes == ord(",")) | (codes == ord("\n")))
    return _plain_columns(raw, codes, seps, np.diff(seps, prepend=-1) - 1, ncols)


def _assert_exact(cells, ncols=3):
    """The float cells read through one plain chunk equal ``float()`` of each."""
    columns = _plain(_rows_text(cells, ncols), ncols)
    assert columns is not None, "the chunk is not plain"
    got = np.column_stack(columns[1:]).ravel()[: len(cells)]
    want = np.fromiter(map(float, cells), np.float64, len(cells))
    if got.tobytes() != want.tobytes():
        bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        raise AssertionError([(cells[i], got[i], want[i]) for i in bad[:5]])


def _is_plain(cell):
    return "e" not in cell and cell.count(".") == 1 and 1 <= len(cell) - 1 <= 18


def _split(cell):
    """A plain float cell's digits as an integer, and its digits after the point."""
    return int(cell.replace(".", "") or "0"), len(cell) - cell.index(".") - 1


def _near(cells):
    """Whether ``_quotients`` leaves each cell to ``float()``."""
    digits, frac = np.array([_split(c) for c in cells], dtype=np.int64).T
    return _quotients(digits, frac)[1]


def _near_midpoints(e, nf, cs, seed):
    """Cells with ``nf`` digits after the point, ``c / (2 * 5**nf)`` ulps
    from a midpoint between two doubles in ``[2**e, 2**(e+1))``, per ``c`` in
    ``cs`` (odd): ``M * 2**s == odd * 5**nf - c`` with ``s = 53 - e - nf``."""
    s = 53 - e - nf
    inverse = pow(5**nf, -1, 2**s)
    rng = np.random.default_rng(seed)
    cells = []
    for c in cs:
        low = c * inverse % 2**s
        high = int(rng.integers(2 ** (53 - s), 2 ** (54 - s)))  # odd in [2**53, 2**54)
        m = ((high << s) + low) * 5**nf - c >> s
        cells.append(f"{m // 10**nf}.{m % 10**nf:0{nf}d}")
    return cells


def test_random_bit_patterns():
    # Positive doubles in [2**-3, 2**53), whose repr is plain: no exponent,
    # and at most 17 significant digits after a leading "0." at most.
    rng = np.random.default_rng(13)
    bits = rng.integers(0, 2**52, 200_000, dtype=np.uint64)
    bits |= rng.integers(1023 - 3, 1023 + 53, 200_000).astype(np.uint64) << np.uint64(52)
    _assert_exact(list(map(repr, bits.view(np.float64).tolist())))


def test_uniform_reprs():
    rng = np.random.default_rng(14)
    values = np.concatenate([rng.uniform(0.1, 2.0, 20_000), rng.uniform(1e3, 1e5, 20_000)])
    cells = [c for c in map(repr, values.tolist()) if _is_plain(c)]
    assert len(cells) > 39_000
    _assert_exact(cells)


@given(st.lists(st.floats(min_value=0.0, max_value=2.0**60, allow_nan=False), min_size=1))
def test_hypothesis_reprs(values):
    cells = [c for c in map(repr, values) if _is_plain(c)]
    if cells:
        _assert_exact(cells)


plain_cells = st.tuples(st.text("0123456789", min_size=1, max_size=18), st.integers(0, 18)).map(
    lambda pair: pair[0][: pair[1]] + "." + pair[0][pair[1] :])  # the point anywhere


@given(st.lists(plain_cells, min_size=1, max_size=20))
def test_hypothesis_digit_strings(cells):
    _assert_exact(cells)


def test_random_digit_strings():
    rng = np.random.default_rng(15)
    cells = [".5", "5.", "0.0", "0.", ".0", "000.000", "0000000000000000.5", "5.00000000000000000",
             "00000000000000000.", ".000000000000000001", "999999999999999999.",
             ".999999999999999999", "1.00000000000000001", "0.1", "0.30000000000000004"]
    for n, point, digits in zip(rng.integers(1, 19, 40_000), rng.random(40_000),
                                rng.integers(0, 10**18, 40_000)):
        text = f"{digits:018d}"[-n:]
        at = int(point * (n + 1))
        cells.append(text[:at] + "." + text[at:])
    _assert_exact(cells)


def test_exact_midpoints_and_neighbours():
    rng = np.random.default_rng(16)
    cells = ["9007199254740993.", "9007199254740993.0", "18014398509481986.",
             "18014398509481985.0"]
    for k in range(53, 60):  # integers in [2**k, 2**(k+1)): midpoints at odd * 2**(k-53)
        for j in rng.integers(0, 2**52, 2000).tolist():
            m = 2**k + (2 * j + 1) * 2 ** (k - 53)
            if m < 10**18:
                cells += [f"{m + d}." for d in (-1, 0, 1)]
            if m < 10**17:
                cells += [f"{m}.0", f"{m}.1", f"{m - 1}.9"]
    for k, places in ((52, 1), (51, 2)):  # x.5 at 2**52, x.25 and x.75 at 2**51
        half = 2 ** (52 - k)  # the midpoint's denominator, 2 or 4
        for j in rng.integers(0, 2**52, 2000).tolist():
            m = 2**k * half + 2 * j + 1  # an odd count of 1/(2*half)
            whole, part = divmod(m * 10**places // (2 * half), 10**places)
            for d in (-1, 0, 1):
                cells.append(f"{whole}.{part + d:0{places}d}")
    for m in rng.integers(1, 10**13, 2000).tolist():  # binary fractions x.0625 and neighbours
        for d in (-1, 0, 1):
            cells.append(f"{m}.{625 + d:04d}")
    assert all(map(_is_plain, cells))
    _assert_exact(cells)


def test_powers_and_neighbours():
    cells = []
    for k in range(18):  # 10**k and 10**-(k+1), and their neighbours in the 18th digit
        cells += [f"1{'0' * k}.", f"{10**k - 1}.", f"{10**k + 1}.", f".{'0' * k}1",
                  f"0.{'0' * k}1", f".{10**(17 - k) - 1:018d}", f".{10**(17 - k) + 1:018d}"]
    for e in range(-17, 60):  # 2**e: its repr, its neighbours' reprs, its exact digits +-1
        x = 2.0**e
        cells += map(repr, (x, math.nextafter(x, 0), math.nextafter(x, math.inf)))
        exact = f"{2**e}." if e >= 0 else f".{5**-e:0{-e}d}"
        cells.append(exact)
        if e >= 0:
            cells += [f"{2**e - 1}.", f"{2**e + 1}."]
        else:
            cells += [exact[:-1] + "4", exact[:-1] + "6"]  # its last digit is 5
    cells = [c for c in cells if _is_plain(c)]
    assert len(cells) > 500
    _assert_exact(cells)


def test_tick_time_cells():
    """Up to 19 digits below ``2**63``, as epoch-nanosecond stamps have."""
    rng = np.random.default_rng(17)
    times = ["007", "0", "000000000000000000", "999999999999999999", "123456789012345678",
             "0000000000000000000", "1234567890123456789", "1700000000000000000",
             "9223372036854775807"]
    times += [f"{d:019d}"[-n:] for n, d in zip(rng.integers(1, 20, 20_000),
                                               rng.integers(0, 2**63, 20_000))]
    columns = _plain("".join(f"{t},1.5,2.5\n" for t in times))
    assert columns is not None and columns[0].dtype == np.int64
    assert columns[0].tolist() == [int(t) for t in times]


class TestFallback:
    def test_near_ties_are_left_to_float(self):
        cells = ["9007199254740993.0", "9007199254740993."]  # exact ties
        for e, nf in ((0, 17), (-1, 17), (3, 15), (20, 11)):
            cells += _near_midpoints(e, nf, [1, -1, 3, -3, 5, -5], seed=e + 100)
        assert all(map(_is_plain, cells))
        assert _near(cells).all()
        _assert_exact(cells)

    def test_a_negative_residual_at_a_power_of_two_is_left_to_float(self):
        cells = ["0.99999999999999999", "0.99999999999999993", "1.99999999999999999",
                 "127.999999999999999", ".499999999999999999"]
        assert _near(cells).all()
        _assert_exact(cells)
        assert float("0.99999999999999993") == math.nextafter(1.0, 0)
        # An exact power of two, and one just above, stay on the fast path.
        assert not _near(["1.0", "2.", "0.5", ".25", "1.00000000000000001"]).any()

    @pytest.mark.parametrize("cell", ["0.012345678901234567", "2.5e-07", "2", "1e5",
                                      "1234567890123456789."])
    def test_a_chunk_with_a_cell_that_is_not_plain_is_read_by_float(self, cell):
        text = _rows_text(["1.5", "2.25", cell, "3.0"])
        assert _plain(text) is None
        columns = _convert_chunk(text.encode(), 3)
        assert [c.tolist() for c in columns] == [[0, 1], [1.5, float(cell)], [2.25, 3.0]]

    @pytest.mark.parametrize("text", ["-1,1.5,2.5\n", "1,1.5,2.5\n9223372036854775808,1.5,2.5\n",
                                      "1,1.5,2.5\n9999999999999999999,1.5,2.5\n",
                                      "1,1.5,2.5\n12345678901234567890,1.5,2.5\n",
                                      "1,1.5,2.5\n2,1.5.0,2\n", "1,1.5,2.5\n1.0,1.5,2.5\n",
                                      "1,1.5,2.5\n2,.,2.5\n", "1,1.5,2.5\n2,1.5.0,25\n",
                                      "1,1.5,2.5\n2.0,1.5,25\n"])
    def test_a_chunk_that_is_not_plain_keeps_the_conversion_path(self, text):
        # The last two hold one '.' per float cell on average, but not in
        # each float cell.
        assert _plain(text) is None

    def test_long_sparse_chunks_are_read_vectorized(self, monkeypatch):
        # A long-sparse series (price 1e4, log step 1e-4): at least 99% of
        # its cells are read without int() or float().
        seen = {"plain": 0, "near": 0, "all": 0}

        def counted_plain(raw, codes, seps, width, ncols):
            columns = _plain_columns(raw, codes, seps, width, ncols)
            seen["all"] += len(seps)
            seen["plain"] += 0 if columns is None else len(seps)
            return columns

        def counted_quotients(digits, frac):
            x, near = _quotients(digits, frac)
            seen["near"] += int(near.sum())
            return x, near

        monkeypatch.setattr(trade_series, "_plain_columns", counted_plain)
        monkeypatch.setattr(trade_series, "_quotients", counted_quotients)
        config = SynthConfig(n_ticks=20_000, seed=5, price_start=1e4, log_price_step_sd=1e-4,
                             volume_log_sd=0.4)
        series = gen_trades(config)
        assert parse_trades(serialize(series), series.asset_id) == series
        assert seen["all"] == 3 * 20_000
        assert seen["plain"] - seen["near"] >= 0.99 * seen["all"]


def _columns_equal(parsed, reference):
    return all(getattr(parsed, name).tobytes() == getattr(reference, name).tobytes()
               and getattr(parsed, name).dtype == getattr(reference, name).dtype
               for name in ("t", "price", "volume", "value"))


# Cells that make a chunk not plain, each still a canonical decimal.
_NOT_PLAIN = ["2.5e-07", "2", "0.012345678901234567", "1e+2", "4e5", "12345678901234567890.5"]


class TestMixedChunks:
    @pytest.mark.parametrize("with_value", [False, True], ids=["3-columns", "value-column"])
    def test_mixed_chunks_keep_every_bit(self, monkeypatch, with_value):
        # 120-character chunks: plain ones between chunks with a negative t,
        # an exponent, a dotless or a 19-digit cell.
        monkeypatch.setattr(trade_series, "_CHUNK_CHARS", 120)
        rng = np.random.default_rng(18)
        header = "t,price,volume,value" if with_value else "t,price,volume"
        for n in (1, 7, 40, 300):
            times = (np.arange(n) - rng.integers(0, 2 * n)) * 2
            cells = [[repr(v) for v in rng.uniform(0.5, 2e4, n).tolist()] for _ in range(2)]
            for column in cells:
                for i in rng.integers(0, n, max(1, n // 25)).tolist():
                    column[i] = _NOT_PLAIN[int(rng.integers(len(_NOT_PLAIN)))]
            prices, volumes = ([float(c) for c in column] for column in cells)
            values = [repr(p * v) for p, v in zip(prices, volumes)]
            reference = make_series("m", times, prices, volumes)
            rows = [",".join([str(t), p, v] + ([w] if with_value else []))
                    for t, p, v, w in zip(times.tolist(), *cells, values)]
            for ending in ("", "\n"):
                text = "\n".join([header, *rows]) + ending
                assert _columns_equal(parse_trades(text, "m"), reference), (n, ending)

    @pytest.mark.parametrize("bad, message", [
        ("1_0.5", "price '1_0.5' is not a canonical decimal number"),
        ("+5.0", "price '+5.0' is not a canonical decimal number"),
        ("", "price cell is empty"),
        ("1.5.5", "price '1.5.5' is not a canonical decimal number"),
        (".", "price '.' is not a canonical decimal number"),
    ])
    @pytest.mark.parametrize("row", [3, 60, 97])
    def test_first_bad_row_keeps_its_message(self, monkeypatch, bad, message, row):
        # Rows 1-50 are plain, rows 51-100 hold exponents; the bad cell goes
        # into either part.
        monkeypatch.setattr(trade_series, "_CHUNK_CHARS", 100)
        rows = [f"{t},{1 + t / 7!r},{2.5 if t < 50 else 2.5e-7}" for t in range(100)]
        rows[row - 1] = f"{row - 1},{bad},1.5"
        with pytest.raises(ParseError, match=f"^{re.escape(f'input: row {row}: {message}')}$"):
            parse_trades("\n".join(["t,price,volume", *rows]))
