"""Tick-level trade data: parsing, validation, windowing, lagging, returns.

A trade series lives on a uniform time grid: integer tick times with one
constant spacing ``epsilon`` between consecutive trades.  All lags and window
widths are expressed in grid steps.  Gaps and duplicate timestamps are hard
errors; filling them would invent trades with fictitious volumes and poison
every volume-weighted statistic downstream.

CSV input is read in chunks of whole rows.  A chunk whose cells are all
plain (digits, one '.' in each float cell, at most 18 digits, no sign and
no exponent) is read in numpy: each cell's digits as one integer, from one
gather and a SWAR fold, and each float as that integer over a power of ten,
correctly rounded through its exact residual (Clinger 1990, *How to read
floating point numbers accurately*).  Any other chunk goes through ``int()``
and ``float()`` cell by cell.  Both give the same bits.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import NoReturn

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

_TINY = np.finfo(np.float64).tiny  # trade values, returns, past values: at least this

# The body is parsed in chunks of this many bytes and the rest of the row
# they end in, so the per-chunk copies stay small next to the columns.
_CHUNK_CHARS = 1 << 16
# The first pass over a stream, which only checks and counts, reads blocks of
# this many bytes into one buffer.  With 64 KiB blocks, the second pass over
# the first file of a process faulted its per-chunk temporaries in again for
# every chunk: nothing large had yet been freed to raise malloc's trim
# threshold.
_COUNT_BYTES = 1 << 20

# A cell's bytes; a '+' must also follow an 'e'.
_CELL_BYTES = b"0123456789.-e+"
_BODY_BYTES = _CELL_BYTES + b",\n"
_COMMA, _LF, _POINT = ord(","), ord("\n"), ord(".")
_COLUMNS = (("t", int, np.int64), ("price", float, np.float64),
            ("volume", float, np.float64), ("value", float, np.float64))

# Plain cells, read without int() or float(): a t cell of at most 18 digits,
# and a float cell of at most 18 digits and one '.'.
_PLAIN_DIGITS = 18
# A cell is read from the 8, 16 or 24 bytes that end where it ends, as
# uint64 words.  A digit's byte reads as its low nibble; bit 4 (0x10) sets
# digits apart from '.', ',' and LF, which read as 0.  The padding covers the
# first cells.
_PAD = b"0" * 24
_BIT4, _FOUR, _FIFTEEN = np.uint64(0x0101010101010101), np.uint64(4), np.uint64(15)
# SWAR steps (multiplier, shift, mask) that fold eight digits into one
# 8-digit number, the first byte the most significant.
_FOLDS = tuple((np.uint64(m), np.uint64(s), np.uint64(k)) for m, s, k in (
    (10, 8, 0x00FF00FF00FF00FF), (100, 16, 0x0000FFFF0000FFFF), (10000, 32, 0xFFFFFFFF)))
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_TEN = np.array([float(10**k) for k in range(_PLAIN_DIGITS + 1)])  # exact doubles
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for float64
_TEN_HI = _TEN * _SPLIT - (_TEN * _SPLIT - _TEN)  # each power's halves, for TwoProduct
_TEN_LO = _TEN - _TEN_HI
_EXPONENT = np.uint64(0x7FF << 52)
# A quotient whose residual lies within this many ulps of half an ulp is left
# to float().
_TIE = 2.0**-24


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


def _first_outside_range(arr: np.ndarray) -> int | None:
    """The first index of ``arr`` that is not a positive normal float (finite
    and at least ``np.finfo(float).tiny``), or None when there is none."""
    if arr.min() >= _TINY and arr.max() < math.inf:  # False for a NaN
        return None
    return int(np.argmax(~((arr >= _TINY) & (arr < math.inf))))


def _spacing(t: np.ndarray) -> int:
    """The one constant step of tick times ``t`` (1 for a single tick)."""
    if t.size < 2:
        return 1  # single tick: spacing is vacuous
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
    return epsilon


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

    epsilon = _spacing(t)
    with np.errstate(over="ignore", under="ignore"):  # refused just below, naming the row
        value = price * volume
    i = _first_outside_range(value)
    if i is not None:
        raise ParseError(f"trade value price*volume = {float(price[i])!r}*{float(volume[i])!r} "
                         f"at t={t[i]} " + ("is not finite" if value[i] == math.inf else
                                            f"underflows to {float(value[i])!r}"))
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


def parse_trades(source, asset_id: str = "asset") -> TradeSeries:
    """Parse canonical CSV trade content into a validated series.

    ``source`` is a binary stream (a file opened in ``"rb"`` mode), or the
    text, which is encoded whole as UTF-8 and read as a stream.  The stream
    is read twice in chunks: a first pass checks that it is ASCII (a
    ``ParseError`` names the stream and the offset of the first other byte,
    before any other rule) and counts its rows, a second fills the columns;
    neither holds more than one chunk of it.  A stream that cannot seek is
    read into memory first.

    The header is exactly ``t,price,volume``, or ``t,price,volume,value``
    with a declared trade value; rows end in LF (the last row may omit it)
    and are sorted by ``t``.  A cell is a non-empty run of ASCII digits,
    ``.``, ``e``, ``-`` and ``+``, with ``+`` only right after ``e``, that
    ``int()`` (the ``t`` column, in the 64-bit range) or ``float()`` reads.
    The first row that breaks a rule is named in the ``ParseError``.  The
    grid spacing is inferred from the first two rows.
    """
    if isinstance(source, str):  # a lone surrogate is then refused as not ASCII
        source = io.BytesIO(source.encode("utf-8", "surrogatepass"))
    header, size, chunks = _stream_chunks(source)
    if header == CSV_HEADER:
        ncols = 3
    elif header == CSV_HEADER + ",value":
        ncols = 4
    else:
        raise ParseError(f"unexpected header {header!r}, want '{CSV_HEADER}[,value]'")
    if not size:
        raise EmptyInput("CSV has a header but no rows")

    # The columns are filled in place, so no chunk's arrays wait for a
    # concatenation.
    columns = [np.empty(size, dtype) for _, _, dtype in _COLUMNS[:ncols]]
    rows = 0
    for raw in chunks:
        arrays = _convert_chunk(raw, ncols)
        if arrays is None:
            _raise_first_bad_row(raw.decode("ascii"), ncols, rows)
        for column, arr in zip(columns, arrays):
            column[rows : rows + len(arr)] = arr
        rows += len(arrays[0])
    return make_series(asset_id, *columns)


def _stream_chunks(stream):
    """``(header, rows, chunks)`` of a binary stream of CSV bytes: its first
    line, the number of rows after it, and the chunks of the rest, after a
    first pass that checks the whole stream is ASCII and counts its LFs."""
    name = stream.name if isinstance(getattr(stream, "name", None), str) else "input"
    if not stream.seekable():
        stream = io.BytesIO(stream.read())
    start = stream.tell()
    buf = bytearray(_COUNT_BYTES)  # the first pass reads into one reused buffer
    codes = np.frombuffer(buf, np.uint8)
    lfs = size = 0
    while length := stream.readinto(buf):
        block = codes[:length]
        if block.max() > 0x7F:
            raise ParseError(f"{name}: byte {size + int(np.argmax(block > 0x7F))} is not ASCII")
        lfs += np.count_nonzero(block == _LF)
        size += length
        last = block[-1]
    if not size:
        raise EmptyInput("empty CSV input")
    stream.seek(start)
    header = stream.readline().decode("ascii").removesuffix("\n")
    return header, lfs + (last != _LF) - 1, _read_chunks(stream)


def _read_chunks(stream):
    """The rest of ``stream`` in chunks of whole rows: ``_CHUNK_CHARS`` bytes
    and the rest of the row they end in (the last chunk may lack its LF)."""
    while chunk := stream.read(_CHUNK_CHARS):
        if chunk[-1] != _LF:
            chunk += stream.readline()
        yield chunk


def _only(raw: bytes, allowed: bytes) -> bool:
    """Whether ``raw`` holds only ``allowed`` bytes, with every ``+`` right
    after an ``e``."""
    return not raw.translate(None, allowed) and (
        b"+" not in raw or raw.count(b"+") == raw.count(b"e+"))


def _convert_chunk(raw: bytes, ncols: int):
    """The column arrays of a chunk of whole rows, or None when a row breaks a
    rule of the canonical form: one byte check over the chunk (which refuses
    every byte outside ASCII), one look at its separators, and one C-level
    conversion per column."""
    if not _only(raw, _BODY_BYTES):
        return None
    if raw[-1] != _LF:  # the last row of the body
        raw += b"\n"
    codes = np.frombuffer(raw, dtype=np.uint8)
    seps = np.flatnonzero((codes == _COMMA) | (codes == _LF))
    width = np.empty_like(seps)  # bytes per cell
    width[0] = seps[0]
    np.subtract(seps[1:], seps[:-1] + 1, out=width[1:])
    rows, extra = divmod(len(seps), ncols)
    is_lf = codes[seps] == _LF
    if (extra or np.count_nonzero(is_lf) != rows
            or not is_lf[ncols - 1 :: ncols].all()  # every row has ncols cells
            or width.min() == 0):  # no empty cell
        return None
    plain = _plain_columns(raw, codes, seps, width, ncols)
    if plain is not None:
        return plain
    cells = raw.replace(b"\n", b",").split(b",")
    cells.pop()  # after the last LF
    try:
        return [np.fromiter(map(convert, cells[j::ncols]), dtype, rows)
                for j, (_, convert, dtype) in enumerate(_COLUMNS[:ncols])]
    except (ValueError, OverflowError):
        return None


def _plain_columns(raw: bytes, codes: np.ndarray, seps: np.ndarray, width: np.ndarray,
                   ncols: int):
    """The column arrays of a chunk of well-formed rows whose cells are all
    plain, bit for bit what ``int()`` and ``float()`` give, or None when one
    is not: a plain chunk holds no ``e`` (so no ``+``) and no ``-``, each t
    cell has at most 18 digits, and each float cell one ``.`` and 1 to 18
    digits.  ``seps`` are the offsets of the chunk's commas and LFs, and
    ``width`` the bytes of each cell."""
    if b"e" in raw or b"-" in raw:
        return None
    rows = len(seps) // ncols
    points = np.flatnonzero(codes == _POINT)
    if len(points) != (ncols - 1) * rows:
        return None
    ends = seps.reshape(rows, ncols)
    points = points.reshape(rows, ncols - 1)
    if not ((points > ends[:, :-1]).all() and (points < ends[:, 1:]).all()):
        return None  # not one '.' in each float cell and none in a t cell
    widest = int(width.max())
    width = width.reshape(rows, ncols)
    if (widest > _PLAIN_DIGITS + 1 or width[:, 0].max() > _PLAIN_DIGITS
            or width[:, 1:].min() < 2):  # a float cell: its digits and the point
        return None
    value = _cell_values(raw, seps, width.ravel(), widest).reshape(rows, ncols)
    frac = ends[:, 1:] - points - 1  # digits after the point
    # A float cell's value is i * 10**(frac + 1) + f, the point read as a 0;
    # its digits are i * 10**frac + f.
    floats = value[:, 1:]
    digits = ((floats + floats % _POW10[frac] * np.uint64(9)) // np.uint64(10)).view(np.int64)
    x, near = _quotients(digits, frac)
    for i, j in zip(*np.nonzero(near)):
        x[i, j] = float(raw[ends[i, j] + 1 : ends[i, j + 1]])
    return [value[:, 0].view(np.int64), *x.T]


def _cell_values(raw: bytes, ends: np.ndarray, width: np.ndarray, widest: int) -> np.ndarray:
    """Each cell of ``raw`` read as one decimal number, as uint64: the
    ``width`` bytes that end at ``ends``, a '.' read as the digit 0.

    One gather takes the 8, 16 or 24 bytes before each end (``widest`` at
    most 19), and SWAR folds each word's digits to an 8-digit number.  The
    bytes before the cell add multiples of ``10**width``, which the final
    modulus removes; the top word is first cut to the digits that can matter,
    so the sum stays below ``10**19``."""
    words = -(-widest // 8)
    size = 8 * words
    padded = _PAD + raw
    view = np.ndarray((len(padded) - size + 1,), f"S{size}", padded, 0, (1,))
    word = view[ends + (len(_PAD) - size)].view("<u8").reshape(-1, words)
    word &= ((word >> _FOUR) & _BIT4) * _FIFTEEN
    for mul, shift, mask in _FOLDS:
        word = (word * mul + (word >> shift)) & mask
    value = word[:, 0] % _POW10[widest - size + 8]
    for k in range(1, words):
        value = value * _POW10[8] + word[:, k]
    return value % _POW10[width]


def _quotients(digits: np.ndarray, frac: np.ndarray):
    """``(x, near)``: ``x`` is ``digits / 10**frac`` correctly rounded, for
    int64 ``digits`` below ``10**18`` and ``frac`` at most 18, except where
    ``near`` holds, which is left to ``float()``.

    ``y = fl(fl(digits) / 10**frac)`` is within about an ulp; its exact
    residual ``r = digits - y * 10**frac`` (Dekker's TwoProduct of ``y`` and
    the exact double ``10**frac``, and the integer error of
    ``fl(digits)``) gives ``x = y + r / 10**frac`` in one rounding.  Left to
    ``float()``: ``|r / 10**frac|`` within ``_TIE`` ulps of half an ulp, and
    a negative residual at a power of two, where the spacing below halves.
    Both are a margin: with at most 18 digits an inexact quotient lies at
    least ``1 / (2 * 5**18)`` ulps (about 2**-43) from a midpoint, and an
    exact tie has an exact ``r``, so the one rounding is already right."""
    d = _TEN[frac]
    rounded = digits.astype(np.float64)
    y = rounded / d
    p = y * d
    t = y * _SPLIT
    y_hi = t - (t - y)
    y_lo = y - y_hi
    d_hi, d_lo = _TEN_HI[frac], _TEN_LO[frac]
    e = ((y_hi * d_hi - p) + y_hi * d_lo + y_lo * d_hi) + y_lo * d_lo  # y*d = p + e
    # rounded - p is exact (Sterbenz), so is the remainder (rounded - p) - e,
    # and adding the small integer digits - rounded is exact too.
    tail = (((rounded - p) - e) + (digits - rounded.astype(np.int64))) / d  # r / 10**frac
    power = (y.view(np.uint64) & _EXPONENT).view(np.float64)  # 2**floor(log2(y))
    ulp = power * 2.0**-52
    near = np.abs(np.abs(tail) - 0.5 * ulp) < _TIE * ulp
    near |= (y == power) & (tail < 0)
    return y + tail, near


def _raise_first_bad_row(chunk: str, ncols: int, rows_before: int) -> NoReturn:
    """Raise a ParseError naming the first row of ``chunk`` that breaks a rule
    of the canonical form; rows are numbered from the first body row."""
    lines = chunk.split("\n")
    if chunk.endswith("\n"):
        lines.pop()
    for row, line in enumerate(lines, rows_before + 1):
        cells = line.split(",")
        if len(cells) != ncols:
            raise ParseError(f"row {row}: expected {ncols} columns, got {len(cells)}")
        for cell, (name, convert, _) in zip(cells, _COLUMNS):
            if not cell:
                raise ParseError(f"row {row}: {name} cell is empty")
            number = None
            if _only(cell.encode(), _CELL_BYTES):
                try:
                    number = convert(cell)
                except ValueError:
                    pass
            if number is None:
                kind = "integer" if convert is int else "decimal number"
                raise ParseError(f"row {row}: {name} {cell!r} is not a canonical {kind}")
            if convert is int and not -(2**63) <= number < 2**63:
                raise ParseError(f"row {row}: tick time {cell} is outside the 64-bit "
                                 "integer range")
    raise ParseError(f"rows {rows_before + 1} to {rows_before + len(lines)} are not "
                     "canonical CSV")


def serialize(series: TradeSeries) -> str:
    """Render the canonical CSV form: three columns, LF endings, shortest
    round-trip-exact decimal for each float.  ``parse_trades(serialize(s))``
    reproduces ``s`` bit-exactly.

    Each row is ``f"{t},{price!r},{volume!r}"`` byte for byte, built in
    numpy by ``_format_repr``, which is imported on first use so that a run
    that writes no CSV does not compile it."""
    from ._format_repr import csv_rows

    body = csv_rows(series.t, series.price, series.volume)
    return CSV_HEADER + "\n" + body.decode("ascii")


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
        object.__setattr__(self, "lag", _check_steps(self.lag, 0, "lag"))
        if self.start - self.lag < 0:
            raise MissingHistory(f"lag {self.lag} reaches before the series start "
                                 f"(window starts at index {self.start})")

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
        return (float(self.times[0]) + float(self.times[-1])) / 2.0


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
        raise EmptyWindow(f"no ticks of {series.asset_id!r} inside [{lo_t}, {hi_t}]")
    return Window(series=series, start=i_lo, count=i_hi - i_lo + 1, lag=0)


def lag_view(window: Window, lag) -> Window:
    """The same window read ``lag`` grid steps into the past."""
    steps = _check_steps(lag, 0, "lag")
    return Window(series=window.series, start=window.start, count=window.count,
                  lag=window.lag + steps)


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
        if not err <= RETURN_IDENTITY_REL_TOL:  # also refuses NaN
            raise ConsistencyError(f"value != return * past_value (relative error {err:.3e})")

    def __len__(self) -> int:
        return len(self.r)

    @property
    def t_center(self) -> float:
        return (float(self.times[0]) + float(self.times[-1])) / 2.0


def build_leg(series: TradeSeries, start: int, count: int, horizon: int = 0):
    """A leg's ``(value, carrier, x)`` over ``count`` ticks of ``series`` from
    index ``start``: volumes and prices for a price leg (``horizon`` 0), past
    values ``p(t - horizon*eps) * volume(t)`` and returns
    ``p(t) / p(t - horizon*eps)`` for a return leg.  The one place either is
    derived; each must be a positive normal float, or a ParseError names it."""
    if start - horizon < 0:
        raise MissingHistory(f"horizon {horizon} reaches before the start of "
                             f"{series.asset_id!r}")
    span = slice(start, start + count)
    value, carrier, x = series.value[span], series.volume[span], series.price[span]
    if horizon:
        then = series.price[start - horizon : start - horizon + count]
        with np.errstate(over="ignore", under="ignore"):  # refused just below, naming the tick
            carrier, x = then * carrier, x / then
        for name, arr in (("past value", carrier), ("return", x)):
            i = _first_outside_range(arr)
            if i is not None:
                raise ParseError(f"{name} {float(arr[i])!r} at t={series.t[start + i]} over "
                                 f"horizon {horizon} is not a positive normal float")
    return value, carrier, x


def compute_returns(window: Window, alpha) -> ReturnView:
    """Derive per-tick returns and past values for a window.

    ``alpha`` is the return horizon in grid steps (>= 1); history must exist
    ``alpha`` steps before every windowed tick.
    """
    steps = _check_steps(alpha, 1, "alpha")
    value, c_past, r = build_leg(window.series, window._lo, window.count, steps)
    return ReturnView(r=r, c_past=c_past, value=value.copy(), alpha=steps,
                      asset_id=window.asset_id, times=window.times.copy())
