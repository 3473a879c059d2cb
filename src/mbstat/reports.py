"""Byte-stable JSON and CSV emission of rolling-window records.

One record per window position per statistic family, with a fixed field
order.  Numbers are written with up to 17 significant digits, which makes
every double round-trip exactly; emission is handrolled so the output is
deterministic byte for byte for fixed inputs and flags.

Emission is columnar, in the word rows of ``mbstat generate``: a block of
positions is one matrix of ``_grid17.row_template`` rows, its numbers
written by ``float_words`` (``"%.17g"``) and placed by one assignment of
word columns, ``rows[:, words] = text[:, src]``.
The writers write bytes to a binary stream.  ``_grid17`` is imported when a
report is written, so that a run that writes none does not compile it.
"""

from __future__ import annotations

from typing import IO, Callable, Iterable

import numpy as np

from .errors import ConsistencyError
from .rolling import RollingChunk, RollingPlan

SCHEMA_VERSION = 1

RECORD_FIELDS = (
    "t_center", "N", "alpha", "beta", "stat_family",
    "market_value", "frequency_value", "a1", "a2", "h1", "h2", "denominator",
    "cov_CC", "cov_UC", "cov_CU", "cov_UU_or_CoCo_or_UCo",
)

# Chunk array behind each numeric field after stat_family, in field order.
_ARRAY_KEYS = (
    "market_value", "frequency_value", "a1", "a2", "h1", "h2", "denominator",
    "cov_cc", "cov_uc", "cov_cu", "cov_ww",
)

# Positions per block, one float_words call and one column assignment
# each.  On the dense-emit benchmark (2-core Xeon) 128 positions read a median
# 87.6k items per calibrated CPU second at 35.6 MB peak RSS over ten 20 s
# runs, where 32 with a 2-D gather and text output read 62.3k at 33.8 MB; in
# 8 s runs, 64 read 73.1k-80.6k at 34.5 MB against 84.3k-87.7k for 128.
_BLOCK = 128


def _json_record(plan: RollingPlan, family: str) -> str:
    numbers = "".join(', "%s": %%s' % name for name in RECORD_FIELDS[5:])
    return '{"t_center": %%s, "N": %d, "alpha": %d, "beta": %d, "stat_family": "%s"%s}' % (
        plan.window, plan.alpha, plan.beta, family, numbers,
    )


def _csv_record(plan: RollingPlan, family: str) -> str:
    return "%%s,%d,%d,%d,%s%s\n" % (
        plan.window, plan.alpha, plan.beta, family, ",%s" * len(_ARRAY_KEYS),
    )


def _check_finite(plan: RollingPlan, block: np.ndarray) -> None:
    """Refuse a block that holds a non-finite value, naming the first."""
    pos, row = np.argwhere(~np.isfinite(block).T)[0]  # first in record order
    family, slot = divmod(int(row), len(_ARRAY_KEYS) + 1)
    field = RECORD_FIELDS[4 + slot] if slot else RECORD_FIELDS[0]
    raise ConsistencyError(
        f"refusing to serialize non-finite value {float(block[row, pos])!r} "
        f"({plan.families[family]} {field})"
    )


def _write_records(out: IO[bytes], plan: RollingPlan, chunks: Iterable[RollingChunk],
                   record: Callable[[RollingPlan, str], str], sep: str) -> None:
    """Write the records of ``chunks``, each after ``sep`` but the first,
    one write per block; a row holds a position's records."""
    from ._grid17 import float_words, layout, nonzero_bytes, row_template

    pieces = "".join(sep + record(plan, family) for family in plan.families).split("%s")
    row, at = row_template([piece.encode() for piece in pieces])
    words = (at[:, None] + np.arange(3)).ravel()  # the numbers' words in a row
    m = np.tile(row, (min(plan.n_positions, _BLOCK), 1))  # the rows of a block
    skip = len(sep)
    for chunk in chunks:
        distinct = {}  # id -> (array, its column of a block)
        where = np.array([
            distinct.setdefault(id(col), (col, len(distinct)))[1]
            for family in plan.families
            for col in (chunk.t_center, *(chunk.families[family][k] for k in _ARRAY_KEYS))
        ])
        src = (where[:, None] * 3 + np.arange(3)).ravel()  # their words in a block's text
        for b0 in range(0, len(chunk), _BLOCK):
            block = np.stack([col[b0 : b0 + _BLOCK] for col, _ in distinct.values()],
                             axis=1, dtype=np.float64)
            if not np.isfinite(block).all():
                _check_finite(plan, block[:, where].T)
            n = len(block)
            text = np.empty((n, block.shape[1] * 3), row.dtype)
            float_words(block.reshape(-1), text.reshape(-1, 3), layout(False))
            m[:n, words] = text[:, src]
            out.write(nonzero_bytes(m[:n])[skip:])
            skip = 0


def write_json(out: IO[bytes], plan: RollingPlan, chunks: Iterable[RollingChunk]) -> None:
    out.write(b'{\n"schema_version": %d,\n"records": [\n' % SCHEMA_VERSION)
    _write_records(out, plan, chunks, _json_record, ",\n")
    out.write(b"\n]\n}\n")


def write_csv(out: IO[bytes], plan: RollingPlan, chunks: Iterable[RollingChunk]) -> None:
    out.write(",".join(RECORD_FIELDS).encode() + b"\n")
    _write_records(out, plan, chunks, _csv_record, "")
