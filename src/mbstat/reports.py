"""Byte-stable JSON and CSV emission of rolling-window records.

One record per window position per statistic family, with a fixed field
order.  Numbers are written with up to 17 significant digits, which makes
every double round-trip exactly; emission is handrolled so the output is
deterministic byte for byte for fixed inputs and flags.

Emission is columnar, in the word rows of ``mbstat generate``: a block of
positions is one matrix of ``_grid17.row_template`` rows, its numbers
written by ``float_words`` (``"%.17g"``).  ``_grid17`` is imported when a
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

# Positions per block, one float_words call each.  On the dense-emit
# benchmark (5k-tick pair, all families, seeds 1611-1623) 32 positions read
# 57.2k-61.4k items per calibrated CPU second at 33.7 MB peak RSS, 16 read
# 45.9k-51.0k at 33.5 MB and 64 53.0k-56.9k at 34.4 MB.
_BLOCK = 32


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
    finite = np.isfinite(block)
    if finite.all():
        return
    pos, row = np.argwhere(~finite.T)[0]  # first in record order
    family, slot = divmod(int(row), len(_ARRAY_KEYS) + 1)
    field = RECORD_FIELDS[4 + slot] if slot else RECORD_FIELDS[0]
    raise ConsistencyError(
        f"refusing to serialize non-finite value {float(block[row, pos])!r} "
        f"({plan.families[family]} {field})"
    )


def _write_records(out: IO[str], plan: RollingPlan, chunks: Iterable[RollingChunk],
                   record: Callable[[RollingPlan, str], str], sep: str) -> None:
    """Write the records of ``chunks``, each after ``sep`` but the first,
    one write per block; a row holds a position's records."""
    from ._grid17 import decimal_17, float_words, layout, nonzero_bytes, row_template

    pieces = "".join(sep + record(plan, family) for family in plan.families).split("%s")
    row, at = row_template([piece.encode() for piece in pieces])
    words = (at[:, None] + np.arange(3)).ravel()  # the numbers' words in a row
    m = np.tile(row, (_BLOCK, 1))
    skip = len(sep)
    for chunk in chunks:
        distinct = {}  # id -> (array, its row of a block)
        where = [
            distinct.setdefault(id(col), (col, len(distinct)))[1]
            for family in plan.families
            for col in (chunk.t_center, *(chunk.families[family][k] for k in _ARRAY_KEYS))
        ]
        for b0 in range(0, len(chunk), _BLOCK):
            block = np.array([col[b0 : b0 + _BLOCK] for col, _ in distinct.values()],
                             dtype=np.float64)
            if not np.isfinite(block).all():
                _check_finite(plan, block[where])
            rows = m[: block.shape[1]]
            text = np.empty((len(rows), len(block), 3), row.dtype)
            x = block.T.ravel()
            float_words(x, text.reshape(-1, 3), decimal_17(x), b"%.17g".__mod__, layout(16, False))
            rows[:, words] = text[:, where].reshape(len(rows), -1)
            out.write(nonzero_bytes(rows)[skip:].decode())
            skip = 0


def write_json(out: IO[str], plan: RollingPlan, chunks: Iterable[RollingChunk]) -> None:
    out.write('{\n"schema_version": %d,\n"records": [\n' % SCHEMA_VERSION)
    _write_records(out, plan, chunks, _json_record, ",\n")
    out.write("\n]\n}\n")


def write_csv(out: IO[str], plan: RollingPlan, chunks: Iterable[RollingChunk]) -> None:
    out.write(",".join(RECORD_FIELDS) + "\n")
    _write_records(out, plan, chunks, _csv_record, "")
