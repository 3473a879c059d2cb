"""Byte-stable JSON and CSV emission of rolling-window records.

One record per window position per statistic family, with a fixed field
order.  Numbers are written with up to 17 significant digits, which makes
every double round-trip exactly; emission is handrolled so the output is
deterministic byte for byte for fixed inputs and flags.

Emission is columnar: each chunk is cut into blocks of positions, the
distinct columns of a block are formatted together, and each position's
records are filled in from one bytes template that covers every family,
decoded once per block.

Numbers are formatted by ``_format17g.format_17g``, ``"%.17g"`` byte for
byte in numpy array arithmetic.  That module is imported on the first
block written, so that a run that writes no report does not compile it.
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

# Positions per block, one format_17g call each.  Larger blocks save little
# time and hold more at once: on the dense-emit benchmark (5k-tick pair, all
# families, seeds 451-452) 32 positions read 54.6k-58.9k items per calibrated
# CPU second at 33.6 MB peak RSS, 64 read 57.4k-58.9k at 34.0 MB, 128
# 58.8k-59.3k at 35.0 MB and 256 60.8k-60.9k at 36.7-37.1 MB.
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
    """Write the ``sep``-separated records of ``chunks``, one write per block.

    A block's matrix has one row per template slot (each family's record
    opens with ``t_center``).  Bit-identical rows are formatted once (keyed
    on their bytes, so that ``0.0`` and ``-0.0`` stay apart): a block's
    distinct rows go through one ``format_17g`` call.
    """
    from ._format17g import format_17g

    template = sep.join(record(plan, family) for family in plan.families).encode()
    joiner = sep.encode()
    lead = ""
    for chunk in chunks:
        columns = [
            col
            for family in plan.families
            for col in (chunk.t_center, *(chunk.families[family][k] for k in _ARRAY_KEYS))
        ]
        for b0 in range(0, len(chunk), _BLOCK):
            block = np.array([col[b0 : b0 + _BLOCK] for col in columns], dtype=np.float64)
            _check_finite(plan, block)
            first = {}  # row bytes -> the first row holding them
            slots = [first.setdefault(values.tobytes(), i) for i, values in enumerate(block)]
            text = format_17g(block[list(first.values())])
            width = block.shape[1]
            rows = {i: text[n * width : (n + 1) * width] for n, i in enumerate(first.values())}
            out.write(lead)
            out.write(joiner.join(map(template.__mod__, zip(*map(rows.__getitem__, slots)))).decode())
            lead = sep


def write_json(out: IO[str], plan: RollingPlan, chunks: Iterable[RollingChunk]) -> None:
    out.write('{\n"schema_version": %d,\n"records": [\n' % SCHEMA_VERSION)
    _write_records(out, plan, chunks, _json_record, ",\n")
    out.write("\n]\n}\n")


def write_csv(out: IO[str], plan: RollingPlan, chunks: Iterable[RollingChunk]) -> None:
    out.write(",".join(RECORD_FIELDS) + "\n")
    _write_records(out, plan, chunks, _csv_record, "")
