"""Byte-stable JSON and CSV emission of rolling-window records.

One record per window position per statistic family, with a fixed field
order.  Numbers are written with up to 17 significant digits, which makes
every double round-trip exactly; emission is handrolled so the output is
deterministic byte for byte for fixed inputs and flags.

Emission is columnar: each chunk is cut into blocks of positions, each
distinct column of a block is formatted once, and each position's records
are filled in from one template that covers every family.
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

# Positions per block.  Larger blocks save no time and hold more strings at
# once: 512 raised the peak RSS of a 5k-tick all-family run by 15%.
_BLOCK = 64


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
    opens with ``t_center``).  Bit-identical rows are formatted once, keyed
    on their bytes so that ``0.0`` and ``-0.0`` stay apart.
    """
    template = sep.join(record(plan, family) for family in plan.families)
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
            rows, text = [], {}
            for values in block:
                key = values.tobytes()
                if key not in text:
                    text[key] = list(map("%.17g".__mod__, values.tolist()))
                rows.append(text[key])
            out.write(lead)
            out.write(sep.join(map(template.__mod__, zip(*rows))))
            lead = sep


def write_json(out: IO[str], plan: RollingPlan, chunks: Iterable[RollingChunk]) -> None:
    out.write('{\n"schema_version": %d,\n"records": [\n' % SCHEMA_VERSION)
    _write_records(out, plan, chunks, _json_record, ",\n")
    out.write("\n]\n}\n")


def write_csv(out: IO[str], plan: RollingPlan, chunks: Iterable[RollingChunk]) -> None:
    out.write(",".join(RECORD_FIELDS) + "\n")
    _write_records(out, plan, chunks, _csv_record, "")
