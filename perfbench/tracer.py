"""In-memory span tracer for one benchmark op, and span-tree arithmetic.

A span is a list ``[name, start, end, parent, op_id, count]``: ``name`` is
``"<layer>.<function>"``, times are ``time.perf_counter()`` readings (the
system-wide monotonic clock on Linux, so spans from a child process and
wall times taken by the parent share one time axis), ``parent`` is the
index of the enclosing span or ``None``, and ``count`` is a work count
recorded at the boundary (rows parsed, positions in a chunk).

The tracer wraps each layer's public functions by object identity in every
loaded ``mbstat.*`` namespace, so a call is traced whichever module makes
it.  ``freq_stats`` is not wrapped: from outside it is only reached inside
``market_core`` calls and its time stays inside those spans.
"""

from __future__ import annotations

import functools
import sys
import time

# Public functions per layer module.  Window is a class: its __init__ is
# wrapped in place, which covers every construction.
LAYER_FUNCTIONS = {
    "trade_series": ("parse_trades", "serialize", "make_series", "compute_returns",
                     "slice_window", "lag_view"),
    "synth": ("gen_trades",),
    "rolling": ("make_plan", "iter_rolling_stats", "collect_rolling_stats"),
    "market_core": ("vwap", "vawar", "portfolio_return", "mb_corr_prices",
                    "mb_corr_returns", "mb_corr_price_return", "mb_price_volatility",
                    "mb_return_volatility", "mb_joint_price_moment",
                    "mb_joint_return_moment"),
    "oracle": ("make_weights", "em_expectation", "relative_deviation", "oracle_corr"),
    "reports": ("write_json", "write_csv"),
}

LAYERS = tuple(LAYER_FUNCTIONS)

NAME, START, END, PARENT, OP, COUNT = range(6)


class Tracer:
    """Collects spans of one process; single-threaded."""

    def __init__(self, op_id: int = 0):
        self.op_id = op_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id, 0])
        self._stack.append(index)
        return index

    def close(self, index: int, count: int = 0, name: str | None = None) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[COUNT] = count
        if name is not None:
            span[NAME] = name
        self._stack.pop()

    def wrap(self, name: str, fn, counter=None):
        """A traced stand-in for ``fn``; ``counter(result)`` gives the count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(index, counter(result) if counter and result is not None else 0)

        return traced

    def wrap_chunks(self, name: str, gen_fn):
        """A traced generator function: each chunk's production is one span,
        a child of whatever span pulls the chunk (the report writer)."""

        @functools.wraps(gen_fn)
        def traced(*args, **kwargs):
            inner = gen_fn(*args, **kwargs)
            while True:
                index = self.open(name + ".chunk")
                try:
                    chunk = next(inner)
                except StopIteration:
                    self.close(index, name=name + ".exhaust")
                    return
                except BaseException:
                    self.close(index)
                    raise
                self.close(index, len(chunk))
                yield chunk

        return traced

    def install(self) -> None:
        """Replace every layer function in all loaded mbstat modules."""
        modules = {
            key: mod for key, mod in sys.modules.items()
            if mod is not None and (key == "mbstat" or key.startswith("mbstat."))
        }
        replacements = {}
        for layer, names in LAYER_FUNCTIONS.items():
            mod = modules["mbstat." + layer]
            for fname in names:
                fn = getattr(mod, fname)
                span = f"{layer}.{fname}"
                if fname == "iter_rolling_stats":
                    replacements[id(fn)] = (fn, self.wrap_chunks("rolling", fn))
                elif fname in ("parse_trades", "gen_trades"):
                    replacements[id(fn)] = (fn, self.wrap(span, fn, len))
                else:
                    replacements[id(fn)] = (fn, self.wrap(span, fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        window_cls = modules["mbstat.trade_series"].Window
        window_cls.__init__ = self.wrap("trade_series.Window", window_cls.__init__)


def union_length(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Total length covered by ``intervals`` inside ``[lo, hi]``."""
    clipped = sorted(
        (max(s, lo), min(e, hi)) for s, e in intervals if min(e, hi) > max(s, lo)
    )
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans, lo: float = float("-inf"), hi: float = float("inf")) -> list[float]:
    """Per span: its duration inside ``[lo, hi]`` minus the part of that
    interval its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        s, e = max(span[START], lo), min(span[END], hi)
        if e <= s:
            out.append(0.0)
            continue
        out.append((e - s) - union_length(children.get(index, ()), s, e))
    return out


def covered(spans, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Time inside ``[lo, hi]`` covered by any root span."""
    return union_length(
        [(s[START], s[END]) for s in spans if s[PARENT] is None], lo, hi
    )
