"""Incremental rolling-window evaluation of all statistic families.

The engine advances a fixed-size window over the common grid of two series
and maintains every needed window sum (sum x, sum x^2, sum x*y per tracked
pair) by add/drop deltas from a periodically recomputed anchor: within a
block the deltas are the cumulative sums of the entering and leaving ticks,
and each block starts from a fresh full recomputation, which bounds drift.
The anchor interval is 4096 strides, shrunk only when ``stride`` or a tiny
window would let the in-block span grow past what keeps the incremental
results within 1e-9 of full recomputation.

Everything per family comes from :data:`mbstat.market_core.FAMILY_LEGS`: the
per-tick arrays of each leg, the window sums a family reads (a product's
operands in sorted order, so that mirrored products such as ``U1*C1`` and
``C1*U1`` are one pass: 31 passes per anchor block for all seven families),
the averages slots and the lag rules.  The closed form and the checked joint
moment are :func:`mbstat.market_core.closed_form` and
:func:`~mbstat.market_core.checked_joint_moment`, the functions the
per-window API calls, here over arrays of window positions.  Results stream
out chunk by chunk (one chunk per anchor block), so a million-position run
never holds more than one block of records in memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, MissingHistory, NonUniformSpacing
from .market_core import (  # the family names stay importable from here
    FAMILIES,
    FAMILY_LEGS,
    JOINT_PRICE_FAMILY,
    JOINT_RETURN_FAMILY,
    PRICE_FAMILY,
    PRICE_RETURN_FAMILY,
    PRICE_VOL_FAMILY,
    RETURN_FAMILY,
    RETURN_VOL_FAMILY,
    average_slots,
    checked_joint_moment,
    closed_form,
    require_finite,
)
from .trade_series import TradeSeries

# Per leg of FAMILY_LEGS: the names of its value, carrier and per-tick arrays.
_LEG_ARRAYS = {
    "p1": ("C1", "U1", "p1"),
    "r1": ("C1", "Co1", "r1"),
    "p2": ("C2b", "U2b", "p2b"),
    "r2": ("C2", "Co2", "r2"),
}

_ANCHOR_INTERVAL = 4096


@dataclass(frozen=True)
class RollingPlan:
    """Resolved geometry of one rolling run over a series pair.

    Window ``i`` starts at common-grid index ``i * stride``; its first tick
    sits at index ``off1 + i*stride`` of series 1 and ``off2 + i*stride`` of
    series 2.  ``length`` counts usable common-grid ticks (enough history for
    every requested lag exists at every index).
    """

    window: int
    stride: int
    alpha: int
    beta: int
    families: tuple[str, ...]
    off1: int
    off2: int
    length: int
    n_positions: int
    t_origin: int
    epsilon: int
    anchor: int

    def start_index1(self, position: int) -> int:
        return self.off1 + position * self.stride

    def start_index2(self, position: int) -> int:
        return self.off2 + position * self.stride

    def t_center(self, position: int) -> float:
        start = position * self.stride
        return self.t_origin + (start + (self.window - 1) / 2.0) * self.epsilon


@dataclass(frozen=True)
class RollingChunk:
    """One anchor block of results: parallel arrays per family."""

    first_position: int
    t_center: np.ndarray
    families: dict[str, dict[str, np.ndarray]]

    def __len__(self) -> int:
        return len(self.t_center)


def _anchor_interval(window: int, stride: int) -> int:
    # Keep the worst-case in-block cumsum drift, ~span^2 * eps / window
    # relative to a window sum of positive data, near 1e-10.
    span_limit = int(671.0 * math.sqrt(window))
    by_drift = (span_limit - window) // stride + 1
    return max(1, min(_ANCHOR_INTERVAL, by_drift))


def _legs(families) -> set[str]:
    return {leg for family in families for leg in FAMILY_LEGS[family]}


def check_request(window: int, stride: int, alpha: int, beta: int, families) -> tuple[str, ...]:
    """The window, stride, lag and family rules of a request, checked before
    any input is read; returns the families without repeats."""
    if window < 1:
        raise InvalidConfig(f"window must be >= 1, got {window}")
    if stride < 1:
        raise InvalidConfig(f"stride must be >= 1, got {stride}")
    families = tuple(dict.fromkeys(families))
    unknown = [f for f in families if f not in FAMILY_LEGS]
    if unknown:
        raise InvalidConfig(f"unknown stat families {unknown}; know {FAMILIES}")
    if not families:
        raise InvalidConfig("at least one stat family is required")
    if alpha < 0 or beta < 0:
        raise InvalidConfig(f"lags must be >= 0 grid steps, got alpha={alpha}, beta={beta}")
    legs = _legs(families)
    if "r1" in legs and alpha < 1:
        raise InvalidConfig("alpha must be >= 1 when leg-1 return statistics are requested")
    if "r2" in legs and beta < 1:
        raise InvalidConfig("beta must be >= 1 when leg-2 return statistics are requested")
    return families


def make_plan(
    s1: TradeSeries,
    s2: TradeSeries,
    *,
    window: int,
    stride: int = 1,
    alpha: int = 0,
    beta: int = 0,
    families: tuple[str, ...] = FAMILIES,
) -> RollingPlan:
    """Validate a rolling request against the pair and fix its geometry."""
    families = check_request(window, stride, alpha, beta, families)
    legs = _legs(families)

    if s1.epsilon != s2.epsilon:
        raise NonUniformSpacing(
            f"grid spacings differ: {s1.epsilon} vs {s2.epsilon}"
        )
    eps = s1.epsilon
    if (int(s1.t[0]) - int(s2.t[0])) % eps != 0:
        raise NonUniformSpacing("the two grids are offset by a fraction of a step")

    t_lo = max(int(s1.t[0]), int(s2.t[0]))
    t_hi = min(int(s1.t[-1]), int(s2.t[-1]))
    if t_lo > t_hi:
        raise MissingHistory("the two series do not overlap in time")
    off1 = (t_lo - int(s1.t[0])) // eps
    off2 = (t_lo - int(s2.t[0])) // eps
    length = (t_hi - t_lo) // eps + 1

    need1 = alpha if "r1" in legs else 0
    need2 = beta if legs & {"p2", "r2"} else 0
    skip = max(0, need1 - off1, need2 - off2)
    off1 += skip
    off2 += skip
    length -= skip
    t_origin = t_lo + skip * eps

    if length < window:
        raise MissingHistory(
            f"only {max(length, 0)} usable overlapping ticks after reserving "
            f"history for alpha={alpha}, beta={beta}; window needs {window}"
        )
    n_positions = (length - window) // stride + 1
    return RollingPlan(
        window=window,
        stride=stride,
        alpha=alpha,
        beta=beta,
        families=families,
        off1=off1,
        off2=off2,
        length=length,
        n_positions=n_positions,
        t_origin=t_origin,
        epsilon=eps,
        anchor=_anchor_interval(window, stride),
    )


def _base_arrays(s1: TradeSeries, s2: TradeSeries, plan: RollingPlan) -> dict[str, np.ndarray]:
    """The per-tick arrays of the plan's legs, named as in ``_LEG_ARRAYS``."""
    off1, off2, length = plan.off1, plan.off2, plan.length
    legs = _legs(plan.families)
    arrays = {
        "p1": s1.price[off1 : off1 + length],
        "C1": s1.value[off1 : off1 + length],
        "U1": s1.volume[off1 : off1 + length],
    }
    if "r1" in legs:
        lagged = s1.price[off1 - plan.alpha : off1 - plan.alpha + length]
        arrays["r1"] = arrays["p1"] / lagged
        arrays["Co1"] = lagged * arrays["U1"]
    if "p2" in legs:
        lo = off2 - plan.beta
        arrays["p2b"] = s2.price[lo : lo + length]
        arrays["C2b"] = s2.value[lo : lo + length]
        arrays["U2b"] = s2.volume[lo : lo + length]
    if "r2" in legs:
        arrays["C2"] = s2.value[off2 : off2 + length]
        lagged = s2.price[off2 - plan.beta : off2 - plan.beta + length]
        arrays["r2"] = s2.price[off2 : off2 + length] / lagged
        arrays["Co2"] = lagged * s2.volume[off2 : off2 + length]
    return arrays


def _sum_specs(family: str) -> dict[str, tuple[str, str | None]]:
    """The window sums a family reads, as ``(x, y)`` array names (``y=None``
    is a plain sum).  A product's names are sorted: ``x*y == y*x`` bit for
    bit, so mirrored products are one sum."""
    (c1, w1, x1), (c2, w2, x2) = (_LEG_ARRAYS[leg] for leg in FAMILY_LEGS[family])
    plain = {"c1": c1, "w1": w1, "c2": c2, "w2": w2, "x1": x1, "x2": x2}
    products = {"cc": (c1, c2), "wc": (w1, c2), "cw": (c1, w2), "ww": (w1, w2), "xx": (x1, x2)}
    return {**{k: (name, None) for k, name in plain.items()},
            **{k: tuple(sorted(pair)) for k, pair in products.items()}}


def _chunk_window_sums(x, y, s_anchor: int, rel: np.ndarray, n: int) -> np.ndarray:
    """Window sums at starts ``s_anchor + rel``: full recompute at the anchor,
    cumulative add/drop deltas within the block."""
    hi = s_anchor + int(rel[-1]) + n
    seg = x[s_anchor:hi] if y is None else x[s_anchor:hi] * y[s_anchor:hi]
    out = np.empty(rel.size, dtype=np.float64)
    out[0] = np.sum(seg[:n])
    if rel.size > 1:
        c = np.cumsum(seg)
        r = rel[1:]
        out[1:] = out[0] + (c[r + n - 1] - c[n - 1]) - c[r - 1]
    return out


def _family_records(family: str, sums: dict[str, np.ndarray], n: int) -> dict[str, np.ndarray]:
    inv_n = 1.0 / n
    m = {key: total * inv_n for key, total in sums.items()}
    g1, g2, cov_cc, cov_wc, cov_cw, cov_ww, market = closed_form(
        family, m["c1"], m["w1"], m["c2"], m["w2"], m["cc"], m["wc"], m["cw"], m["ww"]
    )
    freq = m["xx"] - m["x1"] * m["x2"]
    if family in (JOINT_PRICE_FAMILY, JOINT_RETURN_FAMILY):
        market = checked_joint_moment(family, g1, g2, market, m["cc"], cov_wc, cov_cw, cov_ww,
                                      m["ww"])
        freq = m["xx"]  # raw frequency joint moment
    require_finite(family, market_value=market, frequency_value=freq, denominator=m["ww"])

    averages = dict.fromkeys(("a1", "a2", "h1", "h2"), np.zeros_like(market))
    averages.update(zip(average_slots(family), (g1, g2)))
    return {"market_value": market, "frequency_value": freq, **averages, "denominator": m["ww"],
            "cov_cc": cov_cc, "cov_uc": cov_wc, "cov_cu": cov_cw, "cov_ww": cov_ww}


def iter_rolling_stats(s1: TradeSeries, s2: TradeSeries, plan: RollingPlan):
    """Yield one :class:`RollingChunk` per anchor block, in position order."""
    arrays = _base_arrays(s1, s2, plan)
    n = plan.window
    half = (n - 1) / 2.0
    family_specs = {family: _sum_specs(family) for family in plan.families}
    sum_specs = dict.fromkeys(spec for specs in family_specs.values() for spec in specs.values())

    for c0 in range(0, plan.n_positions, plan.anchor):
        c1 = min(c0 + plan.anchor, plan.n_positions)
        rel = np.arange(c1 - c0, dtype=np.int64) * plan.stride
        s_anchor = c0 * plan.stride
        sums_by_spec = {
            (xn, yn): _chunk_window_sums(
                arrays[xn], None if yn is None else arrays[yn], s_anchor, rel, n
            )
            for (xn, yn) in sum_specs
        }
        starts = s_anchor + rel
        t_center = plan.t_origin + (starts + half) * plan.epsilon
        families = {}
        for family in plan.families:
            sums = {k: sums_by_spec[spec] for k, spec in family_specs[family].items()}
            families[family] = _family_records(family, sums, n)
        yield RollingChunk(first_position=c0, t_center=t_center, families=families)


def collect_rolling_stats(s1: TradeSeries, s2: TradeSeries, plan: RollingPlan) -> RollingChunk:
    """Run the whole plan and concatenate the chunks (small inputs only)."""
    chunks = list(iter_rolling_stats(s1, s2, plan))
    if len(chunks) == 1:
        return chunks[0]
    families = {
        family: {
            key: np.concatenate([c.families[family][key] for c in chunks])
            for key in chunks[0].families[family]
        }
        for family in plan.families
    }
    return RollingChunk(
        first_position=0,
        t_center=np.concatenate([c.t_center for c in chunks]),
        families=families,
    )
