"""Incremental rolling-window evaluation of all statistic families.

The engine advances a fixed-size window over the common grid of two series
and runs :mod:`mbstat.market_core`'s kernel once per anchor block: over the
block's span each leg is shifted by the block's first window, every needed
window mean is read by two strided slices from a cumulative sum, the sums
being the rows of one float64 matrix (see ``market_core.window_means``), and
each block starts from a fresh shift and a fresh full sum, which bounds
drift.  The block and segment lengths, the plan's ``anchor`` and
``segment``, are ``market_core.window_layout``'s, read once per run.

This module places each leg (asset, ``beta`` lag of ``p2``, horizon) for
``build_leg``, which builds it over one anchor block's span at a time (a
price leg's volumes and prices are views of its series, its trade values and
a return leg's arrays are block-sized).  The kernel takes the window sums
``sum_specs`` asks for (35 per anchor block for all seven families, in one
call) and runs ``closed_form`` once per leg pair (5 for all seven
families), under the first family in plan order that needs it, just before
that family's checks and record (``family_record``).  Results stream out
chunk by chunk (one chunk per anchor block), so a million-position run never
holds more than one block of legs and records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig, MissingHistory, NonUniformSpacing
from .market_core import (  # the family names stay importable from here
    FAMILIES,
    FAMILY_LEGS,
    JOINT_FAMILIES,
    JOINT_PRICE_FAMILY,
    JOINT_RETURN_FAMILY,
    PRICE_FAMILY,
    PRICE_RETURN_FAMILY,
    PRICE_VOL_FAMILY,
    RETURN_FAMILY,
    RETURN_VOL_FAMILY,
    family_record,
    pair_forms,
    shifted_means,
    window_layout,
)
from .trade_series import TradeSeries, _grid_centers, build_leg, whole_steps


@dataclass(frozen=True)
class RollingPlan:
    """Resolved geometry of one rolling run over a series pair.

    Window ``i`` starts at common-grid index ``i * stride``; its first tick
    sits at index ``off1 + i*stride`` of series 1 and ``off2 + i*stride`` of
    series 2.  ``length`` counts usable common-grid ticks (enough history for
    every requested lag exists at every index).  The plan keeps what
    :func:`make_plan` is given and where the two grids meet; the rest is
    derived on each read: ``n_positions``, and ``anchor`` and ``segment``,
    the kernel's layout, :func:`~mbstat.market_core.window_layout`.
    """

    window: int
    stride: int
    alpha: int
    beta: int
    families: tuple[str, ...]
    off1: int
    off2: int
    length: int
    t_origin: int
    epsilon: int

    n_positions = property(lambda self: (self.length - self.window) // self.stride + 1)
    anchor = property(lambda self: window_layout(self.window, self.stride)[0])
    segment = property(lambda self: window_layout(self.window, self.stride)[1])

    def start_index1(self, position: int) -> int:
        return self.off1 + position * self.stride

    def start_index2(self, position: int) -> int:
        return self.off2 + position * self.stride

    def t_center(self, position: int) -> float:
        """The center of window ``position``, or an int array of centers, as
        :attr:`Window.t_center` gives it."""
        eps = self.epsilon
        return _grid_centers(self.t_origin, self.stride * eps, position, (self.window - 1) * eps)


@dataclass(frozen=True, eq=False)
class RollingChunk:
    """One anchor block of results: parallel arrays per family.  A chunk
    compares and hashes by identity, as its arrays of results give no one
    truth value."""

    first_position: int
    t_center: np.ndarray
    families: dict[str, dict[str, np.ndarray]]
    #: The block's :func:`leg_sequences`: position ``first_position + j``'s
    #: window is ``[j*stride, j*stride + window)`` of each array.
    legs: dict[str, tuple] | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.t_center)


def _legs(families) -> set[str]:
    return {leg for family in families for leg in FAMILY_LEGS[family]}


def check_request(window: int, stride: int, alpha: int, beta: int, families):
    """The window, stride, lag and family rules of a request, checked before
    any input is read; returns ``(window, stride, alpha, beta, families)``,
    the steps as ints and the families without repeats."""
    window, stride, alpha, beta = (whole_steps(n, what, InvalidConfig) for n, what in (
        (window, "window"), (stride, "stride"), (alpha, "alpha"), (beta, "beta")))
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
    return window, stride, alpha, beta, families


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
    window, stride, alpha, beta, families = check_request(window, stride, alpha, beta, families)
    legs = _legs(families)

    if s1.epsilon != s2.epsilon:
        raise NonUniformSpacing(
            f"grid spacings differ: {s1.epsilon} vs {s2.epsilon}"
        )
    eps = s1.epsilon
    if (s1.start_time - s2.start_time) % eps != 0:
        raise NonUniformSpacing("the two grids are offset by a fraction of a step")

    t_lo = max(s1.start_time, s2.start_time)
    t_hi = min(s1.time_at(len(s1) - 1), s2.time_at(len(s2) - 1))
    if t_lo > t_hi:
        raise MissingHistory("the two series do not overlap in time")
    off1 = (t_lo - s1.start_time) // eps
    off2 = (t_lo - s2.start_time) // eps
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
    return RollingPlan(window=window, stride=stride, alpha=alpha, beta=beta, families=families,
                       off1=off1, off2=off2, length=length, t_origin=t_origin, epsilon=eps)


def leg_sequences(s1: TradeSeries, s2: TradeSeries, plan: RollingPlan, start: int = 0,
                  count: int | None = None):
    """Per leg of the plan, its ``(value, carrier, x)`` from ``build_leg`` over
    ``count`` ticks of the common grid from index ``start`` (all
    ``plan.length`` by default): a leg reads its own asset, ``p2`` lagged by
    ``beta``, a return leg over its asset's horizon, ``alpha`` or ``beta``.
    Position ``i``'s window is ``[i*stride, i*stride + window)`` of the grid."""
    count = plan.length - start if count is None else count
    sequences = {}
    for leg in sorted(_legs(plan.families)):  # a fixed order: the first bad leg is named
        series, lo, horizon = (s1, plan.off1, plan.alpha) if leg[1] == "1" else (
            s2, plan.off2, plan.beta)
        if leg == "p2":
            lo -= plan.beta
        sequences[leg] = build_leg(series, lo + start, count, horizon if leg[0] == "r" else 0)
    return sequences


def iter_rolling_stats(s1: TradeSeries, s2: TradeSeries, plan: RollingPlan):
    """Yield one :class:`RollingChunk` per anchor block, in position order.
    Each block's legs are built over its own span, so a return or past value
    out of range is refused when its block is reached.  Of a family's record
    (``market_core.family_record``) only the values and the denominator are
    checked finite: a writer refuses a non-finite average or covariance."""
    n, stride, n_positions = plan.window, plan.stride, plan.n_positions
    anchor, segment = plan.anchor, plan.segment
    pairs = {}
    for family in plan.families:  # a pair's errors name its first family
        pairs.setdefault(FAMILY_LEGS[family], family)

    for c0 in range(0, n_positions, anchor):
        k = min(anchor, n_positions - c0)
        legs = leg_sequences(s1, s2, plan, c0 * stride, (k - 1) * stride + n)
        zeros = np.zeros(k)  # the unused average slots of every family
        forms, families = {}, {}
        with np.errstate(all="ignore"):  # a non-finite figure is refused by name
            pending = pair_forms(*shifted_means(legs, pairs, k, stride, n, segment), pairs)
            for family in plan.families:  # a pair's form runs just before its first family
                pair = FAMILY_LEGS[family]
                if pair not in forms:
                    forms[pair] = next(pending)
                families[family] = family_record(family, *forms[pair], zeros)
        t_center = plan.t_center(c0 + np.arange(k, dtype=np.int64))
        yield RollingChunk(first_position=c0, t_center=t_center, families=families, legs=legs)


def collect_rolling_stats(s1: TradeSeries, s2: TradeSeries, plan: RollingPlan) -> RollingChunk:
    """Run the whole plan and concatenate the chunks into fresh arrays (small inputs only)."""
    chunks = list(iter_rolling_stats(s1, s2, plan))
    families = {
        family: {
            key: np.concatenate([c.families[family][key] for c in chunks])
            for key in chunks[0].families[family]
        }
        for family in plan.families
    }
    return RollingChunk(first_position=0, t_center=np.concatenate([c.t_center for c in chunks]),
                        families=families)
