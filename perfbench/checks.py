"""Untimed output checks; any problem found makes the op a failed op.

The expected geometry is derived here from the workload, not from
``mbstat.rolling``: both series start at t = 0 with one grid step, and
alpha = beta = 1, so every family needs one tick of history.
"""

from __future__ import annotations

import hashlib
import json

# Report field order and canonical family order, part of the byte-stable format.
FIELDS = ("t_center", "N", "alpha", "beta", "stat_family", "market_value",
          "frequency_value", "a1", "a2", "h1", "h2", "denominator", "cov_CC",
          "cov_UC", "cov_CU", "cov_UU_or_CoCo_or_UCo")
ALL_FAMILIES = ("price_corr", "return_corr", "price_return_corr", "price_vol",
                "return_vol", "joint_price_moment", "joint_return_moment")

# verify's own gate: deviation relative to max(|x|, |y|, |g1*g2|).
GATE = 1e-9
HISTORY = 1
LAG = 1


class Geometry:
    """Window positions of a workload over a pair of ``n_ticks`` each."""

    def __init__(self, n_ticks: int, window: int, stride: int, families=ALL_FAMILIES):
        self.window, self.stride, self.families = window, stride, tuple(families)
        self.n_positions = (n_ticks - HISTORY - window) // stride + 1

    def start(self, position: int) -> int:
        """Index of the window's first tick in either series."""
        return HISTORY + position * self.stride

    def t_center(self, position: int) -> float:
        return self.start(position) + (self.window - 1) / 2.0


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record_lines(data: bytes, fmt: str) -> list[bytes]:
    """One line per record, in file order."""
    lines = data.split(b"\n")
    if fmt == "json":
        if lines[:3] != [b"{", b'"schema_version": 1,', b'"records": ['] or lines[-3:] != [
            b"]", b"}", b""
        ]:
            raise ValueError("JSON report framing is not the schema-1 layout")
        return lines[3:-3]
    if lines[0].decode() != ",".join(FIELDS) or lines[-1] != b"":
        raise ValueError("CSV report header or final newline is wrong")
    return lines[1:-1]


def parse_record(line: bytes, fmt: str) -> dict:
    if fmt == "json":
        rec = json.loads(line.rstrip(b","))
        if tuple(rec) != FIELDS:
            raise ValueError(f"JSON record fields out of order: {tuple(rec)}")
        return rec
    cells = line.decode().split(",")
    if len(cells) != len(FIELDS):
        raise ValueError(f"CSV record has {len(cells)} cells")
    rec = dict(zip(FIELDS, cells))
    for key in FIELDS:
        if key == "stat_family":
            continue
        rec[key] = int(rec[key]) if key in ("N", "alpha", "beta") else float(rec[key])
    return rec


def market_recompute(pair, geom: Geometry, position: int) -> dict[str, tuple[float, float]]:
    """Per family: the per-window ``market_core`` value and its ``|g1*g2|``."""
    from mbstat import (Window, compute_returns, mb_corr_price_return, mb_corr_prices,
                        mb_corr_returns, mb_joint_price_moment, mb_joint_return_moment)

    s1, s2 = pair
    n, i = geom.window, geom.start(position)
    w1 = Window(s1, i, n)
    w2_lag = Window(s2, i, n, lag=LAG)
    rv1 = compute_returns(w1, LAG)
    rv2 = compute_returns(Window(s2, i, n), LAG)
    price = mb_corr_prices(w1, w2_lag)
    ret = mb_corr_returns(rv1, rv2)
    pret = mb_corr_price_return(w1, rv2)
    pvol = mb_corr_prices(w1, w1)
    rvol = mb_corr_returns(rv1, rv1)
    av = lambda rep, k1, k2: abs(getattr(rep.averages, k1) * getattr(rep.averages, k2))  # noqa: E731
    return {
        "price_corr": (price.market_value, av(price, "a1", "a2")),
        "return_corr": (ret.market_value, av(ret, "h1", "h2")),
        "price_return_corr": (pret.market_value, av(pret, "a1", "h2")),
        "price_vol": (pvol.market_value, av(pvol, "a1", "a2")),
        "return_vol": (rvol.market_value, av(rvol, "h1", "h2")),
        "joint_price_moment": (mb_joint_price_moment(w1, w2_lag), av(price, "a1", "a2")),
        "joint_return_moment": (mb_joint_return_moment(rv1, rv2), av(ret, "h1", "h2")),
    }


def gate_problem(label: str, got: float, want: float, scale: float) -> str | None:
    diff = abs(got - want)
    if diff == 0.0:
        return None
    dev = diff / max(abs(got), abs(want), scale)
    if not dev <= GATE:
        return f"{label}: market_value {got!r} vs recompute {want!r} (dev {dev:.3e})"
    return None


def check_report(data: bytes, fmt: str, geom: Geometry, direct, sampled) -> tuple[list[str], dict]:
    """Count, framing, and sampled-record checks of one analyze report.

    ``direct(position)`` gives :func:`market_recompute` for a position.
    Returns the problems found and the parsed sampled records, keyed by
    ``(position, family)``.
    """
    try:
        lines = record_lines(data, fmt)
    except (ValueError, UnicodeDecodeError) as exc:
        return [f"{fmt}: {exc}"], {}
    nfam = len(geom.families)
    want = geom.n_positions * nfam
    if len(lines) != want:
        return [f"{fmt}: {len(lines)} records, want {want} "
                f"({geom.n_positions} positions x {nfam} families)"], {}
    problems, records = [], {}
    for position in sampled:
        expect = direct(position)
        for k, family in enumerate(geom.families):
            label = f"{fmt} position {position} {family}"
            try:
                rec = parse_record(lines[position * nfam + k], fmt)
            except (ValueError, UnicodeDecodeError) as exc:
                problems.append(f"{label}: {exc}")
                continue
            head = (rec["t_center"], rec["N"], rec["alpha"], rec["beta"], rec["stat_family"])
            if head != (geom.t_center(position), geom.window, LAG, LAG, family):
                problems.append(f"{label}: record head {head} is wrong")
                continue
            problem = gate_problem(label, rec["market_value"], *expect[family])
            if problem:
                problems.append(problem)
            records[(position, family)] = rec
    return problems, records


def compare_formats(json_records: dict, csv_records: dict) -> list[str]:
    """JSON and CSV must carry the same values for the same sampled records."""
    problems = []
    for key in sorted(set(json_records) | set(csv_records)):
        a, b = json_records.get(key), csv_records.get(key)
        if a is None or b is None or a != b:
            problems.append(f"JSON and CSV disagree at position {key[0]} {key[1]}")
    return problems


def check_rolling(result: dict, geom: Geometry, direct, sampled, drains: int) -> list[str]:
    """Counts and sampled values of each rolling drain; every drain must
    return the same sampled values as the first."""
    got_drains = result.get("drains", [])
    if len(got_drains) != drains:
        return [f"rolling ran {len(got_drains)} drains, want {drains}"]
    want = geom.n_positions
    for drain in got_drains:
        if drain["positions"] != want:
            return [f"rolling drained {drain['positions']} positions, want {want}"]
        if drain["records"] != want * len(geom.families):
            return [f"rolling produced {drain['records']} records, "
                    f"want {want * len(geom.families)}"]
        if drain["sampled"] != got_drains[0]["sampled"]:
            return ["rolling drains returned different sampled values"]
    got = got_drains[0]["sampled"]
    if sorted(int(k) for k in got) != sorted(sampled):
        return [f"rolling returned positions {sorted(got)}, want {sorted(sampled)}"]
    problems = []
    for key, values in got.items():
        position = int(key)
        if values["t_center"] != geom.t_center(position):
            problems.append(f"rolling position {position}: t_center {values['t_center']}")
        expect = direct(position)
        for family in geom.families:
            problem = gate_problem(f"rolling position {position} {family}",
                                   values[family], *expect[family])
            if problem:
                problems.append(problem)
    return problems


def check_verify(rc: int, stdout: str, families) -> list[str]:
    """Exit code 0 and one ``[ok]`` line per verified family."""
    problems = [] if rc == 0 else [f"verify exited {rc}"]
    lines = stdout.splitlines()
    for family in families:
        line = next((ln for ln in lines if ln.startswith(family + ": ")), None)
        if line is None:
            problems.append(f"verify printed no line for {family}")
        elif not line.endswith("[ok]"):
            problems.append(f"verify line for {family} is not ok: {line}")
    return problems
