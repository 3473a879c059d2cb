"""Command-line front end: ``mbstat generate|analyze|verify``.

Exit codes: 0 success; 1 verify tolerance breach; 2 invalid flags; 3 I/O
failure; 4 input parse/validation failure (the message names the violated
rule); 5 insufficient history for the requested window/lags.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import EmptyWindow, InvalidConfig, MbstatError, MissingHistory
from .market_core import (
    FAMILIES,
    JOINT_PRICE_FAMILY,
    JOINT_RETURN_FAMILY,
    PRICE_FAMILY,
    PRICE_RETURN_FAMILY,
    PRICE_VOL_FAMILY,
    RETURN_FAMILY,
    RETURN_VOL_FAMILY,
    mb_corr_price_return,
    mb_corr_prices,
    mb_corr_returns,
)
from .oracle import oracle_corr, relative_deviation
from .reports import write_csv, write_json
from .rolling import check_request, iter_rolling_stats, make_plan
from .synth import MODES, SynthConfig, gen_trades
from .trade_series import Window, compute_returns, parse_trades, serialize

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DATA = 4
EXIT_HISTORY = 5

# CLI stat names; joint_moments expands to both joint families.
_STAT_CHOICES = {
    "price_corr": (PRICE_FAMILY,),
    "return_corr": (RETURN_FAMILY,),
    "price_return_corr": (PRICE_RETURN_FAMILY,),
    "price_vol": (PRICE_VOL_FAMILY,),
    "return_vol": (RETURN_VOL_FAMILY,),
    "joint_moments": (JOINT_PRICE_FAMILY, JOINT_RETURN_FAMILY),
}

_VERIFY_CHOICES = ("price_corr", "return_corr", "price_return_corr")


@dataclass(frozen=True)
class AnalyzeRequest:
    """A resolved analyze invocation (paths, lags, window geometry, output)."""

    asset1_path: str
    asset2_path: str
    beta: int
    alpha: int
    window: int
    stride: int
    stats: tuple[str, ...]
    output: str
    format: str

    def __post_init__(self):
        check_request(self.window, self.stride, self.alpha, self.beta, self.stats)
        if self.format not in ("json", "csv"):
            raise InvalidConfig(f"--format must be json or csv, got {self.format!r}")


def _parse_stats(spec: str) -> tuple[str, ...]:
    requested = set()
    for name in spec.split(","):
        name = name.strip()
        if name not in _STAT_CHOICES:
            raise InvalidConfig(
                f"unknown stat {name!r}; choose from {', '.join(sorted(_STAT_CHOICES))}"
            )
        requested.update(_STAT_CHOICES[name])
    return tuple(f for f in FAMILIES if f in requested)


def _read_series(path: str, label: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_trades(text, asset_id=label)


@contextmanager
def _output(path: str):
    """Text stream for ``path`` (``-`` is stdout).

    A regular file is written to a temporary sibling that replaces ``path``
    only when the body succeeds: a failed run leaves no partial report, and
    a file already at ``path`` stays as it was.
    """
    if path == "-":
        yield sys.stdout
        return
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(target, "w", encoding="utf-8", newline="") as out:  # e.g. /dev/null
            yield out
        return
    fd, tmp = tempfile.mkstemp(
        prefix=f".{os.path.basename(target)}.", suffix=".tmp", dir=os.path.dirname(target)
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as out:
            yield out
        if mode is None:  # the mode open() would give a new file
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def run_generate(args) -> int:
    config = SynthConfig(
        n_ticks=args.n,
        seed=args.seed,
        price_start=args.price_start,
        log_price_step_sd=args.log_price_step_sd,
        volume_log_mean=args.volume_log_mean,
        volume_log_sd=args.volume_log_sd,
        mode=args.mode.replace("-", "_"),
        alpha=args.alpha,
    )
    series = gen_trades(config, asset_id=args.asset_id)
    with _output(args.out) as out:
        out.write(serialize(series))
    return EXIT_OK


def run_analyze(request: AnalyzeRequest) -> int:
    s1 = _read_series(request.asset1_path, "asset1")
    s2 = _read_series(request.asset2_path, "asset2")
    plan = make_plan(
        s1,
        s2,
        window=request.window,
        stride=request.stride,
        alpha=request.alpha,
        beta=request.beta,
        families=request.stats,
    )
    chunks = iter_rolling_stats(s1, s2, plan)
    with _output(request.output) as out:
        if request.format == "json":
            write_json(out, plan, chunks)
        else:
            write_csv(out, plan, chunks)
    return EXIT_OK


def run_verify(args) -> int:
    """Recompute every window's correlations with the brute-force oracle and
    compare against the closed forms."""
    stats = tuple(dict.fromkeys(s.strip() for s in args.stats.split(",")))
    for name in stats:
        if name not in _VERIFY_CHOICES:
            raise InvalidConfig(
                f"unknown verify family {name!r}; choose from {', '.join(_VERIFY_CHOICES)}"
            )
    if args.tol < 0:
        raise InvalidConfig("--tol must be >= 0")
    requested = {_STAT_CHOICES[s][0] for s in stats}
    families = tuple(f for f in FAMILIES if f in requested)
    check_request(args.window, args.stride, args.alpha, args.beta, families)

    s1 = _read_series(args.asset1_path, "asset1")
    s2 = _read_series(args.asset2_path, "asset2")
    plan = make_plan(
        s1,
        s2,
        window=args.window,
        stride=args.stride,
        alpha=args.alpha,
        beta=args.beta,
        families=families,
    )
    worst = {}  # family -> (dev, t_center) of its first worst window
    n = plan.window
    for i in range(plan.n_positions):
        i1 = plan.start_index1(i)
        i2 = plan.start_index2(i)
        w1 = Window(s1, i1, n)
        rv1 = rv2 = None
        if "return_corr" in stats:
            rv1 = compute_returns(w1, args.alpha)
        if "return_corr" in stats or "price_return_corr" in stats:
            rv2 = compute_returns(Window(s2, i2, n), args.beta)
        for name in stats:
            if name == "price_corr":
                w2 = Window(s2, i2, n, lag=args.beta)
                rep = mb_corr_prices(w1, w2)
                direct = oracle_corr(
                    "price_price", w1.price, w2.price, w1.volume, w2.volume,
                    rep.averages.a1, rep.averages.a2,
                )
                scale = abs(rep.averages.a1 * rep.averages.a2)
            elif name == "return_corr":
                rep = mb_corr_returns(rv1, rv2)
                direct = oracle_corr(
                    "return_return", rv1.r, rv2.r, rv1.c_past, rv2.c_past,
                    rep.averages.h1, rep.averages.h2,
                )
                scale = abs(rep.averages.h1 * rep.averages.h2)
            else:
                rep = mb_corr_price_return(w1, rv2)
                direct = oracle_corr(
                    "price_return", w1.price, rv2.r, w1.volume, rv2.c_past,
                    rep.averages.a1, rep.averages.h2,
                )
                scale = abs(rep.averages.a1 * rep.averages.h2)
            dev = relative_deviation(rep.market_value, direct, scale)
            prev = worst.get(name)
            # A NaN deviation (a non-finite oracle sum) ranks above every number.
            if prev is None or (math.isnan(dev), dev) > (math.isnan(prev[0]), prev[0]):
                worst[name] = (dev, plan.t_center(i))

    failed = []
    for name in stats:
        dev, at = worst[name]
        ok = dev <= args.tol  # False for NaN
        status = "ok" if ok else "FAIL"
        print(
            f"{name}: max_rel_dev={dev:.6e} at t_center={at:g} "
            f"over {plan.n_positions} windows [{status}]"
        )
        if not ok:
            failed.append((name, at, dev))
    if failed:
        for name, at, dev in failed:
            print(
                f"tolerance breach: family={name} window_t_center={at:g} "
                f"deviation={dev:.6e} > tol={args.tol:g}",
                file=sys.stderr,
            )
        return EXIT_TOLERANCE
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbstat",
        description="Trade-weighted (market-based) vs frequency-based statistics "
        "of prices and returns over rolling windows of tick data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a seeded synthetic trade CSV")
    gen.add_argument("--n", type=int, required=True, help="number of ticks (>= 2)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default="-", help="output path, '-' for stdout")
    gen.add_argument(
        "--mode",
        default="free",
        choices=[m.replace("_", "-") for m in MODES],
    )
    gen.add_argument("--alpha", type=int, default=1,
                     help="horizon pinned by constant-past-value mode")
    gen.add_argument("--price-start", type=float, default=100.0)
    gen.add_argument("--log-price-step-sd", type=float, default=0.01)
    gen.add_argument("--volume-log-mean", type=float, default=0.0)
    gen.add_argument("--volume-log-sd", type=float, default=0.5)
    gen.add_argument("--asset-id", default=None)
    gen.set_defaults(handler=run_generate)

    def add_pair_flags(p, with_stride_default=1):
        p.add_argument("--asset1-path", required=True)
        p.add_argument("--asset2-path", required=True)
        p.add_argument("--alpha", type=int, default=1, help="leg-1 return horizon (grid steps)")
        p.add_argument("--beta", type=int, default=1,
                       help="leg-2 lag / return horizon (grid steps)")
        p.add_argument("--window", type=int, required=True, help="ticks per window")
        p.add_argument("--stride", type=int, default=with_stride_default,
                       help="grid steps between window positions")

    ana = sub.add_parser("analyze", help="rolling-window statistics of an asset pair")
    add_pair_flags(ana)
    ana.add_argument("--stats", default=",".join(sorted(_STAT_CHOICES)),
                     help="comma-separated subset of: " + ", ".join(sorted(_STAT_CHOICES)))
    ana.add_argument("--output", default="-", help="report path, '-' for stdout")
    ana.add_argument("--format", default="json", choices=["json", "csv"])
    ana.set_defaults(handler=_handle_analyze)

    ver = sub.add_parser(
        "verify", help="check closed forms against the brute-force oracle per window"
    )
    add_pair_flags(ver)
    ver.add_argument("--stats", default=",".join(_VERIFY_CHOICES),
                     help="comma-separated subset of: " + ", ".join(_VERIFY_CHOICES))
    ver.add_argument("--tol", type=float, default=1e-9,
                     help="max allowed relative deviation")
    ver.set_defaults(handler=run_verify)
    return parser


def _handle_analyze(args) -> int:
    request = AnalyzeRequest(
        asset1_path=args.asset1_path,
        asset2_path=args.asset2_path,
        beta=args.beta,
        alpha=args.alpha,
        window=args.window,
        stride=args.stride,
        stats=_parse_stats(args.stats),
        output=args.output,
        format=args.format,
    )
    return run_analyze(request)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InvalidConfig as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MissingHistory, EmptyWindow) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_HISTORY
    except MbstatError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
