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

import numpy as np

from .errors import EmptyWindow, InvalidConfig, MbstatError, MissingHistory
from .market_core import FAMILIES, FAMILY_LEGS, JOINT_FAMILIES, average_slots
from .oracle import oracle_corr_windows, relative_deviation
from .reports import write_csv, write_json
from .rolling import check_request, iter_rolling_stats, make_plan
from .synth import MODES, SynthConfig, gen_trades
from .trade_series import parse_trades

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DATA = 4
EXIT_HISTORY = 5

# The exit code of a failed run: the first entry whose kinds match the error.
_EXIT_CODES = (
    (InvalidConfig, EXIT_USAGE),
    ((MissingHistory, EmptyWindow), EXIT_HISTORY),
    (MbstatError, EXIT_DATA),
    (OSError, EXIT_IO),
)

# CLI stat names: each family by its own name, but joint_moments for both joint families.
_STAT_CHOICES = {f: (f,) for f in FAMILIES if f not in JOINT_FAMILIES}
_STAT_CHOICES["joint_moments"] = JOINT_FAMILIES

_VERIFY_DEFAULT = "price_corr,return_corr,price_return_corr"

# The oracle's correlation kind is named by the two legs' letters.
_ORACLE_LEG_KIND = {"p": "price", "r": "return"}


def _read_series(path: str, label: str):
    # Binary, so offsets are file offsets and a CR reaches the parser, which
    # refuses it; the parser reads the file in chunks.
    with open(path, "rb") as fh:
        return parse_trades(fh, asset_id=label)


@contextmanager
def _output(path: str):
    """Binary stream for ``path``; ``-`` is stdout's buffer, flushed before
    and after the body so that it keeps its order with printed text.

    A regular file is written to a temporary sibling that replaces ``path``
    only when the body succeeds: a failed run leaves no partial report, and
    a file already at ``path`` stays as it was.
    """
    if path == "-":
        sys.stdout.flush()
        yield sys.stdout.buffer
        sys.stdout.buffer.flush()
        return
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(target, "wb") as out:  # e.g. /dev/null
            yield out
        return
    fd, tmp = tempfile.mkstemp(
        prefix=f".{os.path.basename(target)}.", suffix=".tmp", dir=os.path.dirname(target)
    )
    try:
        with os.fdopen(fd, "wb") as out:
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
    from ._csv_rows import csv_blocks  # compiled only by a run that writes a CSV

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
    series = gen_trades(config)
    with _output(args.out) as out:
        for block in csv_blocks(series):
            out.write(block)
    return EXIT_OK


def _plan(args):
    """The pair and the plan of an ``analyze`` or ``verify`` invocation.  The
    stat names and the request are checked before any file is read."""
    requested = set()
    for name in args.stats.split(","):
        name = name.strip()
        if name not in _STAT_CHOICES:
            raise InvalidConfig(
                f"unknown stat {name!r}; choose from {', '.join(sorted(_STAT_CHOICES))}"
            )
        requested.update(_STAT_CHOICES[name])
    families = tuple(f for f in FAMILIES if f in requested)
    check_request(args.window, args.stride, args.alpha, args.beta, families)
    s1 = _read_series(args.asset1_path, "asset1")
    s2 = _read_series(args.asset2_path, "asset2")
    plan = make_plan(s1, s2, window=args.window, stride=args.stride, alpha=args.alpha,
                     beta=args.beta, families=families)
    return s1, s2, plan


def run_analyze(args) -> int:
    s1, s2, plan = _plan(args)
    chunks = iter_rolling_stats(s1, s2, plan)
    with _output(args.output) as out:
        if args.format == "json":
            write_json(out, plan, chunks)
        else:
            write_csv(out, plan, chunks)
    return EXIT_OK


def _worst(prev, dev, first_position: int):
    """The ``(deviation, position)`` of the first worst window so far, given
    the previous one (or None) and a chunk's deviations from
    ``first_position`` on: a NaN ranks above every number, and on a tie the
    earliest position wins, across chunks too."""
    j = int(np.argmax(dev))  # the first NaN, else the first maximum
    dev = float(dev[j])
    if prev is None or (math.isnan(dev), dev) > (math.isnan(prev[0]), prev[0]):
        return dev, first_position + j
    return prev


def run_verify(args) -> int:
    """Drain the rolling engine, the one ``analyze`` reports from, and check
    every window's market value against the brute-force oracle run on that
    window's raw per-tick sequences, the legs of the engine's block."""
    if not args.tol >= 0:  # also refuses NaN
        raise InvalidConfig(f"--tol must be >= 0, got {args.tol!r}")
    s1, s2, plan = _plan(args)
    worst = {}  # family -> (dev, position) of its first worst window
    for chunk in iter_rolling_stats(s1, s2, plan):
        # The families of a leg pair read one closed form, so they share
        # their averages: the oracle runs once per pair and chunk.
        corr = {}
        for family in plan.families:
            records = chunk.families[family]
            market, g1, g2 = (records[key] for key in ("market_value", *average_slots(family)))
            legs = leg1, leg2 = FAMILY_LEGS[family]
            if legs not in corr:
                (_, w1, x1), (_, w2, x2) = chunk.legs[leg1], chunk.legs[leg2]
                kind = f"{_ORACLE_LEG_KIND[leg1[0]]}_{_ORACLE_LEG_KIND[leg2[0]]}"
                corr[legs] = oracle_corr_windows(kind, x1, x2, w1, w2, g1, g2,
                                                 window=plan.window, stride=plan.stride)
            with np.errstate(over="ignore"):  # an infinite scale fails the gate (NaN)
                g12 = g1 * g2
            direct = corr[legs] + g12 if family in JOINT_FAMILIES else corr[legs]
            dev = relative_deviation(market, direct, np.abs(g12))
            worst[family] = _worst(worst.get(family), dev, chunk.first_position)

    status = EXIT_OK
    for family in plan.families:
        dev, position = worst[family]
        at = plan.t_center(position)
        ok = dev <= args.tol  # False for NaN
        print(
            f"{family}: max_rel_dev={dev:.6e} at t_center={at!r} "
            f"over {plan.n_positions} windows [{'ok' if ok else 'FAIL'}]"
        )
        if not ok:
            print(
                f"tolerance breach: family={family} window_t_center={at!r} "
                f"deviation={dev:.6e} > tol={args.tol:g}",
                file=sys.stderr,
            )
            status = EXIT_TOLERANCE
    return status


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
    gen.set_defaults(handler=run_generate)

    def add_pair_flags(p):
        p.add_argument("--asset1-path", required=True)
        p.add_argument("--asset2-path", required=True)
        p.add_argument("--alpha", type=int, default=1, help="leg-1 return horizon (grid steps)")
        p.add_argument("--beta", type=int, default=1,
                       help="leg-2 lag / return horizon (grid steps)")
        p.add_argument("--window", type=int, required=True, help="ticks per window")
        p.add_argument("--stride", type=int, default=1,
                       help="grid steps between window positions")

    ana = sub.add_parser("analyze", help="rolling-window statistics of an asset pair")
    add_pair_flags(ana)
    ana.add_argument("--stats", default=",".join(sorted(_STAT_CHOICES)),
                     help="comma-separated subset of: " + ", ".join(sorted(_STAT_CHOICES)))
    ana.add_argument("--output", default="-", help="report path, '-' for stdout")
    ana.add_argument("--format", default="json", choices=["json", "csv"])
    ana.set_defaults(handler=run_analyze)

    ver = sub.add_parser(
        "verify", help="check analyze's numbers against the brute-force oracle per window"
    )
    add_pair_flags(ver)
    ver.add_argument("--stats", default=_VERIFY_DEFAULT,
                     help="comma-separated subset of: " + ", ".join(sorted(_STAT_CHOICES)))
    ver.add_argument("--tol", type=float, default=1e-9,
                     help="max allowed relative deviation")
    ver.set_defaults(handler=run_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (MbstatError, OSError) as exc:
        name = "io" if isinstance(exc, OSError) else type(exc).__name__
        print(f"error[{name}]: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
