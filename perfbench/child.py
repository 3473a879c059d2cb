"""One benchmark op, run in its own process so it gets its own peak memory.

    python3 perfbench/child.py --result R.json --trace 0|1 --op-id K cli -- <mbstat args>
    python3 perfbench/child.py --result R.json --trace 0|1 --op-id K rolling \
        --asset1 A.npz --asset2 B.npz --window N --stride S --positions 3,17,... \
        [--drains D]

``cli`` runs ``mbstat.cli.main`` exactly as the ``mbstat`` command does.
``rolling`` loads the pair from the columns the harness parsed and saved
(``.npz``), plans all families, then times ``--drains`` full drains of
``iter_rolling_stats``; only the drains are on the clock.  Loading saved
columns keeps the child's time off the clock short, so the calibration the
harness times around the child sits close to the drains.  Either way the
clock starts after the interpreter has started and every mbstat module is
imported, and reads both wall time (``interval``) and the process's CPU time
(``cpu_s``).  The child writes a JSON result holding these, its exit code,
its ``VmHWM`` read just before exit, and, with ``--trace 1``, its spans.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def read_vmhwm_kb() -> int:
    """Peak resident set of this process, in kB, from ``/proc/self/status``.

    ``ru_maxrss`` is not used: across exec it keeps the parent's high-water
    mark, so a small child of a large parent would read large.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


class Clock:
    """Wall interval and CPU seconds of this process from construction to
    :meth:`stop`."""

    def __init__(self):
        self.cpu = time.process_time()
        self.start = time.perf_counter()

    def stop(self) -> dict:
        end = time.perf_counter()
        return {"interval": [self.start, end], "cpu_s": time.process_time() - self.cpu}


def _run_cli(argv) -> tuple[int, dict]:
    from mbstat.cli import main

    clock = Clock()
    try:
        rc = int(main(argv))
    except SystemExit as exc:  # argparse usage errors
        rc = int(exc.code or 0)
    return rc, clock.stop()


def _run_rolling(args) -> tuple[int, dict]:
    import numpy as np
    from mbstat import FAMILIES, iter_rolling_stats, make_plan
    from mbstat.trade_series import make_series

    series = []
    for path, label in ((args.asset1, "asset1"), (args.asset2, "asset2")):
        with np.load(path) as cols:
            series.append(make_series(label, cols["t"], cols["price"], cols["volume"]))
    plan = make_plan(*series, window=args.window, stride=args.stride,
                     alpha=1, beta=1, families=FAMILIES)
    wanted = sorted(int(p) for p in args.positions.split(",") if p)
    drains = []
    clock = Clock()
    for _ in range(args.drains):
        sampled = {}
        positions = records = chunks = 0
        for chunk in iter_rolling_stats(*series, plan):
            size = len(chunk)
            for p in wanted:
                if positions <= p < positions + size:
                    k = p - positions
                    sampled[p] = {
                        "t_center": float(chunk.t_center[k]),
                        **{f: float(chunk.families[f]["market_value"][k])
                           for f in chunk.families},
                    }
            positions += size
            records += size * len(chunk.families)
            chunks += 1
        drains.append({"positions": positions, "records": records, "chunks": chunks,
                       "sampled": sampled})
    return 0, {**clock.stop(), "drains": drains}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--op-id", type=int, default=0)
    sub = ap.add_subparsers(dest="kind", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    rol = sub.add_parser("rolling")
    for flag in ("--asset1", "--asset2", "--positions"):
        rol.add_argument(flag, required=True)
    rol.add_argument("--window", type=int, required=True)
    rol.add_argument("--stride", type=int, required=True)
    rol.add_argument("--drains", type=int, default=1)
    args = ap.parse_args()

    import mbstat.cli  # noqa: F401  loads every mbstat module before wrapping

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.op_id)
        tracer.install()
    rc, extra = 1, {}
    try:
        if args.kind == "cli":
            argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
            rc, extra = _run_cli(argv)
        else:
            rc, extra = _run_rolling(args)
    finally:
        result = {"rc": rc, "vmhwm_kb": read_vmhwm_kb(), **extra,
                  "spans": tracer.spans if tracer else []}
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
