#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the mbstat CLI and rolling engine.

    python3 perfbench/run.py --workload dense-emit --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The harness is a closed loop with one client: it runs one op at a
time, each in its own child process (``perfbench/child.py``), until
``--seconds`` have passed, after one untimed warm-up round.  Set-up writes the
workload's input pair with ``mbstat generate`` several times and reports the
median.  Every op's output is checked untimed (see ``checks.py``); a problem
makes it a failed op.

An op's time is the CPU time its child spends in the op, after interpreter
start-up and imports, scaled by the calibration task timed around it (see
``calib.py``) so that minutes-long slow phases of a shared host cancel out.
Throughput is the op's items over the median of these times in the run.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones, taken from traced ops that alternate with
untraced ones so the tracing overhead is measured in the same run.  The line
before it records the machine and library versions.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

# The ops are single-threaded Python; a BLAS pool of one thread per core would
# only contend with them on a small machine.  Set before numpy loads, here and
# in the children, which inherit it.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

import numpy as np  # noqa: E402

import calib  # noqa: E402
import checks  # noqa: E402
import exact  # noqa: E402
import tracer  # noqa: E402

# Set-up repeats at least 3 times, and up to 7 while under 3 s elapsed, so
# that the quick set-ups of small pairs get more samples for a steady median.
SETUP_REPEATS = (3, 7)
SETUP_BUDGET_S = 3.0
SAMPLED_POSITIONS = 64
# A rolling op drains the loaded pair this many times, so that its timed
# interval is long next to the calibration around it.
ROLLING_DRAINS = 4
OP_TIMEOUT_S = 120

# Price regimes: ``dense`` is a liquid mid-price pair; ``high`` is the
# high-price, tiny-return regime where rolling sums lose digits to cancellation.
REGIMES = {
    "dense": ("--price-start", "100", "--log-price-step-sd", "3e-3", "--volume-log-sd", "0.4"),
    "high": ("--price-start", "1e4", "--log-price-step-sd", "1e-4", "--volume-log-sd", "0.4"),
}


@dataclass(frozen=True)
class Workload:
    n_ticks: int
    regime: str
    window: int
    stride: int
    op: str  # analyze | verify | rolling
    formats: tuple[str, ...] = ()
    families: tuple[str, ...] = checks.ALL_FAMILIES


# Why each workload: dense-emit is emission-bound (~95% in reports) and
# bypasses parse and rolling; long-sparse is parse-bound and the
# cancellation-prone regime; verify-per-window runs the per-window closed
# forms and the oracle, bypassing emission and rolling; rolling-sweep is the
# only one where the rolling kernel is the work.
WORKLOADS = {
    "dense-emit": Workload(5_000, "dense", 256, 1, "analyze", ("json", "csv")),
    "long-sparse": Workload(250_000, "high", 1024, 256, "analyze", ("json",)),
    "verify-per-window": Workload(12_000, "dense", 256, 64, "verify",
                                  families=exact.CORR_FAMILIES),
    "rolling-sweep": Workload(250_000, "high", 256, 1, "rolling"),
}

END_TO_END_UNITS = {"items_per_cpu_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
                    "err_digits": "digits"}

PER_LAYER_UNITS = {
    "trade_series.parse_s": "s", "trade_series.parse_rows_per_s": "1/s",
    "trade_series.serialize_s": "s", "trade_series.window_s": "s",
    "trade_series.window_calls": "count", "trade_series.share": "fraction",
    "synth.gen_s": "s",
    "rolling.sweep_s": "s", "rolling.chunks": "count", "rolling.positions_per_s": "1/s",
    "rolling.share": "fraction",
    "market_core.corr_s": "s", "market_core.corr_calls": "count",
    "market_core.share": "fraction",
    "oracle.corr_s": "s", "oracle.corr_calls": "count", "oracle.share": "fraction",
    "reports.emit_self_s": "s", "reports.records": "count", "reports.bytes": "bytes",
    "reports.bytes_per_s": "bytes/s", "reports.share": "fraction",
    "cli.other_s": "s", "cli.other_share": "fraction", "cli.startup_s": "s",
    "trace.overhead_frac": "fraction",
    "accuracy.worst_err_digits": "digits",
}


@dataclass
class Op:
    """One child process: its timing, exit code, memory, spans and checks."""

    interval: tuple[float, float]
    rc: int
    vmhwm_kb: int
    spans: list
    result: dict
    stdout: str
    cpu_s: float = 0.0  # CPU time of the child over ``interval``
    elapsed: float = 0.0  # wall time of the whole child, start-up included
    calib_s: float = calib.NOMINAL_S  # calibration CPU time around the op
    problems: list[str] = field(default_factory=list)
    report_bytes: int = 0
    report_records: int = 0

    @property
    def wall(self) -> float:
        return self.interval[1] - self.interval[0]

    @property
    def scaled_cpu_s(self) -> float:
        """CPU time scaled to the nominal machine speed (see ``calib.py``)."""
        return self.cpu_s * calib.NOMINAL_S / self.calib_s

    @property
    def startup_s(self) -> float:
        """The child's wall time off the clock: interpreter start, imports and
        exit, and for the rolling op also loading and planning the pair."""
        return self.elapsed - self.wall


class Runner:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.op_id = 0
        self.ops: list[Op] = []
        self.last_calib_s = None

    def _calibrate(self) -> float:
        self.last_calib_s = calib.calibrate()
        return self.last_calib_s

    def run(self, kind_args: list[str], traced: bool) -> Op:
        self.op_id += 1
        result_path = os.path.join(self.workdir, f"op{self.op_id}.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--result", result_path,
               "--trace", str(int(traced)), "--op-id", str(self.op_id), *kind_args]
        calib_before = self.last_calib_s or self._calibrate()
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=OP_TIMEOUT_S,
                                  cwd=self.workdir)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            proc = subprocess.CompletedProcess(cmd, -9, "", f"timed out after {OP_TIMEOUT_S} s")
        end = time.perf_counter()
        try:
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
            os.unlink(result_path)
        except (OSError, ValueError):
            result = {}
        op = Op(interval=tuple(result.get("interval", (start, end))), rc=proc.returncode,
                vmhwm_kb=int(result.get("vmhwm_kb", 0)), spans=result.get("spans", []),
                result=result, stdout=proc.stdout, cpu_s=float(result.get("cpu_s", 0.0)),
                elapsed=end - start, calib_s=(calib_before + self._calibrate()) / 2)
        if proc.returncode != 0:
            op.problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
        elif not result:
            op.problems.append("child wrote no result")
        self.ops.append(op)
        return op


class FirstReport(NamedTuple):
    """The first report of a format in a run, fully checked; repeats must
    match its digest and inherit its verdict."""

    digest: str
    problems: list[str]
    records: dict  # (position, family) -> parsed sampled record
    nbytes: int
    nrecords: int


def median(values) -> float:
    return statistics.median(values) if values else 0.0


class Bench:
    def __init__(self, name: str, wl: Workload, seed: int, seconds: float, trace: bool,
                 workdir: str):
        self.name, self.wl, self.seed, self.seconds, self.trace = name, wl, seed, seconds, trace
        self.runner = Runner(workdir)
        self.paths = [os.path.join(workdir, f"asset{k}.csv") for k in (1, 2)]
        self.geom = checks.Geometry(wl.n_ticks, wl.window, wl.stride, wl.families)
        rng = random.Random(seed)
        self.sampled = sorted(rng.sample(range(self.geom.n_positions),
                                         min(SAMPLED_POSITIONS, self.geom.n_positions)))
        self.first_report: dict[str, FirstReport] = {}
        self.samples: dict = {}

    # ----- set-up -------------------------------------------------------
    def setup(self) -> tuple[list[float], list[list[Op]]]:
        """Generate the pair repeatedly; returns each repeat's scaled CPU seconds."""
        costs, reps, digests = [], [], None
        least, most = SETUP_REPEATS
        began = time.perf_counter()
        while len(costs) < least or (
                time.perf_counter() - began < SETUP_BUDGET_S and len(costs) < most):
            ops = []
            for k, path in enumerate(self.paths):
                args = ["cli", "--", "generate", "--n", str(self.wl.n_ticks),
                        "--seed", str(2 * self.seed + k), "--out", path,
                        *REGIMES[self.wl.regime]]
                ops.append(self.runner.run(args, self.trace))
            got = []
            for path in self.paths:
                with open(path, "rb") as fh:
                    got.append(checks.digest(fh.read()))
            if digests is not None and got != digests:
                ops[-1].problems.append("generate output differs between repeats")
            digests = got
            costs.append(sum(op.scaled_cpu_s for op in ops))
            reps.append(ops)
        return costs, reps

    # ----- ops ----------------------------------------------------------
    def _pair_flags(self) -> list[str]:
        return ["--asset1-path", self.paths[0], "--asset2-path", self.paths[1],
                "--alpha", "1", "--beta", "1",
                "--window", str(self.wl.window), "--stride", str(self.wl.stride)]

    def run_round(self, traced: bool, direct) -> tuple[list[Op], float]:
        """One unit of work; returns its ops and the items it processed."""
        wl = self.wl
        if wl.op == "analyze":
            ops = []
            for fmt in wl.formats:
                out = os.path.join(self.runner.workdir, f"report.{fmt}")
                op = self.runner.run(["cli", "--", "analyze", *self._pair_flags(),
                                      "--format", fmt, "--output", out], traced)
                if not op.problems:
                    self._check_report(op, out, fmt, direct)
                ops.append(op)
            return ops, wl.n_ticks * len(ops)
        if wl.op == "verify":
            op = self.runner.run(["cli", "--", "verify", *self._pair_flags(),
                                  "--stats", ",".join(wl.families)], traced)
            op.problems = checks.check_verify(op.rc, op.stdout, wl.families)
            return [op], self.geom.n_positions
        positions = ",".join(map(str, self.sampled))
        columns = [os.path.splitext(path)[0] + ".npz" for path in self.paths]
        op = self.runner.run(["rolling", "--asset1", columns[0], "--asset2", columns[1],
                              "--window", str(wl.window), "--stride", str(wl.stride),
                              "--positions", positions, "--drains", str(ROLLING_DRAINS)],
                             traced)
        if not op.problems:
            op.problems = checks.check_rolling(op.result, self.geom, direct, self.sampled,
                                               ROLLING_DRAINS)
        return [op], self.geom.n_positions * ROLLING_DRAINS

    def _check_report(self, op: Op, path: str, fmt: str, direct) -> None:
        with open(path, "rb") as fh:
            data = fh.read()
        os.unlink(path)
        dig = checks.digest(data)
        first = self.first_report.get(fmt)
        if first is None:
            problems, records = checks.check_report(data, fmt, self.geom, direct, self.sampled)
            nrec = len(checks.record_lines(data, fmt)) if not problems else 0
            first = self.first_report[fmt] = FirstReport(dig, problems, records, len(data), nrec)
        if dig != first.digest:
            op.problems.append(f"{fmt} report differs from the first one of this run")
        op.problems.extend(first.problems)
        op.report_bytes, op.report_records = first.nbytes, first.nrecords

    # ----- accuracy -----------------------------------------------------
    def accuracy(self, direct, rounds) -> tuple[float, float]:
        """Digits of sampled correlation records against the exact-rational
        reference: the worst family's median, and the single worst record.

        The legs are independent, so some sampled correlations sit near zero
        and the single worst value-relative error swings by two decades from
        seed to seed; the per-family median is what holds steady enough to
        bound, and the worst record is reported beside it.
        """
        ref = exact.ExactPair(*self.paths)
        values = {}
        if self.wl.op == "analyze":
            for (pos, fam), rec in self.first_report[self.wl.formats[0]].records.items():
                values[(pos, fam)] = rec["market_value"]
        elif self.wl.op == "rolling":
            for pos, vals in rounds[0][0][0].result["drains"][0]["sampled"].items():
                for fam in exact.CORR_FAMILIES:
                    values[(int(pos), fam)] = vals[fam]
        else:  # verify: the per-window closed forms it checks
            for pos in self.sampled:
                for fam in exact.CORR_FAMILIES:
                    values[(pos, fam)] = direct(pos)[fam][0]
        errors = {fam: [] for fam in exact.CORR_FAMILIES}
        for (pos, fam), value in values.items():
            if fam in errors:
                start = self.geom.start(pos)
                want = ref.reference(fam, start, start, self.wl.window)
                errors[fam].append(exact.value_rel_error(value, want))
        typical = max(statistics.median(errs) for errs in errors.values() if errs)
        worst = max(max(errs) for errs in errors.values() if errs)
        return exact.error_digits(typical), exact.error_digits(worst)

    # ----- measurement --------------------------------------------------
    def measure(self) -> dict:
        setup_costs, setup_reps = self.setup()
        for ops in setup_reps:
            for op in ops:
                if op.problems:
                    raise RuntimeError("set-up failed: " + "; ".join(op.problems))

        from mbstat import parse_trades

        pair = []
        for k, path in enumerate(self.paths):
            with open(path, encoding="utf-8") as fh:
                pair.append(parse_trades(fh.read(), asset_id=f"asset{k + 1}"))
            if self.wl.op == "rolling":  # the rolling child loads these columns
                np.savez(os.path.splitext(path)[0] + ".npz", t=pair[-1].t,
                         price=pair[-1].price, volume=pair[-1].volume)
        direct = functools.lru_cache(maxsize=None)(
            lambda pos: checks.market_recompute(pair, self.geom, pos))

        # A first round warms the caches and carries the full output checks;
        # it is checked like every round but is not timed.
        warmup = self.run_round(False, direct)[0]
        rounds = []  # (ops, items, traced)
        deadline = time.perf_counter() + self.seconds
        traced = False
        while True:
            ops, items = self.run_round(traced, direct)
            rounds.append((ops, items, traced))
            if self.trace:
                traced = not traced
            if time.perf_counter() >= deadline and (not self.trace or len(rounds) >= 2):
                break
        if len(self.first_report) == 2:
            problems = checks.compare_formats(self.first_report["json"].records,
                                              self.first_report["csv"].records)
            warmup[-1].problems.extend(problems)

        ok_rounds = [r for r in rounds if not any(op.problems for op in r[0])]
        timed = [r for r in ok_rounds if not r[2]]
        metrics = {}
        if not self.trace:
            # Each op slot of a round (JSON, CSV) gets its own median.
            slots = [[ops[k] for ops, _, _ in timed] for k in range(len(timed[0][0]))
                     ] if timed else []
            self.samples = {"ops": [[[round(op.cpu_s, 5), round(op.calib_s, 5)] for op in slot]
                                    for slot in slots]}
            metrics["items_per_cpu_s"] = timed[0][1] / sum(
                median([op.scaled_cpu_s for op in slot]) for slot in slots) if timed else 0.0
            metrics["setup_s"] = median(setup_costs)
            metrics["peak_rss_mb"] = median(
                [max(op.vmhwm_kb for op in ops) / 1024.0 for ops, _, _ in timed])
            metrics["err_digits"] = self.accuracy(direct, ok_rounds)[0] if ok_rounds else 0.0
            units = END_TO_END_UNITS
        else:
            metrics = layer_metrics([r[0] for r in ok_rounds if r[2]],
                                    [r[0] for r in timed], setup_reps)
            metrics["accuracy.worst_err_digits"] = (
                self.accuracy(direct, ok_rounds)[1] if ok_rounds else 0.0)
            units = PER_LAYER_UNITS
            write_trace(self.name, self.seed, rounds, setup_reps)

        for op in self.runner.ops:
            for problem in op.problems:
                print(f"failed op: {problem}")
        all_ops = self.runner.ops
        failed = sum(1 for op in all_ops if op.problems)
        return {
            "correct": failed == 0,
            "attempted": len(all_ops),
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        }


def _named(spans, names) -> list:
    return [s for s in spans if s[tracer.NAME] in names]


def _duration(spans) -> float:
    return sum(s[tracer.END] - s[tracer.START] for s in spans)


def _count(spans) -> float:
    return sum(s[tracer.COUNT] for s in spans)


CORR_SPANS = {"market_core.mb_corr_prices", "market_core.mb_corr_returns",
              "market_core.mb_corr_price_return"}
WINDOW_SPANS = {"trade_series.Window", "trade_series.compute_returns"}


def layer_metrics(traced_rounds, untraced_rounds, setup_reps) -> dict[str, float]:
    """Per-layer metrics: per traced round, then the median over rounds."""
    per_round: dict[str, list[float]] = {k: [] for k in PER_LAYER_UNITS}
    for ops in traced_rounds:
        wall = sum(op.wall for op in ops)
        spans = [s for op in ops for s in op.spans]
        layer_self = dict.fromkeys(tracer.LAYERS, 0.0)
        other = 0.0
        for op in ops:
            lo, hi = op.interval
            for s, t in zip(op.spans, tracer.self_times(op.spans, lo, hi)):
                layer_self[s[tracer.NAME].split(".")[0]] += t
            other += op.wall - tracer.covered(op.spans, lo, hi)
        parse = _named(spans, {"trade_series.parse_trades"})
        chunks = _named(spans, {"rolling.chunk"})
        sweep_s = _duration(_named(spans, {"rolling.chunk", "rolling.exhaust"}))
        corr, oracle = _named(spans, CORR_SPANS), _named(spans, {"oracle.oracle_corr"})
        window = _named(spans, WINDOW_SPANS)
        emit_self = layer_self["reports"]
        nbytes = sum(op.report_bytes for op in ops)
        row = {
            "trade_series.parse_s": _duration(parse),
            "trade_series.parse_rows_per_s": _count(parse) / _duration(parse) if parse else 0.0,
            "trade_series.window_s": _duration(window),
            "trade_series.window_calls": len(window),
            "rolling.sweep_s": sweep_s,
            "rolling.chunks": len(chunks),
            "rolling.positions_per_s": _count(chunks) / sweep_s if sweep_s else 0.0,
            "market_core.corr_s": _duration(corr),
            "market_core.corr_calls": len(corr),
            "oracle.corr_s": _duration(oracle),
            "oracle.corr_calls": len(oracle),
            "reports.emit_self_s": emit_self,
            "reports.records": sum(op.report_records for op in ops),
            "reports.bytes": nbytes,
            "reports.bytes_per_s": nbytes / emit_self if emit_self else 0.0,
            "cli.other_s": other,
            "cli.other_share": other / wall,
            "cli.startup_s": sum(op.startup_s for op in ops),
        }
        for layer in ("trade_series", "rolling", "market_core", "oracle", "reports"):
            row[f"{layer}.share"] = layer_self[layer] / wall
        for key, value in row.items():
            per_round[key].append(value)

    for ops in setup_reps:
        spans = [s for op in ops for s in op.spans]
        per_round["synth.gen_s"].append(_duration(_named(spans, {"synth.gen_trades"})))
        per_round["trade_series.serialize_s"].append(
            _duration(_named(spans, {"trade_series.serialize"})))

    metrics = {key: median(values) for key, values in per_round.items()}
    traced_cost = median([sum(op.scaled_cpu_s for op in ops) for ops in traced_rounds])
    plain_cost = median([sum(op.scaled_cpu_s for op in ops) for ops in untraced_rounds])
    metrics["trace.overhead_frac"] = traced_cost / plain_cost - 1.0 if plain_cost else 0.0
    return metrics


def write_trace(name: str, seed: int, rounds, setup_reps) -> None:
    """All spans of the run, one list per op, to ``perfbench/_out/``."""
    out_dir = os.path.join(HERE, "_out")
    os.makedirs(out_dir, exist_ok=True)
    ops = [op for reps in setup_reps for op in reps]
    ops += [op for r in rounds if r[2] for op in r[0]]
    cols = ("name", "start", "end", "parent", "op_id", "count")
    doc = {"workload": name, "seed": seed,
           "ops": [{"interval": op.interval, "spans": [dict(zip(cols, s)) for s in op.spans]}
                   for op in ops]}
    with open(os.path.join(out_dir, f"trace-{name}.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "mbstat", "cli.py")):
        print(f"error: no mbstat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "_work"))
    try:
        bench = Bench(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace), workdir)
        result = bench.measure()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed,
                      **bench.samples}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
