#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Covers the span arithmetic, the output checks that turn a bad report or a
short rolling drain into a failed op, the tracer's span tree, the op clock
and its calibration scaling, and the peak-memory reader.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from tracer import covered, self_times, union_length  # noqa: E402


class SpanArithmetic(unittest.TestCase):
    # root [0,10] > writer [1,9] > chunks [2,4] and [5,6]; parse [3,3.5] in chunk 1
    SPANS = [
        ["cli.main", 0.0, 10.0, None, 1, 0],
        ["reports.write_json", 1.0, 9.0, 0, 1, 0],
        ["rolling.chunk", 2.0, 4.0, 1, 1, 5],
        ["rolling.chunk", 5.0, 6.0, 1, 1, 5],
        ["trade_series.parse_trades", 3.0, 3.5, 2, 1, 0],
    ]

    def test_self_time_is_duration_minus_children(self):
        self.assertEqual(self_times(self.SPANS), [2.0, 5.0, 1.5, 1.0, 0.5])

    def test_self_time_clipped_to_an_interval(self):
        self.assertEqual(self_times(self.SPANS, 0.0, 5.0), [1.0, 2.0, 1.5, 0.0, 0.5])
        self.assertEqual(covered(self.SPANS, 0.0, 5.0), 5.0)

    def test_union_merges_overlaps(self):
        self.assertEqual(union_length([(0, 2), (1, 3), (5, 6)]), 4)
        self.assertEqual(union_length([(0, 2), (1, 3), (5, 6)], 1.5, 5.5), 2.0)

    def test_layer_with_no_spans_reports_zero(self):
        op = run.Op(interval=(0.0, 2.0), rc=0, vmhwm_kb=1, spans=[], result={}, stdout="")
        metrics = run.layer_metrics([[op]], [[op]], [])
        self.assertEqual(metrics["market_core.corr_calls"], 0)
        self.assertEqual(metrics["rolling.positions_per_s"], 0)
        self.assertEqual(metrics["cli.other_share"], 1.0)


class Contract(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for key, units in (("end_to_end", run.END_TO_END_UNITS),
                           ("per_layer", run.PER_LAYER_UNITS)):
            self.assertEqual({m["name"]: m["unit"] for m in spec[key]}, units)


class ReportChecks(unittest.TestCase):
    """A bad report makes the op that wrote it a failed op."""

    WORKLOAD = run.Workload(600, "dense", 64, 1, "analyze", ("json", "csv"))

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.bench = cls._bench()
        for k, path in enumerate(cls.bench.paths):
            rc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), "--result", path + ".r",
                 "cli", "--", "generate", "--n", "600", "--seed", str(k), "--out", path,
                 *run.REGIMES["dense"]], check=False).returncode
            assert rc == 0
        from mbstat import parse_trades

        pair = []
        for path in cls.bench.paths:
            with open(path, encoding="utf-8") as fh:
                pair.append(parse_trades(fh.read()))
        cls.direct = staticmethod(lambda pos: run.checks.market_recompute(
            pair, cls.bench.geom, pos))
        cls.clean = {fmt: cls._analyze(fmt) for fmt in ("json", "csv")}

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    @classmethod
    def _bench(cls):
        return run.Bench("selftest", cls.WORKLOAD, 3, 0.0, False, cls.tmp.name)

    @classmethod
    def _analyze(cls, fmt: str) -> bytes:
        out = os.path.join(cls.tmp.name, "clean." + fmt)
        op = cls.bench.runner.run(["cli", "--", "analyze", *cls.bench._pair_flags(),
                                   "--format", fmt, "--output", out], False)
        assert op.rc == 0, op.problems
        with open(out, "rb") as fh:
            return fh.read()

    def _op_problems(self, bench, data: bytes, fmt: str) -> list[str]:
        path = os.path.join(self.tmp.name, "report." + fmt)
        with open(path, "wb") as fh:
            fh.write(data)
        op = run.Op(interval=(0.0, 1.0), rc=0, vmhwm_kb=1, spans=[], result={}, stdout="")
        bench._check_report(op, path, fmt, self.direct)
        return op.problems

    def _alter_market_value(self, data: bytes, fmt: str, position: int) -> bytes:
        """Change the leading digit of one record's market_value."""
        lines = data.split(b"\n")
        index = (3 if fmt == "json" else 1) + position * len(self.WORKLOAD.families)
        if fmt == "json":
            key = b'"market_value": '
            cut = lines[index].index(key) + len(key)
        else:
            cells = lines[index].split(b",")
            cut = len(b",".join(cells[:5])) + 1
        line = lines[index]
        digit = next(i for i in range(cut, len(line)) if line[i:i + 1] in b"123456789")
        swapped = b"2" if line[digit:digit + 1] != b"2" else b"3"
        lines[index] = line[:digit] + swapped + line[digit + 1:]
        return b"\n".join(lines)

    def test_clean_reports_pass_and_agree(self):
        bench = self._bench()
        for fmt, data in self.clean.items():
            self.assertEqual(self._op_problems(bench, data, fmt), [])
        self.assertEqual(run.checks.compare_formats(
            bench.first_report["json"].records, bench.first_report["csv"].records), [])

    def test_altered_digit_in_a_sampled_record_fails(self):
        for fmt, data in self.clean.items():
            bench = self._bench()
            bad = self._alter_market_value(data, fmt, bench.sampled[0])
            self.assertTrue(self._op_problems(bench, bad, fmt))

    def test_altered_digit_in_a_repeat_fails(self):
        bench = self._bench()
        self.assertEqual(self._op_problems(bench, self.clean["json"], "json"), [])
        unsampled = next(p for p in range(bench.geom.n_positions) if p not in bench.sampled)
        bad = self._alter_market_value(self.clean["json"], "json", unsampled)
        self.assertTrue(self._op_problems(bench, bad, "json"))

    def test_dropped_record_fails(self):
        for fmt, data in self.clean.items():
            lines = data.split(b"\n")
            del lines[(3 if fmt == "json" else 1) + 10]
            bad = b"\n".join(lines)
            self.assertTrue(self._op_problems(self._bench(), bad, fmt))

    def test_csv_disagreeing_with_json_fails(self):
        bench = self._bench()
        self.assertEqual(self._op_problems(bench, self.clean["json"], "json"), [])
        json_records = bench.first_report["json"].records
        other = {k: dict(v, market_value=v["market_value"] * (1 + 1e-12))
                 for k, v in json_records.items()}
        self.assertTrue(run.checks.compare_formats(json_records, other))

    def test_tracer_parents_chunks_to_the_writer(self):
        result = os.path.join(self.tmp.name, "traced.json")
        out = os.path.join(self.tmp.name, "traced.csv")
        subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "--result", result, "--trace", "1",
             "cli", "--", "analyze", *self.bench._pair_flags(), "--format", "csv",
             "--output", out], check=True)
        with open(result, encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        names = [s[tracer.NAME] for s in spans]
        writer = names.index("reports.write_csv")
        chunks = [s for s in spans if s[tracer.NAME] == "rolling.chunk"]
        self.assertTrue(chunks)
        self.assertTrue(all(s[tracer.PARENT] == writer for s in chunks))
        self.assertEqual(sum(s[tracer.COUNT] for s in chunks), self.bench.geom.n_positions)
        self.assertEqual(names.count("trade_series.parse_trades"), 2)


class RollingChecks(unittest.TestCase):
    GEOM = run.checks.Geometry(300, 64, 1, run.checks.ALL_FAMILIES)

    def _drain(self, positions):
        return {"positions": positions, "records": positions * len(self.GEOM.families),
                "chunks": 1, "sampled": {}}

    def test_missing_drain_fails(self):
        result = {"drains": [self._drain(self.GEOM.n_positions)]}
        self.assertTrue(run.checks.check_rolling(result, self.GEOM, None, [], 2))

    def test_short_drain_fails(self):
        n = self.GEOM.n_positions
        result = {"drains": [self._drain(n), self._drain(n - 1)]}
        self.assertTrue(run.checks.check_rolling(result, self.GEOM, None, [], 2))


class Timing(unittest.TestCase):
    def test_cpu_time_is_scaled_by_the_calibration_around_it(self):
        op = run.Op(interval=(0.0, 3.0), rc=0, vmhwm_kb=1, spans=[], result={}, stdout="",
                    cpu_s=2.0, calib_s=2 * run.calib.NOMINAL_S)
        self.assertEqual(op.scaled_cpu_s, 1.0)

    def test_child_clock_excludes_start_up(self):
        with tempfile.TemporaryDirectory() as tmp:
            runner = run.Runner(tmp)
            op = runner.run(["cli", "--", "generate", "--n", "300", "--seed", "1",
                             "--out", os.path.join(tmp, "a.csv")], False)
        self.assertEqual(op.problems, [])
        self.assertGreater(op.cpu_s, 0.0)
        self.assertGreater(op.calib_s, 0.0)
        self.assertGreater(op.startup_s, 0.0)
        self.assertLess(op.wall, op.elapsed)


class PeakMemory(unittest.TestCase):
    def test_small_child_of_a_large_parent_reads_small(self):
        ballast = b"x" * (256 << 20)  # touched pages: this process's VmHWM > 256 MB
        from child import read_vmhwm_kb

        self.assertGreater(read_vmhwm_kb(), 256 << 10)
        out = subprocess.run(
            [sys.executable, "-c",
             f"import sys; sys.path.insert(0, {HERE!r}); import child; "
             "print(child.read_vmhwm_kb())"],
            capture_output=True, text=True, check=True).stdout
        self.assertLess(int(out), 64 << 10)
        del ballast


if __name__ == "__main__":
    unittest.main()
