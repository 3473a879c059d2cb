import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mbstat import FAMILIES, cli, errors, parse_trades, rolling
from mbstat.cli import main
from mbstat.errors import ConsistencyError, MbstatError
from mbstat.reports import RECORD_FIELDS

WORKED_ASSET1 = "t,price,volume\n0,2,1\n1,4,2\n2,3,1\n"
WORKED_ASSET2 = "t,price,volume\n0,1,2\n1,2,1\n2,2,1\n"


def write_pair(tmp_path, text1=WORKED_ASSET1, text2=WORKED_ASSET2):
    p1 = tmp_path / "a1.csv"
    p2 = tmp_path / "a2.csv"
    p1.write_text(text1)
    p2.write_text(text2)
    return str(p1), str(p2)


def generate_pair(tmp_path, n=400, seed=5, mode="free", extra=()):
    paths = []
    for k, name in enumerate(("g1.csv", "g2.csv")):
        out = tmp_path / name
        argv = [
            "generate", "--n", str(n), "--seed", str(seed + k),
            "--out", str(out), "--mode", mode, *extra,
        ]
        assert main(argv) == 0
        paths.append(str(out))
    return paths


class TestGenerate:
    def test_writes_parseable_csv(self, tmp_path):
        out = tmp_path / "a.csv"
        assert main(["generate", "--n", "1000", "--seed", "7", "--out", str(out)]) == 0
        text = out.read_text()
        series = parse_trades(text)
        assert len(series) == 1000
        assert text.endswith("\n")

    def test_n_below_minimum_is_usage_error(self, capsys):
        assert main(["generate", "--n", "1"]) == 2
        assert "n_ticks" in capsys.readouterr().err

    def test_non_finite_float_is_usage_error(self, capsys):
        assert main(["generate", "--n", "10", "--log-price-step-sd", "nan"]) == 2
        assert "log_price_step_sd must be finite" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, capsys):
        assert main(["generate", "--n", "10", "--seed", "-1"]) == 2
        assert "error[InvalidConfig]: seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--volume-log-mean", "1000"],
        ["--log-price-step-sd", "1e300"],
        ["--mode", "constant-past-value", "--alpha", "1", "--volume-log-mean", "-800"],
    ])
    def test_walk_out_of_range_is_usage_error(self, capsys, flags):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["generate", "--n", "10", "--seed", "1", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error[InvalidConfig]: SynthConfig(n_ticks=10, seed=1,")
        assert "Warning" not in captured.err and captured.out == ""

    def test_constant_volume_cells_identical(self, tmp_path):
        out = tmp_path / "cv.csv"
        assert main([
            "generate", "--mode", "constant-volume", "--n", "100", "--seed", "1",
            "--out", str(out),
        ]) == 0
        cells = {line.split(",")[2] for line in out.read_text().splitlines()[1:]}
        assert len(cells) == 1

    def test_unwritable_path_is_io_error(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["generate", "--n", "10", "--out", str(missing)]) == 3

    def test_asset_id_is_not_a_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--n", "3", "--asset-id", "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --asset-id x" in capsys.readouterr().err

    def test_stdout_default(self, capsys):
        assert main(["generate", "--n", "3", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("t,price,volume\n")

    def test_python_dash_m_runs_the_cli(self, capsys):
        argv = ["generate", "--n", "40", "--seed", "6", "--price-start", "1e4"]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        proc = subprocess.run([sys.executable, "-m", "mbstat", *argv], capture_output=True,
                              text=True, env=env)
        assert main(argv) == 0
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == capsys.readouterr().out
        proc = subprocess.run([sys.executable, "-m", "mbstat", "generate", "--n", "1"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2 and "n_ticks" in proc.stderr


class TestAnalyze:
    def test_worked_pair_price_corr(self, tmp_path):
        p1, p2 = write_pair(tmp_path)
        out = tmp_path / "report.json"
        code = main([
            "analyze", "--asset1-path", p1, "--asset2-path", p2,
            "--window", "3", "--beta", "0", "--stats", "price_corr",
            "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        (record,) = report["records"]
        assert record["stat_family"] == "price_corr"
        assert record["market_value"] == pytest.approx(0.375, rel=1e-12)
        # frequency side: (1/N) sum p1*p2 - mean(p1) mean(p2) = 16/3 - 5
        assert record["frequency_value"] == pytest.approx(1 / 3, rel=1e-12)
        assert record["a1"] == pytest.approx(3.25, rel=1e-15)
        assert record["a2"] == pytest.approx(1.5, rel=1e-15)
        assert record["h1"] == 0.0
        assert record["N"] == 3 and record["beta"] == 0
        assert set(record) == set(RECORD_FIELDS)

    def test_constant_volume_reduction_visible(self, tmp_path):
        p1, p2 = generate_pair(tmp_path, n=200, mode="constant-volume",
                               extra=("--price-start", "1.0"))
        out = tmp_path / "cv.json"
        assert main([
            "analyze", "--asset1-path", p1, "--asset2-path", p2,
            "--window", "32", "--beta", "0", "--stride", "16",
            "--stats", "price_corr", "--output", str(out),
        ]) == 0
        for record in json.loads(out.read_text())["records"]:
            gap = abs(record["market_value"] - record["frequency_value"])
            assert gap <= 1e-12 * max(1.0, abs(record["frequency_value"]))

    def test_all_fields_finite(self, tmp_path):
        p1, p2 = generate_pair(tmp_path, n=300)
        out = tmp_path / "all.json"
        assert main([
            "analyze", "--asset1-path", p1, "--asset2-path", p2,
            "--window", "16", "--alpha", "1", "--beta", "2",
            "--output", str(out),
        ]) == 0
        records = json.loads(out.read_text())["records"]
        families = {r["stat_family"] for r in records}
        assert len(families) == 7  # joint_moments expands to two families
        for record in records:
            for key, value in record.items():
                if isinstance(value, float):
                    assert math.isfinite(value), (key, record)

    def test_csv_format(self, tmp_path):
        p1, p2 = write_pair(tmp_path)
        out = tmp_path / "report.csv"
        assert main([
            "analyze", "--asset1-path", p1, "--asset2-path", p2,
            "--window", "3", "--beta", "0", "--stats", "price_corr",
            "--format", "csv", "--output", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(RECORD_FIELDS)
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[4] == "price_corr"
        assert float(cells[5]) == pytest.approx(0.375, rel=1e-12)

    def test_byte_stable_reports(self, tmp_path):
        p1, p2 = generate_pair(tmp_path, n=150)
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main([
                "analyze", "--asset1-path", p1, "--asset2-path", p2,
                "--window", "8", "--alpha", "1", "--beta", "1",
                "--output", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("existing", [None, "previous report\n"])
    def test_failure_mid_stream_leaves_no_partial_report(
        self, tmp_path, monkeypatch, capsys, existing
    ):
        p1, p2 = generate_pair(tmp_path, n=150)
        real = cli.iter_rolling_stats

        def one_chunk_then_fail(s1, s2, plan):
            yield next(real(s1, s2, plan))
            raise ConsistencyError("joint-moment evaluations disagree")

        monkeypatch.setattr(cli, "iter_rolling_stats", one_chunk_then_fail)
        out = tmp_path / "report.json"
        if existing is not None:
            out.write_text(existing)
        code = main([
            "analyze", "--asset1-path", p1, "--asset2-path", p2,
            "--window", "8", "--output", str(out),
        ])
        assert code == 4
        assert "ConsistencyError" in capsys.readouterr().err
        if existing is None:
            assert not out.exists()
        else:
            assert out.read_text() == existing
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["g1.csv", "g2.csv"] + ([] if existing is None else ["report.json"])
        )

    def test_report_replaces_existing_file(self, tmp_path):
        p1, p2 = generate_pair(tmp_path, n=150)
        out = tmp_path / "report.csv"
        out.write_text("stale\n")
        assert main([
            "analyze", "--asset1-path", p1, "--asset2-path", p2,
            "--window", "8", "--format", "csv", "--output", str(out),
        ]) == 0
        assert out.read_text().startswith(",".join(RECORD_FIELDS) + "\n")

    @pytest.mark.parametrize("existing", [None, 0o640, 0o600])
    def test_report_file_mode(self, tmp_path, existing):
        # A new report gets the mode open() would give it under the umask;
        # a replaced one keeps its own.
        p1, p2 = write_pair(tmp_path)
        out = tmp_path / "report.json"
        if existing is not None:
            out.write_text("stale\n")
            out.chmod(existing)
        umask = os.umask(0o027)
        try:
            assert main(["analyze", "--asset1-path", p1, "--asset2-path", p2,
                         "--window", "2", "--output", str(out)]) == 0
        finally:
            os.umask(umask)
        assert out.read_text().startswith("{")
        assert stat.S_IMODE(out.stat().st_mode) == (0o640 if existing is None else existing)

    def test_report_to_device_file(self, tmp_path):
        p1, p2 = generate_pair(tmp_path, n=150)
        assert main([
            "analyze", "--asset1-path", p1, "--asset2-path", p2,
            "--window", "8", "--output", os.devnull,
        ]) == 0

    def test_missing_history_exit_5(self, tmp_path, capsys):
        p1, p2 = write_pair(tmp_path)
        code = main([
            "analyze", "--asset1-path", p1, "--asset2-path", p2,
            "--window", "3", "--alpha", "5", "--beta", "1",
            "--stats", "return_corr",
        ])
        assert code == 5

    def test_parse_failure_exit_4_names_rule(self, tmp_path, capsys):
        p1 = tmp_path / "bad.csv"
        p1.write_text("t,price,volume\n0,2,1\n5,4,2\n6,3,1\n")
        p2 = tmp_path / "ok.csv"
        p2.write_text(WORKED_ASSET2)
        code = main([
            "analyze", "--asset1-path", str(p1), "--asset2-path", str(p2),
            "--window", "2", "--beta", "0", "--stats", "price_corr",
        ])
        assert code == 4
        assert "NonUniformSpacing" in capsys.readouterr().err

    def test_tick_time_outside_int64_exit_4(self, tmp_path, capsys):
        p1, p2 = write_pair(tmp_path, "t,price,volume\n0,2,1\n99999999999999999999,1.0,1.0\n")
        out = str(tmp_path / "out.json")
        assert main(["analyze", "--asset1-path", p1, "--asset2-path", p2, "--window", "1",
                     "--stats", "price_vol", "--output", out]) == 4
        assert "error[ParseError]: row 2: tick time 99999999999999999999" in capsys.readouterr().err

    def test_overflowing_trade_value_is_a_parse_error(self, tmp_path, capsys):
        rows = "".join(f"{t},{1e300 if t == 5 else 2.0!r},{1e9 if t == 5 else 1.0!r}\n"
                       for t in range(20))
        p1, p2 = write_pair(tmp_path, "t,price,volume\n" + rows)
        out = str(tmp_path / "out.json")
        assert main(["analyze", "--asset1-path", p1, "--asset2-path", p2, "--window", "4",
                     "--stats", "return_vol", "--alpha", "1", "--output", out]) == 4
        err = capsys.readouterr().err
        assert "error[ParseError]" in err and "at t=5 is not finite" in err

    def test_underflowing_trade_value_is_a_parse_error(self, tmp_path, capsys):
        rows = "".join(f"{t},{1e-200 if t == 5 else 2.0!r},{1e-200 if t == 5 else 1.0!r}\n"
                       for t in range(20))
        p1, p2 = write_pair(tmp_path, "t,price,volume\n" + rows)
        out = str(tmp_path / "out.json")
        assert main(["analyze", "--asset1-path", p1, "--asset2-path", p2, "--window", "4",
                     "--stats", "return_vol", "--alpha", "1", "--output", out]) == 4
        assert ("error[ParseError]: trade value price*volume = 1e-200*1e-200 at t=5 "
                "underflows to 0.0") in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize("text, message", [
        ("t,price,volume\n0,1e-300,1\n1,1e10,1\n",
         "return inf at t=1 over horizon 1 is not a positive normal float"),
        ("t,price,volume\n0,1e-200,1\n1,1,1e-200\n",
         "past value 0.0 at t=1 over horizon 1 is not a positive normal float"),
    ], ids=["return-overflows", "past-value-underflows"])
    def test_out_of_range_return_or_past_value_exit_4(self, tmp_path, capsys, command, text,
                                                      message):
        p1, p2 = write_pair(tmp_path, text, text)
        out = str(tmp_path / "out.json")
        flags = ["--output", out] if command == "analyze" else []
        assert main([command, "--asset1-path", p1, "--asset2-path", p2, "--window", "1",
                     "--stats", "return_vol", *flags]) == 4
        assert capsys.readouterr().err == f"error[ParseError]: {message}\n"
        assert not os.path.exists(out)

    def test_unknown_stat_exit_2(self, tmp_path, capsys):
        p1, p2 = write_pair(tmp_path)
        code = main([
            "analyze", "--asset1-path", p1, "--asset2-path", p2,
            "--window", "3", "--stats", "volatility_smile",
        ])
        assert code == 2

    @pytest.mark.parametrize("stat", ["price_corr", "return_corr", "price_return_corr",
                                      "price_vol", "return_vol", "joint_moments"])
    def test_each_stat_name_reports_its_families(self, tmp_path, stat):
        p1, p2 = generate_pair(tmp_path, n=60)
        out = tmp_path / "report.json"
        assert main([
            "analyze", "--asset1-path", p1, "--asset2-path", p2,
            "--window", "8", "--stats", stat, "--output", str(out),
        ]) == 0
        families = {r["stat_family"] for r in json.loads(out.read_text())["records"]}
        if stat == "joint_moments":
            assert families == {"joint_price_moment", "joint_return_moment"}
        else:
            assert families == {stat}

    def test_bad_window_exit_2(self, tmp_path):
        p1, p2 = write_pair(tmp_path)
        assert main([
            "analyze", "--asset1-path", p1, "--asset2-path", p2,
            "--window", "0",
        ]) == 2

    def test_return_stats_need_alpha(self, tmp_path):
        p1, p2 = write_pair(tmp_path)
        assert main([
            "analyze", "--asset1-path", p1, "--asset2-path", p2,
            "--window", "2", "--alpha", "0", "--stats", "return_corr",
        ]) == 2

    def test_missing_input_file_exit_3(self, tmp_path):
        p2 = tmp_path / "b.csv"
        p2.write_text(WORKED_ASSET2)
        assert main([
            "analyze", "--asset1-path", str(tmp_path / "absent.csv"),
            "--asset2-path", str(p2), "--window", "2",
        ]) == 3

    def test_argparse_rejects_unknown_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--nope"])
        assert exc.value.code == 2


class TestVerify:
    def test_synthetic_pair_passes(self, tmp_path, capsys):
        p1, p2 = generate_pair(tmp_path, n=240)
        code = main([
            "verify", "--asset1-path", p1, "--asset2-path", p2,
            "--window", "24", "--stride", "8", "--alpha", "1", "--beta", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[ok]") == 3

    def test_zero_tolerance_fails(self, tmp_path, capsys):
        p1, p2 = generate_pair(tmp_path, n=240)
        code = main([
            "verify", "--asset1-path", p1, "--asset2-path", p2,
            "--window", "24", "--stride", "8", "--alpha", "1", "--beta", "2",
            "--tol", "0",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "tolerance breach" in captured.err
        assert "family=" in captured.err

    def test_constant_volume_price_family_deviation_tiny(self, tmp_path, capsys):
        p1, p2 = generate_pair(tmp_path, n=200, mode="constant-volume",
                               extra=("--price-start", "1.0"))
        code = main([
            "verify", "--asset1-path", p1, "--asset2-path", p2,
            "--window", "25", "--stride", "25", "--beta", "0",
            "--stats", "price_corr",
        ])
        out = capsys.readouterr().out
        assert code == 0
        (dev,) = [
            float(m.group(1))
            for m in re.finditer(r"max_rel_dev=([0-9.e+-]+)", out)
        ]
        assert dev <= 1e-12

    def test_verify_flag_validation(self, tmp_path):
        p1, p2 = write_pair(tmp_path)
        assert main([
            "verify", "--asset1-path", p1, "--asset2-path", p2,
            "--window", "2", "--stats", "price_corr", "--tol", "-1",
        ]) == 2
        assert main([
            "verify", "--asset1-path", p1, "--asset2-path", p2,
            "--window", "2", "--stats", "nope",
        ]) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_closed_forms_exit_4_like_analyze(self, tmp_path, capsys):
        # Values near 1e160 square to inf: every market_value is NaN.
        texts = []
        for k in (1, 2):
            rows = [f"{t},{1e160 * (1 + 0.01 * ((t * k) % 7))!r},{1 + (t % 3) / 2}"
                    for t in range(40)]
            texts.append("t,price,volume\n" + "\n".join(rows) + "\n")
        p1, p2 = write_pair(tmp_path, *texts)
        flags = ["--asset1-path", p1, "--asset2-path", p2, "--window", "8", "--stride", "8"]
        assert main(["verify", *flags]) == 4
        assert "non-finite market_value" in capsys.readouterr().err
        out = str(tmp_path / "out.json")
        assert main(["analyze", *flags, "--output", out]) == 4
        assert "non-finite market_value" in capsys.readouterr().err

    def test_all_zero_deviations_name_a_real_window(self, tmp_path, capsys):
        # Constant powers of two: closed form and oracle are both exactly 0.
        text = "t,price,volume\n" + "".join(f"{t},2,1\n" for t in range(100, 120))
        p1, p2 = write_pair(tmp_path, text, text)
        code = main([
            "verify", "--asset1-path", p1, "--asset2-path", p2,
            "--window", "8", "--stride", "4", "--stats", "price_corr", "--tol", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "max_rel_dev=0.000000e+00 at t_center=104.5 " in out

    def test_nan_deviation_is_a_breach(self, tmp_path, capsys, monkeypatch):
        p1, p2 = generate_pair(tmp_path, n=120)
        oracle = cli.oracle_corr_windows

        def nan_on_second_window(*args, **kwargs):
            corr = oracle(*args, **kwargs)
            corr[1] = math.nan
            return corr

        monkeypatch.setattr(cli, "oracle_corr_windows", nan_on_second_window)
        code = main([
            "verify", "--asset1-path", p1, "--asset2-path", p2,
            "--window", "24", "--stride", "8", "--stats", "price_corr",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "max_rel_dev=nan at t_center=" in captured.out
        assert "[FAIL]" in captured.out
        assert "deviation=nan" in captured.err

    def test_failing_window_t_center_is_exact(self, tmp_path, capsys, monkeypatch):
        # On an epoch-second grid, six significant digits printed every
        # window's center as 1.7e+09.  The lag (beta=1) reserves the first
        # tick, so window 42 spans t = 1700000337 .. 1700000368.
        text = "t,price,volume\n" + "".join(
            f"{t},2,1\n" for t in range(1_700_000_000, 1_700_000_393)
        )
        p1, p2 = write_pair(tmp_path, text, text)
        oracle = cli.oracle_corr_windows

        def nan_at_window_42(*args, **kwargs):
            corr = oracle(*args, **kwargs)
            corr[42] = math.nan
            return corr

        monkeypatch.setattr(cli, "oracle_corr_windows", nan_at_window_42)
        code = main([
            "verify", "--asset1-path", p1, "--asset2-path", p2,
            "--window", "32", "--stride", "8", "--stats", "price_corr", "--tol", "0",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "at t_center=1700000352.5 over 46 windows [FAIL]" in captured.out
        assert "window_t_center=1700000352.5 deviation=nan" in captured.err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_compensated_sum_exit_4_like_analyze(self, tmp_path, capsys):
        # Trade values of 6e153 to 3e154, as far apart: eight squared
        # deviations sum past the float range.
        text = "t,price,volume\n" + "".join(
            f"{t},{1.2e154 * (1 + (t % 5))!r},0.5\n" for t in range(40)
        )
        p1, p2 = write_pair(tmp_path, text, text)
        for stats in ("price_corr", "return_corr", "return_vol"):
            flags = ["--asset1-path", p1, "--asset2-path", p2, "--window", "8", "--stride", "8",
                     "--stats", stats]
            assert main(["verify", *flags]) == 4
            assert "error[ConsistencyError]" in capsys.readouterr().err
            assert main(["analyze", *flags, "--output", str(tmp_path / "out.json")]) == 4
            assert "error[ConsistencyError]" in capsys.readouterr().err


    def test_tol_nan_is_refused_before_any_file_is_read(self, tmp_path, capsys):
        code = main([
            "verify", "--asset1-path", str(tmp_path / "absent.csv"),
            "--asset2-path", str(tmp_path / "absent2.csv"), "--window", "2", "--tol", "nan",
        ])
        assert code == 2
        assert "error[InvalidConfig]: --tol" in capsys.readouterr().err

    def test_all_seven_families_in_family_order(self, tmp_path, capsys):
        p1, p2 = generate_pair(tmp_path, n=240)
        code = main([
            "verify", "--asset1-path", p1, "--asset2-path", p2,
            "--window", "24", "--stride", "8", "--alpha", "1", "--beta", "2",
            "--stats", "joint_moments,return_vol,price_vol,price_return_corr,return_corr,"
                       "price_corr",
        ])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert [line.split(":")[0] for line in lines] == list(FAMILIES)
        assert all(line.endswith("over 27 windows [ok]") for line in lines)

    def test_oracle_runs_once_per_leg_pair_and_window(self, tmp_path, capsys, monkeypatch):
        # Seven families read five leg pairs: price_corr and joint_price_moment
        # share one oracle value, return_corr and joint_return_moment another.
        p1, p2 = generate_pair(tmp_path, n=240)
        calls = []
        oracle = cli.oracle_corr_windows

        def counted(*args, **kwargs):
            corr = oracle(*args, **kwargs)
            calls.append((args[0], len(corr)))
            return corr

        monkeypatch.setattr(cli, "oracle_corr_windows", counted)
        assert main([
            "verify", "--asset1-path", p1, "--asset2-path", p2,
            "--window", "24", "--stride", "8", "--alpha", "1", "--beta", "2",
            "--stats", "price_corr,return_corr,price_return_corr,price_vol,return_vol,"
                       "joint_moments",
        ]) == 0
        assert capsys.readouterr().out.count("over 27 windows [ok]") == 7
        assert len(calls) == 5  # one chunk
        assert sum(n for _, n in calls) == 5 * 27
        assert sorted({kind for kind, _ in calls}) == ["price_price", "price_return",
                                                       "return_return"]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_catches_a_wrong_engine_number(self, tmp_path, capsys, monkeypatch, family):
        # One volatile series against itself: every family's value is large
        # next to its g1*g2 floor, so a 1e-6 error shows against --tol 1e-9.
        path = generate_pair(tmp_path, n=240, extra=("--log-price-step-sd", "0.2"))[0]
        engine = cli.iter_rolling_stats

        def one_family_off(*args):
            for chunk in engine(*args):
                records = chunk.families[family]
                records["market_value"] = records["market_value"] * (1 + 1e-6)
                yield chunk

        monkeypatch.setattr(cli, "iter_rolling_stats", one_family_off)
        code = main([
            "verify", "--asset1-path", path, "--asset2-path", path,
            "--window", "24", "--stride", "8",
            "--stats", "price_corr,return_corr,price_return_corr,price_vol,return_vol,"
                       "joint_moments",
        ])
        captured = capsys.readouterr()
        assert code == 1
        status = {line.split(":")[0]: line.rsplit(" ", 1)[1]
                  for line in captured.out.splitlines()}
        assert status == {f: "[FAIL]" if f == family else "[ok]" for f in FAMILIES}
        assert f"tolerance breach: family={family} " in captured.err


    def test_whole_output_is_pinned(self, tmp_path, capsys):
        # Window 8 makes anchor blocks of 761 positions: 2992 windows are
        # four blocks, so the worst window is kept across chunks.
        p1, p2 = generate_pair(tmp_path, n=3000)
        argv = ["verify", "--asset1-path", p1, "--asset2-path", p2, "--window", "8",
                "--stats", "price_corr,return_corr,price_return_corr,price_vol,return_vol,"
                           "joint_moments"]
        lines = [
            ("price_corr", "6.153793e-15", "2781.5"),
            ("return_corr", "5.930788e-18", "1406.5"),
            ("price_return_corr", "8.095483e-17", "1480.5"),
            ("price_vol", "8.202862e-15", "1996.5"),
            ("return_vol", "1.080342e-17", "2265.5"),
            ("joint_price_moment", "6.236495e-15", "2781.5"),
            ("joint_return_moment", "2.217844e-16", "1143.5"),
        ]

        def stdout(status):
            return "".join(f"{family}: max_rel_dev={dev} at t_center={at} "
                           f"over 2992 windows [{status}]\n" for family, dev, at in lines)

        assert main(argv) == 0
        assert capsys.readouterr() == (stdout("ok"), "")
        assert main([*argv, "--tol", "0"]) == 1
        assert capsys.readouterr() == (stdout("FAIL"), "".join(
            f"tolerance breach: family={family} window_t_center={at} deviation={dev} > tol=0\n"
            for family, dev, at in lines))

    def test_each_breach_follows_its_family_on_a_shared_stream(self, tmp_path, monkeypatch):
        p1, p2 = generate_pair(tmp_path, n=240)
        shared = io.StringIO()
        monkeypatch.setattr(sys, "stdout", shared)
        monkeypatch.setattr(sys, "stderr", shared)
        assert main(["verify", "--asset1-path", p1, "--asset2-path", p2,
                     "--window", "24", "--stride", "8", "--tol", "0"]) == 1
        lines = shared.getvalue().splitlines()
        assert len(lines) == 6
        for family, line, breach in zip(cli._VERIFY_DEFAULT.split(","), lines[::2], lines[1::2]):
            assert line.startswith(f"{family}: ") and line.endswith(" [FAIL]")
            at = line.split(" at t_center=")[1].split(" ")[0]
            assert breach.startswith(f"tolerance breach: family={family} window_t_center={at} ")

    def test_legs_are_derived_once(self, tmp_path, capsys, monkeypatch):
        p1, p2 = generate_pair(tmp_path, n=240)
        calls = []
        build_leg = rolling.build_leg

        def counted(*args):
            calls.append(args)
            return build_leg(*args)

        monkeypatch.setattr(rolling, "build_leg", counted)
        assert main([
            "verify", "--asset1-path", p1, "--asset2-path", p2,
            "--window", "24", "--stride", "8", "--stats", "return_corr",
        ]) == 0
        assert "[ok]" in capsys.readouterr().out
        assert len(calls) == 2  # legs r1 and r2


class TestWorstWindow:
    """verify's worst-window choice over a chunk's deviations."""

    def test_equal_deviations_keep_the_earliest_position(self):
        assert cli._worst(None, np.array([1.0, 3.0, 2.0, 3.0]), 10) == (3.0, 11)
        assert cli._worst((3.0, 11), np.array([3.0, 0.0]), 20) == (3.0, 11)

    def test_the_first_nan_beats_a_larger_number(self):
        dev, position = cli._worst(None, np.array([1.0, math.nan, 5.0, math.nan]), 0)
        assert math.isnan(dev) and position == 1
        dev, position = cli._worst((5.0, 2), np.array([0.0, math.nan]), 4)
        assert math.isnan(dev) and position == 5

    def test_a_worse_window_in_a_later_chunk_replaces_an_earlier_one(self):
        assert cli._worst((2.0, 3), np.array([1.0, 2.5, 2.5]), 100) == (2.5, 101)

    def test_a_nan_in_an_earlier_chunk_is_not_replaced(self):
        for later in ([math.nan, 1.0], [math.inf, 0.0]):
            dev, position = cli._worst((math.nan, 7), np.array(later), 100)
            assert math.isnan(dev) and position == 7


# Every mbstat error kind, the base class and two I/O errors, each with its
# exit code.
_ERROR_KINDS = [kind for kind in vars(errors).values()
                if isinstance(kind, type) and issubclass(kind, MbstatError)]
_EXIT_CODE = {errors.InvalidConfig: 2, errors.MissingHistory: 5, errors.EmptyWindow: 5,
              OSError: 3, FileNotFoundError: 3}


@pytest.mark.parametrize("kind", [*_ERROR_KINDS, OSError, FileNotFoundError],
                         ids=lambda kind: kind.__name__)
def test_each_error_kind_has_its_exit_code_and_line(capsys, monkeypatch, kind):
    assert len(_ERROR_KINDS) == 17

    def failing(args):
        raise kind("msg")

    monkeypatch.setattr(cli, "run_generate", failing)
    assert main(["generate", "--n", "3"]) == _EXIT_CODE.get(kind, 4)
    name = "io" if issubclass(kind, OSError) else kind.__name__
    assert capsys.readouterr() == ("", f"error[{name}]: msg\n")


@pytest.mark.parametrize("command", ["analyze", "verify"])
@pytest.mark.parametrize("cell", ["1_0.5", " 10", "+0", "10\r"])
def test_non_canonical_cell_exit_4_naming_its_row(tmp_path, capsys, command, cell):
    # int() and float() read each of these cells; the canonical form does not.
    p1, p2 = write_pair(tmp_path, f"t,price,volume\n0,2,1\n1,4,2\n2,{cell},1\n")
    argv = [command, "--asset1-path", p1, "--asset2-path", p2, "--window", "2",
            "--stats", "price_corr"]
    if command == "analyze":
        argv += ["--output", str(tmp_path / "out.json")]
    assert main(argv) == 4
    assert capsys.readouterr().err == (
        f"error[ParseError]: row 3: price {cell!r} is not a canonical decimal number\n")
    assert not os.path.exists(tmp_path / "out.json")


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_crlf_file_exit_4(tmp_path, capsys, command):
    # The file is read without newline translation, so CRLF reaches the parser.
    p1, p2 = write_pair(tmp_path)
    with open(p1, "w", newline="\r\n") as fh:
        fh.write(WORKED_ASSET1)
    argv = [command, "--asset1-path", p1, "--asset2-path", p2, "--window", "2",
            "--stats", "price_corr"]
    if command == "analyze":
        argv += ["--output", str(tmp_path / "out.json")]
    assert main(argv) == 4
    assert "error[ParseError]: unexpected header 't,price,volume\\r'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "verify"])
@pytest.mark.parametrize("cell", [b"\xff", "\uff11\uff10".encode()],
                         ids=["not-utf8", "fullwidth-10"])
@pytest.mark.parametrize("asset", [0, 1], ids=["asset1", "asset2"])
def test_non_ascii_input_is_a_parse_error(tmp_path, capsys, command, cell, asset):
    # Row 4 is not canonical; the byte after it is named first, by its file.
    paths = write_pair(tmp_path)
    offset = os.path.getsize(paths[asset]) + len("3,+4,1\n4,")
    with open(paths[asset], "ab") as fh:
        fh.write(b"3,+4,1\n4," + cell + b",1\n")
    argv = [command, "--asset1-path", paths[0], "--asset2-path", paths[1], "--window", "2",
            "--stats", "price_corr"]
    if command == "analyze":
        argv += ["--output", str(tmp_path / "out.json")]
    assert main(argv) == 4
    assert capsys.readouterr().err == (
        f"error[ParseError]: {paths[asset]}: byte {offset} is not ASCII\n")
    assert not os.path.exists(tmp_path / "out.json")


@pytest.mark.parametrize("command", ["analyze", "verify"])
@pytest.mark.parametrize(
    "flags",
    [
        ["--window", "0"],
        ["--window", "2", "--stride", "0"],
        ["--window", "2", "--alpha", "-1", "--stats", "price_corr"],
        ["--window", "2", "--beta", "-1", "--stats", "price_corr"],
        ["--window", "2", "--alpha", "0", "--stats", "return_corr"],
        ["--window", "2", "--beta", "0", "--stats", "price_return_corr"],
        ["--window", "2", "--stats", "nope"],
    ],
)
@pytest.mark.parametrize("asset1", ["present", "absent"])
def test_bad_flags_exit_2_from_both_commands(tmp_path, capsys, command, flags, asset1):
    """One validator: the same flags are refused alike, before any file is read."""
    p1, p2 = write_pair(tmp_path)
    if asset1 == "absent":
        p1 = str(tmp_path / "absent.csv")
    assert main([command, "--asset1-path", p1, "--asset2-path", p2, *flags]) == 2
    assert "error[InvalidConfig]" in capsys.readouterr().err
