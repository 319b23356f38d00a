"""Command-line interface: subcommands, outputs, and exit-code contract."""

import shutil
import time

import pytest

from primesim import runner
from primesim.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, cli
from primesim.kernel import RunStats

CONFIG = """
seed: 11
session: 15m
book: {start_price: 500, half_width: 150, slope: 3}
agents:
  zi_limit: {count: 200, wake_rate: 0.5, p_cancel: 0.5, mode: santa_fe, band_low: 1, band_high: 1000, size: 1}
  zi_market: {count: 15, wake_rate: 0.4, mode: santa_fe, size: 2}
"""


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.yaml"
    config.write_text(CONFIG)
    out = root / "run"
    assert cli(["simulate", str(config), "--out", str(out)]) == EXIT_OK
    return out


class TestSimulate:
    def test_missing_config_fails_cleanly(self, tmp_path):
        out = tmp_path / "never"
        assert cli(["simulate", str(tmp_path / "absent.yaml"), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_invalid_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("seed: -1\nsession: 1h\nagents: {}\n")
        assert cli(["simulate", str(bad), "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    @pytest.mark.parametrize("line", [
        "darp_literal_branch: 'no'",
        "darp_literal_branch: 1",
        "darp_literal_branch: 'false'",
    ])
    def test_non_bool_literal_branch_exit_code(self, tmp_path, line):
        bad = tmp_path / "bad.yaml"
        bad.write_text(CONFIG.replace("mode: santa_fe, size: 2}",
                                      f"mode: darp, size: 2, {line}}}"))
        assert cli(["simulate", str(bad), "--out", str(tmp_path / "x")]) == EXIT_CONFIG
        assert not (tmp_path / "x").exists()

    def test_inverted_band_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(CONFIG.replace("band_low: 1, band_high: 1000",
                                      "band_low: 50, band_high: 10"))
        assert cli(["simulate", str(bad), "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    @pytest.mark.parametrize("flag,value", [("--seed", "-3"), ("--session", "0s"),
                                            ("--session", "soon"),
                                            ("--session", "2000h")])  # past the wakeup cap
    def test_bad_override_exit_code(self, tmp_path, flag, value):
        out = tmp_path / "x"
        assert cli(["simulate", "santa-fe", flag, value, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_runaway_wake_rate_exits_before_running(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("seed: 1\nsession: 10s\n"
                       "agents: {zi_market: {count: 1, wake_rate: 1.0e+9}}\n")
        out = tmp_path / "x"
        started = time.perf_counter()
        assert cli(["simulate", str(bad), "--out", str(out)]) == EXIT_CONFIG
        assert time.perf_counter() - started < 30  # running it would take hours
        assert "expected agent wakeups" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("preset", ["santa-fe", "prime"])
    def test_presets_at_one_hour_pass_the_cap(self, tmp_path, monkeypatch, preset):
        # the session is not run: the runner stand-in only records the config
        seen = []

        def record(config, out_dir):
            seen.append(config)
            return runner.RunResult(out_dir=out_dir, stats=RunStats(0, 0, 0))

        monkeypatch.setattr(runner, "run_simulation", record)
        out = tmp_path / "x"
        assert cli(["simulate", preset, "--session", "1h", "--out", str(out)]) == EXIT_OK
        assert [c.session_ns for c in seen] == [3600 * 10**9]

    def test_sub_nanosecond_session_exit_code(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert cli(["simulate", "santa-fe", "--session", "2.5ns", "--out", str(out)]) == EXIT_CONFIG
        assert "whole number of nanoseconds" in capsys.readouterr().err
        assert not out.exists()

    def test_series_value_outside_int64_exit_code(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("time_ns,price_ticks\n0,500\n5,99999999999999999999999\n")
        bad = tmp_path / "bad.yaml"
        bad.write_text(CONFIG + f"oracle: {{kind: from_file, path: '{series}'}}\n")
        out = tmp_path / "x"
        assert cli(["simulate", str(bad), "--out", str(out)]) == EXIT_DATA
        assert f"{series}:3: malformed series row" in capsys.readouterr().err
        assert not out.exists()

    def test_preset_with_overrides(self, tmp_path):
        out = tmp_path / "preset_run"
        code = cli(["simulate", "santa-fe", "--session", "30s", "--seed", "5",
                    "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "trades.csv").exists()

    def test_artifacts(self, run_dir):
        for name in ("trades.csv", "l1.csv", "summary.txt", "config.yaml"):
            assert (run_dir / name).exists()


class TestAnalyze:
    def test_impact_on_run_dir(self, run_dir, tmp_path):
        out = tmp_path / "impact"
        code = cli(["analyze", "impact", str(run_dir), "--window", "1s",
                    "--min-periods", "30", "--out", str(out)])
        assert code == EXIT_OK
        for name in ("windows.csv", "samples.csv", "buckets.csv",
                     "buckets_by_prev_sign.csv", "delta_fit.csv"):
            assert (out / name).exists()
        header = (out / "buckets.csv").read_text().splitlines()[0]
        assert header == "bucket,lo,hi,mean_q,mean_y,count"

    def test_impact_on_csv_pair(self, run_dir, tmp_path):
        out = tmp_path / "impact2"
        code = cli(["analyze", "impact", str(run_dir / "trades.csv"),
                    str(run_dir / "l1.csv"), "--window", "1s",
                    "--min-periods", "30", "--out", str(out)])
        assert code == EXIT_OK

    def test_decay(self, run_dir, tmp_path):
        out = tmp_path / "decay"
        code = cli(["analyze", "decay", str(run_dir), "--window", "1s",
                    "--min-periods", "30", "--max-lag", "20", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "kernel.csv").read_text().splitlines()
        assert lines[0] == "lag,beta,cumulative,stderr"
        assert len(lines) == 22  # header + lags 0..20

    def test_decay_at_max_lag_zero(self, run_dir, tmp_path):
        out = tmp_path / "decay"
        code = cli(["analyze", "decay", str(run_dir), "--window", "1s",
                    "--min-periods", "30", "--max-lag", "0", "--out", str(out)])
        assert code == EXIT_OK
        assert len((out / "kernel.csv").read_text().splitlines()) == 2  # header + lag 0

    def test_acf(self, run_dir, tmp_path):
        out = tmp_path / "acf"
        code = cli(["analyze", "acf", str(run_dir), "--max-lag", "50", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "acf.csv").read_text().splitlines()
        assert lines[0] == "lag,acf"
        assert len(lines) == 51

    def test_acf_on_trades_csv_matches_run_dir(self, run_dir, tmp_path):
        for name, src in (("dir", run_dir), ("csv", run_dir / "trades.csv")):
            assert cli(["analyze", "acf", str(src), "--max-lag", "50",
                        "--out", str(tmp_path / name)]) == EXIT_OK
        assert (tmp_path / "dir" / "acf.csv").read_bytes() == \
               (tmp_path / "csv" / "acf.csv").read_bytes()

    def test_acf_on_run_dir_without_l1(self, run_dir, tmp_path):
        copy = tmp_path / "run"
        shutil.copytree(run_dir, copy)
        (copy / "l1.csv").unlink()
        out = tmp_path / "acf"
        assert cli(["analyze", "acf", str(copy), "--max-lag", "50", "--out", str(out)]) == EXIT_OK
        assert len((out / "acf.csv").read_text().splitlines()) == 51

    def test_acf_without_power_law_fit(self, tmp_path, capsys):
        # alternating signs: the ACF is positive at even lags only, 4 of 8
        trades = tmp_path / "alternating.csv"
        trades.write_text("ts,price,qty,aggressor\n"
                          + "".join(f"{i},100,1,{'BS'[i % 2]}\n" for i in range(100)))
        out = tmp_path / "acf"
        assert cli(["analyze", "acf", str(trades), "--max-lag", "8", "--out", str(out)]) == EXIT_OK
        assert "power-law fit unavailable" in capsys.readouterr().out
        assert (out / "acf.csv").exists()
        assert not (out / "acf_powerlaw.csv").exists()

    def test_missing_inputs_data_error(self, tmp_path):
        assert cli(["analyze", "impact", str(tmp_path)]) == EXIT_DATA

    def test_rerunning_analysis_is_bit_identical(self, run_dir, tmp_path):
        outs = []
        for name in ("p1", "p2"):
            out = tmp_path / name
            assert cli(["analyze", "impact", str(run_dir), "--window", "1s",
                        "--min-periods", "30", "--out", str(out)]) == EXIT_OK
            outs.append(out)
        for name in ("windows.csv", "samples.csv", "buckets.csv", "delta_fit.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestTuneDar:
    def test_tune_writes_result(self, tmp_path):
        out = tmp_path / "tune.csv"
        code = cli(["tune-dar", "--target-alpha", "0.6", "--target-c", "0.2",
                    "--budget", "3", "--seed", "1", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().splitlines()[0] == "p,gamma,alpha,c,r2,score"


class TestOptionRanges:
    @pytest.mark.parametrize("args", [
        ["analyze", "acf", "IN", "--max-lag", "0"],
        ["analyze", "acf", "IN", "--max-lag", "-3"],
        ["analyze", "decay", "IN", "--max-lag", "-1"],
        ["analyze", "decay", "IN", "--delta", "0"],
        ["analyze", "impact", "IN", "--delta", "-1"],
        ["analyze", "impact", "IN", "--buckets", "0"],
        ["tune-dar", "--target-alpha", "0", "--target-c", "0.2", "--budget", "3"],
        ["tune-dar", "--target-alpha", "0.6", "--target-c", "-0.2", "--budget", "3"],
        ["tune-dar", "--target-alpha", "0.6", "--target-c", "0.2", "--budget", "0"],
    ])
    def test_out_of_range_exits_before_reading_input(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        argv = [str(tmp_path / "absent") if a == "IN" else a for a in args]
        assert cli(argv + ["--out", str(out)]) == EXIT_USAGE
        assert "Invalid value for" in capsys.readouterr().err
        assert not out.exists()


class TestUnwritableOutput:
    def test_acf_out_is_a_file(self, run_dir, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert cli(["analyze", "acf", str(run_dir), "--out", str(taken)]) == EXIT_DATA
        assert str(taken) in capsys.readouterr().err

    def test_tune_dar_out_in_missing_dir(self, tmp_path, capsys):
        out = tmp_path / "absent" / "tune.csv"
        assert cli(["tune-dar", "--target-alpha", "0.6", "--target-c", "0.2",
                    "--budget", "3", "--seed", "1", "--out", str(out)]) == EXIT_DATA
        assert str(out) in capsys.readouterr().err


class TestReplay:
    def test_replay_round_trip(self, run_dir):
        assert cli(["replay", str(run_dir)]) == EXIT_OK

    def test_replay_mismatch_names_first_differing_line(self, run_dir, tmp_path, capsys):
        copy = tmp_path / "edited"
        shutil.copytree(run_dir, copy)
        lines = (copy / "l1.csv").read_bytes().splitlines(keepends=True)
        assert len(lines) > 2000
        ts, rest = lines[1233].split(b",", 1)
        lines[1233] = b"%d," % (int(ts) + 1) + rest  # line 1234: the header is line 1
        (copy / "l1.csv").write_bytes(b"".join(lines))
        assert cli(["replay", str(copy)]) == EXIT_NUMERICAL
        assert "first difference at l1.csv:1234" in capsys.readouterr().err

    def test_replay_missing_dir(self, tmp_path):
        assert cli(["replay", str(tmp_path / "nope")]) == EXIT_DATA


class TestUsage:
    def test_unknown_subcommand(self):
        assert cli(["frobnicate"]) == EXIT_USAGE

    def test_unknown_flag(self):
        assert cli(["simulate", "santa-fe", "--warp", "9"]) == EXIT_USAGE

    def test_no_args_usage(self):
        assert cli([]) == EXIT_USAGE
