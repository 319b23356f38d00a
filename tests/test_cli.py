"""Command-line interface: subcommands, outputs, and exit-code contract."""

import shutil
import time

import numpy as np
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

PRIME_CONFIG = """
seed: 1
session: 5s
book: {start_price: 1000, half_width: 50, slope: 2}
oracle: {kind: constant, price: 1000}
agents:
  zi_limit: {count: 20, wake_rate: 2.0, mode: prime, half_width: 50}
  zi_market: {count: 5, wake_rate: 2.0, mode: prime, noise: 5}
"""

# (key, text in PRIME_CONFIG, replacement): values that overflowed int64 or float
# arithmetic in a session before the schema bounded them
OUT_OF_RANGE = [
    ("start_price", "start_price: 1000", f"start_price: {2**62}"),
    ("half_width", "prime, half_width: 50", f"prime, half_width: {2**62}"),
    ("price", "constant, price: 1000", f"constant, price: {2**63 + 1}"),
    ("sigma", "constant, price: 1000", "random_walk, start: 1000, sigma: 1.0e+30, step: 1s"),
    ("darp_gamma", "prime, noise: 5", "darp, darp_gamma: 800"),
]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.yaml"
    config.write_text(CONFIG)
    out = root / "run"
    assert cli(["simulate", str(config), "--out", str(out)]) == EXIT_OK
    return out


class TestSimulate:
    def test_missing_config_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert cli(["simulate", str(tmp_path / "absent.yaml"), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "is neither a config file nor a preset ('santa-fe', 'prime')" in err
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

    @pytest.mark.parametrize("key,old,new", OUT_OF_RANGE, ids=[key for key, _, _ in OUT_OF_RANGE])
    def test_values_past_int64_or_float_range_exit_code(self, tmp_path, capsys, key, old, new):
        bad = tmp_path / "bad.yaml"
        bad.write_text(PRIME_CONFIG.replace(old, new))
        out = tmp_path / "x"
        assert cli(["simulate", str(bad), "--out", str(out)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
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

    @pytest.mark.parametrize("command,options", [
        ("impact", ["--window", "1s", "--min-periods", "30"]),
        ("decay", ["--window", "1s", "--min-periods", "30", "--max-lag", "20"]),
        ("acf", ["--max-lag", "20"]),
    ])
    def test_input_files_split_around_options(self, run_dir, tmp_path, command, options, capsys):
        trades, l1 = str(run_dir / "trades.csv"), str(run_dir / "l1.csv")
        together, split = tmp_path / "together", tmp_path / "split"
        assert cli(["analyze", command, trades, l1, *options, "--out", str(together)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert cli(["analyze", command, trades, *options, l1, "--out", str(split)]) == EXIT_OK
        assert capsys.readouterr().out == printed
        for name in sorted(p.name for p in together.iterdir()):
            assert (split / name).read_bytes() == (together / name).read_bytes()

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


def small_dump(root):
    """A 200 s trade file with one malformed row in 200, the same file without it, an L1 file."""
    rng = np.random.default_rng(3)
    prices, qtys, sides = rng.integers(98, 103, 199), rng.integers(1, 4, 199), rng.integers(0, 2, 199)
    rows = [f"{t * 10**9},{prices[t]},{qtys[t]},{'BS'[sides[t]]}\n" for t in range(199)]
    header = "ts,price,qty,aggressor\n"
    clean, dirty, l1 = root / "clean.csv", root / "dirty.csv", root / "l1.csv"
    clean.write_text(header + "".join(rows))
    dirty.write_text(header + "".join(rows[:100] + ["not-a-time,100,1,B\n"] + rows[100:]))
    mids = 100 + np.cumsum(rng.integers(-1, 2, size=200))
    l1.write_text("ts,best_bid,best_ask\n" + "".join(
        f"{t * 10**9 + 5 * 10**8},{mid - 1},{mid + 1}\n" for t, mid in enumerate(mids)))
    return clean, dirty, l1


class TestSkippedRows:
    @pytest.mark.parametrize("command,options", [
        ("impact", ["--window", "1s", "--horizon", "20s"]),
        ("decay", ["--window", "1s", "--horizon", "20s", "--max-lag", "3"]),
        ("acf", ["--max-lag", "10"]),
    ])
    def test_malformed_trade_rows_reported_on_stderr_only(self, tmp_path, capsys,
                                                          command, options):
        clean, dirty, l1 = small_dump(tmp_path)
        outputs = []
        for name, trades in (("clean", clean), ("dirty", dirty)):
            out = tmp_path / name
            assert cli(["analyze", command, str(trades), str(l1), *options,
                        "--out", str(out)]) == EXIT_OK
            outputs.append((capsys.readouterr(), out))
        (clean_run, clean_out), (dirty_run, dirty_out) = outputs
        assert clean_run.err == ""
        assert dirty_run.err == f"skipped 1 malformed trade rows in {dirty}\n"
        assert dirty_run.out == clean_run.out
        names = sorted(p.name for p in clean_out.iterdir())
        assert names == sorted(p.name for p in dirty_out.iterdir())
        for name in names:
            assert (dirty_out / name).read_bytes() == (clean_out / name).read_bytes()


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
        ["analyze", "impact", "IN", "--delta", "nan"],
        ["analyze", "impact", "IN", "--delta", "inf"],
        ["analyze", "decay", "IN", "--delta", "nan"],
        ["tune-dar", "--target-alpha", "nan", "--target-c", "0.2", "--budget", "3"],
        ["tune-dar", "--target-alpha", "0.6", "--target-c", "inf", "--budget", "3"],
        ["tune-dar", "--target-alpha", "0.5", "--target-c", "0.4", "--budget", "2", "--seed", "-1"],
        ["analyze", "impact", "IN", "--min-periods", "-5"],
        ["analyze", "decay", "IN", "--min-periods", "0"],
        ["analyze", "impact", "IN", "--window", "0s"],
        ["analyze", "decay", "IN", "--horizon", "soon"],
        ["analyze", "impact", "IN", "--min-periods", "1"],
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


def with_bad_byte(src: bytes, dst, line):
    """Write ``src`` to ``dst`` with a byte that is not UTF-8 inside line index ``line`` (0 = header)."""
    lines = src.splitlines(keepends=True)
    lines[line] = lines[line][:1] + b"\xff" + lines[line][1:]
    dst.write_bytes(b"".join(lines))
    return dst


@pytest.mark.parametrize("line", [0, -1], ids=["header", "body"])
class TestUndecodableInput:
    """A byte that is not UTF-8 is a data error (exit 3) in a data file, a config error in a config."""

    def test_trade_file(self, run_dir, tmp_path, capsys, line):
        trades = with_bad_byte((run_dir / "trades.csv").read_bytes(), tmp_path / "t.csv", line)
        assert cli(["analyze", "acf", str(trades), "--out", str(tmp_path / "acf")]) == EXIT_DATA
        assert f"data error: cannot read trade file {trades}: " in capsys.readouterr().err

    def test_l1_file(self, run_dir, tmp_path, capsys, line):
        l1 = with_bad_byte((run_dir / "l1.csv").read_bytes(), tmp_path / "l1.csv", line)
        code = cli(["analyze", "impact", str(run_dir / "trades.csv"), str(l1),
                    "--out", str(tmp_path / "impact")])
        assert code == EXIT_DATA
        assert f"data error: cannot read L1 file {l1}: " in capsys.readouterr().err

    def test_oracle_series_file(self, tmp_path, capsys, line):
        series = with_bad_byte(b"time_ns,price_ticks\n0,500\n5,501\n", tmp_path / "s.csv", line)
        config = tmp_path / "config.yaml"
        config.write_text(CONFIG + f"oracle: {{kind: from_file, path: '{series}'}}\n")
        out = tmp_path / "x"
        assert cli(["simulate", str(config), "--out", str(out)]) == EXIT_DATA
        assert f"data error: cannot read series file {series}: " in capsys.readouterr().err
        assert not out.exists()

    def test_config_file(self, tmp_path, capsys, line):
        config = with_bad_byte(CONFIG.lstrip().encode(), tmp_path / "config.yaml", line)
        out = tmp_path / "x"
        assert cli(["simulate", str(config), "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: cannot read config {config}: " in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("argv", [["analyze"], ["simulate"], ["analyze", "frobnicate"],
                                      ["replay"], ["tune-dar", "--target-alpha", "0.6"],
                                      ["simulate", "santa-fe", "extra"],
                                      ["simulate", "santa-fe", "--out"],
                                      ["analyze", "impact", "T", "--window", "1s", "L", "M"],
                                      ["analyze", "acf", "T", "--max-lag", "5", "-x"],
                                      ["simulate", "santa-fe", "-h"]])
    def test_incomplete_or_extra_arguments(self, argv, capsys):
        assert cli(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"],
                                      ["analyze", "impact", "--help"],
                                      ["tune-dar", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        assert cli(argv) == EXIT_OK
        assert "--help" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["analyze", "impact", "IN", "--win", "1s"],
                                      ["analyze", "acf", "IN", "--max", "5"],
                                      ["simulate", "santa-fe", "--sess", "1m"],
                                      ["tune-dar", "--target-a", "0.6", "--target-c", "0.2"]])
    def test_option_prefixes_are_refused(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli(argv + ["--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv,flag,value", [
        (["analyze", "impact", "IN", "--delta", "-1"], "--delta", "-1.0"),
        (["analyze", "decay", "IN", "--max-lag", "-1"], "--max-lag", "-1"),
        (["tune-dar", "--target-alpha", "0.6", "--target-c", "-0.2"], "--target-c", "-0.2"),
    ])
    def test_negative_numbers_are_values(self, argv, flag, value, capsys):
        assert cli(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: Invalid value for '{flag}': {value} ")

    def test_interrupt_exits_with_usage_code(self, tmp_path, monkeypatch):
        def interrupt(config, out_dir):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner, "run_simulation", interrupt)
        assert cli(["simulate", "santa-fe", "--out", str(tmp_path / "x")]) == EXIT_USAGE

    def test_command_output_lines(self, run_dir, capsys):
        capsys.readouterr()
        assert cli(["replay", str(run_dir)]) == EXIT_OK
        assert capsys.readouterr().out == "replay identical\n"

    def test_value_starting_with_a_dash_needs_an_equals_sign(self, tmp_path, capsys):
        # argparse reads only a plain negative number as the value of an option
        out = tmp_path / "x"
        assert cli(["simulate", "santa-fe", "--session", "-5s", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert cli(["simulate", "santa-fe", "--session=-5s", "--out", str(out)]) == EXIT_CONFIG
        assert "cannot parse duration '-5s'" in capsys.readouterr().err
        assert cli(["analyze", "impact", "IN", "--delta=-1e-3"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: Invalid value for '--delta': ")
        assert not out.exists()
