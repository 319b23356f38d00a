"""Command-line interface: subcommands, outputs, and exit-code contract."""

import shutil

import pytest

from primesim.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, cli

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
                                            ("--session", "soon")])
    def test_bad_override_exit_code(self, tmp_path, flag, value):
        out = tmp_path / "x"
        assert cli(["simulate", "santa-fe", flag, value, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_sub_nanosecond_session_exit_code(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert cli(["simulate", "santa-fe", "--session", "2.5ns", "--out", str(out)]) == EXIT_CONFIG
        assert "whole number of nanoseconds" in capsys.readouterr().err
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

    def test_acf(self, run_dir, tmp_path):
        out = tmp_path / "acf"
        code = cli(["analyze", "acf", str(run_dir), "--max-lag", "50", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "acf.csv").read_text().splitlines()
        assert lines[0] == "lag,acf"
        assert len(lines) == 51

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
