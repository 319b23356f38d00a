"""Run orchestration: artifact layout, determinism, atomicity, ecology checks."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from primesim import kernel, runner
from primesim.book import OrderBook
from primesim.cli import EXIT_NUMERICAL, EXIT_USAGE, cli
from primesim.config import load_preset, loads_config
from primesim.errors import ConfigError, DataError, NumericalError
from primesim.kernel import Simulation
from primesim.runner import build_simulation, replay, run_simulation
from primesim.tradeio import (
    CONFIG_FILE,
    L1_FILE,
    SUMMARY_FILE,
    TRADES_FILE,
    L1Writer,
    TradeTape,
    TradeWriter,
    read_l1,
    read_trades,
)

from reference import most_rows_within, quote_rows, tape_rows, time_averaged_mid

NS = 10**9

SMALL_SIM = """
seed: 7
session: 2m
book: {start_price: 500, half_width: 100, slope: 3}
agents:
  zi_limit: {count: 100, wake_rate: 0.5, p_cancel: 0.5, mode: santa_fe, band_low: 1, band_high: 1000, size: 1}
  zi_market: {count: 10, wake_rate: 0.3, mode: santa_fe, size: 2}
"""

PRIME_SIM = """
seed: 3
session: 5m
book: {start_price: 1000, half_width: 50, slope: 2}
oracle: {kind: constant, price: 1000}
agents:
  zi_limit: {count: 400, wake_rate: 0.4, p_cancel: 0.5, mode: prime, half_width: 50, size: 1}
  zi_market: {count: 30, wake_rate: 0.5, mode: prime, noise: 5, size: 1}
"""


class TestRunSimulation:
    def test_artifacts_written(self, tmp_path):
        config = loads_config(SMALL_SIM)
        result = run_simulation(config, tmp_path / "run")
        for name in (TRADES_FILE, L1_FILE, SUMMARY_FILE, CONFIG_FILE):
            assert (result.out_dir / name).exists()
        lines = (result.out_dir / SUMMARY_FILE).read_text().splitlines()
        summary = dict(line.split("=", 1) for line in lines)
        assert summary["seed"] == "7"
        assert int(summary["trades"]) == result.stats.n_trades
        assert result.stats.n_trades > 0

    def test_refuses_existing_directory(self, tmp_path):
        config = loads_config(SMALL_SIM)
        out = tmp_path / "run"
        out.mkdir()
        with pytest.raises(ConfigError, match="exists"):
            run_simulation(config, out)

    def test_no_partial_output_on_failure(self, tmp_path):
        config = loads_config(SMALL_SIM.replace("kind: santa_fe", "kind: santa_fe"))
        # force a failure mid-write by pointing the oracle at a missing file
        bad = loads_config(SMALL_SIM + "oracle: {kind: from_file, path: /nonexistent.csv}\n")
        with pytest.raises(Exception):
            run_simulation(bad, tmp_path / "bad_run")
        assert not (tmp_path / "bad_run").exists()
        assert not list(tmp_path.glob("bad_run.tmp-*"))

    def test_failed_run_removes_the_directories_it_made(self, tmp_path):
        bad = loads_config(SMALL_SIM + "oracle: {kind: from_file, path: /nonexistent.csv}\n")
        with pytest.raises(DataError):
            run_simulation(bad, tmp_path / "new" / "dirs" / "run")
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_keeps_what_others_wrote_under_the_directories_it_made(
            self, tmp_path, monkeypatch):
        run_until = Simulation.run_until
        other = tmp_path / "new" / "b" / "trades.csv"

        def failing(sim, end):
            run_until(sim, end // 2)
            other.parent.mkdir()  # a concurrent run finishes under the same new parent
            other.write_text("kept\n")
            raise NumericalError("failed partway")

        monkeypatch.setattr(Simulation, "run_until", failing)
        with pytest.raises(NumericalError):
            run_simulation(loads_config(SMALL_SIM), tmp_path / "new" / "a" / "run")
        assert other.read_text() == "kept\n"
        assert sorted(p.name for p in (tmp_path / "new").iterdir()) == ["b"]

    def test_failure_to_make_the_temporary_directory_removes_the_parents_made(
            self, tmp_path, monkeypatch):
        def no_space(**kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(runner.tempfile, "mkdtemp", no_space)
        with pytest.raises(OSError):
            run_simulation(loads_config(SMALL_SIM), tmp_path / "new" / "dirs" / "run")
        assert list(tmp_path.iterdir()) == []

    def test_byte_identical_reruns(self, tmp_path):
        config = loads_config(SMALL_SIM)
        a = run_simulation(config, tmp_path / "a")
        b = run_simulation(config, tmp_path / "b")
        for name in (TRADES_FILE, L1_FILE, SUMMARY_FILE):
            assert (a.out_dir / name).read_bytes() == (b.out_dir / name).read_bytes()

    def test_replay_reproduces(self, tmp_path):
        config = loads_config(SMALL_SIM)
        result = run_simulation(config, tmp_path / "run")
        assert replay(result.out_dir) is None

    def test_replay_names_truncated_file(self, tmp_path):
        result = run_simulation(loads_config(SMALL_SIM), tmp_path / "run")
        trades = result.out_dir / TRADES_FILE
        lines = trades.read_bytes().splitlines(keepends=True)
        trades.write_bytes(b"".join(lines[:10]))
        assert replay(result.out_dir) == f"{TRADES_FILE}:11"

    def test_unconserved_quantity_fails_without_output(self, tmp_path, monkeypatch):
        build = runner.build_simulation

        def leaky_build(config, *writers):
            sim = build(config, *writers)
            sim.book.cancelled_qty += 1  # one unit of quantity unaccounted for
            return sim

        monkeypatch.setattr(runner, "build_simulation", leaky_build)
        with pytest.raises(NumericalError, match="not conserved"):
            run_simulation(loads_config(SMALL_SIM), tmp_path / "run")
        assert not (tmp_path / "run").exists()
        assert not list(tmp_path.glob("run.tmp-*"))

    def test_crossed_book_at_session_end_exit_code(self, tmp_path, monkeypatch):
        run_until = Simulation.run_until

        def run_then_cross(sim, end):
            stats = run_until(sim, end)
            monkeypatch.setattr(OrderBook, "crossed", property(lambda book: True))
            return stats

        monkeypatch.setattr(Simulation, "run_until", run_then_cross)
        config = tmp_path / "config.yaml"
        config.write_text(SMALL_SIM)
        assert cli(["simulate", str(config), "--out", str(tmp_path / "run")]) == EXIT_NUMERICAL
        assert not (tmp_path / "run").exists()

    def test_interrupt_leaves_no_output(self, tmp_path, monkeypatch):
        run_until = Simulation.run_until

        def interrupted(sim, end):
            run_until(sim, end // 2)
            assert len(sim.trades) > 0 and list(tmp_path.glob(f"run.tmp-*/{TRADES_FILE}"))
            raise KeyboardInterrupt

        monkeypatch.setattr(Simulation, "run_until", interrupted)
        config = tmp_path / "config.yaml"
        config.write_text(SMALL_SIM)
        assert cli(["simulate", str(config), "--out", str(tmp_path / "run")]) == EXIT_USAGE
        assert not (tmp_path / "run").exists()
        assert not list(tmp_path.glob("run.tmp-*"))

    def test_run_files_read_back(self, tmp_path):
        config = loads_config(SMALL_SIM)
        result = run_simulation(config, tmp_path / "run")
        trades = read_trades(result.out_dir / TRADES_FILE).records
        quotes = read_l1(result.out_dir / L1_FILE)
        assert len(trades) == result.stats.n_trades
        assert quotes.ts[0] == 0

    def test_book_never_crossed_and_uncrossed_quotes(self, tmp_path):
        config = loads_config(SMALL_SIM)
        result = run_simulation(config, tmp_path / "run")
        quotes = read_l1(result.out_dir / L1_FILE)
        for _, bid, ask in quote_rows(quotes):
            if bid is not None and ask is not None:
                assert bid < ask


class TestEcologies:
    def test_prime_symmetric_buy_fraction(self):
        config = loads_config(PRIME_SIM)
        sim = build_simulation(config)
        stats = sim.run_until(config.session_ns)
        buys = (sim.trades.column("sign") > 0).sum()
        assert abs(buys / stats.n_trades - 0.5) < 0.02

    def test_prime_pull_to_fundamental(self):
        # constant oracle away from the seeded price: the time-averaged mid over
        # the final quarter must end strictly closer to the oracle price
        for start, seed in ((980, 1), (1020, 2)):
            config = loads_config(PRIME_SIM.replace("start_price: 1000", f"start_price: {start}"))
            sim = build_simulation(config)
            sim.run_until(config.session_ns)
            q4 = time_averaged_mid(sim.quotes, 3 * config.session_ns // 4, config.session_ns)
            assert abs(q4 - 1000) < abs(start - 1000)

    def test_santa_fe_stationarity_smoke(self):
        config = load_preset("santa-fe")
        config = replace(config, session_ns=2400 * NS)
        sim = build_simulation(config)
        spreads, depths = [], []
        for k in range(1, 81):
            sim.run_until(k * 30 * NS)
            book = sim.book
            assert book.mid2x is not None  # both sides quote
            spreads.append(book.best_ask - book.best_bid)
            depths.append(sim.book.resting_qty())
        h2_spread = np.mean(spreads[40:])
        q3_spread = np.mean(spreads[40:60])
        h2_depth = np.mean(depths[40:])
        q3_depth = np.mean(depths[40:60])
        assert abs(h2_spread / q3_spread - 1) < 0.10
        assert abs(h2_depth / q3_depth - 1) < 0.10

    @pytest.mark.parametrize("preset", ["prime", "santa-fe"])
    def test_quantity_conserved_and_book_uncrossed(self, preset):
        config = replace(load_preset(preset), session_ns=60 * NS)
        sim = build_simulation(config)
        stats = sim.run_until(config.session_ns)
        book = sim.book
        assert book.traded_qty > 0 and book.cancelled_qty > 0 and len(book) > 0
        assert book.submitted_qty == (2 * book.traded_qty + book.cancelled_qty
                                      + book.discarded_qty + book.resting_qty())
        assert not book.crossed
        assert stats.traded_qty == book.traded_qty == sum(sim.trades.qty)

    def test_census_built_as_configured(self):
        config = load_preset("prime")
        sim = build_simulation(config)
        assert len(sim._agents) == 1050

    @pytest.mark.parametrize("preset", ["prime", "santa-fe"])
    def test_agents_and_their_streams_keep_no_dict(self, preset):
        sim = build_simulation(load_preset(preset))
        for agent in sim._agents.values():
            assert not hasattr(agent, "__dict__"), type(agent).__name__
            assert not hasattr(agent.rng, "__dict__")

    def test_darp_market_mode_wiring(self):
        from primesim.agents import DarpMarketAgent
        from primesim.impact import order_sign_acf

        config = loads_config(
            SMALL_SIM.replace("zi_market: {count: 10, wake_rate: 0.3, mode: santa_fe, size: 2}",
                              "zi_market: {count: 1, wake_rate: 3.0, mode: darp, size: 1, darp_p: 0.95}")
            .replace("session: 2m", "session: 30m"))
        sim = build_simulation(config)
        darp_agents = [a for a in sim._agents.values() if isinstance(a, DarpMarketAgent)]
        assert len(darp_agents) == 1
        assert darp_agents[0].params.p == 0.95
        assert not hasattr(darp_agents[0], "__dict__")
        sim.run_until(config.session_ns)
        signs = sim.trades.column("sign")
        assert order_sign_acf(signs, max_lag=1)[0] > 0.1  # persistent flow reaches the tape


STREAM_SESSION_NS = 180 * NS  # long enough for prime, with its 60 s lookback, to spill twice
SMALL_SPILL_ROWS = 16


class TestStreamedRuns:
    @pytest.mark.parametrize("preset", ["prime", "santa-fe"])
    def test_files_equal_an_in_memory_run(self, preset, tmp_path, monkeypatch):
        config = replace(load_preset(preset), session_ns=STREAM_SESSION_NS)
        whole = build_simulation(config)
        whole.run_until(config.session_ns)
        with TradeWriter(tmp_path / TRADES_FILE) as trades, L1Writer(tmp_path / L1_FILE) as l1:
            trades.extend(tape_rows(whole.trades))
            l1.write(whole.quotes)

        monkeypatch.setattr(kernel, "SPILL_ROWS", SMALL_SPILL_ROWS)
        built, blocks = [], []
        build, write = runner.build_simulation, L1Writer.write

        def keep_built(config, *writers):
            built.append(build(config, *writers))
            return built[-1]

        def count_blocks(writer, quotes, n=None):
            blocks.append(n)
            write(writer, quotes, n)

        monkeypatch.setattr(runner, "build_simulation", keep_built)
        monkeypatch.setattr(L1Writer, "write", count_blocks)
        result = run_simulation(config, tmp_path / "run")
        for name in (TRADES_FILE, L1_FILE):
            assert (result.out_dir / name).read_bytes() == (tmp_path / name).read_bytes(), name
        assert len(blocks) > 2  # two spills or more, then the rest at session end

        [sim] = built
        assert isinstance(sim.trades, TradeWriter) and len(sim.trades) == len(whole.trades)
        assert not any(hasattr(sim.trades, name) for name in TradeTape._columns)
        kept = quote_rows(sim.quotes)
        assert kept == quote_rows(whole.quotes)[-len(kept):]
        inside = most_rows_within(whole.quotes.ts, sim.horizon)
        assert len(kept) < max(SMALL_SPILL_ROWS, 2 * (inside + 1))


SPLIT_SESSION_NS = 60 * NS


class TestSplitRuns:
    @pytest.mark.parametrize("preset", ["prime", "santa-fe"])
    # each example runs two sessions, so a failure is reported as drawn, not shrunk
    @settings(max_examples=3, deadline=None, phases=(Phase.reuse, Phase.generate))
    @given(cuts=st.lists(st.integers(0, SPLIT_SESSION_NS), min_size=1, max_size=4))
    def test_run_split_at_any_times_matches_one_run(self, preset, cuts):
        config = replace(load_preset(preset), session_ns=SPLIT_SESSION_NS)
        whole, split = build_simulation(config), build_simulation(config)
        whole.run_until(SPLIT_SESSION_NS)
        for t in sorted(cuts) + [SPLIT_SESSION_NS]:
            split.run_until(t)
        for log in ("trades", "quotes"):
            a, b = getattr(whole, log), getattr(split, log)
            for name in a._columns:
                assert getattr(a, name) == getattr(b, name), (log, name)
        assert len(whole.trades) > 0
        for a, b in zip(whole._agents.values(), split._agents.values(), strict=True):
            assert a.rng.state == b.rng.state, a.agent_id
