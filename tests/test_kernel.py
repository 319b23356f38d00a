"""Event loop: ordering, rejection of past events, Poisson gaps, determinism."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primesim import kernel
from primesim.book import OrderBook, Side
from primesim.kernel import Simulation, agent_stream, next_poisson_wakeup

from reference import most_rows_within, quote_rows, tape_rows


class FixedGapAgent:
    """Deterministic clock: wakes every `gap` ns and counts wakeups."""

    def __init__(self, agent_id, gap):
        self.agent_id = agent_id
        self.gap = gap
        self.wakeups = 0

    def next_wakeup_delay(self):
        return self.gap

    def wakeup(self, sim):
        self.wakeups += 1


class RecordingAgent:
    """Notes its dispatch times so ordering can be asserted."""

    def __init__(self, agent_id, gap, log):
        self.agent_id = agent_id
        self.gap = gap
        self.log = log

    def next_wakeup_delay(self):
        return self.gap

    def wakeup(self, sim):
        self.log.append((sim.now, self.agent_id))


class CoinMarketAgent:
    def __init__(self, agent_id, rng):
        self.agent_id = agent_id
        self.rng = rng

    def next_wakeup_delay(self):
        return next_poisson_wakeup(2000.0, self.rng)

    def wakeup(self, sim):
        side = Side.BID if self.rng.random() <= 0.5 else Side.ASK
        sim.place_market(self.agent_id, side, 1)


class TestScheduling:
    def test_past_event_rejected(self):
        sim = Simulation(OrderBook())
        sim.now = 4
        with pytest.raises(ValueError, match="before now"):
            sim.schedule_wakeup(0, 3)

    def test_run_until_a_past_time_rejected_before_the_heap_moves(self):
        sim = Simulation(OrderBook())
        sim.register(RecordingAgent(0, gap=10**9, log=[]))
        sim.run_until(10 * 10**9)
        heap = list(sim._heap)
        with pytest.raises(ValueError, match="before now"):
            sim.run_until(5 * 10**9)
        assert sim.now == 10 * 10**9
        assert sim._heap == heap

    def test_equal_time_dispatch_in_seq_order(self):
        log = []
        sim = Simulation(OrderBook())
        a = RecordingAgent(0, gap=10, log=log)
        b = RecordingAgent(1, gap=10, log=log)
        sim.register(a)
        sim.register(b)
        sim.run_until(10)
        assert log == [(10, 0), (10, 1)]  # same time, registration (seq) order

    def test_random_schedules_drain_sorted(self):
        rng = np.random.default_rng(0)
        times = rng.integers(0, 10**9, size=100_000)
        heap = []
        for seq, t in enumerate(times):
            heapq.heappush(heap, (int(t), seq, 0))  # (time, seq, agent) as the kernel queues
        drained = [heapq.heappop(heap) for _ in range(len(times))]
        expected = sorted(drained, key=lambda e: (e[0], e[1]))
        assert drained == expected


class TestRunUntil:
    def test_no_agents_returns_immediately(self):
        sim = Simulation(OrderBook())
        stats = sim.run_until(10**9)
        assert stats.events_dispatched == 0
        assert stats.n_trades == 0
        assert sim.now == 10**9

    def test_fixed_gap_agent_exact_wakeups(self):
        gap = 1_000_000
        agent = FixedGapAgent(0, gap)
        sim = Simulation(OrderBook())
        sim.register(agent)
        sim.run_until(10 * gap)
        assert agent.wakeups == 10  # horizon of 10 gaps fits exactly 10 wakeups

    def test_same_seed_identical_tape(self):
        def run(seed):
            book = OrderBook()
            book.seed_linear(100, 10, 2)
            sim = Simulation(book)
            for aid in range(4):
                sim.register(CoinMarketAgent(aid, agent_stream(seed, aid)))
            sim.run_until(int(0.5e9))
            return tape_rows(sim.trades)

        assert run(9) == run(9)
        assert run(9) != run(10)


class TestPoissonWakeup:
    def test_mean_one_second(self):
        rng = np.random.default_rng(1)
        gaps = np.asarray([next_poisson_wakeup(1.0, rng) for _ in range(200_000)])
        assert abs(gaps.mean() / 1e9 - 1.0) < 0.01

    def test_mean_one_millisecond(self):
        rng = np.random.default_rng(2)
        gaps = np.asarray([next_poisson_wakeup(1000.0, rng) for _ in range(200_000)])
        assert abs(gaps.mean() / 1e6 - 1.0) < 0.01

    def test_gaps_at_least_one_ns(self):
        rng = np.random.default_rng(3)
        gaps = [next_poisson_wakeup(1e9, rng) for _ in range(10_000)]
        assert min(gaps) >= 1

    def test_rejects_nonpositive_rate(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            next_poisson_wakeup(0.0, rng)
        with pytest.raises(ValueError):
            next_poisson_wakeup(-1.0, rng)


class TestStreams:
    def test_agent_streams_independent_and_reproducible(self):
        a = agent_stream(5, 0).random(4)
        b = agent_stream(5, 1).random(4)
        assert not np.allclose(a, b)
        assert np.array_equal(a, agent_stream(5, 0).random(4))

    def test_quote_log_records_changes_only(self):
        book = OrderBook()
        book.seed_linear(100, 5, 1)
        sim = Simulation(book)
        assert quote_rows(sim.quotes) == [(0, 99, 101)]
        sim.place_limit(0, Side.BID, 99, 1)  # joins an existing level: no change
        assert len(sim.quotes) == 1
        sim.place_limit(0, Side.BID, 100, 1)
        assert quote_rows(sim.quotes) == [(0, 99, 101), (0, 100, 101)]

    def test_mid_lookup_carries_forward(self):
        book = OrderBook()
        book.seed_linear(100, 5, 1)
        sim = Simulation(book)
        sim.now = 50
        sim.place_limit(0, Side.BID, 100, 1)
        assert sim.mid2x_at(0) == 200
        assert sim.mid2x_at(49) == 200
        assert sim.mid2x_at(50) == 201
        assert sim.mid2x_at(10**9) == 201
        assert sim.mid2x_at(-1) is None


def brute_force_mid2x(rows, t):
    """Last two-sided bid + ask among L1 rows at or before t, by a full scan."""
    mid = None
    for ts, bid, ask in rows:
        if ts <= t and bid is not None and ask is not None:
            mid = bid + ask
    return mid


class QuoteRows:
    """Stands in for an ``L1Writer``: keeps the ``(ts, bid, ask)`` rows written to it."""

    def __init__(self):
        self.rows = []

    def write(self, quotes, n=None):
        self.rows += quote_rows(quotes)[:n]


class TestQuoteLog:
    def random_session(self, seed, **options):
        """A session of random actions and the top-of-book changes seen in it.

        It starts empty at t=0 and first acts at t=100, so early rows are
        one-sided and t < 0 has no quote; several actions share each timestamp.
        The changes are read off the book after every action, independently of
        the quote log. ``options`` go to ``Simulation``.
        """
        rng = np.random.default_rng(seed)
        sim = Simulation(OrderBook(), **options)
        live = []
        changes = [(0, None, None)]
        for step in range(3000):
            sim.now = 100 + 7 * (step // 4)
            roll = rng.random()
            side = Side.BID if rng.random() < 0.5 else Side.ASK
            if roll < 0.5:
                price = int(rng.integers(95, 106))
                live.append(sim.place_limit(int(rng.integers(3)), side, price, 1))
            elif roll < 0.7:
                sim.place_market(int(rng.integers(3)), side, int(rng.integers(1, 4)))
            elif live:
                sim.cancel(live.pop(int(rng.integers(len(live)))))
            if (sim.book.best_bid, sim.book.best_ask) != changes[-1][1:]:
                changes.append((sim.now, sim.book.best_bid, sim.book.best_ask))
        return sim, changes

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mid2x_at_matches_brute_force(self, seed):
        sim, _ = self.random_session(seed)
        rows = quote_rows(sim.quotes)
        times = [ts for ts, _, _ in rows]
        assert rows[0] == (0, None, None)
        assert any((bid is None) != (ask is None) for _, bid, ask in rows)  # one-sided
        assert len(set(times)) < len(times)  # several updates at one ns
        probes = {-10**9, -1, 0, 99} | {t + d for t in times for d in (-1, 0, 1)}
        for t in sorted(probes):
            assert sim.mid2x_at(t) == brute_force_mid2x(rows, t), t

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(0, 1000),
           block=st.integers(1, 64))
    def test_mid2x_at_after_spills_matches_the_whole_log(self, seed, horizon, block):
        written = QuoteRows()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernel, "SPILL_ROWS", block)
            sim, changes = self.random_session(seed, l1=written, horizon=horizon)
        kept = quote_rows(sim.quotes)
        assert written.rows and written.rows + kept == changes
        times = [ts for ts, _, _ in changes]
        assert len(kept) < max(block, 2 * (most_rows_within(times, horizon) + 1))
        start, first = sim.now - horizon, sim.quotes.ts[0]
        assert first <= max(start, 0)
        probes = {-1, 0, 99, start - 1, start, sim.now} | {t + d for t in times for d in (-1, 0, 1)}
        for t in sorted(probes):
            if t >= start or t < 0:  # the session starts at 0
                assert sim.mid2x_at(t) == brute_force_mid2x(changes, t), t
            elif t < first:
                with pytest.raises(ValueError):
                    sim.mid2x_at(t)

    def test_one_sided_rows_carry_the_last_mid(self):
        book = OrderBook()
        sim = Simulation(book)
        sim.place_limit(0, Side.BID, 99, 1)
        assert sim.mid2x_at(0) is None  # one-sided from the start
        sim.place_limit(0, Side.ASK, 101, 1)
        sim.now = 10
        sim.place_market(1, Side.BID, 1)
        assert quote_rows(sim.quotes)[-1] == (10, 99, None)
        assert sim.mid2x_at(10) == 200
        assert list(sim.quotes.mid2x) == [0, 0, 200, 200]

    def test_one_row_per_top_of_book_change(self):
        sim, changes = self.random_session(3)
        assert len(sim.quotes) == len(changes) > 100
        assert quote_rows(sim.quotes) == changes
        mids, mid = [], 0
        for _, bid, ask in changes:
            mid = bid + ask if bid is not None and ask is not None else mid
            mids.append(mid)
        assert sim.quotes.column("mid2x").tolist() == mids


class TestTradeTape:
    def test_rows_equal_the_book_trades(self):
        book = OrderBook()
        book.seed_linear(100, 5, 2)
        sim = Simulation(book)
        fills = []
        for step in range(40):
            sim.now = step
            fills += sim.place_market(step % 3, Side.BID if step % 2 else Side.ASK, 3).trades
        assert len(sim.trades) == len(fills) > 0
        assert all(type(fill) is tuple for fill in fills)
        assert tape_rows(sim.trades) == fills

    def test_run_stats_traded_qty_matches_tape(self):
        book = OrderBook()
        book.seed_linear(100, 10, 2)
        sim = Simulation(book)
        for aid in range(4):
            sim.register(CoinMarketAgent(aid, agent_stream(2, aid)))
        stats = sim.run_until(int(0.2e9))
        assert stats.n_trades == len(sim.trades) > 0
        assert stats.traded_qty == sim.trades.column("qty").sum() == book.traded_qty
