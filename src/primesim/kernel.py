"""Deterministic discrete-event loop: time-ordered agent wakeups over one book.

Simulation time is integer nanoseconds. Events are totally ordered by
(time, seq) where seq is the schedule-order tie-breaker, so a run is a pure
function of (configuration, master seed). Each agent owns an independent
random stream derived from the master seed and its id.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .book import LimitOrder, MarketResult, OrderBook
from .tradeio import L1Writer, QuoteLog, TradeTape

# Stream namespaces under the master seed.
_AGENT_SPACE = 1
_ORACLE_SPACE = 2

# Quote rows held before a simulation with an L1 writer first spills its log.
SPILL_ROWS = 1 << 12


@dataclass(frozen=True)
class RunStats:
    events_dispatched: int
    n_trades: int
    traded_qty: int


def agent_stream(master_seed: int, agent_id: int) -> np.random.Generator:
    """Independent per-agent generator, a pure function of (master_seed, agent_id)."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, _AGENT_SPACE, agent_id)))


def oracle_stream(master_seed: int) -> np.random.Generator:
    """Generator for oracle path construction, independent of all agent streams."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, _ORACLE_SPACE)))


def next_poisson_wakeup(rate: float, rng: np.random.Generator) -> int:
    """Exponential inter-arrival gap in ns for a Poisson process at `rate` events/s."""
    if rate <= 0:
        raise ValueError(f"arrival rate must be positive, got {rate}")
    return max(1, round(rng.exponential(1.0 / rate) * 1e9))


class Simulation:
    """Single-threaded event loop owning the book, the tape, and the quote log.

    Agents are duck-typed: they expose agent_id, wakeup(sim), and
    next_wakeup_delay(). During wakeup they act through place_limit /
    place_market / cancel and read the book and the views below. After each
    wakeup the kernel reschedules the agent (self-clocking arrivals).

    Fills go to ``trades``, a ``TradeTape`` unless a ``TradeWriter`` is given.
    With an ``l1`` writer, at ``SPILL_ROWS`` quote rows and each time the log
    doubles, rows before the one in force at now - horizon go to it and are dropped.
    """

    def __init__(self, book: OrderBook, series=None, trades=None, l1: L1Writer | None = None,
                 horizon: int = 0):
        self.book = book
        self.series = series  # the oracle's PriceSeries, or None without an oracle
        self.now = 0
        self._heap: list[tuple[int, int, int]] = []  # (time, seq, agent_id)
        self._next_seq = 0
        self._agents: dict[int, object] = {}
        self.trades = TradeTape() if trades is None else trades
        self.quotes = QuoteLog()  # one row per change of (best bid, best ask)
        self.horizon = horizon
        self._l1 = l1
        self._spill_at = float("inf") if l1 is None else SPILL_ROWS
        self._last_quote: tuple[int | None, int | None] | None = None
        self.events_dispatched = 0
        self.log_quote()

    # ----------------------------------------------------------- scheduling

    def schedule_wakeup(self, agent_id: int, time: int) -> None:
        if time < self.now:
            raise ValueError(f"cannot schedule event at {time} before now={self.now}")
        seq = self._next_seq
        self._next_seq += 1
        heapq.heappush(self._heap, (time, seq, agent_id))

    def register(self, agent) -> None:
        """Add an agent and schedule its first wakeup one inter-arrival gap out."""
        if agent.agent_id in self._agents:
            raise ValueError(f"duplicate agent id {agent.agent_id}")
        if agent.agent_id < 0:
            raise ValueError("agent ids must be >= 0")
        self._agents[agent.agent_id] = agent
        self.schedule_wakeup(agent.agent_id, self.now + agent.next_wakeup_delay())

    def run_until(self, end: int) -> RunStats:
        """Dispatch events in (time, seq) order through the horizon ``end``, inclusive."""
        if end < self.now:
            raise ValueError(f"cannot run until {end}, before now={self.now}")
        heap = self._heap
        agents = self._agents
        now = self.now
        dispatched = 0
        while heap and heap[0][0] <= end:
            time, _, agent_id = heapq.heappop(heap)
            assert time >= now, "event dispatched out of order"
            now = self.now = time
            dispatched += 1
            agent = agents[agent_id]
            agent.wakeup(self)
            delay = agent.next_wakeup_delay()
            seq = self._next_seq
            self._next_seq += 1
            heapq.heappush(heap, (time + delay, seq, agent_id))
        self.events_dispatched += dispatched
        self.now = end
        return RunStats(
            events_dispatched=self.events_dispatched,
            n_trades=len(self.trades),
            traded_qty=self.book.traded_qty,
        )

    # -------------------------------------------------------------- actions

    def place_limit(self, agent_id: int, side: int, price: int, qty: int) -> int:
        order_id, trades = self.book.submit_limit(agent_id, side, price, qty, self.now)
        self._record(trades)
        return order_id

    def place_market(self, agent_id: int, side: int, qty: int) -> MarketResult:
        result = self.book.submit_market(agent_id, side, qty, ts=self.now)
        self._record(result.trades)
        return result

    def cancel(self, order_id: int) -> LimitOrder | None:
        order = self.book.cancel(order_id)
        if order is not None:
            self.log_quote()
        return order

    # ---------------------------------------------------------------- views

    def mid2x_at(self, t: int) -> int | None:
        """Last two-sided mid (x2) at or before t; None before there is one.

        Exact for t >= now - horizon; ValueError if the quote rows for t were dropped.
        """
        if t < 0:
            return None
        i = bisect_right(self.quotes.ts, t) - 1
        if i < 0:
            raise ValueError(f"quote rows at or before {t} were written out and dropped")
        return self.quotes.mid2x[i] or None

    # ------------------------------------------------------------- recording

    def _record(self, trades: list[tuple[int, ...]]) -> None:
        self.trades.extend(trades)
        self.log_quote()

    def log_quote(self) -> None:
        """Append an L1 row if the top of book moved since the last row."""
        quote = (self.book.best_bid, self.book.best_ask)
        if quote == self._last_quote:
            return
        self._last_quote = quote
        quotes = self.quotes
        quotes.append(self.now, quote[0], quote[1])
        if len(quotes) >= self._spill_at:
            n = bisect_right(quotes.ts, self.now - self.horizon) - 1  # the row in force
            if n > 0:
                self._l1.write(quotes, n)
                for column in (quotes.ts, quotes.bid, quotes.ask, quotes.mid2x):
                    del column[:n]
            self._spill_at = max(SPILL_ROWS, 2 * len(quotes))
