"""Deterministic discrete-event loop: time-ordered agent wakeups over one book.

Simulation time is integer nanoseconds. Events are totally ordered by
(time, seq) where seq is the schedule-order tie-breaker, so a run is a pure
function of (configuration, master seed). Each agent owns an independent
random stream derived from the master seed and its id.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .book import LimitOrder, MarketResult, OrderBook, Side

# Stream namespaces under the master seed.
_AGENT_SPACE = 1
_ORACLE_SPACE = 2

# Session-end sorts after same-instant wakeups so a horizon of 10*dt yields 10 wakeups.
_SESSION_END_SEQ = 2**62


@dataclass(frozen=True)
class RunStats:
    events_dispatched: int
    n_trades: int
    traded_qty: int


class _ColumnLog:
    """Append-only int64 columns, one ``array('q')`` attribute per name.

    Subclasses name their columns (the first is ``ts``) and ``extend`` them
    from rows; the log is read by column, never by row.
    """

    _columns: tuple[str, ...] = ()

    def __init__(self, rows: Iterable = ()) -> None:
        for name in self._columns:
            setattr(self, name, array("q"))
        self.extend(rows)

    def __len__(self) -> int:
        return len(self.ts)

    @classmethod
    def from_columns(cls, **columns: array):
        """A log over whole ``array('q')`` columns of equal length, taken as they are."""
        if set(columns) != set(cls._columns) or len({len(c) for c in columns.values()}) > 1:
            raise ValueError(f"need equal-length columns {cls._columns}")
        log = cls()
        for name, column in columns.items():
            setattr(log, name, column)
        return log

    def column(self, name: str) -> np.ndarray:
        """One column as an int64 numpy view of the log's own memory (no copy)."""
        return np.frombuffer(getattr(self, name), dtype=np.int64)


class TradeTape(_ColumnLog):
    """The trade tape as columns; a row is one fill as ``OrderBook`` emits it.

    ``sign`` is the aggressor's side sign (+1 buy, -1 sell).
    """

    _columns = ("ts", "price", "qty", "sign", "maker_order", "taker_agent")

    def extend(self, fills: Iterable[tuple[int, ...]]) -> None:
        for ts, price, qty, sign, maker_order, taker_agent in fills:
            self.ts.append(ts)
            self.price.append(price)
            self.qty.append(qty)
            self.sign.append(sign)
            self.maker_order.append(maker_order)
            self.taker_agent.append(taker_agent)


class QuoteLog(_ColumnLog):
    """Top-of-book changes as columns ``ts, bid, ask, mid2x``.

    Rows are appended as ``(ts, bid, ask)`` with None for an empty side. Prices
    are ticks >= 1, so 0 marks an empty side in the columns. ``mid2x``
    carries the last two-sided mid (x2) forward and is 0 before there is one.
    """

    _columns = ("ts", "bid", "ask", "mid2x")

    def append(self, ts: int, bid: int | None, ask: int | None) -> None:
        mids = self.mid2x
        self.ts.append(ts)
        self.bid.append(bid or 0)
        self.ask.append(ask or 0)
        if bid is not None and ask is not None:
            mids.append(bid + ask)
        else:
            mids.append(mids[-1] if mids else 0)

    def extend(self, rows: Iterable[tuple[int, int | None, int | None]]) -> None:
        for ts, bid, ask in rows:
            self.append(ts, bid, ask)

    def mid2x_at(self, times) -> np.ndarray:
        """``mid2x`` of the last row at or before each time; 0 where there is no mid yet.

        Rows must be sorted by ``ts``.
        """
        rows = np.searchsorted(self.column("ts"), times, side="right")
        return np.concatenate(([0], self.column("mid2x")))[rows]


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
    """

    def __init__(self, book: OrderBook, series=None, start: int = 0):
        self.book = book
        self.series = series  # the oracle's PriceSeries, or None without an oracle
        self.now = start
        # heap of (time, seq, agent_id); agent -1 marks session end
        self._heap: list[tuple[int, int, int]] = []
        self._next_seq = 0
        self._agents: dict[int, object] = {}
        self.trades = TradeTape()
        self.quotes = QuoteLog()  # one row per change of (best bid, best ask)
        self._last_quote: tuple[int | None, int | None] | None = None
        self.events_dispatched = 0
        self.log_quote()

    # ----------------------------------------------------------- scheduling

    def schedule_wakeup(self, agent_id: int, time: int) -> None:
        if time < self.now:
            raise ValueError(f"cannot schedule event at {time} before now={self.now}")
        seq = self._next_seq
        self._next_seq += 1
        assert seq < _SESSION_END_SEQ
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
        """Dispatch events in (time, seq) order through the session horizon."""
        if end < self.now:
            raise ValueError(f"cannot run until {end}, before now={self.now}")
        heapq.heappush(self._heap, (end, _SESSION_END_SEQ, -1))
        heap = self._heap
        agents = self._agents
        now = self.now
        dispatched = 0
        while heap:
            time, _, agent_id = heapq.heappop(heap)
            assert time >= now, "event dispatched out of order"
            now = self.now = time
            if agent_id < 0:
                break
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

    def place_limit(self, agent_id: int, side: Side, price: int, qty: int) -> int:
        order = LimitOrder(id=self.book.new_order_id(), agent=agent_id,
                           side=side, price=price, qty=qty, ts=self.now)
        trades = self.book.submit_limit(order)
        self._record(trades)
        return order.id

    def place_market(self, agent_id: int, side: Side, qty: int) -> MarketResult:
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
        """Last two-sided mid (x2) at or before t; None before there is one."""
        if t < 0:
            return None
        i = bisect_right(self.quotes.ts, t) - 1
        if i < 0:
            return None
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
        self.quotes.append(self.now, quote[0], quote[1])
