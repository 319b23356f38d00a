"""Price-time-priority limit order book: the continuous double auction core.

All prices live on an integer tick grid (tick size = 1) and all quantities are
integer units, so book arithmetic is exact. The mid-price is carried as
``mid2x = best_bid + best_ask`` (twice the mid) to keep half-ticks integral.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

# Owner of liquidity created by seed_linear(); never used by a real agent.
SEEDER_AGENT = -1


class Side(Enum):
    """Order direction; the value is its sign, +1 buying and -1 selling interest."""

    BID = 1
    ASK = -1

    @property
    def opposite(self) -> "Side":
        return Side.ASK if self is Side.BID else Side.BID


@dataclass(eq=False, slots=True)
class LimitOrder:
    id: int
    agent: int
    side: Side
    price: int
    qty: int
    ts: int = 0


@dataclass(frozen=True)
class MarketResult:
    """Outcome of a market order: its fills plus the discarded remainder."""

    trades: list[tuple[int, ...]]
    remainder: int


# One side of the book: FIFO levels by price, and their keys sign * price in ascending
# order, so the best level comes first. Bids have sign -1 and asks +1, which is also
# the trade sign of a taker that takes the side.
_BookSide = namedtuple("_BookSide", "levels keys sign")


class OrderBook:
    """FIFO price levels on both sides, matched in price-time priority.

    An incoming order never trades against the same agent's resting orders:
    they are skipped in the priority walk. If a crossing limit remainder would
    have to rest through the agent's own opposite quote (the only orders that
    can still be in the way after matching), the remainder is discarded so the
    book is never left crossed.

    Limit order ids must be strictly increasing: an id at or below the last
    accepted one is rejected. Uniqueness then needs only that one id, so a
    retired (filled or cancelled) order leaves no state behind and memory is
    O(1) per order over a session of any length.
    """

    def __init__(self) -> None:
        self._bids = _BookSide({}, [], -1)  # keys -price: the highest bid first
        self._asks = _BookSide({}, [], 1)   # keys +price: the lowest ask first
        self._by_id: dict[int, LimitOrder] = {}
        self._last_id = 0  # highest accepted order id; the next must exceed it
        self._next_id = 1
        # conservation counters (units)
        self.submitted_qty = 0
        self.traded_qty = 0
        self.cancelled_qty = 0
        self.discarded_qty = 0

    # ------------------------------------------------------------------ views

    @property
    def best_bid(self) -> int | None:
        keys = self._bids.keys
        return -keys[0] if keys else None

    @property
    def best_ask(self) -> int | None:
        keys = self._asks.keys
        return keys[0] if keys else None

    @property
    def crossed(self) -> bool:
        bids, asks = self._bids.keys, self._asks.keys
        return bool(bids and asks) and asks[0] + bids[0] <= 0

    @property
    def mid2x(self) -> int | None:
        """best_bid + best_ask (twice the mid), or None while either side is empty."""
        bids, asks = self._bids.keys, self._asks.keys
        return asks[0] - bids[0] if bids and asks else None

    def resting_qty(self) -> int:
        return sum(o.qty for o in self._by_id.values())

    def __len__(self) -> int:
        return len(self._by_id)

    def dump(self) -> dict[str, list[tuple[int, list[tuple[int, int, int, int]]]]]:
        """Value copy of the whole book, best price first: (id, agent, qty, ts) per order."""
        return {name: [(sign * key, [(o.id, o.agent, o.qty, o.ts) for o in levels[sign * key]])
                       for key in keys]
                for name, (levels, keys, sign) in (("bids", self._bids), ("asks", self._asks))}

    def new_order_id(self) -> int:
        """Allocate a session-unique order id above every id issued or accepted."""
        oid = self._next_id
        if oid <= self._last_id:
            oid = self._last_id + 1
        self._next_id = oid + 1
        return oid

    # ------------------------------------------------------------- operations

    def submit_limit(self, order: LimitOrder) -> list[tuple[int, ...]]:
        """Match a limit order against the opposite side; rest any remainder.

        Returns the fills in execution order. Rejects non-positive quantities,
        off-grid prices, and ids that do not exceed the last accepted id (which
        covers every duplicate).
        """
        if order.qty <= 0:
            raise ValueError(f"limit order qty must be positive, got {order.qty}")
        if order.price < 1:
            raise ValueError(f"price must be a positive tick, got {order.price}")
        if order.id <= self._last_id:
            raise ValueError(f"duplicate or out-of-order order id {order.id}: "
                             f"ids must exceed the last accepted id {self._last_id}")
        self._last_id = order.id
        self.submitted_qty += order.qty

        trades, remaining = self._match(order.agent, order.side, order.qty, order.price, order.ts)
        if remaining > 0:
            if self._would_cross_own(order.side, order.price):
                self.discarded_qty += remaining
            else:
                order.qty = remaining
                self._rest(order)
        return trades

    def submit_market(self, agent: int, side: Side, qty: int, ts: int = 0) -> MarketResult:
        """Walk the opposite side; any unfilled remainder is discarded."""
        if qty <= 0:
            raise ValueError(f"market order qty must be positive, got {qty}")
        self.submitted_qty += qty
        trades, remaining = self._match(agent, side, qty, None, ts)
        self.discarded_qty += remaining
        return MarketResult(trades=trades, remainder=remaining)

    def cancel(self, order_id: int) -> LimitOrder | None:
        """Remove a resting order. Unknown or already-filled ids return None."""
        order = self._by_id.pop(order_id, None)
        if order is None:
            return None
        levels, keys, sign = self._bids if order.side is Side.BID else self._asks
        queue = levels[order.price]
        queue.remove(order)
        if not queue:
            del levels[order.price]
            keys.remove(sign * order.price)
        self.cancelled_qty += order.qty
        return order

    def seed_linear(self, start_price: int, half_width: int, slope: int, ts: int = 0) -> None:
        """Populate an empty book with linearly deepening quotes around a price.

        Level d away from start_price rests slope*d units, for d = 1..half_width,
        owned by the reserved seeder agent.
        """
        if self._by_id:
            raise ValueError("seed_linear requires an empty book")
        if half_width < 1 or slope < 1:
            raise ValueError("half_width and slope must be >= 1")
        if start_price - half_width < 1:
            raise ValueError("seeded bid prices would leave the tick grid")
        for d in range(1, half_width + 1):
            for side, price in ((Side.BID, start_price - d), (Side.ASK, start_price + d)):
                self.submit_limit(LimitOrder(
                    id=self.new_order_id(), agent=SEEDER_AGENT,
                    side=side, price=price, qty=slope * d, ts=ts,
                ))

    # --------------------------------------------------------------- internals

    def _rest(self, order: LimitOrder) -> None:
        levels, keys, sign = self._bids if order.side is Side.BID else self._asks
        level = levels.get(order.price)
        if level is None:
            levels[order.price] = [order]
            insort(keys, sign * order.price)
        else:
            level.append(order)
        self._by_id[order.id] = order

    def _would_cross_own(self, side: Side, price: int) -> bool:
        _, keys, sign = self._asks if side is Side.BID else self._bids
        return bool(keys) and keys[0] <= sign * price

    def _match(
        self, taker_agent: int, side: Side, qty: int, limit_price: int | None, ts: int,
    ) -> tuple[list[tuple[int, ...]], int]:
        """Consume the opposite side in price-time priority, skipping own orders.

        Each fill is one trade-tape row, ``(ts, price, qty, sign, maker_order,
        taker_agent)``, where ``sign`` is the aggressor's (+1 buy, -1 sell).
        """
        levels, keys, sign = self._asks if side is Side.BID else self._bids
        bound = math.inf if limit_price is None else sign * limit_price  # the worst key to take
        by_id = self._by_id
        trades: list[tuple[int, ...]] = []
        remaining = qty
        ki = 0
        while remaining > 0 and ki < len(keys) and keys[ki] <= bound:
            price = sign * keys[ki]
            queue = levels[price]
            i = 0
            while i < len(queue) and remaining > 0:
                maker = queue[i]
                if maker.agent == taker_agent:
                    i += 1
                    continue
                take = maker.qty if maker.qty < remaining else remaining
                maker.qty -= take
                remaining -= take
                self.traded_qty += take
                trades.append((ts, price, take, sign, maker.id, taker_agent))
                if maker.qty == 0:
                    del queue[i]
                    del by_id[maker.id]
            if queue:
                ki += 1  # leftovers here are the taker's own orders; step past the level
            else:
                del levels[price]
                del keys[ki]
        return trades, remaining
