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

# Owner of liquidity created by seed_linear(); never used by a real agent.
SEEDER_AGENT = -1

# Order sides are their signs: +1 buying and -1 selling interest, so -side is the other.
BID = 1
ASK = -1


@dataclass(eq=False, slots=True)
class LimitOrder:
    id: int
    agent: int
    side: int
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
_Ladder = namedtuple("_Ladder", "levels keys sign")


class OrderBook:
    """FIFO price levels on both sides, matched in price-time priority.

    An incoming order never trades against the same agent's resting orders:
    they are skipped in the priority walk. If a crossing limit remainder would
    have to rest through the agent's own opposite quote (the only orders that
    can still be in the way after matching), the remainder is discarded so the
    book is never left crossed.

    The book numbers limit orders itself, 1, 2, 3, ... in the order they are
    accepted, so a retired (filled or cancelled) order leaves no state behind
    and memory is O(1) per order over a session of any length.
    """

    def __init__(self) -> None:
        self._bids = _Ladder({}, [], -1)  # keys -price: the highest bid first
        self._asks = _Ladder({}, [], 1)   # keys +price: the lowest ask first
        self._by_id: dict[int, LimitOrder] = {}
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

    # ------------------------------------------------------------- operations

    def submit_limit(self, agent: int, side: int, price: int, qty: int,
                     ts: int = 0) -> tuple[int, list[tuple[int, ...]]]:
        """Match a limit order against the opposite side; rest any remainder.

        Returns the order's id, the next of 1, 2, 3, ..., and its fills in
        execution order. Non-positive quantities and off-grid prices are
        rejected before an id is taken.
        """
        if qty <= 0:
            raise ValueError(f"limit order qty must be positive, got {qty}")
        if price < 1:
            raise ValueError(f"price must be a positive tick, got {price}")
        oid = self._next_id
        self._next_id = oid + 1
        self.submitted_qty += qty
        trades, remaining, crosses_own = self._match(agent, side, qty, price, ts)
        if crosses_own:
            self.discarded_qty += remaining
        elif remaining:
            self._rest(LimitOrder(oid, agent, side, price, remaining, ts))
        return oid, trades

    def submit_market(self, agent: int, side: int, qty: int, ts: int = 0) -> MarketResult:
        """Walk the opposite side; any unfilled remainder is discarded."""
        if qty <= 0:
            raise ValueError(f"market order qty must be positive, got {qty}")
        self.submitted_qty += qty
        trades, remaining, _ = self._match(agent, side, qty, None, ts)
        self.discarded_qty += remaining
        return MarketResult(trades=trades, remainder=remaining)

    def cancel(self, order_id: int) -> LimitOrder | None:
        """Remove a resting order. Unknown or already-filled ids return None."""
        order = self._by_id.pop(order_id, None)
        if order is None:
            return None
        levels, keys, sign = self._bids if order.side > 0 else self._asks
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
            for side in (BID, ASK):
                self.submit_limit(SEEDER_AGENT, side, start_price - side * d, slope * d, ts)

    # --------------------------------------------------------------- internals

    def _rest(self, order: LimitOrder) -> None:
        levels, keys, sign = self._bids if order.side > 0 else self._asks
        level = levels.get(order.price)
        if level is None:
            levels[order.price] = [order]
            insort(keys, sign * order.price)
        else:
            level.append(order)
        self._by_id[order.id] = order

    def _match(
        self, taker_agent: int, side: int, qty: int, limit_price: int | None, ts: int,
    ) -> tuple[list[tuple[int, ...]], int, bool]:
        """Consume the opposite side in price-time priority, skipping own orders.

        Each fill is one trade-tape row, ``(ts, price, qty, sign, maker_order,
        taker_agent)``, where ``sign`` is the aggressor's (+1 buy, -1 sell).
        Returns the fills, the unfilled quantity, and whether a remainder
        resting at ``limit_price`` would cross the taker's own orders: the walk
        steps past a crossing level only when just those are left on it.
        """
        levels, keys, sign = self._asks if side > 0 else self._bids
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
        return trades, remaining, ki > 0
