"""Brute-force reference matcher: a deliberately naive O(n^2) implementation.

Keeps every resting order in one flat list and rescans it for each fill, so it
shares no code or data structures with the production book. Implements the
same economics: price-time priority, skip-own-agent matching, market-order
remainder discard, and discard of limit remainders that could only cross the
submitting agent's own resting orders.

Also holds the row type the tests compare fills as, readers that turn the
simulator's column logs back into rows, ``most_rows_within``, which bounds
the quote rows a simulation that spills its log keeps, ``BlockRng``, the
array-block random facade that ``primesim.rng.BatchedRng`` must reproduce
value for value, ``darp_signs``, a per-sign DAR(p) loop that
``primesim.darp.generate_signs`` and the darp market agent must reproduce
sign for sign, and two estimators in their direct form: ``weighted_volume``,
one dot product per window, which ``primesim.impact.weighted_volume`` must
match bit for bit, and
``decay_regression``, a dense solve over the whole design, which the blocked
``primesim.impact.decay_regression`` must match to rounding. ``bucket_chunks``
merges colliding bucket cuts with ``np.unique``; ``primesim.impact`` must cut
the same chunks. ``time_averaged_mid`` and ``mid_series_at`` read the mid off
a quote log for the prime-mode acceptance criteria.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from primesim.book import Side
from primesim.darp import lag_distribution
from primesim.errors import NumericalError
from primesim.impact import DecayKernel, signed_power


class Fill(NamedTuple):
    """One fill in trade-tape column order; equal to the plain tuple the book emits."""

    ts: int
    price: int
    qty: int
    sign: int
    maker_order: int
    taker_agent: int


def tape_rows(tape) -> list[Fill]:
    """The rows of a ``TradeTape``, read off its columns."""
    return list(map(Fill, tape.ts, tape.price, tape.qty, tape.sign,
                    tape.maker_order, tape.taker_agent))


def quote_rows(log) -> list[tuple[int, int | None, int | None]]:
    """The ``(ts, bid, ask)`` rows of a ``QuoteLog``, None for an empty side."""
    return [(ts, bid or None, ask or None) for ts, bid, ask in zip(log.ts, log.bid, log.ask)]


def most_rows_within(ts, horizon: int) -> int:
    """The most rows of a sorted ``ts`` column that one window ``(t - horizon, t]`` holds."""
    ts = np.asarray(ts)
    return int((np.searchsorted(ts, ts, side="right")
                - np.searchsorted(ts, ts - horizon, side="right")).max())


class ReferenceBook:
    def __init__(self) -> None:
        self.resting: list[dict] = []   # {"id","agent","side","price","qty","ts","arrival"}
        self._arrival = 0
        self.seen_ids: set[int] = set()
        self.submitted_qty = 0
        self.traded_qty = 0
        self.cancelled_qty = 0
        self.discarded_qty = 0

    # helpers ---------------------------------------------------------------

    def _best_contra(self, side: Side, taker_agent: int, limit_price: int | None):
        """Most competitive opposite resting order the taker may hit."""
        best = None
        for o in self.resting:
            if o["side"] is side or o["agent"] == taker_agent:
                continue
            if limit_price is not None:
                if side is Side.BID and o["price"] > limit_price:
                    continue
                if side is Side.ASK and o["price"] < limit_price:
                    continue
            if best is None:
                best = o
                continue
            if side is Side.BID:  # taker buys: lowest ask first
                better = (o["price"] < best["price"]
                          or (o["price"] == best["price"] and o["arrival"] < best["arrival"]))
            else:
                better = (o["price"] > best["price"]
                          or (o["price"] == best["price"] and o["arrival"] < best["arrival"]))
            if better:
                best = o
        return best

    def _walk(self, taker_agent: int, side: Side, qty: int,
              limit_price: int | None, ts: int) -> tuple[list[Fill], int]:
        trades = []
        remaining = qty
        while remaining > 0:
            maker = self._best_contra(side, taker_agent, limit_price)
            if maker is None:
                break
            take = min(remaining, maker["qty"])
            maker["qty"] -= take
            remaining -= take
            self.traded_qty += take
            trades.append(Fill(ts=ts, price=maker["price"], qty=take, sign=side.value,
                               maker_order=maker["id"], taker_agent=taker_agent))
            if maker["qty"] == 0:
                self.resting.remove(maker)
        return trades, remaining

    # operations ------------------------------------------------------------

    def submit_limit(self, order_id: int, agent: int, side: Side,
                     price: int, qty: int, ts: int) -> list[Fill]:
        if qty <= 0 or price < 1 or order_id in self.seen_ids:
            raise ValueError("rejected")
        self.seen_ids.add(order_id)
        self.submitted_qty += qty
        trades, remaining = self._walk(agent, side, qty, price, ts)
        if remaining > 0:
            crosses_own = any(
                o["side"] is not side
                and (o["price"] <= price if side is Side.BID else o["price"] >= price)
                for o in self.resting
            )
            if crosses_own:
                self.discarded_qty += remaining
            else:
                self.resting.append({"id": order_id, "agent": agent, "side": side,
                                     "price": price, "qty": remaining, "ts": ts,
                                     "arrival": self._arrival})
                self._arrival += 1
        return trades

    def submit_market(self, agent: int, side: Side, qty: int, ts: int) -> list[Fill]:
        if qty <= 0:
            raise ValueError("rejected")
        self.submitted_qty += qty
        trades, remaining = self._walk(agent, side, qty, None, ts)
        self.discarded_qty += remaining
        return trades

    def cancel(self, order_id: int):
        for o in self.resting:
            if o["id"] == order_id:
                self.resting.remove(o)
                self.cancelled_qty += o["qty"]
                return o
        return None

    # views -----------------------------------------------------------------

    def best(self, side: Side) -> int | None:
        prices = [o["price"] for o in self.resting if o["side"] is side]
        if not prices:
            return None
        return max(prices) if side is Side.BID else min(prices)

    def l1(self) -> tuple[int | None, int | None]:
        return self.best(Side.BID), self.best(Side.ASK)

    def dump(self) -> dict:
        """Same shape as OrderBook.dump() for structural comparison."""
        out = {}
        for name, side in (("bids", Side.BID), ("asks", Side.ASK)):
            orders = [o for o in self.resting if o["side"] is side]
            prices = sorted({o["price"] for o in orders}, reverse=(side is Side.BID))
            out[name] = [
                (p, [(o["id"], o["agent"], o["qty"], o["ts"])
                     for o in sorted(orders, key=lambda o: o["arrival"]) if o["price"] == p])
                for p in prices
            ]
        return out


class BlockRng:
    """The scalar draw facade as plain array blocks: each block is drawn and held whole."""

    def __init__(self, generator: np.random.Generator, block: int = 512):
        self._gen = generator
        self._block = block
        self._random = np.empty(0)
        self._random_pos = 0
        self._int_buffers: dict[tuple[int, int], tuple[np.ndarray, int]] = {}
        self._exp_buffers: dict[float, tuple[np.ndarray, int]] = {}

    def random(self, size: int | None = None):
        if size is not None:
            return self._gen.random(size)
        if self._random_pos >= self._random.size:
            self._random = self._gen.random(self._block)
            self._random_pos = 0
        value = self._random[self._random_pos]
        self._random_pos += 1
        return float(value)

    def integers(self, low: int, high: int, size: int | None = None):
        if size is not None:
            return self._gen.integers(low, high, size=size)
        key = (low, high)
        buf, pos = self._int_buffers.get(key, (None, 0))
        if buf is None or pos >= buf.size:
            buf = self._gen.integers(low, high, size=self._block)
            pos = 0
        self._int_buffers[key] = (buf, pos + 1)
        return int(buf[pos])

    def exponential(self, scale: float) -> float:
        buf, pos = self._exp_buffers.get(scale, (None, 0))
        if buf is None or pos >= buf.size:
            buf = self._gen.exponential(scale, size=self._block)
            pos = 0
        self._exp_buffers[scale] = (buf, pos + 1)
        return float(buf[pos])


def darp_signs(params, blocks: int, block: int, rng: np.random.Generator) -> list[int]:
    """``blocks * block`` DAR(p) signs, one step at a time over a newest-first history.

    Draws n fair bits, then per block all lag uniforms and then all flip
    uniforms. A step takes the lag l with cum[l-2] <= u < cum[l-1] (the last
    lag if u reaches cum[-1]) and copies the sign l steps back unless flipped.
    """
    n = params.n
    cum = list(np.cumsum(lag_distribution(params.gamma, n)))
    history = [int(b) for b in reversed(rng.integers(0, 2, size=n))]
    signs = []
    for _ in range(blocks):
        lag_u = rng.random(block)
        flip_u = rng.random(block)
        for u, f in zip(lag_u, flip_u):
            parent = history[min(bisect_right(cum, u), n - 1)]
            copy = f < params.p
            if params.literal_branch:
                copy = not copy
            bit = parent if copy else 1 - parent
            history.insert(0, bit)
            del history[n:]
            signs.append(1 if bit else -1)
    return signs


def weighted_volume(gross, h: int, min_periods: int = 1) -> np.ndarray:
    """Weighted mean of the last h gross volumes before each window, one dot product each."""
    min_periods = max(1, min_periods)
    gross = np.asarray(gross, dtype=float)
    vol = np.full(len(gross), np.nan)
    for i in range(len(gross)):
        lo = max(0, i - h)
        n = i - lo
        if n < min_periods:
            continue
        w = np.arange(1, n + 1, dtype=float)
        v = float(np.dot(w, gross[lo:i]) / w.sum())
        if v > 0:
            vol[i] = v
    return vol


def decay_regression(samples, delta: float, max_lag: int) -> DecayKernel:
    """No-intercept OLS of y_t on sgn(q)|q|**delta at lags 0..max_lag over the whole design."""
    pos = samples.t - samples.t.min()
    span = int(pos.max()) + 1
    present = np.zeros(span, dtype=bool)
    x_all = np.zeros(span)
    y_all = np.zeros(span)
    present[pos] = True
    x_all[pos] = signed_power(samples.q, delta)
    y_all[pos] = samples.y
    window = max_lag + 1
    filled = np.concatenate([[0], np.cumsum(present)])
    rows = np.flatnonzero(filled[window:] - filled[:-window] == window) + max_lag
    design = x_all[rows[:, None] - np.arange(window)]
    target = y_all[rows]
    gram = design.T @ design
    cond = float(np.linalg.cond(gram))
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericalError(f"decay regression design is rank-deficient (cond={cond:.3g})")
    gram_inv = np.linalg.inv(gram)
    beta = gram_inv @ (design.T @ target)
    resid = target - design @ beta
    sigma2 = float(np.dot(resid, resid)) / max(1, len(rows) - window)
    return DecayKernel(beta=beta, cumulative=np.cumsum(beta),
                       stderr=np.sqrt(sigma2 * np.diag(gram_inv)), n_rows=len(rows), cond=cond)


def bucket_chunks(q: np.ndarray, q_net: np.ndarray, n_buckets: int) -> list[np.ndarray]:
    """Sample indices of each bucket: equal-count cuts moved past ties, merged by np.unique."""
    order = np.argsort(q, kind="stable")
    tie_key = q_net[order]
    allowed = np.flatnonzero(tie_key[1:] != tie_key[:-1]) + 1
    size, extra = divmod(len(q), n_buckets)
    cuts = np.arange(1, n_buckets) * size + np.minimum(np.arange(1, n_buckets), extra)
    moved = np.searchsorted(allowed, cuts)
    return np.split(order, np.unique(allowed[moved[moved < allowed.size]]))


def time_averaged_mid(quotes, t_from: int, t_to: int) -> float:
    """Time-weighted average mid over [t_from, t_to], carrying quotes forward."""
    if t_to <= t_from:
        raise ValueError("empty averaging interval")
    ts, mid2x = quotes.column("ts"), quotes.column("mid2x")
    first = int(np.searchsorted(ts, t_from, side="right"))  # row first - 1 holds at t_from
    stop = int(np.searchsorted(ts, t_to, side="left"))
    if first == 0 or mid2x[first - 1] == 0:
        raise ValueError("no mid defined over the full interval")
    held = np.diff(np.concatenate([[t_from], ts[first:stop], [t_to]]))
    return float(np.dot(mid2x[first - 1:stop] / 2.0, held)) / (t_to - t_from)


def mid_series_at(quotes, times: np.ndarray) -> np.ndarray:
    """Mid (in ticks, possibly half-integral) carried forward to each time; NaN before quotes."""
    mid2x = quotes.mid2x_at(times)
    return np.where(mid2x > 0, mid2x / 2.0, np.nan)
