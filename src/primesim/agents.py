"""The agent policies wired into the event loop.

Five wakeup behaviours over (book view, oracle, own rng, own state):

* ZiLimitAgent   - zero-intelligence limit orders; valuation drawn either from
                   a fixed price band (santa_fe mode) or around the prevailing
                   mid (prime mode). Buys strictly below the mid, sells at or
                   above it, cancels its own oldest order with probability
                   p_cancel.
* ZiMarketAgent  - unit market orders, side by fair coin.
* DarpMarketAgent- market orders whose signs follow the DAR(p) process.
* PrimeMarketAgent - market orders sided by a noisy oracle observation vs the
                   mid, producing buy/sell arrival asymmetry proportional to
                   mispricing.
* TechnicalAgent - trend-following or mean-reverting market orders off the
                   mid change over a lookback horizon.

Each agent reads its parameters from its validated config group
(``primesim.config.ZiLimitGroup``, ``ZiMarketGroup`` or ``TechnicalGroup``).
"""

from __future__ import annotations

import numpy as np

from .book import ASK, BID
from .config import TechnicalGroup, ZiLimitGroup, ZiMarketGroup
from .darp import DarpParams, generate_signs
from .kernel import next_poisson_wakeup
from .oracle import observe
from .rng import BLOCK, BatchedRng


class Agent:
    """Self-clocking Poisson agent; subclasses implement wakeup(sim)."""

    __slots__ = ("agent_id", "group", "wake_rate", "rng")

    def __init__(self, agent_id: int, group: ZiLimitGroup | ZiMarketGroup | TechnicalGroup,
                 rng: BatchedRng):
        self.agent_id = agent_id
        self.group = group
        self.wake_rate = group.wake_rate
        self.rng = rng

    def next_wakeup_delay(self) -> int:
        return next_poisson_wakeup(self.wake_rate, self.rng)

    def wakeup(self, sim) -> None:
        raise NotImplementedError


class ZiLimitAgent(Agent):
    __slots__ = ("_live",)

    def __init__(self, agent_id: int, group: ZiLimitGroup, rng: BatchedRng):
        super().__init__(agent_id, group, rng)
        self._live: list[int] = []  # own order ids, oldest first

    def wakeup(self, sim) -> None:
        if self.rng.random() < self.group.p_cancel:
            self._cancel_oldest(sim)
            return
        mid2x = sim.book.mid2x
        if mid2x is None:
            return  # side branch is undecidable on a one-sided book
        v = self._valuation(mid2x)
        side = BID if 2 * v < mid2x else ASK
        oid = sim.place_limit(self.agent_id, side, v, self.group.size)
        self._live.append(oid)

    def _valuation(self, mid2x: int) -> int:
        p = self.group
        if p.mode == "santa_fe":
            return int(self.rng.integers(p.band_low, p.band_high + 1))
        # prime: centre on the mid rounded half-to-even (rounding half up would
        # bias the whole book upward); the zero offset is excluded so the
        # buy/sell branch is always strict
        center = mid2x // 2
        if mid2x % 2 and center % 2:
            center += 1
        u = int(self.rng.integers(1, 2 * p.half_width + 1))
        offset = u - p.half_width - 1
        if offset >= 0:
            offset += 1
        return max(1, center + offset)

    def _cancel_oldest(self, sim) -> None:
        # ids of orders that were filled meanwhile are stale; drop until a
        # live one cancels or none remain. The list holds tens of ids at most,
        # so pop(0) is cheap, and it is smaller than a deque's 528-byte block
        while self._live:
            if sim.cancel(self._live.pop(0)) is not None:
                return


class ZiMarketAgent(Agent):
    """Market agent on a santa_fe-mode ZiMarketGroup: side by fair coin."""

    __slots__ = ()

    def wakeup(self, sim) -> None:
        side = BID if self.rng.random() <= 0.5 else ASK
        sim.place_market(self.agent_id, side, self.group.size)


class DarpMarketAgent(Agent):
    """Market agent on a darp-mode ZiMarketGroup: signs carry DAR(p) long memory.

    Signs come from ``generate_signs`` ``BLOCK`` at a time, each block
    continuing from the last n signs of the one before.
    """

    __slots__ = ("params", "history", "_pending")

    def __init__(self, agent_id: int, group: ZiMarketGroup, rng: BatchedRng):
        super().__init__(agent_id, group, rng)
        self.params = DarpParams(p=group.darp_p, gamma=group.darp_gamma, n=group.darp_n,
                                 literal_branch=group.darp_literal_branch)
        self.history = rng.integers(0, 2, size=self.params.n) * 2 - 1  # oldest first
        self._pending: list[int] = []  # signs not yet used, next one last

    def wakeup(self, sim) -> None:
        if not self._pending:
            block = generate_signs(self.params, BLOCK, self.rng, self.history)
            # darp_n may exceed BLOCK, so the history is cut from both
            self.history = np.concatenate((self.history, block))[-self.params.n:]
            self._pending = block[::-1].tolist()
        sim.place_market(self.agent_id, self._pending.pop(), self.group.size)


class PrimeMarketAgent(Agent):
    """Fundamental agent on a prime-mode ZiMarketGroup: buys when the observed
    true price exceeds the mid."""

    __slots__ = ()

    def wakeup(self, sim) -> None:
        observed = observe(sim.series, sim.now, self.group.noise, self.rng)
        mid2x = sim.book.mid2x
        if mid2x is None:
            buy = self.rng.random() <= 0.5
        elif 2 * observed > mid2x:
            buy = True
        elif 2 * observed < mid2x:
            buy = False
        else:
            buy = self.rng.random() <= 0.5
        sim.place_market(self.agent_id, BID if buy else ASK, self.group.size)


class TechnicalAgent(Agent):
    """Market agent of a TechnicalGroup: ``sign`` +1 follows the mid's move (trend),
    -1 trades against it (mean_revert)."""

    __slots__ = ("sign",)

    def __init__(self, agent_id: int, group: TechnicalGroup, rng: BatchedRng, sign: int):
        super().__init__(agent_id, group, rng)
        self.sign = sign

    def wakeup(self, sim) -> None:
        now_mid = sim.mid2x_at(sim.now)
        past_mid = sim.mid2x_at(sim.now - self.group.lookback_ns)
        if now_mid is None or past_mid is None:
            return  # not enough mid history to span the lookback
        delta2x = now_mid - past_mid
        if abs(delta2x) > 2 * self.group.threshold:  # beyond the dead zone
            side = self.sign if delta2x > 0 else -self.sign
            sim.place_market(self.agent_id, side, self.group.size)
