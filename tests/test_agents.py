"""Agent policies against a scripted stub simulation, plus ecology-level checks."""

import numpy as np
import pytest

from primesim.agents import (
    PrimeMarketAgent,
    TechnicalAgent,
    ZiLimitAgent,
    ZiMarketAgent,
    DarpMarketAgent,
)
from primesim.book import LimitOrder, OrderBook, Side
from primesim.config import TechnicalGroup, ZiLimitGroup, ZiMarketGroup
from primesim.errors import ConfigError
from primesim.darp import DarpParams, generate_signs, lag_distribution
from primesim.impact import order_sign_acf
from primesim.oracle import constant_series
from primesim.rng import BLOCK, BatchedRng

from reference import darp_signs


class StubSim:
    """Recording stand-in for the event-loop facade over a book quoting one
    unit at each given best price."""

    def __init__(self, best_bid=None, best_ask=None, series=None, now=0, mid_history=None):
        self.now = now
        self.book = OrderBook()
        for side, price in ((Side.BID, best_bid), (Side.ASK, best_ask)):
            if price is not None:
                self.book.submit_limit(LimitOrder(id=self.book.new_order_id(), agent=-1,
                                                  side=side, price=price, qty=1))
        self.series = series
        self.mid_history = mid_history or {}
        self.placed_limits = []
        self.placed_markets = []
        self.cancelled = []
        self.live_orders = set()
        self._next_id = 1

    def place_limit(self, agent_id, side, price, qty):
        oid = self._next_id
        self._next_id += 1
        self.placed_limits.append((side, price, qty))
        self.live_orders.add(oid)
        return oid

    def place_market(self, agent_id, side, qty):
        self.placed_markets.append((side, qty))

    def cancel(self, order_id):
        if order_id in self.live_orders:
            self.live_orders.discard(order_id)
            self.cancelled.append(order_id)
            return order_id
        return None

    def mid2x_at(self, t):
        keys = [k for k in self.mid_history if k <= t]
        return self.mid_history[max(keys)] if keys else None


class ScriptedRng:
    """Returns queued values for random()/integers() calls."""

    def __init__(self, randoms=(), integers=()):
        self._randoms = list(randoms)
        self._integers = list(integers)

    def random(self):
        return self._randoms.pop(0)

    def integers(self, *args, **kwargs):
        return self._integers.pop(0)


class TestZiLimit:
    def test_cancel_branch_removes_oldest(self):
        sim = StubSim(best_bid=49, best_ask=52)
        agent = ZiLimitAgent(3, ZiLimitGroup(count=1, wake_rate=1.0, p_cancel=0.0),
                             np.random.default_rng(0))
        agent.rng = ScriptedRng(randoms=[0.9, 0.9], integers=[30, 70])
        agent.group = ZiLimitGroup(count=1, wake_rate=1.0, p_cancel=0.0)
        agent.wakeup(sim)
        agent.wakeup(sim)
        assert len(sim.placed_limits) == 2
        agent.group = ZiLimitGroup(count=1, wake_rate=1.0, p_cancel=1.0)
        agent.rng = ScriptedRng(randoms=[0.0])
        agent.wakeup(sim)
        assert sim.cancelled == [1]  # oldest first

    def test_cancel_with_no_orders_is_noop(self):
        sim = StubSim(best_bid=49, best_ask=52)
        agent = ZiLimitAgent(3, ZiLimitGroup(count=1, wake_rate=1.0, p_cancel=1.0),
                             ScriptedRng(randoms=[0.0]))
        agent.wakeup(sim)
        assert sim.cancelled == [] and sim.placed_limits == []

    def test_santa_fe_buy_below_mid(self):
        # mid 50.5; drawn valuation 30 -> buy limit at 30
        sim = StubSim(best_bid=50, best_ask=51)
        agent = ZiLimitAgent(0, ZiLimitGroup(count=1, wake_rate=1.0, p_cancel=0.5),
                             ScriptedRng(randoms=[0.99], integers=[30]))
        agent.wakeup(sim)
        assert sim.placed_limits == [(Side.BID, 30, 1)]

    def test_santa_fe_sell_at_or_above_mid(self):
        sim = StubSim(best_bid=50, best_ask=51)
        agent = ZiLimitAgent(0, ZiLimitGroup(count=1, wake_rate=1.0, p_cancel=0.5),
                             ScriptedRng(randoms=[0.99], integers=[77]))
        agent.wakeup(sim)
        assert sim.placed_limits == [(Side.ASK, 77, 1)]

    def test_skips_on_one_sided_book(self):
        sim = StubSim(best_bid=50, best_ask=None)
        agent = ZiLimitAgent(0, ZiLimitGroup(count=1, wake_rate=1.0, p_cancel=0.5),
                             ScriptedRng(randoms=[0.99]))
        agent.wakeup(sim)
        assert sim.placed_limits == []

    def test_prime_band_and_branch(self):
        # mid 1000: prices within +-50, buys strictly below mid, sells above
        sim = StubSim(best_bid=999, best_ask=1001)
        group = ZiLimitGroup(count=1, wake_rate=1.0, p_cancel=0.0, mode="prime", half_width=50)
        agent = ZiLimitAgent(0, group, np.random.default_rng(42))
        for _ in range(10_000):
            agent.wakeup(sim)
        prices = {}
        for side, price, _ in sim.placed_limits:
            prices.setdefault(side, []).append(price)
        all_prices = prices[Side.BID] + prices[Side.ASK]
        assert min(all_prices) >= 950 and max(all_prices) <= 1050
        assert 1000 not in all_prices  # zero offset excluded
        assert max(prices[Side.BID]) < 1000
        assert min(prices[Side.ASK]) > 1000
        # offsets roughly uniform: each half gets about half the draws
        assert abs(len(prices[Side.BID]) / len(all_prices) - 0.5) < 0.02

    def test_branch_rule_santa_fe_sampling(self):
        # buys always strictly below the decision-time mid, sells at or above
        sim = StubSim(best_bid=50, best_ask=51)
        group = ZiLimitGroup(count=1, wake_rate=1.0, p_cancel=0.0)
        agent = ZiLimitAgent(0, group, np.random.default_rng(7))
        for _ in range(10_000):
            agent.wakeup(sim)
        for side, price, _ in sim.placed_limits:
            if side is Side.BID:
                assert 2 * price < 101
            else:
                assert 2 * price >= 101


class TestZiMarket:
    def test_buy_fraction_is_half(self):
        sim = StubSim()
        agent = ZiMarketAgent(0, ZiMarketGroup(count=1, wake_rate=1.0), np.random.default_rng(0))
        n = 100_000
        for _ in range(n):
            agent.wakeup(sim)
        buys = sum(1 for side, _ in sim.placed_markets if side is Side.BID)
        assert abs(buys / n - 0.5) < 0.005

    def test_sign_stream_is_uncorrelated(self):
        sim = StubSim()
        agent = ZiMarketAgent(0, ZiMarketGroup(count=1, wake_rate=1.0), np.random.default_rng(1))
        n = 100_000
        for _ in range(n):
            agent.wakeup(sim)
        signs = np.asarray([side.sign for side, _ in sim.placed_markets])
        acf = order_sign_acf(signs, max_lag=50)
        inside = np.abs(acf) < 3.0 / np.sqrt(n)
        assert inside.mean() >= 0.95

    def test_size_respected(self):
        sim = StubSim()
        agent = ZiMarketAgent(0, ZiMarketGroup(count=1, wake_rate=1.0, size=4),
                              np.random.default_rng(2))
        for _ in range(100):
            agent.wakeup(sim)
        assert all(qty == 4 for _, qty in sim.placed_markets)


class TestDarp:
    def test_lag_distribution_normalized_and_decaying(self):
        probs = lag_distribution(1.5, 50)
        assert probs.shape == (50,)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert np.all(np.diff(probs) < 0)

    def test_copy_probability_one_keeps_all_ones(self):
        params = DarpParams(p=1.0, gamma=1.5, n=10)
        signs = generate_signs(params, 200, np.random.default_rng(0), history=np.ones(10))
        assert np.all(signs == 1)

    @pytest.mark.parametrize("size", [1, 9, 11])
    def test_history_of_the_wrong_length_rejected(self, size):
        with pytest.raises(ValueError, match="history"):
            generate_signs(DarpParams(p=0.9, gamma=1.5, n=10), 20, np.random.default_rng(0),
                           history=np.ones(size))

    def test_half_copy_probability_gives_null_acf(self):
        signs = generate_signs(DarpParams(p=0.5, gamma=1.5, n=50), 100_000,
                               np.random.default_rng(3))
        acf = order_sign_acf(signs, max_lag=1)
        assert abs(acf[0]) < 3.0 / np.sqrt(signs.size)

    def test_persistent_stream_has_power_law_acf(self):
        signs = generate_signs(DarpParams(p=0.9, gamma=1.5, n=50), 100_000,
                               np.random.default_rng(4))
        acf = order_sign_acf(signs, max_lag=20)
        assert np.all(acf > 0)
        assert acf[-1] < acf[0]
        slope = np.polyfit(np.log(np.arange(1, 21)), np.log(acf), 1)[0]
        assert slope < 0

    def test_literal_branch_inverts_copy_probability(self):
        standard = generate_signs(DarpParams(p=0.9, gamma=1.5, n=50), 50_000,
                                  np.random.default_rng(5))
        literal = generate_signs(DarpParams(p=0.9, gamma=1.5, n=50, literal_branch=True),
                                 50_000, np.random.default_rng(5))
        assert order_sign_acf(standard, 1)[0] > 0.1
        assert order_sign_acf(literal, 1)[0] < 0.0  # copy prob 0.1: flip-dominated

    def test_agent_emits_process_signs(self):
        sim = StubSim()
        group = ZiMarketGroup(count=1, wake_rate=1.0, mode="darp", darp_p=1.0,
                              darp_gamma=1.5, darp_n=5)
        agent = DarpMarketAgent(0, group, np.random.default_rng(6))
        agent.history = np.ones(5, dtype=np.int8)
        for _ in range(BLOCK + 20):
            agent.wakeup(sim)
        assert all(side is Side.BID for side, _ in sim.placed_markets)
        assert np.all(agent.history == 1)

    @pytest.mark.parametrize("literal", [False, True])
    @pytest.mark.parametrize("n", [1, 50, 600])
    @pytest.mark.parametrize("gamma", [1.5, 2.5])
    @pytest.mark.parametrize("p", [0.9, 0.55])
    def test_agent_signs_are_generate_signs_in_blocks(self, p, gamma, n, literal):
        group = ZiMarketGroup(count=1, wake_rate=1.0, mode="darp", darp_p=p, darp_gamma=gamma,
                              darp_n=n, darp_literal_branch=literal)
        params = DarpParams(p=p, gamma=gamma, n=n, literal_branch=literal)
        seed = 11 + n
        sim = StubSim()
        agent = DarpMarketAgent(0, group, BatchedRng(np.random.default_rng(seed)))
        assert agent.params == params
        for _ in range(3 * BLOCK):
            agent.wakeup(sim)
        signs = [side.sign for side, _ in sim.placed_markets]
        first = generate_signs(params, BLOCK, np.random.default_rng(seed))
        assert signs[:BLOCK] == first.tolist()
        assert signs == darp_signs(params, 3, BLOCK, np.random.default_rng(seed))


class TestPrimeMarket:
    def test_forced_buy_when_oracle_above_mid(self):
        sim = StubSim(best_bid=999, best_ask=1001, series=constant_series(1010))
        agent = PrimeMarketAgent(0, ZiMarketGroup(count=1, wake_rate=1.0, mode="prime", noise=0),
                                 np.random.default_rng(0))
        for _ in range(500):
            agent.wakeup(sim)
        assert all(side is Side.BID for side, _ in sim.placed_markets)

    def test_coin_flip_at_equality(self):
        sim = StubSim(best_bid=999, best_ask=1001, series=constant_series(1000))
        agent = PrimeMarketAgent(0, ZiMarketGroup(count=1, wake_rate=1.0, mode="prime", noise=0),
                                 np.random.default_rng(1))
        n = 10_000
        for _ in range(n):
            agent.wakeup(sim)
        buys = sum(1 for side, _ in sim.placed_markets if side is Side.BID)
        assert abs(buys / n - 0.5) < 0.01

    def test_buy_fraction_matches_enumeration(self):
        # true price = mid + 2, noise half-width 5: of the 11 offsets, 7 land
        # above the mid, 1 on it (coin flip), 3 below -> P(buy) = 15/22
        sim = StubSim(best_bid=999, best_ask=1001, series=constant_series(1002))
        agent = PrimeMarketAgent(0, ZiMarketGroup(count=1, wake_rate=1.0, mode="prime", noise=5),
                                 np.random.default_rng(2))
        n = 10_000
        for _ in range(n):
            agent.wakeup(sim)
        buys = sum(1 for side, _ in sim.placed_markets if side is Side.BID)
        assert abs(buys / n - 15.0 / 22.0) < 0.015

    def test_coin_flip_when_mid_undefined(self):
        sim = StubSim(best_bid=None, best_ask=None, series=constant_series(1000))
        agent = PrimeMarketAgent(0, ZiMarketGroup(count=1, wake_rate=1.0, mode="prime", noise=0),
                                 np.random.default_rng(3))
        n = 4000
        for _ in range(n):
            agent.wakeup(sim)
        buys = sum(1 for side, _ in sim.placed_markets if side is Side.BID)
        assert abs(buys / n - 0.5) < 0.03


class TestTechnical:
    def lookback_sim(self, now_mid2x, past_mid2x):
        lookback = 60 * 10**9
        history = {0: past_mid2x, 90 * 10**9: now_mid2x}
        return StubSim(now=100 * 10**9, mid_history=history), lookback

    def test_trend_buys_rising_mid(self):
        sim, lookback = self.lookback_sim(210, 200)  # +5 ticks over the lookback
        agent = TechnicalAgent(0, TechnicalGroup(count=1, lookback_ns=lookback),
                               np.random.default_rng(0), "trend")
        agent.wakeup(sim)
        assert sim.placed_markets == [(Side.BID, 1)]

    def test_mean_revert_sells_rising_mid(self):
        sim, lookback = self.lookback_sim(210, 200)
        agent = TechnicalAgent(0, TechnicalGroup(count=1, lookback_ns=lookback),
                               np.random.default_rng(0), "mean_revert")
        agent.wakeup(sim)
        assert sim.placed_markets == [(Side.ASK, 1)]

    def test_dead_zone_skips(self):
        sim, lookback = self.lookback_sim(200, 200)
        for kind in ("trend", "mean_revert"):
            agent = TechnicalAgent(0, TechnicalGroup(count=1, lookback_ns=lookback),
                                   np.random.default_rng(0), kind)
            agent.wakeup(sim)
        assert sim.placed_markets == []

    def test_threshold_dead_zone(self):
        sim, lookback = self.lookback_sim(206, 200)  # +3 ticks
        agent = TechnicalAgent(0, TechnicalGroup(count=1, lookback_ns=lookback, threshold=3),
                               np.random.default_rng(0), "trend")
        agent.wakeup(sim)
        assert sim.placed_markets == []  # delta == threshold is inside the dead zone

    def test_insufficient_history_skips(self):
        sim = StubSim(now=10 * 10**9, mid_history={5 * 10**9: 200})
        agent = TechnicalAgent(0, TechnicalGroup(count=1, lookback_ns=60 * 10**9),
                               np.random.default_rng(0), "trend")
        agent.wakeup(sim)
        assert sim.placed_markets == []


class TestParamValidation:
    def test_bad_p_cancel(self):
        with pytest.raises(ConfigError, match="p_cancel"):
            ZiLimitGroup(count=1, wake_rate=1.0, p_cancel=1.5)

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            ZiLimitGroup(count=1, wake_rate=1.0, mode="smart")

    def test_bad_copy_probability(self):
        with pytest.raises(ValueError):
            DarpParams(p=-0.1, gamma=1.5)

    def test_bad_technical_kind(self):
        with pytest.raises(ValueError, match="technical kind"):
            TechnicalAgent(0, TechnicalGroup(count=1, lookback_ns=10**9),
                           np.random.default_rng(0), "arbitrage")

    def test_bad_wake_rate(self):
        with pytest.raises(ConfigError, match="wake_rate"):
            ZiMarketAgent(0, ZiMarketGroup(count=1, wake_rate=0.0), np.random.default_rng(0))
