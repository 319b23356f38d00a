"""Matching core: trivial cases, invariants, and reference-matcher equivalence."""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from primesim.book import SEEDER_AGENT, LimitOrder, OrderBook, Side

from reference import Fill, ReferenceBook


def lo(oid, agent, side, price, qty, ts=0):
    return LimitOrder(id=oid, agent=agent, side=side, price=price, qty=qty, ts=ts)


def resting(book, oid):
    """The resting order with this id, read off ``book.dump()``, or None."""
    for side, name in ((Side.BID, "bids"), (Side.ASK, "asks")):
        for price, level in book.dump()[name]:
            for order_id, agent, qty, ts in level:
                if order_id == oid:
                    return lo(oid, agent, side, price, qty, ts)
    return None


def depth(book, side, price):
    """Resting quantity at one price, read off ``book.dump()``."""
    levels = dict(book.dump()["bids" if side is Side.BID else "asks"])
    return sum(qty for _, _, qty, _ in levels.get(price, ()))


class TestSubmitLimit:
    def test_rests_on_empty_book(self):
        book = OrderBook()
        trades = book.submit_limit(lo(1, 0, Side.BID, 100, 5))
        assert trades == []
        assert book.best_bid == 100
        assert book.best_ask is None

    def test_crossing_limit_walks_price_time(self):
        book = OrderBook()
        book.submit_limit(lo(1, 0, Side.ASK, 101, 3))
        book.submit_limit(lo(2, 0, Side.ASK, 102, 4))
        trades = book.submit_limit(lo(3, 1, Side.BID, 102, 5))
        # one tuple per fill: (ts, price, qty, sign, maker_order, taker_agent)
        assert trades == [(0, 101, 3, 1, 1, 1), (0, 102, 2, 1, 2, 1)]
        assert book.best_ask == 102
        assert depth(book, Side.ASK, 102) == 2
        assert book.best_bid is None  # fully filled, nothing rested

    def test_remainder_rests_at_limit_price(self):
        book = OrderBook()
        book.submit_limit(lo(1, 0, Side.ASK, 101, 3))
        trades = book.submit_limit(lo(2, 1, Side.BID, 101, 5))
        assert trades == [(0, 101, 3, 1, 1, 1)]
        assert book.best_bid == 101
        assert depth(book, Side.BID, 101) == 2

    def test_duplicate_id_rejected(self):
        book = OrderBook()
        book.submit_limit(lo(7, 0, Side.BID, 100, 1))
        with pytest.raises(ValueError, match="duplicate"):
            book.submit_limit(lo(7, 0, Side.BID, 99, 1))

    def test_nonpositive_qty_rejected(self):
        book = OrderBook()
        with pytest.raises(ValueError):
            book.submit_limit(lo(1, 0, Side.BID, 100, 0))
        with pytest.raises(ValueError):
            book.submit_limit(lo(2, 0, Side.BID, 100, -3))

    def test_fifo_within_level(self):
        book = OrderBook()
        book.submit_limit(lo(1, 0, Side.ASK, 101, 2))
        book.submit_limit(lo(2, 1, Side.ASK, 101, 2))
        trades = book.submit_limit(lo(3, 2, Side.BID, 101, 3))
        assert [Fill(*t).maker_order for t in trades] == [1, 2]
        assert [Fill(*t).qty for t in trades] == [2, 1]

    def test_skips_own_resting_orders(self):
        book = OrderBook()
        book.submit_limit(lo(1, 5, Side.ASK, 101, 2))  # own
        book.submit_limit(lo(2, 6, Side.ASK, 101, 2))
        trades = book.submit_limit(lo(3, 5, Side.BID, 101, 2))
        assert trades == [(0, 101, 2, 1, 2, 5)]
        assert resting(book, 1).qty == 2  # untouched

    def test_self_cross_remainder_discarded(self):
        # only the agent's own ask is in the way; the remainder cannot rest
        # through it without crossing the book, so it is discarded
        book = OrderBook()
        book.submit_limit(lo(1, 5, Side.ASK, 100, 1))
        trades = book.submit_limit(lo(2, 5, Side.BID, 102, 3))
        assert trades == []
        assert book.best_bid is None
        assert book.best_ask == 100
        assert book.discarded_qty == 3
        assert not book.crossed


class TestOrderIds:
    def test_repeated_id_rejected(self):
        book = OrderBook()
        book.submit_limit(lo(3, 0, Side.BID, 100, 1))
        with pytest.raises(ValueError, match="duplicate"):
            book.submit_limit(lo(3, 1, Side.ASK, 105, 1))
        assert len(book) == 1 and book.submitted_qty == 1

    def test_out_of_order_id_rejected(self):
        book = OrderBook()
        book.submit_limit(lo(5, 0, Side.BID, 100, 1))
        with pytest.raises(ValueError, match="duplicate"):
            book.submit_limit(lo(4, 0, Side.BID, 99, 1))
        assert resting(book, 4) is None and book.best_bid == 100

    def test_id_of_retired_order_stays_rejected(self):
        book = OrderBook()
        book.submit_limit(lo(1, 0, Side.BID, 100, 1))
        book.cancel(1)
        with pytest.raises(ValueError, match="duplicate"):
            book.submit_limit(lo(1, 0, Side.BID, 100, 1))

    def test_invalid_order_does_not_consume_its_id(self):
        book = OrderBook()
        with pytest.raises(ValueError):
            book.submit_limit(lo(2, 0, Side.BID, 100, 0))
        book.submit_limit(lo(2, 0, Side.BID, 100, 1))
        assert resting(book, 2) is not None

    def test_issued_ids_count_up_from_one(self):
        book = OrderBook()
        assert [book.new_order_id() for _ in range(3)] == [1, 2, 3]

    def test_new_order_id_after_external_ids(self):
        book = OrderBook()
        book.submit_limit(lo(10, 0, Side.BID, 100, 1))
        book.submit_limit(lo(12, 0, Side.BID, 99, 1))
        oid = book.new_order_id()
        assert oid == 13
        book.submit_limit(lo(oid, 0, Side.ASK, 105, 1))
        assert book.new_order_id() == 14

    def test_seed_linear_follows_id_rule(self):
        book = OrderBook()
        book.submit_limit(lo(7, 0, Side.BID, 100, 1))
        book.cancel(7)
        book.seed_linear(1000, 2, 1)
        ids = [o[0] for _, level in book.dump()["bids"] + book.dump()["asks"] for o in level]
        assert sorted(ids) == [8, 9, 10, 11]
        with pytest.raises(ValueError, match="duplicate"):
            book.submit_limit(lo(11, 0, Side.BID, 990, 1))
        assert book.new_order_id() == 12


class TestBoundedState:
    @pytest.mark.parametrize("retire", ["cancel", "fill"])
    def test_retired_orders_leave_no_state(self, retire):
        # every container the book owns must drain once its orders are gone;
        # a per-order record of any kind would leave 10k entries behind
        rng = np.random.default_rng(5)
        book = OrderBook()
        for _ in range(10_000):
            side = Side.BID if rng.random() < 0.5 else Side.ASK
            oid = book.new_order_id()
            book.submit_limit(lo(oid, 0, side, int(rng.integers(90, 111)), 2))
            if retire == "cancel":
                assert book.cancel(oid) is not None
            else:
                assert book.submit_market(1, side.opposite, 2).remainder == 0
        owned = dict(vars(book))
        for name in ("_bids", "_asks"):  # each side is a named tuple of containers
            owned.update({f"{name}.{part}": value
                          for part, value in owned.pop(name)._asdict().items()})
        containers = {name: value for name, value in owned.items()
                      if isinstance(value, (list, dict, set))}
        assert set(containers) >= {"_bids.levels", "_asks.levels", "_bids.keys",
                                   "_asks.keys", "_by_id"}
        assert {name: len(value) for name, value in containers.items() if value} == {}
        assert book.new_order_id() == 10_001


class TestSubmitMarket:
    def test_partial_level(self):
        book = OrderBook()
        book.submit_limit(lo(1, 0, Side.ASK, 101, 3))
        result = book.submit_market(1, Side.BID, 2, ts=7)
        assert result.trades == [(7, 101, 2, 1, 1, 1)]
        assert book.best_ask == 101
        assert depth(book, Side.ASK, 101) == 1
        assert result.remainder == 0

    def test_remainder_discarded(self):
        book = OrderBook()
        book.submit_limit(lo(1, 0, Side.ASK, 101, 3))
        result = book.submit_market(1, Side.BID, 5)
        assert result.trades == [(0, 101, 3, 1, 1, 1)]
        assert result.remainder == 2
        assert book.discarded_qty == 2
        assert book.best_ask is None

    def test_no_liquidity_flag(self):
        book = OrderBook()
        result = book.submit_market(1, Side.BID, 4)
        assert result.trades == []
        assert result.remainder == 4
        assert book.discarded_qty == 4

    def test_rejects_nonpositive_qty(self):
        book = OrderBook()
        with pytest.raises(ValueError):
            book.submit_market(1, Side.BID, 0)


class TestCancel:
    def test_cancel_resting(self):
        book = OrderBook()
        book.submit_limit(lo(1, 0, Side.BID, 100, 5))
        removed = book.cancel(1)
        assert removed is not None and removed.qty == 5
        assert len(book) == 0
        assert book.best_bid is None

    def test_cancel_unknown_returns_none(self):
        book = OrderBook()
        book.submit_limit(lo(1, 0, Side.BID, 100, 5))
        assert book.cancel(999) is None
        assert book.best_bid == 100

    def test_cancel_filled_returns_none(self):
        book = OrderBook()
        book.submit_limit(lo(1, 0, Side.ASK, 101, 1))
        book.submit_market(1, Side.BID, 1)
        assert book.cancel(1) is None


class TestL1:
    def test_mid_and_spread(self):
        book = OrderBook()
        book.submit_limit(lo(1, 0, Side.BID, 99, 1))
        book.submit_limit(lo(2, 0, Side.ASK, 101, 1))
        assert (book.best_bid, book.best_ask) == (99, 101)
        assert book.mid2x == 200
        assert book.best_ask - book.best_bid == 2
        book.submit_limit(lo(3, 0, Side.BID, 100, 1))
        assert book.mid2x == 201  # a half-tick mid stays integral

    def test_empty_book_absent(self):
        book = OrderBook()
        assert book.best_bid is None and book.best_ask is None
        assert book.mid2x is None
        # the mid stays absent while either side is empty
        book.submit_limit(lo(1, 0, Side.BID, 99, 1))
        assert (book.best_bid, book.best_ask, book.mid2x) == (99, None, None)
        book.cancel(1)
        book.submit_limit(lo(2, 0, Side.ASK, 101, 1))
        assert (book.best_bid, book.best_ask, book.mid2x) == (None, 101, None)


class TestSeedLinear:
    def test_small_example(self):
        book = OrderBook()
        book.seed_linear(1000, 3, 1)
        dump = book.dump()
        assert [(p, level[0][2]) for p, level in dump["bids"]] == [(999, 1), (998, 2), (997, 3)]
        assert [(p, level[0][2]) for p, level in dump["asks"]] == [(1001, 1), (1002, 2), (1003, 3)]
        assert all(level[0][1] == SEEDER_AGENT for _, level in dump["bids"] + dump["asks"])

    def test_paper_width_fifty_levels(self):
        book = OrderBook()
        book.seed_linear(1000, 50, 2)
        dump = book.dump()
        assert len(dump["bids"]) == 50
        assert len(dump["asks"]) == 50

    def test_total_volume_is_arithmetic_series(self):
        book = OrderBook()
        half_width, slope = 50, 2
        book.seed_linear(1000, half_width, slope)
        per_side = slope * half_width * (half_width + 1) // 2
        bid_qty = sum(depth(book, Side.BID, p) for p, _ in book.dump()["bids"])
        ask_qty = sum(depth(book, Side.ASK, p) for p, _ in book.dump()["asks"])
        assert bid_qty == per_side
        assert ask_qty == per_side

    def test_requires_empty_book(self):
        book = OrderBook()
        book.submit_limit(lo(1, 0, Side.BID, 100, 1))
        with pytest.raises(ValueError, match="empty"):
            book.seed_linear(1000, 3, 1)

    def test_rejects_offgrid_bids(self):
        with pytest.raises(ValueError):
            OrderBook().seed_linear(10, 10, 1)


# ---------------------------------------------------------------- randomized


def random_ops(rng, n_ops, n_agents=5, price_lo=91, price_hi=110):
    """Mixed op stream over <= 20 price levels; cancels may target filled ids."""
    ops = []
    issued = []
    next_id = 1
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.6:
            ops.append(("limit", next_id, int(rng.integers(n_agents)),
                        Side.BID if rng.random() < 0.5 else Side.ASK,
                        int(rng.integers(price_lo, price_hi + 1)),
                        int(rng.integers(1, 11))))
            issued.append(next_id)
            next_id += 1
        elif roll < 0.8:
            ops.append(("market", int(rng.integers(n_agents)),
                        Side.BID if rng.random() < 0.5 else Side.ASK,
                        int(rng.integers(1, 11))))
        elif issued:
            ops.append(("cancel", issued[int(rng.integers(len(issued)))]))
        else:
            ops.append(("market", 0, Side.BID, 1))
    return ops


def apply_ops(ops):
    book = OrderBook()
    ref = ReferenceBook()
    book_tape, ref_tape = [], []
    for ts, op in enumerate(ops):
        if op[0] == "limit":
            _, oid, agent, side, price, qty = op
            book_tape += book.submit_limit(lo(oid, agent, side, price, qty, ts))
            ref_tape += ref.submit_limit(oid, agent, side, price, qty, ts)
        elif op[0] == "market":
            _, agent, side, qty = op
            book_tape += book.submit_market(agent, side, qty, ts).trades
            ref_tape += ref.submit_market(agent, side, qty, ts)
        else:
            book.cancel(op[1])
            ref.cancel(op[1])
        assert not book.crossed
    return book, ref, book_tape, ref_tape


class TestReferenceEquivalence:
    def test_random_stream_matches_reference(self):
        rng = np.random.default_rng(42)
        ops = random_ops(rng, 2000)
        book, ref, book_tape, ref_tape = apply_ops(ops)
        assert book_tape == ref_tape
        assert book.dump() == ref.dump()
        assert (book.best_bid, book.best_ask) == ref.l1()

    def test_interleaved_fills_and_cancels(self):
        rng = np.random.default_rng(7)
        ops = random_ops(rng, 1000, n_agents=3, price_lo=95, price_hi=105)
        book, ref, book_tape, ref_tape = apply_ops(ops)
        assert book_tape == ref_tape
        assert book.dump() == ref.dump()


class TestInvariants:
    def test_volume_conservation(self):
        # every trade consumes a unit from the taker's and the maker's
        # submitted quantity, hence the factor of two
        rng = np.random.default_rng(11)
        ops = random_ops(rng, 3000)
        book, _, _, _ = apply_ops(ops)
        assert (2 * book.traded_qty + book.resting_qty()
                + book.discarded_qty + book.cancelled_qty) == book.submitted_qty

    def test_determinism_identical_tapes(self):
        rng = np.random.default_rng(3)
        ops = random_ops(rng, 1500)
        _, _, tape_a, _ = apply_ops(ops)
        _, _, tape_b, _ = apply_ops(ops)
        assert tape_a == tape_b

    def test_trade_prices_are_maker_prices(self):
        book = OrderBook()
        book.submit_limit(lo(1, 0, Side.ASK, 105, 2))
        trades = book.submit_limit(lo(2, 1, Side.BID, 110, 2))
        assert [Fill(*t).price for t in trades] == [105]


def mirror_ops(ops, ceiling):
    """The same stream with each price p moved to ceiling - p and each side swapped."""
    mirrored = []
    for op in ops:
        if op[0] == "limit":
            kind, oid, agent, side, price, qty = op
            mirrored.append((kind, oid, agent, side.opposite, ceiling - price, qty))
        elif op[0] == "market":
            kind, agent, side, qty = op
            mirrored.append((kind, agent, side.opposite, qty))
        else:
            mirrored.append(op)
    return mirrored


class TestMirrorSymmetry:
    """Bids and asks follow one rule, so a stream mirrored in price has a mirrored outcome."""

    CEILING = 201  # maps random_ops' prices 91..110 onto themselves

    @pytest.mark.parametrize("seed, n_agents", [(1, 5), (2, 2), (3, 3)])
    def test_mirrored_stream_mirrors_tape_book_and_counters(self, seed, n_agents):
        ops = random_ops(np.random.default_rng(seed), 2000, n_agents=n_agents)
        book, _, tape, _ = apply_ops(ops)
        mirror, _, mirror_tape, _ = apply_ops(mirror_ops(ops, self.CEILING))
        assert tape and book.discarded_qty > 0 and book.cancelled_qty > 0
        assert mirror_tape == [(ts, self.CEILING - price, qty, -sign, maker, taker)
                               for ts, price, qty, sign, maker, taker in tape]
        dump, mirror_dump = book.dump(), mirror.dump()
        assert dump["bids"] and dump["asks"]
        for side, other in (("bids", "asks"), ("asks", "bids")):
            assert mirror_dump[side] == [(self.CEILING - p, level) for p, level in dump[other]]
        for counter in ("submitted_qty", "traded_qty", "cancelled_qty", "discarded_qty"):
            assert getattr(mirror, counter) == getattr(book, counter), counter


AGENTS = st.integers(0, 3)
SIDES = st.sampled_from([Side.BID, Side.ASK])
PRICES = st.integers(95, 105)
QTYS = st.integers(1, 6)


class BookVersusReference(RuleBasedStateMachine):
    """OrderBook and the naive ReferenceBook fed one sequence of operations.

    Limit, market and cancel operations (live, already retired and never
    issued ids) plus limits priced through the submitter's own resting orders;
    after every step both books hold the same orders, counters, tape and top
    of book (best bid, best ask and mid2x), and the production book is not
    crossed.
    """

    def __init__(self):
        super().__init__()
        self.book = OrderBook()
        self.ref = ReferenceBook()
        self.book_tape, self.ref_tape = [], []
        self.issued = []
        self.ts = 0

    def _limit(self, agent, side, price, qty):
        self.ts += 1
        oid = self.book.new_order_id()
        self.book_tape += self.book.submit_limit(lo(oid, agent, side, price, qty, self.ts))
        self.ref_tape += self.ref.submit_limit(oid, agent, side, price, qty, self.ts)
        self.issued.append(oid)

    @rule(agent=AGENTS, side=SIDES, price=PRICES, qty=QTYS)
    def limit(self, agent, side, price, qty):
        self._limit(agent, side, price, qty)

    @rule(agent=AGENTS, side=SIDES, qty=st.integers(1, 15))
    def market(self, agent, side, qty):
        self.ts += 1
        result = self.book.submit_market(agent, side, qty, self.ts)
        self.book_tape += result.trades
        self.ref_tape += self.ref.submit_market(agent, side, qty, self.ts)
        assert result.remainder == qty - sum(Fill(*t).qty for t in result.trades)

    @precondition(lambda self: self.issued)
    @rule(data=st.data())
    def cancel_issued(self, data):
        oid = data.draw(st.sampled_from(self.issued), label="order id")
        got, want = self.book.cancel(oid), self.ref.cancel(oid)
        assert (got is None) == (want is None)
        if got is not None:
            assert (got.id, got.agent, got.qty) == (want["id"], want["agent"], want["qty"])

    @rule(oid=st.integers(-3, 10**6))
    def cancel_unissued(self, oid):
        if oid not in self.issued:
            assert self.book.cancel(oid) is None and self.ref.cancel(oid) is None

    @precondition(lambda self: self.ref.resting)
    @rule(data=st.data(), qty=QTYS, through=st.integers(0, 3))
    def self_cross(self, data, qty, through):
        """A limit from a resting order's owner priced at or through that order."""
        own = data.draw(st.sampled_from(self.ref.resting), label="own order")
        side = own["side"].opposite
        price = own["price"] + (through if side is Side.BID else -through)
        self._limit(own["agent"], side, max(price, 1), qty)

    @invariant()
    def books_agree(self):
        assert self.book_tape == self.ref_tape
        assert self.book.dump() == self.ref.dump()
        assert not self.book.crossed
        bid, ask = self.ref.l1()
        assert (self.book.best_bid, self.book.best_ask) == (bid, ask)
        assert self.book.mid2x == (None if bid is None or ask is None else bid + ask)
        for counter in ("submitted_qty", "traded_qty", "cancelled_qty", "discarded_qty"):
            assert getattr(self.book, counter) == getattr(self.ref, counter), counter


TestBookVersusReference = BookVersusReference.TestCase
TestBookVersusReference.settings = settings(max_examples=150, stateful_step_count=60,
                                            deadline=None, derandomize=True, database=None)
