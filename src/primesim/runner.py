"""Build configured simulations, run them, and write run directories atomically.

A session streams trades.csv and l1.csv into its run directory as it runs, so
memory does not grow with its length; summary.txt and the resolved config.yaml
follow, so any run can be replayed byte-identically from its own artifacts.
"""

from __future__ import annotations

import shutil
import tempfile
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from itertools import zip_longest
from pathlib import Path

from . import tradeio
from .agents import DarpMarketAgent, PrimeMarketAgent, TechnicalAgent, ZiLimitAgent, ZiMarketAgent
from .book import OrderBook
from .config import GROUPS, RunConfig, TechnicalGroup, dump_config, load_config
from .errors import ConfigError, DataError, NumericalError
from .kernel import RunStats, Simulation, agent_stream, oracle_stream
from .oracle import make_series
from .rng import BatchedRng
from .tradeio import CONFIG_FILE, L1_FILE, SUMMARY_FILE, TRADES_FILE, L1Writer, TradeWriter


@dataclass(frozen=True)
class RunResult:
    out_dir: Path
    stats: RunStats


# (group, mode) -> agent class; technical groups have no mode
AGENT_CLASSES = {
    ("zi_limit", "santa_fe"): ZiLimitAgent,
    ("zi_limit", "prime"): ZiLimitAgent,
    ("zi_market", "santa_fe"): ZiMarketAgent,
    ("zi_market", "darp"): DarpMarketAgent,
    ("zi_market", "prime"): PrimeMarketAgent,
    ("trend", None): partial(TechnicalAgent, kind="trend"),
    ("mean_revert", None): partial(TechnicalAgent, kind="mean_revert"),
}


def build_simulation(config: RunConfig, trades: TradeWriter | None = None,
                     l1: L1Writer | None = None) -> Simulation:
    """Seeded book, oracle series, and the configured agent census.

    Agent ids count up from 0 through the groups in GROUPS order, and each
    agent draws from its own stream agent_stream(seed, id). The writers, if
    given, take the tape and the quote log beyond the longest technical lookback.
    """
    book = OrderBook()
    if config.book is not None:
        book.seed_linear(config.book.start_price, config.book.half_width, config.book.slope)
    series = None
    if config.oracle is not None:
        series = make_series(config.oracle, config.session_ns, oracle_stream(config.seed))
    groups = {name: getattr(config, name) for name in GROUPS if getattr(config, name)}
    horizon = max((g.lookback_ns for g in groups.values()
                   if isinstance(g, TechnicalGroup) and g.count), default=0)
    sim = Simulation(book, series=series, trades=trades, l1=l1, horizon=horizon)
    aid = 0
    for name, group in groups.items():
        make = AGENT_CLASSES[name, getattr(group, "mode", None)]
        for _ in range(group.count):
            sim.register(make(aid, group, BatchedRng(agent_stream(config.seed, aid))))
            aid += 1
    return sim


def run_simulation(config: RunConfig, out_dir: str | Path) -> RunResult:
    """Execute the configured session and write all artifacts.

    The session streams its logs into a temporary directory. It must end with
    quantity conserved and the book uncrossed (NumericalError otherwise);
    then the summary and config are written and the directory is renamed
    onto out_dir. A failure or interrupt removes it, and then each parent
    directory made for it that is left empty.
    """
    out_dir = Path(out_dir)
    if out_dir.exists():
        raise ConfigError(f"output directory {out_dir} already exists")
    made = [parent for parent in out_dir.parents if not parent.exists()]  # nearest first
    tmp = None
    try:
        out_dir.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=out_dir.name + ".tmp-", dir=out_dir.parent))
        with TradeWriter(tmp / TRADES_FILE) as trades, L1Writer(tmp / L1_FILE) as l1:
            sim = build_simulation(config, trades, l1)
            stats = sim.run_until(config.session_ns)
            l1.write(sim.quotes)  # the rows the quote log still holds
        _check_session_end(sim.book)
        (tmp / CONFIG_FILE).write_text(dump_config(config))
        book = sim.book
        tradeio.write_summary(tmp / SUMMARY_FILE, {
            "seed": config.seed,
            "session_ns": config.session_ns,
            "events_dispatched": stats.events_dispatched,
            "trades": stats.n_trades,
            "traded_qty": stats.traded_qty,
            "submitted_qty": book.submitted_qty,
            "cancelled_qty": book.cancelled_qty,
            "discarded_qty": book.discarded_qty,
            "resting_orders": len(book),
            "final_best_bid": "" if book.best_bid is None else book.best_bid,
            "final_best_ask": "" if book.best_ask is None else book.best_ask,
        })
        tmp.rename(out_dir)
    except BaseException:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
        for parent in made:  # another run may have written into one since
            with suppress(OSError):
                parent.rmdir()
        raise
    return RunResult(out_dir=out_dir, stats=stats)


def _check_session_end(book: OrderBook) -> None:
    """Quantity is conserved and the book is not crossed, or NumericalError."""
    accounted = 2 * book.traded_qty + book.cancelled_qty + book.discarded_qty + book.resting_qty()
    if book.submitted_qty != accounted:
        raise NumericalError(f"quantity not conserved at session end: submitted "
                             f"{book.submitted_qty}, accounted for {accounted}")
    if book.crossed:
        raise NumericalError(f"book crossed at session end: {book.best_bid} >= {book.best_ask}")


def replay(run_dir: str | Path) -> str | None:
    """Re-run a recorded config and compare artifacts byte for byte.

    Returns None when every artifact is identical, else where the first one
    differs as ``<file>:<line>`` (1-based, the header is line 1).
    """
    run_dir = Path(run_dir)
    config_path = run_dir / CONFIG_FILE
    if not config_path.exists():
        raise DataError(f"{run_dir} has no {CONFIG_FILE} to replay")
    config = load_config(config_path)
    with tempfile.TemporaryDirectory(prefix="replay-") as scratch:
        fresh = Path(scratch) / "rerun"
        run_simulation(config, fresh)
        for name in (TRADES_FILE, L1_FILE, SUMMARY_FILE):
            # line by line: a re-run's files hold no bare CR, so lines are those splitlines finds
            with (fresh / name).open("rb") as new, (run_dir / name).open("rb") as old:
                for line, (a, b) in enumerate(zip_longest(new, old), start=1):
                    if a != b:
                        return f"{name}:{line}"
    return None
