"""Build configured simulations, run them, and write run directories atomically.

A run directory holds trades.csv, l1.csv, summary.txt, and the resolved
config.yaml used to produce them, so any run can be replayed byte-identically
from its own artifacts.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from functools import partial
from itertools import zip_longest
from pathlib import Path

from . import tradeio
from .agents import DarpMarketAgent, PrimeMarketAgent, TechnicalAgent, ZiLimitAgent, ZiMarketAgent
from .book import OrderBook
from .config import GROUPS, RunConfig, dump_config, load_config
from .errors import ConfigError, DataError, NumericalError
from .kernel import RunStats, Simulation, agent_stream, oracle_stream
from .oracle import make_series
from .rng import BatchedRng
from .tradeio import CONFIG_FILE, L1_FILE, SUMMARY_FILE, TRADES_FILE


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


def build_simulation(config: RunConfig) -> Simulation:
    """Seeded book, oracle series, and the configured agent census.

    Agent ids count up from 0 through the groups in GROUPS order, and each
    agent draws from its own stream agent_stream(seed, id).
    """
    book = OrderBook()
    if config.book is not None:
        book.seed_linear(config.book.start_price, config.book.half_width, config.book.slope)
    series = None
    if config.oracle is not None:
        series = make_series(config.oracle, config.session_ns, oracle_stream(config.seed))
    sim = Simulation(book, series=series)
    aid = 0
    for name in GROUPS:
        group = getattr(config, name)
        if group is None:
            continue
        make = AGENT_CLASSES[name, getattr(group, "mode", None)]
        for _ in range(group.count):
            sim.register(make(aid, group, BatchedRng(agent_stream(config.seed, aid))))
            aid += 1
    return sim


def run_simulation(config: RunConfig, out_dir: str | Path) -> RunResult:
    """Execute the configured session and write all artifacts.

    The session must end with quantity conserved and the book uncrossed
    (NumericalError otherwise). Outputs land in a temporary directory that is
    renamed onto out_dir on success, so a failed run leaves nothing behind.
    """
    out_dir = Path(out_dir)
    if out_dir.exists():
        raise ConfigError(f"output directory {out_dir} already exists")
    sim = build_simulation(config)
    stats = sim.run_until(config.session_ns)
    _check_session_end(sim.book)

    out_dir.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=out_dir.name + ".tmp-", dir=out_dir.parent))
    try:
        _write_artifacts(tmp, config, sim, stats)
        tmp.rename(out_dir)
    except Exception:
        shutil.rmtree(tmp, ignore_errors=True)
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


def _write_artifacts(dest: Path, config: RunConfig, sim: Simulation, stats: RunStats) -> None:
    tradeio.write_trades(dest / TRADES_FILE, sim.trades)
    tradeio.write_l1(dest / L1_FILE, sim.quotes)
    (dest / CONFIG_FILE).write_text(dump_config(config))
    book = sim.book
    tradeio.write_summary(dest / SUMMARY_FILE, {
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
            new, old = (fresh / name).read_bytes(), (run_dir / name).read_bytes()
            if new != old:
                pairs = zip_longest(new.splitlines(keepends=True), old.splitlines(keepends=True))
                line = next(i for i, (a, b) in enumerate(pairs, start=1) if a != b)
                return f"{name}:{line}"
    return None
