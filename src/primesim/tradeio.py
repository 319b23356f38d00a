"""CSV schemas shared by the simulator logs and the analysis pipeline.

Trade tape: ``ts,price,qty,aggressor[,taker_agent]`` with ns timestamps,
integer tick prices, unit quantities, and B/S aggressor flags. Level-1 log:
``ts,best_bid,best_ask`` with empty fields for absent sides. Real exchange
dumps use the same four trade columns, so both feed the same estimators.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .book import Side, Trade
from .errors import DataError
from .kernel import QuoteLog, TradeTape

TRADE_HEADER = ["ts", "price", "qty", "aggressor", "taker_agent"]
L1_HEADER = ["ts", "best_bid", "best_ask"]


class TradeRecord(NamedTuple):
    ts: int
    price: int
    qty: int
    sign: int  # +1 buy aggressor, -1 sell aggressor


class QuoteRecord(NamedTuple):
    ts: int
    bid: int | None
    ask: int | None


@dataclass(frozen=True)
class TradeDump:
    """Parsed trade file: time-sorted records plus the malformed-row count."""

    path: Path
    records: list[TradeRecord]
    n_malformed: int


def read_trades(path: str | Path) -> TradeDump:
    """Load and validate a trade CSV; sorts stably by timestamp.

    Rows that fail to parse are counted and skipped; more than 1% malformed
    rows (or a bad header) is a hard error.
    """
    path = Path(path)
    records: list[TradeRecord] = []
    malformed = 0
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:4]] != TRADE_HEADER[:4]:
                raise DataError(f"{path}: expected trade header starting "
                                f"{','.join(TRADE_HEADER[:4])}")
            for row in reader:
                if not row:
                    continue
                try:
                    ts, price, qty = int(row[0]), int(row[1]), int(row[2])
                    sign = {"B": 1, "S": -1}[row[3].strip()]
                    if price < 1 or qty < 1:
                        raise ValueError
                    records.append(TradeRecord(ts=ts, price=price, qty=qty, sign=sign))
                except (ValueError, KeyError, IndexError):
                    malformed += 1
    except OSError as exc:
        raise DataError(f"cannot read trade file {path}: {exc}") from exc
    total = len(records) + malformed
    if total and malformed > 0.01 * total:
        raise DataError(f"{path}: {malformed} of {total} rows malformed (>1%)")
    records.sort(key=lambda r: r.ts)
    return TradeDump(path=path, records=records, n_malformed=malformed)


def read_l1(path: str | Path) -> list[QuoteRecord]:
    path = Path(path)
    quotes: list[QuoteRecord] = []
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != L1_HEADER:
                raise DataError(f"{path}: expected header {','.join(L1_HEADER)}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    bid = int(row[1]) if row[1] != "" else None
                    ask = int(row[2]) if row[2] != "" else None
                    quotes.append(QuoteRecord(ts=int(row[0]), bid=bid, ask=ask))
                except (ValueError, IndexError) as exc:
                    raise DataError(f"{path}:{lineno}: malformed quote row {row!r}") from exc
    except OSError as exc:
        raise DataError(f"cannot read L1 file {path}: {exc}") from exc
    return quotes


_AGGRESSOR_FLAG = {side.sign: side.value for side in Side}


def _blank_if_zero(price: int) -> int | str:
    return price or ""


def write_trades(path: str | Path, trades: Iterable[Trade]) -> None:
    """Write a trade CSV row by row from the columns of a ``TradeTape``."""
    if not isinstance(trades, TradeTape):
        trades = TradeTape(trades)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRADE_HEADER)
        writer.writerows(zip(trades.ts, trades.price, trades.qty,
                             map(_AGGRESSOR_FLAG.__getitem__, trades.sign),
                             trades.taker_agent))


def write_l1(path: str | Path, rows: Iterable[tuple[int, int | None, int | None]]) -> None:
    """Write an L1 CSV row by row from the columns of a ``QuoteLog``."""
    if not isinstance(rows, QuoteLog):
        rows = QuoteLog(rows)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(L1_HEADER)
        writer.writerows(zip(rows.ts, map(_blank_if_zero, rows.bid),
                             map(_blank_if_zero, rows.ask)))


def trade_signs(records: list[TradeRecord]) -> np.ndarray:
    return np.asarray([r.sign for r in records], dtype=np.int8)


def records_from_tape(trades: Iterable[Trade]) -> list[TradeRecord]:
    """Analysis records straight from in-memory simulator trades."""
    if not isinstance(trades, TradeTape):
        trades = TradeTape(trades)
    return list(map(TradeRecord, trades.ts, trades.price, trades.qty, trades.sign))


def write_summary(path: str | Path, fields: dict[str, object]) -> None:
    """Flat key=value run summary, one entry per line."""
    with Path(path).open("w") as fh:
        for key, value in fields.items():
            fh.write(f"{key}={value}\n")


def read_summary(path: str | Path) -> dict[str, str]:
    out: dict[str, str] = {}
    with Path(path).open() as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            key, _, value = line.partition("=")
            out[key] = value
    return out


def write_table(path: str | Path, header: list[str], rows: Iterable[Iterable[object]]) -> None:
    """Generic analysis CSV writer with deterministic float formatting."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _fmt(value: object) -> object:
    if isinstance(value, float):
        return f"{value:.12g}"
    return value
