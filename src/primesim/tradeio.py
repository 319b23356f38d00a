"""CSV schemas shared by the simulator logs and the analysis pipeline.

Trade tape: ``ts,price,qty,aggressor[,taker_agent]`` with ns timestamps,
integer tick prices, unit quantities, and B/S aggressor flags. Level-1 log:
``ts,best_bid,best_ask`` with empty fields for absent sides. Real exchange
dumps use the same four trade columns, so both feed the same estimators.
The readers fill the simulator's own column types, ``TradeTape`` and
``QuoteLog``, so files and in-memory runs reach the estimators alike.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .book import Side
from .errors import DataError
from .kernel import QuoteLog, TradeTape

TRADE_HEADER = ["ts", "price", "qty", "aggressor", "taker_agent"]
L1_HEADER = ["ts", "best_bid", "best_ask"]

_SIGNS = {"B": 1, "S": -1}
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class TradeDump:
    """Parsed trade file: the time-sorted tape plus the malformed-row count.

    A file carries no maker order ids and its taker ids are not read, so both
    of those columns of ``records`` hold -1.
    """

    path: Path
    records: TradeTape
    n_malformed: int


def read_trades(path: str | Path) -> TradeDump:
    """Load and validate a trade CSV into tape columns; sorts stably by timestamp.

    Rows that fail to parse are counted and skipped; more than 1% malformed
    rows (or a bad header) is a hard error.
    """
    path = Path(path)
    ts, price, qty, sign = array("q"), array("q"), array("q"), array("q")
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
                    t, p, q = int(row[0]), int(row[1]), int(row[2])
                    s = _SIGNS[row[3].strip()]
                    if p < 1 or q < 1 or max(abs(t), p, q) > _INT64_MAX:
                        raise ValueError
                except (ValueError, KeyError, IndexError):
                    malformed += 1
                    continue
                ts.append(t)
                price.append(p)
                qty.append(q)
                sign.append(s)
    except OSError as exc:
        raise DataError(f"cannot read trade file {path}: {exc}") from exc
    total = len(ts) + malformed
    if total and malformed > 0.01 * total:
        raise DataError(f"{path}: {malformed} of {total} rows malformed (>1%)")
    columns = {"ts": ts, "price": price, "qty": qty, "sign": sign}
    ts_view = np.frombuffer(ts, dtype=np.int64)
    if np.any(ts_view[1:] < ts_view[:-1]):
        order = np.argsort(ts_view, kind="stable")
        columns = {name: array("q", np.frombuffer(c, dtype=np.int64)[order].tobytes())
                   for name, c in columns.items()}
    unknown = array("q", [-1]) * len(ts)
    tape = TradeTape.from_columns(**columns, maker_order=unknown, taker_agent=array("q", unknown))
    return TradeDump(path=path, records=tape, n_malformed=malformed)


def read_l1(path: str | Path) -> QuoteLog:
    """Load an L1 CSV into a quote log; an empty field is an absent side."""
    path = Path(path)
    quotes = QuoteLog()
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
                    if any(p is not None and p < 1 for p in (bid, ask)):
                        raise ValueError("quote prices are positive ticks")
                    quotes.append(int(row[0]), bid, ask)
                except (ValueError, IndexError, OverflowError) as exc:
                    raise DataError(f"{path}:{lineno}: malformed quote row {row!r}") from exc
    except OSError as exc:
        raise DataError(f"cannot read L1 file {path}: {exc}") from exc
    return quotes


_AGGRESSOR_FLAG = {side.sign: side.value for side in Side}


def _blank_if_zero(price: int) -> int | str:
    return price or ""


def write_trades(path: str | Path, trades: TradeTape) -> None:
    """Write a trade CSV row by row from the columns of a ``TradeTape``."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRADE_HEADER)
        writer.writerows(zip(trades.ts, trades.price, trades.qty,
                             map(_AGGRESSOR_FLAG.__getitem__, trades.sign),
                             trades.taker_agent))


def write_l1(path: str | Path, quotes: QuoteLog) -> None:
    """Write an L1 CSV row by row from the columns of a ``QuoteLog``."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(L1_HEADER)
        writer.writerows(zip(quotes.ts, map(_blank_if_zero, quotes.bid),
                             map(_blank_if_zero, quotes.ask)))


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
