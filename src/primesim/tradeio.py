"""CSV schemas shared by the simulator logs and the analysis pipeline.

Trade tape: ``ts,price,qty,aggressor[,taker_agent]`` with ns timestamps,
integer tick prices, unit quantities, and B/S aggressor flags. Level-1 log:
``ts,best_bid,best_ask`` with empty fields for absent sides. Real exchange
dumps use the same four trade columns, so both feed the same estimators.
Both schemas have an in-memory form, the column logs ``TradeTape`` and
``QuoteLog``, which the readers fill, so files and in-memory runs reach the
estimators alike. ``TradeWriter`` and ``L1Writer`` write the two row formats;
a session that ``runner`` runs records into them as it goes. A
run directory holds the two files under ``TRADES_FILE`` and ``L1_FILE``, next
to ``SUMMARY_FILE``, ``CONFIG_FILE`` and, for a ``from_file`` oracle, a copy of
its series under ``ORACLE_FILE``. A file
is read by one ``np.loadtxt`` call when every row parses, and row by row
otherwise; the row parser is the one definition of what a row means, and
both give the same columns. Every input CSV read row by row, the oracle's
price series too, goes through ``_rows``: one header check, one line count
and one rule for a file that cannot be opened, decoded or split into rows.
"""

from __future__ import annotations

import csv
import warnings
from array import array
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DataError

TRADE_HEADER = ["ts", "price", "qty", "aggressor", "taker_agent"]
L1_HEADER = ["ts", "best_bid", "best_ask"]

TRADES_FILE = "trades.csv"
L1_FILE = "l1.csv"
SUMMARY_FILE = "summary.txt"
CONFIG_FILE = "config.yaml"
ORACLE_FILE = "oracle.csv"

_SIGNS = {"B": 1, "S": -1}
_AGGRESSOR_FLAG = {sign: flag for flag, sign in _SIGNS.items()}
_INT64_MAX = 2**63 - 1
_SCAN_BYTES = 1 << 20


class _ColumnLog:
    """Append-only int64 columns, one ``array('q')`` attribute per name.

    Subclasses name their columns (the first is ``ts``) and ``extend`` them
    from rows; the log is read by column, never by row. A log made by
    ``from_columns`` over numpy columns (as the file readers make) is read-only.
    """

    _columns: tuple[str, ...] = ()

    def __init__(self, rows: Iterable = ()) -> None:
        for name in self._columns:
            setattr(self, name, array("q"))
        self.extend(rows)

    def __len__(self) -> int:
        return len(self.ts)

    @classmethod
    def from_columns(cls, **columns: array | np.ndarray):
        """A log over whole int64 columns of equal length, taken as they are (no copy).

        A column is an ``array('q')`` or a 1-D int64 numpy array, which may be a
        view of a larger block; several names may share one array.
        """
        if set(columns) != set(cls._columns) or len({len(c) for c in columns.values()}) > 1:
            raise ValueError(f"need equal-length columns {cls._columns}")
        log = cls()
        for name, column in columns.items():
            setattr(log, name, column)
        return log

    def column(self, name: str) -> np.ndarray:
        """One column as an int64 numpy view of the log's own memory (no copy)."""
        return np.asarray(getattr(self, name))


class TradeTape(_ColumnLog):
    """The trade tape as columns; a row is one fill as ``OrderBook`` emits it.

    ``sign`` is the aggressor's side sign (+1 buy, -1 sell).
    """

    _columns = ("ts", "price", "qty", "sign", "maker_order", "taker_agent")

    def extend(self, fills: Iterable[tuple[int, ...]]) -> None:
        for ts, price, qty, sign, maker_order, taker_agent in fills:
            self.ts.append(ts)
            self.price.append(price)
            self.qty.append(qty)
            self.sign.append(sign)
            self.maker_order.append(maker_order)
            self.taker_agent.append(taker_agent)


class QuoteLog(_ColumnLog):
    """Top-of-book changes as columns ``ts, bid, ask, mid2x``.

    Rows are appended as ``(ts, bid, ask)`` with None for an empty side. Prices
    are ticks >= 1, so 0 marks an empty side in the columns. ``mid2x``
    carries the last two-sided mid (x2) forward and is 0 before there is one.
    """

    _columns = ("ts", "bid", "ask", "mid2x")

    def append(self, ts: int, bid: int | None, ask: int | None) -> None:
        mids = self.mid2x
        self.ts.append(ts)
        self.bid.append(bid or 0)
        self.ask.append(ask or 0)
        if bid is not None and ask is not None:
            mids.append(bid + ask)
        else:
            mids.append(mids[-1] if mids else 0)

    def extend(self, rows: Iterable[tuple[int, int | None, int | None]]) -> None:
        for ts, bid, ask in rows:
            self.append(ts, bid, ask)

    @classmethod
    def from_sides(cls, ts: np.ndarray, bid: np.ndarray, ask: np.ndarray) -> QuoteLog:
        """A read-only log over int64 side columns (0 for an empty side).

        ``mid2x`` is carried forward exactly as ``append`` carries it; the
        caller keeps ``bid + ask`` inside int64.
        """
        two_sided = (bid > 0) & (ask > 0)
        last = np.maximum.accumulate(np.where(two_sided, np.arange(len(ts)), -1))
        mid2x = np.where(last >= 0, (bid + ask)[last], 0)
        return cls.from_columns(ts=ts, bid=bid, ask=ask, mid2x=mid2x)

    def mid2x_at(self, times) -> np.ndarray:
        """``mid2x`` of the last row at or before each time; 0 where there is no mid yet.

        Rows must be sorted by ``ts``.
        """
        rows = np.searchsorted(self.column("ts"), times, side="right")
        return np.concatenate(([0], self.column("mid2x")))[rows]


@dataclass(frozen=True)
class TradeDump:
    """Parsed trade file: the time-sorted tape plus the malformed-row count.

    A file carries no maker order ids and its taker ids are not read, so both
    of those columns of ``records`` are one shared read-only array of -1.
    """

    records: TradeTape
    n_malformed: int


def _aggressor_sign(field: str) -> int:
    return _SIGNS[field.strip()]


def _quote_price(field: str) -> int:
    """A quote side's tick price, 0 for an empty field (an absent side)."""
    if field == "":
        return 0
    price = int(field)
    if price < 1:
        raise ValueError("quote prices are positive ticks")
    return price


def _load_block(path: Path, headers: tuple[str, ...], n_columns: int,
                converters: dict) -> np.ndarray | None:
    """The first ``n_columns`` columns of a CSV as one int64 block, in one ``np.loadtxt`` call.

    Returns None, leaving the file to the row parser, unless the header line is
    one of ``headers`` exactly and every row parses: a file holding a ``"``
    anywhere (a quoted field may span lines, which loadtxt does not follow), a
    field numpy's integer parser refuses, a short row, or an empty body (a
    loadtxt warning) all go the row way, as does a file that cannot be opened
    or decoded, for ``_rows`` to report. Columns numpy parses accept no more
    than ``int`` does, so a block is always what the row parser would read.
    """
    try:
        with path.open("rb") as fh:
            if any(b'"' in chunk for chunk in iter(lambda: fh.read(_SCAN_BYTES), b"")):
                return None
        with path.open() as fh, warnings.catch_warnings():
            warnings.simplefilter("error")
            if fh.readline().rstrip("\n") not in headers:
                return None
            return np.loadtxt(fh, dtype=np.int64, delimiter=",", comments=None,
                              usecols=range(n_columns), converters=converters, ndmin=2)
    except (OSError, ValueError, Warning):  # a decode error is a ValueError
        return None


def _rows(path: Path, kind: str, header: list[str], exact: bool = True):
    """``(line number, fields)`` of each non-blank row after the header, which is line 1.

    A row's number is the physical line it starts on, which a quoted field
    spanning lines before it puts past its record count.

    The header must be ``header``, or with ``exact=False`` start with it. A bad
    header, or a file that cannot be opened, decoded or split into rows (a field
    past the ``csv`` size limit), is a ``DataError`` naming the file.
    """
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            names = next(reader, None) or []
            if [h.strip() for h in (names if exact else names[:len(header)])] != header:
                expected = "header" if exact else f"{kind} header starting"
                raise DataError(f"{path}: expected {expected} {','.join(header)}")
            lineno = reader.line_num + 1
            for row in reader:
                if row:
                    yield lineno, row
                lineno = reader.line_num + 1
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {kind} file {path}: {exc}") from exc


def _trade_block(path: Path) -> np.ndarray | None:
    """``ts, price, qty, sign`` of a trade file with no malformed row, else None."""
    block = _load_block(path, (",".join(TRADE_HEADER[:4]), ",".join(TRADE_HEADER)), 4,
                        {3: _aggressor_sign})
    if block is None or np.any(block[:, 1:3] < 1) or np.any(block[:, 0] == -_INT64_MAX - 1):
        return None
    return block


def _parse_trade_rows(path: Path) -> tuple[list[np.ndarray], int]:
    """Row by row: the ``ts, price, qty, sign`` columns and the malformed-row count.

    The one definition of a malformed row and of the 1% rule.
    """
    ts, price, qty, sign = array("q"), array("q"), array("q"), array("q")
    malformed = 0
    for _, row in _rows(path, "trade", TRADE_HEADER[:4], exact=False):
        try:
            t, p, q = int(row[0]), int(row[1]), int(row[2])
            s = _aggressor_sign(row[3])
            if p < 1 or q < 1 or max(abs(t), p, q) > _INT64_MAX:
                raise ValueError
        except (ValueError, KeyError, IndexError):
            malformed += 1
            continue
        ts.append(t)
        price.append(p)
        qty.append(q)
        sign.append(s)
    total = len(ts) + malformed
    if total and malformed > 0.01 * total:
        raise DataError(f"{path}: {malformed} of {total} rows malformed (>1%)")
    return [np.asarray(c) for c in (ts, price, qty, sign)], malformed


def read_trades(path: str | Path) -> TradeDump:
    """Load and validate a trade CSV into tape columns; sorts stably by timestamp.

    Rows that fail to parse are counted and skipped; more than 1% malformed
    rows (or a bad header) is a hard error. A file with no malformed row is
    read in one numpy call and its columns are views of one block; any other
    file goes through the row parser, with the same result.
    """
    path = Path(path)
    block = _trade_block(path)
    columns, malformed = _parse_trade_rows(path) if block is None else (list(block.T), 0)
    ts = columns[0]
    if np.any(ts[1:] < ts[:-1]):
        order = np.argsort(ts, kind="stable")
        columns = [c[order] for c in columns]
    unknown = np.broadcast_to(np.int64(-1), len(ts))  # read-only, no memory per row
    tape = TradeTape.from_columns(**dict(zip(("ts", "price", "qty", "sign"), columns)),
                                  maker_order=unknown, taker_agent=unknown)
    return TradeDump(records=tape, n_malformed=malformed)


def _l1_block(path: Path) -> np.ndarray | None:
    """``ts, bid, ask`` of an L1 file whose every row parses, else None.

    Also None where a two-sided mid could pass int64: that error is the row parser's.
    """
    block = _load_block(path, (",".join(L1_HEADER),), 3, {1: _quote_price, 2: _quote_price})
    if block is None or int(block[:, 1].max()) + int(block[:, 2].max()) > _INT64_MAX:
        return None
    return block


def _parse_l1_rows(path: Path) -> list[np.ndarray]:
    """Row by row: the ``ts, bid, ask`` columns, 0 for an absent side.

    The first row that does not parse, or whose two-sided mid passes int64, is
    an error naming its line.
    """
    ts, bid, ask = array("q"), array("q"), array("q")
    for lineno, row in _rows(path, "L1", L1_HEADER):
        try:
            t, b, a = int(row[0]), _quote_price(row[1]), _quote_price(row[2])
            if b + a > _INT64_MAX:
                raise ValueError
            ts.append(t)
            bid.append(b)
            ask.append(a)
        except (ValueError, IndexError, OverflowError) as exc:
            raise DataError(f"{path}:{lineno}: malformed quote row {row!r}") from exc
    return [np.asarray(c) for c in (ts, bid, ask)]


def read_l1(path: str | Path) -> QuoteLog:
    """Load an L1 CSV into a read-only quote log; an empty field is an absent side.

    Any row that does not parse is an error naming its line. A file that
    parses whole is read in one numpy call, any other file row by row; both
    carry ``mid2x`` forward in numpy, with the same result.
    """
    path = Path(path)
    block = _l1_block(path)
    return QuoteLog.from_sides(*(_parse_l1_rows(path) if block is None else block.T))


def _blank_if_zero(price: int) -> int | str:
    return price or ""


class _RowWriter:
    """A CSV file open for writing, the subclass's header first; a context manager."""

    def __init__(self, path: str | Path) -> None:
        self._fh = Path(path).open("w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(self.header)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()


class TradeWriter(_RowWriter):
    """Records fills as a ``TradeTape`` does, into a trade CSV; keeps only the row count."""

    header = TRADE_HEADER
    rows = 0

    def __len__(self) -> int:
        return self.rows

    def extend(self, fills: Iterable[tuple[int, ...]]) -> None:
        for ts, price, qty, sign, _, taker_agent in fills:
            self._writer.writerow((ts, price, qty, _AGGRESSOR_FLAG[sign], taker_agent))
            self.rows += 1


class L1Writer(_RowWriter):
    """An L1 CSV written a block of ``QuoteLog`` rows at a time."""

    header = L1_HEADER

    def write(self, quotes: QuoteLog, n: int | None = None) -> None:
        """The first ``n`` rows of a quote log (all by default); 0 is an empty side."""
        rows = zip(quotes.ts, map(_blank_if_zero, quotes.bid), map(_blank_if_zero, quotes.ask))
        self._writer.writerows(islice(rows, n))


def write_summary(path: str | Path, fields: dict[str, object]) -> None:
    """Flat key=value run summary, one entry per line."""
    with Path(path).open("w") as fh:
        for key, value in fields.items():
            fh.write(f"{key}={value}\n")


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
