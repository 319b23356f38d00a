"""Trade/L1 file ingestion: schemas, sorting, malformed-row policy, round trips."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primesim import tradeio
from primesim.errors import DataError
from primesim.tradeio import (
    L1Writer,
    QuoteLog,
    TradeTape,
    TradeWriter,
    read_l1,
    read_trades,
    write_summary,
)

from reference import quote_rows, tape_rows


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestReadTrades:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["ts,price,qty,aggressor",
                           "10,100,2,B", "20,101,1,S", "30,99,4,B"])
        dump = read_trades(path)
        tape = dump.records
        assert len(tape) == 3
        assert (tape.ts[0], tape.price[0], tape.qty[0], tape.sign[0]) == (10, 100, 2, 1)
        assert tape.sign[1] == -1
        assert dump.n_malformed == 0

    def test_unknown_order_and_agent_ids(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["ts,price,qty,aggressor,taker_agent", "10,100,2,B,7", "20,101,1,S,8"])
        tape = read_trades(path).records
        assert list(tape.maker_order) == list(tape.taker_agent) == [-1, -1]
        assert tape_rows(tape)[0] == (10, 100, 2, 1, -1, -1)
        assert list(tape.column("price")) == [100, 101]

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["ts,price,qty,aggressor", "10,100,2,B", "", "20,101,1,S", ""])
        dump = read_trades(path)
        assert tape_rows(dump.records) == [(10, 100, 2, 1, -1, -1), (20, 101, 1, -1, -1, -1)]
        assert dump.n_malformed == 0

    def test_out_of_int64_range_is_malformed(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = ["ts,price,qty,aggressor"] + [f"{i},100,1,B" for i in range(200)]
        rows.append(f"300,{2**63},1,B")
        write_lines(path, rows)
        dump = read_trades(path)
        assert dump.n_malformed == 1 and len(dump.records) == 200

    def test_out_of_order_rows_sorted_stably(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["ts,price,qty,aggressor",
                           "30,103,1,B", "10,101,1,B", "10,102,1,S", "20,104,1,B"])
        dump = read_trades(path)
        assert list(dump.records.ts) == [10, 10, 20, 30]
        assert list(dump.records.price) == [101, 102, 104, 103]  # stable at ties
        assert list(dump.records.sign) == [1, -1, 1, 1]

    def test_malformed_rows_counted(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = ["ts,price,qty,aggressor"] + [f"{i},100,1,B" for i in range(200)]
        rows.insert(5, "oops,not,a,row")
        write_lines(path, rows)
        dump = read_trades(path)
        assert dump.n_malformed == 1
        assert len(dump.records) == 200

    def test_too_many_malformed_is_hard_error(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = ["ts,price,qty,aggressor"] + ["1,100,1,B"] * 50 + ["bad,row,x,y"] * 2
        write_lines(path, rows)
        with pytest.raises(DataError, match="malformed"):
            read_trades(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["time,px,size,side", "1,100,1,B"])
        with pytest.raises(DataError, match="header"):
            read_trades(path)

    def test_nonpositive_fields_are_malformed(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = ["ts,price,qty,aggressor"] + [f"{i},100,1,B" for i in range(300)]
        rows.append("301,0,1,B")
        rows.append("302,100,-1,S")
        write_lines(path, rows)
        dump = read_trades(path)
        assert dump.n_malformed == 2

    def test_simulator_tape_round_trip(self, tmp_path):
        trades = TradeTape([(5, 100, 2, 1, 1, 3), (9, 99, 1, -1, 2, 4)])
        path = tmp_path / "tape.csv"
        with TradeWriter(path) as writer:
            writer.extend(tape_rows(trades))
        dump = read_trades(path)
        tape = dump.records
        assert list(zip(tape.ts, tape.price, tape.qty, tape.sign)) == \
               [(5, 100, 2, 1), (9, 99, 1, -1)]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_trades(tmp_path / "absent.csv")

    def test_tape_columns_written_as_rows(self, tmp_path):
        # fill rows in column order: ts, price, qty, sign, maker_order, taker_agent
        tape = TradeTape([(5, 100, 2, 1, 1, 3), (9, 99, 1, -1, 2, 4)])
        with TradeWriter(tmp_path / "tape.csv") as writer:
            writer.extend(tape_rows(tape))
        assert (tmp_path / "tape.csv").read_text().splitlines() == [
            "ts,price,qty,aggressor,taker_agent", "5,100,2,B,3", "9,99,1,S,4"]


class TestL1File:
    def test_round_trip_with_absent_sides(self, tmp_path):
        rows = [(0, 99, 101), (5, None, 101), (9, 98, None), (12, 97, 100)]
        path = tmp_path / "l1.csv"
        with L1Writer(path) as writer:
            writer.write(QuoteLog(rows))
        quotes = read_l1(path)
        assert isinstance(quotes, QuoteLog)
        assert quote_rows(quotes) == [(0, 99, 101), (5, None, 101), (9, 98, None), (12, 97, 100)]
        assert list(quotes.mid2x) == [200, 200, 200, 197]

    def test_quote_log_round_trip(self, tmp_path):
        rows = [(0, None, None), (0, 99, None), (5, 99, 101), (9, None, 101), (12, 97, 100)]
        log = QuoteLog(rows)
        assert list(log.mid2x) == [0, 0, 200, 200, 197]
        with L1Writer(tmp_path / "l1.csv") as writer:
            writer.write(log)
        assert quote_rows(read_l1(tmp_path / "l1.csv")) == rows

    def test_bad_header(self, tmp_path):
        path = tmp_path / "l1.csv"
        path.write_text("ts,bid,ask\n0,1,2\n")
        with pytest.raises(DataError, match="header"):
            read_l1(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "l1.csv"
        path.write_text("ts,best_bid,best_ask\n0,99,101\nnope,,\n")
        with pytest.raises(DataError, match="malformed"):
            read_l1(path)

    def test_blank_rows_skipped_and_counted_as_lines(self, tmp_path):
        path = tmp_path / "l1.csv"
        path.write_text("ts,best_bid,best_ask\n0,99,101\n\n5,98,\n")
        assert quote_rows(read_l1(path)) == [(0, 99, 101), (5, 98, None)]
        path.write_text("ts,best_bid,best_ask\n0,99,101\n\nnope,,\n")
        with pytest.raises(DataError, match=":4: malformed"):
            read_l1(path)

    def test_a_row_after_a_quoted_field_spanning_lines_names_its_physical_line(self, tmp_path):
        path = tmp_path / "ml.csv"
        path.write_text('ts,best_bid,best_ask\n0,99,101,"a\nb"\n\nnope,,\n')
        with pytest.raises(DataError, match=":5: malformed"):
            read_l1(path)

    @pytest.mark.parametrize("row", ["5,0,101", "5,99,-2", f"5,{2**63},101"])
    def test_price_outside_ticks_is_malformed(self, tmp_path, row):
        path = tmp_path / "l1.csv"
        path.write_text(f"ts,best_bid,best_ask\n0,99,101\n{row}\n")
        with pytest.raises(DataError, match=":3: malformed"):
            read_l1(path)


@pytest.mark.parametrize("reader, lines", [
    (read_trades, ["ts,price,qty,aggressor", "1,100,1,B", f"2,{'1' * 200_000},1,B"]),
    (read_l1, ["ts,best_bid,best_ask", "0,99,101", f"5,{'1' * 200_000},101"]),
])
def test_a_field_past_the_csv_limit_is_a_data_error(tmp_path, reader, lines):
    path = tmp_path / "big.csv"
    write_lines(path, lines)
    with pytest.raises(DataError, match=f"cannot read .* file {path}: field larger than"):
        reader(path)


def row_parser_only():
    """Within this context every file goes through the row parser."""
    return mock.patch.object(tradeio, "_load_block", return_value=None)


def outcome(reader, path, columns):
    """What a reader makes of a file: its int64 columns and malformed count, or its error."""
    try:
        result = reader(path)
    except DataError as exc:
        return "error", str(exc)
    log, malformed = (result.records, result.n_malformed) if columns == "trades" else (result, 0)
    names = log._columns
    assert all(log.column(name).dtype == np.int64 for name in names)
    return "ok", {name: log.column(name).tolist() for name in names}, malformed


def both_paths(reader, path, columns):
    with row_parser_only():
        by_rows = outcome(reader, path, columns)
    return outcome(reader, path, columns), by_rows


INT64 = 2**63
# fields as written by hand or by other tools: padding, signs, underscores, floats,
# quotes, hex, non-ASCII digits, and values just outside int64
ODD_INTS = st.sampled_from([" 5", "5 ", "\t5", "+5", "-0", "007", "1_000", "5.0", "5e3", "0x10",
                            "\u0665", '"5"', "", " ", "0", "-1", str(INT64), str(-INT64),
                            str(-INT64 - 1), str(INT64 - 1)])
FUZZ_INTS = st.text(alphabet=" \t\x0b\x0c+-_.e0123456789", max_size=5)
LINE_ENDINGS = st.sampled_from(["\n", "\r\n"])


def int_fields(low, high):
    return st.one_of(st.integers(low, high).map(str), ODD_INTS, FUZZ_INTS)


TRADE_HEADERS = ["ts,price,qty,aggressor", "ts,price,qty,aggressor,taker_agent"]


@st.composite
def trade_files(draw):
    """A trade CSV: clean rows, perhaps with padding that lets a dirty row pass the 1% rule."""
    header = draw(st.sampled_from(TRADE_HEADERS * 3 + [
        " ts,price,qty,aggressor", "ts,price,qty,aggressor,venue", "ts,price,qty",
        "time,px,size,side"]))
    taker = [",7"] if header.endswith("taker_agent") else [""]
    ticks = st.one_of(st.integers(1, 200), st.integers(1, INT64 - 1))
    clean = st.builds("{},{},{},{}{}".format,
                      # -2**63 is malformed to the row parser: its magnitude is past int64
                      st.one_of(st.integers(-5, 5), st.integers(-INT64, INT64 - 1), st.just(-INT64)),
                      ticks, ticks, st.sampled_from(["B", "S"]), st.sampled_from(taker))
    dirty_fields = st.builds("{},{},{},{}{}".format, int_fields(-INT64, INT64 - 1),
                             int_fields(-2, INT64), int_fields(-2, INT64),
                             st.sampled_from(["B", "S", " B", "S ", "b", "X", '"S"', ""]),
                             st.sampled_from(["", ",7", ",x", ',"a,b"', ",7,8", ","]))
    dirty = st.one_of(dirty_fields, st.sampled_from([
        "", "   ", "# comment", "1,100,1", "1,100,1,B,", '1,100,1,B,"split', 'here",4',
        '1,100,1,B,"a\n2,100,1,S,b"', "1,100,1,B\r2,100,1,S"]))
    rows = draw(st.lists(clean, max_size=30)) + ["0,100,1,B"] * draw(st.sampled_from([0, 0, 200]))
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(dirty))
    return draw(LINE_ENDINGS).join([header, *rows]) + draw(st.sampled_from(["", "\n", "\r\n"]))


@st.composite
def l1_files(draw):
    """An L1 CSV: clean rows with empty sides, and perhaps a dirty line or two."""
    header = draw(st.sampled_from(["ts,best_bid,best_ask"] * 3 + [
        " ts,best_bid,best_ask", "ts,best_bid,best_ask,x", "ts,bid,ask"]))
    side = st.one_of(st.just(""), st.integers(1, 200).map(str),
                     st.integers(1, INT64 - 1).map(str), st.integers(INT64 // 2, INT64 - 1).map(str))
    clean = st.builds("{},{},{}".format, st.integers(-INT64, INT64 - 1), side, side)
    dirty_fields = st.builds("{},{},{}{}".format, int_fields(-INT64 - 1, INT64),
                             st.one_of(st.just(""), int_fields(-1, INT64)),
                             st.one_of(st.just(""), int_fields(-1, INT64)),
                             st.sampled_from(["", ",7", ",", ',"a,b"']))
    dirty = st.one_of(dirty_fields, st.sampled_from(["", "   ", "# comment", "5,99", '"5,99,101"']))
    rows = draw(st.lists(clean, max_size=30))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(dirty))
    return draw(LINE_ENDINGS).join([header, *rows]) + draw(st.sampled_from(["", "\n"]))


class TestFastPathMatchesRowParser:
    """The one-call numpy readers and the row parser give the same columns, counts and errors."""

    @settings(max_examples=300, deadline=None)
    @given(text=trade_files())
    def test_trade_files(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("trades") / "trades.csv"
        path.write_bytes(text.encode())
        fast, by_rows = both_paths(read_trades, path, "trades")
        assert fast == by_rows

    @settings(max_examples=300, deadline=None)
    @given(text=l1_files())
    def test_l1_files(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("l1") / "l1.csv"
        path.write_bytes(text.encode())
        fast, by_rows = both_paths(read_l1, path, "l1")
        assert fast == by_rows

    @pytest.mark.parametrize("header", ["ts,price,qty,aggressor",
                                        "ts,price,qty,aggressor,taker_agent"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_clean_trade_files_take_the_fast_path(self, tmp_path, header, newline):
        rows = ["30,103,1,B", "10,101,2,B", "10,102,1,S", f"20,{INT64 - 1},1,B"]
        if header.endswith("taker_agent"):
            rows = [row + ",7" for row in rows]
        path = tmp_path / "t.csv"
        path.write_bytes(newline.join([header, *rows, ""]).encode())
        assert tradeio._trade_block(path) is not None
        fast, by_rows = both_paths(read_trades, path, "trades")
        assert fast == by_rows
        assert fast[1]["ts"] == [10, 10, 20, 30] and fast[1]["price"][:2] == [101, 102]

    def test_clean_l1_file_takes_the_fast_path(self, tmp_path):
        path = tmp_path / "l1.csv"
        path.write_text("ts,best_bid,best_ask\n0,,\n1,99,\n2,99,101\n3,,101\n4,98,100\n5,,\n")
        assert tradeio._l1_block(path) is not None
        fast, by_rows = both_paths(read_l1, path, "l1")
        assert fast == by_rows
        assert fast[1]["mid2x"] == [0, 0, 200, 200, 198, 198]

    @pytest.mark.parametrize("row", ["1,0,1,B", "1,1,0,S", f"{-INT64},1,1,B"])
    def test_a_row_the_row_parser_counts_malformed_leaves_the_fast_path(self, tmp_path, row):
        path = tmp_path / "t.csv"
        write_lines(path, ["ts,price,qty,aggressor", row] + ["2,100,1,B"] * 200)
        assert tradeio._trade_block(path) is None
        assert read_trades(path).n_malformed == 1

    def test_a_quoted_field_spanning_lines_is_one_row(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["ts,price,qty,aggressor,taker_agent", '1,100,1,B,"a', '2,100,1,S,b"'])
        fast, by_rows = both_paths(read_trades, path, "trades")
        assert fast == by_rows == ("ok", {"ts": [1], "price": [100], "qty": [1], "sign": [1],
                                          "maker_order": [-1], "taker_agent": [-1]}, 0)

    def test_a_mid_past_int64_is_the_row_parsers_error(self, tmp_path):
        path = tmp_path / "l1.csv"
        half = INT64 // 2
        path.write_text(f"ts,best_bid,best_ask\n0,{half},{half + 1}\n")
        assert tradeio._l1_block(path) is None
        with pytest.raises(DataError, match=":2: malformed"):
            read_l1(path)


def traced_peak(fn, *args):
    """Bytes ``tracemalloc`` sees allocated at the peak of one call, above what it started at."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_trade_read_peaks_near_its_block(self, tmp_path):
        # a 2 h dump at 10 trades/s, as an exchange writes it
        rng = np.random.default_rng(11)
        n = 72_000
        ts = 1_700_000_000_000_000_000 + np.sort(rng.integers(0, 7_200 * 10**9, size=n))
        price = 10_000 + rng.integers(-50, 50, size=n)
        qty = rng.geometric(0.5, size=n)
        side = np.where(rng.random(n) < 0.5, "B", "S")
        path = tmp_path / "trades.csv"
        with path.open("w") as fh:
            fh.write("ts,price,qty,aggressor\n")
            fh.writelines(f"{t},{p},{q},{a}\n" for t, p, q, a in
                          zip(ts.tolist(), price.tolist(), qty.tolist(), side.tolist()))
        assert tradeio._trade_block(path) is not None
        read_trades(path)  # one-time allocations (numpy's loadtxt machinery) before tracing
        # the 72k x 4 int64 block is 2.3 MB; a row parser that also kept two
        # columns of -1 peaked at 3.58 MB on this file
        assert traced_peak(read_trades, path) <= 3.4e6


class TestSummary:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "summary.txt"
        write_summary(path, {"seed": 3, "trades": 17, "final_best_bid": ""})
        loaded = dict(line.split("=", 1) for line in path.read_text().splitlines())
        assert loaded == {"seed": "3", "trades": "17", "final_best_bid": ""}
