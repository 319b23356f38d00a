"""Trade/L1 file ingestion: schemas, sorting, malformed-row policy, round trips."""

import pytest

from primesim.book import Side, Trade
from primesim.errors import DataError
from primesim.kernel import QuoteLog, TradeTape
from primesim.tradeio import (
    QuoteRecord,
    read_l1,
    read_trades,
    read_summary,
    write_l1,
    write_summary,
    write_trades,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestReadTrades:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["ts,price,qty,aggressor",
                           "10,100,2,B", "20,101,1,S", "30,99,4,B"])
        dump = read_trades(path)
        assert len(dump.records) == 3
        assert dump.records[0] == (10, 100, 2, 1)
        assert dump.records[1].sign == -1
        assert dump.n_malformed == 0

    def test_out_of_order_rows_sorted_stably(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["ts,price,qty,aggressor",
                           "30,103,1,B", "10,101,1,B", "10,102,1,S", "20,104,1,B"])
        dump = read_trades(path)
        assert [r.ts for r in dump.records] == [10, 10, 20, 30]
        assert [r.price for r in dump.records] == [101, 102, 104, 103]  # stable at ties

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
        trades = [Trade(ts=5, price=100, qty=2, aggressor=Side.BID, maker_order=1, taker_agent=3),
                  Trade(ts=9, price=99, qty=1, aggressor=Side.ASK, maker_order=2, taker_agent=4)]
        path = tmp_path / "tape.csv"
        write_trades(path, trades)
        dump = read_trades(path)
        assert [(r.ts, r.price, r.qty, r.sign) for r in dump.records] == \
               [(5, 100, 2, 1), (9, 99, 1, -1)]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_trades(tmp_path / "absent.csv")

    def test_tape_columns_written_as_rows(self, tmp_path):
        tape = TradeTape([
            Trade(ts=5, price=100, qty=2, aggressor=Side.BID, maker_order=1, taker_agent=3),
            Trade(ts=9, price=99, qty=1, aggressor=Side.ASK, maker_order=2, taker_agent=4)])
        write_trades(tmp_path / "tape.csv", tape)
        assert (tmp_path / "tape.csv").read_text().splitlines() == [
            "ts,price,qty,aggressor,taker_agent", "5,100,2,B,3", "9,99,1,S,4"]


class TestL1File:
    def test_round_trip_with_absent_sides(self, tmp_path):
        rows = [(0, 99, 101), (5, None, 101), (9, 98, None), (12, 97, 100)]
        path = tmp_path / "l1.csv"
        write_l1(path, rows)
        quotes = read_l1(path)
        assert quotes == [QuoteRecord(0, 99, 101), QuoteRecord(5, None, 101),
                          QuoteRecord(9, 98, None), QuoteRecord(12, 97, 100)]

    def test_quote_log_round_trip(self, tmp_path):
        rows = [(0, None, None), (0, 99, None), (5, 99, 101), (9, None, 101), (12, 97, 100)]
        log = QuoteLog(rows)
        assert list(log.mid2x) == [0, 0, 200, 200, 197]
        write_l1(tmp_path / "l1.csv", log)
        assert read_l1(tmp_path / "l1.csv") == rows

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


class TestSummary:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "summary.txt"
        write_summary(path, {"seed": 3, "trades": 17, "final_best_bid": ""})
        loaded = read_summary(path)
        assert loaded == {"seed": "3", "trades": "17", "final_best_bid": ""}
