"""Trade/L1 file ingestion: schemas, sorting, malformed-row policy, round trips."""

import pytest

from primesim.errors import DataError
from primesim.kernel import QuoteLog, TradeTape
from primesim.tradeio import (
    read_l1,
    read_trades,
    read_summary,
    write_l1,
    write_summary,
    write_trades,
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
        write_trades(path, trades)
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
        write_trades(tmp_path / "tape.csv", tape)
        assert (tmp_path / "tape.csv").read_text().splitlines() == [
            "ts,price,qty,aggressor,taker_agent", "5,100,2,B,3", "9,99,1,S,4"]


class TestL1File:
    def test_round_trip_with_absent_sides(self, tmp_path):
        rows = [(0, 99, 101), (5, None, 101), (9, 98, None), (12, 97, 100)]
        path = tmp_path / "l1.csv"
        write_l1(path, QuoteLog(rows))
        quotes = read_l1(path)
        assert isinstance(quotes, QuoteLog)
        assert quote_rows(quotes) == [(0, 99, 101), (5, None, 101), (9, 98, None), (12, 97, 100)]
        assert list(quotes.mid2x) == [200, 200, 200, 197]

    def test_quote_log_round_trip(self, tmp_path):
        rows = [(0, None, None), (0, 99, None), (5, 99, 101), (9, None, 101), (12, 97, 100)]
        log = QuoteLog(rows)
        assert list(log.mid2x) == [0, 0, 200, 200, 197]
        write_l1(tmp_path / "l1.csv", log)
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

    @pytest.mark.parametrize("row", ["5,0,101", "5,99,-2", f"5,{2**63},101"])
    def test_price_outside_ticks_is_malformed(self, tmp_path, row):
        path = tmp_path / "l1.csv"
        path.write_text(f"ts,best_bid,best_ask\n0,99,101\n{row}\n")
        with pytest.raises(DataError, match=":3: malformed"):
            read_l1(path)


class TestSummary:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "summary.txt"
        write_summary(path, {"seed": 3, "trades": 17, "final_best_bid": ""})
        loaded = read_summary(path)
        assert loaded == {"seed": "3", "trades": "17", "final_best_bid": ""}
