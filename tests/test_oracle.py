"""True-price series: step lookups, noisy observation, construction, file I/O."""

import numpy as np
import pytest

from primesim.config import ConstantOracle, RandomWalkOracle
from primesim.errors import DataError
from primesim.oracle import (
    PriceSeries,
    constant_series,
    make_series,
    observe,
    series_from_file,
    true_price_at,
    write_series,
)


def linear_scan_price(series, t):
    """Independent reference: scan for the last change at or before t."""
    value = None
    for ts, price in zip(series.times, series.prices):
        if ts <= t:
            value = int(price)
        else:
            break
    return value


class TestTruePrice:
    def test_step_function_between_points(self):
        series = PriceSeries(times=np.array([0, 10]), prices=np.array([100, 105]))
        assert true_price_at(series, 5) == 100

    def test_right_continuous_at_change(self):
        series = PriceSeries(times=np.array([0, 10]), prices=np.array([100, 105]))
        assert true_price_at(series, 10) == 105

    def test_random_queries_match_linear_scan(self):
        rng = np.random.default_rng(0)
        times = np.concatenate([[0], np.sort(rng.choice(np.arange(1, 10**6), 200, replace=False))])
        prices = rng.integers(1, 1000, size=201)
        series = PriceSeries(times=times, prices=prices)
        for t in rng.integers(0, 2 * 10**6, size=500):
            assert true_price_at(series, int(t)) == linear_scan_price(series, int(t))

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            true_price_at(constant_series(100), -1)


class TestValidation:
    def test_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at time 0"):
            PriceSeries(times=np.array([5]), prices=np.array([10]))

    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PriceSeries(times=np.array([0, 3, 3]), prices=np.array([1, 2, 3]))

    def test_prices_positive(self):
        with pytest.raises(ValueError, match="positive"):
            PriceSeries(times=np.array([0, 1]), prices=np.array([5, 0]))


class TestObserve:
    def test_zero_noise_is_exact(self):
        rng = np.random.default_rng(0)
        series = constant_series(123)
        assert all(observe(series, t, 0, rng) == 123 for t in range(50))

    def test_support_and_mean(self):
        rng = np.random.default_rng(1)
        series = constant_series(1000)
        draws = np.asarray([observe(series, 0, 5, rng) for _ in range(100_000)])
        assert draws.min() >= 995 and draws.max() <= 1005
        assert abs(draws.mean() - 1000) < 0.1

    def test_clamped_to_one_tick(self):
        rng = np.random.default_rng(2)
        series = constant_series(2)
        draws = [observe(series, 0, 5, rng) for _ in range(5000)]
        assert min(draws) >= 1

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            observe(constant_series(10), 0, -1, np.random.default_rng(0))


class TestMakeSeries:
    def test_constant(self):
        series = make_series(ConstantOracle(price=1000), 0, np.random.default_rng(0))
        assert list(series.times) == [0]
        assert list(series.prices) == [1000]

    def test_random_walk_increments_zero_mean(self):
        series = make_series(RandomWalkOracle(start=10_000, sigma=1.0, step_ns=10**9),
                             10_000 * 10**9, np.random.default_rng(3))
        inc = np.diff(series.prices.astype(float))
        n = inc.size
        assert n == 10_000
        assert abs(inc.mean()) < 3.0 * inc.std() / np.sqrt(n)

    def test_random_walk_step_grid(self):
        series = make_series(RandomWalkOracle(start=100, sigma=2.0, step_ns=5 * 10**9),
                             60 * 10**9, np.random.default_rng(4))
        assert list(series.times) == [k * 5 * 10**9 for k in range(13)]
        assert series.prices.min() >= 1


class TestSeriesFile:
    def test_round_trip(self, tmp_path):
        series = make_series(RandomWalkOracle(start=500, sigma=3.0, step_ns=10**9),
                             100 * 10**9, np.random.default_rng(5))
        path = tmp_path / "series.csv"
        write_series(series, path)
        loaded = series_from_file(path)
        assert np.array_equal(loaded.times, series.times)
        assert np.array_equal(loaded.prices, series.prices)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,price\n0,100\n")
        with pytest.raises(DataError, match="header"):
            series_from_file(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_ns,price_ticks\n0,100\nfoo,bar\n")
        with pytest.raises(DataError, match="malformed"):
            series_from_file(path)

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("time_ns,price_ticks\n0,100\n\n5,101\n\n")
        loaded = series_from_file(path)
        assert list(loaded.times) == [0, 5]
        assert list(loaded.prices) == [100, 101]

    @pytest.mark.parametrize("row", [f"5,{2**63}", f"{-2**63 - 1},100",
                                     "5,99999999999999999999999"])
    def test_value_outside_int64_names_the_line(self, tmp_path, row):
        path = tmp_path / "series.csv"
        path.write_text(f"time_ns,price_ticks\n0,100\n\n{row}\n")
        with pytest.raises(DataError, match=":4: malformed"):
            series_from_file(path)

    def test_nonpositive_price_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_ns,price_ticks\n0,100\n5,0\n")
        with pytest.raises(DataError):
            series_from_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            series_from_file(tmp_path / "absent.csv")
