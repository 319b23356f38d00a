"""Measurement pipeline against brute-force oracles and constructed datasets."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primesim import impact
from primesim.analysis import impact_report
from primesim.config import load_preset
from primesim.errors import NumericalError
from primesim.impact import (
    Samples,
    Windows,
    adjust,
    bucket_means,
    decay_regression,
    fit_delta,
    fit_power_law,
    fit_scale,
    order_sign_acf,
    resample,
    rolling_volatility,
    signed_power,
    split_by_previous_sign,
    weighted_volume,
)
from primesim.runner import build_simulation
from primesim.tradeio import QuoteLog, TradeTape

import reference
from reference import mid_series_at, time_averaged_mid

NS = 10**9
W5 = 5 * NS


def make_windows(dp_half_ticks, gross=None, q_net=None):
    """Windows with close-open mid2x equal to the given half-tick increments."""
    n = len(dp_half_ticks)
    close = 2000 + np.cumsum(np.asarray(dp_half_ticks, dtype=np.int64))
    return Windows(t=np.arange(n), start_ns=np.arange(n) * W5,
                   open_mid2x=np.concatenate([[2000], close[:-1]]), close_mid2x=close,
                   q_net=np.asarray(q_net if q_net is not None else [0] * n),
                   gross=np.asarray(gross if gross is not None else [10] * n))


def make_samples(q, y, prev_sign=None, q_net=None, t=None):
    """Samples at consecutive window indices unless t is given; q_net is q unless given."""
    n = len(q)
    return Samples(t=np.arange(n) if t is None else np.asarray(t),
                   q=np.asarray(q, dtype=float), y=np.asarray(y, dtype=float),
                   prev_sign=np.zeros(n, dtype=np.int64) if prev_sign is None
                   else np.asarray(prev_sign),
                   q_net=np.asarray(q if q_net is None else q_net))


def make_tape(rows):
    """A trade tape from (ts, price, qty, sign) rows."""
    return TradeTape((ts, price, qty, sign, 0, 0) for ts, price, qty, sign in rows)


# ---------------------------------------------------------------- resampling


def reference_resample(trades, quotes, window_ns):
    """Independent scalar accumulator over (ts, price, qty, sign) and (ts, bid, ask) rows."""
    mid_changes = [(ts, bid + ask) for ts, bid, ask in quotes
                   if bid is not None and ask is not None]
    all_ts = [q[0] for q in quotes] + [t[0] for t in trades]
    t0, t1 = min(all_ts), max(all_ts)
    out = []
    k = 0
    while t0 + (k + 1) * window_ns <= t1:
        lo = t0 + k * window_ns
        hi = lo + window_ns
        open_mid = close_mid = None
        for ts, m in mid_changes:
            if ts <= lo:
                open_mid = m
            if ts <= hi:
                close_mid = m
        q_net = gross = 0
        for ts, _, qty, sign in trades:
            if lo <= ts < hi:
                q_net += sign * qty
                gross += qty
        if open_mid is not None and close_mid is not None:
            out.append((k, lo, open_mid, close_mid, q_net, gross))
        k += 1
    return out


def random_trades(rng):
    trades = []
    t = 0
    for _ in range(800):
        t += int(rng.integers(1, int(0.3 * NS)))
        trades.append((t, 100, int(rng.integers(1, 20)), 1 if rng.random() < 0.5 else -1))
    return trades


def window_rows(windows):
    return list(zip(windows.t.tolist(), windows.start_ns.tolist(), windows.open_mid2x.tolist(),
                    windows.close_mid2x.tolist(), windows.q_net.tolist(), windows.gross.tolist()))


class TestResample:
    def test_net_volume_example(self):
        quotes = QuoteLog([(0, 99, 101), (W5, 100, 102)])
        trades = make_tape([(1 * NS, 100, 200, 1), (2 * NS, 100, 500, -1)])
        windows = resample(trades, quotes)
        assert len(windows) == 1
        assert windows.q_net[0] == -300
        assert windows.gross[0] == 700
        assert windows.dp[0] == 1.0  # (202 - 200) / 2

    def test_quiet_window_carries_mid(self):
        quotes = QuoteLog([(0, 99, 101), (1 * NS, 100, 102)])
        trades = make_tape([(11 * NS, 100, 3, 1)])  # extends the session span
        windows = resample(trades, quotes, W5)
        assert list(windows.t) == [0, 1]
        assert windows.open_mid2x[0] == 200 and windows.close_mid2x[0] == 202
        # no quote inside the second window: mid carried forward
        assert windows.open_mid2x[1] == 202 and windows.close_mid2x[1] == 202
        assert windows.q_net[1] == 0 and windows.gross[1] == 0

    def test_windows_before_first_quote_dropped(self):
        quotes = QuoteLog([(7 * NS, 99, 101), (15 * NS, 100, 102)])
        trades = make_tape([(0, 100, 5, 1)])
        windows = resample(trades, quotes, W5)
        assert list(windows.t) == [2]  # first two windows have no mid

    def test_one_sided_quotes_carry_the_last_mid(self):
        quotes = QuoteLog([(0, None, 101), (2 * NS, 99, None), (6 * NS, 99, 101),
                           (11 * NS, None, 103), (14 * NS, 100, 104), (15 * NS, 100, None),
                           (21 * NS, None, 105)])
        windows = resample(TradeTape(), quotes, W5)
        assert list(windows.t) == [2, 3]  # no two-sided quote by 5 s
        assert list(windows.open_mid2x) == [200, 204]
        assert list(windows.close_mid2x) == [204, 204]

    def test_random_tape_matches_reference(self):
        rng = np.random.default_rng(0)
        quotes = [(0, 100, 102)]
        t = 0
        for _ in range(300):
            t += int(rng.integers(1, int(0.6 * NS)))
            bid = int(rng.integers(95, 105))
            quotes.append((t, bid, bid + int(rng.integers(1, 4))))
        trades = random_trades(rng)
        windows = resample(make_tape(trades), QuoteLog(quotes), W5)
        assert window_rows(windows) == reference_resample(trades, quotes, W5)

    def test_random_one_sided_tape_matches_reference(self):
        rng = np.random.default_rng(1)
        quotes = [(0, None, None)]
        t = 0
        for _ in range(300):
            t += int(rng.integers(0, int(0.6 * NS)))  # equal timestamps too
            bid = int(rng.integers(95, 105))
            ask = bid + int(rng.integers(1, 4))
            roll = rng.random()
            quotes.append((t, None if roll < 0.2 else bid, None if 0.2 <= roll < 0.4 else ask))
        trades = random_trades(rng)
        windows = resample(make_tape(trades), QuoteLog(quotes), W5)
        assert window_rows(windows) == reference_resample(trades, quotes, W5)

    def test_unsorted_trades_rejected(self):
        quotes = QuoteLog([(0, 99, 101), (20 * NS, 99, 101)])
        trades = make_tape([(5 * NS, 100, 1, 1), (1 * NS, 100, 1, 1)])
        with pytest.raises(ValueError, match="sorted"):
            resample(trades, quotes)

    def test_unsorted_quotes_rejected(self):
        quotes = QuoteLog([(0, 99, 101), (20 * NS, 99, 101), (10 * NS, 98, 101)])
        with pytest.raises(ValueError, match="quotes must be time-sorted"):
            resample(TradeTape(), quotes)

    def test_no_quotes_rejected(self):
        with pytest.raises(ValueError, match="no quotes"):
            resample(make_tape([(0, 100, 1, 1), (W5, 100, 1, 1)]), QuoteLog(), W5)

    def test_session_shorter_than_window(self):
        quotes = QuoteLog([(0, 99, 101), (NS, 99, 101)])
        with pytest.raises(ValueError, match="shorter"):
            resample(TradeTape(), quotes, W5)


def random_quote_rows(rng, n):
    """(ts, bid, ask) rows with one-sided rows and equal timestamps."""
    rows, t = [], 0
    for _ in range(n):
        t += int(rng.integers(0, 5))
        bid = int(rng.integers(90, 100))
        roll = rng.random()
        rows.append((t, None if roll < 0.2 else bid,
                     None if 0.2 <= roll < 0.35 else bid + int(rng.integers(1, 4))))
    return rows


def brute_mid(rows, t):
    """Mid of the last two-sided row at or before t, or None."""
    mids = [(bid + ask) / 2.0 for ts, bid, ask in rows
            if ts <= t and bid is not None and ask is not None]
    return mids[-1] if mids else None


class TestMidSeries:
    def test_mid_series_matches_brute_force(self):
        rng = np.random.default_rng(28)
        rows = random_quote_rows(rng, 200)
        grid = np.arange(-2, rows[-1][0] + 3)
        want = [brute_mid(rows, int(t)) for t in grid]
        got = mid_series_at(QuoteLog(rows), grid)
        assert np.array_equal(got, np.asarray([np.nan if m is None else m for m in want]),
                              equal_nan=True)

    def test_time_averaged_mid_matches_brute_force(self):
        rng = np.random.default_rng(29)
        rows = random_quote_rows(rng, 200)
        log = QuoteLog(rows)
        for _ in range(50):
            t_from = int(rng.integers(0, rows[-1][0]))
            t_to = t_from + int(rng.integers(1, 40))
            mids = [brute_mid(rows, t) for t in range(t_from, t_to)]  # one per ns
            if mids[0] is None:
                with pytest.raises(ValueError, match="no mid"):
                    time_averaged_mid(log, t_from, t_to)
            else:
                assert time_averaged_mid(log, t_from, t_to) == pytest.approx(
                    math.fsum(mids) / len(mids), rel=1e-12)


# ------------------------------------------------------------- normalization


def brute_std(values):
    n = len(values)
    mean = math.fsum(values) / n
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))


class TestRollingVolatility:
    def test_constant_dp_unusable(self):
        windows = make_windows([4] * 50)
        sigma = rolling_volatility(windows, horizon_ns=250 * NS)
        assert np.all((sigma == 0) | np.isnan(sigma))

    def test_alternating_closed_form(self):
        n = 200
        h = 50
        windows = make_windows([2 if i % 2 == 0 else -2 for i in range(n)])
        sigma = rolling_volatility(windows, horizon_ns=h * W5)
        # full even-length trailing slice of +-1 ticks: std = sqrt(h/(h-1))
        assert sigma[n - 1] == pytest.approx(math.sqrt(h / (h - 1)), abs=1e-12)

    def test_matches_bruteforce_slices(self):
        rng = np.random.default_rng(1)
        dp = rng.integers(-6, 7, size=300)
        windows = make_windows(list(dp))
        h = 72
        sigma = rolling_volatility(windows, horizon_ns=h * W5)
        for i in (2, 5, 73, 150, 299):
            lo = max(0, i - h)
            expected = brute_std(windows.dp[lo:i].tolist())
            assert sigma[i] == pytest.approx(expected, abs=1e-12)

    def test_insufficient_history_flagged(self):
        windows = make_windows([2, -2, 2, -2])
        sigma = rolling_volatility(windows, horizon_ns=250 * NS)
        assert np.isnan(sigma[0]) and np.isnan(sigma[1])
        assert np.isfinite(sigma[2]) and np.isfinite(sigma[3])

    def test_min_periods_widens_burn_in(self):
        windows = make_windows([2, -2] * 20)
        sigma = rolling_volatility(windows, horizon_ns=250 * NS, min_periods=10)
        assert np.all(np.isnan(sigma[:10]))
        assert np.all(np.isfinite(sigma[10:]))


class TestWeightedVolume:
    def test_constant_gross(self):
        windows = make_windows([0] * 40, gross=[7] * 40)
        vol = weighted_volume(windows, horizon_ns=50 * W5)
        assert np.all(np.isnan(vol[:1]))
        assert vol[10] == pytest.approx(7.0, abs=1e-12)

    def test_single_spike_weighting(self):
        # history (0,...,0,g) of length n: weighted mean = g*n / sum(1..n) = 2g/(n+1)
        n, g = 10, 30
        windows = make_windows([0] * (n + 1), gross=[0] * (n - 1) + [g, 0])
        vol = weighted_volume(windows, horizon_ns=n * W5)
        assert vol[n] == pytest.approx(2 * g / (n + 1), abs=1e-12)

    def test_matches_explicit_loop(self):
        rng = np.random.default_rng(2)
        gross = list(rng.integers(0, 50, size=200))
        windows = make_windows([0] * 200, gross=gross)
        h = 30
        vol = weighted_volume(windows, horizon_ns=h * W5)
        for i in (1, 3, 31, 100, 199):
            lo = max(0, i - h)
            hist = gross[lo:i]
            weights = list(range(1, len(hist) + 1))
            expected = math.fsum(w * g for w, g in zip(weights, hist)) / math.fsum(weights)
            if expected > 0:
                assert vol[i] == pytest.approx(expected, abs=1e-12)
            else:
                assert np.isnan(vol[i])

    def test_all_zero_history_unusable(self):
        windows = make_windows([0] * 10, gross=[0] * 10)
        vol = weighted_volume(windows, horizon_ns=50 * W5)
        assert np.all(np.isnan(vol))

    @settings(max_examples=200, deadline=None)
    @given(gross=st.lists(st.one_of(st.just(0), st.integers(0, 50), st.integers(0, 10**9)),
                          max_size=300),
           h=st.integers(1, 80), min_periods=st.integers(-1, 90))
    def test_prefix_sums_equal_the_dot_product_loop_bit_for_bit(self, gross, h, min_periods):
        windows = make_windows([0] * len(gross), gross=np.asarray(gross, dtype=np.int64))
        vol = weighted_volume(windows, horizon_ns=h * W5, min_periods=min_periods)
        want = reference.weighted_volume(gross, h, min_periods)
        assert np.array_equal(vol, want, equal_nan=True)

    def test_wrapped_running_sums_keep_window_sums_exact(self):
        # sum(j g_j) over the series is ~5e19 and wraps int64; each 3-window sum is < 2**53
        gross = np.full(300, 2**50, dtype=np.int64)
        gross[::7] = 0
        windows = make_windows([0] * 300, gross=gross)
        vol = weighted_volume(windows, horizon_ns=3 * W5)
        assert np.array_equal(vol, reference.weighted_volume(gross, 3), equal_nan=True)
        assert vol[13] == 2.0**50  # windows 10-12 are all 2**50

    def test_zero_runs_and_burn_in_match_the_loop(self):
        # runs of zero volume longer than the horizon make all-zero histories mid-series
        gross = [0] * 5 + [3, 0, 1] + [0] * 12 + [7] * 10 + [0] * 9
        windows = make_windows([0] * len(gross), gross=gross)
        for min_periods in (1, 2, 8, 9):  # 9 is more than the 8-window horizon holds
            vol = weighted_volume(windows, horizon_ns=8 * W5, min_periods=min_periods)
            want = reference.weighted_volume(gross, 8, min_periods)
            assert np.array_equal(vol, want, equal_nan=True)
            assert np.all(np.isnan(vol[:min_periods]))
        assert np.all(np.isnan(vol))
        vol = weighted_volume(windows, horizon_ns=8 * W5)
        assert vol[15] > 0 and np.all(np.isnan(vol[16:21])) and vol[21] > 0


class TestAdjust:
    def test_unit_normalization(self):
        windows = make_windows([2, 2, 2], gross=[5, 5, 5], q_net=[5, 5, 5])
        sigma = np.array([np.nan, 1.0, 1.0])
        vol = np.array([np.nan, 5.0, 5.0])
        samples, skipped = adjust(windows, sigma, vol)
        assert skipped == 1
        assert samples.q[0] == 1.0 and samples.y[0] == 1.0

    def test_zero_net_volume(self):
        windows = make_windows([4], gross=[10], q_net=[0])
        samples, _ = adjust(windows, np.array([2.0]), np.array([5.0]))
        assert samples.q[0] == 0.0
        assert samples.y[0] == 1.0

    def test_conservation_of_counts(self):
        rng = np.random.default_rng(3)
        n = 100
        windows = make_windows(list(rng.integers(-4, 5, size=n)),
                               gross=list(rng.integers(0, 20, size=n)))
        sigma = rolling_volatility(windows, horizon_ns=20 * W5)
        vol = weighted_volume(windows, horizon_ns=20 * W5)
        samples, skipped = adjust(windows, sigma, vol)
        assert len(samples) + skipped == n

    def test_prev_sign_attached(self):
        windows = make_windows([2, 2, 2], q_net=[9, -3, 0], gross=[9, 3, 1])
        sigma = np.array([1.0, 1.0, 1.0])
        vol = np.array([5.0, 5.0, 5.0])
        samples, _ = adjust(windows, sigma, vol)
        assert list(samples.prev_sign) == [0, 1, -1]

    def test_prev_sign_of_skipped_window_kept(self):
        windows = make_windows([2, 2, 2], q_net=[-9, 3, 0], gross=[9, 3, 1])
        samples, skipped = adjust(windows, np.array([1.0, np.nan, 1.0]), np.full(3, 5.0))
        assert skipped == 1
        assert list(samples.t) == [0, 2] and list(samples.prev_sign) == [0, 1]

    def test_raw_net_volume_attached(self):
        windows = make_windows([2, 2, 2], q_net=[9, -3, 0], gross=[9, 3, 1])
        samples, _ = adjust(windows, np.ones(3), np.full(3, 5.0))
        assert list(samples.q_net) == [9, -3, 0]


# ------------------------------------------------------------------- fitting


def synthetic_samples(rng, n, delta, noise_sd=0.0, k=1.0):
    q = rng.uniform(-2.0, 2.0, size=n)
    y = k * signed_power(q, delta)
    if noise_sd > 0:
        y = y + rng.normal(0.0, noise_sd * y.std(), size=n)
    return make_samples(q, y)


class TestFitDelta:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(4)
        samples = synthetic_samples(rng, 50_000, delta=0.59)
        fit = fit_delta(samples)
        assert abs(fit.delta - 0.59) < 0.01
        assert fit.k == pytest.approx(1.0, abs=0.01)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(5)
        samples = synthetic_samples(rng, 50_000, delta=0.59, noise_sd=0.1)
        fit = fit_delta(samples)
        assert abs(fit.delta - 0.59) < 0.05

    def test_scale_recovery(self):
        rng = np.random.default_rng(6)
        samples = synthetic_samples(rng, 20_000, delta=0.8, k=2.5)
        fit = fit_delta(samples)
        assert fit.k == pytest.approx(2.5, abs=0.05)

    def test_requires_enough_samples(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match="100"):
            fit_delta(synthetic_samples(rng, 99, delta=0.5))

    def test_degenerate_all_zero_q(self):
        samples = make_samples(np.zeros(200), np.ones(200))
        with pytest.raises(ValueError, match="unidentifiable"):
            fit_delta(samples)


class TestFitScale:
    def test_matches_fit_delta_at_its_optimum(self):
        samples = synthetic_samples(np.random.default_rng(8), 5_000, delta=0.6, noise_sd=0.2)
        fit = fit_delta(samples)
        assert fit_scale(samples.q, samples.y, fit.delta) == (fit.k, fit.sse)

    def test_closed_form(self):
        q = np.array([-4.0, 1.0, 9.0])
        y = np.array([-1.0, 2.0, 2.0])
        x = signed_power(q, 0.5)
        k, sse = fit_scale(q, y, 0.5)
        assert k == pytest.approx(np.dot(x, y) / np.dot(x, x))
        assert sse == pytest.approx(np.sum((y - k * x) ** 2))

    def test_all_zero_net_volume_rejected(self):
        with pytest.raises(ValueError, match="all net volumes are zero"):
            fit_scale(np.zeros(5), np.ones(5), 0.5)

    def test_pinned_delta_report_uses_helper(self):
        config = replace(load_preset("santa-fe"), session_ns=120 * NS)
        sim = build_simulation(config)
        sim.run_until(config.session_ns)
        report = impact_report(sim.trades, sim.quotes, window_ns=NS,
                               horizon_ns=30 * NS, delta=0.55, n_buckets=5, min_periods=10)
        assert len(report.samples) > 50
        assert (report.delta_fit.k, report.delta_fit.sse) == \
            fit_scale(report.samples.q, report.samples.y, 0.55)
        assert report.delta_fit.delta == 0.55 and report.delta_fit.n == len(report.samples)


def lattice_samples(rng, n, prev_sign=False):
    """Net volumes on a lot-size lattice (4Z) over a jittered normalizing volume.

    Within |q_net| <= 16 the +-10% jitter keeps each value's q range apart from
    its neighbours', as whole-lot trading does in the simulator and real dumps.
    """
    q_net = 4 * rng.integers(-4, 5, size=n)
    v = 12.0 * rng.uniform(0.9, 1.1, size=n)
    q = q_net / v
    y = signed_power(q, 0.6) + rng.normal(0.0, 0.5, size=n)
    prev = rng.choice([-1, 1], size=n) if prev_sign else np.zeros(n, dtype=int)
    return make_samples(q, y, prev, q_net)


def assert_no_value_split(samples, stats):
    """Each q_net value's q range lies inside one bucket's [lo, hi]."""
    q, q_net = samples.q, samples.q_net
    for value in np.unique(q_net):
        a, b = q[q_net == value].min(), q[q_net == value].max()
        inside = (stats.lo <= a) & (b <= stats.hi)
        assert inside.sum() == 1, f"q_net={value} spans buckets"


def equal_count_buckets(samples, n_buckets, delta):
    """The equal-count bucketing that tie-free samples must still reproduce."""
    q, y = samples.q, samples.y
    key = signed_power(q, delta)
    chunks = np.array_split(np.argsort(q, kind="stable"), n_buckets)
    return (np.asarray([key[c[0]] for c in chunks]), np.asarray([key[c[-1]] for c in chunks]),
            np.asarray([np.mean(key[c]) for c in chunks]),
            np.asarray([np.mean(y[c]) for c in chunks]),
            np.asarray([len(c) for c in chunks]))


@st.composite
def bucket_inputs(draw):
    """q, an optional q_net with runs of ties, and a bucket count up to past the sample."""
    n = draw(st.integers(1, 60))
    net = draw(st.none() | st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    if net is None:
        q_net = None
        q = np.asarray(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))) / 2.0
    else:
        q_net = np.asarray(net)
        scale = draw(st.lists(st.floats(0.9, 1.1), min_size=n, max_size=n))
        q = q_net / np.asarray(scale)
    return q, q_net, draw(st.integers(1, n + 5))


class TestBucketChunks:
    @settings(max_examples=300, deadline=None)
    @given(bucket_inputs())
    @example((np.full(12, 0.5), None, 4))                        # every q tied
    @example((np.full(12, 0.5), np.full(12, 3), 4))              # every q_net tied
    @example((np.linspace(-1, 1, 12), np.repeat([-2, 0, 1, 5], 3), 5))  # runs of q_net ties
    @example((np.arange(5.0), None, 9))                          # more buckets than samples
    @example((np.asarray([0.3]), None, 1))                       # one sample
    @example((np.asarray([0.3]), np.asarray([1]), 3))           # one sample, more buckets
    def test_chunks_match_the_unique_merge(self, inputs):
        q, q_net, n_buckets = inputs
        q_net = q if q_net is None else q_net  # without net volumes, equal q tie
        got = impact._bucket_chunks(q, q_net, n_buckets)
        want = reference.bucket_chunks(q, q_net, n_buckets)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


class TestBucketMeans:
    def test_linear_data_collinear_means(self):
        rng = np.random.default_rng(8)
        q = rng.uniform(-1, 1, size=5000)
        samples = make_samples(q, q)
        stats = bucket_means(samples, 1.0, n_buckets=20)
        slope, intercept = np.polyfit(stats.mean_q, stats.mean_y, 1)
        resid = stats.mean_y - (slope * stats.mean_q + intercept)
        ss_tot = np.sum((stats.mean_y - stats.mean_y.mean()) ** 2)
        assert 1.0 - np.sum(resid**2) / ss_tot > 0.999

    def test_concavity_straightened_by_transform(self):
        rng = np.random.default_rng(9)
        q = rng.uniform(-2, 2, size=20_000)
        samples = make_samples(q, signed_power(q, 0.5))
        raw = bucket_means(samples, 1.0, n_buckets=20)
        # concave for q > 0: second differences of mean_y vs mean_q negative
        pos = raw.mean_q > 0
        y_pos = raw.mean_y[pos]
        d2 = np.diff(y_pos, 2)
        assert np.all(d2 < 0)
        transformed = bucket_means(samples, 0.5, n_buckets=20)
        slope, intercept = np.polyfit(transformed.mean_q, transformed.mean_y, 1)
        resid = transformed.mean_y - (slope * transformed.mean_q + intercept)
        assert np.max(np.abs(resid)) < 1e-2

    def test_counts_differ_by_at_most_one(self):
        rng = np.random.default_rng(10)
        samples = synthetic_samples(rng, 1013, delta=0.5)
        stats = bucket_means(samples, 1.0, n_buckets=20)
        assert stats.count.sum() == 1013
        assert stats.count.max() - stats.count.min() <= 1

    def test_fitted_transform_straightens_bucket_curve(self):
        # linear fit through bucket means explains more variance after the
        # abscissa is transformed by the fitted exponent
        rng = np.random.default_rng(22)
        samples = synthetic_samples(rng, 30_000, delta=0.45, noise_sd=0.2)
        fit = fit_delta(samples)

        def bucket_r2(delta):
            stats = bucket_means(samples, delta, n_buckets=20)
            slope, intercept = np.polyfit(stats.mean_q, stats.mean_y, 1)
            resid = stats.mean_y - (slope * stats.mean_q + intercept)
            ss_tot = np.sum((stats.mean_y - stats.mean_y.mean()) ** 2)
            return 1.0 - np.sum(resid**2) / ss_tot

        assert bucket_r2(fit.delta) > bucket_r2(1.0)

    def test_lattice_net_volume_never_split(self):
        rng = np.random.default_rng(23)
        samples = lattice_samples(rng, 7000)
        stats = bucket_means(samples, 1.0, n_buckets=20)
        assert stats.count.sum() == 7000
        # nine lattice values cannot fill twenty buckets
        assert len(stats.count) <= 9
        assert_no_value_split(samples, stats)
        assert np.all(np.diff(stats.mean_y) > 0)

    def test_exact_q_ties_kept_together_without_net_volume(self):
        rng = np.random.default_rng(24)
        q = np.round(rng.uniform(-1, 1, size=2000), 1)
        samples = make_samples(q, q)
        stats = bucket_means(samples, 1.0, n_buckets=20)
        assert stats.count.sum() == 2000
        assert np.all(stats.hi[:-1] < stats.lo[1:])

    @pytest.mark.parametrize("delta", [1.0, 0.6])
    @pytest.mark.parametrize("with_net_volume", [False, True])
    def test_tie_free_samples_bucketed_as_equal_count(self, delta, with_net_volume):
        rng = np.random.default_rng(25)
        n = 1013
        q_net = rng.permutation(np.arange(-500, 513))
        q = q_net / rng.uniform(9.0, 11.0, size=n)
        samples = make_samples(q, rng.normal(size=n),
                               q_net=q_net if with_net_volume else None)
        stats = bucket_means(samples, delta, n_buckets=20)
        want = equal_count_buckets(samples, 20, delta)
        got = (stats.lo, stats.hi, stats.mean_q, stats.mean_y, stats.count)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_requires_a_bucket(self):
        rng = np.random.default_rng(26)
        with pytest.raises(ValueError, match="bucket"):
            bucket_means(synthetic_samples(rng, 100, delta=0.5), 1.0, n_buckets=0)


class TestSplitByPreviousSign:
    def make(self, rng, n, offset=0.0):
        q = rng.uniform(-1, 1, size=n)
        prev = rng.choice([-1, 1], size=n)
        y = signed_power(q, 0.6) + rng.normal(0, 0.1, size=n) + offset * prev
        return make_samples(q, y, prev)

    def test_independent_data_groups_agree(self):
        rng = np.random.default_rng(11)
        samples = self.make(rng, 40_000)
        buy, sell = split_by_previous_sign(samples, 1.0)
        for b in range(len(buy.count)):
            n_b, n_s = buy.count[b], sell.count[b]
            pooled_se = 0.1 * math.sqrt(1.0 / n_b + 1.0 / n_s)
            assert abs(buy.mean_y[b] - sell.mean_y[b]) < 3.5 * pooled_se

    def test_constructed_offset_recovered(self):
        rng = np.random.default_rng(12)
        samples = self.make(rng, 40_000, offset=-0.1)
        buy, sell = split_by_previous_sign(samples, 1.0)
        gaps = sell.mean_y - buy.mean_y
        assert np.nanmean(gaps) == pytest.approx(0.2, abs=0.02)
        assert np.mean(gaps > 0) > 0.9

    def test_counts_partition_nonzero_prev(self):
        rng = np.random.default_rng(13)
        base = self.make(rng, 5000)
        samples = make_samples(np.append(base.q, np.full(50, 0.1)),
                               np.append(base.y, np.full(50, 0.1)),
                               np.append(base.prev_sign, np.zeros(50, dtype=int)),
                               t=np.append(base.t, 10**6 + np.arange(50)))
        buy, sell = split_by_previous_sign(samples, 1.0)
        assert buy.count.sum() + sell.count.sum() == 5000

    def test_single_sided_history_rejected(self):
        samples = make_samples(0.1 * np.arange(100), np.full(100, 0.1), np.ones(100, dtype=int))
        with pytest.raises(ValueError, match="both"):
            split_by_previous_sign(samples, 1.0)

    def test_shared_edges(self):
        rng = np.random.default_rng(14)
        samples = self.make(rng, 10_000)
        buy, sell = split_by_previous_sign(samples, 1.0)
        assert np.array_equal(buy.lo, sell.lo)
        assert np.array_equal(buy.hi, sell.hi)

    def test_lattice_edges_shared_and_never_split(self):
        rng = np.random.default_rng(27)
        samples = lattice_samples(rng, 7000, prev_sign=True)
        buy, sell = split_by_previous_sign(samples, 1.0, n_buckets=20)
        assert buy.count.sum() + sell.count.sum() == 7000
        assert np.array_equal(buy.lo, sell.lo)
        assert np.array_equal(buy.hi, sell.hi)
        assert_no_value_split(samples, buy)


def regression_samples(rng, n, kernel, delta=0.59):
    """y responds to lagged adjusted sizes through the given kernel."""
    q = rng.normal(0.0, 1.0, size=n)
    x = signed_power(q, delta)
    y = np.zeros(n)
    for lag, coef in enumerate(kernel):
        if coef != 0.0:
            y[lag:] += coef * x[: n - lag]
    return make_samples(q, y)


class TestDecayRegression:
    def test_contemporaneous_only(self):
        rng = np.random.default_rng(15)
        samples = regression_samples(rng, 1500, kernel=[1.0], delta=0.59)
        kernel = decay_regression(samples, delta=0.59, max_lag=100)
        assert kernel.beta[0] == pytest.approx(1.0, abs=0.02)
        assert np.max(np.abs(kernel.beta[1:])) < 0.02

    def test_one_lag_kernel_recovered(self):
        rng = np.random.default_rng(16)
        samples = regression_samples(rng, 1500, kernel=[1.0, -0.05], delta=0.59)
        kernel = decay_regression(samples, delta=0.59, max_lag=100)
        assert kernel.beta[0] == pytest.approx(1.0, abs=0.02)
        assert kernel.beta[1] == pytest.approx(-0.05, abs=0.02)
        assert np.max(np.abs(kernel.beta[2:])) < 0.02
        assert kernel.cumulative[1] == pytest.approx(0.95, abs=0.03)

    def test_white_noise_betas_within_three_se(self):
        rng = np.random.default_rng(18)
        n = 2000
        q = rng.normal(0.0, 1.0, size=n)
        y = rng.normal(0.0, 1.0, size=n)
        samples = make_samples(q, y)
        kernel = decay_regression(samples, delta=0.59, max_lag=100)
        assert np.all(np.abs(kernel.beta) <= 3.0 * kernel.stderr)

    def test_requires_consecutive_rows(self):
        rng = np.random.default_rng(18)
        samples = regression_samples(rng, 1500, kernel=[1.0])
        kept = samples.t % 7 != 0  # punch holes
        sparse = make_samples(samples.q[kept], samples.y[kept], t=samples.t[kept])
        with pytest.raises(ValueError, match="consecutive"):
            decay_regression(sparse, delta=0.59, max_lag=100)

    def test_rows_need_a_full_lag_window(self):
        rng = np.random.default_rng(19)
        samples = regression_samples(rng, 1500, kernel=[1.0, -0.05])
        kept = ~np.isin(samples.t, [3, 700, 701, 1000])
        holed = make_samples(samples.q[kept], samples.y[kept], t=samples.t[kept])
        run, expected = 0, 0  # positions preceded by max_lag present ones, counted one by one
        for present in kept:
            run = run + 1 if present else 0
            expected += run >= 21
        n_rows = decay_regression(holed, delta=0.59, max_lag=20).n_rows
        assert n_rows == expected == 676 + 278 + 479

    def test_rank_deficient_design(self):
        samples = make_samples(np.ones(1000), np.ones(1000))
        with pytest.raises(NumericalError, match="cond"):
            decay_regression(samples, delta=0.59, max_lag=100)

    @pytest.mark.parametrize("n, holes, max_lag, n_rows", [
        (7200, [], 100, 7100),                          # many blocks and a part block
        (1124, [], 100, 1024),                          # exactly two blocks
        (2000, [3, 700, 701, 1000], 100, 1693),         # gaps restart the lag window
        (400, [150], 20, 359),                          # less than one block
    ])
    def test_blocked_sums_match_the_dense_solve(self, n, holes, max_lag, n_rows):
        rng = np.random.default_rng(n)
        samples = regression_samples(rng, n, kernel=[1.0, -0.3, 0.1])
        kept = ~np.isin(samples.t, holes)
        noise = rng.normal(0.0, 0.5, size=int(kept.sum()))
        samples = make_samples(samples.q[kept], samples.y[kept] + noise, t=samples.t[kept])
        got = decay_regression(samples, delta=0.59, max_lag=max_lag)
        want = reference.decay_regression(samples, delta=0.59, max_lag=max_lag)
        assert got.n_rows == want.n_rows == n_rows
        assert got.cond == pytest.approx(want.cond, rel=1e-12)
        for name in ("beta", "cumulative", "stderr"):
            value = getattr(want, name)
            np.testing.assert_allclose(getattr(got, name), value, rtol=1e-12,
                                       atol=1e-12 * np.abs(value).max())

    @pytest.mark.parametrize("q", [np.ones(1000), np.tile([1.0, -2.0], 500)])
    def test_rank_deficient_like_the_dense_solve(self, q):
        # constant q makes every lag column equal; period-2 q makes lags 0 and 2 equal
        samples = make_samples(q, np.ones(len(q)))
        for solve in (decay_regression, reference.decay_regression):
            with pytest.raises(NumericalError, match="rank-deficient"):
                solve(samples, delta=0.59, max_lag=100)

    def test_traced_peak_is_a_few_blocks_not_the_design(self):
        # 7,200 consecutive windows at K=100: the dense design alone is 7,100 x 101 x 8 B = 5.7 MB
        rng = np.random.default_rng(7200)
        samples = regression_samples(rng, 7200, kernel=[1.0, -0.3, 0.1])
        decay_regression(samples, delta=0.59)  # one-time allocations before tracing
        tracemalloc.start()
        try:
            decay_regression(samples, delta=0.59)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            reference.decay_regression(samples, delta=0.59, max_lag=100)
            dense_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6
        assert dense_peak > 5.7e6


def acf_double_loop(signs, max_lag):
    s = [float(v) for v in signs]
    n = len(s)
    mean = math.fsum(s) / n
    z = [v - mean for v in s]
    denom = math.fsum(v * v for v in z)
    return [math.fsum(z[t] * z[t + lag] for t in range(n - lag)) / denom
            for lag in range(1, max_lag + 1)]


class TestOrderSignAcf:
    def test_iid_signs_null(self):
        rng = np.random.default_rng(19)
        signs = rng.choice([-1, 1], size=100_000)
        acf = order_sign_acf(signs, max_lag=100)
        inside = np.abs(acf) < 3.0 / math.sqrt(signs.size)
        assert inside.mean() >= 0.95

    def test_alternating_signs(self):
        n = 10_000
        signs = np.tile([1, -1], n // 2)
        acf = order_sign_acf(signs, max_lag=2)
        assert acf[0] == pytest.approx(-1.0, abs=2.0 / n)
        assert acf[1] == pytest.approx(1.0, abs=2.0 / n)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(20)
        signs = rng.choice([-1, 1], size=1000)
        acf = order_sign_acf(signs, max_lag=40)
        expected = acf_double_loop(signs, 40)
        assert np.max(np.abs(acf - np.asarray(expected))) < 1e-12

    def test_constant_stream_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            order_sign_acf(np.ones(2000), max_lag=10)

    def test_requires_enough_signs(self):
        with pytest.raises(ValueError, match="need"):
            order_sign_acf(np.tile([1, -1], 100), max_lag=100)

    def test_rejects_nonsign_values(self):
        with pytest.raises(ValueError, match="-1 or \\+1"):
            order_sign_acf(np.array([1, 0, -1] * 400), max_lag=10)


class TestFitPowerLaw:
    def test_exact_power_law(self):
        lags = np.arange(1, 41)
        fit = fit_power_law(lags**-0.5)
        assert fit.alpha == pytest.approx(0.5, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.c == pytest.approx(1.0, abs=1e-12)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(21)
        lags = np.arange(1, 101)
        values = 2.0 * lags**-0.7 * np.exp(rng.normal(0, 0.05, size=100))
        fit = fit_power_law(values)
        assert fit.alpha == pytest.approx(0.7, abs=0.05)

    def test_negative_values_excluded(self):
        lags = np.arange(1, 21)
        values = lags**-0.5
        values[3] = -1.0
        fit = fit_power_law(values)
        assert fit.n == 19

    def test_all_negative_rejected(self):
        with pytest.raises(NumericalError, match="positive"):
            fit_power_law(-np.arange(1.0, 21.0))
