"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
and measured values. The heavy fixtures (the two-hour reference session) are
shared across criteria 4 and 5.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from primesim.agents import ZiMarketAgent, DarpMarketAgent
from primesim.book import LimitOrder, OrderBook, Side
from primesim.calibrate import tune_darp
from primesim.config import ConstantOracle, ZiMarketGroup, load_preset, loads_config
from primesim.darp import DarpParams, generate_signs
from primesim.impact import (
    Samples,
    adjust,
    bucket_means,
    decay_regression,
    fit_delta,
    fit_power_law,
    order_sign_acf,
    resample,
    rolling_volatility,
    signed_power,
    weighted_volume,
)
from primesim.oracle import true_price_at
from primesim.runner import build_simulation, run_simulation

from reference import ReferenceBook, mid_series_at, time_averaged_mid

NS = 10**9


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:>2} {'PASS' if ok else 'FAIL'}: {detail}")


# The documented 2-hour reference session used by criteria 4 and 5: the
# zero-intelligence ecology over a wide tick grid with a linearly seeded book,
# resampled at the 1-second resolution of the reference bucket analysis.
SANTA_FE_2H = """
seed: 1
session: 2h
book: {start_price: 500, half_width: 200, slope: 3}
agents:
  zi_limit: {count: 1000, wake_rate: 0.2, p_cancel: 0.5, mode: santa_fe, band_low: 1, band_high: 1000, size: 1}
  zi_market: {count: 30, wake_rate: 0.1, mode: santa_fe, size: 4}
"""


@pytest.fixture(scope="module")
def santa_fe_session():
    t0 = time.perf_counter()
    config = loads_config(SANTA_FE_2H)
    sim = build_simulation(config)
    sim.run_until(config.session_ns)
    windows = resample(sim.trades, sim.quotes, window_ns=1 * NS)
    sigma = rolling_volatility(windows, min_periods=60)
    volume = weighted_volume(windows, min_periods=60)
    samples, _ = adjust(windows, sigma, volume)
    fit = fit_delta(samples)
    elapsed = time.perf_counter() - t0
    return {"samples": samples, "fit": fit, "elapsed": elapsed, "sim": sim}


class TestCriterion01MatchingOracle:
    def test_matching_oracle_equivalence(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        book = OrderBook()
        ref = ReferenceBook()
        book_tape, ref_tape = [], []
        issued = []
        next_id = 1
        for ts in range(10_000):
            roll = rng.random()
            if roll < 0.6:
                agent = int(rng.integers(5))
                side = Side.BID if rng.random() < 0.5 else Side.ASK
                price = int(rng.integers(91, 111))
                qty = int(rng.integers(1, 11))
                book_tape += book.submit_limit(
                    LimitOrder(id=next_id, agent=agent, side=side, price=price, qty=qty, ts=ts))
                ref_tape += ref.submit_limit(next_id, agent, side, price, qty, ts)
                issued.append(next_id)
                next_id += 1
            elif roll < 0.8:
                agent = int(rng.integers(5))
                side = Side.BID if rng.random() < 0.5 else Side.ASK
                qty = int(rng.integers(1, 11))
                book_tape += book.submit_market(agent, side, qty, ts).trades
                ref_tape += ref.submit_market(agent, side, qty, ts)
            elif issued:
                oid = issued[int(rng.integers(len(issued)))]
                book.cancel(oid)
                ref.cancel(oid)
            assert not book.crossed
        elapsed = time.perf_counter() - t0
        tapes_equal = book_tape == ref_tape
        books_equal = book.dump() == ref.dump()
        ok = tapes_equal and books_equal and elapsed < 5.0
        report(1, ok, f"10^4 random ops vs naive matcher: tapes_equal={tapes_equal} "
                      f"books_equal={books_equal} elapsed={elapsed:.2f}s (< 5 s)")
        assert ok


class TestCriterion02DeltaRecovery:
    def test_delta_recovery(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(59)
        n = 50_000
        q = rng.uniform(-2.0, 2.0, size=n)
        clean = signed_power(q, 0.59)
        t, prev = np.arange(n), np.zeros(n, dtype=int)
        noiseless = Samples(t=t, q=q, y=clean, prev_sign=prev, q_net=q)
        fit_clean = fit_delta(noiseless)
        noisy_y = clean + rng.normal(0.0, 0.1 * clean.std(), size=n)
        noisy = Samples(t=t, q=q, y=noisy_y, prev_sign=prev, q_net=q)
        fit_noisy = fit_delta(noisy)
        elapsed = time.perf_counter() - t0
        ok = (abs(fit_clean.delta - 0.59) < 0.01
              and abs(fit_noisy.delta - 0.59) < 0.05
              and elapsed < 10.0)
        report(2, ok, f"delta recovery: clean={fit_clean.delta:.4f} (+-0.01) "
                      f"noisy={fit_noisy.delta:.4f} (+-0.05) elapsed={elapsed:.2f}s (< 10 s)")
        assert ok


class TestCriterion03KernelRecovery:
    def test_kernel_recovery(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(3)
        n = 1600
        true_kernel = np.zeros(101)
        true_kernel[0] = 1.0
        true_kernel[1] = -0.05
        q = rng.normal(0.0, 1.0, size=n)
        x = signed_power(q, 0.59)
        y = np.zeros(n)
        for lag, coef in enumerate(true_kernel):
            if coef != 0.0:
                y[lag:] += coef * x[: n - lag]
        samples = Samples(t=np.arange(n), q=q, y=y, prev_sign=np.zeros(n, dtype=int), q_net=q)
        kernel = decay_regression(samples, delta=0.59, max_lag=100)
        err = np.max(np.abs(kernel.beta - true_kernel))
        elapsed = time.perf_counter() - t0
        ok = err < 0.02 and elapsed < 30.0
        report(3, ok, f"kernel recovery: max |beta - truth| = {err:.2e} (< 0.02) "
                      f"elapsed={elapsed:.2f}s (< 30 s)")
        assert ok


class TestCriterion04SantaFeConcavity:
    def test_concavity_and_delta_range(self, santa_fe_session):
        fit = santa_fe_session["fit"]
        buckets = bucket_means(santa_fe_session["samples"], 1.0, n_buckets=20)
        violations = int(np.sum(np.diff(buckets.mean_y) < 0))
        monotone_ok = violations <= 1
        delta_ok = 0.3 < fit.delta < 0.95
        time_ok = santa_fe_session["elapsed"] < 120.0
        ok = monotone_ok and delta_ok and time_ok
        report(4, ok,
               f"2h zero-intelligence run: bucket violations={violations} (<= 1 tolerated), "
               f"delta={fit.delta:.3f} (in (0.3, 0.95)), "
               f"elapsed={santa_fe_session['elapsed']:.1f}s (< 120 s)")
        assert ok


class TestCriterion05ReversionDirection:
    def test_previous_sign_split_and_decay(self, santa_fe_session):
        from primesim.impact import split_by_previous_sign

        samples = santa_fe_session["samples"]
        fit = santa_fe_session["fit"]
        prev_buy, prev_sell = split_by_previous_sign(samples, fit.delta, n_buckets=20)
        usable = [i for i in range(len(prev_buy.count))
                  if np.isfinite(prev_buy.mean_y[i]) and np.isfinite(prev_sell.mean_y[i])]
        below = float(np.mean([prev_buy.mean_y[i] < prev_sell.mean_y[i] for i in usable]))
        kernel = decay_regression(samples, fit.delta, max_lag=100)
        beta0 = float(kernel.beta[0])
        mean_tail = float(np.mean(kernel.beta[1:21]))
        ok = below >= 0.70 and beta0 > 0 and mean_tail < 0
        report(5, ok, f"reversion: prev-buy below prev-sell in {below:.0%} of buckets (>= 70%), "
                      f"beta0={beta0:.3f} (> 0), mean(beta1..20)={mean_tail:.4f} (< 0)")
        assert ok


class _SignRecorder:
    """Minimal stand-in for the simulation facade: records market order sides."""

    def __init__(self):
        self.sides = []

    def place_market(self, agent_id, side, qty):
        self.sides.append(side.value)


class TestCriterion06OrderSignStructure:
    def test_zi_null_and_darp_persistence(self):
        sink = _SignRecorder()
        agent = ZiMarketAgent(0, ZiMarketGroup(count=1, wake_rate=1.0), np.random.default_rng(6))
        n = 100_000
        for _ in range(n):
            agent.wakeup(sink)
        acf_null = order_sign_acf(np.asarray(sink.sides), max_lag=50)
        inside = float(np.mean(np.abs(acf_null) < 3.0 / np.sqrt(n)))

        sink = _SignRecorder()
        group = ZiMarketGroup(count=1, wake_rate=1.0, mode="darp", darp_p=0.9,
                              darp_gamma=1.5, darp_n=50)
        darp = DarpMarketAgent(1, group, np.random.default_rng(7))
        m = 1_000_000
        for _ in range(m):
            darp.wakeup(sink)
        acf = order_sign_acf(np.asarray(sink.sides), max_lag=20)
        positive = bool(np.all(acf > 0))
        decreasing = acf[-1] < acf[0] and float(np.polyfit(np.arange(1, 21), acf, 1)[0]) < 0
        loglog = fit_power_law(acf)
        ok = inside >= 0.95 and positive and decreasing and loglog.r2 > 0.8
        report(6, ok, f"sign structure: null ACF inside 3/sqrt(N) at {inside:.0%} of lags (>= 95%), "
                      f"DAR(p) ACF positive={positive} decreasing={decreasing} "
                      f"log-log r2={loglog.r2:.3f} (> 0.8)")
        assert ok


class TestCriterion07TunerClosure:
    def test_tuner_closure(self):
        t0 = time.perf_counter()
        target_signs = generate_signs(DarpParams(p=0.9, gamma=1.5, n=50), 100_000,
                                      np.random.default_rng(70))
        target = fit_power_law(order_sign_acf(target_signs, max_lag=20))
        result = tune_darp(target, budget=200, seed=7)
        gap = abs(result.fit.alpha - target.alpha)
        elapsed = time.perf_counter() - t0
        ok = gap < 0.15 and elapsed < 300.0
        report(7, ok, f"tuner closure: target alpha={target.alpha:.3f} "
                      f"achieved={result.fit.alpha:.3f} gap={gap:.3f} (< 0.15) "
                      f"p={result.p:.3f} gamma={result.gamma:.3f} "
                      f"elapsed={elapsed:.1f}s (< 300 s)")
        assert ok


def _prime_config(**overrides):
    config = load_preset("prime")
    oracle = overrides.pop("oracle", None)
    if oracle is not None:
        config = replace(config, oracle=oracle)
    if "noise" in overrides:
        config = replace(config, zi_market=replace(config.zi_market, noise=overrides.pop("noise")))
    if "start_price" in overrides:
        config = replace(config, book=replace(config.book,
                                              start_price=overrides.pop("start_price")))
    return replace(config, **overrides)


class TestCriterion08PrimeMeanReversion:
    def test_displaced_book_reverts(self):
        session = 600 * NS
        failures = []
        for displacement in (-20, +20):
            for eps in (1, 5):
                for seed in (1, 2, 3, 4, 5):
                    config = _prime_config(
                        oracle=ConstantOracle(price=1000),
                        start_price=1000 + displacement, noise=eps,
                        seed=seed, session_ns=session)
                    sim = build_simulation(config)
                    sim.run_until(session)
                    q4 = time_averaged_mid(sim.quotes, 3 * session // 4, session)
                    if abs(q4 - 1000) >= abs(displacement):
                        failures.append((displacement, eps, seed, q4))
        ok = not failures
        report(8, ok, f"price reversion from +-20 ticks, eps in {{1,5}}, 5 seeds each: "
                      f"{20 - len(failures)}/20 runs ended strictly closer to the oracle"
                      + (f"; failures={failures}" if failures else ""))
        assert ok


class TestCriterion09PrimeTracking:
    def test_tracking_rmse_by_noise(self):
        means = {}
        per_seed_ok = True
        details = []
        for eps in (1, 5, 10):
            rmses = []
            for seed in (1, 2, 3, 4, 5):
                config = _prime_config(noise=eps, seed=seed, session_ns=3600 * NS)
                sim = build_simulation(config)
                sim.run_until(config.session_ns)
                grid = np.arange(1, 721) * 5 * NS
                mids = mid_series_at(sim.quotes, grid)
                oracle_vals = np.asarray(
                    [true_price_at(sim.series, int(t)) for t in grid], dtype=float)
                rmse = float(np.sqrt(np.nanmean((mids - oracle_vals) ** 2)))
                rmses.append(rmse)
                if not np.isfinite(rmse) or rmse >= 5 * eps:
                    per_seed_ok = False
            means[eps] = float(np.mean(rmses))
            details.append(f"eps={eps}: mean={means[eps]:.2f} max={max(rmses):.2f} (< {5 * eps})")
        increasing = means[1] < means[5] < means[10]
        ok = per_seed_ok and increasing
        report(9, ok, "tracking RMSE " + "; ".join(details) +
                      f"; increasing in eps: {increasing}")
        assert ok


class TestCriterion10TechnicalAgents:
    def test_acf_ordering(self):
        from primesim.config import TechnicalGroup

        session = 900 * NS

        def acf1(seed, trend=None, mean_revert=None):
            config = _prime_config(seed=seed, session_ns=session)
            config = replace(config, trend=trend, mean_revert=mean_revert)
            sim = build_simulation(config)
            sim.run_until(session)
            return float(order_sign_acf(sim.trades.column("sign"), max_lag=1)[0])

        trend_group = TechnicalGroup(count=10, wake_rate=1.0, lookback_ns=30 * NS,
                                     threshold=0, size=1)
        mr_group = TechnicalGroup(count=10, wake_rate=0.5, lookback_ns=60 * NS,
                                  threshold=0, size=1)
        trend_wins = mr_wins = 0
        rows = []
        for seed in (1, 2, 3, 4, 5):
            base = acf1(seed)
            with_trend = acf1(seed, trend=trend_group)
            with_mr = acf1(seed, mean_revert=mr_group)
            trend_wins += with_trend > base
            mr_wins += with_mr < base
            rows.append(f"seed {seed}: base={base:+.4f} trend={with_trend:+.4f} mr={with_mr:+.4f}")
        ok = trend_wins >= 3 and mr_wins >= 3
        report(10, ok, f"technical agents ACF(1): trend raises it in {trend_wins}/5 seeds, "
                       f"mean-reversion lowers it in {mr_wins}/5 (majority each); "
                       + " | ".join(rows))
        assert ok


class TestCriterion11Determinism:
    def test_preset_runs_byte_identical(self, tmp_path):
        results = []
        for preset in ("santa-fe", "prime"):
            config = replace(load_preset(preset), session_ns=120 * NS)
            a = run_simulation(config, tmp_path / f"{preset}-a")
            b = run_simulation(config, tmp_path / f"{preset}-b")
            same = all(
                (a.out_dir / name).read_bytes() == (b.out_dir / name).read_bytes()
                for name in ("trades.csv", "l1.csv", "summary.txt"))
            results.append((preset, same))
        ok = all(same for _, same in results)
        report(11, ok, "byte-identical repeat runs: "
                       + ", ".join(f"{p}={s}" for p, s in results))
        assert ok
