"""Compose the measurement pipeline over ingested data and write result CSVs."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import impact, tradeio
from .impact import BucketStats, DecayKernel, DeltaFit, PowerLawFit, Samples, Windows
from .tradeio import QuoteLog, TradeTape


@dataclass(frozen=True)
class ImpactReport:
    windows: Windows
    samples: Samples
    skipped: int
    delta_fit: DeltaFit
    buckets: BucketStats
    buckets_prev_buy: BucketStats
    buckets_prev_sell: BucketStats


def prepare_samples(
    trades: TradeTape,
    quotes: QuoteLog,
    window_ns: int = impact.WINDOW_NS,
    horizon_ns: int = impact.HORIZON_NS,
    min_periods: int = 2,
) -> tuple[Windows, Samples, int]:
    windows = impact.resample(trades, quotes, window_ns)
    sigma = impact.rolling_volatility(windows, horizon_ns, min_periods=min_periods)
    volume = impact.weighted_volume(windows, horizon_ns, min_periods=min_periods)
    samples, skipped = impact.adjust(windows, sigma, volume)
    return windows, samples, skipped


def impact_report(
    trades: TradeTape,
    quotes: QuoteLog,
    window_ns: int = impact.WINDOW_NS,
    horizon_ns: int = impact.HORIZON_NS,
    delta: float | None = None,
    n_buckets: int = 20,
    min_periods: int = 2,
) -> ImpactReport:
    """The full initial-impact analysis; fits delta unless one is supplied."""
    windows, samples, skipped = prepare_samples(trades, quotes, window_ns,
                                                horizon_ns, min_periods)
    if delta is None:
        fit = impact.fit_delta(samples)
    else:
        k, sse = impact.fit_scale(samples.q, samples.y, delta)
        fit = DeltaFit(delta=delta, k=k, sse=sse, n=len(samples))
    buckets = impact.bucket_means(samples, n_buckets=n_buckets, delta=fit.delta)
    prev_buy, prev_sell = impact.split_by_previous_sign(samples, n_buckets=n_buckets,
                                                        delta=fit.delta)
    return ImpactReport(windows=windows, samples=samples, skipped=skipped, delta_fit=fit,
                        buckets=buckets, buckets_prev_buy=prev_buy,
                        buckets_prev_sell=prev_sell)


# ------------------------------------------------------------------- writers


def _rows(*columns: np.ndarray):
    """Rows of equal-length numpy columns as Python ints and floats."""
    return zip(*(c.tolist() for c in columns))


def write_windows(path: Path, windows: Windows) -> None:
    tradeio.write_table(path, ["t", "start_ns", "open_mid2x", "close_mid2x",
                               "q_net", "gross", "dp"],
                        _rows(windows.t, windows.start_ns, windows.open_mid2x,
                              windows.close_mid2x, windows.q_net, windows.gross, windows.dp))


def write_samples(path: Path, samples: Samples) -> None:
    tradeio.write_table(path, ["t", "q", "y", "prev_sign"],
                        _rows(samples.t, samples.q, samples.y, samples.prev_sign))


_BUCKET_HEADER = ["bucket", "lo", "hi", "mean_q", "mean_y", "count"]


def _bucket_rows(b: BucketStats):
    return _rows(np.arange(len(b.count)), b.lo, b.hi, b.mean_q, b.mean_y, b.count)


def write_buckets(path: Path, buckets: BucketStats) -> None:
    tradeio.write_table(path, _BUCKET_HEADER, _bucket_rows(buckets))


def write_split_buckets(path: Path, prev_buy: BucketStats, prev_sell: BucketStats) -> None:
    rows = [(name, *row) for name, b in (("prev_buy", prev_buy), ("prev_sell", prev_sell))
            for row in _bucket_rows(b)]
    tradeio.write_table(path, ["group"] + _BUCKET_HEADER, rows)


def write_delta_fit(path: Path, fit: DeltaFit, skipped: int) -> None:
    tradeio.write_table(path, ["delta", "k", "sse", "n_samples", "skipped_windows"],
                        [(fit.delta, fit.k, fit.sse, fit.n, skipped)])


def write_kernel(path: Path, kernel: DecayKernel) -> None:
    tradeio.write_table(path, ["lag", "beta", "cumulative", "stderr"],
                        ((lag, float(kernel.beta[lag]), float(kernel.cumulative[lag]),
                          float(kernel.stderr[lag]))
                         for lag in range(len(kernel.beta))))


def write_acf(path: Path, acf: np.ndarray) -> None:
    tradeio.write_table(path, ["lag", "acf"],
                        ((lag + 1, float(v)) for lag, v in enumerate(acf)))


def write_power_law(path: Path, fit: PowerLawFit) -> None:
    tradeio.write_table(path, ["c", "alpha", "r2", "n_lags"],
                        [(fit.c, fit.alpha, fit.r2, fit.n)])
