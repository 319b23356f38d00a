"""Compose the measurement pipeline over ingested data and write result CSVs."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import impact, tradeio
from .impact import (
    AdjustedSample,
    BucketStats,
    DecayKernel,
    DeltaFit,
    PowerLawFit,
    Window,
)
from .tradeio import QuoteRecord, TradeRecord


@dataclass(frozen=True)
class ImpactReport:
    windows: list[Window]
    samples: list[AdjustedSample]
    skipped: int
    delta_fit: DeltaFit
    buckets: BucketStats
    buckets_prev_buy: BucketStats
    buckets_prev_sell: BucketStats


def prepare_samples(
    trades: list[TradeRecord],
    quotes: list[QuoteRecord],
    window_ns: int = impact.WINDOW_NS,
    horizon_ns: int = impact.HORIZON_NS,
    min_periods: int = 2,
) -> tuple[list[Window], list[AdjustedSample], int]:
    windows = impact.resample(trades, quotes, window_ns)
    sigma = impact.rolling_volatility(windows, horizon_ns, min_periods=min_periods)
    volume = impact.weighted_volume(windows, horizon_ns, min_periods=min_periods)
    samples, skipped = impact.adjust(windows, sigma, volume)
    return windows, samples, skipped


def impact_report(
    trades: list[TradeRecord],
    quotes: list[QuoteRecord],
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
        k, sse = impact.fit_scale(np.asarray([s.q for s in samples]),
                                  np.asarray([s.y for s in samples]), delta)
        fit = DeltaFit(delta=delta, k=k, sse=sse, n=len(samples))
    buckets = impact.bucket_means(samples, n_buckets=n_buckets, delta=fit.delta)
    prev_buy, prev_sell = impact.split_by_previous_sign(samples, n_buckets=n_buckets,
                                                        delta=fit.delta)
    return ImpactReport(windows=windows, samples=samples, skipped=skipped, delta_fit=fit,
                        buckets=buckets, buckets_prev_buy=prev_buy,
                        buckets_prev_sell=prev_sell)


# ------------------------------------------------------------------- writers


def write_windows(path: Path, windows: list[Window]) -> None:
    tradeio.write_table(path, ["t", "start_ns", "open_mid2x", "close_mid2x",
                               "q_net", "gross", "dp"],
                        ((w.t, w.start_ns, w.open_mid2x, w.close_mid2x,
                          w.q_net, w.gross, w.dp) for w in windows))


def write_samples(path: Path, samples: list[AdjustedSample]) -> None:
    tradeio.write_table(path, ["t", "q", "y", "prev_sign"],
                        ((s.t, s.q, s.y, s.prev_sign) for s in samples))


def write_buckets(path: Path, buckets: BucketStats, group: str | None = None) -> None:
    header = ["bucket", "lo", "hi", "mean_q", "mean_y", "count"]
    rows = [[i, buckets.lo[i], buckets.hi[i], float(buckets.mean_q[i]),
             float(buckets.mean_y[i]), int(buckets.count[i])]
            for i in range(len(buckets.count))]
    if group is not None:
        header = ["group"] + header
        rows = [[group] + r for r in rows]
    tradeio.write_table(path, header, rows)


def write_split_buckets(path: Path, prev_buy: BucketStats, prev_sell: BucketStats) -> None:
    header = ["group", "bucket", "lo", "hi", "mean_q", "mean_y", "count"]
    rows = []
    for name, b in (("prev_buy", prev_buy), ("prev_sell", prev_sell)):
        for i in range(len(b.count)):
            rows.append([name, i, b.lo[i], b.hi[i], float(b.mean_q[i]),
                         float(b.mean_y[i]), int(b.count[i])])
    tradeio.write_table(path, header, rows)


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


def time_averaged_mid(quotes: list[QuoteRecord], t_from: int, t_to: int) -> float:
    """Time-weighted average mid over [t_from, t_to], carrying quotes forward."""
    if t_to <= t_from:
        raise ValueError("empty averaging interval")
    times = [q.ts for q in quotes if q.bid is not None and q.ask is not None]
    mids = [(q.bid + q.ask) / 2.0 for q in quotes if q.bid is not None and q.ask is not None]
    if not times or times[0] > t_from:
        raise ValueError("no mid defined over the full interval")
    i = int(np.searchsorted(np.asarray(times, dtype=np.int64), t_from, side="right")) - 1
    total = 0.0
    t = t_from
    while t < t_to:
        next_change = times[i + 1] if i + 1 < len(times) else t_to
        seg_end = min(t_to, next_change)
        total += mids[i] * (seg_end - t)
        t = seg_end
        i += 1
    return total / (t_to - t_from)


def mid_series_at(quotes: list[QuoteRecord], times: np.ndarray) -> np.ndarray:
    """Mid (in ticks, possibly half-integral) carried forward to each time; NaN before quotes."""
    qt = [q.ts for q in quotes if q.bid is not None and q.ask is not None]
    qm = [(q.bid + q.ask) / 2.0 for q in quotes if q.bid is not None and q.ask is not None]
    qt_arr = np.asarray(qt, dtype=np.int64)
    idx = np.searchsorted(qt_arr, times, side="right") - 1
    out = np.full(len(times), np.nan)
    valid = idx >= 0
    out[valid] = np.asarray(qm)[idx[valid]]
    return out
