"""Exogenous true-price series, queried by agents with uniform observation noise.

A series is a right-continuous step function on integer-nanosecond time with
integer tick prices. Construction goes through make_series(); observations add
an integer perturbation drawn uniformly from [-eps, +eps] and clamp to >= 1.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import MAX_TICK, ConstantOracle, FileOracle, RandomWalkOracle
from .errors import DataError
from .tradeio import _rows

SERIES_HEADER = ["time_ns", "price_ticks"]


@dataclass(frozen=True)
class PriceSeries:
    times: np.ndarray   # int64 ns, strictly increasing, times[0] == 0
    prices: np.ndarray  # int64 ticks, all >= 1

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=np.int64)
        p = np.asarray(self.prices, dtype=np.int64)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "prices", p)
        if t.size == 0 or t.size != p.size:
            raise ValueError("series needs matching, non-empty time and price arrays")
        if t[0] != 0:
            raise ValueError("series must start at time 0")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("series times must be strictly increasing")
        if not np.all(p >= 1):
            raise ValueError("series prices must be positive ticks")


def true_price_at(series: PriceSeries, t: int) -> int:
    """Value of the step function at time t (right-continuous)."""
    if t < 0:
        raise ValueError("time must be non-negative")
    i = int(np.searchsorted(series.times, t, side="right")) - 1
    return int(series.prices[i])


def observe(series: PriceSeries, t: int, noise_half_width: int, rng: np.random.Generator) -> int:
    """True price plus a uniform integer perturbation on [-eps, +eps], clamped to >= 1."""
    if noise_half_width < 0:
        raise ValueError("noise half-width must be >= 0")
    u = int(rng.integers(-noise_half_width, noise_half_width + 1))
    return max(1, true_price_at(series, t) + u)


def constant_series(price: int) -> PriceSeries:
    return PriceSeries(times=np.array([0]), prices=np.array([price]))


def random_walk_series(
    start: int, sigma: float, step_ns: int, horizon_ns: int, rng: np.random.Generator,
) -> PriceSeries:
    """Gaussian-increment walk on the tick grid, one step every step_ns.

    Increments are rounded to integers and the path is clamped to [1, MAX_TICK].
    """
    if start < 1 or sigma < 0 or step_ns < 1 or horizon_ns < 0:
        raise ValueError("bad random walk parameters")
    n_steps = horizon_ns // step_ns
    increments = np.rint(rng.normal(0.0, sigma, size=n_steps)).astype(np.int64)
    prices = np.empty(n_steps + 1, dtype=np.int64)
    prices[0] = start
    level = start
    for i, inc in enumerate(increments):
        level = min(MAX_TICK, max(1, level + int(inc)))
        prices[i + 1] = level
    times = np.arange(n_steps + 1, dtype=np.int64) * step_ns
    return PriceSeries(times=times, prices=prices)


def series_from_file(path: str | Path) -> PriceSeries:
    path = Path(path)
    times, prices = array("q"), array("q")
    for lineno, row in _rows(path, "series", SERIES_HEADER):
        try:
            times.append(int(row[0]))
            prices.append(int(row[1]))
        except (ValueError, IndexError, OverflowError) as exc:
            raise DataError(f"{path}:{lineno}: malformed series row {row!r}") from exc
    try:
        return PriceSeries(times=times, prices=prices)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def make_series(spec: ConstantOracle | RandomWalkOracle | FileOracle, horizon_ns: int,
                rng: np.random.Generator) -> PriceSeries:
    """The series an oracle config section describes; a random walk draws from rng."""
    if isinstance(spec, ConstantOracle):
        return constant_series(spec.price)
    if isinstance(spec, RandomWalkOracle):
        return random_walk_series(spec.start, spec.sigma, spec.step_ns, horizon_ns, rng)
    return series_from_file(spec.path)
