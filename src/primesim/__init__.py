"""primesim: deterministic multi-agent exchange simulator and impact analytics."""

from .book import LimitOrder, MarketResult, OrderBook, Side
from .calibrate import TuneResult, tune_darp
from .config import RunConfig, load_config, load_preset
from .darp import DarpParams, generate_signs
from .impact import (
    BucketStats,
    DecayKernel,
    DeltaFit,
    PowerLawFit,
    Samples,
    Windows,
    adjust,
    bucket_means,
    decay_regression,
    fit_delta,
    fit_power_law,
    order_sign_acf,
    resample,
    rolling_volatility,
    split_by_previous_sign,
    weighted_volume,
)
from .kernel import RunStats, Simulation, next_poisson_wakeup
from .oracle import PriceSeries, make_series, observe, true_price_at
from .runner import build_simulation, replay, run_simulation

__version__ = "0.1.0"

__all__ = [
    "BucketStats", "DarpParams", "DecayKernel",
    "DeltaFit", "LimitOrder", "MarketResult", "OrderBook",
    "PowerLawFit", "PriceSeries", "RunConfig", "RunStats", "Samples", "Side", "Simulation",
    "TuneResult", "Windows", "adjust", "bucket_means",
    "build_simulation", "decay_regression", "fit_delta", "fit_power_law",
    "generate_signs", "load_config", "load_preset", "make_series",
    "next_poisson_wakeup", "observe", "order_sign_acf", "replay", "resample",
    "rolling_volatility", "run_simulation", "split_by_previous_sign",
    "true_price_at", "tune_darp", "weighted_volume",
]
