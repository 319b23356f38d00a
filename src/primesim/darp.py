"""Discrete autoregressive binary sign process with a power-law parent-lag kernel.

Each step picks a parent lag l in {1..n} with probability proportional to
l**((gamma-3)/2), copies the parent sign with probability p (flips it
otherwise), and emits the new sign, which becomes the newest entry of the
history. With p > 1/2 the emitted +/-1 stream has slowly decaying positive
autocorrelation, the meta-order signature in trade-sign series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DarpParams:
    p: float                     # copy probability
    gamma: float                 # parent-lag distribution exponent
    n: int = 50                  # history length
    literal_branch: bool = False # copy with prob 1-p instead (pseudocode-literal variant)

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"copy probability must be in [0, 1], got {self.p}")
        if self.n < 1:
            raise ValueError(f"history length must be >= 1, got {self.n}")


def lag_distribution(gamma: float, n: int) -> np.ndarray:
    """P(parent lag = l) for l = 1..n, proportional to l**((gamma-3)/2)."""
    w = np.arange(1, n + 1, dtype=float) ** ((gamma - 3.0) / 2.0)
    return w / w.sum()


def generate_signs(params: DarpParams, length: int, rng: np.random.Generator,
                   history: np.ndarray | None = None) -> np.ndarray:
    """`length` signs in {-1, +1} (int8) that follow the n signs of `history`.

    `history` holds the n signs before the first one, oldest first; None draws
    them as n fair bits. All randomness is pre-drawn, in this order: the
    history bits, `length` lag uniforms, then `length` flip uniforms, so the
    sequential pass is a cheap index chase. A stream cut into blocks continues
    exactly when each block is given the last n signs before it.
    """
    n = params.n
    if history is not None and len(history) != n:
        raise ValueError(f"history must hold n={n} signs, got {len(history)}")
    cum = np.cumsum(lag_distribution(params.gamma, n))
    path = np.empty(n + length, dtype=np.int8)
    path[:n] = rng.integers(0, 2, size=n) if history is None else np.asarray(history) > 0
    lags = np.searchsorted(cum, rng.random(length), side="right") + 1
    np.clip(lags, 1, n, out=lags)
    if params.literal_branch:
        flips = rng.random(length) < params.p
    else:
        flips = rng.random(length) >= params.p
    for t in range(length):
        path[n + t] = path[n + t - lags[t]] ^ flips[t]
    return path[n:] * 2 - 1
