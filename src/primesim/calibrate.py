"""Monte-Carlo search for DAR(p) parameters matching a target sign-ACF power law."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .darp import DarpParams, generate_signs
from .errors import NumericalError
from .impact import PowerLawFit, fit_power_law, order_sign_acf

P_BOX = (0.5, 0.99)
GAMMA_BOX = (1.05, 2.9)


@dataclass(frozen=True)
class TuneResult:
    p: float
    gamma: float
    fit: PowerLawFit
    score: float
    n_evaluated: int
    n_skipped: int


def tune_darp(
    target: PowerLawFit,
    budget: int,
    seed: int,
    *,
    p_box: tuple[float, float] = P_BOX,
    gamma_box: tuple[float, float] = GAMMA_BOX,
    n_history: int = 50,
    n_signs: int = 20_000,
    max_lag: int = 20,
) -> TuneResult:
    """Best (p, gamma) over `budget` uniform candidates.

    Every candidate simulates a fixed-length sign stream from its own derived
    seed, fits a power law to the stream's autocorrelation over lags
    1..max_lag, and is scored by squared distance to the target in
    (alpha, log C). Candidates whose ACF is not power-law-fittable are skipped;
    all candidates skipping is an error. Same seed and budget, same result.
    """
    if target.alpha <= 0:
        raise ValueError("target decay exponent must be positive")
    if budget < 1:
        raise ValueError("search budget must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    p_cands = rng.uniform(p_box[0], p_box[1], size=budget)
    g_cands = rng.uniform(gamma_box[0], gamma_box[1], size=budget)

    best = None  # (score, p, gamma, fit) of the lowest score so far
    skipped = 0
    for i in range(budget):
        params = DarpParams(p=float(p_cands[i]), gamma=float(g_cands[i]), n=n_history)
        stream_rng = np.random.default_rng(np.random.SeedSequence((seed, 1 + i)))
        signs = generate_signs(params, n_signs, stream_rng)
        try:
            acf = order_sign_acf(signs, max_lag=max_lag)
            fit = fit_power_law(acf)
        except (ValueError, NumericalError):
            skipped += 1
            continue
        score = (fit.alpha - target.alpha) ** 2 + (math.log(fit.c) - math.log(target.c)) ** 2
        if best is None or score < best[0]:
            best = (score, params.p, params.gamma, fit)
    if best is None:
        raise NumericalError("no candidate produced a power-law-fittable sign ACF")
    score, p, gamma, fit = best
    return TuneResult(p=p, gamma=gamma, fit=fit, score=score,
                      n_evaluated=budget, n_skipped=skipped)
