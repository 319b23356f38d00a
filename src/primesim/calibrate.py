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
N_HISTORY = 50  # DAR(p) order n of every candidate
N_SIGNS = 20_000  # signs simulated per candidate
MAX_LAG = 20  # ACF lags fitted per candidate


@dataclass(frozen=True)
class TuneResult:
    p: float
    gamma: float
    fit: PowerLawFit
    score: float
    n_evaluated: int
    n_skipped: int


def tune_darp(target: PowerLawFit, budget: int, seed: int) -> TuneResult:
    """Best (p, gamma) over `budget` uniform candidates in ``P_BOX`` x ``GAMMA_BOX``.

    Every candidate simulates a fixed-length sign stream from its own derived
    seed, fits a power law to the stream's autocorrelation over lags
    1..MAX_LAG, and is scored by squared distance to the target in
    (alpha, log C). Candidates whose ACF is not power-law-fittable are skipped;
    all candidates skipping is an error. Same seed and budget, same result.
    """
    if target.alpha <= 0:
        raise ValueError("target decay exponent must be positive")
    if budget < 1:
        raise ValueError("search budget must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    p_cands = rng.uniform(P_BOX[0], P_BOX[1], size=budget)
    g_cands = rng.uniform(GAMMA_BOX[0], GAMMA_BOX[1], size=budget)

    best = None  # (score, p, gamma, fit) of the lowest score so far
    skipped = 0
    for i in range(budget):
        params = DarpParams(p=float(p_cands[i]), gamma=float(g_cands[i]), n=N_HISTORY)
        stream_rng = np.random.default_rng(np.random.SeedSequence((seed, 1 + i)))
        signs = generate_signs(params, N_SIGNS, stream_rng)
        try:
            acf = order_sign_acf(signs, max_lag=MAX_LAG)
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
