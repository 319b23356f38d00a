"""Monte-Carlo DAR(p) tuner: determinism, trivial budget, and closure on a known target."""

import numpy as np
import pytest

from primesim import calibrate
from primesim.calibrate import tune_darp
from primesim.darp import DarpParams, generate_signs
from primesim.errors import NumericalError
from primesim.impact import PowerLawFit, fit_power_law, order_sign_acf


def target_from_stream(p, gamma, seed=0, n=100_000):
    signs = generate_signs(DarpParams(p=p, gamma=gamma, n=50), n, np.random.default_rng(seed))
    return fit_power_law(order_sign_acf(signs, max_lag=20))


class TestTuneDarp:
    def test_budget_one_returns_single_candidate(self):
        target = target_from_stream(0.9, 1.5)
        result = tune_darp(target, budget=1, seed=3)
        assert result.n_evaluated == 1
        assert 0.5 <= result.p <= 0.99
        assert 1.05 <= result.gamma <= 2.9

    def test_deterministic_under_seed(self):
        target = target_from_stream(0.9, 1.5)
        a = tune_darp(target, budget=20, seed=5)
        b = tune_darp(target, budget=20, seed=5)
        assert (a.p, a.gamma, a.score) == (b.p, b.gamma, b.score)
        c = tune_darp(target, budget=20, seed=6)
        assert (a.p, a.gamma) != (c.p, c.gamma)

    def test_closure_on_known_target(self):
        target = target_from_stream(0.9, 1.5, seed=1)
        result = tune_darp(target, budget=60, seed=7)
        assert abs(result.fit.alpha - target.alpha) < 0.15

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            tune_darp(PowerLawFit(c=0.3, alpha=-0.1, r2=1.0, n=20), budget=5, seed=0)

    def test_rejects_zero_budget(self):
        target = target_from_stream(0.9, 1.5)
        with pytest.raises(ValueError):
            tune_darp(target, budget=0, seed=0)

    def test_error_when_nothing_fittable(self, monkeypatch):
        # anti-persistent box: ACF(1) < 0 so no positive run to fit
        target = target_from_stream(0.9, 1.5)
        monkeypatch.setattr(calibrate, "P_BOX", (0.0, 0.01))
        with pytest.raises(NumericalError, match="fittable"):
            tune_darp(target, budget=3, seed=2)
