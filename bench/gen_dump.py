"""Seeded synthetic exchange dump: a trade tape and an L1 log for one session.

Uses numpy alone and imports nothing from primesim, so the dump-analysis
workload keeps the same input when the simulator's outputs change.

The shape is chosen so that every estimator the workload runs succeeds:

* Trade signs come in metaorders whose lengths are Pareto-tailed (tail
  exponent ``RUN_TAIL``), with a fraction of signs flipped at random. The sign
  autocorrelation then decays as a power law (Lillo & Farmer 2004), which
  ``fit_power_law`` needs at least five positive lags of.
* Each 1 s window moves the mid by ``IMPACT_K * sgn(Q) |Q|**IMPACT_DELTA`` of
  its net signed volume Q (concave, as in Toth et al. 2011), convolved with a
  power-law decaying propagator, plus Gaussian noise. ``fit_delta`` then has a
  concave exponent to find and ``decay_regression`` a kernel to recover.
* The session is ``SESSION_S`` seconds. At ``--window 1s`` that is 7,200
  windows: the default 1 h normalisation horizon fills within the first half,
  and ``decay_regression`` at K=100 gets about 7,000 consecutive rows, far
  above the 900 it requires. At ``TRADE_RATE`` trades per second the tape has
  about 72,000 trades (~2.6 MB of CSV), so one pass of the three analyze
  commands takes about 1.5 s on a 2-CPU box, and a 25 s run repeats it
  about 17 times.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

SESSION_S = 7_200
TRADE_RATE = 10.0            # trades per second
OPEN_NS = 1_700_000_000_000_000_000  # session open, ns since the epoch
START_MID2X = 20_000         # twice the opening mid, in ticks
RUN_TAIL = 1.5               # Pareto tail of metaorder lengths
FLIP_PROB = 0.25             # share of signs drawn independently of the metaorder
IMPACT_K = 0.8               # ticks of mid move per unit of |Q|**delta
IMPACT_DELTA = 0.5
PROPAGATOR_LAGS = 200
PROPAGATOR_EXPONENT = 0.4
NOISE_TICKS = 1.0

NS = 1_000_000_000


def generate(seed: int, session_s: int = SESSION_S):
    """Trade columns (ts, price, qty, sign) and L1 columns (ts, bid, ask) as int64 arrays."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD0)))
    n = int(rng.poisson(TRADE_RATE * session_s))
    offsets = np.sort(rng.integers(0, session_s * NS, size=n))
    ts = OPEN_NS + offsets

    lengths = 1 + np.floor(rng.pareto(RUN_TAIL, size=n)).astype(np.int64)
    n_runs = int(np.searchsorted(np.cumsum(lengths), n)) + 1
    run_signs = rng.choice(np.array([-1, 1]), size=n_runs)
    signs = np.repeat(run_signs, lengths[:n_runs])[:n]
    flip = rng.random(n) < FLIP_PROB
    signs = np.where(flip, rng.choice(np.array([-1, 1]), size=n), signs)
    qty = rng.geometric(0.5, size=n)

    window = offsets // NS
    net = np.bincount(window, weights=signs * qty, minlength=session_s)
    impulse = IMPACT_K * np.sign(net) * np.abs(net) ** IMPACT_DELTA
    kernel = (1.0 + np.arange(PROPAGATOR_LAGS)) ** -PROPAGATOR_EXPONENT
    level = np.convolve(impulse, kernel)[:session_s]
    noise = np.cumsum(rng.normal(0.0, NOISE_TICKS, size=session_s))
    mid2x = START_MID2X + np.rint(2.0 * (level + noise)).astype(np.int64)
    mid2x = np.concatenate([[START_MID2X], mid2x])

    # One L1 row at the open and one at the end of each window, after its trades.
    q_ts = OPEN_NS + np.arange(session_s + 1, dtype=np.int64) * NS
    q_ts[1:] -= 1
    bid = np.where(mid2x % 2 == 0, mid2x // 2 - 1, (mid2x - 1) // 2)
    ask = mid2x - bid

    # Trades print at the touch in force when they happen.
    touch = np.searchsorted(q_ts, ts, side="right") - 1
    price = np.where(signs > 0, ask[touch], bid[touch])
    return ts, price, qty, signs, (q_ts, bid, ask)


def write_dump(seed: int, trades_path: Path, l1_path: Path, session_s: int = SESSION_S) -> int:
    """Write the dump for `seed` as CSV and return the number of trades."""
    ts, price, qty, signs, (q_ts, bid, ask) = generate(seed, session_s)
    aggressor = np.where(signs > 0, "B", "S")
    with Path(trades_path).open("w") as fh:
        fh.write("ts,price,qty,aggressor\n")
        fh.writelines(f"{t},{p},{q},{a}\n" for t, p, q, a in
                      zip(ts.tolist(), price.tolist(), qty.tolist(), aggressor.tolist()))
    with Path(l1_path).open("w") as fh:
        fh.write("ts,best_bid,best_ask\n")
        fh.writelines(f"{t},{b},{a}\n" for t, b, a in zip(q_ts.tolist(), bid.tolist(), ask.tolist()))
    return len(ts)
