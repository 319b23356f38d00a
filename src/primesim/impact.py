"""Market-impact measurement pipeline.

Runs identically on real trade dumps and simulator output: resample trades
and quotes into fixed windows, normalize price moves by trailing volatility
and net volumes by trailing weighted volume, then estimate

* the concave initial-impact exponent (one-parameter power fit with a
  closed-form scale, searched by golden section),
* the transient-impact decay kernel (no-intercept OLS of normalized price
  change on lagged normalized signed volume),
* the order-sign autocorrelation and its power-law decay.

All functions are pure; rerunning on the same inputs is bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .tradeio import QuoteLog, TradeTape

WINDOW_NS = 5_000_000_000            # 5 s resample windows
HORIZON_NS = 3_600_000_000_000       # 1 h trailing normalization horizon
DELTA_RANGE = (0.1, 1.5)
MAX_LAG = 100
DESIGN_BLOCK = 512                   # decay-regression design rows formed at a time


@dataclass(frozen=True, eq=False)
class Windows:
    """Contiguous resample windows as columns: net signed volume against mid change."""

    t: np.ndarray            # window index from the session start
    start_ns: np.ndarray
    open_mid2x: np.ndarray
    close_mid2x: np.ndarray
    q_net: np.ndarray        # buy volume minus sell volume
    gross: np.ndarray        # total traded volume

    def __len__(self) -> int:
        return len(self.t)

    @property
    def dp(self) -> np.ndarray:
        """Mid change over each window in ticks (may be half-integral)."""
        return (self.close_mid2x - self.open_mid2x) / 2.0


@dataclass(frozen=True, eq=False)
class Samples:
    """Normalized windows as columns, one entry per usable window."""

    t: np.ndarray
    q: np.ndarray            # net volume over trailing weighted volume
    y: np.ndarray            # mid change over trailing volatility
    prev_sign: np.ndarray    # sign of the previous window's net volume
    q_net: np.ndarray        # raw net volume of each window

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class DeltaFit:
    delta: float
    k: float
    sse: float
    n: int


@dataclass(frozen=True)
class DecayKernel:
    beta: np.ndarray        # impact coefficients for lags 0..K
    cumulative: np.ndarray  # partial sums of beta
    stderr: np.ndarray      # OLS standard errors per coefficient
    n_rows: int
    cond: float


@dataclass(frozen=True)
class PowerLawFit:
    c: float
    alpha: float
    r2: float
    n: int


@dataclass(frozen=True)
class BucketStats:
    """Per-quantile-bucket means; buckets partition the sample by q order.

    At most the requested number of buckets; counts differ by at most one only
    when no values tie (see bucket_means).
    """

    lo: np.ndarray
    hi: np.ndarray
    mean_q: np.ndarray
    mean_y: np.ndarray
    count: np.ndarray


def signed_power(q: np.ndarray, delta: float) -> np.ndarray:
    """sgn(q) * |q|**delta, the odd power transform used throughout."""
    return np.sign(q) * np.abs(q) ** delta


# ---------------------------------------------------------------- resampling


def resample(trades: TradeTape, quotes: QuoteLog, window_ns: int = WINDOW_NS) -> Windows:
    """Cut the session into contiguous windows of net volume and mid change.

    Mids carry forward through quiet windows. Leading windows with no defined
    mid yet are dropped; after the first two-sided quote the mid is always
    defined by carry-forward.
    """
    if window_ns <= 0:
        raise ValueError("window length must be positive")
    if not len(quotes):
        raise ValueError("no quotes; cannot form mid prices")
    quote_ts = quotes.column("ts")
    if np.any(quote_ts[1:] < quote_ts[:-1]):
        raise ValueError("quotes must be time-sorted")
    trade_ts = trades.column("ts")
    if np.any(trade_ts[1:] < trade_ts[:-1]):
        raise ValueError("trades must be time-sorted")
    qty = trades.column("qty")

    t0 = int(quote_ts[0]) if not trade_ts.size else min(int(quote_ts[0]), int(trade_ts[0]))
    t1 = int(quote_ts[-1]) if not trade_ts.size else max(int(quote_ts[-1]), int(trade_ts[-1]))
    n_windows = (t1 - t0) // window_ns
    if n_windows < 1:
        raise ValueError("session shorter than one window")

    bounds = t0 + np.arange(n_windows + 1, dtype=np.int64) * window_ns
    mids = quotes.mid2x_at(bounds)
    cut = np.searchsorted(trade_ts, bounds, side="left")
    q_net = np.diff(np.concatenate([[0], np.cumsum(trades.column("sign") * qty)])[cut])
    gross = np.diff(np.concatenate([[0], np.cumsum(qty)])[cut])
    t = np.flatnonzero((mids[:-1] > 0) & (mids[1:] > 0))  # both ends need a mid
    return Windows(t=t, start_ns=bounds[t], open_mid2x=mids[t], close_mid2x=mids[t + 1],
                   q_net=q_net[t], gross=gross[t])


def _horizon_windows(windows: Windows, horizon_ns: int) -> int:
    if len(windows) > 1:
        window_ns = int(windows.start_ns[1] - windows.start_ns[0])
        assert windows.t[1] - windows.t[0] == 1, "windows must be contiguous"
    else:
        window_ns = WINDOW_NS
    return max(1, horizon_ns // window_ns)


def rolling_volatility(
    windows: Windows, horizon_ns: int = HORIZON_NS, min_periods: int = 2,
) -> np.ndarray:
    """Trailing sample std of per-window mid change, excluding the current window.

    Entries with fewer than min_periods (>= 2) trailing windows are NaN.
    """
    h = _horizon_windows(windows, horizon_ns)
    min_periods = max(2, min_periods)
    dp = windows.dp
    sigma = np.full(len(windows), np.nan)
    for i in range(len(windows)):
        lo = max(0, i - h)
        if i - lo >= min_periods:
            sigma[i] = np.std(dp[lo:i], ddof=1)
    return sigma


def weighted_volume(
    windows: Windows, horizon_ns: int = HORIZON_NS, min_periods: int = 1,
) -> np.ndarray:
    """Trailing linearly weighted mean of gross volume, newest window heaviest.

    Excludes the current window; all-zero history yields NaN (unusable).
    Volumes are integers, so the weighted sums are exact int64 prefix-sum
    differences: over windows lo..i-1 with weights 1..n, the sum is
    sum(j g_j) - (lo - 1) sum(g_j), divided by n(n + 1)/2. int64 arithmetic
    wraps modulo 2**64, so a difference is exact whenever the weighted sum of
    one horizon fits in int64, even where the running sums have wrapped.
    """
    h = _horizon_windows(windows, horizon_ns)
    min_periods = max(1, min_periods)
    gross = np.asarray(windows.gross, dtype=np.int64)
    i = np.arange(len(gross))
    lo = np.maximum(0, i - h)
    n = i - lo
    s1 = np.concatenate([[0], np.cumsum(gross)])
    s2 = np.concatenate([[0], np.cumsum(i * gross)])
    weighted = (s2[i] - s2[lo]) - (lo - 1) * (s1[i] - s1[lo])
    return np.divide(weighted, n * (n + 1) // 2, out=np.full(len(gross), np.nan),
                     where=(n >= min_periods) & (weighted > 0))


def adjust(
    windows: Windows, sigma: np.ndarray, volume: np.ndarray,
) -> tuple[Samples, int]:
    """Normalize windows into (q, y) samples; returns (samples, skipped count)."""
    if not len(windows) == len(sigma) == len(volume):
        raise ValueError("windows, sigma, and volume must align")
    usable = np.isfinite(sigma) & (sigma > 0) & np.isfinite(volume) & (volume > 0)
    prev_sign = np.zeros_like(windows.q_net)
    prev_sign[1:] = np.sign(windows.q_net[:-1])
    samples = Samples(t=windows.t[usable], q=windows.q_net[usable] / volume[usable],
                      y=windows.dp[usable] / sigma[usable], prev_sign=prev_sign[usable],
                      q_net=windows.q_net[usable])
    return samples, len(windows) - len(samples)


# ------------------------------------------------------------------- fitting


def fit_scale(q: np.ndarray, y: np.ndarray, delta: float) -> tuple[float, float]:
    """Least-squares k of y ~ k * sgn(q)|q|**delta through the origin, and its SSE."""
    x = signed_power(q, delta)
    sxx = float(np.dot(x, x))
    if sxx == 0.0:
        raise ValueError("all net volumes are zero; impact scale is unidentifiable")
    k = float(np.dot(x, y)) / sxx
    r = y - k * x
    return k, float(np.dot(r, r))


def fit_delta(
    samples: Samples,
    delta_range: tuple[float, float] = DELTA_RANGE,
    tol: float = 1e-4,
) -> DeltaFit:
    """Golden-section search for the impact exponent.

    For each candidate delta the scale k is fit_scale's closed-form
    least-squares solution; the outer search minimizes the SSE over delta
    (assumed unimodal on the search interval).
    """
    if len(samples) < 100:
        raise ValueError(f"need at least 100 samples to fit delta, got {len(samples)}")
    q, y = samples.q, samples.y

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = delta_range
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    _, fc = fit_scale(q, y, c)
    _, fd = fit_scale(q, y, d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            _, fc = fit_scale(q, y, c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            _, fd = fit_scale(q, y, d)
    delta = (a + b) / 2.0
    k, sse = fit_scale(q, y, delta)
    return DeltaFit(delta=delta, k=k, sse=sse, n=len(samples))


def _bucket_chunks(q: np.ndarray, q_net: np.ndarray, n_buckets: int) -> list[np.ndarray]:
    """Sample indices of each bucket, ascending in q.

    Starts from the equal-count cuts of the q-sorted sample (stable order) and
    moves every cut that would separate two tied neighbours forward to the end
    of their run; cuts that collide merge, so fewer than n_buckets may result.
    Neighbours tie when they carry the same raw net volume q_net.
    """
    if n_buckets < 1:
        raise ValueError(f"need at least one bucket, got {n_buckets}")
    order = np.argsort(q, kind="stable")
    tie_key = q_net[order]
    allowed = np.flatnonzero(tie_key[1:] != tie_key[:-1]) + 1  # positions a cut may fall before
    size, extra = divmod(len(q), n_buckets)
    cuts = np.arange(1, n_buckets) * size + np.minimum(np.arange(1, n_buckets), extra)
    moved = np.searchsorted(allowed, cuts)
    edges = allowed[moved[moved < allowed.size]]  # non-decreasing, as the cuts are
    return np.split(order, edges[np.diff(edges, prepend=0) > 0])


def _bucket_stats(
    key: np.ndarray, y: np.ndarray, chunks: list[np.ndarray], member: np.ndarray,
) -> BucketStats:
    """Edges from whole buckets; means and counts over the member samples only."""
    lo, hi, mq, my, cnt = [], [], [], [], []
    for idx in chunks:
        lo.append(key[idx[0]])
        hi.append(key[idx[-1]])
        members = idx[member[idx]]
        if members.size:
            mq.append(float(np.mean(key[members])))
            my.append(float(np.mean(y[members])))
        else:
            mq.append(math.nan)
            my.append(math.nan)
        cnt.append(int(members.size))
    return BucketStats(lo=np.asarray(lo), hi=np.asarray(hi), mean_q=np.asarray(mq),
                       mean_y=np.asarray(my), count=np.asarray(cnt))


def bucket_means(samples: Samples, delta: float, n_buckets: int = 20) -> BucketStats:
    """Quantile-bucket samples by q and report per-bucket mean (sgn(q)|q|**delta, y).

    Returns at most n_buckets buckets. Cuts fall only between samples of
    different raw net volume q_net: a cut that would split such a tie moves
    forward to the end of it, since inside a tie the q order reflects only the
    normalizing volume. Counts therefore differ by at most one only when no
    values tie. Bucket membership does not depend on delta, because the
    transform is monotone; delta=1 reports q itself.
    """
    if len(samples) < n_buckets:
        raise ValueError(f"need >= {n_buckets} samples, got {len(samples)}")
    q = samples.q
    return _bucket_stats(signed_power(q, delta), samples.y,
                         _bucket_chunks(q, samples.q_net, n_buckets),
                         np.ones(len(samples), dtype=bool))


def split_by_previous_sign(
    samples: Samples, delta: float, n_buckets: int = 20,
) -> tuple[BucketStats, BucketStats]:
    """Bucket means conditioned on the previous window's net-volume sign.

    Both groups share one set of at most n_buckets bucket edges, cut as in
    bucket_means over the combined (nonzero previous sign) sample; returns
    (after-net-buy, after-net-sell). Buckets empty for a group carry NaN means
    and zero count.
    """
    kept = samples.prev_sign != 0
    prev = samples.prev_sign[kept]
    if not np.any(prev > 0) or not np.any(prev < 0):
        raise ValueError("need samples after both net-buy and net-sell windows")
    if prev.size < n_buckets:
        raise ValueError(f"need >= {n_buckets} usable samples, got {prev.size}")
    q = samples.q[kept]
    key = signed_power(q, delta)
    chunks = _bucket_chunks(q, samples.q_net[kept], n_buckets)
    y = samples.y[kept]
    return (_bucket_stats(key, y, chunks, prev == 1),
            _bucket_stats(key, y, chunks, prev == -1))


def decay_regression(samples: Samples, delta: float, max_lag: int = MAX_LAG) -> DecayKernel:
    """No-intercept OLS of y_t on sgn(q)|q|**delta at lags 0..max_lag.

    Rows are the sample times whose full lag window is usable; requires at
    least 9 * max_lag such rows (ten lag horizons of consecutive samples).
    Solved by normal equations with a condition-number guard; memory is
    O(DESIGN_BLOCK * max_lag), not O(n_rows * max_lag).
    """
    if not len(samples):
        raise ValueError("no usable samples")
    pos = samples.t - samples.t.min()
    span = int(pos.max()) + 1
    present = np.zeros(span, dtype=bool)
    x_all = np.zeros(span)
    y_all = np.zeros(span)
    present[pos] = True
    x_all[pos] = signed_power(samples.q, delta)
    y_all[pos] = samples.y

    # a row needs its own position and the max_lag before it all present
    window = max_lag + 1
    filled = np.concatenate([[0], np.cumsum(present)])
    rows = np.flatnonzero(filled[window:] - filled[:-window] == window) + max_lag
    n_rows = len(rows)
    if n_rows < 9 * max_lag:
        raise ValueError(
            f"need >= {9 * max_lag} usable consecutive rows for K={max_lag}, got {n_rows}")

    # row r of the design is x_all[r], x_all[r - 1], ..., x_all[r - max_lag], read from
    # a sliding view DESIGN_BLOCK rows at a time, so the n_rows x window design is
    # never built; the normal equations and the residuals are summed block by block
    lagged = np.lib.stride_tricks.sliding_window_view(x_all, window)
    blocks = [rows[i:i + DESIGN_BLOCK] for i in range(0, n_rows, DESIGN_BLOCK)]
    gram = np.zeros((window, window))
    xty = np.zeros(window)
    for block in blocks:
        design = lagged[block - max_lag, ::-1]
        gram += design.T @ design
        xty += design.T @ y_all[block]
    cond = float(np.linalg.cond(gram))
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericalError(f"decay regression design is rank-deficient (cond={cond:.3g})")
    gram_inv = np.linalg.inv(gram)
    beta = gram_inv @ xty
    sse = 0.0
    for block in blocks:
        resid = y_all[block] - lagged[block - max_lag, ::-1] @ beta
        sse += float(np.dot(resid, resid))
    dof = max(1, n_rows - (max_lag + 1))
    stderr = np.sqrt(sse / dof * np.diag(gram_inv))
    return DecayKernel(beta=beta, cumulative=np.cumsum(beta), stderr=stderr,
                       n_rows=n_rows, cond=cond)


def order_sign_acf(signs: np.ndarray, max_lag: int = MAX_LAG) -> np.ndarray:
    """Sample autocorrelation of a +/-1 sign stream at lags 1..max_lag.

    Biased (divide-by-N) estimator on the mean-removed series, which keeps the
    autocorrelation sequence positive semidefinite.
    """
    s = np.asarray(signs, dtype=float)
    if s.size < 10 * max_lag:
        raise ValueError(f"need >= {10 * max_lag} signs for max_lag={max_lag}, got {s.size}")
    if not np.all(np.isin(s, (-1.0, 1.0))):
        raise ValueError("signs must be -1 or +1")
    z = s - s.mean()
    denom = float(np.dot(z, z))
    if denom == 0.0:
        raise ValueError("constant sign stream has no autocorrelation")
    return np.asarray([float(np.dot(z[:-lag], z[lag:])) / denom
                       for lag in range(1, max_lag + 1)])


def fit_power_law(values: np.ndarray) -> PowerLawFit:
    """Fit C * lag**(-alpha) to the positive entries of a series at lags 1, 2, ..."""
    v = np.asarray(values, dtype=float)
    mask = v > 0
    if int(mask.sum()) < 5:
        raise NumericalError(
            f"need >= 5 positive values for a power-law fit, got {int(mask.sum())}")
    lx = np.log(np.arange(1.0, v.size + 1)[mask])
    ly = np.log(v[mask])
    lx_c = lx - lx.mean()
    slope = float(np.dot(lx_c, ly - ly.mean()) / np.dot(lx_c, lx_c))
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(ly - ly.mean(), ly - ly.mean()))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return PowerLawFit(c=math.exp(intercept), alpha=-slope, r2=r2, n=int(mask.sum()))
