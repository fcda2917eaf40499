"""Distribution metrics for scoring synthetic returns against real ones.

The report covers three families over 1/5/20/100-day horizons:

* earth mover's distance between the empirical distributions of k-day
  cumulative returns;
* RMSE between expected truncated signatures of lead-lag-embedded windows
  of the k-day aggregated series. The expectation is the mean over every
  sliding window, computed by `leadlag_window_mean` from per-block prefix
  and suffix signatures, so no window is signed on its own;
* a leverage-effect score comparing the correlation profiles between
  returns and future squared returns.

Raw values are stored as computed; the conventional display multiplies
them by 100.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateInputError, ShapeError, SizeError
from .ioutil import csv_text
from .signature import leadlag_window_mean

HORIZONS = (1, 5, 20, 100)

# Each signature window covers this many aggregated observations, so the
# lead-lag path length is identical across horizons.
SIG_WINDOW_POINTS = 20

# The leverage profile correlates returns with squared returns this many
# steps later, for each lag from 1 up.
LEVERAGE_LAGS = 10

REPORT_LABELS = (
    "EMD(1)",
    "EMD(5)",
    "EMD(20)",
    "EMD(100)",
    "Sig-RMSE(1)",
    "Sig-RMSE(5)",
    "Sig-RMSE(20)",
    "Sig-RMSE(100)",
    "Leverage Effect",
)


def k_day_aggregate(returns, k: int) -> np.ndarray:
    """Overlapping k-day cumulative returns (rolling sums, stride 1)."""
    r = np.asarray(returns, dtype=np.float64)
    if r.ndim != 1:
        raise ShapeError("k_day_aggregate expects a one-dimensional series")
    if k < 1:
        raise SizeError(f"aggregation horizon must be >= 1, got {k}")
    if k > r.shape[0]:
        raise SizeError(f"horizon {k} exceeds series length {r.shape[0]}")
    if k == 1:
        return r.copy()
    csum = np.concatenate([[0.0], np.cumsum(r)])
    return csum[k:] - csum[:-k]


def emd_1d(xs, ys) -> float:
    """Earth mover's (Wasserstein-1) distance between 1-D samples.

    The exact piecewise integral of |F_x - F_y| over the merged support,
    for samples of any sizes.
    """
    x = np.sort(np.asarray(xs, dtype=np.float64))
    y = np.sort(np.asarray(ys, dtype=np.float64))
    if x.size == 0 or y.size == 0:
        raise SizeError("emd_1d needs nonempty samples")
    support = np.concatenate([x, y])
    support.sort(kind="mergesort")
    zs = support[:-1]
    widths = np.diff(support)
    fx = np.searchsorted(x, zs, side="right") / x.size
    fy = np.searchsorted(y, zs, side="right") / y.size
    return float(np.sum(np.abs(fx - fy) * widths))


def expected_leadlag_signature(series, points: int, degree: int = 5) -> np.ndarray:
    """Mean flat lead-lag signature over all windows of ``points`` values of a 1-D series."""
    return leadlag_window_mean(series, points, degree)


def leverage_profile(returns) -> np.ndarray:
    """Correlation of returns with future squared returns, lags 1..LEVERAGE_LAGS."""
    r = np.asarray(returns, dtype=np.float64)
    if r.shape[0] < LEVERAGE_LAGS + 30:
        raise SizeError(
            f"leverage profile needs at least {LEVERAGE_LAGS + 30} "
            f"returns, got {r.shape[0]}"
        )
    out = np.empty(LEVERAGE_LAGS)
    squared = r * r
    for tau in range(1, LEVERAGE_LAGS + 1):
        a = r[:-tau]
        b = squared[tau:]
        sa = a.std()
        sb = b.std()
        if sa == 0.0 or sb == 0.0:
            raise DegenerateInputError("leverage profile undefined for constant series")
        out[tau - 1] = np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb)
    return out


def leverage_effect_score(real_returns, fake_returns) -> float:
    """Root-mean-square gap between the two leverage profiles."""
    real = leverage_profile(real_returns)
    fake = leverage_profile(fake_returns)
    return float(np.sqrt(np.mean((real - fake) ** 2)))


@dataclass
class MetricsReport:
    """Raw metric values keyed by display label; table scaling is x100."""

    values: dict[str, float]

    def __post_init__(self):
        for label in REPORT_LABELS:
            if label not in self.values:
                raise ShapeError(f"report is missing metric {label!r}")

    def to_csv_text(self) -> str:
        rows = ((label, self.values[label], self.values[label] * 100.0)
                for label in REPORT_LABELS)
        return csv_text(("metric", "raw", "display_x100"), rows)

    def to_table_text(self) -> str:
        width = max(len(label) for label in REPORT_LABELS)
        lines = [f"{'metric'.ljust(width)}  {'raw':>14}  {'x100':>14}"]
        for label in REPORT_LABELS:
            raw = self.values[label]
            lines.append(f"{label.ljust(width)}  {raw:14.6g}  {raw * 100.0:14.6g}")
        return "\n".join(lines) + "\n"


def build_report(real_returns, fake_returns, degree: int = 5) -> MetricsReport:
    """All nine metrics for a pair of return series.

    For each horizon k both series are aggregated to k-day cumulative
    returns; EMD compares those samples directly, while Sig-RMSE compares
    expected signatures over sliding windows of the aggregated series
    (window length fixed at SIG_WINDOW_POINTS aggregated observations).
    Each expected signature is the mean over every such window, built by
    `expected_leadlag_signature` from per-block prefix and suffix
    signatures rather than by signing a stack of windows. Identical inputs
    give exact zeros, because the same arithmetic runs on both sides.

    The real side comes from a one-entry memo, `_real_side`: the last real
    series' four aggregates and expected signatures, about 0.1 MB for the
    bundled fixture. The next report on the same values and degree reuses
    them and computes only the fake side, so repeated scoring against one
    series (`ablate`, a benchmark round) gains, and a single `evaluate`
    does not.
    """
    real = np.asarray(real_returns, dtype=np.float64)
    fake = np.asarray(fake_returns, dtype=np.float64)
    needed = max(HORIZONS) + SIG_WINDOW_POINTS - 1
    for name, arr in (("real", real), ("fake", fake)):
        if arr.shape[0] < needed:
            raise SizeError(
                f"{name} series of length {arr.shape[0]} is too short for the "
                f"report (need >= {needed})"
            )
    values: dict[str, float] = {}
    for k, (agg_real, sig_real) in zip(HORIZONS, _real_side(real.tobytes(), real.shape, degree)):
        agg_fake = k_day_aggregate(fake, k)
        values[f"EMD({k})"] = emd_1d(agg_real, agg_fake)
        sig_fake = expected_leadlag_signature(agg_fake, SIG_WINDOW_POINTS, degree)
        values[f"Sig-RMSE({k})"] = float(np.sqrt(np.mean((sig_real - sig_fake) ** 2)))
    values["Leverage Effect"] = leverage_effect_score(real, fake)
    return MetricsReport(values)


@lru_cache(maxsize=1)
def _real_side(raw: bytes, shape: tuple, degree: int) -> tuple:
    """Each horizon's (aggregate, expected signature) of a real series, read-only.

    Keyed by the series' C-order float64 bytes, its shape and ``degree``;
    the one entry is the last real series that `build_report` scored.
    """
    real = np.frombuffer(raw).reshape(shape)
    side = []
    for k in HORIZONS:
        agg = k_day_aggregate(real, k)
        sig = expected_leadlag_signature(agg, SIG_WINDOW_POINTS, degree)
        agg.flags.writeable = sig.flags.writeable = False
        side.append((agg, sig))
    return tuple(side)
