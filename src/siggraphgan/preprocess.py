"""Price-to-training-data pipeline and its exact inverse.

Raw closing prices become log returns, the returns are normalized to zero
mean and unit (population) variance, and the normalized returns are pushed
through a tail-shrinking transform based on the principal Lambert W branch.
Every step records what it needs to be undone, so generated data can be
mapped back to the log-return scale.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataError,
    DegenerateInputError,
    DomainError,
    OrderingError,
    SaturationError,
    SizeError,
)

# Below this tail weight the gaussianization is treated as the identity,
# avoiding the 0/0 in sqrt(W(delta z^2)/delta).
DELTA_IDENTITY_CUTOFF = 1e-8

DELTA_MAX = 5.0


@dataclass
class PriceSeries:
    """Closing prices on strictly increasing dates."""

    timestamps: list[datetime.date]
    closes: np.ndarray

    def __post_init__(self):
        self.closes = np.asarray(self.closes, dtype=np.float64)
        if len(self.timestamps) != self.closes.shape[0]:
            raise DataError(
                f"{len(self.timestamps)} timestamps for {self.closes.shape[0]} closes"
            )
        if self.closes.shape[0] < 2:
            raise SizeError("a price series needs at least 2 observations")
        for i in range(1, len(self.timestamps)):
            if self.timestamps[i] <= self.timestamps[i - 1]:
                raise OrderingError(
                    f"timestamps must be strictly increasing (row {i}: "
                    f"{self.timestamps[i]} after {self.timestamps[i - 1]})"
                )
        bad = np.flatnonzero(~(self.closes > 0.0))
        if bad.size:
            raise DomainError(f"nonpositive close at index {bad[0]}")

    def __len__(self):
        return self.closes.shape[0]


@dataclass
class ReturnSeries:
    """Log returns, optionally carrying the statistics used to normalize them.

    ``source_mean`` and ``source_std`` are set by :func:`normalize` and are
    required to invert the normalization later.
    """

    values: np.ndarray
    source_mean: float | None = None
    source_std: float | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise DataError("return series must be one-dimensional")
        if self.source_std is not None and not self.source_std > 0:
            raise DomainError("source_std must be positive")

    def __len__(self):
        return self.values.shape[0]


@dataclass(frozen=True)
class LambertParams:
    """Tail parameters of the gaussianization transform.

    ``delta`` is the tail weight; zero means the transform is the identity.
    ``mu`` and ``sigma`` record location/scale of the sample the fit saw.
    """

    delta: float
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not self.delta >= 0.0:
            raise DomainError(f"delta must be nonnegative, got {self.delta}")
        if not self.sigma > 0.0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry: window length and stride."""

    length: int
    stride: int = 1

    def __post_init__(self):
        if self.length < 2:
            raise SizeError(f"window length must be >= 2, got {self.length}")
        if self.stride < 1:
            raise SizeError(f"window stride must be >= 1, got {self.stride}")


def log_returns(prices: PriceSeries) -> ReturnSeries:
    """Log return of each consecutive close pair: ln(c[i+1]) - ln(c[i])."""
    closes = prices.closes
    return ReturnSeries(np.diff(np.log(closes)))


def normalize(returns: ReturnSeries) -> ReturnSeries:
    """Center and scale to zero mean and unit population variance.

    The sample mean and population standard deviation are stored on the
    result so the transform can be inverted exactly.
    """
    values = returns.values
    if values.shape[0] < 2:
        raise SizeError("normalization needs at least 2 returns")
    mean = float(np.mean(values))
    std = float(np.std(values))  # population (1/n) convention
    if std == 0.0:
        raise DegenerateInputError("return series has zero variance")
    return ReturnSeries((values - mean) / std, source_mean=mean, source_std=std)


def denormalize(values: np.ndarray, source_mean: float, source_std: float) -> np.ndarray:
    """Invert :func:`normalize` with the recorded statistics."""
    if not source_std > 0:
        raise DomainError("source_std must be positive")
    return np.asarray(values, dtype=np.float64) * source_std + source_mean


_INV_E = math.exp(-1.0)


def lambert_w0(x):
    """Principal branch of the Lambert W function.

    Solves w * exp(w) = x for w >= -1, valid for x >= -1/e. Vectorized
    Halley iteration from a log-based initial guess; elements that fail the
    residual test (possible only near the branch point) fall back to a
    guaranteed bisection.

    Accepts a scalar or an array; scalars come back as floats.
    """
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).astype(np.float64).ravel()
    if np.any(flat < -_INV_E):
        bad = float(flat[flat < -_INV_E][0])
        raise DomainError(f"lambert_w0 undefined for x = {bad} < -1/e")

    # log1p is branch-safe on (-1/e, inf) and close enough for Halley.
    with np.errstate(all="ignore"):
        w = np.log1p(np.maximum(flat, -_INV_E + 1e-300))
        for _ in range(64):
            ew = np.exp(w)
            f = w * ew - flat
            wp1 = w + 1.0
            denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
            step = np.where(denom != 0.0, f / np.where(denom != 0.0, denom, 1.0), 0.0)
            w = w - step
            if np.all(np.abs(step) <= 1e-16 * (1.0 + np.abs(w))):
                break
        residual = np.abs(w * np.exp(w) - flat)
    bad_mask = ~(residual <= 1e-12 * np.maximum(1.0, np.abs(flat)))
    if np.any(bad_mask):
        for i in np.flatnonzero(bad_mask):
            w[i] = _lambert_w0_bisect(float(flat[i]))
    if scalar:
        return float(w[0])
    return w.reshape(arr.shape)


def _lambert_w0_bisect(x: float) -> float:
    lo, hi = -1.0, 1.0
    while hi * math.exp(hi) < x:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gaussianize(z, params: LambertParams):
    """Shrink heavy tails: u = sgn(z) * sqrt(W(delta z^2) / delta).

    For delta below the identity cutoff the input is returned unchanged.
    Works elementwise on arrays.
    """
    delta = params.delta
    arr = np.asarray(z, dtype=np.float64)
    if delta <= DELTA_IDENTITY_CUTOFF:
        return float(arr) if arr.ndim == 0 else arr.copy()
    w = lambert_w0(delta * arr * arr)
    out = np.sign(arr) * np.sqrt(np.asarray(w) / delta)
    return float(out) if arr.ndim == 0 else out


def degaussianize(u, params: LambertParams):
    """Restore heavy tails: z = u * exp(delta * u^2 / 2); inverse of gaussianize."""
    delta = params.delta
    arr = np.asarray(u, dtype=np.float64)
    if delta <= DELTA_IDENTITY_CUTOFF:
        return float(arr) if arr.ndim == 0 else arr.copy()
    exponent = 0.5 * delta * arr * arr
    if np.any(exponent > 700.0):
        worst = float(np.atleast_1d(arr)[np.argmax(np.atleast_1d(exponent))])
        raise SaturationError(
            f"degaussianize overflow: u = {worst}, delta = {delta}"
        )
    out = arr * np.exp(exponent)
    return float(out) if arr.ndim == 0 else out


def excess_kurtosis(values: np.ndarray) -> float:
    """Population excess kurtosis m4/m2^2 - 3."""
    v = np.asarray(values, dtype=np.float64)
    centered = v - v.mean()
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        raise DegenerateInputError("kurtosis undefined for constant sample")
    m4 = float(np.mean(centered**4))
    return m4 / (m2 * m2) - 3.0


def fit_delta(samples, max_iterations: int = 200, tolerance: float = 0.01) -> LambertParams:
    """Estimate the tail weight by matching the excess kurtosis to zero.

    Repeatedly gaussianizes the sample with a trial delta and moves delta
    by a bounded bracketing step until the transformed sample's excess
    kurtosis sits within ``tolerance`` of zero, the iteration budget runs
    out, or delta hits its [0, 5] clamp. Light-tailed samples (excess
    kurtosis already <= 0) get delta = 0.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.shape[0] < 100:
        raise SizeError(f"fit_delta needs >= 100 samples, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("fit_delta requires finite samples")

    mu = float(np.mean(arr))
    sigma = float(np.std(arr))
    if sigma == 0.0:
        raise DegenerateInputError("fit_delta requires a non-constant sample")

    def kurt_at(delta: float) -> float:
        return excess_kurtosis(gaussianize(arr, LambertParams(delta, mu, sigma)))

    iterations = 0

    k0 = kurt_at(0.0)
    iterations += 1
    if k0 <= tolerance:
        return LambertParams(0.0, mu, sigma)

    # Expand the upper bracket until the kurtosis overshoots zero.
    lo, k_lo = 0.0, k0
    hi = 0.25
    while iterations < max_iterations:
        k_hi = kurt_at(hi)
        iterations += 1
        if abs(k_hi) <= tolerance:
            return LambertParams(hi, mu, sigma)
        if k_hi < 0.0:
            break
        lo, k_lo = hi, k_hi
        if hi >= DELTA_MAX:
            return LambertParams(DELTA_MAX, mu, sigma)
        hi = min(2.0 * hi, DELTA_MAX)
    else:
        return LambertParams(hi, mu, sigma)

    # Bisect the bracket; each halving is a bounded step toward zero kurtosis.
    while iterations < max_iterations:
        mid = 0.5 * (lo + hi)
        k_mid = kurt_at(mid)
        iterations += 1
        if abs(k_mid) <= tolerance or (hi - lo) < 1e-12:
            return LambertParams(mid, mu, sigma)
        if k_mid > 0.0:
            lo = mid
        else:
            hi = mid
    return LambertParams(0.5 * (lo + hi), mu, sigma)


def windows(returns: ReturnSeries | np.ndarray, spec: WindowSpec) -> np.ndarray:
    """Sliding windows, oldest first, as a (num_windows, length) array."""
    values = returns.values if isinstance(returns, ReturnSeries) else np.asarray(returns)
    n = values.shape[0]
    if n < spec.length:
        raise SizeError(
            f"series of length {n} is shorter than window length {spec.length}"
        )
    starts = range(0, n - spec.length + 1, spec.stride)
    return np.stack([values[s : s + spec.length] for s in starts])


@dataclass(frozen=True)
class PreprocessStats:
    """Everything needed to invert the full pipeline on generated data."""

    mean: float
    std: float
    delta: float


def prepare_training_returns(prices: PriceSeries) -> tuple[np.ndarray, PreprocessStats]:
    """Run the full forward pipeline: log returns, normalize, gaussianize.

    Returns the gaussianized normalized returns together with the recorded
    inversion statistics.
    """
    normalized = normalize(log_returns(prices))
    params = fit_delta(normalized.values)
    gaussianized = gaussianize(normalized.values, params)
    stats = PreprocessStats(
        mean=normalized.source_mean, std=normalized.source_std, delta=params.delta
    )
    return gaussianized, stats


def invert_pipeline(generated: np.ndarray, stats: PreprocessStats) -> np.ndarray:
    """Map generated data back to log returns: degaussianize, then denormalize."""
    heavy = degaussianize(generated, LambertParams(stats.delta))
    return denormalize(heavy, stats.mean, stats.std)


def transform_with_stats(raw_log_returns: np.ndarray, stats: PreprocessStats) -> np.ndarray:
    """Apply the recorded normalization and gaussianization to new returns."""
    if not stats.std > 0:
        raise DomainError("stats.std must be positive")
    normalized = (np.asarray(raw_log_returns, dtype=np.float64) - stats.mean) / stats.std
    return gaussianize(normalized, LambertParams(stats.delta))


def load_price_csv(path) -> PriceSeries:
    """Read a ``date,close`` CSV with ISO dates in strictly ascending order."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise DataError(f"cannot open price CSV {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise DataError(f"{path}: unreadable CSV: {exc}") from exc
    header = rows[0] if rows else None
    if header is None or [h.strip() for h in header] != ["date", "close"]:
        raise DataError(f"{path}: expected header 'date,close', got {header}")
    timestamps: list[datetime.date] = []
    closes: list[float] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise DataError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
        try:
            date = datetime.date.fromisoformat(row[0].strip())
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad date {row[0]!r}") from exc
        try:
            close = float(row[1])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad close {row[1]!r}") from exc
        if not math.isfinite(close):
            raise DataError(f"{path}:{lineno}: non-finite close {row[1]!r}")
        if timestamps and date <= timestamps[-1]:
            raise OrderingError(
                f"{path}:{lineno}: dates must be strictly ascending"
            )
        timestamps.append(date)
        closes.append(close)
    if len(closes) < 2:
        raise SizeError(f"{path}: need at least 2 rows, got {len(closes)}")
    return PriceSeries(timestamps, np.array(closes))
