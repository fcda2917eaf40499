"""Price-to-training-data pipeline and its exact inverse.

Raw closing prices become log returns, the returns are normalized to zero
mean and unit (population) variance, and the normalized returns are pushed
through a tail-shrinking transform based on the principal Lambert W branch
(Goerg, "The Lambert Way to Gaussianize Heavy-Tailed Data", 2015).
`fit_stats` records the mean, std and tail weight in one `PreprocessStats`,
which is all `transform_with_stats` and `invert_pipeline` need.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    DegenerateInputError,
    DomainError,
    OrderingError,
    SaturationError,
    SizeError,
)
from .ioutil import read_csv_rows

# Below this tail weight the gaussianization is treated as the identity,
# avoiding the 0/0 in sqrt(W(delta z^2)/delta).
DELTA_IDENTITY_CUTOFF = 1e-8

DELTA_MAX = 5.0

# lambert_w0 is computed on [0, LAMBERT_MAX]: there its Halley iteration
# from log1p(x) neither overflows nor divides by zero.
LAMBERT_MAX = 1e300

# fit_delta stops once the gaussianized sample's excess kurtosis lies
# within this of zero.
FIT_DELTA_TOLERANCE = 0.01


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
        bad = np.flatnonzero(~np.isfinite(self.closes))
        if bad.size:
            raise DomainError(f"non-finite close at index {bad[0]}")
        bad = np.flatnonzero(self.closes <= 0.0)
        if bad.size:
            raise DomainError(f"nonpositive close at index {bad[0]}")

    def __len__(self):
        return self.closes.shape[0]


@dataclass
class ReturnSeries:
    """Log returns of a price series."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise DataError("return series must be one-dimensional")

    def __len__(self):
        return self.values.shape[0]


@dataclass(frozen=True)
class PreprocessStats:
    """Everything needed to apply or invert the pipeline on other data.

    ``mean`` and ``std`` are the sample mean and population standard
    deviation of the log returns the pipeline was fitted on; ``delta`` is
    the tail weight of the gaussianization, zero meaning the identity.
    """

    mean: float
    std: float
    delta: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise DomainError(f"mean must be finite, got {self.mean}")
        if not 0.0 < self.std < math.inf:
            raise DomainError(f"std must be positive and finite, got {self.std}")
        if not 0.0 <= self.delta < math.inf:
            raise DomainError(f"delta must be nonnegative and finite, got {self.delta}")


def log_returns(prices: PriceSeries) -> ReturnSeries:
    """Log return of each consecutive close pair: ln(c[i+1]) - ln(c[i])."""
    closes = prices.closes
    return ReturnSeries(np.diff(np.log(closes)))


def lambert_w0(x):
    """Principal branch of the Lambert W function on [0, `LAMBERT_MAX`].

    Solves w * exp(w) = x by a vectorized Halley iteration from log1p(x).
    Raises `DomainError` naming the first input outside that range: negative,
    NaN, inf, or above the bound. `gaussianize` asks only for W(delta z^2).

    Accepts a scalar or an array of any shape, and returns an array.
    """
    arr = np.asarray(x, dtype=np.float64)
    flat = arr.reshape(-1)
    outside = ~((flat >= 0.0) & (flat <= LAMBERT_MAX))
    if np.any(outside):
        bad = float(flat[outside][0])
        raise DomainError(f"lambert_w0 is computed on [0, {LAMBERT_MAX:g}], got x = {bad}")

    w = np.log1p(flat)
    for _ in range(64):
        ew = np.exp(w)
        f = w * ew - flat
        wp1 = w + 1.0
        step = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w = w - step
        if np.all(np.abs(step) <= 1e-16 * (1.0 + np.abs(w))):
            break
    return w.reshape(arr.shape)


def gaussianize(z, delta: float) -> np.ndarray:
    """Shrink heavy tails: u = sgn(z) * sqrt(W(delta z^2) / delta).

    For delta below the identity cutoff the input is returned unchanged.
    Works elementwise on arrays. A delta z^2 above `LAMBERT_MAX`, or one
    that overflows to inf, is a `DomainError`.
    """
    arr = np.asarray(z, dtype=np.float64)
    if delta <= DELTA_IDENTITY_CUTOFF:
        return arr.copy()
    with np.errstate(over="ignore"):  # an overflow reaches lambert_w0's check as inf
        x = delta * arr * arr
    return np.sign(arr) * np.sqrt(lambert_w0(x) / delta)


def degaussianize(u, delta: float) -> np.ndarray:
    """Restore heavy tails: z = u * exp(delta * u^2 / 2); inverse of gaussianize."""
    arr = np.asarray(u, dtype=np.float64)
    if delta <= DELTA_IDENTITY_CUTOFF:
        return arr.copy()
    exponent = 0.5 * delta * arr * arr
    if np.any(exponent > 700.0):
        worst = float(arr.flat[np.argmax(exponent)])
        raise SaturationError(
            f"degaussianize overflow: u = {worst}, delta = {delta}"
        )
    return arr * np.exp(exponent)


def excess_kurtosis(values: np.ndarray) -> float:
    """Population excess kurtosis m4/m2^2 - 3."""
    v = np.asarray(values, dtype=np.float64)
    centered = v - v.mean()
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        raise DegenerateInputError("kurtosis undefined for constant sample")
    m4 = float(np.mean(centered**4))
    return m4 / (m2 * m2) - 3.0


def fit_delta(samples) -> float:
    """Estimate the tail weight by matching the excess kurtosis to zero.

    Gaussianizes the sample with trial deltas: 0.25, 0.5, 1, 2, 4 and 5 in
    turn until the kurtosis overshoots zero, then bisection of that
    bracket. It stops once the transformed sample's excess kurtosis sits
    within `FIT_DELTA_TOLERANCE` of zero, the bracket is narrower than
    1e-12, or delta hits its [0, 5] clamp: at most 48 trial deltas.
    Light-tailed samples (excess kurtosis already <= 0) get delta = 0.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.shape[0] < 100:
        raise SizeError(f"fit_delta needs >= 100 samples, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("fit_delta requires finite samples")
    if float(np.std(arr)) == 0.0:
        raise DegenerateInputError("fit_delta requires a non-constant sample")

    def kurt_at(delta: float) -> float:
        return excess_kurtosis(gaussianize(arr, delta))

    if kurt_at(0.0) <= FIT_DELTA_TOLERANCE:
        return 0.0

    # The upper bracket is the first trial delta whose kurtosis overshoots zero.
    lo = 0.0
    for hi in (0.25, 0.5, 1.0, 2.0, 4.0, DELTA_MAX):
        k_hi = kurt_at(hi)
        if abs(k_hi) <= FIT_DELTA_TOLERANCE:
            return hi
        if k_hi < 0.0:
            break
        lo = hi
    else:
        return DELTA_MAX

    # Bisect the bracket; each halving is a bounded step toward zero kurtosis.
    while True:
        mid = 0.5 * (lo + hi)
        k_mid = kurt_at(mid)
        if abs(k_mid) <= FIT_DELTA_TOLERANCE or hi - lo < 1e-12:
            return mid
        if k_mid > 0.0:
            lo = mid
        else:
            hi = mid


def fit_stats(raw_log_returns) -> PreprocessStats:
    """Fit the pipeline to log returns.

    Records their mean and population standard deviation, and the tail
    weight `fit_delta` finds for the returns normalized by those two.
    """
    values = np.asarray(raw_log_returns, dtype=np.float64)
    if values.shape[0] < 2:
        raise SizeError("normalization needs at least 2 returns")
    mean = float(np.mean(values))
    std = float(np.std(values))  # population (1/n) convention
    if std == 0.0:
        raise DegenerateInputError("return series has zero variance")
    return PreprocessStats(mean, std, fit_delta((values - mean) / std))


def transform_with_stats(raw_log_returns: np.ndarray, stats: PreprocessStats) -> np.ndarray:
    """Apply the recorded normalization and gaussianization to log returns."""
    normalized = (np.asarray(raw_log_returns, dtype=np.float64) - stats.mean) / stats.std
    return gaussianize(normalized, stats.delta)


def invert_pipeline(generated: np.ndarray, stats: PreprocessStats) -> np.ndarray:
    """Map generated data back to log returns: degaussianize, then denormalize."""
    return degaussianize(generated, stats.delta) * stats.std + stats.mean


def prepare_training_returns(prices: PriceSeries) -> tuple[np.ndarray, PreprocessStats]:
    """Run the full forward pipeline: log returns, normalize, gaussianize.

    Returns the gaussianized normalized returns together with the recorded
    inversion statistics.
    """
    raw = log_returns(prices).values
    stats = fit_stats(raw)
    return transform_with_stats(raw, stats), stats


def load_price_csv(path) -> PriceSeries:
    """Read a ``date,close`` CSV with ISO dates in strictly ascending order."""
    return prices_from_rows(path, *read_csv_rows(path))


def prices_from_rows(path, header, rows) -> PriceSeries:
    """The `PriceSeries` of a ``date,close`` CSV's `read_csv_rows` output.

    ``path`` only names the file in the `DataError` messages, at
    ``path:line`` for a bad row.
    """
    if header is None or [h.strip() for h in header] != ["date", "close"]:
        raise DataError(f"{path}: expected header 'date,close', got {header}")
    timestamps: list[datetime.date] = []
    closes: list[float] = []
    for lineno, row in rows:
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
