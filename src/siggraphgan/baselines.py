"""Classical comparators: GARCH(1,1) and geometric Brownian motion.

GARCH is fit by maximizing the Gaussian-innovation log likelihood with a
derivative-free coordinate search over log/logit-reparameterized
parameters, so the positivity and stationarity constraints hold by
construction. GBM parameters come from the closed-form likelihood
maximizers of the log returns. The unit of time is one observation
(one trading day).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateInputError, DomainError, SizeError
from .preprocess import PriceSeries, log_returns

GARCH_BURN_IN = 500

# garch_fit's likelihood-evaluation budget, split over its two starts, and
# the per-sweep likelihood gain below which a start counts as converged
GARCH_MAX_EVALUATIONS = 10_000
GARCH_TOLERANCE = 1e-8


@dataclass(frozen=True)
class GarchParams:
    """omega > 0, alpha >= 0, beta >= 0 with alpha + beta < 1."""

    omega: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not self.omega > 0:
            raise DomainError(f"omega must be positive, got {self.omega}")
        if self.alpha < 0 or self.beta < 0:
            raise DomainError("alpha and beta must be nonnegative")
        if not self.alpha + self.beta < 1:
            raise DomainError(
                f"alpha + beta must be < 1 for stationarity, got "
                f"{self.alpha + self.beta}"
            )

    @property
    def unconditional_variance(self) -> float:
        return self.omega / (1.0 - self.alpha - self.beta)


@dataclass(frozen=True)
class GbmParams:
    """Drift per unit time, volatility per sqrt(time), start price."""

    mu: float
    sigma: float
    s0: float

    def __post_init__(self):
        if self.sigma < 0:
            raise DomainError(f"sigma must be nonnegative, got {self.sigma}")
        if not self.s0 > 0:
            raise DomainError(f"s0 must be positive, got {self.s0}")


def garch_conditional_variance(returns: np.ndarray, omega, alpha, beta) -> np.ndarray:
    """sigma^2_t = omega + alpha r^2_{t-1} + beta sigma^2_{t-1}.

    The recursion starts from the sample variance and is evaluated as a
    linear filter, which keeps the likelihood loop out of Python.
    """
    from scipy.signal import lfilter  # here, so only GARCH pays scipy's import

    r = np.asarray(returns, dtype=np.float64)
    sig2 = np.empty_like(r)
    sig2[0] = np.var(r)
    if r.shape[0] > 1:
        drive = omega + alpha * r[:-1] ** 2
        sig2[1:] = lfilter([1.0], [1.0, -beta], drive, zi=[beta * sig2[0]])[0]
    return sig2


def _unpack(thetas: np.ndarray) -> tuple[float, float, float]:
    """Map unconstrained coordinates to (omega, alpha, beta).

    omega = exp(a); (alpha, beta) live on the open simplex via a softmax
    against a unit slack term, so alpha + beta < 1 automatically.
    """
    a, b, c = thetas
    eb, ec = math.exp(b), math.exp(c)
    denom = 1.0 + eb + ec
    return math.exp(a), eb / denom, ec / denom


def _coordinate_ascent(objective, start, budget):
    """Shrinking-step coordinate search; returns (point, value, converged).

    Each sweep tries one +-step move per coordinate; a coordinate whose
    both directions fail has its step halved, and sweeps whose total gain
    is negligible relative to the objective scale halve every step (flat
    ridges otherwise sustain float-noise gains forever). Converged once
    every step is tiny or a sweep gains less than `GARCH_TOLERANCE` at an
    already-small step scale.
    """
    thetas = np.asarray(start, dtype=np.float64).copy()
    steps = np.ones_like(thetas)
    evaluations = 0
    best = objective(thetas)
    evaluations += 1
    shrink_gain = max(GARCH_TOLERANCE, 1e-6 * (1.0 + abs(best)))
    while evaluations < budget:
        sweep_start = best
        for i in range(thetas.shape[0]):
            moved = False
            for sign in (1.0, -1.0):
                if evaluations >= budget:
                    return thetas, best, False
                trial = thetas.copy()
                trial[i] += sign * steps[i]
                value = objective(trial)
                evaluations += 1
                if value > best:
                    thetas, best = trial, value
                    moved = True
                    break
            if not moved:
                steps[i] *= 0.5
        if best - sweep_start < shrink_gain:
            steps *= 0.5
        if np.max(steps) < 1e-7:
            return thetas, best, True
        if best - sweep_start < GARCH_TOLERANCE and np.max(steps) < 1e-3:
            return thetas, best, True
    return thetas, best, False


def garch_fit(returns) -> GarchParams:
    """Maximum-likelihood GARCH(1,1) fit via shrinking coordinate search.

    The search cycles through the reparameterized coordinates trying
    +-step moves and halves the steps after a sweep with no accepted
    move, stopping once a cycle improves the likelihood by less than
    `GARCH_TOLERANCE`. Two starts are tried (a low-persistence one, where iid
    data is identifiable, and a high-persistence one typical of equity
    volatility) and the better likelihood wins; near-exact ties, which
    arise on the flat alpha = 0 ridge of homoskedastic data, resolve to
    the low-persistence solution. Raises `ConvergenceError` with the
    best-so-far parameters if the `GARCH_MAX_EVALUATIONS` budget runs out.
    """
    r = np.asarray(returns, dtype=np.float64)
    if r.shape[0] < 200:
        raise SizeError(f"garch_fit needs >= 200 returns, got {r.shape[0]}")
    variance = float(np.var(r))
    if variance == 0.0:
        raise DegenerateInputError("garch_fit requires non-constant returns")

    def objective(vec) -> float:
        omega, alpha, beta = _unpack(vec)
        sig2 = garch_conditional_variance(r, omega, alpha, beta)
        return float(-0.5 * np.sum(np.log(2.0 * np.pi) + np.log(sig2) + r * r / sig2))

    # simplex coordinates for (alpha, beta) = (0.02, 0.02) and (0.1, 0.8)
    low_start = np.array(
        [math.log(0.96 * variance), math.log(0.02 / 0.96), math.log(0.02 / 0.96)]
    )
    high_start = np.array([math.log(0.05 * variance), 0.0, math.log(8.0)])
    budget = GARCH_MAX_EVALUATIONS // 2

    results = [
        _coordinate_ascent(objective, low_start, budget),
        _coordinate_ascent(objective, high_start, GARCH_MAX_EVALUATIONS - budget),
    ]
    (low_pt, low_val, low_ok), (high_pt, high_val, high_ok) = results
    # gaps below one log-likelihood unit are chi-square noise on the flat
    # ridge, not evidence of volatility dynamics; prefer parsimony there
    tie = abs(low_val - high_val) <= 1.0
    if tie or low_val >= high_val:
        point, converged = low_pt, low_ok
    else:
        point, converged = high_pt, high_ok
    omega, alpha, beta = _unpack(point)
    if not converged:
        raise ConvergenceError(
            f"garch_fit exhausted {GARCH_MAX_EVALUATIONS} evaluations without converging",
            best=GarchParams(omega, alpha, beta),
        )
    return GarchParams(omega, alpha, beta)


def garch_simulate(params: GarchParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Simulate n returns after discarding a 500-step burn-in.

    The recursion is sequential, so it runs on Python floats, which take
    a fraction of the time of numpy scalars and round the same way.
    """
    shocks = rng.standard_normal(n + GARCH_BURN_IN).tolist()
    omega, alpha, beta = params.omega, params.alpha, params.beta
    sig2 = params.unconditional_variance
    out = [math.sqrt(sig2) * shocks[0]]
    for shock in shocks[1:]:
        sig2 = omega + alpha * out[-1] ** 2 + beta * sig2
        out.append(math.sqrt(sig2) * shock)
    return np.array(out[GARCH_BURN_IN:])


def gbm_fit(prices: PriceSeries) -> GbmParams:
    """Closed-form likelihood maximizers with a unit time step.

    sigma^2 is the population variance of the log returns; the drift adds
    back the Ito correction. The start price is the last observed close.
    """
    returns = log_returns(prices).values
    sigma2 = float(np.var(returns))
    mu = float(np.mean(returns)) + 0.5 * sigma2
    return GbmParams(mu=mu, sigma=math.sqrt(sigma2), s0=float(prices.closes[-1]))


def gbm_simulate(
    params: GbmParams, n_steps: int, n_paths: int, rng: np.random.Generator
) -> np.ndarray:
    """Monte-Carlo price paths, shape (n_paths, n_steps + 1), s0 first."""
    if n_steps < 1:
        raise SizeError(f"n_steps must be >= 1, got {n_steps}")
    if n_paths < 1:
        raise SizeError(f"n_paths must be >= 1, got {n_paths}")
    shocks = rng.standard_normal((n_paths, n_steps))
    log_steps = (params.mu - 0.5 * params.sigma**2) + params.sigma * shocks
    paths = np.empty((n_paths, n_steps + 1))
    paths[:, 0] = params.s0
    paths[:, 1:] = params.s0 * np.exp(np.cumsum(log_steps, axis=1))
    return paths
