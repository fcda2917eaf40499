import datetime
import math

import numpy as np
import pytest

from siggraphgan import baselines as bl
from siggraphgan.errors import ConvergenceError, DegenerateInputError, DomainError, SizeError
from siggraphgan.preprocess import PriceSeries


def make_prices(closes):
    start = datetime.date(2015, 1, 1)
    dates = [start + datetime.timedelta(days=i) for i in range(len(closes))]
    return PriceSeries(dates, np.asarray(closes, dtype=float))


class _ZeroRng:
    def standard_normal(self, size):
        return np.zeros(size)


class TestGarchParams:
    def test_stationarity_enforced(self):
        with pytest.raises(DomainError):
            bl.GarchParams(0.1, 0.5, 0.5)
        with pytest.raises(DomainError):
            bl.GarchParams(-0.1, 0.1, 0.1)

    def test_unconditional_variance(self):
        p = bl.GarchParams(0.1, 0.1, 0.8)
        assert p.unconditional_variance == pytest.approx(1.0)


class TestGarchFit:
    def test_iid_normal_detects_no_dynamics(self):
        returns = np.random.default_rng(3).standard_normal(5000)
        fit = bl.garch_fit(returns)
        assert fit.omega == pytest.approx(1.0, abs=0.15)
        assert fit.alpha + fit.beta <= 0.15

    def test_parameter_recovery_averaged(self):
        true = bl.GarchParams(0.1, 0.1, 0.8)
        deltas = []
        for seed in range(5):
            sim = bl.garch_simulate(true, 5000, np.random.default_rng(100 + seed))
            fit = bl.garch_fit(sim)
            deltas.append([fit.omega - 0.1, fit.alpha - 0.1, fit.beta - 0.8])
        mean_err = np.abs(np.mean(deltas, axis=0))
        assert np.all(mean_err <= 0.07), mean_err

    def test_constant_returns_rejected(self):
        with pytest.raises(DegenerateInputError):
            bl.garch_fit(np.full(500, 0.01))

    def test_too_short(self):
        with pytest.raises(SizeError):
            bl.garch_fit(np.random.default_rng(0).standard_normal(100))

    def test_exhausted_budget_reports_best_so_far(self, monkeypatch):
        monkeypatch.setattr(bl, "GARCH_MAX_EVALUATIONS", 20)
        returns = np.random.default_rng(3).standard_normal(500)
        with pytest.raises(ConvergenceError, match="exhausted 20 evaluations") as info:
            bl.garch_fit(returns)
        assert isinstance(info.value.best, bl.GarchParams)


class TestGarchSimulate:
    def test_no_dynamics_reduces_to_iid(self):
        p = bl.GarchParams(0.5, 0.0, 0.0)
        sim = bl.garch_simulate(p, 50_000, np.random.default_rng(1))
        assert sim.var() == pytest.approx(0.5, rel=0.05)

    def test_zero_shocks_give_zero_returns(self):
        p = bl.GarchParams(0.2, 0.1, 0.5)
        sim = bl.garch_simulate(p, 100, _ZeroRng())
        assert np.all(sim == 0.0)

    def test_long_run_variance_matches_theory(self):
        p = bl.GarchParams(0.1, 0.1, 0.8)
        sim = bl.garch_simulate(p, 100_000, np.random.default_rng(2))
        assert abs(sim.var() - p.unconditional_variance) <= 0.1 * p.unconditional_variance

    def test_volatility_clustering_present(self):
        p = bl.GarchParams(0.05, 0.15, 0.8)
        sim = bl.garch_simulate(p, 20_000, np.random.default_rng(4))
        sq = sim**2
        corr = np.corrcoef(sq[:-1], sq[1:])[0, 1]
        assert corr > 0.05


class TestGbmFit:
    def test_deterministic_exponential(self):
        c = 0.001
        closes = 100.0 * np.exp(c * np.arange(300))
        fit = bl.gbm_fit(make_prices(closes))
        # log/exp roundoff leaves a sub-ulp residual variance
        assert fit.sigma <= 1e-12
        assert fit.mu == pytest.approx(c, abs=1e-12)
        assert fit.s0 == pytest.approx(closes[-1])

    def test_two_prices_degenerate_variance(self):
        fit = bl.gbm_fit(make_prices([100.0, 105.0]))
        assert fit.sigma == 0.0

    def test_simulate_and_refit(self):
        true = bl.GbmParams(mu=0.05 / 252, sigma=0.2 / math.sqrt(252), s0=100.0)
        paths = bl.gbm_simulate(true, 5000, 1, np.random.default_rng(5))
        fit = bl.gbm_fit(make_prices(paths[0]))
        assert fit.sigma == pytest.approx(true.sigma, rel=0.05)
        bound = 3 * true.sigma / math.sqrt(5000) + true.sigma**2
        assert abs(fit.mu - true.mu) <= bound


class TestGbmSimulate:
    def test_zero_volatility_deterministic(self):
        p = bl.GbmParams(mu=0.01, sigma=0.0, s0=10.0)
        paths = bl.gbm_simulate(p, 20, 3, np.random.default_rng(6))
        expected = 10.0 * np.exp(0.01 * np.arange(21))
        for row in paths:
            assert row == pytest.approx(expected)

    def test_terminal_mean_within_mc_error(self):
        p = bl.GbmParams(mu=0.001, sigma=0.02, s0=50.0)
        horizon = 30
        paths = bl.gbm_simulate(p, horizon, 100_000, np.random.default_rng(7))
        terminal = paths[:, -1]
        expected = 50.0 * math.exp(0.001 * horizon)
        standard_error = terminal.std() / math.sqrt(terminal.shape[0])
        assert abs(terminal.mean() - expected) <= 3 * standard_error

    def test_log_return_moments(self):
        p = bl.GbmParams(mu=0.0005, sigma=0.015, s0=100.0)
        paths = bl.gbm_simulate(p, 2000, 50, np.random.default_rng(8))
        log_returns = np.diff(np.log(paths), axis=1).ravel()
        n = log_returns.size
        drift = p.mu - 0.5 * p.sigma**2
        assert abs(log_returns.mean() - drift) <= 4 * p.sigma / math.sqrt(n)
        assert log_returns.var() == pytest.approx(p.sigma**2, rel=0.05)

    def test_scale_equivariance(self):
        base = bl.GbmParams(mu=0.001, sigma=0.02, s0=25.0)
        doubled = bl.GbmParams(mu=0.001, sigma=0.02, s0=50.0)
        a = bl.gbm_simulate(base, 50, 4, np.random.default_rng(9))
        b = bl.gbm_simulate(doubled, 50, 4, np.random.default_rng(9))
        assert b == pytest.approx(2.0 * a)

    def test_param_validation(self):
        with pytest.raises(DomainError):
            bl.GbmParams(0.0, -0.1, 1.0)
        with pytest.raises(DomainError):
            bl.GbmParams(0.0, 0.1, 0.0)
