import dataclasses
import datetime
import math

import numpy as np
import pytest
import scipy.special

from siggraphgan import preprocess as pp
from siggraphgan.errors import (
    DataError,
    DegenerateInputError,
    DomainError,
    OrderingError,
    SaturationError,
    SizeError,
)
from siggraphgan.siggan import SigGanConfig, SigGraphGan, train


def make_prices(closes):
    start = datetime.date(2020, 1, 1)
    dates = [start + datetime.timedelta(days=i) for i in range(len(closes))]
    return pp.PriceSeries(dates, np.asarray(closes, dtype=float))


class TestLogReturns:
    def test_unit_to_e(self):
        r = pp.log_returns(make_prices([1.0, math.e]))
        assert r.values == pytest.approx([1.0])

    def test_constant_closes(self):
        r = pp.log_returns(make_prices([5.0, 5.0, 5.0]))
        assert r.values == pytest.approx([0.0, 0.0])

    def test_direct_evaluation(self):
        r = pp.log_returns(make_prices([100.0, 110.0, 99.0]))
        assert r.values == pytest.approx([math.log(1.1), math.log(0.9)], abs=1e-12)

    def test_nonpositive_close_names_index(self):
        with pytest.raises(DomainError, match="index 2"):
            make_prices([1.0, 2.0, -3.0, 4.0])

    def test_recovers_from_exp_cumsum(self):
        rng = np.random.default_rng(0)
        r = rng.standard_normal(50) * 0.01
        prices = make_prices(np.exp(np.concatenate([[0.0], np.cumsum(r)])))
        assert np.max(np.abs(pp.log_returns(prices).values - r)) <= 1e-12


class TestNormalize:
    """The normalization `fit_stats` records; a light-tailed sample gets
    delta = 0, so `transform_with_stats` returns the normalized values."""

    def test_centering(self):
        values = np.tile([0.0, 0.0, 2.0], 40)
        stats = pp.fit_stats(values)
        assert stats.mean == pytest.approx(2.0 / 3.0)
        assert stats.delta == 0.0
        assert np.sum(pp.transform_with_stats(values, stats)) == pytest.approx(0.0, abs=1e-12)

    def test_idempotent_on_fixed_point(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(500)
        v = (v - v.mean()) / v.std()
        stats = dataclasses.replace(pp.fit_stats(v), delta=0.0)
        assert np.max(np.abs(pp.transform_with_stats(v, stats) - v)) <= 1e-12

    def test_population_std(self):
        values = np.tile([1.0, 2.0, 3.0], 40)
        stats = pp.fit_stats(values)
        expected = np.tile([-1.0, 0.0, 1.0], 40) / math.sqrt(2.0 / 3.0)
        assert stats.delta == 0.0
        assert pp.transform_with_stats(values, stats) == pytest.approx(expected, abs=1e-4)
        assert stats.std == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateInputError):
            pp.fit_stats(np.full(10, 0.25))


class TestPreprocessStats:
    @pytest.mark.parametrize(
        "mean,std,delta",
        [
            pytest.param(0.0, std, delta, id=f"{std}-{delta}")
            for std, delta in [
                (0.0, 0.1), (-1.0, 0.1), (math.nan, 0.1), (1.0, -1.0), (1.0, math.nan),
                (math.inf, 0.1), (1.0, math.inf),
            ]
        ]
        + [
            pytest.param(mean, 1.0, 0.1, id=f"mean={mean}")
            for mean in (math.nan, math.inf, -math.inf)
        ],
    )
    def test_invalid_fields_rejected(self, mean, std, delta):
        with pytest.raises(DomainError):
            pp.PreprocessStats(mean=mean, std=std, delta=delta)


class TestLambertW:
    def test_fixed_points(self):
        assert pp.lambert_w0(0.0) == 0.0
        assert pp.lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)

    def test_at_one_matches_bisection(self):
        # independent bisection oracle on w * e^w = 1
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mid * math.exp(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        assert pp.lambert_w0(1.0) == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    def test_residual_grid(self):
        xs = np.concatenate(
            [
                np.array([-1.0 / math.e + 1e-6, -0.25, -0.05]),
                np.logspace(-6, 6, 200),
            ]
        )
        w = pp.lambert_w0(xs)
        residual = np.abs(w * np.exp(w) - xs)
        assert np.all(residual <= 1e-12 * np.maximum(1.0, np.abs(xs)))

    def test_matches_scipy(self):
        xs = np.logspace(-4, 4, 50)
        assert pp.lambert_w0(xs) == pytest.approx(
            np.real(scipy.special.lambertw(xs)), abs=1e-12
        )

    def test_domain_error(self):
        with pytest.raises(DomainError):
            pp.lambert_w0(-1.0)


class TestGaussianization:
    def test_zero_maps_to_zero(self):
        for delta in (0.0, 0.3, 2.0):
            assert pp.gaussianize(0.0, delta) == 0.0

    def test_identity_branch(self):
        assert pp.degaussianize(1.7, 0.0) == 1.7
        assert pp.gaussianize(1.7, 0.0) == 1.7

    def test_round_trip(self):
        zs = np.arange(-3.0, 3.5, 0.5)
        for delta in (0.1, 0.5, 1.0):
            back = pp.gaussianize(pp.degaussianize(zs, delta), delta)
            assert np.max(np.abs(back - zs)) <= 1e-9

    def test_heavy_tail_formula(self):
        assert pp.degaussianize(1.0, 0.2) == pytest.approx(math.exp(0.1), abs=1e-14)

    def test_oddness(self):
        zs = np.linspace(0.1, 4.0, 25)
        assert pp.gaussianize(-zs, 0.4) == pytest.approx(-pp.gaussianize(zs, 0.4))
        assert pp.degaussianize(-zs, 0.4) == pytest.approx(-pp.degaussianize(zs, 0.4))

    def test_overflow_reports_inputs(self):
        with pytest.raises(SaturationError, match="delta"):
            pp.degaussianize(60.0, 1.0)


class TestFitDelta:
    def test_standard_normal_sample(self):
        sample = np.random.default_rng(42).standard_normal(10_000)
        assert pp.fit_delta(sample) <= 0.05

    def test_recovers_injected_tail_weight(self):
        rng = np.random.default_rng(7)
        heavy = pp.degaussianize(rng.standard_normal(10_000), 0.3)
        assert 0.2 <= pp.fit_delta(heavy) <= 0.4

    def test_light_tails_clamp_to_zero(self):
        sample = np.random.default_rng(5).uniform(-1.0, 1.0, 5000)
        assert pp.fit_delta(sample) == 0.0

    def test_too_short(self):
        with pytest.raises(SizeError):
            pp.fit_delta(np.zeros(50))

    def test_non_finite_rejected(self):
        bad = np.ones(200)
        bad[3] = np.nan
        with pytest.raises(DomainError):
            pp.fit_delta(bad)


class TestWindows:
    """The sliding windows `train` draws its real batches from: stride 1,
    oldest first, each drawn once per epoch at batch size 1."""

    @staticmethod
    def drawn_windows(monkeypatch, values, length, batch_size=1):
        drawn = []
        forward = SigGraphGan.discriminator_forward

        def recording_forward(model, x, *args, **kwargs):
            drawn.append(x[:, :, 0].copy())
            return forward(model, x, *args, **kwargs)

        monkeypatch.setattr(SigGraphGan, "discriminator_forward", recording_forward)
        cfg = SigGanConfig.for_loss(
            "mse", seq_len=length, batch_size=batch_size, epochs=1, gnn_neurons=4,
            geo_lstm_neurons=4, rec_lstm_neurons=4, gnn_layers=1, rec_lstm_layers=1,
        )
        train(values, cfg)
        # the critic's step and the generator's step each see the batch once
        assert all(np.array_equal(a, b) for a, b in zip(drawn[::2], drawn[1::2]))
        rows = np.concatenate(drawn[::2])
        return rows[np.lexsort(rows.T[::-1])]

    @pytest.mark.parametrize(
        "n,length,batch_size,expected",
        [(5, 5, 1, 1), (7, 5, 1, 3), (100, 100, 1, 1)],
    )
    def test_counts(self, monkeypatch, n, length, batch_size, expected):
        values = np.arange(float(n))
        out = self.drawn_windows(monkeypatch, values, length, batch_size)
        assert out.shape == (expected, length)

    def test_window_contents(self, monkeypatch):
        out = self.drawn_windows(monkeypatch, np.arange(6.0), 3)
        assert out.tolist() == [[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5]]

    def test_too_short(self):
        cfg = SigGanConfig.for_loss("mse", seq_len=4, batch_size=1)
        with pytest.raises(SizeError):
            train(np.arange(3.0), cfg)


class TestFullPipeline:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(11)
        returns = pp.degaussianize(rng.standard_normal(2000), 0.25)
        returns = returns * 0.01 + 0.0002
        stats = pp.fit_stats(returns)
        gauss = pp.transform_with_stats(returns, stats)
        back = pp.invert_pipeline(gauss, stats)
        assert np.max(np.abs(back - returns)) <= 1e-9

    def test_prepare_training_returns(self):
        rng = np.random.default_rng(3)
        prices = make_prices(100 * np.exp(np.cumsum(rng.standard_normal(500) * 0.01)))
        gauss, stats = pp.prepare_training_returns(prices)
        assert gauss.shape == (499,)
        assert stats.std > 0
        back = pp.invert_pipeline(gauss, stats)
        assert back == pytest.approx(pp.log_returns(prices).values, abs=1e-9)


class TestPriceCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("date,close\n2020-01-01,100.5\n2020-01-02,101.25\n")
        prices = pp.load_price_csv(path)
        assert prices.closes.tolist() == [100.5, 101.25]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,price\n2020-01-01,1\n")
        with pytest.raises(DataError, match="header"):
            pp.load_price_csv(path)

    def test_descending_dates_rejected(self, tmp_path):
        path = tmp_path / "desc.csv"
        path.write_text("date,close\n2020-01-02,1\n2020-01-01,2\n")
        with pytest.raises(OrderingError, match=":3"):
            pp.load_price_csv(path)

    def test_bad_close_names_line(self, tmp_path):
        path = tmp_path / "badval.csv"
        path.write_text("date,close\n2020-01-01,1\n2020-01-02,abc\n")
        with pytest.raises(DataError, match=":3"):
            pp.load_price_csv(path)

    def test_missing_file(self):
        with pytest.raises(DataError):
            pp.load_price_csv("/nonexistent/prices.csv")
