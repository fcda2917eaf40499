import resource

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import build_report_recomputed, emd_lp
from siggraphgan import metrics as mt
from siggraphgan.errors import DegenerateInputError, SizeError
from siggraphgan.fixture import fixture_prices


class TestKDayAggregate:
    def test_identity_at_one(self):
        r = np.array([0.1, -0.2, 0.3])
        assert mt.k_day_aggregate(r, 1) == pytest.approx(r)

    def test_rolling_sums(self):
        assert mt.k_day_aggregate(np.array([1.0, 2.0, 3.0]), 2) == pytest.approx(
            [3.0, 5.0]
        )

    def test_stride_k_slices_telescope(self):
        rng = np.random.default_rng(0)
        r = rng.standard_normal(40)
        agg = mt.k_day_aggregate(r, 5)
        assert np.sum(agg[::5]) == pytest.approx(np.sum(r))

    def test_horizon_too_long(self):
        with pytest.raises(SizeError):
            mt.k_day_aggregate(np.zeros(3), 4)


class TestEmd:
    def test_identical_samples(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100)
        assert mt.emd_1d(x, x.copy()) == 0.0

    def test_point_masses(self):
        assert mt.emd_1d([0.0], [1.0]) == pytest.approx(1.0)

    def test_sorted_pairing(self):
        assert mt.emd_1d([0.0, 1.0], [0.5, 1.5]) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(SizeError):
            mt.emd_1d([], [1.0])

    def test_matches_lp_oracle_equal_sizes(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = rng.integers(2, 11)
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            assert mt.emd_1d(x, y) == pytest.approx(emd_lp(x, y), abs=1e-9)

    def test_matches_lp_oracle_unequal_sizes(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, m = rng.integers(1, 11, size=2)
            x = rng.standard_normal(n)
            y = rng.standard_normal(m)
            assert mt.emd_1d(x, y) == pytest.approx(emd_lp(x, y), abs=1e-9)

    def test_metric_axioms(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.standard_normal(6)
            y = rng.standard_normal(6)
            z = rng.standard_normal(6)
            dxy = mt.emd_1d(x, y)
            assert dxy == pytest.approx(mt.emd_1d(y, x), abs=1e-12)
            assert dxy >= 0.0
            assert mt.emd_1d(x, np.random.permutation(x)) == pytest.approx(0.0)
            assert dxy <= mt.emd_1d(x, z) + mt.emd_1d(z, y) + 1e-12

    def test_scaling_linearity(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(30)
        y = rng.standard_normal(30)
        base = mt.emd_1d(x, y)
        for c in (-2.0, 0.5, 10.0):
            assert mt.emd_1d(c * x, c * y) == pytest.approx(abs(c) * base, abs=1e-12)


class TestLeverageEffect:
    def test_identical_series(self):
        rng = np.random.default_rng(9)
        r = rng.standard_normal(500)
        assert mt.leverage_effect_score(r, r.copy()) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal(500)
        b = rng.standard_normal(500)
        assert mt.leverage_effect_score(a, b) == pytest.approx(
            mt.leverage_effect_score(b, a)
        )

    def test_independent_gaussians_near_zero(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal(5000)
        b = rng.standard_normal(5000)
        assert mt.leverage_effect_score(a, b) <= 0.1

    def test_detects_leverage(self):
        # negative return today -> much higher volatility for days after
        rng = np.random.default_rng(12)
        n = 4000
        shocks = rng.standard_normal(n)
        vol = np.ones(n)
        for t in range(1, n):
            vol[t] = 0.1 + 0.6 * vol[t - 1] + 2.0 * max(0.0, -shocks[t - 1])
        leveraged = shocks * vol
        plain = rng.standard_normal(n)
        assert mt.leverage_effect_score(leveraged, plain) > 0.1

    def test_too_short(self):
        with pytest.raises(SizeError):
            mt.leverage_effect_score(np.zeros(20), np.zeros(20))

    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateInputError):
            mt.leverage_effect_score(np.ones(100), np.ones(100))


class TestReport:
    def test_identical_inputs_all_zero(self):
        rng = np.random.default_rng(13)
        r = 0.01 * rng.standard_normal(400)
        report = mt.build_report(r, r.copy())
        for label in mt.REPORT_LABELS:
            assert report.values[label] == 0.0

    def test_labels_match_contract(self):
        assert mt.REPORT_LABELS == (
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

    def test_display_scaling(self):
        rng = np.random.default_rng(14)
        real = 0.01 * rng.standard_normal(300)
        fake = 0.01 * rng.standard_normal(300)
        report = mt.build_report(real, fake)
        csv_text = report.to_csv_text()
        assert csv_text.startswith("metric,raw,display_x100\n")
        rows = [line.split(",") for line in csv_text.splitlines()[1:]]
        assert [row[0] for row in rows] == list(mt.REPORT_LABELS)
        for label, raw, display in rows:
            assert float(raw) == report.values[label]
            assert float(display) == pytest.approx(report.values[label] * 100.0)

    def test_values_nonnegative_and_finite(self):
        rng = np.random.default_rng(15)
        real = 0.01 * rng.standard_normal(300)
        fake = 0.02 * rng.standard_normal(350) + 0.001
        report = mt.build_report(real, fake)
        for label in mt.REPORT_LABELS:
            assert report.values[label] >= 0.0
            assert np.isfinite(report.values[label])

    def test_too_short_rejected(self):
        with pytest.raises(SizeError):
            mt.build_report(np.zeros(50), np.zeros(50))


class TestReportMemo:
    """`build_report` keeps the last real series' side; every value must equal
    `build_report_recomputed`, which recomputes both sides on each call."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.tuples(st.integers(238, 400), st.integers(119, 300), st.integers(119, 300)),
        degrees=st.permutations([3, 5]),
        position=st.floats(0.0, 1.0, exclude_max=True),
        value=st.floats(-0.1, 0.1),
    )
    def test_call_sequence_matches_recomputed_report(self, seed, sizes, degrees, position, value):
        rng = np.random.default_rng(seed)
        n_a, n_b, n_fake = sizes
        real_a = 0.01 * rng.standard_normal(n_a)  # long enough for real_a[::2]
        real_b = 0.01 * rng.standard_normal(n_b)
        fake_1, fake_2 = 0.01 * rng.standard_normal((2, n_fake))
        first, second = degrees

        def check(real, fake, degree):
            report = mt.build_report(real, fake, degree)
            assert report.values == build_report_recomputed(real, fake, degree).values
            assert mt._real_side.cache_info().currsize == 1

        check(real_a, fake_1, first)
        check(real_a, fake_2, first)  # the same real, another fake
        for real, fake in ((real_b, fake_1), (real_a, fake_2), (real_b, fake_2)):
            check(real, fake, first)  # two reals alternating
        real_a[int(position * n_a)] = value  # mutated in place
        check(real_a, fake_1, first)
        check(real_a[::2], fake_2, first)  # a non-contiguous view
        check(real_a, fake_1, second)
        check(real_a, fake_2, second)
        check(real_a, fake_1, first)

    def test_memo_arrays_are_read_only(self):
        real = 0.01 * np.random.default_rng(5).standard_normal(300)
        mt.build_report(real, real[::-1])
        side = mt._real_side(real.tobytes(), real.shape, 5)
        assert mt._real_side.cache_info().currsize == 1
        assert not any(array.flags.writeable for pair in side for array in pair)


class TestReportMemory:
    def test_fixture_against_20000_returns_within_budget(self, traced_peak):
        """One report of the fixture's 2514 returns against 20000 fake ones stays under 64 MiB.

        The largest expected signature, over about 20000 aggregated values
        in blocks of 19 increments, keeps the prefix and the suffix
        signatures of every window start in one buffer of two (63, 19, 1053)
        float64 arrays, about 10 MiB each. Measured 23 MiB peak on numpy 2.4.
        Signing every 20-point window on its own, through engine batches of
        up to (19981, 20) with their snapshots, peaked at 212 MiB.
        """
        real = np.diff(np.log(fixture_prices().closes))
        fake = 0.01 * np.random.default_rng(16).standard_normal(20000)
        with traced_peak() as peak:
            report = mt.build_report(real, fake)
        assert all(np.isfinite(v) for v in report.values.values())
        assert peak.bytes < 64 * 2**20, f"peak {peak.bytes / 2**20:.0f} MiB"

    @pytest.mark.parametrize("n_fake", [4000, 20000])
    def test_repeated_report_faults_no_fresh_pages(self, n_fake):
        """After one warm-up, a report on the same inputs reuses the heap it left.

        The window-mean scans write one (2, 63, 19, n_blocks) buffer per call,
        about 20 MB at 20000 returns, and every per-step temporary is freed
        before the next is taken, so a second report finds its pages already
        mapped. Measured 0-1 minor page faults at both sizes on Linux. Filling
        a fresh 20 MB array measured about 290, since numpy asks for huge
        pages for large arrays (4 KiB pages alone would take about 5000).
        """
        real = np.diff(np.log(fixture_prices().closes))
        fake = 0.01 * np.random.default_rng(16).standard_normal(n_fake)
        mt.build_report(real, fake)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        mt.build_report(real, fake)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults <= 16, f"{faults} minor page faults"
