import itertools
import tracemalloc

import numpy as np
import pytest

from oracles import (
    Path,
    SignatureVector,
    chen_concat,
    iterated_integral_quadrature,
    lead_lag,
    path_signature,
    segment_signature,
)
from siggraphgan import signature as sg
from siggraphgan.errors import ShapeError, SizeError


class TestLeadLag:
    def test_two_point_construction(self):
        assert lead_lag([0.0, 1.0]).points.tolist() == [
            [0.0, 0.0],
            [1.0, 0.0],
            [1.0, 1.0],
        ]

    def test_three_point_construction(self):
        assert lead_lag([1.0, 2.0, 3.0]).points.tolist() == [
            [1.0, 1.0],
            [2.0, 1.0],
            [2.0, 2.0],
            [3.0, 2.0],
            [3.0, 3.0],
        ]

    def test_constant_series_signature_trivial(self):
        sig = path_signature(lead_lag([4.0, 4.0, 4.0]), 5)
        expected = np.zeros(63)
        expected[0] = 1.0
        assert sig.coefficients == pytest.approx(expected)

    def test_too_short(self):
        with pytest.raises(SizeError):
            lead_lag([1.0])


class TestSegmentSignature:
    def test_tensor_exponential_level_two(self):
        sig = segment_signature(np.array([1.0, 2.0]), 2)
        assert sig.coefficients == pytest.approx([1, 1, 2, 0.5, 1, 1, 2])

    def test_zero_increment(self):
        sig = segment_signature(np.zeros(2), 3)
        expected = np.zeros(sg.sig_length(2, 3))
        expected[0] = 1.0
        assert sig.coefficients == pytest.approx(expected)

    def test_level_one_only(self):
        sig = segment_signature(np.array([1.0, 2.0]), 1)
        assert sig.coefficients == pytest.approx([1, 1, 2])


class TestChenConcat:
    def test_identity_element(self):
        rng = np.random.default_rng(0)
        sig = segment_signature(rng.standard_normal(2), 4)
        trivial = np.zeros(sg.sig_length(2, 4))
        trivial[0] = 1.0
        ident = SignatureVector(2, 4, trivial)
        assert chen_concat(sig, ident).coefficients == pytest.approx(
            sig.coefficients
        )
        assert chen_concat(ident, sig).coefficients == pytest.approx(
            sig.coefficients
        )

    def test_collinear_segments_merge(self):
        a = segment_signature(np.array([0.4, -0.9]), 5)
        merged = chen_concat(a, a)
        direct = segment_signature(np.array([0.8, -1.8]), 5)
        assert np.max(np.abs(merged.coefficients - direct.coefficients)) <= 1e-12

    def test_levy_area_of_square_corner(self):
        a = segment_signature(np.array([1.0, 0.0]), 2)
        b = segment_signature(np.array([0.0, 1.0]), 2)
        c = chen_concat(a, b)
        assert c.level(2) == pytest.approx([0.5, 1.0, 0.0, 0.5])
        area = 0.5 * (c.coefficient((1, 2)) - c.coefficient((2, 1)))
        assert area == pytest.approx(0.5)

    def test_associativity(self):
        rng = np.random.default_rng(1)
        sigs = [segment_signature(rng.standard_normal(2), 5) for _ in range(3)]
        left = chen_concat(chen_concat(sigs[0], sigs[1]), sigs[2])
        right = chen_concat(sigs[0], chen_concat(sigs[1], sigs[2]))
        assert np.max(np.abs(left.coefficients - right.coefficients)) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            chen_concat(
                segment_signature(np.ones(2), 3),
                segment_signature(np.ones(3), 3),
            )


class TestPathSignature:
    def test_straight_path_equals_segment(self):
        pts = np.array([[0.0, 0.0], [0.7, -0.3]])
        sig = path_signature(Path(pts), 4)
        seg = segment_signature(pts[1] - pts[0], 4)
        assert sig.coefficients == pytest.approx(seg.coefficients)

    def test_reparameterization_invariance(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.5]])
        with_mid = np.array([[0.0, 0.0], [0.5, 0.25], [1.0, 0.5]])
        a = path_signature(Path(pts), 5)
        b = path_signature(Path(with_mid), 5)
        assert np.max(np.abs(a.coefficients - b.coefficients)) <= 1e-12

    def test_single_point_path_is_trivial(self):
        sig = path_signature(Path(np.zeros((1, 2))), 3)
        assert sig.coefficients[0] == 1.0
        assert np.all(sig.coefficients[1:] == 0.0)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(3):
            pts = rng.standard_normal((4 + trial % 2, 2))
            sig = path_signature(Path(pts), 3)
            for length in (1, 2, 3):
                for word in itertools.product((1, 2), repeat=length):
                    reference = iterated_integral_quadrature(pts, word)
                    assert sig.coefficient(word) == pytest.approx(
                        reference, abs=1e-6
                    ), f"word {word}"

    def test_level_one_is_displacement(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((8, 2))
        sig = path_signature(Path(pts), 3)
        assert sig.level(1) == pytest.approx(pts[-1] - pts[0])

    def test_shuffle_relation_level_two(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            pts = rng.standard_normal((6, 2))
            sig = path_signature(Path(pts), 2)
            for i, j in itertools.product((1, 2), repeat=2):
                lhs = sig.coefficient((i, j)) + sig.coefficient((j, i))
                rhs = sig.coefficient((i,)) * sig.coefficient((j,))
                assert abs(lhs - rhs) <= 1e-10

    def test_time_reversal_inverts(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((5, 2))
        loop = np.concatenate([pts, pts[::-1][1:]], axis=0)
        sig = path_signature(Path(loop), 5)
        expected = np.zeros(63)
        expected[0] = 1.0
        assert np.max(np.abs(sig.coefficients - expected)) <= 1e-10


class TestBatchedEngine:
    def test_matches_generic_path_signature(self):
        rng = np.random.default_rng(11)
        series = rng.standard_normal((6, 12))
        fast = sg.leadlag_signature_batch(series, 5)
        for i in range(series.shape[0]):
            reference = path_signature(lead_lag(series[i]), 5).coefficients
            assert np.max(np.abs(fast[i] - reference)) <= 1e-11

    def test_single_series_shape(self):
        out = sg.leadlag_signature_batch(np.array([0.0, 1.0, 0.5]), 5)
        assert out.shape == (63,)

    def test_vjp_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        x = 0.5 * rng.standard_normal((2, 6))
        weights = rng.standard_normal(63)
        _, cache = sg._leadlag_forward(x, 5)
        grad = sg._leadlag_vjp(cache, np.tile(weights, (2, 1)))
        h = 1e-6
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                xp, xm = x.copy(), x.copy()
                xp[i, j] += h
                xm[i, j] -= h
                num = (
                    float(sg.leadlag_signature_batch(xp, 5)[i] @ weights)
                    - float(sg.leadlag_signature_batch(xm, 5)[i] @ weights)
                ) / (2 * h)
                rel = abs(grad[i, j] - num) / max(1e-6, abs(grad[i, j]) + abs(num))
                assert rel <= 1e-4

    def test_monte_carlo_concentration(self):
        # two independent halves of the same generator agree within MC error
        rng = np.random.default_rng(10)
        windows = 0.01 * rng.standard_normal((2000, 15))
        sigs = sg.leadlag_signature_batch(windows, 4)
        mean_a = sigs[:1000].mean(axis=0)
        mean_b = sigs[1000:].mean(axis=0)
        scale = np.maximum(sigs.std(axis=0), 1e-12)
        # 3 / sqrt(1000) per coefficient scale, doubled for the two-sample gap
        assert np.all(np.abs(mean_a - mean_b) <= 2 * 3.0 * scale / np.sqrt(1000))


class TestEngineMemory:
    def test_report_scale_batch_within_budget(self):
        """One forward-only (20000, 20) engine batch stays within 256 MiB.

        That is the window stack of a 20000-point series. `build_report`
        no longer signs such stacks (it averages windows through
        `leadlag_window_mean`), so this pins the engine on its own. The
        batch takes 38 Chen steps at degree 5. Snapshots of levels 0..4
        (31 rows of 20000 values per step) are 180 MiB and the working
        signature 10 MiB. The steps' two work buffers (57 rows each, 9 MiB
        each) are freed before the row-major result is laid out, which
        takes two copies of 10 MiB: measured 212 MiB peak on numpy 2.4.
        Snapshots of all 63 rows would measure about 395 MiB.
        """
        series = np.random.default_rng(14).standard_normal((20000, 20))
        tracemalloc.start()
        try:
            sigs = sg.leadlag_signature_batch(series, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sigs.shape == (20000, 63)
        assert peak < 256 * 2**20, f"peak {peak / 2**20:.0f} MiB"


class TestCounting:
    def test_coefficient_count_d2_m5(self):
        assert sg.sig_length(2, 5) == 63
        sig = path_signature(lead_lag([0.0, 1.0, 0.3]), 5)
        assert sig.coefficients.shape == (63,)
        assert sig.coefficients[0] == 1.0

    @pytest.mark.parametrize("dim,degree", [(1, 5), (2, 3), (3, 2)])
    def test_general_count_formula(self, dim, degree):
        expected = sum(dim**k for k in range(degree + 1))
        assert sg.sig_length(dim, degree) == expected
