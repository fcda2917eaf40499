"""Randomized checks of the batched lead-lag engine against its oracles.

The forward is compared with the generic word-indexed `path_signature` of
`lead_lag` from oracles.py, the adjoint with central finite differences, at the same
tolerances as the fixed-input tests in test_signature.py. The window mean
is compared with the engine applied to the stacked windows, then averaged.
Forward, adjoint and window mean are also compared with the sequential
engine of oracles.py, which takes one run length at a time: the package's
step adds the same products in the same order, so these checks demand
equal arrays, and any reordered sum fails them. Examples come from the
derandomized profile in conftest.py, so every run checks the same cases.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from oracles import (
    lead_lag,
    path_signature,
    sequential_forward,
    sequential_vjp,
    sequential_window_mean,
)
from siggraphgan import signature as sg
from siggraphgan.errors import ShapeError, SizeError

# Window-mean error bound, relative to the largest |coefficient| any window
# has at that level: both sides add up terms of about that size, in
# different orders, so they differ by rounding far below this bound.
WINDOW_MEAN_RTOL = 1e-11


@st.composite
def series_batches(draw):
    """(B, n) batches with B in 1..5 and n in 2..25, or one 1-D series."""
    points = draw(st.integers(2, 25))
    shape = (points,) if draw(st.booleans()) else (draw(st.integers(1, 5)), points)
    return draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))


@given(series=series_batches(), degree=st.integers(1, 6))
def test_batch_matches_path_signature(series, degree):
    fast = sg.leadlag_signature_batch(series, degree)
    assert fast.shape == series.shape[:-1] + (sg.sig_length(2, degree),)
    for row, x in zip(np.atleast_2d(fast), np.atleast_2d(series)):
        reference = path_signature(lead_lag(x), degree).coefficients
        assert np.max(np.abs(row - reference)) <= 1e-11


def assert_engine_matches_sequential_engine(series, degree, seed):
    sig, cache = sg._leadlag_forward(series, degree)
    batch = np.atleast_2d(series)
    reference, reference_cache = sequential_forward(batch, degree)
    assert np.array_equal(np.atleast_2d(sig), reference)
    grad_out = np.random.default_rng(seed).standard_normal(sig.shape)
    grad = sg._leadlag_vjp(cache, grad_out)
    assert np.array_equal(
        np.atleast_2d(grad), sequential_vjp(reference_cache, np.atleast_2d(grad_out))
    )


@given(series=series_batches(), degree=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_engine_matches_sequential_engine_exactly(series, degree, seed):
    assert_engine_matches_sequential_engine(series, degree, seed)


@given(
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(1, 5),
    points=st.integers(2, 25),
    degree=st.integers(1, 6),
)
def test_vjp_matches_finite_differences(seed, batch, points, degree):
    # derivative of each row along a random direction: single coordinates
    # can have a structurally zero derivative (interior points at degree 1),
    # where the difference quotient is pure rounding noise
    rng = np.random.default_rng(seed)
    x = 0.5 * rng.standard_normal((batch, points))
    direction = rng.standard_normal((batch, points))
    weights = rng.standard_normal(sg.sig_length(2, degree))
    _, cache = sg._leadlag_forward(x, degree)
    grad = sg._leadlag_vjp(cache, np.tile(weights, (batch, 1)))
    h = 1e-6
    plus = sg.leadlag_signature_batch(x + h * direction, degree) @ weights
    minus = sg.leadlag_signature_batch(x - h * direction, degree) @ weights
    for analytic, num in zip((grad * direction).sum(axis=1), (plus - minus) / (2 * h)):
        rel = abs(analytic - num) / max(1e-6, abs(analytic) + abs(num))
        assert rel <= 1e-4


@st.composite
def window_series(draw):
    """A series of points..150 values, Gaussian or small integers, and points in 2..25."""
    points = draw(st.integers(2, 25))
    n = draw(st.integers(points, 150))
    if draw(st.booleans()):
        series = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n)
    else:
        ints = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        series = np.array(ints, dtype=np.float64)
    return series, points


def assert_window_mean_matches_engine(series, points, degree):
    per_window = sg.leadlag_signature_batch(sliding_window_view(series, points), degree)
    reference = per_window.mean(axis=0)
    fast = sg.leadlag_window_mean(series, points, degree)
    assert fast.shape == reference.shape
    offs = sg.level_offsets(2, degree)
    for k in range(degree + 1):
        level = slice(offs[k], offs[k + 1])
        scale = np.max(np.abs(per_window[:, level]))
        err = np.max(np.abs(fast[level] - reference[level]))
        assert err <= WINDOW_MEAN_RTOL * scale, f"level {k}: {err:.3g} against scale {scale:.3g}"


@given(case=window_series(), degree=st.integers(1, 6))
def test_window_mean_matches_engine(case, degree):
    assert_window_mean_matches_engine(*case, degree)


@given(case=window_series(), degree=st.integers(1, 6))
def test_window_mean_matches_sequential_scan_exactly(case, degree):
    series, points = case
    assert np.array_equal(
        sg.leadlag_window_mean(series, points, degree),
        sequential_window_mean(series, points, degree),
    )


@pytest.mark.parametrize("degree", [1, 5, 6])
def test_wide_batches_match_sequential_engine_exactly(degree):
    """317 series in one engine batch, and a window mean over 316 blocks."""
    rng = np.random.default_rng(17 + degree)
    assert_engine_matches_sequential_engine(rng.standard_normal((317, 20)), degree, degree)
    series = rng.standard_normal(6000)
    assert np.array_equal(
        sg.leadlag_window_mean(series, 20, degree), sequential_window_mean(series, 20, degree)
    )


@pytest.mark.parametrize(
    "n, points",
    [
        (20, 20),  # one window
        (30, 2),  # points = 2: blocks of one increment
        (25, 20),  # 6 windows, fewer than one block of 19 increments
        (57, 20),  # 38 windows, exactly two blocks of 19
        (12, 4),  # 9 windows, exactly three blocks of 3
    ],
)
@pytest.mark.parametrize("degree", [1, 5])
def test_window_mean_edge_cases(n, points, degree):
    series = np.random.default_rng(n * 100 + points).standard_normal(n)
    assert_window_mean_matches_engine(series, points, degree)


def test_window_mean_input_checks():
    with pytest.raises(ShapeError):
        sg.leadlag_window_mean(np.zeros((3, 20)), 5)
    with pytest.raises(SizeError):
        sg.leadlag_window_mean(np.zeros(20), 1)
    with pytest.raises(SizeError):
        sg.leadlag_window_mean(np.zeros(19), 20)


@pytest.mark.parametrize("degree", [0, -1])
def test_degree_below_one_rejected(degree):
    with pytest.raises(ShapeError, match="degree"):
        sg.leadlag_signature_batch(np.zeros((2, 5)), degree)
    with pytest.raises(ShapeError, match="degree"):
        sg.leadlag_window_mean(np.zeros(20), 5, degree)
