"""Randomized checks of the batched lead-lag engine against its oracles.

The forward is compared with the generic word-indexed `path_signature` of
`lead_lag`, the adjoint with central finite differences, at the same
tolerances as the fixed-input tests in test_signature.py. Examples are
derandomized so every run checks the same cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from siggraphgan import signature as sg

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def series_batches(draw):
    """(B, n) batches with B in 1..5 and n in 2..25, or one 1-D series."""
    points = draw(st.integers(2, 25))
    shape = (points,) if draw(st.booleans()) else (draw(st.integers(1, 5)), points)
    return draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))


@PROPERTY_SETTINGS
@given(series=series_batches(), degree=st.integers(1, 6))
def test_batch_matches_path_signature(series, degree):
    fast = sg.leadlag_signature_batch(series, degree)
    assert fast.shape == series.shape[:-1] + (sg.sig_length(2, degree),)
    for row, x in zip(np.atleast_2d(fast), np.atleast_2d(series)):
        reference = sg.path_signature(sg.lead_lag(x), degree).coefficients
        assert np.max(np.abs(row - reference)) <= 1e-11


@PROPERTY_SETTINGS
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
