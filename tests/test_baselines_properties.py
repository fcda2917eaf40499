"""Randomized checks of the baselines against the reference in oracles.py.

Cases come from hypothesis under the derandomized profile in conftest.py.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from oracles import garch_simulate_loop
from siggraphgan import baselines as bl


@st.composite
def garch_params(draw):
    alpha = draw(st.floats(0.0, 0.5))
    beta = draw(st.floats(0.0, 0.99 - alpha))
    return bl.GarchParams(draw(st.floats(1e-6, 10.0)), alpha, beta)


@given(params=garch_params(), n=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
def test_garch_simulate_matches_loop(params, n, seed):
    fast = bl.garch_simulate(params, n, np.random.default_rng(seed))
    slow = garch_simulate_loop(params, n, np.random.default_rng(seed))
    assert fast.shape == (n,)
    assert np.array_equal(fast, slow)
