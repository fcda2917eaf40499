"""Bundled synthetic price fixture.

A seeded geometric-Brownian-motion series of 2515 closes stands in for
non-redistributable index data in tests, smoke runs, and the README
walkthrough. The CSV shipped under ``data/`` is exactly the output of
`fixture_prices`, which tests verify.
"""

from __future__ import annotations

import datetime
import importlib.resources

import numpy as np

from .preprocess import PriceSeries

FIXTURE_SEED = 20100104
FIXTURE_LENGTH = 2515
FIXTURE_MU = 0.0004
FIXTURE_SIGMA = 0.011
FIXTURE_START_PRICE = 1000.0
FIXTURE_START_DATE = datetime.date(2010, 1, 4)


def fixture_prices() -> PriceSeries:
    """Deterministic GBM closes on consecutive calendar dates."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(FIXTURE_SEED)))
    shocks = rng.standard_normal(FIXTURE_LENGTH - 1)
    log_steps = (FIXTURE_MU - 0.5 * FIXTURE_SIGMA**2) + FIXTURE_SIGMA * shocks
    closes = FIXTURE_START_PRICE * np.exp(np.concatenate([[0.0], np.cumsum(log_steps)]))
    dates = [FIXTURE_START_DATE + datetime.timedelta(days=i) for i in range(FIXTURE_LENGTH)]
    return PriceSeries(dates, closes)


def fixture_path() -> str:
    """Filesystem path of the bundled fixture CSV."""
    return str(importlib.resources.files("siggraphgan").joinpath("data/gbm_fixture.csv"))
