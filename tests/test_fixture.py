import numpy as np

from oracles import fixture_csv_text
from siggraphgan.fixture import FIXTURE_LENGTH, fixture_path, fixture_prices
from siggraphgan.preprocess import load_price_csv


def test_bundled_csv_matches_generator():
    with open(fixture_path()) as handle:
        assert handle.read() == fixture_csv_text()


def test_fixture_loads_and_validates():
    prices = load_price_csv(fixture_path())
    assert len(prices) == FIXTURE_LENGTH == 2515
    regenerated = fixture_prices()
    assert np.array_equal(prices.closes, regenerated.closes)
