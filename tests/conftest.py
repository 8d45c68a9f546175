import numpy as np
import pytest

from ofifnet import DEFAULT_CONFIG, Model, init_weights


@pytest.fixture(scope="session")
def default_model():
    """Deployed configuration with seeded random weights."""
    return Model(DEFAULT_CONFIG, init_weights(DEFAULT_CONFIG, seed=7))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
