import numpy as np
import pytest

from ofifnet import DEFAULT_CONFIG, Model, init_weights


@pytest.fixture(scope="session")
def default_model():
    """Deployed configuration with seeded random weights, streaming mode."""
    return Model(DEFAULT_CONFIG, init_weights(DEFAULT_CONFIG, seed=7))


@pytest.fixture(scope="session")
def offline_model():
    """Same weights, literal full-utterance attention."""
    import dataclasses
    config = dataclasses.replace(DEFAULT_CONFIG, attention_mode="offline")
    return Model(config, init_weights(config, seed=7))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
