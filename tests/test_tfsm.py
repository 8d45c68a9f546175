"""Dual-path sequence modeling block: residuals, causality, state carrying."""

import numpy as np
import pytest

from ofifnet.errors import ConfigurationError
from ofifnet.tfsm import TfsmBlock

F32 = np.float32


def make_block(rng, channels, hidden, zero=False):
    def draw(shape):
        if zero:
            return np.zeros(shape, dtype=F32)
        return rng.uniform(-0.3, 0.3, shape).astype(F32)

    params = {}
    for d in ("ffwd", "fbwd", "time"):
        params[f"{d}.W"] = draw((3 * hidden, channels))
        params[f"{d}.U"] = draw((3 * hidden, hidden))
        params[f"{d}.b"] = draw((3 * hidden,))
    params["fproj.w"] = draw((channels, 2 * hidden))
    params["fproj.b"] = draw((channels,))
    params["tproj.w"] = draw((channels, hidden))
    params["tproj.b"] = draw((channels,))
    return TfsmBlock(channels, hidden, params)


class TestTfsmBlock:

    def test_zero_weights_pass_input_through(self, rng):
        block = make_block(rng, 6, 3, zero=True)
        x = rng.uniform(-1, 1, (6, 4, 5)).astype(F32)
        np.testing.assert_array_equal(block.forward(x), x)

    def test_bottleneck_shape_preserved(self, rng):
        block = make_block(rng, 128, 128)
        x = rng.uniform(-1, 1, (128, 16, 4)).astype(F32)
        assert block.forward(x).shape == (128, 16, 4)

    def test_prefix_stability_bit_exact(self, rng):
        block = make_block(rng, 8, 4)
        x = rng.uniform(-1, 1, (8, 6, 10)).astype(F32)
        t0 = 6
        x2 = x.copy()
        x2[:, :, t0:] += 0.5
        a, b = block.forward(x), block.forward(x2)
        assert np.array_equal(a[:, :, :t0], b[:, :, :t0])
        assert not np.array_equal(a[:, :, t0:], b[:, :, t0:])

    def test_streaming_equals_batch_bit_exact(self, rng):
        block = make_block(rng, 8, 4)
        x = rng.uniform(-1, 1, (8, 6, 9)).astype(F32)
        batch = block.forward(x)
        state = block.init_state()
        stepped = np.concatenate([block.step(x[:, :, t:t + 1], state) for t in range(9)], axis=2)
        assert np.array_equal(batch, stepped)

    def test_three_block_stack_preserves_shape(self, rng):
        x = rng.uniform(-1, 1, (16, 8, 6)).astype(F32)
        for hidden in (16, 8, 4):
            x = make_block(rng, 16, hidden).forward(x)
        assert x.shape == (16, 8, 6)

    def test_channel_mismatch_rejected(self, rng):
        block = make_block(rng, 6, 3)
        with pytest.raises(ConfigurationError):
            block.forward(rng.uniform(-1, 1, (5, 4, 3)).astype(F32))
