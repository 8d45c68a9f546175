"""Pseudo future frame construction and the fused 4-channel stack."""

import numpy as np
import pytest

from ofifnet.errors import ConfigurationError
from ofifnet.ofif import make_pseudo_frames, ofif_stack, ofif_stack_frames
from ofifnet.stdct import HOP_SIZE, WINDOW_SIZE, frame_signal, stdct
from ofifnet.tfca import TFCA_PARAM_SHAPES, TfcaBlock

F32 = np.float32


class TestMakePseudoFrames:

    def test_worked_example_one_frame(self):
        # samples 1..512: member k starts at sample k*128 + 1, zero after 512
        frame = np.arange(1, WINDOW_SIZE + 1, dtype=F32)
        group = make_pseudo_frames(frame)
        assert group.shape == (4, WINDOW_SIZE)
        for k in range(4):
            expect = np.zeros(WINDOW_SIZE, dtype=F32)
            expect[:WINDOW_SIZE - k * HOP_SIZE] = np.arange(k * HOP_SIZE + 1, WINDOW_SIZE + 1)
            np.testing.assert_array_equal(group[k], expect)

    def test_zero_frame_zero_group(self):
        assert np.all(make_pseudo_frames(np.zeros(WINDOW_SIZE, dtype=F32)) == 0.0)

    def test_bad_window_multiple_rejected(self):
        with pytest.raises(ConfigurationError):
            make_pseudo_frames(np.zeros(510, dtype=F32))

    def test_support_identity_against_true_future_frames(self, rng):
        # each pseudo frame must equal the real frame k hops ahead on its
        # first (4-k)*H samples, exactly, and be zero elsewhere, exactly
        wave = rng.uniform(-1, 1, 4000).astype(F32)
        raw = frame_signal(wave, windowed=False)
        t_dim = raw.shape[1]
        groups = make_pseudo_frames(raw)
        for t in range(t_dim):
            for k in range(1, 4):
                known = (4 - k) * HOP_SIZE
                assert np.all(groups[k, known:, t] == 0.0)
                if t + k < t_dim:
                    np.testing.assert_array_equal(groups[k, :known, t], raw[:known, t + k])


class TestOfifStack:

    def test_channel_zero_is_plain_analysis_bit_exact(self, rng):
        wave = rng.uniform(-1, 1, 4000).astype(F32)
        stacked = ofif_stack(wave)
        assert np.array_equal(stacked[0], stdct(wave))

    def test_one_second_shape(self, rng):
        wave = rng.uniform(-1, 1, 16000).astype(F32)
        assert ofif_stack(wave).shape == (4, 512, 122)

    def test_frame_calls_bit_identical_to_whole(self, rng):
        # the stream's n = 1 call and the offline forward's n = T call
        raw = frame_signal(rng.uniform(-1, 1, 16000).astype(F32), windowed=False)
        whole = ofif_stack_frames(raw)
        for t in range(raw.shape[1]):
            assert ofif_stack_frames(raw[:, t:t + 1])[:, :, 0].tobytes() == whole[:, :, t].tobytes()

    def test_no_extra_lookahead(self, rng):
        # every channel's column t sees only samples <= t*H + W - 1
        wave = rng.uniform(-1, 1, 3000).astype(F32)
        n = 1700
        wave2 = wave.copy()
        wave2[n] -= 0.25
        a, b = ofif_stack(wave), ofif_stack(wave2)
        for t in range(a.shape[2]):
            if t * HOP_SIZE + WINDOW_SIZE <= n:
                assert np.array_equal(a[:, :, t], b[:, :, t])


def random_tfca(rng, channels, zero_bias=False):
    params = {}
    for name, shape_of in TFCA_PARAM_SHAPES:
        arr = rng.uniform(-0.4, 0.4, shape_of(channels)).astype(F32)
        if zero_bias and name.endswith(".b"):
            arr = np.zeros_like(arr)
        params[name] = arr
    return TfcaBlock(channels, 15, params)


class TestOfifFuse:
    """Fusion of the stack by the attention block the model runs first."""

    def test_shape_preserved(self, rng):
        wave = rng.uniform(-1, 1, 2000).astype(F32)
        stacked = ofif_stack(wave)
        block = random_tfca(rng, 4)
        fused = block.forward(stacked, mode="cumulative")
        assert fused.shape == stacked.shape

    def test_zero_input_zero_output_with_zero_biases(self, rng):
        block = random_tfca(rng, 4, zero_bias=True)
        x = np.zeros((4, 64, 6), dtype=F32)
        assert np.all(block.forward(x, mode="cumulative") == 0.0)
        assert np.all(block.forward(x, mode="offline") == 0.0)

    def test_streaming_fuse_prefix_stable(self, rng):
        block = random_tfca(rng, 4)
        x = rng.uniform(-1, 1, (4, 32, 10)).astype(F32)
        x2 = x.copy()
        x2[:, :, 6:] += 1.0
        a = block.forward(x, mode="cumulative")
        b = block.forward(x2, mode="cumulative")
        assert np.array_equal(a[:, :, :6], b[:, :, :6])

    def test_wrong_channel_count_rejected(self, rng):
        block = random_tfca(rng, 4)
        with pytest.raises(ConfigurationError):
            block.forward(rng.uniform(-1, 1, (3, 16, 4)).astype(F32))
