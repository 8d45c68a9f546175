"""Analysis/synthesis tests: framing arithmetic, orthonormality, reconstruction."""

import numpy as np
import pytest

from ofifnet.errors import ConfigurationError, SignalTooShortError
from ofifnet.stdct import (
    DCT_SIZE,
    HOP_SIZE,
    OverlapAdd,
    WINDOW_SIZE,
    dct_frames,
    dct_matrix,
    frame_signal,
    frame_signal_full,
    hamming_window,
    hop_frames,
    istdct_ola,
    stdct,
    tail_zeros,
)

F32 = np.float32


class TestFraming:

    def test_frame_counts(self):
        for length, frames in [(512, 1), (512 + 128, 2), (16000, 122), (16000 + 127, 122)]:
            wave = np.zeros(length, dtype=F32)
            assert frame_signal(wave).shape == (512, frames)
            assert frame_signal(wave, windowed=False).shape == (512, frames)

    def test_hop_frames_read_only_view(self, rng):
        buf = rng.uniform(-1, 1, 1000).astype(F32)
        view = hop_frames(buf)
        assert view.shape == (512, 4) and not view.flags.writeable
        assert np.shares_memory(view, buf)
        np.testing.assert_array_equal(view[:, 3], buf[384:896])
        assert hop_frames(buf[:511]).shape == (512, 0)
        assert hop_frames(np.zeros(0, dtype=F32)).shape == (512, 0)

    def test_too_short_rejected(self):
        with pytest.raises(SignalTooShortError):
            frame_signal(np.zeros(511, dtype=F32))

    def test_windowed_frame_content(self, rng):
        wave = rng.uniform(-1, 1, 900).astype(F32)
        frames = frame_signal(wave)
        win = hamming_window()
        expect = (win * wave[128:128 + 512].astype(np.float64)).astype(F32)
        np.testing.assert_array_equal(frames[:, 1], expect)

    def test_adjacent_raw_frames_share_three_hops(self, rng):
        wave = rng.uniform(-1, 1, 640).astype(F32)
        raw = frame_signal(wave, windowed=False)
        assert raw.shape == (512, 2)
        np.testing.assert_array_equal(raw[:384, 1], raw[128:, 0])

    def test_window_values_in_unit_interval(self):
        win = hamming_window()
        assert win.min() > 0.0 and win.max() <= 1.0

    # length, zeros completing the last frame, frames once padded
    @pytest.mark.parametrize("length, zeros, frames", [
        (0, 0, 0), (1, 511, 1), (100, 412, 1), (512, 0, 1), (513, 127, 2), (639, 1, 2),
        (640, 0, 2), (641, 127, 3), (16000, 0, 122), (16001, 127, 123)])
    def test_full_framing_counts(self, length, zeros, frames):
        assert tail_zeros(length) == zeros
        assert frame_signal_full(np.ones(length, dtype=F32)).shape == (512, frames)

    def test_full_framing_padded_tail(self):
        # 700 samples: complete frames at offsets 0 and 128, then a 60-sample
        # tail covered by one zero-padded frame at offset 256
        raw = frame_signal_full(np.ones(700, dtype=F32))
        assert raw.shape == (512, 3)
        assert np.all(raw[:700 - 256, 2] == 1.0)
        assert np.all(raw[700 - 256:, 2] == 0.0)


class TestDct:

    def test_orthonormal_gram_identity(self):
        d = dct_matrix()
        gram = d @ d.T
        assert np.abs(gram - np.eye(DCT_SIZE)).max() <= 1e-6

    def test_constant_frame_concentrates_in_first_bin(self):
        c = 0.75
        frames = np.full((512, 1), c, dtype=F32)
        spec = dct_frames(frames)
        assert abs(spec[0, 0] - c * np.sqrt(512.0)) <= 1e-4
        assert np.abs(spec[1:, 0]).max() < 1e-6

    def test_impulse_gives_first_basis_column(self):
        frames = np.zeros((512, 1), dtype=F32)
        frames[0, 0] = 1.0
        spec = dct_frames(frames)
        np.testing.assert_allclose(spec[:, 0], dct_matrix()[:, 0], atol=1e-7)

    def test_wrong_length_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            dct_frames(rng.uniform(-1, 1, (256, 3)).astype(F32))


class TestStdct:

    def test_one_second_shape(self, rng):
        wave = rng.uniform(-1, 1, 16000).astype(F32)
        assert stdct(wave).shape == (512, 122)

    def test_zero_input_zero_output(self):
        assert np.all(stdct(np.zeros(2000, dtype=F32)) == 0.0)

    def test_sample_perturbation_dependency_horizon(self, rng):
        wave = rng.uniform(-1, 1, 3000).astype(F32)
        n = 1500
        wave2 = wave.copy()
        wave2[n] += 0.5
        a, b = stdct(wave), stdct(wave2)
        for t in range(a.shape[1]):
            if t * HOP_SIZE + WINDOW_SIZE <= n:
                assert np.array_equal(a[:, t], b[:, t]), f"column {t} should not see sample {n}"
            elif t * HOP_SIZE <= n < t * HOP_SIZE + WINDOW_SIZE:
                assert not np.array_equal(a[:, t], b[:, t])

    def test_linearity(self, rng):
        x = rng.uniform(-1, 1, 2000).astype(F32)
        y = rng.uniform(-1, 1, 2000).astype(F32)
        lhs = stdct(2.0 * x + 0.5 * y)
        rhs = 2.0 * stdct(x) + 0.5 * stdct(y)
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) <= 1e-5


class TestIstdctOla:

    def test_round_trip_interior(self, rng):
        wave = rng.uniform(-1, 1, 16000).astype(F32)
        back = istdct_ola(stdct(wave), 16000)
        inner = slice(WINDOW_SIZE, 16000 - WINDOW_SIZE)
        err = np.linalg.norm(back[inner] - wave[inner]) / np.linalg.norm(wave[inner])
        assert err <= 1e-5

    def test_single_frame_support(self, rng):
        spec = np.zeros((512, 5), dtype=F32)
        spec[:, 2] = rng.uniform(-1, 1, 512).astype(F32)
        out = istdct_ola(spec, (5 - 1) * HOP_SIZE + WINDOW_SIZE)
        start = 2 * HOP_SIZE
        assert np.all(out[:start] == 0.0)
        assert np.all(out[start + WINDOW_SIZE:] == 0.0)
        assert np.any(out[start:start + WINDOW_SIZE] != 0.0)

    def test_out_len_beyond_coverage_rejected(self, rng):
        spec = rng.uniform(-1, 1, (512, 3)).astype(F32)
        with pytest.raises(ConfigurationError):
            istdct_ola(spec, 2 * HOP_SIZE + WINDOW_SIZE + 1)

    def test_hamming_never_clamps(self, rng):
        ola = OverlapAdd()
        ola.add(rng.uniform(-1, 1, (512, 4)).astype(F32))
        ola.tail(WINDOW_SIZE - HOP_SIZE)
        assert ola.clamped_samples == 0

    @pytest.mark.parametrize("count", [0, 1, 200, WINDOW_SIZE - HOP_SIZE])
    def test_tail_returns_and_counts_only_what_is_asked(self, rng, count):
        spec = rng.uniform(-1, 1, (512, 3)).astype(F32)
        whole, part = OverlapAdd(), OverlapAdd()
        whole.add(spec)
        part.add(spec)
        got = part.tail(count)
        assert len(got) == count
        assert got.tobytes() == whole.tail(WINDOW_SIZE - HOP_SIZE)[:count].tobytes()
        # no frame covers any sample of a fresh buffer: each sample read is one clamp
        empty = OverlapAdd()
        assert len(empty.tail(count)) == count and empty.clamped_samples == count

    # 0, inside the last frame's own hop, inside the tail, all 1536 covered samples
    @pytest.mark.parametrize("out_len", [0, 9 * HOP_SIZE - 37, 1300, 8 * HOP_SIZE + WINDOW_SIZE])
    def test_equals_frame_by_frame_adds(self, rng, out_len):
        spec = rng.uniform(-1, 1, (512, 9)).astype(F32)
        ola = OverlapAdd()
        parts = [ola.add(spec[:, t:t + 1]) for t in range(9)] + [ola.tail(WINDOW_SIZE - HOP_SIZE)]
        assert all(len(p) == HOP_SIZE for p in parts[:-1])
        assert istdct_ola(spec, out_len).tobytes() == np.concatenate(parts)[:out_len].tobytes()

    def test_delay_constant_is_one_window(self):
        # the structural claim; the live measurement happens in the stream tests
        from ofifnet.stdct import ALGORITHMIC_DELAY, SAMPLE_RATE
        assert ALGORITHMIC_DELAY == WINDOW_SIZE == 512
        assert 1000.0 * ALGORITHMIC_DELAY / SAMPLE_RATE == 32.0
