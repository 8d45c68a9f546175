"""Short-time cosine-transform analysis and weighted overlap-add synthesis.

Fixed geometry: 16 kHz mono input, 512-sample (32 ms) Hamming window, 128-sample
(8 ms) hop, 512-point orthonormal type-II cosine transform. Four adjacent
frames overlap at every sample in the interior, and synthesis renormalizes by
the pointwise sum of squared windows, so analysis->synthesis reconstructs the
signal up to float error wherever at least one frame covers a sample.

The hop/window geometry fixes the algorithmic delay of synthesis: sample n is
final only once frame floor(n/H) has been added, and that frame needs input
through sample floor(n/H)*H + W - 1. For hop-aligned samples the wait is
exactly one window (512 samples, 32 ms).

``hop_frames`` is the only framing and ``tail_zeros`` the one trailing-frame
rule: a push frames its buffered samples, a flush its leftover samples plus
the tail zeros, and the whole-utterance path the wave plus the same zeros.

``OverlapAdd`` is the only synthesis: it holds one window of pending sums, so
its memory does not grow with the signal, and each ``add`` of n frames
returns the n hops those frames made final; ``tail(count)`` returns the
first ``count`` samples past the last hop. A stream adds each group of up
to 32 frames a push completes; ``istdct_ola`` adds a whole spectrogram at
once. Every sample sums its frames' contributions in frame order either
way, so both give the same bits.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import ConfigurationError, SignalTooShortError

F32 = np.float32
F64 = np.float64

SAMPLE_RATE = 16000
WINDOW_SIZE = 512          # W, 32 ms
HOP_SIZE = 128             # H, 8 ms
DCT_SIZE = 512             # N
OVERLAP_FACTOR = WINDOW_SIZE // HOP_SIZE   # 4 adjacent frames share each sample
ALGORITHMIC_DELAY = WINDOW_SIZE
DENOM_FLOOR = 1e-8


@cache
def hamming_window() -> np.ndarray:
    """Symmetric W-point Hamming window, float64, values in (0, 1]."""
    idx = np.arange(WINDOW_SIZE, dtype=F64)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * idx / (WINDOW_SIZE - 1))


@cache
def dct_matrix() -> np.ndarray:
    """Orthonormal N-point type-II cosine basis, rows indexed by bin: D @ D.T == I."""
    k = np.arange(DCT_SIZE, dtype=F64)[:, None]
    m = np.arange(DCT_SIZE, dtype=F64)[None, :]
    d = np.cos(np.pi * (2.0 * m + 1.0) * k / (2.0 * DCT_SIZE))
    d *= np.sqrt(2.0 / DCT_SIZE)
    d[0] *= np.sqrt(0.5)
    return d


def hop_frames(samples: np.ndarray) -> np.ndarray:
    """Read-only (W, k) view of the k complete frames of a 1-D buffer; k may be 0.

    Column t is ``samples[t*H:t*H + W]``; nothing is copied or padded.
    """
    k = max(0, (len(samples) - WINDOW_SIZE) // HOP_SIZE + 1)
    item = samples.strides[0]
    return np.lib.stride_tricks.as_strided(
        samples, (WINDOW_SIZE, k), (item, HOP_SIZE * item), writeable=False)


def tail_zeros(n_samples: int) -> int:
    """Zeros that complete the frame covering sample n - 1 of an n-sample signal,
    or 0 when the complete frames already cover every sample."""
    if n_samples == 0:
        return 0
    if n_samples < WINDOW_SIZE:
        return WINDOW_SIZE - n_samples
    return (WINDOW_SIZE - n_samples) % HOP_SIZE


def frame_signal(wave: np.ndarray, *, windowed: bool = True) -> np.ndarray:
    """Slice a waveform into its complete hop-spaced frames, columns ordered by time.

    Returns (W, T) float32 with T = 1 + floor((len - W) / H). Frame t covers
    samples t*H .. t*H + W - 1 only; nothing is padded. When ``windowed``,
    each frame is multiplied by the Hamming window; otherwise the result is
    a read-only view of the waveform.
    """
    wave = np.asarray(wave, dtype=F32).ravel()
    if len(wave) < WINDOW_SIZE:
        raise SignalTooShortError(
            f"signal of {len(wave)} samples is shorter than one {WINDOW_SIZE}-sample window")
    frames = hop_frames(wave)
    if windowed:
        frames = (hamming_window()[:, None] * frames.astype(F64)).astype(F32)
    return frames


def frame_signal_full(wave: np.ndarray) -> np.ndarray:
    """Raw (unwindowed) frames covering every sample; final frame zero-padded.

    The waveform plus its ``tail_zeros``: the framing a flushed stream runs,
    with the same frame starts and the same zero fill.
    """
    wave = np.asarray(wave, dtype=F32).ravel()
    return hop_frames(np.concatenate([wave, np.zeros(tail_zeros(len(wave)), dtype=F32)]))


def dct_frames(frames: np.ndarray) -> np.ndarray:
    """Forward orthonormal cosine transform of each (512,) frame column."""
    frames = np.asarray(frames, dtype=F32)
    if frames.shape[0] != DCT_SIZE:
        raise ConfigurationError(f"frames must have {DCT_SIZE} rows, got {frames.shape[0]}")
    return (dct_matrix() @ frames.astype(F64)).astype(F32)


def stdct(wave: np.ndarray) -> np.ndarray:
    """Analysis: frame, window, transform. Returns (512, T) float32.

    Column t depends only on samples <= t*H + W - 1.
    """
    return dct_frames(frame_signal(wave))


class OverlapAdd:
    """Weighted overlap-add synthesis over a fixed one-window buffer.

    Each frame is inverse-transformed, windowed again and summed at the hop
    interval; a sample is normalized by the sum of squared windows covering
    it once no later frame can reach it. Where that sum falls below 1e-8 it
    is clamped and counted in ``clamped_samples`` (a Hamming window never
    triggers this where a frame covers the sample).
    """

    def __init__(self):
        self._win = hamming_window()
        self._win2 = self._win * self._win
        # sums for the next WINDOW_SIZE samples not yet returned, oldest first
        self._acc = np.zeros(WINDOW_SIZE, dtype=F64)
        self._den = np.zeros(WINDOW_SIZE, dtype=F64)
        self.clamped_samples = 0

    def _final(self, count: int) -> np.ndarray:
        den = self._den[:count]
        self.clamped_samples += int(np.count_nonzero(den < DENOM_FLOOR))
        return (self._acc[:count] / np.maximum(den, DENOM_FLOOR)).astype(F32)

    def add(self, spec: np.ndarray) -> np.ndarray:
        """Add the n frames of a (512, n) spectrum; returns the n*H samples now final."""
        spec = np.asarray(spec, dtype=F32)
        if spec.ndim != 2 or spec.shape[0] != DCT_SIZE:
            raise ConfigurationError(f"spectrum must be ({DCT_SIZE}, n), got {spec.shape}")
        synth = dct_matrix().T @ spec.astype(F64)          # (W, n)
        out = np.empty(spec.shape[1] * HOP_SIZE, dtype=F32)
        for t in range(spec.shape[1]):
            self._acc += self._win * synth[:, t]
            self._den += self._win2
            out[t * HOP_SIZE:(t + 1) * HOP_SIZE] = self._final(HOP_SIZE)
            for buf in (self._acc, self._den):
                buf[:-HOP_SIZE] = buf[HOP_SIZE:]
                buf[-HOP_SIZE:] = 0.0
        return out

    def tail(self, count: int) -> np.ndarray:
        """The first ``count`` (at most W - H) samples the last frame covers past its final hop."""
        return self._final(count)


def istdct_ola(spec: np.ndarray, out_len: int) -> np.ndarray:
    """Overlap-add synthesis of a (512, T) spectrum to ``out_len`` samples.

    One ``OverlapAdd`` takes all T frames, then as much of its tail as
    ``out_len`` still needs; ``out_len`` may be anything up to the
    (T - 1)*H + W samples the frames cover.
    """
    spec = np.asarray(spec, dtype=F32)
    if spec.ndim != 2 or spec.shape[0] != DCT_SIZE:
        raise ConfigurationError(f"spectrum must be ({DCT_SIZE}, T), got {spec.shape}")
    t_dim = spec.shape[1]
    if t_dim < 1:
        raise ConfigurationError("spectrum has no frames")
    cover = (t_dim - 1) * HOP_SIZE + WINDOW_SIZE
    if not 0 <= out_len <= cover:
        raise ConfigurationError(
            f"out_len {out_len} exceeds the {cover} samples covered by {t_dim} frames")
    ola = OverlapAdd()
    return np.concatenate([ola.add(spec), ola.tail(max(0, out_len - t_dim * HOP_SIZE))])[:out_len]
