"""Overlapped-frame fusion: pseudo future frames stacked into a 4-channel input.

Because adjacent analysis frames overlap by 3 hops, the current raw frame
already contains the first (4-k)*H samples of frame t+k. Shifting the current
frame left by k hops and zero-filling the vacated tail therefore yields a
pseudo frame that agrees exactly with the true future frame on its known
support. Masking happens on the raw frame; the window is applied afterwards,
immediately before the transform, so the taper lands where the pseudo frame
claims to start.

``ofif_stack_frames`` is the only analysis: it takes raw frames along a
trailing time axis: a stream calls it on each group of up to 32 frames a
push completes, the offline forward once on all of them.
"""

from __future__ import annotations

import numpy as np

from . import stdct
from .errors import ConfigurationError

F32 = np.float32
F64 = np.float64

NUM_CHANNELS = stdct.OVERLAP_FACTOR   # current frame + 3 pseudo future frames


def make_pseudo_frames(frames: np.ndarray) -> np.ndarray:
    """Build the 4-frame groups [x_t, x~_{t+1}, x~_{t+2}, x~_{t+3}] of raw frames.

    ``frames`` is (W, n), one raw frame per column (a single (W,) frame also
    works); returns (4, W, n). Group member k is each frame shifted left by k
    hops with the vacated tail zeroed; member 0 is the input itself, bit for
    bit. Pure memory movement, no arithmetic.
    """
    frames = np.asarray(frames, dtype=F32)
    w, hop = stdct.WINDOW_SIZE, stdct.HOP_SIZE
    if frames.shape[0] != w:
        raise ConfigurationError(f"frame length {frames.shape[0]} must be {w} samples")
    group = np.zeros((NUM_CHANNELS,) + frames.shape, dtype=F32)
    group[0] = frames
    for k in range(1, NUM_CHANNELS):
        group[k, :w - k * hop] = frames[k * hop:]
    return group


def ofif_stack_frames(raw_frames: np.ndarray) -> np.ndarray:
    """Window and transform every group member of a (W, n) raw frame matrix: (4, 512, n).

    All 4n windowed members go through one transform product. Each column
    of it is the same dot products whatever n is, and the tests hold a
    stream's calls byte-identical however its frames were grouped.
    Channel 0 equals the plain spectrogram bit for bit.
    """
    raw_frames = np.asarray(raw_frames, dtype=F32)
    if raw_frames.ndim != 2 or raw_frames.shape[0] != stdct.WINDOW_SIZE:
        raise ConfigurationError(
            f"raw frames must be ({stdct.WINDOW_SIZE}, n), got {raw_frames.shape}")
    n = raw_frames.shape[1]
    members = make_pseudo_frames(raw_frames).transpose(1, 0, 2).reshape(stdct.WINDOW_SIZE, -1)
    windowed = (stdct.hamming_window()[:, None] * members.astype(F64)).astype(F32)
    spec = stdct.dct_frames(windowed).reshape(stdct.DCT_SIZE, NUM_CHANNELS, n)
    return np.ascontiguousarray(spec.transpose(1, 0, 2))


def ofif_stack(wave: np.ndarray) -> np.ndarray:
    """Full fusion stack of a waveform: (4, 512, T) with T the complete-frame count.

    No look-ahead beyond plain analysis: every channel's column t depends only
    on samples <= t*H + W - 1, because the pseudo frames are built from the
    current raw frame alone.
    """
    return ofif_stack_frames(stdct.frame_signal(wave, windowed=False))
