"""Seeded test signals: harmonic tone plus noise, at a set level, with a silent stretch.

Frame cost in the engine does not depend on the signal's content or level
(the attention softmax never takes its overflow-guard pass with the seeded
weights), so the seed changes what is computed, not how much.
"""

from __future__ import annotations

import numpy as np

RATE = 16000


def harmonic_noise(rng: np.random.Generator, n: int, level_dbfs: float) -> np.ndarray:
    """``n`` float32 samples: a voiced-like harmonic series plus white noise.

    The fundamental, harmonic amplitudes and phases, and the signal-to-noise
    ratio are drawn from ``rng``; the mix is scaled to ``level_dbfs`` RMS. A
    stretch of exact zeros (1/8 to 1/5 of the signal) starts at a random place.
    """
    t = np.arange(n) / RATE
    f0 = rng.uniform(90.0, 260.0)
    vibrato = 1.0 + 0.01 * np.sin(2 * np.pi * rng.uniform(3.0, 6.0) * t)
    phase = 2 * np.pi * f0 * np.cumsum(vibrato) / RATE
    tone = np.zeros(n)
    for k in range(1, int(7000 // f0) + 1):
        tone += rng.uniform(0.3, 1.0) / k * np.sin(k * phase + rng.uniform(0, 2 * np.pi))
    tone /= np.sqrt(np.mean(tone ** 2))
    snr_db = rng.uniform(0.0, 20.0)
    mix = tone + 10.0 ** (-snr_db / 20.0) * rng.standard_normal(n)
    mix *= 10.0 ** (level_dbfs / 20.0) / np.sqrt(np.mean(mix ** 2))
    gap = int(n * rng.uniform(1 / 8, 1 / 5))
    start = int(rng.integers(0, n - gap))
    mix[start:start + gap] = 0.0
    return mix.astype(np.float32)
