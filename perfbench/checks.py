"""Output checks. Each returns None when the output passes, else a one-line reason."""

from __future__ import annotations

import hashlib

import numpy as np

F32_UNIT_ROUNDOFF = 2.0 ** -24

# Measured worst case is about 3.5 units (5 float32 roundings: window,
# transform, mask, masked spectrum, output, each spread by the orthonormal
# transform); 16 leaves headroom without admitting a wrong mask.
CONSTANT_MASK_UNITS = 16.0


def digest(samples: np.ndarray) -> str:
    """Content hash of a float32 signal's exact bytes."""
    return hashlib.sha256(np.ascontiguousarray(samples, dtype="<f4").tobytes()).hexdigest()[:24]


def length_and_finite(out: np.ndarray, n_in: int) -> str | None:
    if len(out) != n_in:
        return f"output has {len(out)} samples for {n_in} input samples"
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        return f"{bad.size} non-finite output samples, first at {bad[0]}"
    return None


def emission_schedule(pushed, returned, window: int = 512, hop: int = 128) -> str | None:
    """Nothing comes out before ``window`` samples are in; then one hop per frame.

    After ``c`` consumed samples exactly ``((c - window) // hop + 1) * hop``
    samples must have been emitted, which with hop-sized pushes is 128 per push.
    """
    consumed = emitted = 0
    for k, (n_in, n_out) in enumerate(zip(pushed, returned)):
        consumed += n_in
        emitted += n_out
        frames = 0 if consumed < window else (consumed - window) // hop + 1
        if emitted != frames * hop:
            return (f"push {k}: {emitted} samples emitted after {consumed} consumed, "
                    f"expected {frames * hop}")
    return None


def prefix_identical(out: np.ndarray, reference: np.ndarray, n: int) -> str | None:
    """The first ``n`` samples of ``out`` equal ``reference`` bit for bit."""
    if len(out) < n or len(reference) < n:
        return f"prefix of {n} samples is longer than the output or the reference"
    a = np.ascontiguousarray(out[:n], dtype=np.float32).view(np.uint32)
    b = np.ascontiguousarray(reference[:n], dtype=np.float32).view(np.uint32)
    diff = np.flatnonzero(a != b)
    if diff.size:
        return f"{diff.size} of the first {n} samples differ from the reference, first at {diff[0]}"
    return None


def constant_mask_tolerance(x: np.ndarray, c: float) -> float:
    """Largest allowed |out - c*x| when the mask is the constant ``c``."""
    return CONSTANT_MASK_UNITS * F32_UNIT_ROUNDOFF * abs(c) * float(np.max(np.abs(x)))


def constant_mask(out: np.ndarray, x: np.ndarray, c: float) -> str | None:
    """Every output sample equals ``c * x`` within float32 rounding.

    The transform is orthonormal and synthesis divides by the summed squared
    window, so a constant mask ``c`` reconstructs ``c * x`` exactly in real
    arithmetic.
    """
    problem = length_and_finite(out, len(x))
    if problem:
        return problem
    err = np.abs(out.astype(np.float64) - c * x.astype(np.float64))
    tol = constant_mask_tolerance(x, c)
    worst = int(np.argmax(err))
    if err[worst] > tol:
        return (f"sample {worst} is {out[worst]!r}, expected {c * float(x[worst])!r} "
                f"within {tol:.3g}")
    return None
