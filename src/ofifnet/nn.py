"""Numeric building blocks: causal convolutions, the GRU kernel, attention softmax, pooling.

Feature maps are float32 ndarrays laid out (channels, frequency, time), and
the network computes in float32 from end to end: weights are held once in
float32, and every product, batch norm, activation, gate and attention
softmax runs in float32. Four parts stay float64:

  * analysis and synthesis (``stdct``, ``ofif``, and the mask product that
    applies the network's float32 mask to the noisy spectrum);
  * ``causal_pool_time`` and the per-frame sums and maxes that feed it, and
    the attention's per-frame (C, F) mean; each pooled statistic is rounded
    to float32 once, where its query or key is projected;
  * the attention's running frequency and channel score sums and their
    bounds, which accumulate over the whole life of a stream: each frame's
    outer product of float32 queries and keys is exact in float64;
  * the metrics (``si_snr``, ``loss_fn``, ``target_mask``).

Batch-norm scale and shift are folded from the float32 statistics once, in
float64, and held in float32.

The kernels take n frames along a leading time axis, each frame a
contiguous block. A block's one ``step(x, state)`` calls them on its carried
history plus n frames: a stream's frame is n = 1, a whole map n = T on a
fresh state. Every per-frame product is its own item of a stacked
``np.matmul`` (never one wider GEMM, whose blocking can change the rounding)
and every reduction runs over the same axis in the same order whatever n
is, so any split of the frames into calls gives identical bits.

Causality conventions:
  * convolutions pad ``k_t - 1`` zero frames at the start of the time axis;
  * transposed convolutions drop the trailing ``k_t - 1`` raw frames;
  * the one causal pooling kernel, ``causal_pool_time``, reaches backwards
    only, with zero history before frame 0.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

F32 = np.float32
F64 = np.float64

#: A block's ``step`` runs the n-frame kernels on at most this many frames
#: per call, so their temporaries (a conv's patch matrix is k_f * k_t times
#: its input) stay a few MB however long the utterance is.
FRAMES_PER_PASS = 32

#: Batch-norm epsilon of the conv blocks' evaluation-mode normalization.
BN_EPS = 1e-5


def with_history(buf: np.ndarray | None, hist: int, n: int,
                 frame_shape: tuple[int, ...], dtype) -> np.ndarray:
    """A (hist + n, *frame_shape) buffer of ``dtype`` that starts with the
    last ``hist`` frames of ``buf`` (zeros if ``buf`` is None); the caller
    fills the n frames after them.

    ``buf`` itself is reused, shifted in place, when it already holds
    hist + n frames, so a stream stepping one frame at a time allocates
    nothing here.
    """
    if buf is not None and len(buf) == hist + n:
        buf[:hist] = buf[n:]
        return buf
    out = np.empty((hist + n,) + frame_shape, dtype=dtype)
    out[:hist] = 0.0 if buf is None else buf[len(buf) - hist:]
    return out


def in_passes(kernel, frames: np.ndarray, hist: int = 0) -> np.ndarray:
    """``kernel`` over n frames in passes of at most ``FRAMES_PER_PASS``.

    ``frames`` holds ``hist`` frames of history, then the n frames, along
    axis 0; each pass gets the ``hist`` frames before its own. The passes'
    outputs are joined along axis 0.
    """
    n = len(frames) - hist
    if n <= FRAMES_PER_PASS:
        return kernel(frames)
    return np.concatenate([kernel(frames[s:s + FRAMES_PER_PASS + hist])
                           for s in range(0, n, FRAMES_PER_PASS)])


# ---------------------------------------------------------------------------
# causal 2D convolution / transposed convolution
# ---------------------------------------------------------------------------

def conv2d_out_freq(f_dim: int, k_f: int, s_f: int, pad_f: int) -> int:
    return (f_dim + 2 * pad_f - k_f) // s_f + 1


def deconv2d_out_freq(f_dim: int, k_f: int, s_f: int, pad_f: int, out_pad_f: int) -> int:
    return (f_dim - 1) * s_f - 2 * pad_f + k_f + out_pad_f


def conv_frame_taps(frames: np.ndarray, w: np.ndarray, b: np.ndarray,
                    s_f: int, pad_f: int) -> np.ndarray:
    """Causal conv output frames from their input frames.

    ``frames`` is (n + k_t - 1, C_in, F) float32, oldest first; its first
    k_t - 1 frames are history, zeros standing in for frames before the start
    of the stream. Returns (n, C_out, F') float32: output frame t mixes input
    frames t .. t + k_t - 1.
    """
    t_in, c_in, f_dim = frames.shape
    c_out, _, k_f, k_t = w.shape
    n = t_in - k_t + 1
    fp = f_dim + 2 * pad_f
    out_f = (fp - k_f) // s_f + 1
    if out_f < 1:
        raise ConfigurationError(
            f"conv produces empty frequency axis: F={f_dim} k_f={k_f} pad_f={pad_f}")
    if pad_f:
        xp = np.zeros((t_in, c_in, fp), dtype=F32)
        xp[:, :, pad_f:pad_f + f_dim] = frames
    else:
        xp = np.ascontiguousarray(frames)
    # patch [t, c, kf, kt, f'] is input xp[t + kt, c, f' * s_f + kf], in the
    # weights' (C_in, k_f, k_t) order: one strided view, then one copy
    s_t, s_c, s_x = xp.strides
    patches = np.ndarray((n, c_in, k_f, k_t, out_f), xp.dtype, xp, 0,
                         (s_t, s_c, s_x, s_t, s_f * s_x)).reshape(n, c_in * k_f * k_t, out_f)
    y = w.reshape(c_out, -1) @ patches
    y += b[:, None]
    return y


def deconv_tap_matrices(w: np.ndarray) -> list[np.ndarray]:
    """Per-time-tap weight matrices (C_out*k_f, C_in), precomputed once."""
    c_in, c_out, k_f, k_t = w.shape
    return [np.ascontiguousarray(
        w[:, :, :, j].transpose(1, 2, 0).reshape(c_out * k_f, c_in))
        for j in range(k_t)]


def deconv_frame_taps(frames: np.ndarray, w_taps: list[np.ndarray], b: np.ndarray,
                      s_f: int, pad_f: int, out_pad_f: int) -> np.ndarray:
    """Causal transposed-conv output frames from their input frames.

    ``frames`` is (n + k_t - 1, C_in, F) float32 as for ``conv_frame_taps``;
    returns (n, C_out, F') float32. Raw time index t of a stride-1 transposed
    convolution mixes input frames t-j against kernel tap j, so evaluating
    only at t (never t+1..t+k_t-1) is exactly the trailing-frame discard that
    keeps the layer causal.
    """
    t_in, c_in, f_dim = frames.shape
    k_t = len(w_taps)
    n = t_in - k_t + 1
    c_out = b.shape[0]
    k_f = w_taps[0].shape[0] // c_out
    raw_len = (f_dim - 1) * s_f + k_f
    trim_hi = pad_f - out_pad_f
    out_f = raw_len - pad_f - trim_hi
    if out_f < 1:
        raise ConfigurationError(
            f"deconv output frequency size {out_f} is not positive "
            f"(F={f_dim} k_f={k_f} stride={s_f} pad_f={pad_f})")
    acc = np.zeros((n, c_out, raw_len), dtype=F32)
    for j in range(k_t):
        m = (w_taps[j] @ frames[k_t - 1 - j:k_t - 1 - j + n]).reshape(n, c_out, k_f, f_dim)
        for kf in range(k_f):
            acc[:, :, kf:kf + s_f * (f_dim - 1) + 1:s_f] += m[:, :, kf, :]
    if trim_hi >= 0:
        y = acc[:, :, pad_f:raw_len - trim_hi]
    else:
        y = np.concatenate([acc[:, :, pad_f:], np.zeros((n, c_out, -trim_hi), dtype=F32)],
                           axis=2)
    return y + b[:, None]


# ---------------------------------------------------------------------------
# gated recurrent units
# ---------------------------------------------------------------------------

class Gru:
    """D GRUs of one shape, stacked, stepped by one in-place kernel.

    ``params`` holds D (w_in, w_rec, bias) triples, each (3h, d), (3h, h) and
    (3h,), held once in float32 and transposed for the products: ``w_in`` is
    (D, 1, d, 3h), so ``x @ w_in`` projects a (D, ..., d) input per GRU. Gate
    convention, rows ordered reset, update, candidate:
        r  = sigmoid(W_r x + U_r h + b_r)
        z  = sigmoid(W_z x + U_z h + b_z)
        n  = tanh(W_n x + r * (U_n h + b_n))
        h' = n + z * (h - n)
    """

    def __init__(self, *params):
        w_in, w_rec, bias = ([np.asarray(a, dtype=F32) for a in arrays] for arrays in zip(*params))
        h, d = w_rec[0].shape[1], w_in[0].shape[1]
        if any(w.shape != (3 * h, d) for w in w_in) or any(u.shape != (3 * h, h) for u in w_rec) \
                or any(b.shape != (3 * h,) for b in bias):
            raise ConfigurationError(
                f"inconsistent GRU shapes: w_in {[w.shape for w in w_in]}, "
                f"w_rec {[u.shape for u in w_rec]}, bias {[b.shape for b in bias]}")
        self.hidden, self.input_size = h, d
        self.w_in = np.stack([w.T for w in w_in])[:, None]                # (D, 1, d, 3h)
        self._w_rec = np.stack([u.T for u in w_rec])[:, None]             # (D, 1, h, 3h)
        bias = np.stack(bias)[:, None, None]                              # (D, 1, 1, 3h)
        self._bias_rz = np.ascontiguousarray(bias[..., :2 * h])
        self._bias_n = np.ascontiguousarray(bias[..., 2 * h:])

    def scan(self, gx: np.ndarray, states: np.ndarray) -> None:
        """Step all D GRUs along axis 0 of ``gx``, writing each state in place.

        ``gx`` is the (L, D, B, 1, 3h) float32 input projection, without bias;
        the reset and update biases are added into it in place. ``states`` is
        (L + 1, D, B, 1, h) float32 with the initial state in row 0, and step
        i writes row i + 1. Each recurrent product is a stacked batch of
        (1, h) rows, so every GRU and every batch row gets the same bits
        whatever D, B and L are, and a scan split into runs that carry the
        state gives the bits of one scan. The gates are written into buffers
        allocated once per call.
        """
        h = self.hidden
        gx_rz, gx_n = gx[..., :2 * h], gx[..., 2 * h:]
        gx_rz += self._bias_rz                    # candidate bias stays inside the r product
        batch = states.shape[1:-1]
        gh = np.empty(batch + (3 * h,), dtype=F32)
        rz = np.empty(batch + (2 * h,), dtype=F32)
        n_gate = np.empty(batch + (h,), dtype=F32)
        r, z, gh_rz, gh_n = rz[..., :h], rz[..., h:], gh[..., :2 * h], gh[..., 2 * h:]
        with np.errstate(over="ignore"):
            for i in range(len(gx)):
                hs, nxt = states[i], states[i + 1]
                np.matmul(hs, self._w_rec, out=gh)
                np.add(gx_rz[i], gh_rz, out=rz)
                # sigmoid in place: exp overflows to inf for very negative
                # input, which gives the right limit 0
                np.negative(rz, out=rz)
                np.exp(rz, out=rz)
                rz += 1.0
                np.divide(1.0, rz, out=rz)
                np.add(gh_n, self._bias_n, out=n_gate)
                n_gate *= r
                n_gate += gx_n[i]
                np.tanh(n_gate, out=n_gate)
                np.subtract(hs, n_gate, out=nxt)
                nxt *= z
                nxt += n_gate


# ---------------------------------------------------------------------------
# attention softmax helpers
# ---------------------------------------------------------------------------

def masked_softmax(scores: np.ndarray) -> np.ndarray:
    """Row softmax of a square score matrix under a lower-triangular mask.

    Masked positions contribute exp(-inf) = 0, i.e. they are excluded from the
    normalization rather than zeroed afterwards, so each row is a proper
    distribution over columns 0..row. Returns the scores' float dtype; the
    strict upper triangle is exactly zero.
    """
    s = np.asarray(scores)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ConfigurationError(f"masked_softmax needs a square matrix, got {s.shape}")
    return row_softmax(np.where(np.tri(s.shape[0], dtype=bool), s, -np.inf))


def row_softmax(scores: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis, in the scores' float dtype."""
    s = np.asarray(scores)
    m = s.max(axis=-1, keepdims=True)
    e = np.exp(s - m)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# causal pooling
# ---------------------------------------------------------------------------

def causal_pool_time(rows: np.ndarray, window: int) -> np.ndarray:
    """Trailing-window pooling of n frames from their per-frame reductions.

    ``rows`` is (window - 1 + n, 2, width) float64, oldest first: row r holds
    one frame's sums (``[r, 0]``) and maxes (``[r, 1]``) over a reduced axis,
    and the first window - 1 rows are history, zeros standing in for frames
    before the start of the stream. Returns (n, 2, width) float64: for frame
    t the sum of rows t .. t + window - 1, added oldest first, and their max.
    A window is the same rows in the same order however the frames were
    split into calls, so a stream pooling one frame at a time gets the bits
    of one call over the whole map. ``rows`` must be C-contiguous; the
    windows are strided views of it, which cost no more than a plain
    reduction at n = 1.
    """
    n_rows, _, width = rows.shape
    n = n_rows - window + 1
    s_row, s_stat, s_col = rows.strides
    out = np.empty((n, 2, width), dtype=F64)
    for k, reduce in enumerate((np.add, np.maximum)):
        wins = np.ndarray((n, window, width), F64, rows, k * s_stat, (s_row, s_row, s_col))
        reduce.reduce(wins, axis=1, out=out[:, k])
    return out
