"""Numeric building blocks: causal convolutions, GRUs, attention softmax, pooling.

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

from dataclasses import dataclass

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

@dataclass
class GruParams:
    """GRU weights, float32. ``w_in`` (3h, d_in), ``w_rec`` (3h, h), ``bias`` (3h,).

    Gate convention (rows ordered reset, update, candidate):
        r  = sigmoid(W_r x + U_r h + b_r)
        z  = sigmoid(W_z x + U_z h + b_z)
        n  = tanh(W_n x + r * (U_n h + b_n))
        h' = (1 - z) * n + z * h
    """
    w_in: np.ndarray
    w_rec: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.w_in = np.asarray(self.w_in, dtype=F32)
        self.w_rec = np.asarray(self.w_rec, dtype=F32)
        self.bias = np.asarray(self.bias, dtype=F32)
        h = self.w_rec.shape[1]
        if self.w_in.shape[0] != 3 * h or self.w_rec.shape != (3 * h, h) \
                or self.bias.shape != (3 * h,):
            raise ConfigurationError(
                f"inconsistent GRU shapes: w_in {self.w_in.shape}, "
                f"w_rec {self.w_rec.shape}, bias {self.bias.shape}")

    @property
    def hidden(self) -> int:
        return self.w_rec.shape[1]

    @property
    def input_size(self) -> int:
        return self.w_in.shape[1]


def _sigmoid_into(v: np.ndarray) -> None:
    """1 / (1 + exp(-v)) in place. exp overflows to inf for very negative v,
    which gives the right limit 0, so callers enter
    ``np.errstate(over="ignore")`` once around their whole loop."""
    np.negative(v, out=v)
    np.exp(v, out=v)
    v += 1.0
    np.divide(1.0, v, out=v)


def gru_step_pre(gx: np.ndarray, h: np.ndarray, p: GruParams) -> np.ndarray:
    """One GRU step with the input projection ``gx = x @ w_in.T`` precomputed;
    the caller ignores exp overflow (see ``_sigmoid_into``)."""
    hd = p.hidden
    gh = h @ p.w_rec.T
    rz = gx[:, :2 * hd] + gh[:, :2 * hd] + p.bias[:2 * hd]
    _sigmoid_into(rz)
    r, z = rz[:, :hd], rz[:, hd:]
    n = np.tanh(gx[:, 2 * hd:] + r * (gh[:, 2 * hd:] + p.bias[2 * hd:]))
    return (1.0 - z) * n + z * h


class BiGru:
    """Both directions of a bidirectional GRU, stepped together as a batch of 2.

    Requires matching hidden and input sizes (the two directions are separate
    weight sets, only their shapes must agree). Keeps only the stacked transposed
    weights, built once, so the per-step work is a single batched matmul plus
    gates.
    """

    def __init__(self, fwd: GruParams, bwd: GruParams):
        if fwd.hidden != bwd.hidden or fwd.input_size != bwd.input_size:
            raise ConfigurationError("both directions need identical hidden/input sizes")
        self.hidden = fwd.hidden
        h = fwd.hidden
        self._w_in2 = np.stack([fwd.w_in.T, bwd.w_in.T])[:, None]          # (2, 1, d, 3h)
        self._w_rec2 = np.stack([fwd.w_rec.T, bwd.w_rec.T])[:, None]       # (2, 1, h, 3h)
        bias2 = np.stack([fwd.bias, bwd.bias])[:, None, None]             # (2, 1, 1, 3h)
        self._bias_rz2 = np.ascontiguousarray(bias2[..., :2 * h])
        self._bias_n2 = np.ascontiguousarray(bias2[..., 2 * h:])

    def frame(self, seq: np.ndarray) -> np.ndarray:
        """Run both directions along frequency in each of n frames.

        ``seq`` is (n, F, C) float32, one sequence per frame; returns
        (n, F, 2h) float32. State starts at zero in both directions in every
        frame, so the result for frame t never sees any other frame. The
        frames are a stacked batch of (1, h) rows, so each frame's recurrent
        product is the same matrix-vector call whatever n is. The gates are
        written into buffers allocated once per call.
        """
        n, f_dim, _ = seq.shape
        h = self.hidden
        seq2 = np.stack([seq, seq[:, ::-1]])                        # (2, n, F, C)
        gx2 = seq2 @ self._w_in2                                    # (2, n, F, 3h)
        gx_rz = gx2[..., :2 * h] + self._bias_rz2   # candidate bias stays inside the r product
        gx_n = gx2[..., 2 * h:]
        states = np.empty((f_dim + 1, 2, n, 1, h), dtype=F32)    # zero state, then one per bin
        states[0] = 0.0
        gh = np.empty((2, n, 1, 3 * h), dtype=F32)
        rz = np.empty((2, n, 1, 2 * h), dtype=F32)
        n_gate = np.empty((2, n, 1, h), dtype=F32)
        r, z, gh_rz, gh_n = rz[..., :h], rz[..., h:], gh[..., :2 * h], gh[..., 2 * h:]
        with np.errstate(over="ignore"):
            for i in range(f_dim):
                hs, nxt = states[i], states[i + 1]
                np.matmul(hs, self._w_rec2, out=gh)
                np.add(gx_rz[:, :, i:i + 1], gh_rz, out=rz)
                _sigmoid_into(rz)
                # n = tanh(gx_n + r * (gh_n + b_n)); h' = n + z * (h - n)
                np.add(gh_n, self._bias_n2, out=n_gate)
                n_gate *= r
                n_gate += gx_n[:, :, i:i + 1]
                np.tanh(n_gate, out=n_gate)
                np.subtract(hs, n_gate, out=nxt)
                nxt *= z
                nxt += n_gate
        states = states[1:]
        out = np.empty((n, f_dim, 2 * h), dtype=F32)
        out[:, :, :h] = states[:, 0, :, 0].transpose(1, 0, 2)
        out[:, :, h:] = states[::-1, 1, :, 0].transpose(1, 0, 2)
        return out


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
