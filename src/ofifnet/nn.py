"""Numeric building blocks: causal convolutions, the GRU kernel, attention softmax, pooling.

Feature maps are float32 ndarrays laid out (channels, frequency, time), and
the network computes in float32 from end to end: weights are held once in
float32, and every product, batch norm, activation, gate and attention
softmax runs in float32. Four parts stay float64:

  * analysis and synthesis (``stdct``, ``ofif``);
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
contiguous block, and return products only. A block's ``step(x, state)``
makes one kernel call on its history plus n frames; ``step_frames`` alone
splits frames into steps: one per frame in a stream, ``FRAMES_PER_PASS``
for a whole map. Every per-frame product is its own item of a stacked
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

#: ``step_frames`` steps a whole map this many frames per call, so the
#: kernels' temporaries (a conv's patch matrix is k_f * k_t times its input)
#: stay a few MB however long the utterance is.
FRAMES_PER_PASS = 32

#: Batch-norm epsilon of the conv blocks' evaluation-mode normalization.
BN_EPS = 1e-5

#: every conv block's 5 x 2 (frequency x time) kernel at stride 2 x 1, a conv
#: halving the bins and a deconv doubling them; the attention's pooling frames
KERNEL = (5, 2)
FREQ_STRIDE = 2
FREQ_PAD = 2
FREQ_OUT_PAD = 1
POOL_WINDOW = 15


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


def step_frames(block, x: np.ndarray, state, width: int = FRAMES_PER_PASS) -> np.ndarray:
    """``block.step`` over the n frames of a (C, F, n) map, ``width`` frames
    per call with one carried ``state``; the outputs joined along time."""
    n = x.shape[2]
    if n <= width:
        return block.step(x, state)
    return np.concatenate([block.step(x[:, :, s:s + width], state)
                           for s in range(0, n, width)], axis=2)


# ---------------------------------------------------------------------------
# causal 2D convolution / transposed convolution
# ---------------------------------------------------------------------------

def conv2d_out_freq(f_dim: int) -> int:
    return (f_dim + 2 * FREQ_PAD - KERNEL[0]) // FREQ_STRIDE + 1


def deconv2d_out_freq(f_dim: int) -> int:
    return (f_dim - 1) * FREQ_STRIDE - 2 * FREQ_PAD + KERNEL[0] + FREQ_OUT_PAD


def conv_frame_taps(frames: np.ndarray, w: np.ndarray, s_f: int, pad_f: int) -> np.ndarray:
    """Causal conv products of output frames from their input frames, no bias.

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
    return w.reshape(c_out, -1) @ patches


def deconv_as_time_conv(w: np.ndarray) -> np.ndarray:
    """A (C_in, C_out, k_f, k_t) transposed-conv kernel as a (C_out * k_f,
    C_in, 1, k_t) float32 conv kernel: raw frame t of a stride-1 transposed
    conv mixes input frame t - j against tap j, a conv's frame t mixes frame
    t - (k_t - 1) + j, so the time taps are reversed."""
    c_in, c_out, k_f, k_t = w.shape
    w_time = np.empty((c_out * k_f, c_in, 1, k_t), dtype=F32)
    for j in range(k_t):        # tap by tap: about 3 times faster than one 4-D copy
        w_time[:, :, 0, k_t - 1 - j] = w[..., j].reshape(c_in, -1).T
    return w_time


def deconv_frame_taps(frames: np.ndarray, w_time: np.ndarray, c_out: int) -> np.ndarray:
    """Causal transposed-conv products of output frames, no bias.

    ``frames`` is as for ``conv_frame_taps``, ``w_time`` from
    ``deconv_as_time_conv`` of a ``KERNEL`` kernel; returns (n, C_out, 2F)
    float32. One conv product gives the k_f frequency taps of raw frames t
    only (never t+1..t+k_t-1), which is the trailing-frame discard that keeps
    the layer causal; the taps then overlap-add at ``FREQ_STRIDE`` along
    frequency into 2F + 3 raw bins, of which the output keeps the 2F from
    ``FREQ_PAD`` on.
    """
    t_in, _, f_dim = frames.shape
    n = t_in - w_time.shape[3] + 1
    k_f = KERNEL[0]
    taps = conv_frame_taps(frames, w_time, 1, 0).reshape(n, c_out, k_f, f_dim)
    acc = np.zeros((n, c_out, (f_dim - 1) * FREQ_STRIDE + k_f), dtype=F32)
    for kf in range(k_f):
        acc[:, :, kf:kf + FREQ_STRIDE * (f_dim - 1) + 1:FREQ_STRIDE] += taps[:, :, kf]
    return acc[:, :, FREQ_PAD:FREQ_PAD + deconv2d_out_freq(f_dim)]


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
    The reset and update columns of ``w_in`` and of the recurrent weights, and
    their biases, are held negated. Their sum is then the negated
    pre-activation exactly, since negation commutes with round-to-nearest, so
    the sigmoid 1 / (1 + exp(-a)) takes its exp straight from it.
    """

    def __init__(self, *params):
        w_in, w_rec, bias = ([np.asarray(a, dtype=F32) for a in arrays] for arrays in zip(*params))
        h, d = w_rec[0].shape[1], w_in[0].shape[1]
        if any(w.shape != (3 * h, d) for w in w_in) or any(u.shape != (3 * h, h) for u in w_rec) \
                or any(b.shape != (3 * h,) for b in bias):
            raise ConfigurationError(
                f"inconsistent GRU shapes: w_in {[w.shape for w in w_in]}, "
                f"w_rec {[u.shape for u in w_rec]}, bias {[b.shape for b in bias]}")
        self.hidden = h
        self.w_in = np.stack([w.T for w in w_in])[:, None]                # (D, 1, d, 3h)
        self._w_rec = np.stack([u.T for u in w_rec])[:, None]             # (D, 1, h, 3h)
        bias = np.stack(bias)[:, None, None]                              # (D, 1, 1, 3h)
        for w in (self.w_in, self._w_rec):
            np.negative(w[..., :2 * h], out=w[..., :2 * h])
        self._bias_rz = -bias[..., :2 * h]
        self._bias_n = np.ascontiguousarray(bias[..., 2 * h:])

    def scan(self, gx: np.ndarray, states: np.ndarray) -> None:
        """Step all D GRUs along axis 0 of ``gx``, writing each state in place.

        ``gx`` is the (L, D, B, 1, 3h) float32 input projection ``x @ w_in``,
        without bias; the reset and update biases are added into it in place.
        ``states`` is (L + 1, D, B, 1, h) float32 with the initial state in
        row 0, and step i writes row i + 1. Each recurrent product is a
        stacked batch of (1, h) rows, so every GRU and every batch row gets
        the same bits whatever D, B and L are, and a scan split into runs that
        carry the state gives the bits of one scan. The gates are written into
        buffers allocated once per call.
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
                np.add(gx_rz[i], gh_rz, out=rz)            # the negated pre-activation
                # sigmoid in place: exp overflows to inf for very negative
                # pre-activation, which gives the right limit 0
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

def causal_pool_time(rows: np.ndarray) -> np.ndarray:
    """Trailing-window pooling of n frames from their per-frame reductions.

    ``rows`` is (window - 1 + n, 2, width) float64, window ``POOL_WINDOW``,
    oldest first: row r holds one frame's sums (``[r, 0]``) and maxes
    (``[r, 1]``) over a reduced axis, and the first window - 1 rows are
    history, zeros standing in for frames before the start of the stream.
    Returns (n, 2, width) float64: for frame t the sum of rows
    t .. t + window - 1, added oldest first, and their max.
    A window is the same rows in the same order however the frames were
    split into calls, so a stream pooling one frame at a time gets the bits
    of one call over the whole map. ``rows`` must be C-contiguous; the
    windows are strided views of it, which cost no more than a plain
    reduction at n = 1.
    """
    n_rows, _, width = rows.shape
    n = n_rows - POOL_WINDOW + 1
    s_row, s_stat, s_col = rows.strides
    out = np.empty((n, 2, width), dtype=F64)
    for k, reduce in enumerate((np.add, np.maximum)):
        wins = np.ndarray((n, POOL_WINDOW, width), F64, rows, k * s_stat, (s_row, s_row, s_col))
        reduce.reduce(wins, axis=1, out=out[:, k])
    return out
