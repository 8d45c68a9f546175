"""Causal attention over the time, frequency, and channel axes of a feature map.

Three parallel branches recalibrate a (C, F, T) map and a 1x1 fusion
convolution merges them:

  * time branch — queries/keys are scalars per frame from global avg+max
    pooling over (C, F); the T x T score matrix is lower-triangular masked
    before its softmax (no scale factor), so frame t attends to frames <= t.
  * frequency / channel branches — queries/keys come from trailing-window
    avg+max pooling over time plus a full reduction of the other axis. Two
    attention realizations exist:
      - ``offline``: one softmax(Q K^T / sqrt(T)) over the whole utterance.
        This mixes future frames into every output frame.
      - ``cumulative``: at frame t the score sum runs over frames 0..t only,
        scaled by sqrt(t+1); the final frame reproduces the offline matrix.
        This is the strictly causal realization the streaming engine uses.

Value paths are per-branch 1x1 convolutions; all branch outputs concatenate
into a 1x1 fusion convolution. Shapes are preserved end to end.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .nn import (
    CausalPoolState,
    F32,
    F64,
    causal_pool_time,
    global_pool_cf,
    masked_softmax,
    row_softmax,
    softmax_1d,
)

MODES = ("cumulative", "offline")

#: weight name -> shape builder, for a block with C channels
TFCA_PARAM_SHAPES = (
    ("tq.w", lambda c: (2,)), ("tq.b", lambda c: (1,)),
    ("tk.w", lambda c: (2,)), ("tk.b", lambda c: (1,)),
    ("fq.w", lambda c: (2,)), ("fq.b", lambda c: (1,)),
    ("fk.w", lambda c: (2,)), ("fk.b", lambda c: (1,)),
    ("cq.w", lambda c: (2,)), ("cq.b", lambda c: (1,)),
    ("ck.w", lambda c: (2,)), ("ck.b", lambda c: (1,)),
    ("vt.w", lambda c: (c, c)), ("vt.b", lambda c: (c,)),
    ("vf.w", lambda c: (c, c)), ("vf.b", lambda c: (c,)),
    ("vc.w", lambda c: (c, c)), ("vc.b", lambda c: (c,)),
    ("out.w", lambda c: (c, 3 * c)), ("out.b", lambda c: (c,)),
)


_SAFE_EXP_ARG = 60.0


def _exp_scores_into(scores: np.ndarray, denom: float, bound: float,
                     buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized softmax numerator exp(scores/denom) plus row sums.

    ``bound`` is an upper bound on |scores|; when the scaled bound is small the
    max-subtraction pass is provably unnecessary and skipped. The decision
    depends only on the values, so it is identical however the stream was
    chunked. Callers divide by the returned row sums where they apply the
    attention, which costs one vector pass instead of a matrix pass.
    """
    np.multiply(scores, 1.0 / denom, out=buf)
    if not bound / denom <= _SAFE_EXP_ARG:
        buf -= buf.max(axis=1, keepdims=True)
    np.exp(buf, out=buf)
    return buf, buf.sum(axis=1)


class _GrowBuf:
    """Append-only float64 row buffer with doubling capacity."""

    def __init__(self, cols: int):
        self._data = np.empty((128, cols), dtype=F64)
        self._n = 0

    def append(self, row: np.ndarray) -> None:
        if self._n == self._data.shape[0]:
            grown = np.empty((2 * self._n, self._data.shape[1]), dtype=F64)
            grown[:self._n] = self._data
            self._data = grown
        self._data[self._n] = row
        self._n += 1

    def view(self) -> np.ndarray:
        return self._data[:self._n]


class TfcaState:
    """Per-stream attention state: pooling windows, running score sums, histories."""

    def __init__(self, channels: int, window: int):
        self.count = 0
        self.channels = channels
        self.window = window
        self.pool_f: CausalPoolState | None = None
        self.pool_c = CausalPoolState(window, channels)
        self.score_f: np.ndarray | None = None
        self.score_c = np.zeros((channels, channels), dtype=F64)
        self.bound_f = 0.0            # running bound on |score| entries per branch
        self.bound_c = 0.0
        self.key_hist = _GrowBuf(1)
        self.value_hist: _GrowBuf | None = None
        # scratch reused every frame to keep the hot loop allocation-free
        self.scratch_f: np.ndarray | None = None
        self.scratch_c = np.empty((channels, channels), dtype=F64)
        self.outer_c = np.empty((channels, channels), dtype=F64)
        self.outer_f: np.ndarray | None = None
        self.cat64: np.ndarray | None = None
        self.ft_buf: np.ndarray | None = None

    def _lazy_init(self, f_dim: int) -> None:
        if self.pool_f is None:
            self.pool_f = CausalPoolState(self.window, f_dim)
            self.score_f = np.zeros((f_dim, f_dim), dtype=F64)
            self.value_hist = _GrowBuf(self.channels * f_dim)
            self.scratch_f = np.empty((f_dim, f_dim), dtype=F64)
            self.outer_f = np.empty((f_dim, f_dim), dtype=F64)
            self.cat64 = np.empty((3 * self.channels, f_dim), dtype=F64)
            self.ft_buf = np.empty(self.channels * f_dim, dtype=F64)


class TfcaBlock:
    """Attention block bound to a channel count; frequency size is inferred."""

    def __init__(self, channels: int, pool_window: int, params: dict[str, np.ndarray]):
        if channels < 1 or pool_window < 1:
            raise ConfigurationError("attention block needs channels >= 1 and window >= 1")
        self.channels = channels
        self.pool_window = pool_window
        for name, shape_of in TFCA_PARAM_SHAPES:
            arr = np.asarray(params[name], dtype=F64)
            want = shape_of(channels)
            if arr.shape != want:
                raise ConfigurationError(
                    f"attention tensor {name} has shape {arr.shape}, expected {want}")
            setattr(self, "_" + name.replace(".", "_"), arr)
        # fused projections: q and k in one 2x2 matmul, all three values in one
        self._fqk_w = np.stack([self._fq_w, self._fk_w])
        self._fqk_b = np.stack([self._fq_b, self._fk_b])
        self._cqk_w = np.stack([self._cq_w, self._ck_w])
        self._cqk_b = np.stack([self._cq_b, self._ck_b])
        self._v_w = np.concatenate([self._vt_w, self._vf_w, self._vc_w], axis=0)
        self._v_b = np.concatenate([self._vt_b, self._vf_b, self._vc_b])[:, None]

    # -- shared query/key math ------------------------------------------------

    def _time_qk_frame(self, x64: np.ndarray) -> tuple[float, float]:
        # pooled statistics round to float32 like the standalone pooling ops,
        # so the offline and cumulative realizations see identical inputs
        ga, gm = F32(x64.mean()), F32(x64.max())
        q = self._tq_w[0] * ga + self._tq_w[1] * gm + self._tq_b[0]
        k = self._tk_w[0] * ga + self._tk_w[1] * gm + self._tk_b[0]
        return q, k

    def _axis_qk(self, avg: np.ndarray, mx: np.ndarray, axis: str):
        w, b = (self._fqk_w, self._fqk_b) if axis == "frequency" else (self._cqk_w, self._cqk_b)
        stacked = np.stack([avg, mx])
        if avg.ndim == 1:
            qk = w @ stacked + b
        else:
            qk = np.tensordot(w, stacked, axes=([1], [0])) + b[..., None]
        return qk[0], qk[1]

    def _values_frame(self, x64: np.ndarray):
        v = (self._v_w @ x64 + self._v_b).astype(F32)
        c = self.channels
        return v[:c], v[c:2 * c], v[2 * c:]

    # -- streaming step ---------------------------------------------------------

    def init_state(self) -> TfcaState:
        return TfcaState(self.channels, self.pool_window)

    def step(self, frame: np.ndarray, state: TfcaState) -> np.ndarray:
        """Process one (C, F) frame; output frame depends on frames 0..t only."""
        c, f_dim = frame.shape
        if c != self.channels:
            raise ConfigurationError(f"frame has {c} channels, block expects {self.channels}")
        state._lazy_init(f_dim)
        t = state.count
        state.count += 1
        x64 = frame.astype(F64)
        vt, vf, vc = self._values_frame(x64)

        # time branch: scalar q/k per frame, masked row softmax over the history
        q, k = self._time_qk_frame(x64)
        state.key_hist.append(np.array([k], dtype=F64))
        state.value_hist.append(vt.astype(F64).ravel())
        att_row = softmax_1d(q * state.key_hist.view()[:, 0])
        np.matmul(att_row, state.value_hist.view(), out=state.ft_buf)
        ft = state.ft_buf.reshape(c, f_dim).astype(F32)

        denom = np.sqrt(t + 1.0)

        # frequency branch: trailing-window pooling, running score sum
        state.pool_f.push(x64.sum(axis=0), x64.max(axis=0))
        avg_f = (state.pool_f.window_sum() / (self.pool_window * c)).astype(F32)
        max_f = state.pool_f.window_max().astype(F32)
        qf, kf = self._axis_qk(avg_f.astype(F64), max_f.astype(F64), "frequency")
        np.multiply(qf[:, None], kf[None, :], out=state.outer_f)
        state.score_f += state.outer_f
        state.bound_f += float(np.abs(qf).max() * np.abs(kf).max())
        exp_f, z_f = _exp_scores_into(state.score_f, denom, state.bound_f, state.scratch_f)
        ff = vf.astype(F64) @ exp_f.T
        ff *= (1.0 / z_f)[None, :]          # softmax row sums applied per column
        ff = ff.astype(F32)

        # channel branch: same recipe with the roles of C and F swapped
        state.pool_c.push(x64.sum(axis=1), x64.max(axis=1))
        avg_c = (state.pool_c.window_sum() / (self.pool_window * f_dim)).astype(F32)
        max_c = state.pool_c.window_max().astype(F32)
        qc, kc = self._axis_qk(avg_c.astype(F64), max_c.astype(F64), "channel")
        np.multiply(qc[:, None], kc[None, :], out=state.outer_c)
        state.score_c += state.outer_c
        state.bound_c += float(np.abs(qc).max() * np.abs(kc).max())
        exp_c, z_c = _exp_scores_into(state.score_c, denom, state.bound_c, state.scratch_c)
        fc = exp_c @ vc.astype(F64)
        fc *= (1.0 / z_c)[:, None]
        fc = fc.astype(F32)

        cat = state.cat64
        cat[:c] = ft
        cat[c:2 * c] = ff
        cat[2 * c:] = fc
        return (self._out_w @ cat + self._out_b[:, None]).astype(F32)

    # -- batch forward ----------------------------------------------------------

    def forward(self, x: np.ndarray, mode: str = "cumulative") -> np.ndarray:
        """Shape-preserving recalibration of a (C, F, T) map."""
        x = np.asarray(x, dtype=F32)
        if x.ndim != 3 or x.shape[0] != self.channels:
            raise ConfigurationError(
                f"expected ({self.channels}, F, T) input, got shape {x.shape}")
        if mode not in MODES:
            raise ConfigurationError(f"unknown attention mode {mode!r}")
        if mode == "cumulative":
            state = self.init_state()
            out = np.empty_like(x)
            for t in range(x.shape[2]):
                out[:, :, t] = self.step(x[:, :, t], state)
            return out
        return self._forward_offline(x)

    def _pooled_qk(self, x: np.ndarray, axis: str):
        reduce = "channel" if axis == "frequency" else "frequency"
        avg = causal_pool_time(x, self.pool_window, "avg", reduce=reduce).astype(F64)
        mx = causal_pool_time(x, self.pool_window, "max", reduce=reduce).astype(F64)
        return self._axis_qk(avg, mx, axis)

    def _time_qk(self, x: np.ndarray):
        ga = global_pool_cf(x, "avg").astype(F64)
        gm = global_pool_cf(x, "max").astype(F64)
        q = self._tq_w[0] * ga + self._tq_w[1] * gm + self._tq_b[0]
        k = self._tk_w[0] * ga + self._tk_w[1] * gm + self._tk_b[0]
        return q, k

    def _forward_offline(self, x: np.ndarray) -> np.ndarray:
        c, f_dim, t_dim = x.shape
        x64 = x.astype(F64)
        vt = (np.tensordot(self._vt_w, x64, axes=([1], [0]))
              + self._vt_b[:, None, None]).astype(F32)
        vf = (np.tensordot(self._vf_w, x64, axes=([1], [0]))
              + self._vf_b[:, None, None]).astype(F32)
        vc = (np.tensordot(self._vc_w, x64, axes=([1], [0]))
              + self._vc_b[:, None, None]).astype(F32)

        q, k = self._time_qk(x)
        att_t = masked_softmax(np.outer(q, k))
        ft = (vt.astype(F64) @ att_t.T).astype(F32)

        qf, kf = self._pooled_qk(x, "frequency")
        att_f = row_softmax(qf @ kf.T / np.sqrt(t_dim))
        ff = (att_f @ vf.astype(F64)).astype(F32)              # one (F, F) @ (F, T) per channel

        qc, kc = self._pooled_qk(x, "channel")
        att_c = row_softmax(qc @ kc.T / np.sqrt(t_dim))
        fc = np.tensordot(att_c, vc.astype(F64), axes=([1], [0])).astype(F32)

        cat = np.concatenate([ft, ff, fc], axis=0).astype(F64)
        return (np.tensordot(self._out_w, cat, axes=([1], [0]))
                + self._out_b[:, None, None]).astype(F32)

    # -- attention inspection -----------------------------------------------------

    def attentions(self, x: np.ndarray, mode: str = "offline") -> dict[str, np.ndarray]:
        """Attention matrices for a (C, F, T) input, float64.

        The time matrix is identical in both modes (its mask is causal by
        construction). In ``cumulative`` mode the frequency/channel matrices
        are the ones in effect at the final frame, which coincide with the
        offline matrices up to summation order.
        """
        x = np.asarray(x, dtype=F32)
        if mode not in MODES:
            raise ConfigurationError(f"unknown attention mode {mode!r}")
        t_dim = x.shape[2]
        q, k = self._time_qk(x)
        att_t = masked_softmax(np.outer(q, k))
        if mode == "offline":
            qf, kf = self._pooled_qk(x, "frequency")
            qc, kc = self._pooled_qk(x, "channel")
            att_f = row_softmax(qf @ kf.T / np.sqrt(t_dim))
            att_c = row_softmax(qc @ kc.T / np.sqrt(t_dim))
        else:
            qf, kf = self._pooled_qk(x, "frequency")
            qc, kc = self._pooled_qk(x, "channel")
            sf = np.zeros((qf.shape[0],) * 2, dtype=F64)
            sc = np.zeros((qc.shape[0],) * 2, dtype=F64)
            for t in range(t_dim):
                sf += np.outer(qf[:, t], kf[:, t])
                sc += np.outer(qc[:, t], kc[:, t])
            att_f = row_softmax(sf / np.sqrt(t_dim))
            att_c = row_softmax(sc / np.sqrt(t_dim))
        return {"time": att_t, "frequency": att_f, "channel": att_c}
