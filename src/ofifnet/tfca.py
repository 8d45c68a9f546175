"""Causal attention over the time, frequency, and channel axes of a feature map.

Three parallel branches recalibrate a (C, F, T) map and a 1x1 fusion
convolution merges them:

  * time branch — queries/keys are scalars per frame from global avg+max
    pooling over (C, F); the T x T score matrix is lower-triangular masked
    before its softmax (no scale factor), so frame t attends to frames <= t.
  * frequency / channel branches — queries/keys come from trailing-window
    avg+max pooling over time plus a full reduction of the other axis.

Value paths are per-branch 1x1 convolutions; all branch outputs concatenate
into a 1x1 fusion convolution. Shapes are preserved end to end.

Everything a frame contributes on its own — the three branches' values, the
time query and key, and the pooled frequency and channel queries and keys —
is one projection, ``TfcaBlock.project``, over n frames after the pooling
rows a ``TfcaState`` carries: ``step`` calls it on the n frames it is given,
the offline forward once at n = T on a fresh state, and both get the same
bits. Only the attention itself has two realizations:
  - ``offline``: the T x T masked time softmax, and one
    softmax(Q K^T / sqrt(T)) per frequency/channel branch over the whole
    utterance. This mixes future frames into every output frame.
  - ``cumulative``: at frame t the time softmax runs over the keys so far,
    and the frequency/channel score sums over frames 0..t only, scaled by
    sqrt(t+1); the final frame reproduces the offline matrices. This is the
    strictly causal realization the streaming engine uses. ``step`` runs it
    frame by frame over its n frames after one projection; a stream steps one
    frame at a time, and the cumulative ``forward`` is one step of the whole
    map on a fresh state.

Values, queries, keys, every softmax and every product are float32. Two
things stay float64: the per-frame pooling sums and maxes (``project``),
whose statistics are rounded to float32 once, and a stream's running
frequency and channel score sums with their bounds, which accumulate for
the life of the stream. Each frame adds its outer product of the float32
query and key, computed exactly in float64, 64 rows at a time; the scaled
sum is rounded into the float32 buffer its ``exp`` runs in. Those buffers
are scratch of one ``step`` call: a state carries only what the next frame
reads.

The cumulative time branch attends over every past frame, so a ``TfcaState``
keeps one key and one C*F-value float32 row per frame for the life of the
stream. Each of the two histories lives in a private anonymous mapping of its
own (``_GrowBuf``), created on the state's first step and doubled in place
with ``mremap`` when full: no growth copies the history, only the rows written
are resident, and a freed history goes straight back to the OS. Where the
platform has no ``mremap``, growth takes a new mapping and one copy. Either
way the time product reads one contiguous (t, C*F) float32 array.
"""

from __future__ import annotations

import mmap

import numpy as np

from .errors import ConfigurationError
from .nn import F32, F64, causal_pool_time, masked_softmax, row_softmax, with_history

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


#: Below this scaled score bound exp needs no max subtraction: a row of 512
#: entries sums to at most 512 * e**60, about 6e28, far below the float32
#: maximum of 3.4e38.
_SAFE_EXP_ARG = 60.0


#: Rows per pass of the score update: a pass's float64 outer product, the
#: running sum's rows and the float32 exp rows stay in cache together.
_ROWS_PER_PASS = 64


def _accumulate_exp_scores(score: np.ndarray, q: np.ndarray, k: np.ndarray,
                           denom: float, bound: float, scratch: np.ndarray,
                           exp: np.ndarray) -> np.ndarray:
    """Add one frame's outer product of ``q`` and ``k`` to the running sum
    ``score`` and write the unnormalized softmax numerator exp(score/denom)
    into ``exp``; returns its float32 row sums.

    ``score`` is the float64 running sum and ``q``, ``k`` the float64 casts
    of the float32 query and key, so each product is exact. ``einsum`` writes
    the products faster than a broadcast ``multiply``; it gives +0 where
    the product is -0, which cannot reach the sum: the sum starts at +0, no
    add makes it -0, and x + (+-0) = x for every other x. The work runs in
    passes of ``_ROWS_PER_PASS`` rows, their products in the flat float64
    ``scratch``: each pass adds its products to the sum's rows, rounds the
    scaled rows into the float32 ``exp``, and takes the exp and the row sums
    there. Every row gets the bits of one pass over the whole matrix.
    ``bound`` is an upper bound on |score|; when the scaled bound is small
    the max-subtraction is provably unnecessary and skipped. The decision
    depends only on the values, so it is identical however the stream was
    chunked. Callers divide by the row sums where they apply the attention,
    which costs one vector pass instead of a matrix pass.
    """
    shift = not bound / denom <= _SAFE_EXP_ARG
    z = np.empty(len(score), dtype=F32)
    for r0 in range(0, len(score), _ROWS_PER_PASS):
        rows = slice(r0, r0 + _ROWS_PER_PASS)
        s = score[rows]
        o = scratch[:s.size].reshape(s.shape)
        np.einsum('i,j->ij', q[rows], k, out=o)
        s += o
        e = exp[rows]
        np.multiply(s, 1.0 / denom, out=e)
        if shift:
            e -= np.maximum.reduce(e, axis=1, keepdims=True)
        np.exp(e, out=e)
        np.add.reduce(e, axis=1, out=z[rows])
    return z


def _score_softmax(scores: np.ndarray, scale: float) -> np.ndarray:
    """Row softmax of float64 score sums over ``scale``: the scaled scores
    are rounded to float32, as a stream rounds them into its exp buffer."""
    return row_softmax((scores / scale).astype(F32))


class _GrowBuf:
    """Append-only float32 rows in a private anonymous mapping of their own.

    The mapping grows by doubling in place: ``mmap.resize`` is ``mremap``,
    which moves page tables and copies no bytes. Only the rows written are
    resident, and the mapping goes back to the OS when the buffer is freed.
    ``view()`` is one contiguous (rows, cols) float32 array, as a numpy
    buffer would be.
    """

    def __init__(self, cols: int):
        self._cols = cols
        self._row_bytes = cols * np.dtype(F32).itemsize
        self._map = mmap.mmap(-1, 128 * self._row_bytes, flags=mmap.MAP_PRIVATE)
        self._data = self._rows()
        self._n = 0

    def _rows(self) -> np.ndarray:
        return np.frombuffer(self._map, dtype=F32).reshape(-1, self._cols)

    @staticmethod
    def _resize(buf: mmap.mmap, nbytes: int) -> None:
        """Grow ``buf`` in place; raises ``SystemError`` where the platform has
        no ``mremap``. A seam: replacing it forces the copying path."""
        buf.resize(nbytes)

    def _grow(self) -> None:
        nbytes = 2 * len(self._map)
        self._data = None              # a mapping cannot move while a view of it lives
        try:
            self._resize(self._map, nbytes)
        except (SystemError, BufferError):
            # no mremap here, or a caller still holds a view(): a new mapping
            # and one copy of the rows; the old one goes with its last view
            old = self._map
            self._map = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
            self._map[:len(old)] = old
        finally:
            self._data = self._rows()

    def append(self, row: np.ndarray) -> None:
        if self._n == len(self._data):
            self._grow()
        self._data[self._n] = row
        self._n += 1

    def view(self) -> np.ndarray:
        return self._data[:self._n]

    @property
    def nbytes(self) -> int:
        """Bytes of the rows appended so far."""
        return self._n * self._row_bytes


class TfcaState:
    """Per-stream attention state: pooling rows, running score sums, histories.

    It holds only what a later frame reads. The running score sums
    ``score_f`` and ``score_c`` and their bounds are float64; the pooling
    rows are float64 and the histories float32.
    """

    def __init__(self, channels: int):
        self.count = 0
        self.channels = channels
        # (window - 1 + n, 2, width) pooling rows of the last projection, oldest
        # first, for the frequency (sums and maxes over C) and channel (over F)
        # branches; the last window - 1 rows are the history of the next
        self.pool_f: np.ndarray | None = None
        self.pool_c: np.ndarray | None = None
        self.score_f: np.ndarray | None = None
        self.score_c = np.zeros((channels, channels), dtype=F64)
        self.bound_f = 0.0            # running bound on |score| entries per branch
        self.bound_c = 0.0
        # the time branch's key and value histories, mapped on the first step
        self.key_hist: _GrowBuf | None = None
        self.value_hist: _GrowBuf | None = None

    def allocate(self, f_dim: int) -> None:
        """Size the frequency-dependent state from the first frames."""
        self.score_f = np.zeros((f_dim, f_dim), dtype=F64)
        self.key_hist = _GrowBuf(1)
        self.value_hist = _GrowBuf(self.channels * f_dim)

    @property
    def history_bytes(self) -> int:
        """Bytes of time-branch key and value rows held, 4 * (1 + C * F) per frame."""
        if self.value_hist is None:
            return 0
        return self.key_hist.nbytes + self.value_hist.nbytes


class TfcaBlock:
    """Attention block bound to a channel count; frequency size is inferred."""

    def __init__(self, channels: int, pool_window: int, params: dict[str, np.ndarray]):
        if channels < 1 or pool_window < 1:
            raise ConfigurationError("attention block needs channels >= 1 and window >= 1")
        self.channels = channels
        self.pool_window = pool_window
        p = {}
        for name, shape_of in TFCA_PARAM_SHAPES:
            arr = np.asarray(params[name], dtype=F32)
            want = shape_of(channels)
            if arr.shape != want:
                raise ConfigurationError(
                    f"attention tensor {name} has shape {arr.shape}, expected {want}")
            p[name] = arr
        # each weight held once, fused: each branch's q and k together, all
        # three values in one matmul; the time q and k stay elementwise products
        self._tqk_w = np.stack([p["tq.w"], p["tk.w"]], axis=1)    # [avg, max] rows
        self._tqk_b = np.concatenate([p["tq.b"], p["tk.b"]])
        self._fqk_w = np.stack([p["fq.w"], p["fk.w"]])
        self._fqk_b = np.stack([p["fq.b"], p["fk.b"]])
        self._cqk_w = np.stack([p["cq.w"], p["ck.w"]])
        self._cqk_b = np.stack([p["cq.b"], p["ck.b"]])
        self._v_w = np.concatenate([p["vt.w"], p["vf.w"], p["vc.w"]], axis=0)
        self._v_b = np.concatenate([p["vt.b"], p["vf.b"], p["vc.b"]])[:, None]
        self._out_w = p["out.w"]
        self._out_b = p["out.b"]

    def _check_shape(self, shape: tuple[int, ...]) -> None:
        if len(shape) != 3 or shape[0] != self.channels or shape[1] < 1:
            raise ConfigurationError(
                f"expected ({self.channels}, F, n) input with F >= 1, got shape {shape}")

    # -- the per-frame projection, shared by both realizations -------------------

    def project(self, x: np.ndarray, state: TfcaState):
        """Values, queries and keys of the (C, F, n) frames after those
        ``state`` has seen.

        The frequency and channel pooling runs over ``causal_pool_time``
        rows: the state's carried window - 1 rows, then these frames' sums and
        maxes over C and over F; the state keeps the last window - 1 of them.
        The first frames fix the frequency size for the life of the state.
        Returns the three branches' values (n, 3C, F), the time query and
        key (n, 2), and the frequency and channel queries and keys (n, 2, F)
        and (n, 2, C), all float32. The per-frame sums and maxes are float64,
        each pooled statistic rounded to float32 once. Each frame's products
        and reductions are the same calls whatever n is.
        """
        c, f_dim, n = x.shape
        start = self.pool_window - 1
        if state.pool_f is not None and f_dim != state.pool_f.shape[2]:
            raise ConfigurationError(
                f"frame has {f_dim} frequency bins, the stream started with "
                f"{state.pool_f.shape[2]}")
        pool_f = state.pool_f = with_history(state.pool_f, start, n, (2, f_dim), F64)
        pool_c = state.pool_c = with_history(state.pool_c, start, n, (2, c), F64)
        xt = np.ascontiguousarray(x.transpose(2, 0, 1))            # (n, C, F)
        x64 = xt.astype(F64)
        v = self._v_w @ xt
        v += self._v_b
        # time: scalar q/k per frame from the frame's mean and max over (C, F),
        # rounded to float32 like every pooled statistic (the ufuncs' own
        # reductions: the array methods cost a Python call more per frame)
        avg = (np.add.reduce(x64.reshape(n, c * f_dim), axis=1, keepdims=True)
               / (c * f_dim)).astype(F32)
        mx = np.maximum.reduce(xt.reshape(n, c * f_dim), axis=1, keepdims=True)
        tqk = avg * self._tqk_w[0] + mx * self._tqk_w[1] + self._tqk_b
        np.add.reduce(x64, axis=1, out=pool_f[start:, 0])
        np.maximum.reduce(x64, axis=1, out=pool_f[start:, 1])
        np.add.reduce(x64, axis=2, out=pool_c[start:, 0])
        np.maximum.reduce(x64, axis=2, out=pool_c[start:, 1])
        fqk = self._axis_qk(pool_f, c, self._fqk_w, self._fqk_b)
        cqk = self._axis_qk(pool_c, f_dim, self._cqk_w, self._cqk_b)
        return v, tqk, fqk, cqk

    def _axis_qk(self, rows: np.ndarray, n_reduced: int, w: np.ndarray, b: np.ndarray):
        """(n, 2, width) q and k from trailing-window avg and max pooling."""
        pooled = causal_pool_time(rows, self.pool_window)
        pooled[:, 0] /= self.pool_window * n_reduced
        return w @ pooled.astype(F32) + b

    # -- the cumulative realization: the one n-frame step ------------------------

    def init_state(self) -> TfcaState:
        return TfcaState(self.channels)

    def step(self, x: np.ndarray, state: TfcaState) -> np.ndarray:
        """Cumulative attention of (C, F, n) frames after those ``state`` has
        seen: output frame t depends on frames 0..t only."""
        self._check_shape(x.shape)
        c, f_dim, n = x.shape
        if state.score_f is None:
            state.allocate(f_dim)
        v, tqk, fqk, cqk = self.project(x, state)
        # each frame's bound on its outer product, |q|max * |k|max, in float64
        bounds_f, bounds_c = ((m[:, 0].astype(F64) * m[:, 1]).tolist()
                              for m in (np.abs(fqk).max(axis=2), np.abs(cqk).max(axis=2)))
        fqk, cqk = fqk.astype(F64), cqk.astype(F64)
        # scratch for all n frames: the float64 outer-product rows of a pass,
        # the float32 exp of each branch's scaled sums, and the three branch
        # outputs, written straight into the rows of cat for the output conv
        scratch = np.empty(_ROWS_PER_PASS * max(f_dim, c), dtype=F64)
        exp_f = np.empty((f_dim, f_dim), dtype=F32)
        exp_c = np.empty((c, c), dtype=F32)
        cat = np.empty((3 * c, f_dim), dtype=F32)
        ft, ff, fc = cat[:c].reshape(c * f_dim), cat[c:2 * c], cat[2 * c:]
        out = np.empty((n, c, f_dim), dtype=F32)
        for i in range(n):
            denom = np.sqrt(state.count + 1.0)
            state.count += 1

            # time branch: masked row softmax over the history
            state.key_hist.append(tqk[i, 1:])
            state.value_hist.append(v[i, :c].ravel())
            att_row = row_softmax(tqk[i, 0] * state.key_hist.view()[:, 0])
            np.matmul(att_row, state.value_hist.view(), out=ft)

            # frequency branch: the running score sum gains the frame's exact
            # outer product; the softmax row sums are applied per column
            qf, kf = fqk[i]
            state.bound_f += bounds_f[i]
            z_f = _accumulate_exp_scores(state.score_f, qf, kf, denom, state.bound_f,
                                         scratch, exp_f)
            np.matmul(v[i, c:2 * c], exp_f.T, out=ff)
            ff *= 1.0 / z_f

            # channel branch: same recipe with the roles of C and F swapped
            qc, kc = cqk[i]
            state.bound_c += bounds_c[i]
            z_c = _accumulate_exp_scores(state.score_c, qc, kc, denom, state.bound_c,
                                         scratch, exp_c)
            np.matmul(exp_c, v[i, 2 * c:], out=fc)
            fc *= (1.0 / z_c)[:, None]

            np.matmul(self._out_w, cat, out=out[i])
            out[i] += self._out_b[:, None]
        return out.transpose(1, 2, 0)

    # -- whole-map forward --------------------------------------------------------

    def forward(self, x: np.ndarray, mode: str = "cumulative") -> np.ndarray:
        """Shape-preserving recalibration of a (C, F, T) map; cumulative is
        ``step`` on a fresh state."""
        x = np.asarray(x, dtype=F32)
        self._check_shape(x.shape)
        if mode not in MODES:
            raise ConfigurationError(f"unknown attention mode {mode!r}")
        if mode == "offline" and x.shape[2]:
            return self._forward_offline(x)
        # cumulative, or an empty map, which both modes return empty
        return self.step(x, self.init_state())

    def _offline(self, x: np.ndarray):
        """The projection of a whole (C, F, T) map and its offline attention.

        Returns the values as (3C, F, T), then the time (T, T), frequency
        (F, F) and channel (C, C) attention matrices, all float32. The
        frequency and channel scores are summed over the frames in float64,
        as a stream's running sums are.
        """
        v, tqk, fqk, cqk = self.project(x, self.init_state())
        fqk, cqk = fqk.astype(F64), cqk.astype(F64)
        scale = np.sqrt(x.shape[2])
        return (np.ascontiguousarray(v.transpose(1, 2, 0)),
                masked_softmax(np.outer(tqk[:, 0], tqk[:, 1])),
                _score_softmax(fqk[:, 0].T @ fqk[:, 1], scale),
                _score_softmax(cqk[:, 0].T @ cqk[:, 1], scale))

    def _forward_offline(self, x: np.ndarray) -> np.ndarray:
        c = x.shape[0]
        cat, att_t, att_f, att_c = self._offline(x)
        # each branch's output replaces its values
        cat[:c] = cat[:c] @ att_t.T
        cat[c:2 * c] = att_f @ cat[c:2 * c]    # one (F, F) @ (F, T) per channel
        cat[2 * c:] = np.tensordot(att_c, cat[2 * c:], axes=([1], [0]))
        return np.tensordot(self._out_w, cat, axes=([1], [0])) + self._out_b[:, None, None]

    # -- attention inspection -----------------------------------------------------

    def attentions(self, x: np.ndarray, mode: str = "offline") -> dict[str, np.ndarray]:
        """Attention matrices for a (C, F, T) input, float32.

        The time matrix is identical in both modes (its mask is causal by
        construction). In ``cumulative`` mode the frequency/channel matrices
        are the ones in effect at the final frame of a stream stepped over
        the input, which coincide with the offline matrices up to summation
        order.
        """
        x = np.asarray(x, dtype=F32)
        self._check_shape(x.shape)
        if mode not in MODES:
            raise ConfigurationError(f"unknown attention mode {mode!r}")
        if not x.shape[2]:
            raise ConfigurationError("attention matrices need at least one frame")
        _, att_t, att_f, att_c = self._offline(x)
        if mode == "cumulative":
            state = self.init_state()
            self.step(x, state)
            scale = np.sqrt(x.shape[2])
            att_f = _score_softmax(state.score_f, scale)
            att_c = _score_softmax(state.score_c, scale)
        return {"time": att_t, "frequency": att_f, "channel": att_c}
