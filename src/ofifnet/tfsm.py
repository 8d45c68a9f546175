"""Dual-path sequence modeling: recurrence along frequency, then along time.

Each block runs two residual stages on a (C, F, T) map:

  1. per frame, a bidirectional GRU over the frequency axis (feature size C,
     hidden h per direction) followed by a linear projection back to C;
  2. per frequency bin, a unidirectional GRU over time (hidden h) followed by
     a projection back to C, with the hidden state carried across frames.

Stage 1 touches one frame at a time and stage 2 only looks backwards, so the
block is strictly time-causal. The batch run does stage 1 for many frames
per stacked pass and stage 2 as one loop over time; each frame's products
are the same calls as in the frame-by-frame run, which therefore reproduces
the batch output bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .nn import FRAMES_PER_PASS, BiGru, F32, F64, GruParams, gru_step, gru_step_pre


class TfsmState:
    """Carried time-path hidden state, one row per frequency bin."""

    def __init__(self):
        self.hidden: np.ndarray | None = None


class TfsmBlock:

    def __init__(self, channels: int, hidden: int, params: dict[str, np.ndarray]):
        self.channels = channels
        self.hidden = hidden
        self.freq_fwd = GruParams(params["ffwd.W"], params["ffwd.U"], params["ffwd.b"])
        self.freq_bwd = GruParams(params["fbwd.W"], params["fbwd.U"], params["fbwd.b"])
        self._bigru = BiGru(self.freq_fwd, self.freq_bwd)
        self.time = GruParams(params["time.W"], params["time.U"], params["time.b"])
        self.fproj_w = np.asarray(params["fproj.w"], dtype=F64)
        self.fproj_b = np.asarray(params["fproj.b"], dtype=F64)
        self.tproj_w = np.asarray(params["tproj.w"], dtype=F64)
        self.tproj_b = np.asarray(params["tproj.b"], dtype=F64)
        if self.freq_fwd.input_size != channels or self.time.input_size != channels:
            raise ConfigurationError("recurrent input sizes must equal the channel count")
        if self.fproj_w.shape != (channels, 2 * hidden) or self.tproj_w.shape != (channels, hidden):
            raise ConfigurationError(
                f"projection shapes {self.fproj_w.shape}/{self.tproj_w.shape} do not match "
                f"C={channels}, h={hidden}")

    def init_state(self) -> TfsmState:
        return TfsmState()

    def _check_channels(self, c: int) -> None:
        if c != self.channels:
            raise ConfigurationError(f"input has {c} channels, block expects {self.channels}")

    def _freq_stage(self, seq: np.ndarray) -> np.ndarray:
        """Stage 1 on n frames: (n, F, C) float64 -> (n, F, C) float32-valued float64.

        The result is C-contiguous whatever the layout of ``seq``, so each
        frame's time-GRU input product sees the same operand layout.
        """
        y = self._bigru.frame(seq) @ self.fproj_w.T
        y += self.fproj_b
        y += seq
        return y.astype(F32).astype(F64)

    def _time_out(self, inp: np.ndarray, hidden: np.ndarray) -> np.ndarray:
        """Stage 2's residual projection of the time-GRU state; float32."""
        return (inp + (hidden @ self.tproj_w.T + self.tproj_b)).astype(F32)

    def step(self, frame: np.ndarray, state: TfsmState) -> np.ndarray:
        """One (C, F) frame through both residual stages."""
        c, f_dim = frame.shape
        self._check_channels(c)
        inp = self._freq_stage(frame.astype(F64).T[None])[0]      # (F, C)
        if state.hidden is None:
            state.hidden = np.zeros((f_dim, self.hidden), dtype=F64)
        state.hidden = gru_step(inp, state.hidden, self.time)
        return self._time_out(inp, state.hidden).T

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batch run over (C, F, T): stage 1 on up to ``FRAMES_PER_PASS``
        frames per call, then the time recurrence with all bins as its batch."""
        x = np.asarray(x, dtype=F32)
        if x.ndim != 3:
            raise ConfigurationError(f"expected (C, F, T) input, got shape {x.shape}")
        c, f_dim, t_dim = x.shape
        self._check_channels(c)
        seq = x.astype(F64).transpose(2, 1, 0)                     # (T, F, C)
        inp = np.concatenate([self._freq_stage(seq[s:s + FRAMES_PER_PASS])
                              for s in range(0, t_dim, FRAMES_PER_PASS)])
        gx = inp @ self.time.w_in.T
        hidden = np.empty((t_dim, f_dim, self.hidden), dtype=F64)
        h = np.zeros((f_dim, self.hidden), dtype=F64)
        for t in range(t_dim):
            h = hidden[t] = gru_step_pre(gx[t], h, self.time)
        return np.ascontiguousarray(self._time_out(inp, hidden).transpose(2, 1, 0))
