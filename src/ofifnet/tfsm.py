"""Dual-path sequence modeling: recurrence along frequency, then along time.

Each block runs two residual stages on a (C, F, T) map:

  1. per frame, a bidirectional GRU over the frequency axis (feature size C,
     hidden h per direction) followed by a linear projection back to C;
  2. per frequency bin, a unidirectional GRU over time (hidden h) followed by
     a projection back to C, with the hidden state carried across frames.

Stage 1 touches one frame at a time and stage 2 only looks backwards, so the
block is strictly time-causal. The one ``step`` runs n frames: stage 1 on up
to ``FRAMES_PER_PASS`` frames per stacked pass, then stage 2 as a loop over
the n frames from the carried hidden state, with all bins as its batch. Both
stages compute in float32, weights included. Each frame's products are the
same calls whatever n is, so a stream's one-frame steps reproduce the
whole-map ``forward`` (a step on a fresh state) bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .nn import BiGru, F32, GruParams, gru_step_pre, in_passes


class TfsmState:
    """Carried time-path hidden state, one row per frequency bin."""

    def __init__(self):
        self.hidden: np.ndarray | None = None


class TfsmBlock:

    def __init__(self, channels: int, hidden: int, params: dict[str, np.ndarray]):
        self.channels = channels
        self.hidden = hidden
        freq_fwd = GruParams(params["ffwd.W"], params["ffwd.U"], params["ffwd.b"])
        freq_bwd = GruParams(params["fbwd.W"], params["fbwd.U"], params["fbwd.b"])
        self._bigru = BiGru(freq_fwd, freq_bwd)
        self.time = GruParams(params["time.W"], params["time.U"], params["time.b"])
        self.fproj_w = np.asarray(params["fproj.w"], dtype=F32)
        self.fproj_b = np.asarray(params["fproj.b"], dtype=F32)
        self.tproj_w = np.asarray(params["tproj.w"], dtype=F32)
        self.tproj_b = np.asarray(params["tproj.b"], dtype=F32)
        if freq_fwd.input_size != channels or self.time.input_size != channels:
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
        """Stage 1 on n frames: (n, F, C) -> (n, F, C) float32.

        The result is C-contiguous whatever the layout of ``seq``, so each
        frame's time-GRU input product sees the same operand layout.
        """
        y = self._bigru.frame(seq) @ self.fproj_w.T
        y += self.fproj_b
        y += seq
        return y

    def _time_out(self, inp: np.ndarray, hidden: np.ndarray) -> np.ndarray:
        """Stage 2's residual projection of the time-GRU state."""
        return inp + (hidden @ self.tproj_w.T + self.tproj_b)

    def step(self, x: np.ndarray, state: TfsmState) -> np.ndarray:
        """(C, F, n) frames after the carried ones through both residual stages."""
        c, f_dim, n = x.shape
        self._check_channels(c)
        seq = x.transpose(2, 1, 0)                                 # (n, F, C)
        inp = in_passes(self._freq_stage, seq)
        gx = inp @ self.time.w_in.T
        hidden = np.empty((n, f_dim, self.hidden), dtype=F32)
        h = np.zeros((f_dim, self.hidden), dtype=F32) if state.hidden is None else state.hidden
        with np.errstate(over="ignore"):
            for t in range(n):
                h = hidden[t] = gru_step_pre(gx[t], h, self.time)
        state.hidden = h
        return self._time_out(inp, hidden).transpose(2, 1, 0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Whole (C, F, T) map, zero hidden state before frame 0."""
        x = np.asarray(x, dtype=F32)
        if x.ndim != 3:
            raise ConfigurationError(f"expected (C, F, T) input, got shape {x.shape}")
        return self.step(x, self.init_state())
