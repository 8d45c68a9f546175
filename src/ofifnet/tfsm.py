"""Dual-path sequence modeling: recurrence along frequency, then along time.

Each block runs two residual stages on a (C, F, T) map:

  1. per frame, a bidirectional GRU over the frequency axis (feature size C,
     hidden h per direction) followed by a linear projection back to C;
  2. per frequency bin, a unidirectional GRU over time (hidden h) followed by
     a projection back to C, with the hidden state carried across frames.

Stage 1 touches one frame at a time and stage 2 only looks backwards, so the
block is strictly time-causal. Both stages run the one GRU kernel,
``nn.Gru.scan``, in float32. The one ``step`` runs n frames: stage 1 scans
the F bins with both directions and the n frames as its batch, then stage 2
scans the n frames from the carried hidden state with all bins as its batch.
Each frame's products are the same calls whatever n is, so a stream's
one-frame steps reproduce the whole-map ``forward`` (``nn.step_frames`` on a
fresh state) bit for bit.

``TFSM_PARAM_SHAPES`` names the block's tensors and gives their shapes;
``Model`` checks the tensors against it before it builds the block.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .nn import F32, Gru, step_frames


class TfsmState:
    """Carried time-path hidden state, (1, F, 1, h): one row per frequency bin."""

    def __init__(self):
        self.hidden: np.ndarray | None = None


#: weight name -> shape builder, for a block with C channels and hidden size h
TFSM_PARAM_SHAPES = (
    ("ffwd.W", lambda c, h: (3 * h, c)), ("ffwd.U", lambda c, h: (3 * h, h)),
    ("ffwd.b", lambda c, h: (3 * h,)),
    ("fbwd.W", lambda c, h: (3 * h, c)), ("fbwd.U", lambda c, h: (3 * h, h)),
    ("fbwd.b", lambda c, h: (3 * h,)),
    ("fproj.w", lambda c, h: (c, 2 * h)), ("fproj.b", lambda c, h: (c,)),
    ("time.W", lambda c, h: (3 * h, c)), ("time.U", lambda c, h: (3 * h, h)),
    ("time.b", lambda c, h: (3 * h,)),
    ("tproj.w", lambda c, h: (c, h)), ("tproj.b", lambda c, h: (c,)),
)


class TfsmBlock:

    def __init__(self, channels: int, hidden: int, params: dict[str, np.ndarray]):
        self.channels = channels
        self.hidden = hidden
        self.freq = Gru(*[[params[f"{d}.{k}"] for k in "WUb"] for d in ("ffwd", "fbwd")])
        self.time = Gru([params[f"time.{k}"] for k in "WUb"])
        self.fproj_w = np.asarray(params["fproj.w"], dtype=F32)
        self.fproj_b = np.asarray(params["fproj.b"], dtype=F32)
        self.tproj_w = np.asarray(params["tproj.w"], dtype=F32)
        self.tproj_b = np.asarray(params["tproj.b"], dtype=F32)

    def init_state(self) -> TfsmState:
        return TfsmState()

    def _check_channels(self, c: int) -> None:
        if c != self.channels:
            raise ConfigurationError(f"input has {c} channels, block expects {self.channels}")

    def _freq_gru(self, seq: np.ndarray) -> np.ndarray:
        """Both frequency GRUs in each of n frames: (n, F, C) -> (n, F, 2h).

        One scan over the F bins, the two directions and the n frames its
        batch; the backward GRU reads the bins reversed. State starts at zero
        in every frame, so the result for frame t never sees another frame.
        """
        n, f_dim, _ = seq.shape
        h = self.hidden
        gx = np.stack([seq, seq[:, ::-1]]) @ self.freq.w_in                # (2, n, F, 3h)
        states = np.empty((f_dim + 1, 2, n, 1, h), dtype=F32)
        states[0] = 0.0
        self.freq.scan(gx.transpose(2, 0, 1, 3)[:, :, :, None], states)
        out = np.empty((n, f_dim, 2 * h), dtype=F32)
        out[:, :, :h] = states[1:, 0, :, 0].transpose(1, 0, 2)
        out[:, :, h:] = states[:0:-1, 1, :, 0].transpose(1, 0, 2)
        return out

    def _freq_stage(self, seq: np.ndarray) -> np.ndarray:
        """Stage 1 on n frames: (n, F, C) -> (n, F, C) float32.

        The result is C-contiguous whatever the layout of ``seq``, so each
        frame's time-GRU input product sees the same operand layout.
        """
        y = self._freq_gru(seq) @ self.fproj_w.T
        y += self.fproj_b
        y += seq
        return y

    def step(self, x: np.ndarray, state: TfsmState) -> np.ndarray:
        """(C, F, n) frames after the carried ones through both residual stages."""
        c, f_dim, n = x.shape
        self._check_channels(c)
        seq = x.transpose(2, 1, 0)                                 # (n, F, C)
        inp = self._freq_stage(seq)
        gx = inp @ self.time.w_in                                  # (1, n, F, 3h)
        # one scan over the n frames, the F bins its batch
        states = np.empty((n + 1, 1, f_dim, 1, self.hidden), dtype=F32)
        states[0] = 0.0 if state.hidden is None else state.hidden
        self.time.scan(gx.transpose(1, 0, 2, 3)[:, :, :, None], states)
        state.hidden = states[n].copy()
        return (inp + (states[1:, 0, :, 0] @ self.tproj_w.T + self.tproj_b)).transpose(2, 1, 0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Whole (C, F, T) map, zero hidden state before frame 0."""
        x = np.asarray(x, dtype=F32)
        if x.ndim != 3:
            raise ConfigurationError(f"expected (C, F, T) input, got shape {x.shape}")
        return step_frames(self, x, self.init_state())
