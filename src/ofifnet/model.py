"""Full enhancement model: encoder, sequence modeling, attention skips, decoder.

The pipeline for a waveform is: 4-channel fused spectrum -> attention
recalibration -> 5 causal conv blocks (conv, batch norm, PReLU) -> 3 dual-path
recurrent blocks -> 5 causal deconv blocks. Every encoder output passes an
attention block before concatenating onto the decoder stream, and another
attention block follows each decoder block except the last, whose activation
is Tanh so the predicted mask lies in [-1, 1]. The mask multiplies the noisy
spectrum and overlap-add synthesis returns a waveform of the input length.
``Model.walk`` is the one place this wiring lives: a stream walks it once
per group of up to 32 frames, stepping each block's carried state over a
(C, F, g) map one frame at a time, the offline forward once with whole
(C, F, T) maps through each block's ``forward``, which steps a fresh state
32 frames at a time (attention excepted, whose offline realization is its
own method). Both split frames through ``nn.step_frames``.

``Model.forward`` takes the attention mode per call.

``ModelConfig`` holds only what a weight file can vary, the encoder's
channels and the recurrent blocks' hidden sizes; the decoder mirrors the
encoder. The input's 4 channels (``ofif.NUM_CHANNELS``) and 512 bins
(``stdct.DCT_SIZE``) are fixed by the analysis, the conv geometry
(``nn.KERNEL`` ...) and the pooling window by the paper's network. Weight
tensors live in a flat name -> array mapping with
canonical dotted paths (``enc.0.conv.w`` ...): a block's prefix, then a name
from the tensor table of the module that owns the block (``_conv_layout``
here, ``tfsm.TFSM_PARAM_SHAPES``, ``tfca.TFCA_PARAM_SHAPES``). The block
plan (``_block_plan``) lists the blocks once, in weight-file order:
``weight_layout`` flattens it into the exact names and shapes a
configuration requires, loading checks the tensors against that tensor by
tensor, and ``Model`` builds each block from its own tensors.
"""

from __future__ import annotations

import json
import math
from collections import OrderedDict, defaultdict
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import ofif, stdct, stream
from .errors import ConfigurationError, SignalTooShortError, UndefinedMetricError, WeightError
from .nn import (
    BN_EPS,
    F32,
    F64,
    FREQ_OUT_PAD,
    FREQ_PAD,
    FREQ_STRIDE,
    KERNEL,
    POOL_WINDOW,
    conv2d_out_freq,
    conv_frame_taps,
    deconv2d_out_freq,
    deconv_as_time_conv,
    deconv_frame_taps,
    step_frames,
    with_history,
)
from .tfca import MODES, TFCA_PARAM_SHAPES, TfcaBlock
from .tfsm import TFSM_PARAM_SHAPES, TfsmBlock

SI_SNR_CAP_DB = 120.0
MASK_EPS = 1e-8

#: sidecar keys of settings the engine fixes or takes per call, each accepted
#: only at the value the engine runs, so older sidecars still load; so is
#: ``decoder_channels``, at the encoder's mirror
RETIRED_KEYS = {"in_channels": ofif.NUM_CHANNELS, "freq_bins": stdct.DCT_SIZE,
                "fuse_attention": True, "attention_mode": "cumulative",
                "kernel": KERNEL, "stride": (FREQ_STRIDE, 1), "freq_pad": FREQ_PAD,
                "freq_out_pad": FREQ_OUT_PAD, "pool_window": POOL_WINDOW}


@dataclass(frozen=True)
class ModelConfig:
    """What a weight file can vary; the default values are the deployed setup."""

    encoder_channels: tuple[int, ...] = (16, 32, 64, 128, 128)
    tfsm_hidden: tuple[int, ...] = (128, 64, 32)

    def __post_init__(self):
        if not self.encoder_channels:
            raise ConfigurationError("a model needs an encoder block: the decoder mirrors it")
        if min(self.encoder_channels + self.tfsm_hidden) < 1:
            raise ConfigurationError("channel counts and hidden sizes must be >= 1")
        self.encoder_freqs()  # raises if the decoder misses the analysis size

    @property
    def decoder_channels(self) -> tuple[int, ...]:
        """The encoder's channels mirrored, the last block emitting the one mask channel."""
        return (*self.encoder_channels[-2::-1], 1)

    def encoder_freqs(self) -> list[int]:
        """Frequency sizes entering each encoder block, plus the bottleneck size."""
        freqs = [stdct.DCT_SIZE]
        for _ in self.encoder_channels:
            freqs.append(conv2d_out_freq(freqs[-1]))
        f = freqs[-1]
        for _ in self.encoder_channels:
            f = deconv2d_out_freq(f)
        if f != stdct.DCT_SIZE:
            raise ConfigurationError(
                f"decoder returns {f} frequency bins instead of {stdct.DCT_SIZE}; "
                "use fewer encoder blocks")
        return freqs

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError("config must be a JSON object")
        for key, runs in RETIRED_KEYS.items():
            _check_retired(key, data.pop(key, runs), runs)
        sizes = {key: data.pop(key) for key in cls.__dataclass_fields__ if key in data}
        unknown = set(data) - {"decoder_channels"}
        if unknown:
            raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
        for key, value in sizes.items():
            if not (isinstance(value, list) and all(type(v) is int for v in value)):
                raise ConfigurationError(
                    f"config field {key!r} must be a list of integers, got {json.dumps(value)}")
        config = cls(**{key: tuple(value) for key, value in sizes.items()})
        mirror = config.decoder_channels
        _check_retired("decoder_channels", data.get("decoder_channels", mirror), mirror)
        return config


def _check_retired(key: str, value, runs) -> None:
    """Reject a retired sidecar field unless it holds the value the engine runs,
    compared as JSON text: 4.0 is not 4, true is not 1."""
    if json.dumps(value) != json.dumps(runs):
        hint = ("drop it and choose the mode per call, as --mode offline"
                if key == "attention_mode" else f"the engine runs only {json.dumps(runs)}")
        raise ConfigurationError(f"retired config field {key!r} is {json.dumps(value)}: {hint}")


DEFAULT_CONFIG = ModelConfig()


# ---------------------------------------------------------------------------
# weight layout and initialization
# ---------------------------------------------------------------------------

def _conv_layout(w_shape: tuple[int, ...], c_out: int, tanh: bool = False) -> dict:
    """A conv block's tensors: its kernel and bias, its batch norm, then its
    PReLU slopes, which a block that ends in Tanh has none of."""
    layout = {"conv.w": w_shape, "conv.b": (c_out,)}
    layout.update((f"bn.{stat}", (c_out,)) for stat in ("gamma", "beta", "mean", "var"))
    if not tanh:
        layout["prelu.slope"] = (c_out,)
    return layout


def _block_plan(config: ModelConfig):
    """(prefix, layout, builder) of every block, in weight-file order.

    ``layout`` maps the block's tensor names, without the prefix, to their
    shapes, from the table of the module that owns the block; ``builder``
    makes the block from those tensors. The fuse attention, the encoder, the
    recurrent blocks and the skip attentions come first, then each decoder
    block and its attention; the last decoder block has none, and no PReLU:
    it ends in Tanh.
    """
    enc, dec = config.encoder_channels, config.decoder_channels

    def tfca(prefix, c):
        return (prefix, {n: shape_of(c) for n, shape_of in TFCA_PARAM_SHAPES},
                partial(TfcaBlock, c))

    yield tfca("fuse", ofif.NUM_CHANNELS)
    for i, (c_in, c) in enumerate(zip((ofif.NUM_CHANNELS, *enc), enc)):
        yield f"enc.{i}", _conv_layout((c, c_in, *KERNEL), c), _ConvBlock
    for j, h in enumerate(config.tfsm_hidden):
        yield (f"tfsm.{j}", {n: shape_of(enc[-1], h) for n, shape_of in TFSM_PARAM_SHAPES},
               partial(TfsmBlock, enc[-1], h))
    for i, c in enumerate(enc):
        yield tfca(f"skip.{i}", c)
    for j, (d_in, c) in enumerate(zip((enc[-1], *dec), dec)):
        last = j == len(dec) - 1
        yield (f"dec.{j}", _conv_layout((d_in + enc[-1 - j], c, *KERNEL), c, tanh=last),
               partial(_ConvBlock, transposed=True))
        if not last:
            yield tfca(f"dectfca.{j}", c)


def weight_layout(config: ModelConfig) -> "OrderedDict[str, tuple[int, ...]]":
    """Every tensor name and shape the configuration requires, canonical order."""
    return OrderedDict((f"{prefix}.{name}", shape) for prefix, layout, _ in _block_plan(config)
                       for name, shape in layout.items())


def init_weights(config: ModelConfig, seed: int) -> "OrderedDict[str, np.ndarray]":
    """Deterministic seeded weights: uniform [-0.1, 0.1] for learned tensors.

    Normalization tensors get their natural evaluation-mode defaults (gamma 1,
    beta 0, running mean 0, running var 1) and PReLU slopes start at 0.25, so
    a fresh model is numerically tame enough for self-tests.
    """
    rng = np.random.default_rng(seed)
    tensors: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for name, shape in weight_layout(config).items():
        if name.endswith((".bn.gamma", ".bn.var")):
            tensors[name] = np.ones(shape, dtype=F32)
        elif name.endswith((".bn.beta", ".bn.mean")):
            tensors[name] = np.zeros(shape, dtype=F32)
        elif name.endswith(".prelu.slope"):
            tensors[name] = np.full(shape, 0.25, dtype=F32)
        else:
            tensors[name] = rng.uniform(-0.1, 0.1, size=shape).astype(F32)
    return tensors


def param_count_of(tensors: "OrderedDict[str, np.ndarray]") -> int:
    """Learned scalar parameters; batch-norm running statistics do not count."""
    return sum(int(np.prod(a.shape)) for n, a in tensors.items()
               if not n.endswith((".bn.mean", ".bn.var")))


def param_breakdown(tensors: "OrderedDict[str, np.ndarray]") -> "OrderedDict[str, int]":
    """Per-layer learned-parameter totals keyed by the first two name parts."""
    out: "OrderedDict[str, int]" = OrderedDict()
    for name, arr in tensors.items():
        if name.endswith((".bn.mean", ".bn.var")):
            continue
        parts = name.split(".")
        key = ".".join(parts[:2]) if parts[1].isdigit() else parts[0]
        out[key] = out.get(key, 0) + int(np.prod(arr.shape))
    return out


# ---------------------------------------------------------------------------
# layer blocks
# ---------------------------------------------------------------------------

class _ConvState:
    def __init__(self):
        # (k_t - 1 + n, C_in, F) float32 input frames of the last step, oldest
        # first; the last k_t - 1 of them are the history of the next
        self.frames: np.ndarray | None = None


class _ConvBlock:
    """Causal conv (or deconv), batch norm, then PReLU, or Tanh where
    ``params`` has no ``prelu.slope``; tensors as ``_conv_layout`` names them."""

    def __init__(self, params: dict[str, np.ndarray], transposed=False):
        w = np.asarray(params["conv.w"], dtype=F32)
        self.b = np.asarray(params["conv.b"], dtype=F32)
        self.transposed = transposed
        # the kernel held once in float32; a deconv's as the conv of its time taps
        self.w = deconv_as_time_conv(w) if transposed else w
        _, self.c_in, _, self.k_t = self.w.shape
        var = np.asarray(params["bn.var"], dtype=F64)
        if np.any(var < 0):
            raise WeightError("batch-norm running variance contains negative entries")
        # scale and shift folded once in float64, then held in float32
        bn_scale = np.asarray(params["bn.gamma"], dtype=F64) / np.sqrt(var + BN_EPS)
        bn_shift = (np.asarray(params["bn.beta"], dtype=F64)
                    - np.asarray(params["bn.mean"], dtype=F64) * bn_scale)
        self.bn_scale = bn_scale.astype(F32)[:, None]
        self.bn_shift = bn_shift.astype(F32)[:, None]
        slopes = params.get("prelu.slope")
        self.slopes = None if slopes is None else np.asarray(slopes, dtype=F32)[:, None]

    def init_state(self) -> _ConvState:
        return _ConvState()

    def _check_channels(self, c: int) -> None:
        if c != self.c_in:
            raise ConfigurationError(f"input has {c} channels, block expects {self.c_in}")

    def _frames(self, frames: np.ndarray) -> np.ndarray:
        """(n + k_t - 1, C_in, F) float32 history and frames -> (n, C_out, F') float32."""
        if self.transposed:
            y = deconv_frame_taps(frames, self.w, len(self.b))
        else:
            y = conv_frame_taps(frames, self.w, FREQ_STRIDE, FREQ_PAD)
        y += self.b[:, None]
        y *= self.bn_scale
        y += self.bn_shift
        if self.slopes is None:
            return np.tanh(y, out=y)
        return np.where(y >= 0, y, self.slopes * y)

    def step(self, x: np.ndarray, state: _ConvState) -> np.ndarray:
        """(C_in, F, n) frames after the carried ones -> (C_out, F', n), in
        one kernel call on the n frames after the k_t - 1 before them, zeros
        before the first frame."""
        c, f_dim, n = x.shape
        self._check_channels(c)
        hist = self.k_t - 1
        frames = state.frames = with_history(state.frames, hist, n, (c, f_dim), F32)
        frames[hist:] = x.transpose(2, 0, 1)
        return self._frames(frames).transpose(1, 2, 0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Whole (C_in, F, T) map, zero history before frame 0."""
        return step_frames(self, np.asarray(x, dtype=F32), self.init_state())


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

class Model:
    """Immutable bundle of configuration and layer blocks; shareable across threads."""

    def __init__(self, config: ModelConfig, tensors: "OrderedDict[str, np.ndarray]"):
        layout = weight_layout(config)
        missing = [n for n in layout if n not in tensors]
        if missing:
            raise WeightError(f"missing tensor {missing[0]!r} "
                              f"({len(missing)} required tensors absent)")
        extra = [n for n in tensors if n not in layout]
        if extra:
            raise WeightError(f"unexpected tensor {extra[0]!r} "
                              f"({len(extra)} tensors not in the layout)")
        for name, shape in layout.items():
            got = tuple(tensors[name].shape)
            if got != shape:
                raise WeightError(f"tensor {name!r} has shape {got}, expected {shape}")
        self.config = config
        # each block from its own tensors; ``blocks`` lists them in plan order
        self.blocks = []
        groups = defaultdict(list)
        for prefix, block_layout, build in _block_plan(config):
            block = build({name: np.asarray(tensors[f"{prefix}.{name}"], dtype=F32)
                           for name in block_layout})
            self.blocks.append(block)
            groups[prefix.split(".")[0]].append(block)
        (self.fuse,) = groups["fuse"]
        self.enc, self.tfsm, self.skip, self.dec, self.dectfca = (
            groups[kind] for kind in ("enc", "tfsm", "skip", "dec", "dectfca"))

    # -- inference ---------------------------------------------------------------

    def walk(self, x: np.ndarray, run_block) -> np.ndarray:
        """Run the fused input through the network; returns the mask.

        ``run_block(block, x)`` runs one block on its (C, F, n) input: a
        stream steps each block over a group of up to 32 new frames with its
        carried state, before the next block runs, and the offline forward
        runs each over the whole map.
        Attention recalibrates the input, then come the encoder and the
        recurrent blocks; each decoder block takes the decoder stream
        concatenated with its attention-recalibrated encoder skip, and every
        decoder block but the last is followed by an attention block.
        """
        x = run_block(self.fuse, x)
        enc_outs = []
        for blk in self.enc:
            x = run_block(blk, x)
            enc_outs.append(x)
        for blk in self.tfsm:
            x = run_block(blk, x)
        n = len(self.dec)
        for j, blk in enumerate(self.dec):
            skip = run_block(self.skip[n - 1 - j], enc_outs[n - 1 - j])
            x = run_block(blk, np.concatenate([x, skip], axis=0))
            if j < n - 1:
                x = run_block(self.dectfca[j], x)
        return x[0]

    def forward(self, wave: np.ndarray, mode: str = "cumulative"):
        """Enhance a waveform; returns (enhanced, mask) with len(enhanced) == len(wave).

        ``mode`` picks the attention realization: ``cumulative`` (one push
        through a fresh stream) or ``offline``. A waveform holding NaN or
        infinity raises ``NonFiniteInputError``.
        """
        wave = stream.check_finite(wave)
        n_samples = len(wave)
        if n_samples < stdct.WINDOW_SIZE:
            raise SignalTooShortError(
                f"need at least {stdct.WINDOW_SIZE} samples, got {n_samples}")
        if mode not in MODES:
            raise ConfigurationError(f"unknown attention mode {mode!r}")
        if mode == "cumulative":
            # looked up on the module at call time, so that a stream_push
            # replaced there (as the benchmark's tracing does) is the one run
            state = stream.StreamState(self)
            head = stream.stream_push(state, self, wave)
            head_mask = state.last_mask
            tail = stream.stream_flush(state, self)
            return (np.concatenate([head, tail]),
                    np.concatenate([head_mask, state.last_mask], axis=1))
        stacked = ofif.ofif_stack_frames(stdct.frame_signal_full(wave))
        mask = self.walk(stacked, _run_offline)
        return stdct.istdct_ola(mask * stacked[0], n_samples), mask


def _run_offline(block, x: np.ndarray) -> np.ndarray:
    """One block over a whole (C, F, T) map, attention in its offline realization."""
    if isinstance(block, TfcaBlock):
        return block.forward(x, mode="offline")
    return block.forward(x)


# ---------------------------------------------------------------------------
# training-objective and evaluation functions
# ---------------------------------------------------------------------------

def target_mask(clean_spec: np.ndarray, noisy_spec: np.ndarray) -> np.ndarray:
    """Clamped ratio mask S*X / (X^2 + MASK_EPS) in [-1, 1], matching the Tanh range."""
    s64 = np.asarray(clean_spec, dtype=F64)
    x64 = np.asarray(noisy_spec, dtype=F64)
    if s64.shape != x64.shape:
        raise ConfigurationError(f"spectra shapes differ: {s64.shape} vs {x64.shape}")
    return np.clip(s64 * x64 / (x64 * x64 + MASK_EPS), -1.0, 1.0).astype(F32)


def loss_fn(est_wave, ref_wave, est_mask, ref_mask) -> float:
    """Mean absolute waveform error plus mean squared mask error (both means)."""
    e, r = np.asarray(est_wave, dtype=F64), np.asarray(ref_wave, dtype=F64)
    em, rm = np.asarray(est_mask, dtype=F64), np.asarray(ref_mask, dtype=F64)
    if e.shape != r.shape or em.shape != rm.shape:
        raise ConfigurationError("waveforms and masks must pair up shape for shape")
    return float(np.abs(e - r).mean() + ((em - rm) ** 2).mean())


def si_snr(est_wave, ref_wave) -> float:
    """Scale-invariant signal-to-noise ratio in dB, clipped to +-SI_SNR_CAP_DB (120).

    Both signals are zero-meaned; the estimate is projected onto the target
    direction, so rescaling the target leaves the value unchanged.
    """
    e = np.asarray(est_wave, dtype=F64).ravel()
    r = np.asarray(ref_wave, dtype=F64).ravel()
    if e.shape != r.shape:
        raise ConfigurationError(f"signal lengths differ: {e.shape[0]} vs {r.shape[0]}")
    e = e - e.mean()
    r = r - r.mean()
    ref_energy = float(r @ r)
    if ref_energy == 0.0:
        raise UndefinedMetricError("target signal has no energy after zero-meaning")
    proj = (float(e @ r) / ref_energy) * r
    noise = e - proj
    p_sig = float(proj @ proj)
    p_noise = float(noise @ noise)
    if p_noise == 0.0 or (p_noise > 0 and p_sig / p_noise >= 10.0 ** (SI_SNR_CAP_DB / 10.0)):
        return SI_SNR_CAP_DB
    if p_sig == 0.0 or p_sig / p_noise <= 10.0 ** (-SI_SNR_CAP_DB / 10.0):
        return -SI_SNR_CAP_DB
    return float(10.0 * math.log10(p_sig / p_noise))
