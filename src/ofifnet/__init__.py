"""Causal speech enhancement engine with a bit-exact streaming harness.

Analysis and synthesis use a 512-point orthonormal cosine transform over
Hamming-windowed 32 ms frames hopped every 8 ms; the network input fuses the
current frame with three pseudo future frames built from the overlap the
framing already paid for. Enhancement runs offline or chunk by chunk with
carried state, and the two paths agree bit for bit.
"""

from .errors import (
    ConfigurationError,
    EngineError,
    NonFiniteInputError,
    SignalTooShortError,
    StreamClosedError,
    UndefinedMetricError,
    WavFormatError,
    WeightError,
)
from .model import (
    Model,
    ModelConfig,
    DEFAULT_CONFIG,
    init_weights,
    loss_fn,
    param_breakdown,
    param_count_of,
    si_snr,
    target_mask,
    weight_layout,
)
from .ofif import make_pseudo_frames

# the analysis transform itself stays at ofifnet.stdct.stdct so the module
# name keeps pointing at the module
from .stdct import (
    ALGORITHMIC_DELAY,
    DCT_SIZE,
    HOP_SIZE,
    SAMPLE_RATE,
    WINDOW_SIZE,
    frame_signal,
    istdct_ola,
)
from .stream import (
    CausalityReport,
    StreamState,
    stream_flush,
    stream_push,
    verify_causality,
)
from .weights import read_weights, write_weights

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMIC_DELAY", "CausalityReport", "ConfigurationError", "DCT_SIZE",
    "EngineError", "HOP_SIZE", "Model", "ModelConfig",
    "DEFAULT_CONFIG", "NonFiniteInputError", "SAMPLE_RATE", "SignalTooShortError",
    "StreamClosedError", "StreamState", "UndefinedMetricError", "WINDOW_SIZE", "WavFormatError",
    "WeightError", "frame_signal", "init_weights", "istdct_ola",
    "loss_fn", "make_pseudo_frames", "param_breakdown", "param_count_of", "read_weights",
    "si_snr", "stream_flush", "stream_push", "target_mask", "verify_causality",
    "weight_layout", "write_weights",
]
