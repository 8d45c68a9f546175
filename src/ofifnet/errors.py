"""Exception types shared across the package."""


class EngineError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(EngineError, ValueError):
    """Invalid layer/model configuration, or inputs whose shapes cannot work."""


class WeightError(EngineError, ValueError):
    """Weight container problem: missing, extra, mis-shaped, or invalid tensors."""


class SignalTooShortError(EngineError, ValueError):
    """Input signal shorter than one analysis window."""


class NonFiniteInputError(EngineError, ValueError):
    """Input samples include NaN or infinity; nothing was consumed."""


class StreamClosedError(EngineError, RuntimeError):
    """Push or flush attempted on a stream that has already been flushed."""


class UndefinedMetricError(EngineError, ValueError):
    """Metric is mathematically undefined for the given inputs."""


class WavFormatError(EngineError, ValueError):
    """WAV file violates the accepted format (mono, 16 kHz, PCM16 or float32)."""
