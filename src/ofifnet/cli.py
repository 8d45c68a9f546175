"""Command-line surface: WAV I/O, enhancement, streaming, verification, tooling.

Commands are deterministic given identical inputs, flags, and seeds. Every
error path exits nonzero with a single machine-parsable line on stderr of the
form ``ERR:<code>:<message>``; exit status 2 marks usage/input problems and 3
marks weight or configuration problems. The ``OFIF_LOG`` environment variable
(quiet|info|trace) controls log verbosity on stderr.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import struct
import sys
import time

import numpy as np

from . import stdct
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
)
from .stream import check_finite, run_stream, verify_causality
from .tfca import MODES
from .weights import read_weights, write_weights

log = logging.getLogger("ofifnet.cli")

F32 = np.float32


class UsageError(EngineError, ValueError):
    """Bad flags or flag values."""


# ---------------------------------------------------------------------------
# WAV I/O (mono, 16 kHz; 16-bit PCM or 32-bit IEEE float)
# ---------------------------------------------------------------------------

_FMT_PCM = 1
_FMT_FLOAT = 3


def read_wav(path) -> np.ndarray:
    """Read an accepted WAV file into float32 samples in [-1, 1]-ish range."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    payload = None
    while pos + 8 <= len(data):
        cid = data[pos:pos + 4]
        (size,) = struct.unpack("<I", data[pos + 4:pos + 8])
        body = data[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            if len(body) < 16:
                raise WavFormatError(f"{path}: fmt chunk truncated")
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif cid == b"data":
            if len(body) < size:
                raise WavFormatError(f"{path}: data chunk declares {size} bytes but the file "
                                     f"holds only {len(body)} of them")
            payload = body
        pos += 8 + size + (size & 1)
    if fmt is None or payload is None:
        raise WavFormatError(f"{path}: missing fmt or data chunk")
    audio_format, channels, rate, _, _, bits = fmt
    if channels != 1:
        raise WavFormatError(f"{path}: {channels} channels; only mono input is accepted")
    if rate != stdct.SAMPLE_RATE:
        raise WavFormatError(f"{path}: sample rate {rate}; only {stdct.SAMPLE_RATE} Hz is accepted")
    if audio_format == _FMT_PCM and bits == 16:
        dtype = "<i2"
    elif audio_format == _FMT_FLOAT and bits == 32:
        dtype = "<f4"
    else:
        raise WavFormatError(
            f"{path}: format tag {audio_format} with {bits} bits; accepted encodings are "
            "16-bit PCM and 32-bit IEEE float")
    width = bits // 8
    if len(payload) % width:
        raise WavFormatError(f"{path}: data chunk of {len(payload)} bytes is not a whole "
                             f"number of {width}-byte samples")
    samples = np.frombuffer(payload, dtype=dtype).astype(F32)
    return (samples / 32768.0).astype(F32) if dtype == "<i2" else samples


def write_wav(path, samples: np.ndarray) -> None:
    """Write mono 16 kHz 32-bit float WAV (float keeps bit-exact comparisons honest)."""
    samples = np.asarray(samples, dtype="<f4").ravel()
    payload = samples.tobytes()
    fmt = struct.pack("<HHIIHHH", _FMT_FLOAT, 1, stdct.SAMPLE_RATE,
                      stdct.SAMPLE_RATE * 4, 4, 32, 0)
    fact = struct.pack("<I", len(samples))
    riff_size = 4 + (8 + len(fmt)) + (8 + len(fact)) + (8 + len(payload))
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", riff_size) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<I", len(fmt)) + fmt)
        fh.write(b"fact" + struct.pack("<I", len(fact)) + fact)
        fh.write(b"data" + struct.pack("<I", len(payload)) + payload)


# ---------------------------------------------------------------------------
# shared loaders
# ---------------------------------------------------------------------------

def _load_config(path) -> ModelConfig:
    if path is None:
        return DEFAULT_CONFIG
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return ModelConfig.from_json(fh.read())
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc.strerror}") from exc


def _load_model(weights_path, config_path) -> Model:
    config = _load_config(config_path)
    try:
        tensors = read_weights(weights_path)
    except OSError as exc:
        raise WeightError(f"cannot read weights {weights_path}: {exc.strerror}") from exc
    return Model(config, tensors)


def _mask_stats(mask: np.ndarray) -> str:
    return (f"mask: shape=({mask.shape[0]}x{mask.shape[1]}) min={mask.min():+.4f} "
            f"max={mask.max():+.4f} mean_abs={np.abs(mask).mean():.4f}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_enhance(args) -> int:
    model = _load_model(args.weights, args.config)
    wave = read_wav(getattr(args, "in"))
    t0 = time.perf_counter()
    enhanced, mask = model.forward(wave, mode=args.mode)
    elapsed = time.perf_counter() - t0
    write_wav(args.out, enhanced)
    print(_mask_stats(mask))
    print(f"elapsed: {elapsed:.3f} s")
    print(f"wrote {args.out} ({len(enhanced)} samples)")
    return 0


def cmd_stream(args) -> int:
    if not (math.isfinite(args.chunk_ms) and args.chunk_ms > 0):
        raise UsageError("--chunk-ms must be a positive, finite number of milliseconds")
    samples = args.chunk_ms * stdct.SAMPLE_RATE / 1000.0
    if not math.isfinite(samples):
        raise UsageError(f"--chunk-ms {args.chunk_ms} is too large")
    chunk = int(round(samples))
    if chunk < 1:
        raise UsageError(f"--chunk-ms {args.chunk_ms} is below one sample")
    model = _load_model(args.weights, args.config)
    wave = read_wav(getattr(args, "in"))
    t0 = time.perf_counter()
    enhanced, state = run_stream(model, wave, chunk)
    elapsed = time.perf_counter() - t0
    if args.report_latency and state.first_emission_consumed is None:
        raise SignalTooShortError("no steady-state emissions; feed at least one window")
    write_wav(args.out, enhanced)
    print(f"streamed {len(wave)} samples in {chunk}-sample chunks ({elapsed:.3f} s)")
    if args.report_latency:
        delay_ms = 1000.0 * stdct.ALGORITHMIC_DELAY / stdct.SAMPLE_RATE
        latency_ms = 1000.0 * state.max_latency / stdct.SAMPLE_RATE
        print(f"algorithmic delay: {delay_ms:.1f} ms")
        print(f"measured latency: {latency_ms:.1f} ms ({state.max_latency} samples)")
    print(f"wrote {args.out} ({len(enhanced)} samples)")
    return 0


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    # each trial splits the signal at a sample in [W, length - H)
    min_length = stdct.WINDOW_SIZE + stdct.HOP_SIZE + 1
    if args.length < min_length:
        raise UsageError(f"--length must be at least {min_length} samples")
    if args.weights is not None:
        model = _load_model(args.weights, args.config)
    else:
        config = _load_config(args.config)
        model = Model(config, init_weights(config, args.random_seed))
    rng = np.random.default_rng(args.random_seed)
    failures = 0
    for i in range(args.trials):
        split = int(rng.integers(stdct.WINDOW_SIZE, args.length - stdct.HOP_SIZE))
        report = verify_causality(model, seed=args.random_seed + 1000 + i,
                                  split_sample=split, num_samples=args.length,
                                  mode=args.mode)
        if not report.passed:
            failures += 1
            print(f"trial {i}: {report.describe()}")
        elif args.verbose:
            print(f"trial {i}: {report.describe()}")
    verdict = "all passed" if failures == 0 else f"{failures} of {args.trials} failed"
    print(f"causality: {verdict} (mode={args.mode}, "
          f"trials={args.trials}, length={args.length})")
    return 0 if failures == 0 else 1


def cmd_weights(args) -> int:
    if args.weights_cmd == "init":
        config = _load_config(args.config)
        tensors = init_weights(config, args.seed)
        write_weights(args.out, tensors)
        print(f"wrote {args.out}: {len(tensors)} tensors, "
              f"{param_count_of(tensors)} parameters (seed {args.seed})")
        if args.config_out:
            with open(args.config_out, "w", encoding="utf-8") as fh:
                fh.write(config.to_json() + "\n")
            print(f"wrote {args.config_out}")
        return 0
    try:
        tensors = read_weights(args.path)
    except OSError as exc:
        raise WeightError(f"cannot read weights {args.path}: {exc.strerror}") from exc
    if args.weights_cmd == "inspect":
        for name, arr in tensors.items():
            dims = "x".join(str(d) for d in arr.shape)
            print(f"{name}  ({dims})  {arr.size}")
        print(f"total: {len(tensors)} tensors, {sum(a.size for a in tensors.values())} values")
        return 0
    # param-count
    total = param_count_of(tensors)
    print(f"total parameters: {total} ({total / 1e6:.3f} M)")
    groups: dict[str, int] = {}
    for key, count in param_breakdown(tensors).items():
        top = key.split(".")[0]
        groups[top] = groups.get(top, 0) + count
        print(f"  {key}: {count}")
    for top, count in groups.items():
        print(f"module {top}: {count} ({count / 1e6:.3f} M)")
    return 0


def cmd_metrics(args) -> int:
    est = read_wav(args.est)
    ref = read_wav(args.ref)
    for path, wave in ((args.est, est), (args.ref, ref)):
        try:
            check_finite(wave)
        except NonFiniteInputError as exc:
            raise NonFiniteInputError(f"{path}: {exc}") from None
    if len(est) != len(ref):
        raise UndefinedMetricError(
            f"length mismatch: {args.est} has {len(est)} samples, {args.ref} has {len(ref)}")
    value = si_snr(est, ref)
    # the reference spectrum stands in for the unavailable mixture when
    # turning the two files into comparable ratio masks
    ref_spec = stdct.stdct(ref)
    est_mask = target_mask(stdct.stdct(est), ref_spec)
    ref_mask = target_mask(ref_spec, ref_spec)
    l1 = float(np.abs(est.astype(np.float64) - ref.astype(np.float64)).mean())
    mask_mse = float(((est_mask.astype(np.float64) - ref_mask.astype(np.float64)) ** 2).mean())
    print(f"si-snr: {value:.4f} dB")
    print(f"l1: {l1:.6g}")
    print(f"mask-mse: {mask_mse:.6g}")
    print(f"loss: {loss_fn(est, ref, est_mask, ref_mask):.6g}")
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def non_negative_int(text: str) -> int:
    """Type of the seed flags: numpy's generators take non-negative integers only."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="ofifnet", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("enhance", help="offline enhancement of one WAV file")
    pe.add_argument("--in", required=True, help="input WAV (mono, 16 kHz)")
    pe.add_argument("--out", required=True, help="output WAV (32-bit float)")
    pe.add_argument("--weights", required=True)
    pe.add_argument("--config", default=None, help="JSON config sidecar (default: built-in)")
    pe.add_argument("--mode", choices=MODES, default="cumulative",
                    help="attention realization (default: cumulative, the one a stream runs)")
    pe.set_defaults(func=cmd_enhance)

    ps = sub.add_parser("stream", help="chunked streaming enhancement")
    ps.add_argument("--in", required=True)
    ps.add_argument("--out", required=True)
    ps.add_argument("--weights", required=True)
    ps.add_argument("--config", default=None)
    ps.add_argument("--chunk-ms", type=float, required=True)
    ps.add_argument("--report-latency", action="store_true")
    ps.set_defaults(func=cmd_stream)

    pv = sub.add_parser("verify", help="causality and delay verification trials")
    pv.add_argument("--weights", default=None)
    pv.add_argument("--config", default=None)
    pv.add_argument("--random-seed", type=non_negative_int, default=0,
                    help="seed for trials, and for weights when --weights is omitted")
    pv.add_argument("--trials", type=int, required=True)
    pv.add_argument("--mode", choices=MODES, default="cumulative")
    pv.add_argument("--length", type=int, default=13184)
    pv.add_argument("--verbose", action="store_true")
    pv.set_defaults(func=cmd_verify)

    pw = sub.add_parser("weights", help="weight-file tooling")
    wsub = pw.add_subparsers(dest="weights_cmd", required=True)
    wi = wsub.add_parser("init", help="write seeded random weights")
    wi.add_argument("--seed", type=non_negative_int, required=True)
    wi.add_argument("--out", required=True)
    wi.add_argument("--config", default=None)
    wi.add_argument("--config-out", default=None)
    wn = wsub.add_parser("inspect", help="list tensors and shapes")
    wn.add_argument("path")
    wp = wsub.add_parser("param-count", help="count parameters with per-module breakdown")
    wp.add_argument("path")
    pw.set_defaults(func=cmd_weights)

    pm = sub.add_parser("metrics", help="signal metrics between two WAV files")
    pm.add_argument("--est", required=True)
    pm.add_argument("--ref", required=True)
    pm.set_defaults(func=cmd_metrics)
    return p


_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "trace": logging.DEBUG}


def _setup_logging() -> None:
    level = os.environ.get("OFIF_LOG", "quiet").lower()
    if level not in _LOG_LEVELS:
        level = "quiet"
    logging.basicConfig(stream=sys.stderr, level=_LOG_LEVELS[level],
                        format="%(name)s %(levelname)s %(message)s")


_ERROR_CODES = (
    (UsageError, "usage", 2),
    (WavFormatError, "wav", 2),
    (SignalTooShortError, "input", 2),
    (NonFiniteInputError, "input", 2),
    (UndefinedMetricError, "metric", 2),
    (StreamClosedError, "stream", 2),
    (WeightError, "weights", 3),
    (ConfigurationError, "config", 3),
)


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()          # a closed pipe surfaces here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader of standard output left early (``| head``), which is not
        # an error; what is still buffered goes to the null device instead
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except tuple(e for e, _, _ in _ERROR_CODES) as exc:
        for etype, code, status in _ERROR_CODES:
            if isinstance(exc, etype):
                print(f"ERR:{code}:{exc}", file=sys.stderr)
                return status
        raise AssertionError("unreachable")
    except FileNotFoundError as exc:
        print(f"ERR:input:{exc.filename}: file not found", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ERR:input:{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
