"""Per-layer instrumentation of the ofifnet package, from outside it.

``traced`` wraps the public entry points of each layer (module functions,
``Model`` construction and forward, ``StreamState`` construction, and the
``step``/``forward`` methods of every block of each model built while it is
active) so that each call records a span. ``held_memory`` wraps the stream
entry points with tracemalloc counters instead. Both restore everything on
exit and leave the package's source untouched.

``layer_metrics`` turns a list of spans into the per-layer figures.
"""

from __future__ import annotations

import contextlib
import tracemalloc
from collections import defaultdict
from unittest import mock

import numpy as np

from spans import Tracer, self_times

STREAM_SPANS = ("stream.push", "stream.flush")


def _blocks(model):
    """(layer name, block) for every block of a model, in graph order."""
    if model.fuse is not None:
        yield "tfca.fuse", model.fuse
    for i, b in enumerate(model.enc):
        yield f"model.enc.{i}", b
    for j, b in enumerate(model.tfsm):
        yield f"tfsm.{j}", b
    for i, b in enumerate(model.skip):
        yield f"tfca.skip.{i}", b
    for j, b in enumerate(model.dec):
        yield f"model.dec.{j}", b
    for j, b in enumerate(model.dectfca):
        yield f"tfca.dectfca.{j}", b


def block_names(model) -> list[str]:
    return [name for name, _ in _blocks(model)]


def _instrument_model(tracer: Tracer, model) -> None:
    def tfca_step(args, kwargs):
        state = args[1]
        return (tracer.serial(state), state.count)

    def tfca_forward(args, kwargs):
        mode = args[1] if len(args) > 1 else kwargs.get("mode", "cumulative")
        return (mode, int(np.shape(args[0])[2]))

    for name, blk in _blocks(model):
        attention = name.startswith("tfca.")
        blk.step = tracer.wrap(name + ".step", blk.step, tfca_step if attention else None)
        blk.forward = tracer.wrap(name + ".forward", blk.forward,
                                  tfca_forward if attention else None)


@contextlib.contextmanager
def traced(tracer: Tracer, of):
    """Record spans for every layer call while active. ``of`` holds the modules."""
    def frames_before(args, kwargs):
        return args[0].frame_index

    def stream_after(args, frames_before, result):
        return (args[0].frame_index - frames_before, len(result))

    model_cls = of.model.Model
    build = tracer.wrap("model.build", model_cls.__dict__["__init__"])

    def model_init(self, *args, **kwargs):
        build(self, *args, **kwargs)
        _instrument_model(tracer, self)

    state_cls = of.stream.StreamState
    read_weights = tracer.wrap("weights.read", of.weights.read_weights)
    patches = [
        (of.stream, "stream_push", tracer.wrap(
            "stream.push", of.stream.stream_push, frames_before, stream_after)),
        (of.stream, "stream_flush", tracer.wrap(
            "stream.flush", of.stream.stream_flush, frames_before, stream_after)),
        (state_cls, "__init__", tracer.wrap("stream.open", state_cls.__dict__["__init__"])),
        (of.weights, "read_weights", read_weights),
        (of.cli, "read_weights", read_weights),
        (of.cli, "read_wav", tracer.wrap("cli.read_wav", of.cli.read_wav)),
        (of.cli, "write_wav", tracer.wrap("cli.write_wav", of.cli.write_wav)),
        (of.stdct, "istdct_ola", tracer.wrap("stdct.istdct_ola", of.stdct.istdct_ola)),
        (of.ofif, "ofif_stack_frames", tracer.wrap("ofif.stack", of.ofif.ofif_stack_frames)),
        (model_cls, "__init__", model_init),
        (model_cls, "forward", tracer.wrap("model.forward", model_cls.__dict__["forward"])),
    ]
    with contextlib.ExitStack() as stack:
        for owner, attr, value in patches:
            stack.enter_context(mock.patch.object(owner, attr, value))
        yield tracer


class HeldBytes:
    """Bytes left allocated by stream opens and pushes, and samples pushed."""

    def __init__(self):
        self.bytes = 0
        self.samples = 0

    def mb_per_audio_s(self, rate: int) -> float:
        return self.bytes / 2 ** 20 / (self.samples / rate)


@contextlib.contextmanager
def held_memory(of):
    """Count tracemalloc growth across every ``StreamState()`` and ``stream_push``.

    Each call's growth is measured around that call alone, so streams stepped
    in turn do not charge their growth to each other.
    """
    held = HeldBytes()

    def counted(fn, count_samples):
        def wrapper(*args, **kwargs):
            before = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            held.bytes += tracemalloc.get_traced_memory()[0] - before
            if count_samples:
                held.samples += int(np.size(args[2]))
            return result
        return wrapper

    state_cls = of.stream.StreamState
    tracemalloc.start()
    try:
        with mock.patch.object(of.stream, "stream_push", counted(of.stream.stream_push, True)), \
                mock.patch.object(state_cls, "__init__",
                                  counted(state_cls.__dict__["__init__"], False)):
            yield held
    finally:
        tracemalloc.stop()


def _mean_ms(durations) -> float:
    if not durations:
        raise ValueError("no calls recorded")
    return 1e3 * sum(durations) / len(durations)


def layer_metrics(spans, blocks: list[str]) -> tuple[dict[str, float], float]:
    """Per-layer figures from one traced run, and the share of stream time accounted.

    Block ``ms_per_frame`` figures count only ``step`` calls made directly
    inside a stream push or flush, so stream self time plus every block's
    total equals the total stream time; the returned share is that sum over
    the stream total and should be 1.
    """
    selfs = self_times(spans)
    dur = [s[2] - s[1] for s in spans]
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    stream_idx = [i for name in STREAM_SPANS for i in by_name[name]]
    frames = sum(spans[i][4][0] for i in stream_idx)
    stream_total = sum(dur[i] for i in stream_idx)
    stream_self = sum(selfs[i] for i in stream_idx)
    in_stream = set(stream_idx)

    m: dict[str, float] = {
        "stream.self_ms_per_frame": 1e3 * stream_self / frames,
        "stream.frames": frames,
        "stream.pushes": len(by_name["stream.push"]),
        "stream.samples_out": sum(spans[i][4][1] for i in stream_idx),
        "stream.open_ms": _mean_ms([dur[i] for i in by_name["stream.open"]]),
    }

    block_total = 0.0
    for block in blocks:
        steps = [i for i in by_name[block + ".step"] if spans[i][3] in in_stream]
        if len(steps) != frames:
            raise ValueError(f"{block} stepped {len(steps)} times in {frames} stream frames")
        total = sum(dur[i] for i in steps)
        block_total += total
        m[block + ".ms_per_frame"] = 1e3 * total / len(steps)

    # attention cost by stream age: bucket each step by its frame index
    # against the final length of the stream it belongs to
    attention = [b for b in blocks if b.startswith("tfca.")]
    steps = [i for b in attention for i in by_name[b + ".step"] if spans[i][3] in in_stream]
    length = defaultdict(int)
    for i in steps:
        serial, t = spans[i][4]
        length[serial] = max(length[serial], t + 1)
    for label, lo, hi in (("q1", 0.0, 0.25), ("q4", 0.75, 1.0)):
        picked = [i for i in steps if lo <= spans[i][4][1] / length[spans[i][4][0]] < hi]
        m[f"tfca.ms_per_frame.{label}"] = (
            1e3 * sum(dur[i] for i in picked) / (len(picked) / len(attention)))

    offline = [i for b in attention for i in by_name[b + ".forward"]
               if spans[i][4][0] == "offline"]
    offline_frames = sum(spans[i][4][1] for i in offline) / len(attention)
    m["tfca.offline_ms_per_frame"] = 1e3 * sum(dur[i] for i in offline) / offline_frames

    for metric, name in (("model.build_ms", "model.build"),
                         ("model.forward_ms", "model.forward"),
                         ("stdct.istdct_ola_ms", "stdct.istdct_ola"),
                         ("ofif.stack_ms", "ofif.stack"),
                         ("weights.read_ms", "weights.read"),
                         ("cli.read_wav_ms", "cli.read_wav"),
                         ("cli.write_wav_ms", "cli.write_wav")):
        m[metric] = _mean_ms([dur[i] for i in by_name[name]])

    return m, (stream_self + block_total) / stream_total
