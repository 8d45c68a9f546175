"""The three workloads, their output checks, and one benchmark run.

Load is a closed loop from one thread: each push or call starts when the
previous one has returned. Every run attempts whole rounds of the same
operations; a stream, file or probe is one operation and fails when it raises
or any check on its output fails. A round is short enough that several fit in
a run of the declared length.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import time
import types
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ofifnet import cli, ofif, stdct
from ofifnet import model as M
from ofifnet import stream as S
from ofifnet import weights as W
from ofifnet.errors import EngineError

import checks
import layers
import signals
from spans import Tracer

RATE = stdct.SAMPLE_RATE
HOP = stdct.HOP_SIZE
WINDOW = stdct.WINDOW_SIZE
CONFIG = M.DEFAULT_CONFIG
MODULES = types.SimpleNamespace(cli=cli, model=M, ofif=ofif, stdct=stdct, stream=S, weights=W)

WEIGHT_SEED = 7
SETUP_REPEATS = 6             # before the rounds, and again after each round
STRETCH_PUSHES = 128          # rtf is a median over stretches of this many pushes
LEVELS_DBFS = (-40.0, -30.0, -20.0, -12.0)
# The bit-identity reference is one push of this many samples, the stream
# under test 128-sample pushes; not hop-aligned on purpose.
PREFIX_LEN = 4000
OFFLINE_SLICE = 8192           # samples of the first stream enhanced offline
ORACLE_LEN = 4800
ORACLE_MASK = 0.625
PROBE_SEED = 20250101          # the NaN probe's input is the same for every --seed
PROBE_PUSHES = 16
PROBE_BAD_PUSH = 6

E2E_UNITS = OrderedDict([
    ("setup_s", "s"), ("rtf", "s/s"), ("offline_rtf", "s/s"), ("push_ms.p50", "ms"),
    ("push_ms.p90", "ms"), ("late_push_ms.p50", "ms"), ("peak_rss_mb", "MB"),
])


def layer_units(blocks) -> "OrderedDict[str, str]":
    units = OrderedDict([
        ("stream.self_ms_per_frame", "ms"), ("stream.frames", "count"),
        ("stream.pushes", "count"), ("stream.samples_out", "count"),
        ("stream.open_ms", "ms"), ("stream.held_mb_per_audio_s", "MB/s")])
    for b in blocks:
        units[b + ".ms_per_frame"] = "ms"
    units.update([
        ("tfca.ms_per_frame.q1", "ms"), ("tfca.ms_per_frame.q4", "ms"),
        ("tfca.offline_ms_per_frame", "ms"), ("model.build_ms", "ms"),
        ("model.forward_ms", "ms"), ("stdct.istdct_ola_ms", "ms"), ("ofif.stack_ms", "ms"),
        ("weights.read_ms", "ms"), ("cli.read_wav_ms", "ms"), ("cli.write_wav_ms", "ms"),
        ("trace.overhead_pct", "%")])
    return units


def workload_rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, purpose])


@dataclass
class Op:
    name: str
    error: str | None = None
    digest: str | None = None
    known_fault: bool = False
    output: np.ndarray | None = field(default=None, repr=False)


@dataclass
class Timings:
    """Wall times of one or more rounds.

    ``online`` and ``offline`` hold (wall seconds, audio seconds) pairs: for
    streams one pair per stretch of ``STRETCH_PUSHES`` pushes in the order
    they were issued, flushes included; for whole-file calls one per call.
    ``push_ms`` holds one list of push times per stretch (for whole-file
    calls, one list per round of call times per 128 samples). The real-time
    factors and the tail are medians over stretches, so a burst of load from
    outside the process moves one stretch, not the figure.
    """
    push_ms: list = field(default_factory=list)
    late_push_ms: list = field(default_factory=list)
    online: list = field(default_factory=list)
    offline: list = field(default_factory=list)

    def rtf(self) -> float:
        return statistics.median(wall / audio for wall, audio in self.online)

    def metrics(self) -> dict:
        return {"rtf": self.rtf(),
                "offline_rtf": statistics.median(wall / audio for wall, audio in self.offline),
                "push_ms.p50": statistics.median(t for g in self.push_ms for t in g),
                "push_ms.p90": statistics.median(float(np.percentile(g, 90))
                                                 for g in self.push_ms if g),
                "late_push_ms.p50": statistics.median(self.late_push_ms)}


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class Env:
    """Scratch directory and weight files of one run, inside the checkout."""

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.workdir = root / ".perfbench" / f"run-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        tensors = M.init_weights(CONFIG, WEIGHT_SEED)
        self.weights_path = self.path("weights.ofn")
        W.write_weights(self.weights_path, tensors)
        # zero the last decoder conv and set its batch-norm shift to atanh(c):
        # the Tanh mask is then the constant c whatever the network computes
        last = f"dec.{len(CONFIG.decoder_channels) - 1}"
        tensors[last + ".conv.w"] = np.zeros_like(tensors[last + ".conv.w"])
        tensors[last + ".conv.b"] = np.zeros_like(tensors[last + ".conv.b"])
        tensors[last + ".bn.beta"] = np.full_like(tensors[last + ".bn.beta"],
                                                  np.arctanh(ORACLE_MASK))
        self.oracle_path = self.path("oracle.ofn")
        W.write_weights(self.oracle_path, tensors)

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def enhance_cli(args: list[str]) -> int:
    """``ofifnet enhance`` in-process; its report lines are discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["enhance", *args])


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def stream_ops(model, inputs, timings: Timings, between_stretches) -> list[Op]:
    """Step every stream one 8 ms push at a time, in turn; flush each at its end.

    ``between_stretches()`` is called after each full stretch, outside the
    timed pushes.
    """
    n_push = [len(x) // HOP for x in inputs]
    late_from = [math.ceil(0.75 * n) for n in n_push]
    states = [S.StreamState(model) for _ in inputs]
    parts: list[list] = [[] for _ in inputs]
    returned: list[list] = [[] for _ in inputs]
    errors: list = [None] * len(inputs)
    stretch_s, stretch_pushes, stretch_ms = 0.0, 0, []
    for i in range(max(n_push)):
        for s, x in enumerate(inputs):
            if i >= n_push[s] or errors[s]:
                continue
            tail = None
            try:
                t0 = time.perf_counter()
                y = S.stream_push(states[s], model, x[i * HOP:(i + 1) * HOP])
                t1 = time.perf_counter()
                if i == n_push[s] - 1:
                    tail = S.stream_flush(states[s], model)
                t2 = time.perf_counter()
            except Exception as exc:  # a raising push fails its stream, not the run
                errors[s] = f"push {i}: {_describe(exc)}"
                continue
            stretch_s += t2 - t0
            stretch_pushes += 1
            if len(y):
                stretch_ms.append(1e3 * (t1 - t0))
                if i >= late_from[s]:
                    timings.late_push_ms.append(1e3 * (t1 - t0))
            parts[s].append(y)
            returned[s].append(len(y))
            if tail is not None:
                parts[s].append(tail)
            if stretch_pushes == STRETCH_PUSHES:
                timings.online.append((stretch_s, stretch_pushes * HOP / RATE))
                timings.push_ms.append(stretch_ms)
                stretch_s, stretch_pushes, stretch_ms = 0.0, 0, []
                between_stretches()
    if stretch_pushes:
        timings.online.append((stretch_s, stretch_pushes * HOP / RATE))
        timings.push_ms.append(stretch_ms)
    ops = []
    for s, x in enumerate(inputs):
        op = Op(f"stream.{s}", errors[s])
        if op.error is None:
            out = np.concatenate(parts[s])
            op.error = (checks.emission_schedule([HOP] * n_push[s], returned[s], WINDOW, HOP)
                        or checks.length_and_finite(out, len(x)))
            op.digest = checks.digest(out)
            op.output = out
        ops.append(op)
    return ops


def prefix_check(model, x: np.ndarray, out: np.ndarray) -> str | None:
    """Stream output starts with ``Model.forward`` of a prefix, bit for bit."""
    try:
        ref, _ = model.forward(x[:PREFIX_LEN])
    except Exception as exc:
        return f"reference forward: {_describe(exc)}"
    return checks.prefix_identical(out, ref, PREFIX_LEN - WINDOW)


def offline_op(model, x: np.ndarray, timings: Timings, name: str) -> Op:
    x = x[:OFFLINE_SLICE]
    op = Op(name)
    try:
        t0 = time.perf_counter()
        y, _ = model.forward(x, mode="offline")
        timings.offline.append((time.perf_counter() - t0, len(x) / RATE))
    except Exception as exc:
        op.error = _describe(exc)
        return op
    op.error = checks.length_and_finite(y, len(x))
    op.digest = checks.digest(y)
    return op


def nan_probe(model) -> Op:
    """A push holding a NaN must raise, and leave the stream as if never made."""
    op = Op("nan-probe", known_fault=True)
    x = signals.harmonic_noise(np.random.default_rng(PROBE_SEED), PROBE_PUSHES * HOP, -20.0)
    chunks = [x[i * HOP:(i + 1) * HOP] for i in range(PROBE_PUSHES)]
    poisoned = chunks[PROBE_BAD_PUSH].copy()
    poisoned[5] = np.nan
    try:
        state = S.StreamState(model)
        got = []
        for i, chunk in enumerate(chunks):
            if i == PROBE_BAD_PUSH:
                try:
                    S.stream_push(state, model, poisoned)
                except EngineError:
                    continue
                op.error = ("stream_push accepted a NaN sample without raising EngineError; "
                            "the stream's later output is poisoned")
                return op
            got.append(S.stream_push(state, model, chunk))
        got.append(S.stream_flush(state, model))
        state = S.StreamState(model)
        ref = [S.stream_push(state, model, c) for i, c in enumerate(chunks) if i != PROBE_BAD_PUSH]
        ref.append(S.stream_flush(state, model))
    except Exception as exc:
        op.error = _describe(exc)
        return op
    got, ref = np.concatenate(got), np.concatenate(ref)
    op.error = (checks.length_and_finite(got, len(ref))
                or checks.prefix_identical(got, ref, len(ref)))
    return op


def oracle_input(seed: int) -> np.ndarray:
    return signals.harmonic_noise(workload_rng(seed, 99), ORACLE_LEN, -20.0)


def oracle_checks(env: Env) -> list[str]:
    """Constant-mask oracle: 8 ms pushes, one whole-file push, and ``--mode offline``."""
    x = oracle_input(env.seed)
    problems = []

    def hop_pushes(model):
        state = S.StreamState(model)
        parts = [S.stream_push(state, model, x[i:i + HOP]) for i in range(0, len(x), HOP)]
        return np.concatenate(parts + [S.stream_flush(state, model)])

    def one_push(model):
        state = S.StreamState(model)
        return np.concatenate([S.stream_push(state, model, x), S.stream_flush(state, model)])

    def offline_cli(model):
        src, dst = env.path("oracle-in.wav"), env.path("oracle-out.wav")
        cli.write_wav(src, x)
        rc = enhance_cli(["--in", src, "--out", dst, "--weights", env.oracle_path,
                          "--mode", "offline"])
        if rc:
            raise RuntimeError(f"ofifnet enhance exited {rc}")
        return cli.read_wav(dst)

    try:
        model = M.Model(CONFIG, W.read_weights(env.oracle_path))
    except Exception as exc:
        return [f"constant-mask oracle: building the model: {_describe(exc)}"]
    for label, run in (("8 ms pushes", hop_pushes), ("one push", one_push),
                       ("--mode offline", offline_cli)):
        try:
            problem = checks.constant_mask(run(model), x, ORACLE_MASK)
        except Exception as exc:
            problem = _describe(exc)
        if problem:
            problems.append(f"constant-mask oracle, {label}: {problem}")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class StreamingWorkload:
    """Streams of 8 ms pushes, plus offline enhancements of the first stream's head."""
    pushes: tuple[int, ...] = ()
    purpose = 0

    def __init__(self, env: Env):
        rng = workload_rng(env.seed, self.purpose)
        self.inputs = [signals.harmonic_noise(rng, n * HOP, level)
                       for n, level in zip(self.pushes, LEVELS_DBFS)]
        self.n_states = len(self.inputs)

    def probes(self, model) -> list[Op]:
        """Untimed operations run after each round, outside any trace."""
        return []

    def round(self, model, timings: Timings, first: bool) -> list[Op]:
        # The host's speed drifts over tens of seconds; offline calls spread
        # through the round sample the same stretch of time as the pushes.
        offline = []

        def offline_call():
            offline.append(offline_op(model, self.inputs[0], timings, f"offline.{len(offline)}"))

        ops = stream_ops(model, self.inputs, timings, offline_call)
        if first:
            for op, x in zip(ops, self.inputs):
                if op.error is None:
                    op.error = prefix_check(model, x, op.output)
        return ops + offline


class LiveStreams(StreamingWorkload):
    pushes = (136, 144, 152, 160)      # 1.1 to 1.3 s each
    purpose = 1

    def probes(self, model):
        return [nan_probe(model)]


class LongStream(StreamingWorkload):
    pushes = (576,)                    # 4.6 s, 3.6 times the longest live stream
    purpose = 2


class EnhanceFile:
    """``ofifnet enhance`` on WAV files of mixed lengths, cumulative then offline."""
    samples = (4400, 7200, 10400, 14000)   # 0.28 to 0.88 s, none hop-aligned
    n_states = 0

    def __init__(self, env: Env):
        rng = workload_rng(env.seed, 3)
        self.env = env
        self.files = []
        for k, (n, level) in enumerate(zip(self.samples, LEVELS_DBFS)):
            x = signals.harmonic_noise(rng, n, level)
            path = env.path(f"in-{k}.wav")
            cli.write_wav(path, x)
            self.files.append((path, x))

    def round(self, model, timings: Timings, first: bool) -> list[Op]:
        ops, per_hop_ms = [], []
        longest = max(len(x) for _, x in self.files)
        for k, (path, x) in enumerate(self.files):
            for mode in ("cumulative", "offline"):
                op = Op(f"file.{k}.{mode}")
                ops.append(op)
                dst = self.env.path(f"out-{k}-{mode}.wav")
                args = ["--in", path, "--out", dst, "--weights", self.env.weights_path]
                if mode == "offline":
                    args += ["--mode", "offline"]
                try:
                    t0 = time.perf_counter()
                    rc = enhance_cli(args)
                    dt = time.perf_counter() - t0
                    y = cli.read_wav(dst) if rc == 0 else None
                except Exception as exc:
                    op.error = _describe(exc)
                    continue
                if rc:
                    op.error = f"ofifnet enhance exited {rc}"
                    continue
                if mode == "offline":
                    timings.offline.append((dt, len(x) / RATE))
                else:
                    timings.online.append((dt, len(x) / RATE))
                    per_hop = 1e3 * dt / (len(x) / HOP)
                    per_hop_ms.append(per_hop)
                    if len(x) == longest:
                        timings.late_push_ms.append(per_hop)
                op.error = checks.length_and_finite(y, len(x))
                op.digest = checks.digest(y)
                if first and mode == "cumulative" and op.error is None:
                    op.error = prefix_check(model, x, y)
        timings.push_ms.append(per_hop_ms)
        return ops

    def probes(self, model) -> list[Op]:
        return []


WORKLOADS = {"live-streams": LiveStreams, "long-stream": LongStream, "enhance-file": EnhanceFile}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def measure_setup(env: Env, n_states: int, repeats: int):
    """Times of read_weights + Model (+ one StreamState per stream), and the last model."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        model = M.Model(CONFIG, W.read_weights(env.weights_path))
        for _ in range(n_states):
            S.StreamState(model)
        times.append(time.perf_counter() - t0)
    return times, model


def source_fingerprint(root: Path) -> str:
    """Hash of the engine's and the benchmark's sources and the numpy version."""
    h = hashlib.sha256(np.__version__.encode())
    for path in sorted([*(root / "src" / "ofifnet").glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Ledger:
    """Counts operations and checks that equal work gives equal bytes.

    Every round's outputs must match the first round's; the first round's
    must match any earlier run of the same workload, seed and source.
    """

    def __init__(self, store: Path):
        self.store = store
        self.reference: dict | None = None
        self.attempted = 0
        self.failures: list[Op] = []

    def add(self, ops: list[Op]) -> None:
        if self.reference is None:
            self.reference = {op.name: op.digest for op in ops if op.digest}
            if self.store.exists():
                earlier = json.loads(self.store.read_text())
                self._compare(ops, earlier, "an earlier run with the same seed")
            else:
                self.store.parent.mkdir(parents=True, exist_ok=True)
                tmp = self.store.with_suffix(f".{os.getpid()}.tmp")
                tmp.write_text(json.dumps(self.reference, indent=1, sort_keys=True))
                os.replace(tmp, self.store)
        else:
            self._compare(ops, self.reference, "the first round of this run")
        self.attempted += len(ops)
        self.failures += [op for op in ops if op.error]

    @staticmethod
    def _compare(ops, reference: dict, what: str) -> None:
        for op in ops:
            want = reference.get(op.name)
            if op.error is None and want and op.digest != want:
                op.error = f"output bytes differ from {what}"


def _report(failures: list[Op], problems: list[str]) -> None:
    seen: dict = OrderedDict()
    for op in failures:
        key = (op.name, op.error, op.known_fault)
        seen[key] = seen.get(key, 0) + 1
    for (name, error, known), count in seen.items():
        tag = "known fault" if known else "FAILED"
        print(f"{tag}: {name} x{count}: {error}")
    for problem in problems:
        print(f"FAILED: {problem}")


def run(workload: str, root: Path, seed: int, seconds: float, trace: bool) -> dict:
    env = Env(root, seed)
    try:
        wl = WORKLOADS[workload](env)
        store = root / ".perfbench" / "digests" / source_fingerprint(root) / f"{workload}-{seed}.json"
        ledger = Ledger(store)
        problems = oracle_checks(env)          # untimed; also warms the process up
        setup_times, model = measure_setup(env, wl.n_states, SETUP_REPEATS)
        if not trace:
            timings = Timings()
            start = time.perf_counter()
            rounds = 0
            while rounds == 0 or time.perf_counter() - start < seconds:
                ledger.add(wl.round(model, timings, rounds == 0) + wl.probes(model))
                rounds += 1
                setup_times += measure_setup(env, wl.n_states, SETUP_REPEATS)[0]
            print(f"{rounds} rounds in {time.perf_counter() - start:.1f} s")
            values = timings.metrics()
            values["setup_s"] = statistics.median(setup_times)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = E2E_UNITS
        else:
            values, units = traced_run(env, wl, model, ledger, problems, root, workload, seed)
        _report(ledger.failures, problems)
        unexpected = [op for op in ledger.failures if not op.known_fault]
        return {"correct": not problems and not unexpected,
                "attempted": ledger.attempted,
                "failed": len(ledger.failures),
                "metrics": {name: {"value": values[name], "unit": unit}
                            for name, unit in units.items()}}
    finally:
        env.cleanup()


def cli_call(env: Env) -> list[str]:
    """One ``ofifnet enhance --mode offline`` on the benchmark weights, so that
    every workload's trace has spans of the cli layer."""
    src, dst = env.path("cli-in.wav"), env.path("cli-out.wav")
    x = oracle_input(env.seed)
    try:
        cli.write_wav(src, x)
        rc = enhance_cli(["--in", src, "--out", dst, "--weights", env.weights_path,
                          "--mode", "offline"])
        problem = (f"ofifnet enhance exited {rc}" if rc
                   else checks.length_and_finite(cli.read_wav(dst), len(x)))
    except Exception as exc:
        problem = _describe(exc)
    return [f"traced cli call: {problem}"] if problem else []


def traced_run(env, wl, model, ledger, problems, root, workload, seed):
    """One untraced round, then set-up, one cli call and one round traced, then
    one round under tracemalloc for held memory.

    The oracle (run before this) and the probes run outside the trace and the
    tracemalloc counters, so their streams stay out of the stream figures.
    """
    base = Timings()
    ledger.add(wl.round(model, base, True) + wl.probes(model))
    tracer = Tracer()
    with layers.traced(tracer, MODULES):
        _, traced_model = measure_setup(env, wl.n_states, 1)
        problems += cli_call(env)
        timed = Timings()
        ops = wl.round(traced_model, timed, False)
    ledger.add(ops + wl.probes(model))
    with layers.held_memory(MODULES) as held:
        ops = wl.round(model, Timings(), False)
    ledger.add(ops + wl.probes(model))

    blocks = layers.block_names(model)
    values, accounted = layers.layer_metrics(tracer.spans, blocks)
    if abs(accounted - 1.0) > 1e-9:
        problems.append(f"trace: stream self time plus block time is {accounted:.12f} "
                        "of the traced stream time")
    values["stream.held_mb_per_audio_s"] = held.mb_per_audio_s(RATE)
    values["trace.overhead_pct"] = 100.0 * (timed.rtf() / base.rtf() - 1.0)

    t_zero = tracer.spans[0][1] if tracer.spans else 0.0
    out = root / ".perfbench" / f"trace-{workload}-{seed}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ms", "end_ms", "parent", "meta"],
                   "spans": [[s[0], round(1e3 * (s[1] - t_zero), 4),
                              round(1e3 * (s[2] - t_zero), 4), s[3], s[4]]
                             for s in tracer.spans]}, fh)
    return values, layer_units(blocks)
