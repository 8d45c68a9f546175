"""Streaming contracts: emission accounting, chunking invariance, causality."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofifnet import stream as stream_module
from ofifnet.errors import (ConfigurationError, EngineError, NonFiniteInputError,
                            SignalTooShortError, StreamClosedError)
from ofifnet.model import Model
from ofifnet.stdct import HOP_SIZE, WINDOW_SIZE, frame_signal_full
from ofifnet.stream import (
    StreamState,
    delay_from_emissions,
    measure_delay,
    stream_flush,
    stream_push,
    verify_causality,
)

F32 = np.float32


def run_chunked(model, wave, chunk):
    state = StreamState(model)
    parts = [stream_push(state, model, wave[i:i + chunk])
             for i in range(0, len(wave), chunk)]
    parts.append(stream_flush(state, model))
    return np.concatenate(parts), state


class TestPushFlush:

    def test_first_window_then_hop_sized_emissions(self, default_model, rng):
        wave = rng.uniform(-1, 1, 512 + 3 * 128).astype(F32)
        state = StreamState(default_model)
        first = stream_push(state, default_model, wave[:512])
        assert len(first) == HOP_SIZE           # frame 0 finalizes one hop block
        for k in range(3):
            more = stream_push(state, default_model, wave[512 + k * 128:512 + (k + 1) * 128])
            assert len(more) == HOP_SIZE
        assert state.consumed == len(wave)

    def test_empty_chunk_no_emission_no_state_change(self, default_model):
        state = StreamState(default_model)
        out = stream_push(state, default_model, np.zeros(0, dtype=F32))
        assert len(out) == 0 and state.consumed == 0 and state.frame_index == 0

    def test_flush_after_single_window(self, default_model, rng):
        wave = rng.uniform(-1, 1, 512).astype(F32)
        state = StreamState(default_model)
        a = stream_push(state, default_model, wave)
        b = stream_flush(state, default_model)
        assert len(a) + len(b) == 512

    @pytest.mark.parametrize("length", [300, 700, 1337, 2048])
    def test_flush_length_contract(self, default_model, rng, length):
        wave = rng.uniform(-1, 1, length).astype(F32)
        out, state = run_chunked(default_model, wave, 256)
        assert len(out) == length
        assert state.emitted == state.consumed == length

    @pytest.mark.parametrize("length", [0, 1, 100, 127, 128, 129, 300])
    def test_stream_shorter_than_a_window(self, default_model, rng, length):
        # no complete frame: the flush runs at most one zero-padded frame and
        # trims its output to the input; the 1- and 7-sample chunkings of an
        # empty input never push at all, the one push pushes it empty
        wave = rng.uniform(-1, 1, length).astype(F32)
        state = StreamState(default_model)
        one_push = (np.concatenate([stream_push(state, default_model, wave),
                                    stream_flush(state, default_model)]), state)
        runs = [run_chunked(default_model, wave, 1), run_chunked(default_model, wave, 7), one_push]
        for out, state in runs:
            assert len(out) == state.consumed == length
            assert state._ola.clamped_samples == 0
        assert len({out.tobytes() for out, _ in runs}) == 1

    def test_double_flush_raises(self, default_model, rng):
        state = StreamState(default_model)
        stream_push(state, default_model, rng.uniform(-1, 1, 600).astype(F32))
        stream_flush(state, default_model)
        with pytest.raises(StreamClosedError):
            stream_flush(state, default_model)

    def test_push_after_flush_raises(self, default_model, rng):
        state = StreamState(default_model)
        stream_push(state, default_model, rng.uniform(-1, 1, 600).astype(F32))
        stream_flush(state, default_model)
        with pytest.raises(StreamClosedError):
            stream_push(state, default_model, np.zeros(10, dtype=F32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_push_rejected_and_forgotten(self, default_model, rng, bad):
        wave = rng.uniform(-1, 1, 1600).astype(F32)
        chunks = np.split(wave, [300, 700, 1100])
        poisoned = rng.uniform(-1, 1, 200).astype(F32)
        poisoned[57] = bad
        state = StreamState(default_model)
        got = [stream_push(state, default_model, c) for c in chunks[:2]]
        with pytest.raises(NonFiniteInputError) as info:
            stream_push(state, default_model, poisoned)
        assert isinstance(info.value, EngineError) and isinstance(info.value, ValueError)
        got += [stream_push(state, default_model, c) for c in chunks[2:]]
        got.append(stream_flush(state, default_model))
        state = StreamState(default_model)
        ref = [stream_push(state, default_model, c) for c in chunks]
        ref.append(stream_flush(state, default_model))
        assert np.concatenate(got).tobytes() == np.concatenate(ref).tobytes()

    def test_overlap_add_buffer_fixed_size(self, default_model, rng):
        state = StreamState(default_model)
        stream_push(state, default_model, rng.uniform(-1, 1, WINDOW_SIZE).astype(F32))
        assert state.frame_index == 1
        held = (state._ola._acc.nbytes, state._ola._den.nbytes)
        stream_push(state, default_model, rng.uniform(-1, 1, 199 * HOP_SIZE).astype(F32))
        assert state.frame_index == 200
        assert (state._ola._acc.nbytes, state._ola._den.nbytes) == held

    def test_heap_held_outside_histories(self, default_model, rng):
        # what a stream holds besides its attention histories, which live in
        # mappings tracemalloc does not see: at the default config 4.8 MiB
        # after 8 frames, most of it the attention blocks' running score sums
        # (the fuse block's 512 x 512 float64 sum is 2 MiB); none of it grows
        # with the stream's age
        wave = rng.uniform(-1, 1, WINDOW_SIZE + 572 * HOP_SIZE).astype(F32)

        def push_until(state, frames):
            while state.frame_index < frames:
                stream_push(state, default_model, wave[state.consumed:state.consumed + HOP_SIZE])

        push_until(StreamState(default_model), 8)    # whatever a first stream leaves cached
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            state = StreamState(default_model)
            held = {}
            for frames in (8, 20, 573):
                push_until(state, frames)
                gc.collect()
                held[frames] = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert state.frame_index == 573 and state.history_bytes == 573 * 36874 * 4
        assert held[8] <= 6 * 2 ** 20
        assert held[573] - held[20] <= 2 ** 18

    def test_another_model_rejected_before_state_changes(self, default_model, rng):
        # same weights, but not the model the stream was opened on
        other = Model(default_model.config, default_model.tensors)
        wave = rng.uniform(-1, 1, 1200).astype(F32)
        state = StreamState(default_model)
        got = [stream_push(state, default_model, wave[:600])]

        def snapshot():
            return (state.consumed, state.emitted, state.frame_index, state.closed,
                    state._buf.tobytes())
        before = snapshot()
        with pytest.raises(ConfigurationError, match="different model"):
            stream_push(state, other, wave[600:900])
        with pytest.raises(ConfigurationError, match="different model"):
            stream_flush(state, other)
        assert snapshot() == before
        got += [stream_push(state, default_model, wave[600:]), stream_flush(state, default_model)]
        ref, _ = run_chunked(default_model, wave, 600)
        assert np.concatenate(got).tobytes() == ref.tobytes()

class TestChunkingInvariance:

    def test_all_chunkings_bit_identical(self, default_model, rng):
        wave = rng.uniform(-1, 1, 2500).astype(F32)
        reference, _ = run_chunked(default_model, wave, len(wave))
        for chunk in (1, 128, 160, 512):
            out, _ = run_chunked(default_model, wave, chunk)
            assert out.tobytes() == reference.tobytes(), f"chunk={chunk} diverged"

    def test_streamed_equals_offline_forward(self, default_model, rng):
        wave = rng.uniform(-1, 1, 3000).astype(F32)
        enhanced, _ = default_model.forward(wave)
        streamed, _ = run_chunked(default_model, wave, 160)
        assert streamed.tobytes() == enhanced.tobytes()

    def test_stream_past_history_growth_equals_forward(self, default_model, rng):
        # 317 frames: every attention history grows at frames 128 and 256
        wave = rng.uniform(-1, 1, 40960).astype(F32)
        enhanced, _ = default_model.forward(wave)
        for chunk in (HOP_SIZE, len(wave)):
            out, state = run_chunked(default_model, wave, chunk)
            assert out.tobytes() == enhanced.tobytes(), f"chunk={chunk} diverged"
            # per frame: 10 time keys and the ten blocks' C * F values, 4 * 512
            # (fuse) + 8 * 4096 (four skips, four decoder blocks) + 128 * 16
            assert state.frame_index == 317
            assert state.history_bytes == 317 * (10 + 36_864) * 4

    @settings(max_examples=8, deadline=None)
    @given(length=st.integers(WINDOW_SIZE, 3000), seed=st.integers(0, 2 ** 32 - 1),
           chunks=st.lists(st.one_of(st.just(0), st.just(1), st.integers(0, 900)),
                           min_size=1, max_size=30))
    def test_irregular_chunkings_equal_forward(self, default_model, length, seed, chunks):
        # pushes of the drawn sizes in turn, then the remainder in one push
        wave = np.random.default_rng(seed).uniform(-1, 1, length).astype(F32)
        state = StreamState(default_model)
        parts, start = [], 0
        for size in chunks:
            parts.append(stream_push(state, default_model, wave[start:start + size]))
            start = min(start + size, length)
        parts.append(stream_push(state, default_model, wave[start:]))
        parts.append(stream_flush(state, default_model))
        enhanced, _ = default_model.forward(wave)
        assert np.concatenate(parts).tobytes() == enhanced.tobytes()

    def test_emitted_samples_never_change(self, default_model, rng):
        # incremental outputs concatenate to the final output: emission is
        # monotone and immutable
        wave = rng.uniform(-1, 1, 2000).astype(F32)
        state = StreamState(default_model)
        seen = []
        for i in range(0, len(wave), 64):
            prev_emitted = state.emitted
            out = stream_push(state, default_model, wave[i:i + 64])
            assert state.emitted >= prev_emitted
            seen.append(out)
        seen.append(stream_flush(state, default_model))
        full, _ = run_chunked(default_model, wave, len(wave))
        assert np.concatenate(seen).tobytes() == full.tobytes()

    # on both sides of the boundaries where a trailing padded frame appears
    @pytest.mark.parametrize("length", [512, 513, 639, 640, 641, 700, 767, 768, 769, 1000])
    def test_flushed_stream_frames_are_the_full_framing(self, default_model, rng, monkeypatch,
                                                        length):
        wave = rng.uniform(-1, 1, length).astype(F32)
        full = frame_signal_full(wave)
        analysis = stream_module.ofif_stack_frames
        for chunk in (100, length):
            seen = []

            def record(raw):
                seen.append(np.array(raw))
                return analysis(raw)
            with monkeypatch.context() as patch:
                patch.setattr(stream_module, "ofif_stack_frames", record)
                run_chunked(default_model, wave, chunk)
            frames = np.concatenate(seen, axis=1)
            assert frames.shape == full.shape and frames.tobytes() == full.tobytes(), chunk
        for mode in ("cumulative", "offline"):
            _, mask = default_model.forward(wave, mode=mode)
            assert mask.shape == (512, full.shape[1]), mode


class TestGroupedPushes:
    """A push walks the frames it completes in groups of at most 32, each
    block stepped over a group's frames before the next block runs."""

    def test_grouped_pushes_equal_hop_pushes(self, default_model, rng):
        # single pushes completing one frame, one short of a group, one
        # group, one past it, and two groups and a frame
        wave = rng.uniform(-1, 1, WINDOW_SIZE + 64 * HOP_SIZE + 77).astype(F32)
        state = StreamState(default_model)
        outs, masks = [], []
        for i in range(0, len(wave), HOP_SIZE):
            outs.append(stream_push(state, default_model, wave[i:i + HOP_SIZE]))
            masks.append(state.last_mask)
        outs.append(stream_flush(state, default_model))
        masks.append(state.last_mask)
        hop_out, hop_mask = np.concatenate(outs), np.concatenate(masks, axis=1)
        assert hop_mask.shape == (512, 66)
        for k in (1, 31, 32, 33, 65):
            state = StreamState(default_model)
            out = stream_push(state, default_model, wave[:WINDOW_SIZE + (k - 1) * HOP_SIZE])
            assert state.frame_index == k
            assert out.tobytes() == hop_out[:k * HOP_SIZE].tobytes(), f"k={k}"
            assert state.last_mask.tobytes() == hop_mask[:, :k].tobytes(), f"k={k}"
        enhanced, mask = default_model.forward(wave)
        assert enhanced.tobytes() == hop_out.tobytes()
        assert mask.tobytes() == hop_mask.tobytes()

    def test_each_block_steps_every_frame_once_in_order(self, default_model, rng):
        # a one-push forward of 70 frames and a stream of 8 ms pushes make
        # the same step calls: one frame each, on the same inputs, in order
        wave = rng.uniform(-1, 1, WINDOW_SIZE + 69 * HOP_SIZE).astype(F32)

        def recorded_steps(run):
            model = Model(default_model.config, default_model.tensors)
            calls = {}
            for blk in model.blocks:
                def step(x, state, blk=blk, step=blk.step):
                    calls.setdefault(blk, []).append((x.shape[2], x.tobytes()))
                    return step(x, state)
                blk.step = step
            run(model)
            return [calls[blk] for blk in model.blocks]

        one_push = recorded_steps(lambda model: model.forward(wave))
        hop_pushes = recorded_steps(lambda model: run_chunked(model, wave, HOP_SIZE))
        assert [len(c) for c in one_push] == [70] * len(one_push)
        assert all(n == 1 for c in one_push for n, _ in c)
        assert one_push == hop_pushes

    def test_push_transient_bounded_by_group(self, default_model, rng):
        # peak minus what the call leaves held: one group's block maps, not
        # the push's, which would add about 300 KB per frame
        def transient(frames):
            wave = rng.uniform(-1, 1, WINDOW_SIZE + (frames - 1) * HOP_SIZE).astype(F32)
            gc.collect()
            tracemalloc.start()
            try:
                result = default_model.forward(wave)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(result[0]) == len(wave)
            return peak - held

        transient(8)                       # whatever a first forward leaves cached
        assert transient(256) - transient(64) <= 2 ** 20


class TestDelay:

    def test_steady_state_latency_exact_window(self, default_model):
        report = measure_delay(default_model, num_samples=4 * WINDOW_SIZE, chunk=HOP_SIZE)
        assert report.max_latency == WINDOW_SIZE == 512
        assert report.structural_latency == WINDOW_SIZE
        assert report.first_emission_consumed == WINDOW_SIZE
        assert report.milliseconds == 32.0

    def test_sample_level_pushes_same_latency(self, default_model):
        report = measure_delay(default_model, num_samples=2 * WINDOW_SIZE, chunk=1)
        assert report.max_latency == WINDOW_SIZE

    def test_flush_emissions_excluded_from_steady_state(self, default_model, rng):
        wave = rng.uniform(-1, 1, 900).astype(F32)
        _, state = run_chunked(default_model, wave, HOP_SIZE)
        report = delay_from_emissions(state)
        assert report.structural_latency == WINDOW_SIZE

    def test_input_shorter_than_a_window_has_no_latency(self, default_model, rng):
        # an input problem, not a configuration one
        _, state = run_chunked(default_model, rng.uniform(-1, 1, 300).astype(F32), HOP_SIZE)
        with pytest.raises(SignalTooShortError, match="no steady-state emissions"):
            delay_from_emissions(state)

    def test_structural_latency_zero_until_a_frame_comes_out(self, default_model, rng):
        wave = rng.uniform(-1, 1, WINDOW_SIZE).astype(F32)
        short = StreamState(default_model)
        assert short.structural_latency == 0
        stream_push(short, default_model, wave[:-1])
        stream_flush(short, default_model)
        assert short.structural_latency == 0         # a flushed frame does not count
        full = StreamState(default_model)
        stream_push(full, default_model, wave)
        assert full.structural_latency == WINDOW_SIZE


class TestVerifyCausality:

    def test_cumulative_mode_passes(self, default_model):
        for i, split in enumerate((1500, 2000, 2749)):
            report = verify_causality(default_model, seed=50 + i, split_sample=split,
                                      num_samples=4096)
            assert report.passed, report.describe()
            assert report.prefix_length == split - WINDOW_SIZE
            assert report.latency.structural_latency == WINDOW_SIZE
            # outputs must actually diverge once the change can reach them
            assert report.first_divergence is not None
            assert report.first_divergence >= report.prefix_length

    def test_offline_literal_mode_fails(self, default_model):
        report = verify_causality(default_model, seed=3, split_sample=2500,
                                  num_samples=4096, mode="offline")
        assert not report.passed
        assert report.first_divergence < report.prefix_length
        assert report.latency is None

    def test_split_before_window_vacuous_pass(self, default_model):
        report = verify_causality(default_model, seed=1, split_sample=300,
                                  num_samples=2048)
        assert report.passed and report.prefix_length == 0

    def test_split_outside_signal_rejected(self, default_model):
        with pytest.raises(ConfigurationError):
            verify_causality(default_model, seed=0, split_sample=5000, num_samples=2048)
