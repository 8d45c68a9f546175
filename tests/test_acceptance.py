"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
and measured runtimes as they happen. Wall-clock budgets are reported, not
asserted: they depend on the host, while every numeric claim is checked at
its stated tolerance.
"""

import time

import numpy as np
import pytest

from ofifnet.model import (
    DEFAULT_CONFIG,
    init_weights,
    loss_fn,
    param_breakdown,
    param_count_of,
    si_snr,
)
from ofifnet.ofif import make_pseudo_frames, ofif_stack_frames
from ofifnet.stdct import (
    HOP_SIZE,
    SAMPLE_RATE,
    WINDOW_SIZE,
    dct_matrix,
    hop_frames,
    istdct_ola,
    stdct,
)
from ofifnet.stream import StreamState, run_stream, stream_flush, stream_push, verify_causality
from ofifnet.tfca import TFCA_PARAM_SHAPES, TfcaBlock
from tests.test_model import si_snr_loop_oracle

F32 = np.float32


def report(num, text, t0):
    print(f"\nACCEPTANCE {num}: PASS — {text} ({time.perf_counter() - t0:.1f} s)")


class TestAcceptance:

    def test_1_parameter_count_reconciliation(self):
        t0 = time.perf_counter()
        tensors = init_weights(DEFAULT_CONFIG, seed=7)
        count = param_count_of(tensors)
        target = 2.61e6
        deviation = count / target - 1.0
        groups: dict[str, int] = {}
        for key, val in param_breakdown(tensors).items():
            top = key.split(".")[0]
            groups[top] = groups.get(top, 0) + val
        lines = ", ".join(f"{k}={v}" for k, v in groups.items())
        assert abs(deviation) <= 0.40, f"{count} vs target {target}"
        report(1, f"param count {count} ({count / 1e6:.2f} M) within ±40% of 2.61 M "
                  f"(deviation {deviation:+.1%}); breakdown: {lines}", t0)

    def test_2_algorithmic_delay_exact(self, default_model):
        t0 = time.perf_counter()
        wave = np.random.default_rng(0).uniform(-1.0, 1.0, 6 * WINDOW_SIZE).astype(F32)
        _, state = run_stream(default_model, wave, HOP_SIZE)
        assert state.max_latency == 512
        assert 1000.0 * state.max_latency / SAMPLE_RATE == 32.0
        assert state.first_emission_consumed == 512
        report(2, "steady-state emission latency exactly 512 samples (32.0 ms), "
                  "first sample emitted at 512 consumed", t0)

    def test_3_analysis_synthesis_round_trip(self):
        t0 = time.perf_counter()
        gram_err = np.abs(dct_matrix() @ dct_matrix().T - np.eye(512)).max()
        assert gram_err <= 1e-6
        rng = np.random.default_rng(33)
        worst = 0.0
        for _ in range(100):
            wave = rng.uniform(-1.0, 1.0, 16000).astype(F32)
            back = istdct_ola(stdct(wave), 16000)
            inner = slice(WINDOW_SIZE, 16000 - WINDOW_SIZE)
            err = np.linalg.norm(back[inner] - wave[inner]) / np.linalg.norm(wave[inner])
            worst = max(worst, float(err))
            assert err <= 1e-5
        report(3, f"100 round trips, worst interior error {worst:.2e} <= 1e-5; "
                  f"basis Gram error {gram_err:.2e} <= 1e-6", t0)

    def test_4_pseudo_frame_support_identity(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(44)
        checked = 0
        for _ in range(20):
            wave = rng.uniform(-1.0, 1.0, 8000).astype(F32)
            raw = hop_frames(wave)
            t_dim = raw.shape[1]
            for t in range(t_dim):
                group = make_pseudo_frames(raw[:, t])
                assert np.array_equal(group[0], raw[:, t])
                for k in range(1, 4):
                    known = (4 - k) * HOP_SIZE
                    assert np.all(group[k, known:] == 0.0)
                    if t + k < t_dim:
                        assert np.array_equal(group[k, :known], raw[:known, t + k])
                        checked += 1
        report(4, f"pseudo frames equal the true future frames on their known "
                  f"support, exactly ({checked} frame pairs over 20 signals)", t0)

    def test_5_attention_invariants(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(55)
        block = None
        for trial in range(50):
            if trial % 10 == 0:
                params = {n: rng.uniform(-0.5, 0.5, s(6)).astype(F32)
                          for n, s in TFCA_PARAM_SHAPES}
                block = TfcaBlock(6, params)
            x = rng.uniform(-2.0, 2.0, (6, 24, 18)).astype(F32)
            off = block.attentions(x, mode="offline")
            cum = block.attentions(x, mode="cumulative")
            assert np.all(np.triu(off["time"], 1) == 0.0)
            np.testing.assert_allclose(off["time"].sum(axis=1), 1.0, atol=1e-6)
            for key in ("frequency", "channel"):
                np.testing.assert_allclose(off[key].sum(axis=1), 1.0, atol=1e-6)
                assert np.abs(cum[key] - off[key]).max() <= 1e-6
        report(5, "50 inputs: temporal attention strictly lower-triangular and "
                  "row-stochastic (±1e-6); frequency/channel matrices row-stochastic; "
                  "cumulative final frame equals offline within 1e-6", t0)

    def test_6_end_to_end_causality(self, default_model):
        t0 = time.perf_counter()
        num_samples = 13184                      # 100 analysis frames
        rng = np.random.default_rng(66)
        worst_margin = None
        for i in range(100):
            split = int(rng.integers(WINDOW_SIZE, num_samples - HOP_SIZE))
            result = verify_causality(default_model, seed=2000 + i, split_sample=split,
                                      num_samples=num_samples)
            assert result.passed, f"trial {i}: {result.describe()}"
            assert result.latency == WINDOW_SIZE
            if result.first_divergence is not None:
                margin = result.first_divergence - result.prefix_length
                worst_margin = margin if worst_margin is None else min(worst_margin, margin)
        offline_failed = False
        for i in range(2):
            result = verify_causality(default_model, seed=2000 + i, split_sample=6000 + 500 * i,
                                      num_samples=num_samples, mode="offline")
            offline_failed = offline_failed or not result.passed
        assert offline_failed, "literal full-utterance attention unexpectedly causal"
        report(6, f"100 streaming trials bit-exact up to split-512 (min divergence "
                  f"margin {worst_margin} samples past the prefix); offline-literal "
                  f"attention fails the same check", t0)

    def test_7_streaming_equivalence(self, default_model):
        t0 = time.perf_counter()
        rng = np.random.default_rng(77)
        num_samples = 6400
        chunkings = (1, 128, 160, 512, num_samples)
        for i in range(10):
            wave = rng.uniform(-1.0, 1.0, num_samples).astype(F32)
            reference, _ = default_model.forward(wave)
            for chunk in chunkings:
                state = StreamState(default_model)
                parts = [stream_push(state, default_model, wave[j:j + chunk])
                         for j in range(0, num_samples, chunk)]
                parts.append(stream_flush(state, default_model))
                streamed = np.concatenate(parts)
                assert streamed.tobytes() == reference.tobytes(), \
                    f"input {i}, chunk {chunk} diverged"
        report(7, "10 inputs x 5 chunkings (1, 128, 160, 512, full): streamed output "
                  "bit-identical to the offline cumulative forward pass", t0)

    def test_8_objective_oracles(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(88)
        for _ in range(50):
            est = rng.uniform(-1.0, 1.0, 400).astype(F32)
            ref = rng.uniform(-1.0, 1.0, 400).astype(F32)
            em = rng.uniform(-1.0, 1.0, (32, 5)).astype(F32)
            rm = rng.uniform(-1.0, 1.0, (32, 5)).astype(F32)
            l1 = sum(abs(float(a) - float(b)) for a, b in zip(est, ref)) / 400
            mse = sum((float(a) - float(b)) ** 2
                      for a, b in zip(em.ravel(), rm.ravel())) / em.size
            assert abs(loss_fn(est, ref, em, rm) - (l1 + mse)) <= 1e-6
            assert abs(si_snr(est, ref) - si_snr_loop_oracle(est, ref)) <= 1e-4
        clean = rng.uniform(-1.0, 1.0, 500).astype(F32)
        mask = rng.uniform(-1.0, 1.0, (16, 4)).astype(F32)
        assert loss_fn(clean, clean, mask, mask) == 0.0
        assert si_snr(clean, clean) == 120.0
        assert si_snr(2.0 * clean, clean) == 120.0
        assert abs(si_snr(clean + 0.1, clean) - si_snr(clean + 0.1, 4.0 * clean)) <= 1e-9
        report(8, "50 random pairs: combined objective matches the scalar-loop oracle "
                  "within 1e-6 and SI-SNR within 1e-4; zero loss at identity; "
                  "SI-SNR capped and target-scale invariant", t0)

    def test_9_shape_pipeline(self, default_model):
        t0 = time.perf_counter()
        rng = np.random.default_rng(99)
        wave = rng.uniform(-1.0, 1.0, 16000).astype(F32)
        stacked = ofif_stack_frames(hop_frames(wave))
        assert stacked.shape == (4, 512, 122)
        x = default_model.fuse.forward(stacked, mode="cumulative")
        for blk in default_model.enc:
            x = blk.forward(x)
        assert x.shape == (128, 16, 122)
        enhanced, mask = default_model.forward(wave)
        assert mask.shape == (512, 122)
        assert enhanced.shape == (16000,)
        report(9, "1 s input: fused stack (4, 512, 122), encoder bottleneck "
                  "(128, 16, 122), mask (512, 122), output 16000 samples", t0)
