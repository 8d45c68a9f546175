"""Attention block: mask structure, mode consistency, causality, shapes."""

import numpy as np
import pytest

from ofifnet.errors import ConfigurationError
from ofifnet.tfca import (
    _SAFE_EXP_ARG,
    TFCA_PARAM_SHAPES,
    TfcaBlock,
    _accumulate_exp_scores,
    _GrowBuf,
)

F32 = np.float32
F64 = np.float64


def make_block(rng, channels, window=15, zero_bias=False, zero_qk=False, scale=0.4):
    params = {}
    for name, shape_of in TFCA_PARAM_SHAPES:
        arr = rng.uniform(-scale, scale, shape_of(channels)).astype(F32)
        if zero_bias and name.endswith(".b"):
            arr = np.zeros_like(arr)
        if zero_qk and name[:2] in ("tq", "tk", "fq", "fk", "cq", "ck"):
            arr = np.zeros_like(arr)
        params[name] = arr
    return TfcaBlock(channels, window, params)


def pick_time_branch(rng, channels):
    """Weights that make the block output exactly the time-branch values."""
    params = {name: np.zeros(shape_of(channels), dtype=F32)
              for name, shape_of in TFCA_PARAM_SHAPES}
    params["vt.w"] = np.eye(channels, dtype=F32)
    out_w = np.zeros((channels, 3 * channels), dtype=F32)
    out_w[:, :channels] = np.eye(channels, dtype=F32)
    params["out.w"] = out_w
    return TfcaBlock(channels, 15, params)


class TestTimeBranch:

    def test_single_frame_attention_is_identity(self, rng):
        block = make_block(rng, 3)
        x = rng.uniform(-1, 1, (3, 8, 1)).astype(F32)
        att = block.attentions(x, mode="cumulative")["time"]
        np.testing.assert_array_equal(att, [[1.0]])

    def test_single_frame_output_equals_time_values(self, rng):
        # fusion wired to pass the time branch through untouched, values
        # wired to the identity: with T=1 the output must be the input frame
        block = pick_time_branch(rng, 4)
        x = rng.uniform(-1, 1, (4, 16, 1)).astype(F32)
        out = block.forward(x, mode="cumulative")
        np.testing.assert_array_equal(out, x)

    def test_zero_queries_uniform_prefix_rows(self, rng):
        block = make_block(rng, 3, zero_qk=True)
        x = rng.uniform(-1, 1, (3, 8, 4)).astype(F32)
        att = block.attentions(x, mode="offline")["time"]
        for t in range(4):
            np.testing.assert_allclose(att[t, :t + 1], 1.0 / (t + 1), atol=1e-12)
            assert np.all(att[t, t + 1:] == 0.0)

    def test_random_inputs_lower_triangular_row_stochastic(self, rng):
        block = make_block(rng, 5)
        for trial in range(5):
            x = rng.uniform(-2, 2, (5, 10, 13)).astype(F32)
            att = block.attentions(x, mode="cumulative")["time"]
            assert np.all(np.triu(att, 1) == 0.0)
            np.testing.assert_allclose(att.sum(axis=1), 1.0, atol=1e-6)


class TestAxisBranches:

    def test_cumulative_final_frame_matches_offline(self, rng):
        block = make_block(rng, 6)
        x = rng.uniform(-1, 1, (6, 24, 18)).astype(F32)
        cum = block.attentions(x, mode="cumulative")
        off = block.attentions(x, mode="offline")
        for key in ("frequency", "channel"):
            assert np.abs(cum[key] - off[key]).max() <= 1e-6

    def test_offline_rows_sum_to_one(self, rng):
        block = make_block(rng, 4)
        x = rng.uniform(-1, 1, (4, 12, 9)).astype(F32)
        att = block.attentions(x, mode="offline")
        np.testing.assert_allclose(att["frequency"].sum(axis=1), 1.0, atol=1e-6)
        np.testing.assert_allclose(att["channel"].sum(axis=1), 1.0, atol=1e-6)

    def test_single_bin_attention_is_identity(self, rng):
        block = make_block(rng, 3)
        x = rng.uniform(-1, 1, (3, 1, 5)).astype(F32)
        att = block.attentions(x, mode="offline")["frequency"]
        np.testing.assert_allclose(att, [[1.0]], atol=1e-12)


class TestTfcaForward:

    def test_bottleneck_shape_preserved(self, rng):
        block = make_block(rng, 128, scale=0.05)
        x = rng.uniform(-1, 1, (128, 16, 20)).astype(F32)
        assert block.forward(x, mode="cumulative").shape == (128, 16, 20)
        assert block.forward(x, mode="offline").shape == (128, 16, 20)

    def test_zero_input_zero_biases_zero_output(self, rng):
        block = make_block(rng, 4, zero_bias=True)
        x = np.zeros((4, 10, 6), dtype=F32)
        assert np.all(block.forward(x, mode="cumulative") == 0.0)

    def test_cumulative_prefix_stability_bit_exact(self, rng):
        block = make_block(rng, 5)
        x = rng.uniform(-1, 1, (5, 12, 11)).astype(F32)
        t0 = 7
        x2 = x.copy()
        x2[:, :, t0:] = rng.uniform(-1, 1, (5, 12, 11 - t0)).astype(F32)
        a = block.forward(x, mode="cumulative")
        b = block.forward(x2, mode="cumulative")
        assert np.array_equal(a[:, :, :t0], b[:, :, :t0])
        assert not np.array_equal(a[:, :, t0:], b[:, :, t0:])

    def test_offline_mode_not_prefix_stable(self, rng):
        # the literal whole-utterance attention lets late frames reach
        # early outputs; this is exactly the ambiguity the two modes document
        block = make_block(rng, 5)
        x = rng.uniform(-1, 1, (5, 12, 11)).astype(F32)
        x2 = x.copy()
        x2[:, :, 7:] += 1.0
        a = block.forward(x, mode="offline")
        b = block.forward(x2, mode="offline")
        assert not np.array_equal(a[:, :, :7], b[:, :, :7])

    def test_final_frame_modes_agree(self, rng):
        block = make_block(rng, 6)
        x = rng.uniform(-1, 1, (6, 20, 14)).astype(F32)
        a = block.forward(x, mode="cumulative")
        b = block.forward(x, mode="offline")
        assert np.abs(a[:, :, -1].astype(np.float64) - b[:, :, -1]).max() <= 1e-5

    def test_unknown_mode_rejected(self, rng):
        block = make_block(rng, 3)
        with pytest.raises(ConfigurationError):
            block.forward(rng.uniform(-1, 1, (3, 4, 5)).astype(F32), mode="sliding")

    def test_step_streaming_equals_batch(self, rng):
        block = make_block(rng, 4)
        x = rng.uniform(-1, 1, (4, 9, 8)).astype(F32)
        batch = block.forward(x, mode="cumulative")
        state = block.init_state()
        stepped = np.concatenate([block.step(x[:, :, t:t + 1], state) for t in range(8)], axis=2)
        assert np.array_equal(batch, stepped)


class TestScoreUpdate:
    """The running frequency and channel score update, in row passes, and the
    state a stream carries from frame to frame."""

    @staticmethod
    def one_pass(score, q, k, denom, bound):
        """The update as one pass over the whole matrix: the reference the row
        passes must reproduce byte for byte."""
        score += np.multiply.outer(q, k)
        exp = np.empty(score.shape, dtype=F32)
        np.multiply(score, 1.0 / denom, out=exp)
        if not bound / denom <= _SAFE_EXP_ARG:
            exp -= exp.max(axis=1, keepdims=True)
        np.exp(exp, out=exp)
        return exp, exp.sum(axis=1)

    # 512, 256, 100 and 16 frequency bins; 128 is the bottleneck's channel branch
    @pytest.mark.parametrize("width", [512, 256, 128, 100, 16])
    @pytest.mark.parametrize("shift", [False, True], ids=["plain exp", "max subtracted"])
    def test_row_passes_equal_one_pass(self, rng, width, shift):
        scale = 4.0 if shift else 1.0
        score, ref = np.zeros((width, width)), np.zeros((width, width))
        scratch = np.empty(64 * width)
        exp = np.empty((width, width), dtype=F32)
        bound = 0.0
        for t in range(3):
            q, k = (rng.standard_normal((2, width)) * scale).astype(F32).astype(F64)
            # negative entries, and +0 and -0 in place of the smaller half:
            # the row passes' products may drop the sign of a zero, which
            # must not reach the sum, the exp or the row sums
            for v in (q, k):
                small = np.flatnonzero(np.abs(v) < np.median(np.abs(v)))
                v[small[::2]], v[small[1::2]] = 0.0, -0.0
            assert np.signbit(q[q == 0]).any() and (q < 0).any()
            bound += np.abs(q).max() * np.abs(k).max()
            denom = np.sqrt(t + 1.0)
            assert (bound / denom > _SAFE_EXP_ARG) == shift
            z = _accumulate_exp_scores(score, q, k, denom, bound, scratch, exp)
            ref_exp, ref_z = self.one_pass(ref, q, k, denom, bound)
            assert score.tobytes() == ref.tobytes()
            assert exp.tobytes() == ref_exp.tobytes()
            assert z.dtype == F32 and z.tobytes() == ref_z.tobytes()

    def test_max_subtraction_pass(self, rng):
        # query and key weights scaled until every frame's scaled bound is
        # past the point where exp could overflow without the max subtracted
        params = {name: rng.uniform(-0.4, 0.4, shape_of(4)).astype(F32)
                  for name, shape_of in TFCA_PARAM_SHAPES}
        for name in ("fq.w", "fk.w", "cq.w", "ck.w"):
            params[name] *= 100.0
        block = TfcaBlock(4, 15, params)
        x = rng.uniform(-1, 1, (4, 24, 10)).astype(F32)
        whole = block.step(x, block.init_state())
        state = block.init_state()
        frames = []
        for t in range(10):
            frames.append(block.step(x[:, :, t:t + 1], state))
            denom = np.sqrt(state.count)
            assert state.bound_f / denom > _SAFE_EXP_ARG
            assert state.bound_c / denom > _SAFE_EXP_ARG
        assert np.concatenate(frames, axis=2).tobytes() == whole.tobytes()
        assert np.all(np.isfinite(whole))
        # the softmax rows of the last frame, against float64 on the same
        # float32-rounded scaled scores; q = k = 0 adds nothing to the sums
        denom = np.sqrt(state.count)
        for score, bound in ((state.score_f, state.bound_f), (state.score_c, state.bound_c)):
            width = len(score)
            exp = np.empty((width, width), dtype=F32)
            z = _accumulate_exp_scores(score, np.zeros(width), np.zeros(width), denom, bound,
                                       np.empty(64 * width), exp)
            assert np.all(np.isfinite(exp)) and np.all(np.isfinite(z))
            scaled = (score * (1.0 / denom)).astype(F32).astype(F64)
            ref = np.exp(scaled - scaled.max(axis=1, keepdims=True))
            ref /= ref.sum(axis=1, keepdims=True)
            # float32 underflows where float64 does not: below its smallest
            # normal number only the absolute difference is meaningful
            np.testing.assert_allclose(exp / z[:, None], ref, rtol=1e-5,
                                       atol=np.finfo(F32).tiny)

    def test_state_holds_no_frame_scratch(self, default_model, rng):
        block, (c, f_dim) = deployed_attention_block(default_model, "fuse")
        state = block.init_state()
        block.step(rng.uniform(-1, 1, (c, f_dim, 3)).astype(F32), state)
        assert set(vars(state)) == {"count", "channels", "pool_f", "pool_c", "score_f",
                                    "score_c", "bound_f", "bound_c", "key_hist",
                                    "value_hist"}


class TestHistoryBuffer:
    """The time branch's history rows survive every growth byte for byte."""

    @staticmethod
    def _no_mremap(buf, nbytes):
        raise SystemError("mmap: resizing not available--no mremap()")

    @pytest.mark.parametrize("path", ["resize", "copy", "held view"])
    def test_rows_survive_three_growths(self, rng, monkeypatch, path):
        if path == "copy":
            monkeypatch.setattr(_GrowBuf, "_resize", staticmethod(self._no_mremap))
        rows = rng.standard_normal((600, 37)).astype(F32)
        buf = _GrowBuf(37)
        maps = [buf._map]
        for i, row in enumerate(rows):
            # a view held across an append keeps the mapping from moving
            held = buf.view() if path == "held view" else None
            buf.append(row)
            if buf._map is not maps[-1]:
                maps.append(buf._map)
            assert buf.nbytes == (i + 1) * 37 * 4
            assert held is None or held.tobytes() == rows[:i].tobytes()
        del held
        # 128 -> 256 -> 512 -> 1024 rows: growths at rows 128, 256 and 512
        assert len(buf._data) == 1024
        assert len(maps) == (1 if path == "resize" else 4)     # grown in place, or copied
        view = buf.view()
        assert view.shape == (600, 37) and view.flags.c_contiguous
        assert view.tobytes() == rows.tobytes()


def deployed_attention_block(model, name):
    """An attention block of a model and the (C, F) of its input in the
    deployed network."""
    freqs = model.config.encoder_freqs()
    if name == "fuse":
        return model.fuse, (model.fuse.channels, freqs[0])
    kind, idx = name.split(".")
    blk = getattr(model, kind)[int(idx)]
    f_dim = freqs[int(idx) + 1] if kind == "skip" else freqs[len(model.dec) - 1 - int(idx)]
    return blk, (blk.channels, f_dim)


ATTENTION_BLOCKS = ["fuse"] + [f"skip.{i}" for i in range(5)] + [f"dectfca.{j}" for j in range(4)]


class TestSharedProjection:
    """One projection serves both realizations: a whole map is one call at
    n = T on a fresh state, a stream makes T calls at n = 1, each after the
    pooling rows the state carries from the calls before."""

    @pytest.mark.parametrize("name", ATTENTION_BLOCKS)
    def test_whole_map_equals_frame_calls(self, default_model, rng, name):
        block, (c, f_dim) = deployed_attention_block(default_model, name)
        t_dim = 20                            # more frames than the pooling window
        x = rng.uniform(-1, 1, (c, f_dim, t_dim)).astype(F32)
        whole = block.project(x, block.init_state())
        assert whole[0].shape == (t_dim, 3 * c, f_dim) and whole[0].dtype == F32
        for sizes in ([1] * t_dim, [7, 1, 12]):
            state, calls, t = block.init_state(), [], 0
            for n in sizes:
                calls.append(block.project(x[:, :, t:t + n], state))
                t += n
            for k, part in enumerate(("values", "time q/k", "frequency q/k", "channel q/k")):
                split = np.concatenate([call[k] for call in calls])
                assert split.tobytes() == whole[k].tobytes(), (part, sizes)


class TestDegenerateInputs:

    def test_attentions_wrong_channel_count_rejected(self, rng):
        block = make_block(rng, 3)
        x = rng.uniform(-1, 1, (4, 8, 5)).astype(F32)
        for mode in ("offline", "cumulative"):
            with pytest.raises(ConfigurationError):
                block.attentions(x, mode=mode)

    def test_step_frequency_change_rejected(self, rng):
        block = make_block(rng, 3)
        state = block.init_state()
        block.step(rng.uniform(-1, 1, (3, 24, 1)).astype(F32), state)
        with pytest.raises(ConfigurationError):
            block.step(rng.uniform(-1, 1, (3, 27, 1)).astype(F32), state)

    def test_zero_frequency_bins_rejected(self, rng):
        block = make_block(rng, 3)
        with pytest.raises(ConfigurationError):
            block.step(np.zeros((3, 0, 1), dtype=F32), block.init_state())
        for mode in ("offline", "cumulative"):
            with pytest.raises(ConfigurationError):
                block.forward(np.zeros((3, 0, 4), dtype=F32), mode=mode)
            with pytest.raises(ConfigurationError):
                block.attentions(np.zeros((3, 0, 4), dtype=F32), mode=mode)

    @pytest.mark.parametrize("mode", ["offline", "cumulative"])
    def test_empty_map_returned_empty(self, rng, mode):
        block = make_block(rng, 3)
        out = block.forward(np.zeros((3, 8, 0), dtype=F32), mode=mode)
        assert out.shape == (3, 8, 0) and out.dtype == F32

    @pytest.mark.parametrize("mode", ["offline", "cumulative"])
    def test_attentions_of_empty_map_rejected(self, rng, mode):
        # no frame, no score: the frequency and channel softmax is undefined
        block = make_block(rng, 3)
        with pytest.raises(ConfigurationError):
            block.attentions(np.zeros((3, 8, 0), dtype=F32), mode=mode)
