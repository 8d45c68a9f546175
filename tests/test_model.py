"""Model assembly, parameter accounting, forward contracts, objective functions."""

import dataclasses
import hashlib
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from ofifnet.errors import (
    ConfigurationError,
    NonFiniteInputError,
    SignalTooShortError,
    UndefinedMetricError,
    WeightError,
)
from ofifnet.model import (
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
from ofifnet.nn import FRAMES_PER_PASS, conv_frame_taps, deconv_frame_taps
from ofifnet.ofif import NUM_CHANNELS
from ofifnet.stream import StreamState, stream_push
from ofifnet.tfca import TFCA_PARAM_SHAPES

F32 = np.float32


# DEFAULT_CONFIG.to_json() as written while in_channels, freq_bins,
# fuse_attention and attention_mode were config fields
SIDECAR_WITH_RETIRED_KEYS = (
    '{\n  "in_channels": 4,\n  "encoder_channels": [\n    16,\n    32,\n    64,\n'
    '    128,\n    128\n  ],\n  "decoder_channels": [\n    128,\n    64,\n    32,\n'
    '    16,\n    1\n  ],\n  "kernel": [\n    5,\n    2\n  ],\n  "stride": [\n    2,\n'
    '    1\n  ],\n  "freq_pad": 2,\n  "freq_out_pad": 1,\n  "tfsm_hidden": [\n    128,\n'
    '    64,\n    32\n  ],\n  "pool_window": 15,\n  "freq_bins": 512,\n'
    '  "fuse_attention": true,\n  "attention_mode": "cumulative"\n}')


class TestConfig:

    def test_deployed_frequency_ladder(self):
        assert DEFAULT_CONFIG.encoder_freqs() == [512, 256, 128, 64, 32, 16]

    def test_json_round_trip(self):
        back = ModelConfig.from_json(DEFAULT_CONFIG.to_json())
        assert back == DEFAULT_CONFIG

    def test_sidecar_with_retired_keys_loads(self):
        # a sidecar written at the defaults while the analysis sizes, the fuse
        # switch and the attention mode were still config fields
        assert ModelConfig.from_json(SIDECAR_WITH_RETIRED_KEYS) == DEFAULT_CONFIG

    @pytest.mark.parametrize("key, value", [
        ("in_channels", 2), ("in_channels", 4.0), ("freq_bins", 1024),
        ("fuse_attention", False), ("fuse_attention", 1), ("attention_mode", "bogus"),
        ("kernel", [5, 2.0]), ("stride", [2, True]), ("pool_window", 0), ("stride", [2, 2]),
        ("decoder_channels", [128, 64, 32, 16, 2])])
    def test_retired_key_at_other_value_rejected(self, key, value):
        # compared by JSON text: 4.0 is not 4, 1 is not true, [2, true] is not [2, 1]
        data = json.loads(SIDECAR_WITH_RETIRED_KEYS)
        data[key] = value
        with pytest.raises(ConfigurationError, match=f"retired config field '{key}'"):
            ModelConfig.from_json(json.dumps(data))

    def test_retired_offline_mode_points_to_flag(self):
        data = json.loads(SIDECAR_WITH_RETIRED_KEYS)
        data["attention_mode"] = "offline"
        with pytest.raises(ConfigurationError, match="attention_mode.*--mode offline"):
            ModelConfig.from_json(json.dumps(data))

    def test_ten_level_sidecar_at_1024_bins_rejected(self):
        # its ladder mirrors at 1024 bins, but the analysis gives 512
        data = {"encoder_channels": [2] * 10, "decoder_channels": [2] * 9 + [1],
                "tfsm_hidden": [2], "freq_bins": 1024}
        with pytest.raises(ConfigurationError, match="freq_bins"):
            ModelConfig.from_json(json.dumps(data))
        del data["freq_bins"]
        with pytest.raises(ConfigurationError, match="returns 1024 frequency bins"):
            ModelConfig.from_json(json.dumps(data))

    def test_non_object_rejected(self):
        with pytest.raises(ConfigurationError, match="object"):
            ModelConfig.from_json("[1, 2]")

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            ModelConfig.from_json('{"bogus": 3}')

    @pytest.mark.parametrize("key, value", [
        ("kernel", [5]), ("stride", [2]), ("stride", [2, 1, 1]), ("kernel", [5, 2.0]),
        ("encoder_channels", 5), ("tfsm_hidden", [128, "64", 32]),
        ("decoder_channels", None), ("pool_window", "15"), ("pool_window", True),
        ("freq_pad", 2.0)])
    def test_malformed_field_rejected(self, key, value):
        # a field is a list of integers; a retired key, fixed or derived, is
        # refused unless it holds the engine's value
        want = "must be" if key in ("encoder_channels", "tfsm_hidden") else "is"
        with pytest.raises(ConfigurationError, match=f"config field '{key}' {want}"):
            ModelConfig.from_json(json.dumps({key: value}))

    def test_negative_channel_count_rejected(self):
        for field in ({"encoder_channels": [16, 32, -64, 128, 128]}, {"tfsm_hidden": [0]}):
            with pytest.raises(ConfigurationError, match="channel counts"):
                ModelConfig.from_json(json.dumps(field))

    def test_mismatched_decoder_rejected(self):
        # the decoder is derived: a sidecar's must be the mirror of its encoder
        sidecar = {"encoder_channels": [4, 8], "decoder_channels": [8, 4, 1]}
        with pytest.raises(ConfigurationError, match=r"'decoder_channels'.*only \[4, 1\]"):
            ModelConfig.from_json(json.dumps(sidecar))

    @pytest.mark.parametrize("kernel", [(5, 0), (0, 2)])
    def test_kernel_size_below_one_rejected(self, kernel):
        with pytest.raises(ConfigurationError, match=r"'kernel'.*only \[5, 2\]"):
            ModelConfig.from_json(json.dumps({"kernel": list(kernel)}))

    def test_frequency_stride_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match=r"'stride'.*only \[2, 1\]"):
            ModelConfig.from_json(json.dumps({"stride": [0, 1]}))

    def test_non_mirror_padding_rejected(self):
        with pytest.raises(ConfigurationError, match="retired config field 'freq_out_pad'"):
            ModelConfig.from_json(json.dumps({"freq_out_pad": 0}))

    @pytest.mark.parametrize("fields", [
        dict(stride=[1, 1], freq_pad=-1, freq_out_pad=0),
        dict(encoder_channels=[2, 2], decoder_channels=[2, 1], tfsm_hidden=[4], freq_pad=-2)])
    def test_negative_freq_pad_rejected(self, fields):
        # sidecars whose ladders mirror at a negative padding: refused before
        # any conv kernel sees them
        with pytest.raises(ConfigurationError, match="retired config field '(stride|freq_pad)'"):
            ModelConfig.from_json(json.dumps(fields))

    @pytest.mark.parametrize("config, decoder", [
        (DEFAULT_CONFIG, (128, 64, 32, 16, 1)),
        (ModelConfig(encoder_channels=(2, 2, 2, 2, 2), tfsm_hidden=(2,)), (2, 2, 2, 2, 1)),
        (ModelConfig(encoder_channels=(3, 4), tfsm_hidden=(2,)), (3, 1))])
    def test_decoder_channels_mirror_encoder(self, config, decoder):
        assert config.decoder_channels == decoder

    def test_fields_are_the_two_sizes(self):
        assert [f.name for f in dataclasses.fields(ModelConfig)] == [
            "encoder_channels", "tfsm_hidden"]
        assert set(json.loads(DEFAULT_CONFIG.to_json())) == {"encoder_channels", "tfsm_hidden"}
        for key in ("decoder_channels", "kernel", "stride", "freq_pad", "freq_out_pad",
                    "pool_window"):
            with pytest.raises(TypeError, match=key):
                ModelConfig(**{key: None})

    def test_eight_field_sidecar_of_small_config_loads(self):
        # as --config-out wrote a config while its geometry, its pooling window
        # and its decoder were fields
        sidecar = {"encoder_channels": [4, 8], "decoder_channels": [4, 1], "kernel": [5, 2],
                   "stride": [2, 1], "freq_pad": 2, "freq_out_pad": 1, "tfsm_hidden": [8],
                   "pool_window": 15}
        config = ModelConfig.from_json(json.dumps(sidecar))
        assert config == ModelConfig(encoder_channels=(4, 8), tfsm_hidden=(8,))


class TestParamCount:

    def test_degenerate_single_conv_block(self):
        # the smallest model: the input attention, one single-channel 5x2 conv
        # block, its attention skip, and one 5x2 deconv block emitting the mask
        config = ModelConfig(encoder_channels=(1,), tfsm_hidden=())
        tensors = init_weights(config, seed=0)
        groups = param_breakdown(tensors)
        c_in = tensors["enc.0.conv.w"].shape[1]
        assert c_in == NUM_CHANNELS
        # a 5x2 weight from each input channel + one bias, two learned norm
        # scalars, one slope
        assert groups["enc.0"] == c_in * 5 * 2 + 1 + 2 + 1 == 44
        # 5x2 weights from the two concatenated channels + one bias, two norm
        # scalars, and no slope: the last block ends in Tanh
        assert groups["dec.0"] == 2 * 5 * 2 + 1 + 2 == 23

        def attention(c):
            return sum(int(np.prod(shape_of(c))) for _, shape_of in TFCA_PARAM_SHAPES)
        assert groups["fuse"] == attention(c_in)
        assert groups["skip.0"] == attention(1)
        assert list(groups) == ["fuse", "enc.0", "skip.0", "dec.0"]
        assert param_count_of(tensors) == attention(c_in) + 44 + attention(1) + 23

    def test_deployed_config_near_reported_size(self):
        tensors = init_weights(DEFAULT_CONFIG, seed=0)
        count = param_count_of(tensors)
        assert abs(count / 2.61e6 - 1.0) <= 0.40
        groups = param_breakdown(tensors)
        assert sum(groups.values()) == count
        assert any(k.startswith("enc.") for k in groups)

    def test_deployed_count_pinned(self):
        # the 1.72 M that the paper quotes for the deployed model
        assert param_count_of(init_weights(DEFAULT_CONFIG, seed=7)) == 1_720_007

    def test_running_stats_not_counted(self):
        tensors = init_weights(DEFAULT_CONFIG, seed=0)
        total_values = sum(a.size for a in tensors.values())
        stats = sum(a.size for n, a in tensors.items()
                    if n.endswith((".bn.mean", ".bn.var")))
        assert param_count_of(tensors) == total_values - stats


class TestWeightValidation:

    def test_missing_tensor_named(self):
        tensors = init_weights(DEFAULT_CONFIG, seed=0)
        del tensors["enc.2.conv.w"]
        with pytest.raises(WeightError, match="enc.2.conv.w"):
            Model(DEFAULT_CONFIG, tensors)

    def test_extra_tensor_named(self):
        tensors = init_weights(DEFAULT_CONFIG, seed=0)
        tensors["enc.9.conv.w"] = np.zeros(3, dtype=F32)
        with pytest.raises(WeightError, match="enc.9.conv.w"):
            Model(DEFAULT_CONFIG, tensors)

    def test_misshaped_tensor_named(self):
        tensors = init_weights(DEFAULT_CONFIG, seed=0)
        tensors["dec.1.conv.b"] = np.zeros(7, dtype=F32)
        with pytest.raises(WeightError, match="dec.1.conv.b"):
            Model(DEFAULT_CONFIG, tensors)

    def test_layout_matches_init(self):
        layout = weight_layout(DEFAULT_CONFIG)
        tensors = init_weights(DEFAULT_CONFIG, seed=0)
        assert list(layout) == list(tensors)
        for name, shape in layout.items():
            assert tuple(tensors[name].shape) == shape

    def test_layout_pinned(self):
        # the names, their order and their shapes fix every seeded weight and
        # what a weight file holds: the digest is of the layout as of 2c4de71
        layout = weight_layout(DEFAULT_CONFIG)
        lines = "".join(f"{name}:{shape}\n" for name, shape in layout.items())
        assert len(layout) == 308
        assert hashlib.sha256(lines.encode()).hexdigest() == (
            "238fc427436c1f6c2aa0d811cc79539cc84db1e3b24148fb1a93ee4e37dd6108")


class TestForward:

    def test_one_second_shapes(self, default_model, rng):
        wave = rng.uniform(-1, 1, 16000).astype(F32)
        enhanced, mask = default_model.forward(wave)
        assert enhanced.shape == (16000,)
        assert mask.shape == (512, 122)
        assert np.all(np.isfinite(enhanced))

    def test_mask_within_unit_range(self, default_model, rng):
        wave = rng.uniform(-1, 1, 8000).astype(F32)
        _, mask = default_model.forward(wave)
        assert np.all(mask >= -1.0) and np.all(mask <= 1.0)

    @pytest.mark.parametrize("mode", ["cumulative", "offline"])
    def test_constant_mask_scales_input(self, rng, mode):
        # a zero last decoder conv with batch-norm shift atanh(c) makes the
        # Tanh mask the constant c whatever the network computes; analysis
        # and synthesis then return c * input up to float32 rounding
        c = 0.625
        beta = F32(np.arctanh(c))
        tensors = init_weights(DEFAULT_CONFIG, seed=7)
        tensors["dec.4.conv.w"] = np.zeros_like(tensors["dec.4.conv.w"])
        tensors["dec.4.conv.b"] = np.zeros_like(tensors["dec.4.conv.b"])
        tensors["dec.4.bn.beta"] = np.full_like(tensors["dec.4.bn.beta"], beta)
        wave = rng.uniform(-1, 1, 3000).astype(F32)
        enhanced, mask = Model(DEFAULT_CONFIG, tensors).forward(wave, mode=mode)
        assert np.all(mask == F32(np.tanh(np.float64(beta))))
        err = np.abs(enhanced.astype(np.float64) - c * wave.astype(np.float64)).max()
        assert err <= 16 * 2.0 ** -24 * c * np.abs(wave).max()

    @pytest.mark.parametrize("mode", ["cumulative", "offline"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, default_model, rng, mode, bad):
        wave = rng.uniform(-1, 1, 2000).astype(F32)
        wave[1234] = bad
        with pytest.raises(NonFiniteInputError, match="index 1234"):
            default_model.forward(wave, mode=mode)

    @pytest.mark.parametrize("mode", ["cumulative", "offline"])
    def test_sample_beyond_float32_range_rejected(self, default_model, rng, mode):
        wave = rng.uniform(-1, 1, 2000)
        wave[1234] = 1e39                       # overflows the float32 cast
        with pytest.raises(NonFiniteInputError, match="index 1234"):
            default_model.forward(wave, mode=mode)

    def test_too_short_input_rejected(self, default_model):
        with pytest.raises(SignalTooShortError):
            default_model.forward(np.zeros(100, dtype=F32))

    def test_unknown_mode_rejected(self, default_model):
        with pytest.raises(ConfigurationError, match="unknown attention mode 'bogus'"):
            default_model.forward(np.zeros(600, dtype=F32), mode="bogus")

    def test_offline_mode_runs_same_shapes(self, default_model, rng):
        wave = rng.uniform(-1, 1, 4000).astype(F32)
        enhanced, mask = default_model.forward(wave, mode="offline")
        assert enhanced.shape == (4000,)
        # 28 complete frames plus the zero-padded frame covering the 32-sample tail
        assert mask.shape == (512, 29)

    def test_forward_without_decoder_rejected(self):
        # the mask comes from the last decoder block, which mirrors the
        # encoder: a model with no encoder block is rejected where its
        # configuration is built, before any forward
        with pytest.raises(ConfigurationError, match="needs an encoder block"):
            ModelConfig(encoder_channels=(), tfsm_hidden=())


def _block_and_input(model, name, rng, frames=20):
    """A deployed block and a random map of its input shape in the network."""
    kind, idx = name.split(".") if "." in name else (name, 0)
    idx = int(idx)
    blk = model.fuse if kind == "fuse" else getattr(model, kind)[idx]
    freqs = model.config.encoder_freqs()
    f_dim = {"fuse": freqs[0], "enc": freqs[idx], "tfsm": freqs[-1], "skip": freqs[idx + 1],
             "dec": freqs[-1 - idx], "dectfca": freqs[-2 - idx]}[kind]
    c = blk.c_in if kind in ("enc", "dec") else blk.channels
    return blk, rng.uniform(-1, 1, (c, f_dim, frames)).astype(F32)


CONV_BLOCKS = [f"enc.{i}" for i in range(5)] + [f"dec.{j}" for j in range(5)]
ALL_BLOCKS = (["fuse"] + CONV_BLOCKS + [f"tfsm.{j}" for j in range(3)]
              + [f"skip.{i}" for i in range(5)] + [f"dectfca.{j}" for j in range(4)])


def _step_in_runs(blk, x, sizes):
    """``step`` over consecutive runs of ``sizes`` frames with one carried state."""
    state, outs, t = blk.init_state(), [], 0
    for n in sizes:
        outs.append(blk.step(x[:, :, t:t + n], state))
        t += n
    return np.concatenate(outs, axis=2)


class TestBlockForwardEqualsSteps:
    """Each block's one n-frame ``step``: the whole map (``forward``, a step on
    a fresh state) against the frame-at-a-time steps a stream makes and
    against uneven runs of frames."""

    @pytest.mark.parametrize("name", ALL_BLOCKS)
    def test_forward_bit_identical_to_steps(self, default_model, rng, name):
        # more frames than one pass of the kernels takes
        t_dim = FRAMES_PER_PASS + 8
        blk, x = _block_and_input(default_model, name, rng, frames=t_dim)
        whole = blk.forward(x)
        assert whole.shape[2] == t_dim and whole.dtype == F32
        assert _step_in_runs(blk, x, [t_dim]).tobytes() == whole.tobytes()
        for sizes in ([1] * t_dim, [7, 1, 12, t_dim - 20]):
            split = _step_in_runs(blk, x, sizes)
            assert split.shape == whole.shape and split.dtype == F32
            assert split.tobytes() == whole.tobytes(), sizes

    @pytest.mark.parametrize("name, out_shape", [
        ("fuse", (4, 512, 3)), ("enc.0", (16, 256, 3)), ("tfsm.0", (128, 16, 3)),
        ("dec.4", (1, 512, 3))])
    def test_step_of_three_frames(self, default_model, rng, name, out_shape):
        # one call of step takes a (C, F, 3) map and returns three frames
        blk, x = _block_and_input(default_model, name, rng, frames=6)
        state = blk.init_state()
        head = blk.step(x[:, :, :3], state)
        assert head.shape == out_shape and head.dtype == F32
        tail = blk.step(x[:, :, 3:], state)
        assert np.concatenate([head, tail], axis=2).tobytes() == blk.forward(x).tobytes()

    # per-frame byte identity of the float32 kernels alone, before the batch
    # norm and activation; the test names are kept from the float64 kernels
    @pytest.mark.parametrize("name", CONV_BLOCKS)
    def test_conv_kernel_float64_per_frame(self, default_model, rng, name):
        blk, x = _block_and_input(default_model, name, rng)
        k_t, t_dim = blk.k_t, x.shape[2]
        frames = np.concatenate([np.zeros((k_t - 1,) + x.shape[:2], dtype=F32),
                                 x.transpose(2, 0, 1)])
        if blk.transposed:
            def kernel(v):
                return deconv_frame_taps(v, blk.w, len(blk.b))
        else:
            def kernel(v):
                return conv_frame_taps(v, blk.w, 2, 2)
        whole = kernel(frames)
        assert whole.dtype == F32
        framewise = np.concatenate([kernel(frames[t:t + k_t]) for t in range(t_dim)])
        assert whole.tobytes() == framewise.tobytes()

    @pytest.mark.parametrize("j", range(3))
    def test_bigru_float64_per_frame(self, default_model, rng, j):
        blk, x = _block_and_input(default_model, f"tfsm.{j}", rng)
        seq = np.ascontiguousarray(x.transpose(2, 1, 0))                    # (T, F, C)
        whole = blk._freq_gru(seq)
        assert whole.dtype == F32
        framewise = np.concatenate([blk._freq_gru(seq[t:t + 1]) for t in range(len(seq))])
        assert whole.tobytes() == framewise.tobytes()


class TestWholeMapForward:
    """A block's whole-map ``forward`` steps a fresh state over the map in
    passes of at most ``FRAMES_PER_PASS`` frames."""

    @pytest.mark.parametrize("name", ["enc.0", "tfsm.0", "skip.4", "dec.0"])
    def test_steps_in_passes_in_order(self, default_model, rng, name):
        blk, x = _block_and_input(default_model, name, rng, frames=70)
        with mock.patch.object(blk, "step", wraps=blk.step) as step:
            blk.forward(x)
        parts = [c.args[0] for c in step.call_args_list]
        assert len(parts) == 3
        assert all(p.shape[2] <= FRAMES_PER_PASS for p in parts)
        assert len({id(c.args[1]) for c in step.call_args_list}) == 1
        assert np.concatenate(parts, axis=2).tobytes() == x.tobytes()

    @pytest.mark.parametrize("name", ["fuse", "enc.0", "tfsm.0", "skip.0", "dec.0"])
    def test_transient_memory_flat_in_frames(self, default_model, rng, name):
        # beyond the output, held twice (the passes' outputs and their joined
        # copy), a forward's tracemalloc peak stays what one pass needs
        transient = []
        for frames in (64, 256):
            blk, x = _block_and_input(default_model, name, rng, frames=frames)
            tracemalloc.start()
            try:
                y = blk.forward(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            transient.append(peak - 2 * y.nbytes)
        assert transient[1] <= transient[0] + 2 ** 18, [t / 2 ** 20 for t in transient]


class TestFloat32Contract:
    """The network computes in float32; the attention's running score sums
    stay float64, each frame adding its exact outer product."""

    def test_every_block_steps_in_float32(self, default_model, rng):
        for name in ALL_BLOCKS:
            blk, x = _block_and_input(default_model, name, rng, frames=4)
            state = blk.init_state()
            for part in (x[:, :, :1], x[:, :, 1:]):
                assert blk.step(part, state).dtype == F32, name

    def test_history_four_bytes_per_value(self, default_model, rng):
        # 9 frames; per frame 10 time keys and the ten blocks' C * F values
        wave = rng.uniform(-1, 1, 1536).astype(F32)
        state = StreamState(default_model)
        stream_push(state, default_model, wave)
        assert state.frame_index == 9
        assert state.history_bytes == 9 * 4 * 36_874

    @pytest.mark.parametrize("name", ["fuse", "skip.4", "dectfca.3"])
    def test_score_sums_exact_float64(self, default_model, rng, name):
        blk, x = _block_and_input(default_model, name, rng, frames=12)
        state = blk.init_state()
        for t0, t1 in ((0, 1), (1, 5), (5, 12)):
            blk.step(x[:, :, t0:t1], state)
        _, _, fqk, cqk = blk.project(x, blk.init_state())
        for got, qk in ((state.score_f, fqk), (state.score_c, cqk)):
            want = np.zeros((qk.shape[2], qk.shape[2]))
            for q, k in qk.astype(np.float64):
                want += np.multiply.outer(q, k)
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()


class TestTargetMask:

    def test_equal_spectra_near_one(self, rng):
        x = rng.uniform(1.0, 2.0, (512, 4)).astype(F32) * np.sign(rng.normal(size=(512, 4)))
        mask = target_mask(x, x)
        np.testing.assert_allclose(mask, 1.0, atol=1e-6)

    def test_zero_clean_zero_mask(self, rng):
        x = rng.uniform(-1, 1, (512, 3)).astype(F32)
        assert np.all(target_mask(np.zeros_like(x), x) == 0.0)

    def test_always_bounded(self, rng):
        s = rng.normal(0, 5, (512, 6)).astype(F32)
        x = rng.normal(0, 0.1, (512, 6)).astype(F32)
        mask = target_mask(s, x)
        assert np.all(mask >= -1.0) and np.all(mask <= 1.0)


class TestLoss:

    def test_perfect_match_zero(self, rng):
        s = rng.uniform(-1, 1, 2000).astype(F32)
        m = rng.uniform(-1, 1, (512, 4)).astype(F32)
        assert loss_fn(s, s, m, m) == 0.0

    def test_constant_offset_gives_one(self, rng):
        s = rng.uniform(-1, 1, 2000).astype(F32)
        m = rng.uniform(-1, 1, (512, 4)).astype(F32)
        assert abs(loss_fn(s + 1.0, s, m, m) - 1.0) <= 1e-6

    def test_matches_scalar_loop_oracle(self, rng):
        e = rng.uniform(-1, 1, 300).astype(F32)
        r = rng.uniform(-1, 1, 300).astype(F32)
        em = rng.uniform(-1, 1, (16, 5)).astype(F32)
        rm = rng.uniform(-1, 1, (16, 5)).astype(F32)
        l1 = sum(abs(float(a) - float(b)) for a, b in zip(e, r)) / 300
        mse = sum((float(a) - float(b)) ** 2
                  for a, b in zip(em.ravel(), rm.ravel())) / em.size
        assert abs(loss_fn(e, r, em, rm) - (l1 + mse)) <= 1e-6


def si_snr_loop_oracle(est, ref, cap=120.0):
    e = [float(v) for v in est]
    r = [float(v) for v in ref]
    me, mr = sum(e) / len(e), sum(r) / len(r)
    e = [v - me for v in e]
    r = [v - mr for v in r]
    dot = sum(a * b for a, b in zip(e, r))
    energy = sum(v * v for v in r)
    proj = [dot / energy * v for v in r]
    p_sig = sum(v * v for v in proj)
    p_noise = sum((a - b) ** 2 for a, b in zip(e, proj))
    if p_noise == 0 or p_sig / p_noise >= 10 ** (cap / 10):
        return cap
    if p_sig == 0 or p_sig / p_noise <= 10 ** (-cap / 10):
        return -cap
    return 10 * np.log10(p_sig / p_noise)


class TestSiSnr:

    def test_perfect_match_capped(self, rng):
        s = rng.uniform(-1, 1, 1000).astype(F32)
        assert si_snr(s, s) == 120.0

    def test_scaled_estimate_capped(self, rng):
        s = rng.uniform(-1, 1, 1000).astype(F32)
        assert si_snr(2.0 * s, s) == 120.0

    def test_target_scale_invariance(self, rng):
        e = rng.uniform(-1, 1, 1000).astype(F32)
        r = rng.uniform(-1, 1, 1000).astype(F32)
        # power-of-two scale keeps the scaled target exactly representable
        assert abs(si_snr(e, r) - si_snr(e, 4.0 * r)) <= 1e-9

    def test_matches_scalar_loop_oracle(self, rng):
        for _ in range(5):
            e = rng.uniform(-1, 1, 400).astype(F32)
            r = rng.uniform(-1, 1, 400).astype(F32)
            assert abs(si_snr(e, r) - si_snr_loop_oracle(e, r)) <= 1e-4

    def test_zero_target_rejected(self, rng):
        e = rng.uniform(-1, 1, 100).astype(F32)
        with pytest.raises(UndefinedMetricError):
            si_snr(e, np.zeros(100, dtype=F32))
        with pytest.raises(UndefinedMetricError):
            si_snr(e, np.full(100, 0.7, dtype=F32))   # constant zero-means to nothing

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            si_snr(np.zeros(10, dtype=F32), np.ones(11, dtype=F32))


class TestDeterminism:

    def test_same_seed_same_count_and_breakdown(self):
        a = init_weights(DEFAULT_CONFIG, seed=99)
        b = init_weights(DEFAULT_CONFIG, seed=99)
        assert param_count_of(a) == param_count_of(b)
        assert param_breakdown(a) == param_breakdown(b)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])
