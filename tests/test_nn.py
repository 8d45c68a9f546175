"""Unit tests for the numeric primitives: shapes, trivial identities, causality."""

import numpy as np
import pytest

from ofifnet.errors import ConfigurationError, WeightError
from ofifnet.model import _ConvBlock
from ofifnet.nn import BN_EPS, Gru, causal_pool_time, masked_softmax
from ofifnet.tfca import TFCA_PARAM_SHAPES, TfcaBlock
from ofifnet.tfsm import TfsmBlock

F32 = np.float32


def fmap(rng, c, f, t):
    return rng.uniform(-1.0, 1.0, (c, f, t)).astype(F32)


def linear_conv(w, b, stride=(2, 1), pad_f=0, out_pad_f=0, transposed=False):
    """The live conv block with identity batch norm and a slope-1 PReLU, so
    its output is the causal (transposed) convolution alone."""
    c = w.shape[1] if transposed else w.shape[0]
    ones = np.ones(c)
    return _ConvBlock(w, b, np.full(c, np.sqrt(1.0 + BN_EPS)), np.zeros(c), np.zeros(c),
                      ones, ones, stride, pad_f, out_pad_f=out_pad_f, transposed=transposed)


class TestConv2dCausal:
    """Causal convolution as the live ``_ConvBlock`` computes it."""

    def test_encoder_entry_shape(self, rng):
        x = fmap(rng, 4, 512, 10)
        w = rng.uniform(-0.1, 0.1, (16, 4, 5, 2)).astype(F32)
        b = rng.uniform(-0.1, 0.1, 16).astype(F32)
        assert linear_conv(w, b, stride=(2, 1), pad_f=2).forward(x).shape == (16, 256, 10)

    def test_identity_kernel(self, rng):
        x = fmap(rng, 1, 7, 5)
        w = np.ones((1, 1, 1, 1), dtype=F32)
        b = np.zeros(1, dtype=F32)
        y = linear_conv(w, b, stride=(1, 1), pad_f=0).forward(x)
        assert np.array_equal(y, x)

    def test_prefix_stability_bit_exact(self, rng):
        x = fmap(rng, 3, 16, 12)
        w = rng.uniform(-0.5, 0.5, (5, 3, 5, 2)).astype(F32)
        b = rng.uniform(-0.5, 0.5, 5).astype(F32)
        t0 = 7
        x2 = x.copy()
        x2[:, :, t0:] += 1.0
        y1 = linear_conv(w, b, stride=(2, 1), pad_f=2).forward(x)
        y2 = linear_conv(w, b, stride=(2, 1), pad_f=2).forward(x2)
        assert np.array_equal(y1[:, :, :t0], y2[:, :, :t0])
        assert not np.array_equal(y1[:, :, t0:], y2[:, :, t0:])

    def test_weight_shape_mismatch(self, rng):
        x = fmap(rng, 3, 16, 4)
        w = rng.uniform(-1, 1, (5, 4, 5, 2)).astype(F32)   # expects 4 channels
        with pytest.raises(ConfigurationError):
            linear_conv(w, np.zeros(5, dtype=F32), pad_f=2).forward(x)

    def test_frequency_ladder_composes(self, rng):
        # the deployed kernel/stride/padding halve 512 bins five times to 16
        f = 512
        for _ in range(5):
            x = fmap(rng, 2, f, 3)
            w = rng.uniform(-0.1, 0.1, (2, 2, 5, 2)).astype(F32)
            b = np.zeros(2, dtype=F32)
            f = linear_conv(w, b, stride=(2, 1), pad_f=2).forward(x).shape[1]
        assert f == 16


class TestDeconv2dCausal:
    """Causal transposed convolution as the live ``_ConvBlock`` computes it."""

    def test_decoder_doubling_shape(self, rng):
        x = fmap(rng, 128, 16, 3)
        w = rng.uniform(-0.05, 0.05, (128, 128, 5, 2)).astype(F32)
        b = np.zeros(128, dtype=F32)
        y = linear_conv(w, b, stride=(2, 1), pad_f=2, out_pad_f=1, transposed=True).forward(x)
        assert y.shape == (128, 32, 3)

    def test_mirror_back_to_512(self, rng):
        f = 16
        for _ in range(5):
            x = fmap(rng, 2, f, 2)
            w = rng.uniform(-0.1, 0.1, (2, 2, 5, 2)).astype(F32)
            block = linear_conv(w, np.zeros(2, dtype=F32), stride=(2, 1), pad_f=2,
                                out_pad_f=1, transposed=True)
            y = block.forward(x)
            f = y.shape[1]
        assert f == 512

    def test_identity_kernel(self, rng):
        x = fmap(rng, 1, 9, 4)
        w = np.ones((1, 1, 1, 1), dtype=F32)
        y = linear_conv(w, np.zeros(1, dtype=F32), stride=(1, 1), transposed=True).forward(x)
        assert np.array_equal(y, x)

    def test_prefix_stability_bit_exact(self, rng):
        x = fmap(rng, 4, 8, 10)
        w = rng.uniform(-0.5, 0.5, (4, 3, 5, 2)).astype(F32)
        b = rng.uniform(-0.5, 0.5, 3).astype(F32)
        t0 = 6
        x2 = x.copy()
        x2[:, :, t0:] *= -1.0
        y1 = linear_conv(w, b, pad_f=2, out_pad_f=1, transposed=True).forward(x)
        y2 = linear_conv(w, b, pad_f=2, out_pad_f=1, transposed=True).forward(x2)
        assert np.array_equal(y1[:, :, :t0], y2[:, :, :t0])

    def test_negative_output_size_rejected(self, rng):
        x = fmap(rng, 1, 1, 2)
        w = rng.uniform(-1, 1, (1, 1, 5, 2)).astype(F32)
        block = linear_conv(w, np.zeros(1, dtype=F32), stride=(2, 1), pad_f=3, transposed=True)
        with pytest.raises(ConfigurationError):
            block.forward(x)


class TestGru:
    """The one GRU kernel, ``Gru.scan``, and the time recurrence of the live
    ``TfsmBlock``."""

    @staticmethod
    def random_params(rng, d_in, hidden, scale=0.5):
        return (rng.uniform(-scale, scale, (3 * hidden, d_in)),
                rng.uniform(-scale, scale, (3 * hidden, hidden)),
                rng.uniform(-scale, scale, 3 * hidden))

    def test_zero_weights_zero_output(self, rng):
        gru = Gru((np.zeros((6, 3)), np.zeros((6, 2)), np.zeros(6)))
        x = rng.uniform(-1, 1, (5, 1, 4, 1, 3)).astype(F32)
        states = np.zeros((6, 1, 4, 1, 2), dtype=F32)
        gru.scan(x @ gru.w_in, states)
        assert np.all(states == 0.0)

    def test_matches_float64_reference(self, rng):
        # the documented gate convention, evaluated in float64 one row at a time
        w, u, b = self.random_params(rng, 3, 4)
        gru = Gru((w, u, b))
        x = rng.uniform(-1, 1, (6, 1, 5, 1, 3)).astype(F32)
        states = np.zeros((7, 1, 5, 1, 4), dtype=F32)
        gru.scan(x @ gru.w_in, states)
        w, u, b = (np.asarray(a, dtype=F32).astype(np.float64) for a in (w, u, b))
        hs = np.zeros((5, 4))
        for t in range(6):
            gx, gh = x[t, 0, :, 0] @ w.T, hs @ u.T
            r = 1.0 / (1.0 + np.exp(-(gx[:, :4] + gh[:, :4] + b[:4])))
            z = 1.0 / (1.0 + np.exp(-(gx[:, 4:8] + gh[:, 4:8] + b[4:8])))
            n = np.tanh(gx[:, 8:] + r * (gh[:, 8:] + b[8:]))
            hs = (1.0 - z) * n + z * hs
            np.testing.assert_allclose(states[t + 1, 0, :, 0], hs, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("d, h, batch, length", [
        (3, 2, 4, 5), (16, 8, 1, 7), (128, 32, 16, 8), (128, 64, 32, 16), (128, 128, 16, 16)])
    def test_scan_bit_contract(self, rng, d, h, batch, length):
        # three stacked GRUs; d = 128 with h = 32, 64, 128 are the bottleneck's
        # shapes: 16 bins scanned with up to 32 frames as the batch, or the
        # reverse
        params = [self.random_params(rng, d, h) for _ in range(3)]
        gru = Gru(*params)
        x = rng.uniform(-1, 1, (length, 3, batch, 1, d)).astype(F32)
        init = rng.uniform(-1, 1, (3, batch, 1, h)).astype(F32)
        gx = x @ gru.w_in                  # scan adds biases into its gx: pass copies
        states = np.empty((length + 1, 3, batch, 1, h), dtype=F32)
        states[0] = init
        gru.scan(gx.copy(), states)
        # each stacked GRU gets exactly its bytes alone
        for k, p in enumerate(params):
            one = Gru(p)
            alone = np.empty((length + 1, 1, batch, 1, h), dtype=F32)
            alone[0] = init[k]
            one.scan(x[:, k:k + 1] @ one.w_in, alone)
            assert alone[:, 0].tobytes() == states[:, k].tobytes()
        # L one-step scans carrying the state give the bytes of one scan
        carried = init
        for t in range(length):
            pair = np.empty((2, 3, batch, 1, h), dtype=F32)
            pair[0] = carried
            gru.scan(gx[t:t + 1].copy(), pair)
            carried = pair[1]
            assert carried.tobytes() == states[t + 1].tobytes()
        # a subset of the batch gets the same bytes
        rows = np.arange(batch)[::-2]
        part = np.empty((length + 1, 3, len(rows), 1, h), dtype=F32)
        part[0] = init[:, rows]
        gru.scan(gx[:, :, rows], part)
        assert part.tobytes() == np.ascontiguousarray(states[:, :, rows]).tobytes()

    def test_inconsistent_shapes_rejected(self, rng):
        w, u, b = self.random_params(rng, 3, 2)
        with pytest.raises(ConfigurationError):
            Gru((w, u, b[:5]))
        with pytest.raises(ConfigurationError):
            Gru((w, u, b), self.random_params(rng, 4, 2))

    def test_single_step_equals_sequence_of_one(self, default_model, rng):
        # a one-frame step is the first frame of a longer sequence
        blk = default_model.tfsm[2]
        x = fmap(rng, 128, 16, 5)
        stepped = blk.step(x[:, :, :1], blk.init_state())
        assert stepped.tobytes() == blk.forward(x)[:, :, :1].tobytes()

    def test_batch_equals_incremental_bit_exact(self, default_model, rng):
        # a state carried across two runs of steps gives the one-run output
        blk = default_model.tfsm[2]
        x = fmap(rng, 128, 16, 13)
        state = blk.init_state()
        head = blk.step(x[:, :, :6], state)
        tail = blk.step(x[:, :, 6:], state)
        assert np.concatenate([head, tail], axis=2).tobytes() == blk.forward(x).tobytes()


def bigru_frames(x, fwd, bwd):
    """(C, F, T) -> (2h, F, T) through the live bidirectional frequency stage
    of a ``TfsmBlock`` holding the two directions' weights."""
    w, u, _ = fwd
    h, c = len(u[0]), len(w[0])
    params = {f"{d}.{k}": v for d, p in (("ffwd", fwd), ("fbwd", bwd), ("time", fwd))
              for k, v in zip("WUb", p)}
    params.update({"fproj.w": np.zeros((c, 2 * h)), "fproj.b": np.zeros(c),
                   "tproj.w": np.zeros((c, h)), "tproj.b": np.zeros(c)})
    seq = np.asarray(x, dtype=F32).transpose(2, 1, 0)
    return TfsmBlock(c, h, params)._freq_gru(seq).transpose(2, 1, 0)


class TestBiGruOverFrequency:

    def test_zero_weights_zero_output(self, rng):
        fwd = (np.zeros((6, 3)), np.zeros((6, 2)), np.zeros(6))
        bwd = (np.zeros((6, 3)), np.zeros((6, 2)), np.zeros(6))
        x = fmap(rng, 3, 5, 4)
        out = bigru_frames(x, fwd, bwd)
        assert out.shape == (4, 5, 4)
        assert np.all(out == 0.0)

    def test_per_frame_independence(self, rng):
        fwd = TestGru.random_params(rng, 3, 2)
        bwd = TestGru.random_params(rng, 3, 2)
        x = fmap(rng, 3, 6, 7)
        t0 = 3
        x2 = x.copy()
        x2[:, :, t0] += 1.0
        y1 = bigru_frames(x, fwd, bwd)
        y2 = bigru_frames(x2, fwd, bwd)
        others = [t for t in range(7) if t != t0]
        assert np.array_equal(y1[:, :, others], y2[:, :, others])
        assert not np.array_equal(y1[:, :, t0], y2[:, :, t0])

    def test_direction_swap_reversal_symmetry(self, rng):
        # reversing frequency and swapping direction weights reverses the
        # output and swaps its forward/backward halves
        fwd = TestGru.random_params(rng, 3, 2)
        bwd = TestGru.random_params(rng, 3, 2)
        x = fmap(rng, 3, 6, 2)
        y = bigru_frames(x, fwd, bwd)
        y_swap = bigru_frames(x[:, ::-1, :], bwd, fwd)
        h = 2
        np.testing.assert_array_equal(y_swap[:h], y[h:, ::-1, :])
        np.testing.assert_array_equal(y_swap[h:], y[:h, ::-1, :])


def pointwise_block(c, gamma=None, beta=None, mean=None, var=None, slopes=None,
                    final_tanh=False):
    """The live conv block with a 1x1 identity conv, so its output is its batch
    norm and activation alone; unset statistics make the batch norm the
    identity and an unset slope makes the PReLU the identity."""
    ones, zeros = np.ones(c), np.zeros(c)
    return _ConvBlock(np.eye(c).reshape(c, c, 1, 1), zeros,
                      np.full(c, np.sqrt(1.0 + BN_EPS)) if gamma is None else gamma,
                      zeros if beta is None else beta, zeros if mean is None else mean,
                      ones if var is None else var, ones if slopes is None else slopes,
                      (1, 1), 0, final_tanh=final_tanh)


class TestBatchnormEval:
    """Evaluation-mode batch norm as the live ``_ConvBlock`` applies it."""

    def test_identity_parameters(self, rng):
        x = fmap(rng, 3, 4, 5)
        assert np.array_equal(pointwise_block(3).forward(x), x)

    def test_zero_gamma_gives_beta(self, rng):
        x = fmap(rng, 2, 3, 4)
        beta = np.array([1.5, -2.0])
        y = pointwise_block(2, gamma=np.zeros(2), beta=beta).forward(x)
        assert np.allclose(y[0], 1.5) and np.allclose(y[1], -2.0)

    def test_matches_scalar_loop_oracle(self, rng):
        x = fmap(rng, 4, 3, 6)
        gamma = rng.uniform(0.5, 2.0, 4)
        beta = rng.uniform(-1, 1, 4)
        mean = rng.uniform(-1, 1, 4)
        var = rng.uniform(0.1, 2.0, 4)
        # slope 1: the PReLU passes the normalized values through
        y = pointwise_block(4, gamma, beta, mean, var).forward(x)
        expect = np.empty_like(x, dtype=np.float64)
        for c in range(4):
            for f in range(3):
                for t in range(6):
                    expect[c, f, t] = (gamma[c] * (float(x[c, f, t]) - mean[c])
                                       / np.sqrt(var[c] + BN_EPS) + beta[c])
        np.testing.assert_allclose(y, expect, atol=1e-6)

    def test_negative_variance_rejected(self):
        with pytest.raises(WeightError):
            pointwise_block(2, var=np.array([1.0, -0.1]))

    def test_pointwise_time_permutation(self, rng):
        x = fmap(rng, 3, 4, 8)
        perm = rng.permutation(8)
        blk = pointwise_block(3, rng.uniform(0.5, 2, 3), rng.uniform(-1, 1, 3),
                              rng.uniform(-1, 1, 3), rng.uniform(0.1, 2, 3))
        assert np.array_equal(blk.forward(x[:, :, perm]), blk.forward(x)[:, :, perm])


class TestActivations:
    """PReLU and the final Tanh as the live ``_ConvBlock`` applies them."""

    def test_prelu_slope_one_identity(self, rng):
        x = fmap(rng, 3, 4, 5)
        assert np.array_equal(pointwise_block(3, slopes=np.ones(3)).forward(x), x)

    def test_prelu_negative_value(self):
        x = np.full((1, 1, 1), -2.0, dtype=F32)
        assert pointwise_block(1, slopes=np.array([0.25])).forward(x)[0, 0, 0] == F32(-0.5)

    def test_tanh_zero_and_range(self, rng):
        blk = pointwise_block(2, final_tanh=True)
        assert np.all(blk.forward(np.zeros((2, 1, 1), dtype=F32)) == 0.0)
        y = blk.forward(fmap(rng, 2, 3, 4) * 50.0)
        assert np.all(y >= -1.0) and np.all(y <= 1.0)

    def test_pointwise_time_permutation(self, rng):
        x = fmap(rng, 2, 3, 9)
        perm = rng.permutation(9)
        for blk in (pointwise_block(2, slopes=rng.uniform(0, 1, 2)),
                    pointwise_block(2, final_tanh=True)):
            assert np.array_equal(blk.forward(x[:, :, perm]), blk.forward(x)[:, :, perm])


class TestMaskedSoftmax:

    def test_single_frame(self):
        np.testing.assert_array_equal(masked_softmax(np.array([[3.7]])), [[1.0]])

    def test_zero_scores_uniform_prefix_rows(self):
        att = masked_softmax(np.zeros((3, 3)))
        expect = np.array([[1, 0, 0], [0.5, 0.5, 0], [1 / 3, 1 / 3, 1 / 3]])
        np.testing.assert_allclose(att, expect, atol=1e-12)

    def test_random_scores_row_stochastic_lower_triangular(self, rng):
        att = masked_softmax(rng.normal(0, 3, (17, 17)))
        assert np.all(np.triu(att, 1) == 0.0)
        np.testing.assert_allclose(att.sum(axis=1), 1.0, atol=1e-6)

    def test_rejects_non_square(self, rng):
        with pytest.raises(ConfigurationError):
            masked_softmax(rng.normal(0, 1, (3, 4)))


def naive_causal_pool(x, window, mode, reduce):
    c, f_dim, t_dim = x.shape
    width = f_dim if reduce == "channel" else c
    out = np.zeros((width, t_dim))
    for t in range(t_dim):
        for i in range(width):
            vals = []
            for dt in range(window):
                tau = t - window + 1 + dt
                sli = (x[:, i, tau] if reduce == "channel" else x[i, :, tau]) \
                    if tau >= 0 else np.zeros(c if reduce == "channel" else f_dim)
                vals.extend(float(v) for v in sli)
            out[i, t] = np.mean(vals) if mode == "avg" else max(vals)
    return out


def project_map(x, window, picks):
    """The live attention projection of a whole (C, F, T) map, with the
    query/key weights in ``picks`` (name -> [w_avg, w_max]) and every other
    weight zero, so that a query or key is exactly one pooled statistic."""
    c = x.shape[0]
    params = {name: np.zeros(shape_of(c)) for name, shape_of in TFCA_PARAM_SHAPES}
    params.update({name: np.asarray(w, dtype=np.float64) for name, w in picks.items()})
    block = TfcaBlock(c, window, params)
    return block.project(x, block.init_state())


PICK = {"avg": [1.0, 0.0], "max": [0.0, 1.0]}


def causal_pool_map(x, window, mode, reduce="channel"):
    """(C, F, T) -> (width, T) trailing-window pooling as the attention block
    runs it: over channels (the frequency branch's query) or over frequency
    (the channel branch's)."""
    if reduce == "channel":
        _, _, qk, _ = project_map(x, window, {"fq.w": PICK[mode]})
    else:
        _, _, _, qk = project_map(x, window, {"cq.w": PICK[mode]})
    return qk[:, 0].T.astype(F32)


def global_pool_map(x, mode):
    """(C, F, T) -> (T,) per-frame pooling over all channels and frequencies,
    as the attention block's time query takes it."""
    _, tqk, _, _ = project_map(x, 15, {"tq.w": PICK[mode]})
    return tqk[:, 0].astype(F32)


class TestCausalPoolTime:
    """Trailing-window pooling through the live attention projection."""

    def test_window_one_single_channel_identity(self, rng):
        x = fmap(rng, 1, 5, 6)
        assert np.array_equal(causal_pool_map(x, 1, "avg"), x[0])

    def test_constant_input_dilution(self):
        v = 3.0
        x = np.full((2, 4, 10), v, dtype=F32)
        out = causal_pool_map(x, 5, "avg")
        np.testing.assert_allclose(out[:, 4:], v, atol=1e-6)
        np.testing.assert_allclose(out[:, 0], v / 5, atol=1e-6)

    def test_prefix_stability(self, rng):
        x = fmap(rng, 3, 4, 12)
        x2 = x.copy()
        x2[:, :, 8:] -= 2.0
        for mode in ("avg", "max"):
            a = causal_pool_map(x, 4, mode)
            b = causal_pool_map(x2, 4, mode)
            assert np.array_equal(a[:, :8], b[:, :8])

    @pytest.mark.parametrize("mode", ["avg", "max"])
    @pytest.mark.parametrize("reduce", ["channel", "frequency"])
    def test_matches_naive_loop_oracle(self, rng, mode, reduce):
        x = fmap(rng, 3, 5, 9)
        got = causal_pool_map(x, 4, mode, reduce=reduce)
        np.testing.assert_allclose(got, naive_causal_pool(x, 4, mode, reduce), atol=1e-6)


def pool_rows(x, window, reduce):
    """(window - 1 + T, 2, width) per-frame sums and maxes of a (C, F, T) map,
    after window - 1 zero rows of history."""
    frames = np.ascontiguousarray(x.transpose(2, 0, 1), dtype=np.float64)
    axis = 1 if reduce == "channel" else 2
    rows = np.zeros((window - 1 + x.shape[2], 2, x.shape[1 if reduce == "channel" else 0]))
    rows[window - 1:, 0] = frames.sum(axis=axis)
    rows[window - 1:, 1] = frames.max(axis=axis)
    return rows


def pool_in_calls(rows, window, sizes):
    """``causal_pool_time`` over consecutive runs of ``sizes`` frames, each
    call given the window - 1 rows before its frames as history."""
    outs, t = [], 0
    for n in sizes:
        outs.append(causal_pool_time(rows[t:t + window - 1 + n], window))
        t += n
    return np.concatenate(outs)


# (C, F) of the deployed attention blocks' inputs: fuse, skip.0, skip.4
DEPLOYED_MAPS = [(4, 512), (16, 256), (128, 16)]


class TestPoolsEqualStreamedState:
    """The pooling kernel gives the same bytes over one frame at a time (as a
    stream calls it), over uneven runs of frames, and over the whole map."""

    @pytest.mark.parametrize("mode", ["avg", "max"])
    @pytest.mark.parametrize("reduce", ["channel", "frequency"])
    @pytest.mark.parametrize("cf", DEPLOYED_MAPS)
    def test_causal_pool_time_bit_identical(self, rng, mode, reduce, cf):
        x = fmap(rng, *cf, 20)
        rows = pool_rows(x, 15, reduce)
        k = 0 if mode == "avg" else 1
        whole = causal_pool_time(rows, 15)[:, k]
        assert whole.shape == (20, rows.shape[2])
        for sizes in ([1] * 20, [7, 1, 12], [19, 1]):
            assert pool_in_calls(rows, 15, sizes)[:, k].tobytes() == whole.tobytes()

    @pytest.mark.parametrize("reduce", ["channel", "frequency"])
    def test_causal_pool_time_summation_order(self, rng, reduce):
        # frames of +-1e10 around small ones: the float64 window sums cancel,
        # so any order other than oldest first shows in the low bits
        x = fmap(rng, 4, 16, 40)
        x[:, :, 0::3] += F32(1e10)
        x[:, :, 1::3] -= F32(1e10)
        rows = pool_rows(x, 15, reduce)
        oldest_first = np.empty((40, rows.shape[2]))
        for t in range(40):
            acc = rows[t, 0].copy()
            for j in range(1, 15):
                acc += rows[t + j, 0]
            oldest_first[t] = acc
        assert causal_pool_time(rows, 15)[:, 0].tobytes() == oldest_first.tobytes()
        assert pool_in_calls(rows, 15, [1] * 40)[:, 0].tobytes() == oldest_first.tobytes()

    @pytest.mark.parametrize("cf", DEPLOYED_MAPS)
    def test_global_pool_cf_bit_identical(self, rng, cf):
        x = fmap(rng, *cf, 20)
        frames = [np.ascontiguousarray(x[:, :, t], dtype=np.float64) for t in range(20)]
        assert global_pool_map(x, "avg").tobytes() == F32([f.mean() for f in frames]).tobytes()
        assert global_pool_map(x, "max").tobytes() == F32([f.max() for f in frames]).tobytes()


class TestGlobalPoolCF:
    """Per-frame pooling over (C, F) through the live attention projection."""

    def test_unit_dims_identity(self, rng):
        x = fmap(rng, 1, 1, 7)
        np.testing.assert_array_equal(global_pool_map(x, "avg"), x[0, 0])
        np.testing.assert_array_equal(global_pool_map(x, "max"), x[0, 0])

    def test_constant_value(self):
        x = np.full((3, 4, 5), 2.5, dtype=F32)
        for mode in ("avg", "max"):
            np.testing.assert_allclose(global_pool_map(x, mode), 2.5, atol=1e-6)

    def test_avg_matches_loop_oracle(self, rng):
        x = fmap(rng, 3, 4, 6)
        got = global_pool_map(x, "avg")
        expect = [np.mean([float(x[c, f, t]) for c in range(3) for f in range(4)])
                  for t in range(6)]
        np.testing.assert_allclose(got, expect, atol=1e-6)
