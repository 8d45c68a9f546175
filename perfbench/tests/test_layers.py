"""Per-layer aggregation on a hand-built trace, and instrumentation on the engine."""

import numpy as np
import pytest

from layers import layer_metrics

BLOCKS = ["tfca.fuse", "model.enc.0"]


def stream_trace(n_frames=4):
    """One stream of ``n_frames`` one-frame pushes, then one offline file."""
    spans = [["stream.open", 0.0, 0.5, -1, None]]
    t = 1.0
    for k in range(n_frames):
        push = len(spans)
        spans.append(["stream.push", t, t + 10.0, -1, (1, 128)])
        spans.append(["tfca.fuse.step", t + 1.0, t + 2.0 + k, push, (0, k)])
        spans.append(["model.enc.0.step", t + 6.0, t + 7.0, push, None])
        t += 10.0
    fwd = len(spans)
    spans.append(["model.forward", 100.0, 110.0, -1, None])
    spans.append(["ofif.stack", 100.0, 101.0, fwd, None])
    spans.append(["tfca.fuse.forward", 101.0, 105.0, fwd, ("offline", 8)])
    enc = len(spans)
    spans.append(["model.enc.0.forward", 105.0, 108.0, fwd, None])
    spans.append(["model.enc.0.step", 105.0, 106.0, enc, None])   # offline path: not a stream frame
    spans.append(["stdct.istdct_ola", 108.0, 109.0, fwd, None])
    for name in ("model.build", "weights.read", "cli.read_wav", "cli.write_wav"):
        spans.append([name, 200.0, 202.0, -1, None])
    return spans


def test_stream_time_is_fully_accounted():
    m, share = layer_metrics(stream_trace(), BLOCKS)
    assert share == pytest.approx(1.0)
    assert m["stream.frames"] == 4 and m["stream.pushes"] == 4
    assert m["stream.samples_out"] == 512
    # fuse steps take 1, 2, 3, 4 s; enc steps 1 s each; pushes 10 s each
    assert m["tfca.fuse.ms_per_frame"] == pytest.approx(2500.0)
    assert m["model.enc.0.ms_per_frame"] == pytest.approx(1000.0)
    assert m["stream.self_ms_per_frame"] == pytest.approx(6500.0)
    total = m["stream.self_ms_per_frame"] + m["tfca.fuse.ms_per_frame"] + m["model.enc.0.ms_per_frame"]
    assert total == pytest.approx(10_000.0)


def test_age_quartiles_and_offline():
    m, _ = layer_metrics(stream_trace(), BLOCKS)
    assert m["tfca.ms_per_frame.q1"] == pytest.approx(1000.0)      # frame 0 of 4
    assert m["tfca.ms_per_frame.q4"] == pytest.approx(4000.0)      # frame 3 of 4
    assert m["tfca.offline_ms_per_frame"] == pytest.approx(500.0)  # 4 s over 8 frames
    assert m["model.forward_ms"] == pytest.approx(10_000.0)
    assert m["ofif.stack_ms"] == pytest.approx(1000.0)
    assert m["stream.open_ms"] == pytest.approx(500.0)


def test_missing_block_step_is_an_error():
    spans = stream_trace()
    spans[3][0] = "model.enc.0.forward"     # the first push no longer steps enc.0
    with pytest.raises(ValueError, match="model.enc.0"):
        layer_metrics(spans, BLOCKS)


def test_traced_engine_accounts_for_push_time(tmp_path):
    """Instrumenting the real engine: every block steps once per stream frame."""
    import types

    from ofifnet import DEFAULT_CONFIG, cli, init_weights, ofif, stdct
    from ofifnet import model as M
    from ofifnet import stream as S
    from ofifnet import weights as W

    import layers
    from spans import Tracer

    modules = types.SimpleNamespace(cli=cli, model=M, ofif=ofif, stdct=stdct, stream=S, weights=W)
    path = tmp_path / "w.ofn"
    W.write_weights(path, init_weights(DEFAULT_CONFIG, 7))
    x = np.random.default_rng(0).uniform(-0.1, 0.1, 1024).astype(np.float32)
    originals = (S.stream_push, vars(M.Model)["__init__"], cli.read_wav)
    tracer = Tracer()
    with layers.traced(tracer, modules):
        model = M.Model(DEFAULT_CONFIG, W.read_weights(path))
        state = S.StreamState(model)
        for i in range(0, len(x), 128):
            S.stream_push(state, model, x[i:i + 128])
        S.stream_flush(state, model)
        cli.write_wav(tmp_path / "in.wav", x)
        cli.read_wav(tmp_path / "in.wav")
        model.forward(x, mode="offline")
    assert (S.stream_push, vars(M.Model)["__init__"], cli.read_wav) == originals
    m, share = layers.layer_metrics(tracer.spans, layers.block_names(model))
    assert share == pytest.approx(1.0, abs=1e-9)
    assert m["stream.frames"] == 5 and m["stream.pushes"] == 8
    assert m["stream.samples_out"] == 1024
    assert all(v > 0 for v in m.values())
