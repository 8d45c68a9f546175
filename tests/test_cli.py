"""End-to-end command-line tests: WAV handling, exit codes, command contracts."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ofifnet.cli import main, read_wav, write_wav
from ofifnet.errors import WavFormatError
from ofifnet.model import DEFAULT_CONFIG, ModelConfig
from ofifnet.weights import read_weights, write_weights

F32 = np.float32

# full pipeline with skinny channels: cheap weights, same frequency geometry
TEST_CONFIG = ModelConfig(encoder_channels=(2, 2, 2, 2, 2), tfsm_hidden=(2,))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config_path = root / "config.json"
    config_path.write_text(TEST_CONFIG.to_json())
    weights_path = root / "weights.ofn"
    rc = main(["weights", "init", "--seed", "5", "--out", str(weights_path),
               "--config", str(config_path)])
    assert rc == 0
    rng = np.random.default_rng(0)
    wave = rng.uniform(-0.5, 0.5, 1600).astype(F32)
    in_path = root / "in.wav"
    write_wav(in_path, wave)
    return {"root": root, "config": str(config_path), "weights": str(weights_path),
            "in": str(in_path), "wave": wave}


class TestWav:

    def test_float_round_trip(self, tmp_path, rng):
        wave = rng.uniform(-1, 1, 777).astype(F32)
        path = tmp_path / "x.wav"
        write_wav(path, wave)
        np.testing.assert_array_equal(read_wav(path), wave)

    def test_pcm16_accepted(self, tmp_path):
        samples = np.array([0, 16384, -16384, 32767], dtype="<i2")
        payload = samples.tobytes()
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        blob = (b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(payload)) + b"WAVE"
                + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", len(payload)) + payload)
        path = tmp_path / "pcm.wav"
        path.write_bytes(blob)
        wave = read_wav(path)
        np.testing.assert_allclose(wave, samples / 32768.0, atol=1e-7)

    def test_stereo_rejected(self, tmp_path):
        payload = np.zeros(64, dtype="<f4").tobytes()
        fmt = struct.pack("<HHIIHH", 3, 2, 16000, 128000, 8, 32)
        blob = (b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(payload)) + b"WAVE"
                + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", len(payload)) + payload)
        (tmp_path / "stereo.wav").write_bytes(blob)
        rc = main(["metrics", "--est", str(tmp_path / "stereo.wav"),
                   "--ref", str(tmp_path / "stereo.wav")])
        assert rc == 2

    def test_wrong_rate_rejected(self, tmp_path, capsys):
        payload = np.zeros(64, dtype="<f4").tobytes()
        fmt = struct.pack("<HHIIHH", 3, 1, 48000, 192000, 4, 32)
        blob = (b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(payload)) + b"WAVE"
                + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", len(payload)) + payload)
        path = tmp_path / "rate.wav"
        path.write_bytes(blob)
        with pytest.raises(Exception):
            read_wav(path)


def wav_blob(fmt_tag, bits, payload, declared=None):
    """A mono 16 kHz WAV file of one fmt chunk and one data chunk holding
    ``payload``, whose header declares ``declared`` bytes (default: all of them)."""
    width = bits // 8
    fmt = struct.pack("<HHIIHH", fmt_tag, 1, 16000, 16000 * width, width, bits)
    size = len(payload) if declared is None else declared
    return (b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + size + (size & 1)) + b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", size) + payload + b"\0" * (len(payload) & 1))


class TestPartialSample:
    """A data chunk that is not a whole number of samples is a WAV format
    error that names its byte count, for each accepted encoding."""

    @pytest.mark.parametrize("fmt_tag, bits, size", [(1, 16, 2001), (3, 32, 4002)])
    def test_read_wav_names_byte_count(self, tmp_path, fmt_tag, bits, size):
        path = tmp_path / "partial.wav"
        path.write_bytes(wav_blob(fmt_tag, bits, bytes(size)))
        with pytest.raises(WavFormatError, match=f"{size} bytes"):
            read_wav(path)

    def test_enhance_exit_2_one_err_line(self, workdir, tmp_path, capsys):
        path = tmp_path / "partial.wav"
        path.write_bytes(wav_blob(1, 16, bytes(2001)))
        rc = main(["enhance", "--in", str(path), "--out", str(tmp_path / "o.wav"),
                   "--weights", workdir["weights"], "--config", workdir["config"]])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("ERR:wav:") and "2001 bytes" in err[0]
        assert not (tmp_path / "o.wav").exists()


class TestTruncatedChunk:
    """A data chunk that declares more bytes than the file holds is a WAV
    format error that names both counts, for each accepted encoding."""

    @pytest.mark.parametrize("fmt_tag, bits", [(1, 16), (3, 32)])
    def test_read_wav_names_both_counts(self, tmp_path, fmt_tag, bits):
        path = tmp_path / "truncated.wav"
        path.write_bytes(wav_blob(fmt_tag, bits, bytes(2000), declared=4000))
        with pytest.raises(WavFormatError, match="declares 4000 bytes.* only 2000"):
            read_wav(path)

    def test_enhance_exit_2_one_err_line(self, workdir, tmp_path, capsys):
        path = tmp_path / "truncated.wav"
        path.write_bytes(wav_blob(3, 32, bytes(2000), declared=4000))
        rc = main(["enhance", "--in", str(path), "--out", str(tmp_path / "o.wav"),
                   "--weights", workdir["weights"], "--config", workdir["config"]])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("ERR:wav:")
        assert "4000" in err[0] and "2000" in err[0]
        assert not (tmp_path / "o.wav").exists()


class TestEnhance:

    def test_enhance_writes_same_length(self, workdir, tmp_path, capsys):
        out = tmp_path / "enh.wav"
        rc = main(["enhance", "--in", workdir["in"], "--out", str(out),
                   "--weights", workdir["weights"], "--config", workdir["config"]])
        captured = capsys.readouterr()
        assert rc == 0
        assert "mask:" in captured.out and "elapsed:" in captured.out
        assert len(read_wav(out)) == 1600

    def test_stereo_input_exit_2(self, workdir, tmp_path, capsys):
        payload = np.zeros(2048, dtype="<f4").tobytes()
        fmt = struct.pack("<HHIIHH", 3, 2, 16000, 128000, 8, 32)
        blob = (b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(payload)) + b"WAVE"
                + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", len(payload)) + payload)
        stereo = tmp_path / "st.wav"
        stereo.write_bytes(blob)
        rc = main(["enhance", "--in", str(stereo), "--out", str(tmp_path / "o.wav"),
                   "--weights", workdir["weights"], "--config", workdir["config"]])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("ERR:wav:") and "mono" in err

    @pytest.mark.parametrize("mode", ["cumulative", "offline"])
    def test_nan_input_exit_2(self, workdir, tmp_path, capsys, mode):
        wave = workdir["wave"].copy()
        wave[700] = np.nan
        src = tmp_path / "nan.wav"
        write_wav(src, wave)
        out = tmp_path / "o.wav"
        rc = main(["enhance", "--in", str(src), "--out", str(out), "--mode", mode,
                   "--weights", workdir["weights"], "--config", workdir["config"]])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("ERR:input:") and "index 700" in err
        assert not out.exists()

    def test_missing_tensor_exit_3_names_it(self, workdir, tmp_path, capsys):
        tensors = read_weights(workdir["weights"])
        del tensors["tfsm.0.time.W"]
        broken = tmp_path / "broken.ofn"
        write_weights(broken, tensors)
        rc = main(["enhance", "--in", workdir["in"], "--out", str(tmp_path / "o.wav"),
                   "--weights", str(broken), "--config", workdir["config"]])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("ERR:weights:") and "tfsm.0.time.W" in err

    def test_missing_weights_file_exit_3(self, workdir, tmp_path, capsys):
        missing = tmp_path / "nope.ofn"
        for argv in (["enhance", "--in", workdir["in"], "--out", str(tmp_path / "o.wav"),
                      "--weights", str(missing), "--config", workdir["config"]],
                     ["weights", "inspect", str(missing)]):
            rc = main(argv)
            err = capsys.readouterr().err
            assert rc == 3
            assert err.startswith(f"ERR:weights:cannot read weights {missing}")
            assert len(err.splitlines()) == 1

    def test_missing_config_file_exit_3(self, workdir, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        rc = main(["enhance", "--in", workdir["in"], "--out", str(tmp_path / "o.wav"),
                   "--weights", workdir["weights"], "--config", str(missing)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith(f"ERR:config:cannot read config {missing}")
        assert len(err.splitlines()) == 1

    def test_retired_offline_mode_sidecar_exit_3(self, workdir, tmp_path, capsys):
        # the mode is chosen per call; a sidecar may no longer carry it
        data = json.loads(TEST_CONFIG.to_json())
        data["attention_mode"] = "offline"
        config = tmp_path / "offline.json"
        config.write_text(json.dumps(data))
        out = tmp_path / "o.wav"
        rc = main(["enhance", "--in", workdir["in"], "--out", str(out),
                   "--weights", workdir["weights"], "--config", str(config)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("ERR:config:") and "--mode offline" in err
        assert len(err.splitlines()) == 1 and not out.exists()


class TestStream:

    def test_stream_matches_enhance_bit_exact(self, workdir, tmp_path, capsys):
        enh, stream = tmp_path / "enh.wav", tmp_path / "str.wav"
        assert main(["enhance", "--in", workdir["in"], "--out", str(enh),
                     "--weights", workdir["weights"], "--config", workdir["config"]]) == 0
        assert main(["stream", "--in", workdir["in"], "--out", str(stream),
                     "--weights", workdir["weights"], "--config", workdir["config"],
                     "--chunk-ms", "8", "--report-latency"]) == 0
        out = capsys.readouterr().out
        assert "algorithmic delay: 32.0 ms" in out
        assert read_wav(stream).tobytes() == read_wav(enh).tobytes()

    def test_latency_of_input_shorter_than_a_window_exit_2(self, workdir, tmp_path, capsys):
        short, out = tmp_path / "short.wav", tmp_path / "o.wav"
        write_wav(short, workdir["wave"][:300])
        rc = main(["stream", "--in", str(short), "--out", str(out),
                   "--weights", workdir["weights"], "--config", workdir["config"],
                   "--chunk-ms", "8", "--report-latency"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("ERR:input:") and "no steady-state emissions" in err
        assert len(err.splitlines()) == 1 and not out.exists()

    def test_zero_chunk_usage_error(self, workdir, tmp_path, capsys):
        rc = main(["stream", "--in", workdir["in"], "--out", str(tmp_path / "o.wav"),
                   "--weights", workdir["weights"], "--config", workdir["config"],
                   "--chunk-ms", "0"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("ERR:usage:")

    # 1e308 ms is finite, but its 16 samples per ms are not
    @pytest.mark.parametrize("chunk_ms", ["nan", "inf", "1e308"])
    def test_non_finite_chunk_usage_error(self, workdir, tmp_path, capsys, chunk_ms):
        rc = main(["stream", "--in", workdir["in"], "--out", str(tmp_path / "o.wav"),
                   "--weights", workdir["weights"], "--config", workdir["config"],
                   "--chunk-ms", chunk_ms])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("ERR:usage:") and len(err.splitlines()) == 1


class TestVerify:

    def test_cumulative_trials_pass(self, workdir, capsys):
        rc = main(["verify", "--weights", workdir["weights"], "--config", workdir["config"],
                   "--random-seed", "2", "--trials", "2", "--length", "2048"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all passed" in out

    def test_offline_mode_fails(self, workdir, capsys):
        rc = main(["verify", "--weights", workdir["weights"], "--config", workdir["config"],
                   "--mode", "offline", "--random-seed", "2", "--trials", "2",
                   "--length", "2048"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out and "first_divergence" in out

    def test_zero_trials_usage_error(self, workdir, capsys):
        rc = main(["verify", "--weights", workdir["weights"], "--trials", "0"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("ERR:usage:")

    @pytest.mark.parametrize("length", [640, 0])
    def test_too_short_length_usage_error(self, workdir, capsys, length):
        # a trial splits at a sample in [512, length - 128): none exists below 641
        rc = main(["verify", "--config", workdir["config"], "--trials", "1",
                   "--length", str(length)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("ERR:usage:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", [["verify", "--trials", "1", "--random-seed", "-1"],
                                         ["weights", "init", "--out", "w.ofn", "--seed", "-1"]])
    def test_negative_seed_usage_error(self, workdir, capsys, command):
        rc = main(command)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("ERR:usage:") and len(err.splitlines()) == 1

    def test_shortest_length_runs(self, workdir, capsys):
        rc = main(["verify", "--config", workdir["config"], "--trials", "1",
                   "--length", "641"])
        assert rc == 0
        assert "all passed" in capsys.readouterr().out

    def test_seeded_weights_without_file(self, workdir, capsys):
        rc = main(["verify", "--config", workdir["config"], "--random-seed", "4",
                   "--trials", "1", "--length", "2048"])
        assert rc == 0


class TestWeightsTooling:

    def test_init_deterministic(self, workdir, tmp_path):
        a, b = tmp_path / "a.ofn", tmp_path / "b.ofn"
        for path in (a, b):
            assert main(["weights", "init", "--seed", "5", "--out", str(path),
                         "--config", workdir["config"]]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_init_config_out_loads_back(self, tmp_path, capsys):
        sidecar = tmp_path / "c.json"
        rc = main(["weights", "init", "--seed", "7", "--out", str(tmp_path / "w.ofn"),
                   "--config-out", str(sidecar)])
        assert rc == 0
        assert f"wrote {sidecar}" in capsys.readouterr().out
        assert ModelConfig.from_json(sidecar.read_text()) == DEFAULT_CONFIG

    def test_inspect_lists_tensors(self, workdir, capsys):
        rc = main(["weights", "inspect", workdir["weights"]])
        out = capsys.readouterr().out
        assert rc == 0
        assert "enc.0.conv.w" in out and "total:" in out

    def test_param_count_reports_breakdown(self, workdir, capsys):
        rc = main(["weights", "param-count", workdir["weights"]])
        out = capsys.readouterr().out
        assert rc == 0
        assert "total parameters:" in out and "module enc:" in out

    @pytest.mark.parametrize("field", [{"kernel": [5, 0]}, {"stride": [0, 1]},
                                       {"kernel": [5]}, {"encoder_channels": 5},
                                       {"encoder_channels": [2, 2], "decoder_channels": [2, 1],
                                        "tfsm_hidden": [4], "freq_pad": -2}])
    def test_degenerate_kernel_or_stride_config_exit_3(self, tmp_path, capsys, field):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(field))
        out = tmp_path / "w.ofn"
        rc = main(["weights", "init", "--seed", "1", "--out", str(out), "--config", str(config)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("ERR:config:") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_closed_stdout_pipe_exits_0_silently(self, workdir):
        # as `ofifnet weights param-count w.ofn | head -1` once head has left
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.Popen(
            [sys.executable, "-m", "ofifnet.cli", "weights", "param-count", workdir["weights"]],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()                 # the reader is gone before the first write
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert err == b""

    def test_truncated_file_names_offset(self, workdir, tmp_path, capsys):
        blob = open(workdir["weights"], "rb").read()
        bad = tmp_path / "trunc.ofn"
        bad.write_bytes(blob[:200])
        rc = main(["weights", "inspect", str(bad)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("ERR:weights:") and "offset" in err


class TestMetrics:

    def test_identical_files(self, workdir, capsys):
        rc = main(["metrics", "--est", workdir["in"], "--ref", workdir["in"]])
        out = capsys.readouterr().out
        assert rc == 0
        assert "si-snr: 120.0000 dB" in out
        assert "loss: 0" in out

    def test_scaled_estimate(self, workdir, tmp_path, capsys):
        scaled = tmp_path / "x2.wav"
        write_wav(scaled, 2.0 * workdir["wave"])
        rc = main(["metrics", "--est", str(scaled), "--ref", workdir["in"]])
        out = capsys.readouterr().out
        assert rc == 0
        assert "si-snr: 120.0000 dB" in out
        loss = float(out.split("loss:")[1].strip())
        assert loss > 0.0

    @pytest.mark.parametrize("flag, bad", [("--est", np.nan), ("--ref", np.inf)])
    def test_non_finite_sample_exit_2(self, workdir, tmp_path, capsys, flag, bad):
        wave = workdir["wave"].copy()
        wave[700] = bad
        path = tmp_path / "bad.wav"
        write_wav(path, wave)
        files = {"--est": workdir["in"], "--ref": workdir["in"], flag: str(path)}
        rc = main(["metrics", *(arg for pair in files.items() for arg in pair)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith(f"ERR:input:{path}:") and "index 700" in err
        assert len(err.splitlines()) == 1

    def test_length_mismatch_rejected(self, workdir, tmp_path, capsys):
        short = tmp_path / "short.wav"
        write_wav(short, workdir["wave"][:800])
        rc = main(["metrics", "--est", str(short), "--ref", workdir["in"]])
        assert rc == 2
        assert capsys.readouterr().err.startswith("ERR:metric:")


class TestUsage:

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert capsys.readouterr().err.startswith("ERR:usage:")

    def test_missing_input_file(self, workdir, tmp_path, capsys):
        rc = main(["enhance", "--in", str(tmp_path / "nope.wav"),
                   "--out", str(tmp_path / "o.wav"),
                   "--weights", workdir["weights"], "--config", workdir["config"]])
        assert rc == 2
        assert capsys.readouterr().err.startswith("ERR:input:")
