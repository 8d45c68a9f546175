"""Binary tensor container: round trips, determinism, corruption handling."""

import struct
from collections import OrderedDict

import numpy as np
import pytest

from ofifnet.errors import WeightError
from ofifnet.model import ModelConfig, init_weights
from ofifnet.weights import (
    MAGIC,
    read_weights,
    read_weights_bytes,
    write_weights,
    write_weights_bytes,
)

SMALL = ModelConfig(encoder_channels=(3, 4), tfsm_hidden=(2,))


class TestRoundTrip:

    def test_write_read_identity(self, tmp_path):
        tensors = init_weights(SMALL, seed=11)
        path = tmp_path / "w.ofn"
        write_weights(path, tensors)
        back = read_weights(path)
        assert list(back) == list(tensors)
        for name in tensors:
            np.testing.assert_array_equal(back[name], tensors[name])
            assert back[name].dtype == np.float32

    def test_same_seed_byte_identical(self):
        a = write_weights_bytes(init_weights(SMALL, seed=3))
        b = write_weights_bytes(init_weights(SMALL, seed=3))
        assert a == b

    def test_different_seeds_differ(self):
        a = write_weights_bytes(init_weights(SMALL, seed=3))
        b = write_weights_bytes(init_weights(SMALL, seed=4))
        assert a != b

    def test_magic_prefix(self):
        assert write_weights_bytes(init_weights(SMALL, seed=0))[:4] == MAGIC


class TestCorruption:

    def test_truncation_names_offset(self):
        blob = write_weights_bytes(init_weights(SMALL, seed=5))
        with pytest.raises(WeightError, match="offset"):
            read_weights_bytes(blob[:len(blob) // 2])

    def test_bad_magic(self):
        with pytest.raises(WeightError, match="magic"):
            read_weights_bytes(b"NOPE" + b"\x00" * 16)

    def test_trailing_garbage(self):
        blob = write_weights_bytes(init_weights(SMALL, seed=5))
        with pytest.raises(WeightError, match="trailing"):
            read_weights_bytes(blob + b"\x00\x01")

    def test_duplicate_name(self):
        t = OrderedDict([("a.w", np.zeros(2, dtype=np.float32))])
        blob = bytearray(write_weights_bytes(t))
        # bump the count and append a second copy of the same record
        blob[4:8] = (2).to_bytes(4, "little")
        blob += write_weights_bytes(t)[8:]
        with pytest.raises(WeightError, match="duplicate"):
            read_weights_bytes(bytes(blob))

    def test_empty_truncated_header(self):
        with pytest.raises(WeightError, match="offset"):
            read_weights_bytes(MAGIC)

    def test_name_not_utf8(self):
        blob = MAGIC + struct.pack("<IH", 1, 2) + b"\xff\xfe" + struct.pack("<BI", 1, 1) + bytes(4)
        with pytest.raises(WeightError, match="name of tensor 0 at offset 10 is not valid UTF-8"):
            read_weights_bytes(blob)

    def test_dims_whose_product_wraps_int64(self):
        # 2**31 * 2**31 * 4 is 0 modulo 2**64: the values are counted exactly
        blob = MAGIC + struct.pack("<IH", 1, 1) + b"a" + struct.pack("<B3I", 3, 2**31, 2**31, 4)
        with pytest.raises(WeightError, match="needed 73786976294838206464 bytes"):
            read_weights_bytes(blob)
