"""Binary container for named float32 tensors.

Layout (all little-endian):

    magic  "OFN1"
    u32    tensor count
    per tensor:
        u16       name length, then UTF-8 name
        u8        rank
        u32*rank  dims
        f32*prod  values, C order

Model configuration travels separately as a JSON sidecar; this file holds
nothing but tensors, so one tensor store can be validated against several
configurations.
"""

from __future__ import annotations

import math
import struct
from collections import OrderedDict

import numpy as np

from .errors import WeightError

MAGIC = b"OFN1"
F32 = np.float32


def write_weights_bytes(tensors: "OrderedDict[str, np.ndarray]") -> bytes:
    buf = bytearray(MAGIC)
    buf += struct.pack("<I", len(tensors))
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype="<f4")
        nb = name.encode("utf-8")
        if not 1 <= len(nb) <= 0xFFFF:
            raise WeightError(f"tensor name {name!r} has unsupported encoded length")
        if arr.ndim < 1 or arr.ndim > 0xFF:
            raise WeightError(f"tensor {name!r} must have rank 1..255, got {arr.ndim}")
        buf += struct.pack("<H", len(nb))
        buf += nb
        buf += struct.pack("<B", arr.ndim)
        buf += struct.pack(f"<{arr.ndim}I", *arr.shape)
        buf += arr.tobytes(order="C")
    return bytes(buf)


def write_weights(path, tensors: "OrderedDict[str, np.ndarray]") -> None:
    with open(path, "wb") as fh:
        fh.write(write_weights_bytes(tensors))


class _Cursor:
    """Byte reader that names the failing offset on truncation."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise WeightError(
                f"truncated weight file: needed {n} bytes for {what} at offset {self.pos}, "
                f"file has {len(self.data)} bytes")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def read_weights_bytes(data: bytes) -> "OrderedDict[str, np.ndarray]":
    cur = _Cursor(data)
    magic = cur.take(4, "magic")
    if magic != MAGIC:
        raise WeightError(f"bad magic {magic!r}, expected {MAGIC!r}")
    (count,) = cur.unpack("<I", "tensor count")
    tensors: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for i in range(count):
        (name_len,) = cur.unpack("<H", f"name length of tensor {i}")
        try:
            name = cur.take(name_len, f"name of tensor {i}").decode("utf-8")
        except UnicodeDecodeError:
            raise WeightError(f"name of tensor {i} at offset {cur.pos - name_len} "
                              "is not valid UTF-8") from None
        (rank,) = cur.unpack("<B", f"rank of {name!r}")
        dims = cur.unpack(f"<{rank}I", f"dims of {name!r}") if rank else ()
        # an exact integer product: int64 would wrap for dims near 2**32
        raw = cur.take(4 * math.prod(dims), f"values of {name!r}")
        if name in tensors:
            raise WeightError(f"duplicate tensor name {name!r} at offset {cur.pos}")
        tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).astype(F32)
    if cur.pos != len(data):
        raise WeightError(
            f"{len(data) - cur.pos} trailing bytes after the last tensor at offset {cur.pos}")
    return tensors


def read_weights(path) -> "OrderedDict[str, np.ndarray]":
    with open(path, "rb") as fh:
        return read_weights_bytes(fh.read())
