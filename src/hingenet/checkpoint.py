"""Bit-exact "HNGW" checkpoint container.

Layout: magic bytes ``HNGW``, u32 LE version (=1), u32 LE tensor count, then
per tensor: u16 LE name length, UTF-8 name, u8 ndim, ndim u64 LE dims, and
the row-major payload. Payloads are f32 LE except for tensors whose name
ends in ``/mode``, one u8 per layer (0 untouched, 1 prune, 2 decompose).
`net.Network.state_tensors` orders the tensors of a baseline or a
compacted network and `net.network_from_tensors` reads them back.
"""

import math
import struct
from collections import OrderedDict

import numpy as np

MAGIC = b"HNGW"
VERSION = 1


class CheckpointError(IOError):
    """Malformed or truncated checkpoint data."""


def save(path, tensors: "OrderedDict[str, np.ndarray]") -> None:
    """Write tensors to `path`. Float tensors are stored as f32, and one
    with an entry that is not finite there (NaN, inf, or a finite value
    beyond the f32 range) is a CheckpointError before the file is opened.
    Insertion order is preserved byte-for-byte."""
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    blob += struct.pack("<I", len(tensors))
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        if name.endswith("/mode"):
            payload = np.ascontiguousarray(arr, dtype=np.uint8)
        else:
            with np.errstate(over="ignore"):  # a finite value beyond f32 becomes inf
                payload = np.ascontiguousarray(arr, dtype="<f4")
            if not np.all(np.isfinite(payload)):
                raise CheckpointError(
                    f"tensor {name!r} contains entries that are not finite in float32")
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        blob += struct.pack("<B", arr.ndim)
        for d in arr.shape:
            blob += struct.pack("<Q", d)
        blob += payload.tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)


def load(path) -> "OrderedDict[str, np.ndarray]":
    """Read a checkpoint; float tensors come back as float64, byte tensors
    as uint8."""
    with open(path, "rb") as fh:
        blob = fh.read()
    view = memoryview(blob)
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(view):
            raise CheckpointError("truncated checkpoint")
        chunk = view[pos:pos + n]
        pos += n
        return chunk

    if bytes(take(4)) != MAGIC:
        raise CheckpointError("bad magic, not an HNGW checkpoint")
    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (count,) = struct.unpack("<I", take(4))

    tensors = OrderedDict()
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = bytes(take(name_len)).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError("tensor name is not UTF-8") from None
        if name in tensors:
            raise CheckpointError(f"tensor {name!r} appears more than once")
        (ndim,) = struct.unpack("<B", take(1))
        dims = struct.unpack(f"<{ndim}Q", take(8 * ndim))
        byte_tensor = name.endswith("/mode")
        dtype = np.dtype(np.uint8 if byte_tensor else "<f4")
        # Python ints, so a product of u64 dims cannot wrap around to a
        # size that fits; `take` refuses any size beyond the bytes left.
        raw = np.frombuffer(take(math.prod(dims) * dtype.itemsize), dtype=dtype)
        try:
            arr = raw.reshape(dims)
        except ValueError as exc:  # ndim above numpy's limit, or a too-large empty shape
            raise CheckpointError(f"tensor {name!r}: dims {dims}: {exc}") from None
        if byte_tensor:
            tensors[name] = arr.copy()
        else:
            with np.errstate(invalid="ignore"):  # a signaling NaN loads as a NaN
                tensors[name] = arr.astype(np.float64)
    if pos != len(view):
        raise CheckpointError(f"{len(view) - pos} trailing bytes after last tensor")
    return tensors
