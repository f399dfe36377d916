import struct
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hingenet import checkpoint


def sample_tensors(rng):
    return OrderedDict([
        ("stem/W", rng.normal(size=(9, 4))),
        ("stem/b", rng.normal(size=4)),
        ("block0.conv1/W", rng.normal(size=(36, 4))),
        ("block0.conv1/A", rng.normal(size=(4, 4))),
        ("block0.conv1/mode", np.array([2], dtype=np.uint8)),
        ("head/W", rng.normal(size=(4, 3))),
    ])


def hand_built(*records, version=checkpoint.VERSION):
    """A checkpoint written byte by byte: the header, then each record
    `(name, dims, payload)`, with the name and the payload as raw bytes
    (8 per float entry)."""
    blob = b"HNGW" + struct.pack("<II", version, len(records))
    for name, dims, payload in records:
        blob += (struct.pack("<H", len(name)) + name
                 + struct.pack(f"<B{len(dims)}Q", len(dims), *dims) + payload)
    return blob


def test_round_trip(tmp_path, rng):
    tensors = sample_tensors(rng)
    tensors["empty"] = np.zeros((0, 3))
    tensors["scalar"] = np.array(2.5)
    tensors["transposed"] = rng.normal(size=(3, 5)).T
    big, tiny = np.finfo(np.float64).max, np.finfo(np.float64).smallest_subnormal
    tensors["extremes"] = np.array([big, -big, tiny, -0.0])
    path = tmp_path / "model.hngw"
    checkpoint.save(path, tensors)
    loaded = checkpoint.load(path)
    assert list(loaded) == list(tensors)  # order preserved
    for name, arr in tensors.items():
        assert loaded[name].dtype == (np.uint8 if name.endswith("/mode") else np.float64)
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == np.ascontiguousarray(arr).tobytes()  # -0.0 too


def test_byte_exact_determinism(tmp_path, rng):
    tensors = sample_tensors(rng)
    p1, p2 = tmp_path / "a.hngw", tmp_path / "b.hngw"
    checkpoint.save(p1, tensors)
    checkpoint.save(p2, tensors)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_layout(tmp_path):
    path = tmp_path / "one.hngw"
    checkpoint.save(path, OrderedDict([("x", np.zeros((2, 3)))]))
    blob = path.read_bytes()
    assert blob[:4] == b"HNGW"
    assert int.from_bytes(blob[4:8], "little") == 2    # version
    assert int.from_bytes(blob[8:12], "little") == 1   # tensor count
    assert int.from_bytes(blob[12:14], "little") == 1  # name length
    assert blob[14:15] == b"x"
    assert blob[15] == 2  # ndim
    assert int.from_bytes(blob[16:24], "little") == 2
    assert int.from_bytes(blob[24:32], "little") == 3
    assert len(blob) == 32 + 6 * 8  # f64 payload


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.hngw"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(checkpoint.CheckpointError, match="bad magic"):
        checkpoint.load(path)


def test_truncated(tmp_path, rng):
    path = tmp_path / "t.hngw"
    checkpoint.save(path, sample_tensors(rng))
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(checkpoint.CheckpointError, match="^truncated checkpoint$"):
        checkpoint.load(path)


def test_trailing_bytes(tmp_path, rng):
    path = tmp_path / "t.hngw"
    checkpoint.save(path, sample_tensors(rng))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(checkpoint.CheckpointError, match="^1 trailing bytes after last tensor$"):
        checkpoint.load(path)


def test_non_finite_rejected(tmp_path):
    path = tmp_path / "x.hngw"
    for value in [np.nan, np.inf, -np.inf]:
        with pytest.raises(checkpoint.CheckpointError,
                           match="^tensor 'w' contains entries that are not finite$"):
            checkpoint.save(path, OrderedDict([("w", np.array([[value, 1.0]]))]))
        assert not path.exists()


def test_signaling_nan_payload_loads_as_nan(tmp_path):
    path = tmp_path / "s.hngw"
    payload = bytes.fromhex("010000000000f07f")  # f64 signaling NaN, kept bit for bit
    path.write_bytes(hand_built((b"w", (1,), payload)))
    assert checkpoint.load(path)["w"].tobytes() == payload


def test_version_1_rejected(tmp_path):
    # a version-1 file stores f32 payloads; the reader stops at its version
    path = tmp_path / "v1.hngw"
    path.write_bytes(hand_built((b"w", (1,), np.float32(1.5).tobytes()), version=1))
    with pytest.raises(checkpoint.CheckpointError, match="^unsupported checkpoint version 1$"):
        checkpoint.load(path)


def test_overflowing_dims_rejected(tmp_path):
    for dims in [(2**32, 2**32), (2**63, 3)]:
        path = tmp_path / "o.hngw"
        path.write_bytes(hand_built((b"w", dims, b"")))
        with pytest.raises(checkpoint.CheckpointError, match="^truncated checkpoint$"):
            checkpoint.load(path)


def test_non_utf8_name_rejected(tmp_path):
    path = tmp_path / "n.hngw"
    path.write_bytes(hand_built((b"\xff\xfe", (1,), b"\x00" * 8)))
    with pytest.raises(checkpoint.CheckpointError, match="^tensor name is not UTF-8$"):
        checkpoint.load(path)


def test_repeated_tensor_name_rejected(tmp_path):
    # one "w" record twice under a count of 2: the second copy must not
    # silently replace the first
    path = tmp_path / "r.hngw"
    record = (b"w", (1,), b"\x00" * 8)
    path.write_bytes(hand_built(record, record))
    with pytest.raises(checkpoint.CheckpointError, match="'w' appears more than once"):
        checkpoint.load(path)


def test_ndim_beyond_numpy_limit_rejected(tmp_path):
    path = tmp_path / "d.hngw"
    path.write_bytes(hand_built((b"w", (1,) * 65, b"\x00" * 8)))
    with pytest.raises(checkpoint.CheckpointError, match="^tensor 'w': dims \\(1, 1, "):
        checkpoint.load(path)


def test_mutated_or_truncated_file_raises_checkpoint_error_or_loads(tmp_path_factory):
    # tmp_path_factory, as hypothesis reruns the body without a fresh fixture.
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.hngw"
    # Small tensors, so the headers are a large share of the bytes.
    checkpoint.save(path, OrderedDict([
        ("a/W", np.arange(6.0).reshape(2, 3)),
        ("b/mode", np.array([1], dtype=np.uint8)),
        ("s", np.array(2.5)),
        ("a/mode", np.array([2], dtype=np.uint8)),
    ]))
    blob = path.read_bytes()
    loaded = []

    # the whole file is the common case, so most edits reach a tensor record
    @settings(max_examples=400, deadline=None, database=None)
    @given(edits=st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)),
                          max_size=4),
           keep=st.one_of(st.just(len(blob)), st.integers(0, len(blob))))
    def check(edits, keep):
        data = bytearray(blob)
        for pos, value in edits:
            data[pos] = value
        path.write_bytes(bytes(data[:keep]))
        try:
            tensors = checkpoint.load(path)
        except checkpoint.CheckpointError:
            return
        assert all(isinstance(v, np.ndarray) for v in tensors.values())
        loaded.append(keep)

    check()
    assert loaded
