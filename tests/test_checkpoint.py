"""The named-tensor archive: exact round trips into read-only, 64-byte
aligned views of one mapping, ValueError on any malformed or version-1
archive, and atomic writes that honour the process umask and end CSV lines
in a bare newline."""

import mmap
import os
import struct

import numpy as np
import pytest

from conftest import v1_archive
from eegspeech.nn.checkpoint import (
    MAX_NAME_BYTES,
    load_tensors,
    save_tensors,
    write_bytes_atomic,
    write_csv_atomic,
)

NAMED = {
    "w": np.arange(6.0).reshape(2, 3),
    "scalar": np.array(-0.0),
    "trial/../ü": np.array([np.inf, -1e-300, 2.5]),
}


def test_round_trip_keeps_names_order_and_bits(tmp_path):
    save_tensors(tmp_path / "a.tensors", NAMED)
    loaded = load_tensors(tmp_path / "a.tensors")
    assert list(loaded) == list(NAMED)
    for name, value in NAMED.items():
        assert loaded[name].shape == value.shape
        assert loaded[name].tobytes() == value.tobytes()


def test_a_name_is_at_most_max_name_bytes_of_utf8(tmp_path):
    longest = "x" * MAX_NAME_BYTES
    save_tensors(tmp_path / "a.tensors", {longest: np.zeros(1)})
    assert list(load_tensors(tmp_path / "a.tensors")) == [longest]
    # the u16 length counts UTF-8 bytes: 32 768 two-byte characters are one too many
    with pytest.raises(ValueError, match="tensor name 'é+' is longer than 65535 UTF-8 bytes"):
        save_tensors(tmp_path / "b.tensors", {"é" * 32768: np.zeros(1)})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.tensors"]


def _archive(tmp_path, named) -> bytes:
    save_tensors(tmp_path / "a.tensors", named)
    return (tmp_path / "a.tensors").read_bytes()


def test_every_truncation_of_a_file_raises_value_error(tmp_path):
    blob = _archive(tmp_path, NAMED)
    for end in range(len(blob)):
        (tmp_path / "cut.tensors").write_bytes(blob[:end])
        with pytest.raises(ValueError):
            load_tensors(tmp_path / "cut.tensors")


def _malformed(blob: bytes) -> list[bytes]:
    # {"w": zeros(2)}: magic, version, count, name length, name, ndim, one
    # dim at 16, zero padding from 20 up to the data at 64
    header = 12 + 2 + 1 + 1
    assert blob[header + 4:64] == bytes(64 - header - 4) and len(blob) == 64 + 16
    huge_dims = blob[:header] + struct.pack("<I", 2**32 - 1) + blob[header + 4:]
    # a second dim takes 4 bytes of the padding, so the data stays at 64
    two_dims = blob[:header - 1] + struct.pack("<BII", 2, 2**32 - 1, 2**32 - 1) + blob[header + 8:]
    return [b"XXXX" + blob[4:], blob + b"\0", huge_dims, two_dims,
            blob[:4] + struct.pack("<I", 3) + blob[8:],
            blob[:8] + struct.pack("<I", 2**32 - 1) + blob[12:]]


def test_malformed_files_raise_value_error(tmp_path):
    for bad in _malformed(_archive(tmp_path, {"w": np.zeros(2)})):
        (tmp_path / "bad.tensors").write_bytes(bad)
        with pytest.raises(ValueError):
            load_tensors(tmp_path / "bad.tensors")


@pytest.mark.parametrize("at", [20, 41, 63])
def test_non_zero_padding_raises_value_error(tmp_path, at):
    blob = _archive(tmp_path, {"w": np.zeros(2)})
    (tmp_path / "bad.tensors").write_bytes(blob[:at] + b"\1" + blob[at + 1:])
    with pytest.raises(ValueError, match="'w' has non-zero padding"):
        load_tensors(tmp_path / "bad.tensors")


def test_a_version_1_archive_is_refused_by_its_version(tmp_path):
    (tmp_path / "old.tensors").write_bytes(v1_archive(NAMED))
    with pytest.raises(ValueError, match="archive version 1 is not supported"):
        load_tensors(tmp_path / "old.tensors")


def test_each_tensor_is_an_aligned_read_only_view_of_one_mapping(tmp_path):
    named = {**NAMED, "empty": np.zeros((0, 3)),
             "big": np.random.default_rng(0).normal(size=(70, 90))}
    save_tensors(tmp_path / "a.tensors", named)
    blob = (tmp_path / "a.tensors").read_bytes()
    loaded = load_tensors(tmp_path / "a.tensors")
    assert list(loaded) == list(named)
    mapping = loaded["big"].base
    assert isinstance(mapping, mmap.mmap) and len(mapping) == len(blob)
    with pytest.raises(TypeError):  # the mapping itself is read-only
        mapping[0] = 0
    start = np.frombuffer(mapping, dtype=np.uint8).ctypes.data
    arrays = list(loaded.values())
    for i, arr in enumerate(arrays):  # no two tensors share an element
        assert not any(np.shares_memory(arr, other) for other in arrays[i + 1:])
    for name, arr in loaded.items():
        assert arr.base is mapping, name
        assert arr.dtype == np.float64, name
        assert arr.flags.aligned and arr.flags.c_contiguous, name
        assert not arr.flags.writeable, name
        offset = arr.ctypes.data - start
        assert offset % 64 == 0, (name, offset)
        assert blob[offset:offset + arr.nbytes] == arr.tobytes(), name
        assert arr.shape == named[name].shape, name
        assert arr.tobytes() == named[name].tobytes(), name


def test_replacing_an_archive_leaves_loaded_tensors_unchanged(tmp_path):
    path = tmp_path / "a.tensors"
    save_tensors(path, {"w": np.arange(4096.0)})
    loaded = load_tensors(path)
    save_tensors(path, {"w": -np.arange(4096.0)})
    assert loaded["w"].tobytes() == np.arange(4096.0).tobytes()
    assert load_tensors(path)["w"].tobytes() == (-np.arange(4096.0)).tobytes()


def test_written_files_follow_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        write_bytes_atomic(tmp_path / "out.bin", b"data")
    finally:
        os.umask(old)
    assert (tmp_path / "out.bin").stat().st_mode & 0o777 == 0o644
    assert (tmp_path / "out.bin").read_bytes() == b"data"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_csv_lines_end_in_newline_only(tmp_path):
    write_csv_atomic(tmp_path / "t.csv", [["a", "b,c"], [1, repr(0.1)]])
    assert (tmp_path / "t.csv").read_bytes() == b'a,"b,c"\n1,0.1\n'
