"""The named-tensor archive: exact round trips, ValueError on any malformed
archive, and atomic writes that honour the process umask and end CSV lines
in a bare newline."""

import os
import struct

import numpy as np
import pytest

from eegspeech.nn.checkpoint import (
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
    header = 12 + 2 + 1 + 1  # magic, version, count, name length, name, ndim
    huge_dims = blob[:header] + struct.pack("<I", 2**32 - 1) + blob[header + 4:]
    two_dims = blob[:header - 1] + struct.pack("<BII", 2, 2**32 - 1, 2**32 - 1) + blob[header + 4:]
    return [b"XXXX" + blob[4:], blob + b"\0", huge_dims, two_dims,
            blob[:4] + struct.pack("<I", 2) + blob[8:],
            blob[:8] + struct.pack("<I", 2**32 - 1) + blob[12:]]


def test_malformed_files_raise_value_error(tmp_path):
    for bad in _malformed(_archive(tmp_path, {"w": np.zeros(2)})):
        (tmp_path / "bad.tensors").write_bytes(bad)
        with pytest.raises(ValueError):
            load_tensors(tmp_path / "bad.tensors")


def test_file_reader_gives_each_tensor_its_own_slice_of_one_block(tmp_path):
    named = {**NAMED, "empty": np.zeros((0, 3)),
             "big": np.random.default_rng(0).normal(size=(70, 90))}
    save_tensors(tmp_path / "a.tensors", named)
    loaded = load_tensors(tmp_path / "a.tensors")
    assert list(loaded) == list(named)
    block = loaded["big"].base
    assert all(arr.base is block for arr in loaded.values()) and block.base is None
    assert block.nbytes <= (tmp_path / "a.tensors").stat().st_size
    arrays = list(loaded.values())
    for i, arr in enumerate(arrays):  # no two tensors share an element
        assert not any(np.shares_memory(arr, other) for other in arrays[i + 1:])
    for name, arr in loaded.items():
        assert arr.dtype == np.float64, name
        assert arr.flags.aligned and arr.flags.writeable and arr.flags.c_contiguous, name
        assert arr.shape == named[name].shape, name
        assert arr.tobytes() == named[name].tobytes(), name


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
