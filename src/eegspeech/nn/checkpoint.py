"""Named-tensor archive: the one binary format of model bundles and feature
dumps (only a trial container's samples are raw).  Layout (little-endian):

    magic b"NTAR" | u32 version | u32 count
    per tensor: u16 name length | name utf-8 | u8 ndim | u32 dims... | f64 data

Writes are atomic (temp file + rename) and byte-deterministic for a given
mapping.  Reads fill one fresh float64 array per tensor from the file, with
no intermediate copy; reading any malformed archive raises ValueError.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import secrets
import struct

import numpy as np

MAGIC = b"NTAR"
VERSION = 1


def _chunks(named: dict[str, np.ndarray]):
    """The archive in pieces; a tensor's data is a view of it, not a copy."""
    yield MAGIC + struct.pack("<II", VERSION, len(named))
    for name in named:
        arr = np.asarray(named[name], dtype=np.float64)
        encoded = name.encode("utf-8")
        yield struct.pack(f"<H{len(encoded)}sB{arr.ndim}I", len(encoded), encoded,
                          arr.ndim, *arr.shape)
        yield np.ascontiguousarray(arr, dtype="<f8").data


def _exactly(f, n: int) -> bytes:
    chunk = f.read(n)
    if len(chunk) != n:
        raise ValueError("truncated archive")
    return chunk


def _read_tensors(f, total: int) -> dict[str, np.ndarray]:
    """Parse the archive of ``total`` bytes that the binary file ``f`` holds,
    reading each tensor's data straight into its own slice of one block.  A
    size is checked against ``total`` before its slice is taken.

    One block per archive is one allocation, freed at once when the last of
    its tensors is: a bundle loaded for each fold of a task maps one large
    block instead of dozens of arrays, and numpy asks for huge pages for a
    block of 4 MB or more, so a load faults in a few pages, not thousands.
    """
    if f.read(4) != MAGIC:
        raise ValueError("not a named-tensor archive")
    version, count = struct.unpack("<II", _exactly(f, 8))
    if version != VERSION:
        raise ValueError(f"unsupported archive version {version}")
    out: dict[str, np.ndarray] = {}
    block, used = np.empty(total // 8, dtype="<f8"), 0
    for _ in range(count):
        (name_len,) = struct.unpack("<H", _exactly(f, 2))
        name = _exactly(f, name_len).decode("utf-8")
        ndim = _exactly(f, 1)[0]
        dims = struct.unpack(f"<{ndim}I", _exactly(f, 4 * ndim))
        nbytes = 8 * math.prod(dims)
        if nbytes > total - f.tell():
            raise ValueError(f"tensor {name!r} runs past the end of the archive")
        arr = block[used:used + nbytes // 8].reshape(dims)
        used += nbytes // 8
        if f.readinto(arr) != nbytes:
            raise ValueError(f"tensor {name!r} is truncated")
        out[name] = arr
    if f.tell() != total:
        raise ValueError("trailing bytes after last tensor")
    return out


def write_bytes_atomic(path: str | os.PathLike, *chunks) -> None:
    """Write the chunks through a temp file and a rename.  The temp file is
    created with mode 0666, so the process umask sets the result's mode."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str | os.PathLike, payload) -> None:
    write_bytes_atomic(path, (json.dumps(payload, indent=2) + "\n").encode("utf-8"))


def write_csv_atomic(path: str | os.PathLike, rows) -> None:
    """Write ``rows`` as CSV, each line ending in ``\\n``, through `write_bytes_atomic`."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    write_bytes_atomic(path, buf.getvalue().encode("utf-8"))


def save_tensors(path: str | os.PathLike, named: dict[str, np.ndarray]) -> None:
    write_bytes_atomic(path, *_chunks(named))


def load_tensors(path: str | os.PathLike) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        return _read_tensors(f, os.fstat(f.fileno()).st_size)
