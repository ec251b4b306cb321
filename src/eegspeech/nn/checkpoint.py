"""Named-tensor archive: the one binary format of model bundles and feature
dumps (only a trial container's samples are raw).  Layout (little-endian):

    magic b"NTAR" | u32 version | u32 count
    per tensor: u16 name length | name utf-8 | u8 ndim | u32 dims... | f64 data

Writes are atomic (temp file + rename) and byte-deterministic for a given
mapping; reading any malformed archive raises ValueError.
"""

from __future__ import annotations

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


def tensors_from_bytes(blob: bytes) -> dict[str, np.ndarray]:
    if blob[:4] != MAGIC:
        raise ValueError("not a named-tensor archive")
    try:
        version, count = struct.unpack_from("<II", blob, 4)
        if version != VERSION:
            raise ValueError(f"unsupported archive version {version}")
        offset = 12
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            name = blob[offset:offset + name_len].decode("utf-8")
            offset += name_len
            (ndim,) = struct.unpack_from("<B", blob, offset)
            offset += 1
            dims = struct.unpack_from(f"<{ndim}I", blob, offset)
            offset += 4 * ndim
            size = math.prod(dims)
            if offset + 8 * size > len(blob):
                raise ValueError(f"tensor {name!r} runs past the end of the archive")
            arr = np.frombuffer(blob, dtype="<f8", count=size, offset=offset).reshape(dims)
            offset += 8 * size
            out[name] = arr.astype(np.float64)
    except struct.error as exc:
        raise ValueError(f"truncated archive: {exc}") from exc
    if offset != len(blob):
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


def save_tensors(path: str | os.PathLike, named: dict[str, np.ndarray]) -> None:
    write_bytes_atomic(path, *_chunks(named))


def load_tensors(path: str | os.PathLike) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        return tensors_from_bytes(f.read())
