"""Named-tensor archive: the one binary format of model bundles and feature
dumps (only a trial container's samples are raw).  Layout, version 2
(little-endian):

    magic b"NTAR" | u32 version | u32 count
    per tensor: u16 name length | name utf-8 | u8 ndim | u32 dims...
                | zero bytes up to a file offset that is a multiple of 64
                | f64 data

Writes are atomic (temp file + rename) and byte-deterministic for a given
mapping.  A read maps the file read-only and makes each tensor a read-only
view of that mapping, so nothing is copied, and the padding makes every
view 64-byte aligned.  The mapping, and one open descriptor, lives as long
as any of its tensors; a file replaced by rename, as every write here is,
leaves them unchanged.  Reading any malformed archive, a version-1 one
included, raises ValueError.
"""

from __future__ import annotations

import csv
import io
import json
import math
import mmap
import os
import secrets
import struct

import numpy as np

MAGIC = b"NTAR"
VERSION = 2
#: Each tensor's data starts at a file offset that is a multiple of this.
ALIGN = 64
#: The longest tensor name in UTF-8 bytes: its length is written as a u16.
MAX_NAME_BYTES = 0xFFFF


def _chunks(named: dict[str, np.ndarray]):
    """The archive in pieces; a tensor's data is a view of it, not a copy."""
    head = MAGIC + struct.pack("<II", VERSION, len(named))
    yield head
    at = len(head)
    for name in named:
        arr = np.asarray(named[name], dtype=np.float64)
        encoded = name.encode("utf-8")
        if len(encoded) > MAX_NAME_BYTES:
            raise ValueError(f"tensor name {name!r} is longer than {MAX_NAME_BYTES} UTF-8 bytes")
        header = struct.pack(f"<H{len(encoded)}sB{arr.ndim}I", len(encoded), encoded,
                             arr.ndim, *arr.shape)
        pad = -(at + len(header)) % ALIGN
        yield header + bytes(pad)
        at += len(header) + pad + arr.nbytes
        yield np.ascontiguousarray(arr, dtype="<f8").data


def _read_tensors(buf) -> dict[str, np.ndarray]:
    """Parse the archive that the buffer ``buf`` holds into read-only views
    of it, one per tensor.  A size is checked against the buffer's length
    before anything at that size is read or viewed."""
    if buf[:len(MAGIC)] != MAGIC:
        raise ValueError("not a named-tensor archive")
    total, at = len(buf), len(MAGIC)

    def take(n: int) -> bytes:
        nonlocal at
        if n > total - at:
            raise ValueError("truncated archive")
        at += n
        return buf[at - n:at]

    version, count = struct.unpack("<II", take(8))
    if version != VERSION:
        raise ValueError(f"archive version {version} is not supported; "
                         f"this program reads version {VERSION}")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = take(name_len).decode("utf-8")
        ndim = take(1)[0]
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim))
        if any(take(-at % ALIGN)):
            raise ValueError(f"tensor {name!r} has non-zero padding")
        nbytes = 8 * math.prod(dims)
        if nbytes > total - at:
            raise ValueError(f"tensor {name!r} runs past the end of the archive")
        out[name] = np.ndarray(dims, "<f8", buf, at)
        at += nbytes
    if at != total:
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
    """Write ``named``; a name over `MAX_NAME_BYTES` is a ValueError, and no file is written."""
    write_bytes_atomic(path, *_chunks(named))


def load_tensors(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """The archive at ``path`` as read-only views of one read-only mapping."""
    with open(path, "rb") as f:
        if os.fstat(f.fileno()).st_size == 0:  # mmap refuses an empty file
            raise ValueError("not a named-tensor archive: the file is empty")
        return _read_tensors(mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ))
