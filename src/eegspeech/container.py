"""On-disk trial container: a JSON manifest plus one packed data file.

The manifest lists the dataset name, sampling rate, channel names, and one
record per trial (id, subject, prompt, byte offset/length into the data
file).  The data file holds each trial's samples as contiguous little-endian
float32, channel-major.  A manifest field of another JSON type (nothing is
coerced), a duplicate or over-long trial id, a subject id that `check_subject`
refuses and an out-of-range slice raise DataError naming the manifest or the
offending trial.  `digest` identifies a container by the bytes of both files.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .nn.checkpoint import MAX_NAME_BYTES, write_bytes_atomic, write_json_atomic
from .recording import Recording, check_prompt, check_sample_rate, check_subject

MANIFEST_NAME = "manifest.json"
DATA_NAME = "data.bin"
_FORMAT = "trial-container-v1"
#: Bytes `digest` reads at a time.
_DIGEST_CHUNK = 1 << 20
#: Whether a value that `json` read is of each JSON type; a bool is no number.
_JSON_KINDS = {"string": lambda v: type(v) is str, "integer": lambda v: type(v) is int,
               "number": lambda v: type(v) in (int, float), "array": lambda v: type(v) is list,
               "array of strings": lambda v: type(v) is list and all(type(s) is str for s in v)}


def _check_ids(trial_id: str, subject_id: str, seen: set) -> None:
    """A ValueError for a trial id in ``seen`` or too long for a tensor name
    (features.tensors is keyed by trial id), or a subject id `check_subject` refuses."""
    if trial_id in seen:
        raise ValueError("duplicate trial id")
    if len(trial_id.encode("utf-8")) > MAX_NAME_BYTES:
        raise ValueError(f"trial id is longer than {MAX_NAME_BYTES} UTF-8 bytes")
    check_subject(subject_id)


@dataclass(frozen=True)
class TrialRecord:
    trial_id: str
    subject_id: str
    prompt: str
    offset: int
    length: int


@dataclass(frozen=True)
class TrialContainer:
    name: str
    sample_rate_hz: float
    channel_names: tuple[str, ...]
    trials: tuple[TrialRecord, ...]
    root: Path

    @property
    def n_channels(self) -> int:
        return len(self.channel_names)

    @property
    def data_path(self) -> Path:
        return self.root / DATA_NAME

    def n_times(self, record: TrialRecord) -> int:
        """Time points of one trial's stored samples."""
        return record.length // (4 * self.n_channels)


def write_container(root: str | os.PathLike, name: str, sample_rate_hz: float,
                    channel_names, trials) -> TrialContainer:
    """Write a container directory.

    `trials` is an iterable of (trial_id, subject_id, prompt, samples) where
    samples is a channels x times float array; storage is float32.  A rate,
    a prompt, a subject id or a trial id that the readers refuse is a
    DataError, and then no file or directory is written.
    """
    root = Path(root)
    try:
        rate = float(sample_rate_hz)
        check_sample_rate(rate)
    except ValueError as exc:
        raise DataError(f"container {root}: {exc}") from exc
    channel_names = tuple(str(c) for c in channel_names)
    n_channels = len(channel_names)
    records = []
    arrays = []
    offset = 0
    seen = set()
    for trial_id, subject_id, prompt, samples in trials:
        trial_id = str(trial_id)
        try:
            _check_ids(trial_id, str(subject_id), seen)
            check_prompt(prompt)
            # float32 samples are written from the caller's array, without a copy
            arr = np.ascontiguousarray(samples, dtype="<f4")
            if arr.ndim != 2 or arr.shape[0] != n_channels:
                raise ValueError(f"expected {n_channels} channels, got shape {arr.shape}")
        except ValueError as exc:
            raise DataError(f"trial {trial_id!r}: {exc}") from exc
        seen.add(trial_id)
        records.append(TrialRecord(trial_id=trial_id, subject_id=str(subject_id),
                                   prompt=str(prompt), offset=offset, length=arr.nbytes))
        arrays.append(arr)
        offset += arr.nbytes
    if not records:
        raise DataError("container must hold at least one trial")
    manifest = {
        "format": _FORMAT,
        "name": str(name),
        "sample_rate_hz": rate,
        "channel_names": list(channel_names),
        "trials": [asdict(r) for r in records],
    }
    root.mkdir(parents=True, exist_ok=True)
    write_bytes_atomic(root / DATA_NAME, *(arr.data for arr in arrays))
    write_json_atomic(root / MANIFEST_NAME, manifest)
    return TrialContainer(name=str(name), sample_rate_hz=rate,
                          channel_names=channel_names, trials=tuple(records), root=root)


def json_field(doc: dict, key: str, kind: str):
    """``doc[key]`` when it is a JSON ``kind``, a key of `_JSON_KINDS`; a
    ValueError naming the field otherwise."""
    if key not in doc:
        raise ValueError(f"missing field {key!r}")
    value = doc[key]
    if not _JSON_KINDS[kind](value):
        raise ValueError(f"field {key!r} must be a JSON {kind}, got {value!r}")
    return value


def read_container(root: str | os.PathLike) -> TrialContainer:
    root = Path(root)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise DataError(f"no manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:  # malformed JSON or UTF-8
        raise DataError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != _FORMAT:
        raise DataError("manifest missing or wrong 'format' marker")
    try:
        # JSON escapes can spell a lone UTF-16 surrogate, which no output file can hold
        json.dumps(manifest, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DataError(f"manifest text is not valid Unicode: {exc}") from exc
    try:
        name = json_field(manifest, "name", "string")
        rate = float(json_field(manifest, "sample_rate_hz", "number"))
        check_sample_rate(rate)
        channel_names = tuple(json_field(manifest, "channel_names", "array of strings"))
        raw_trials = json_field(manifest, "trials", "array")
    except (ValueError, OverflowError) as exc:  # OverflowError: a rate too large for a float
        raise DataError(f"manifest {manifest_path}: {exc}") from exc
    if not channel_names:
        raise DataError("manifest lists no channels")
    data_path = root / DATA_NAME
    if not data_path.is_file():
        raise DataError(f"no data file at {data_path}")
    data_size = data_path.stat().st_size
    n_channels = len(channel_names)
    records = []
    seen = set()
    for entry in raw_trials:
        try:
            record = TrialRecord(*(json_field(entry, *field) for field in (
                ("trial_id", "string"), ("subject_id", "string"), ("prompt", "string"),
                ("offset", "integer"), ("length", "integer"))))
        except (TypeError, ValueError) as exc:
            raise DataError(f"manifest {manifest_path}: bad trial record {entry!r}: "
                            f"{exc}") from exc
        try:
            _check_ids(record.trial_id, record.subject_id, seen)
            end = record.offset + record.length
            if not 0 <= record.offset < end <= data_size:
                raise ValueError(f"slice [{record.offset}, {end}) outside data file of "
                                 f"{data_size} bytes")
            if record.length % (4 * n_channels) != 0:
                raise ValueError(f"length {record.length} not a multiple of {n_channels} "
                                 f"channels x 4 bytes")
        except ValueError as exc:
            raise DataError(f"trial {record.trial_id!r}: {exc}") from exc
        seen.add(record.trial_id)
        records.append(record)
    if not records:
        raise DataError("container holds no trials")
    return TrialContainer(name=name, sample_rate_hz=rate,
                          channel_names=channel_names, trials=tuple(records), root=root)


def digest(container: TrialContainer) -> str:
    """The hex sha256 of the manifest's bytes followed by the data file's.

    Each file is read in chunks into one reused buffer, so no whole file is
    held; a file that cannot be read is a DataError.
    """
    h = hashlib.sha256()
    buf = bytearray(_DIGEST_CHUNK)
    view = memoryview(buf)
    for path in (container.root / MANIFEST_NAME, container.data_path):
        try:
            with open(path, "rb", buffering=0) as f:
                while n := f.readinto(buf):
                    h.update(view[:n])
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    return h.hexdigest()


def load_samples(container: TrialContainer, record: TrialRecord) -> np.ndarray:
    """The stored float32 matrix of one trial, as channels x times float64."""
    with open(container.data_path, "rb") as f:
        f.seek(record.offset)
        raw = f.read(record.length)
    if len(raw) != record.length:
        raise DataError(f"trial {record.trial_id!r}: short read from data file")
    flat = np.frombuffer(raw, dtype="<f4")
    n_times = len(flat) // container.n_channels
    return flat.astype(np.float64).reshape(container.n_channels, n_times)


def load_recording(container: TrialContainer, record: TrialRecord) -> Recording:
    """One trial as a Recording; samples the Recording rejects (NaN or Inf
    amplitudes, too few channels or time points, an unknown prompt) raise
    DataError."""
    samples = load_samples(container, record)
    try:
        return Recording(subject_id=record.subject_id, prompt=record.prompt,
                         samples=samples, sample_rate_hz=container.sample_rate_hz,
                         channel_names=container.channel_names)
    except ValueError as exc:
        raise DataError(f"trial {record.trial_id!r}: {exc}") from exc
