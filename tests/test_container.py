"""On-disk trial container: round trips, idempotence, corruption reporting."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from eegspeech import container
from eegspeech.errors import DataError
from eegspeech.nn.checkpoint import MAX_NAME_BYTES


def _write_demo(root, n_trials=3, n_channels=2, n_times=8, seed=0):
    rng = np.random.default_rng(seed)
    trials = [(f"t{i:03d}", f"s{i % 2:02d}", "/uw/" if i % 2 else "/m/",
               rng.normal(size=(n_channels, n_times)).astype(np.float32))
              for i in range(n_trials)]
    written = container.write_container(root, "demo", 128.0,
                                        [f"ch{c:02d}" for c in range(n_channels)],
                                        trials)
    return written, trials


def test_round_trip_is_bitwise(tmp_path):
    _, trials = _write_demo(tmp_path)
    loaded = container.read_container(tmp_path)
    assert loaded.name == "demo"
    assert loaded.sample_rate_hz == 128.0
    assert loaded.n_channels == 2
    assert len(loaded.trials) == 3
    for record, (trial_id, subject, prompt, samples) in zip(loaded.trials, trials):
        assert record.trial_id == trial_id
        assert record.subject_id == subject
        assert record.prompt == prompt
        got = container.load_samples(loaded, record)
        assert np.array_equal(got, samples.astype(np.float64))


def test_data_file_holds_each_trial_as_little_endian_float32(tmp_path):
    rng = np.random.default_rng(2)
    trials = [("a", "s0", "/m/", rng.normal(size=(3, 5))),                      # float64
              ("b", "s0", "/m/", rng.normal(size=(3, 4)).astype(np.float32)),
              ("c", "s1", "/uw/", np.asfortranarray(rng.normal(size=(3, 6)))),  # strided
              ("d", "s1", "/uw/", [[1, 2], [3, 4], [5, 6]])]                    # a list
    written = container.write_container(tmp_path, "mixed", 128.0, ["x", "y", "z"], trials)
    want = b"".join(np.asarray(s, dtype=np.float32).astype("<f4").tobytes()
                    for *_, s in trials)
    assert (tmp_path / "data.bin").read_bytes() == want
    assert [r.length for r in written.trials] == [60, 48, 72, 24]


def test_float32_trials_are_written_without_a_copy(tmp_path):
    rng = np.random.default_rng(3)
    trials = [(f"t{i}", "s0", "/m/", rng.normal(size=(62, 2000)).astype(np.float32))
              for i in range(20)]
    tracemalloc.start()
    try:
        container.write_container(tmp_path, "big", 1000.0, [f"c{c}" for c in range(62)],
                                  trials)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the samples are 9.9 MB; a copy of any trial would be 0.5 MB
    assert peak < 400_000


def test_rewrite_is_byte_identical(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    _write_demo(a_dir)
    _write_demo(b_dir)
    assert (a_dir / "manifest.json").read_bytes() == (b_dir / "manifest.json").read_bytes()
    assert (a_dir / "data.bin").read_bytes() == (b_dir / "data.bin").read_bytes()


def test_load_recording_carries_metadata(tmp_path):
    loaded, _ = _write_demo(tmp_path)
    rec = container.load_recording(loaded, loaded.trials[1])
    assert rec.prompt == "/uw/"
    assert rec.subject_id == "s01"
    assert rec.channel_names == ("ch00", "ch01")
    assert rec.samples.shape == (2, 8)


def test_unknown_prompt_names_trial(tmp_path):
    trials = [("bad-one", "s00", "/uw/", np.zeros((2, 4), dtype=np.float32)),
              ("ok", "s00", "/uw/", np.zeros((2, 4), dtype=np.float32))]
    container.write_container(tmp_path, "demo", 128.0, ["a", "b"], trials)
    # write_container refuses the prompt, so only a hand-edited manifest holds it
    _corrupt_manifest(tmp_path, lambda m: m["trials"][0].update(prompt="/zz/"))
    written = container.read_container(tmp_path)
    with pytest.raises(DataError, match="trial 'bad-one': unknown prompt '/zz/'"):
        container.load_recording(written, written.trials[0])


def test_write_rejects_duplicate_trial_ids(tmp_path):
    trials = [("t0", "s00", "/uw/", np.zeros((2, 4), dtype=np.float32)),
              ("t0", "s00", "/m/", np.zeros((2, 4), dtype=np.float32))]
    with pytest.raises(DataError, match="duplicate"):
        container.write_container(tmp_path, "demo", 128.0, ["a", "b"], trials)


def test_write_rejects_channel_count_mismatch(tmp_path):
    trials = [("t0", "s00", "/uw/", np.zeros((3, 4), dtype=np.float32))]
    with pytest.raises(DataError):
        container.write_container(tmp_path, "demo", 128.0, ["a", "b"], trials)


def test_write_rejects_empty_container(tmp_path):
    with pytest.raises(DataError):
        container.write_container(tmp_path, "demo", 128.0, ["a", "b"], [])


_TRIAL = np.zeros((2, 4), dtype=np.float32)


@pytest.mark.parametrize("rate, trials", [
    (float("nan"), [("t0", "s00", "/uw/", _TRIAL)]),
    (128.0, [("t0", "s00", "/zz/", _TRIAL)]),
    (128.0, [("t0", "s00", "/uw/", _TRIAL), ("t0", "s00", "/m/", _TRIAL)]),
    (128.0, [("t0", "s00", "/uw/", np.zeros((3, 4), dtype=np.float32))]),
    (128.0, []),
], ids=["rate", "prompt", "duplicate", "channels", "empty"])
def test_a_refused_write_creates_no_directory(tmp_path, rate, trials):
    root = tmp_path / "new" / "container"
    with pytest.raises(DataError):
        container.write_container(root, "demo", rate, ["a", "b"], trials)
    assert not (tmp_path / "new").exists()


def test_missing_manifest(tmp_path):
    with pytest.raises(DataError, match="manifest"):
        container.read_container(tmp_path)


def test_invalid_json_manifest(tmp_path):
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(DataError, match="JSON"):
        container.read_container(tmp_path)


def test_wrong_format_marker(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(DataError, match="format"):
        container.read_container(tmp_path)


def _corrupt_manifest(root, mutate):
    path = root / "manifest.json"
    manifest = json.loads(path.read_text())
    mutate(manifest)
    path.write_text(json.dumps(manifest))


def test_offset_past_end_names_trial(tmp_path):
    _write_demo(tmp_path)

    def push_offset(manifest):
        manifest["trials"][2]["offset"] = 10_000_000

    _corrupt_manifest(tmp_path, push_offset)
    with pytest.raises(DataError, match="t002"):
        container.read_container(tmp_path)


def test_negative_offset_rejected(tmp_path):
    _write_demo(tmp_path)
    _corrupt_manifest(tmp_path, lambda m: m["trials"][0].update(offset=-4))
    with pytest.raises(DataError, match="t000"):
        container.read_container(tmp_path)


def test_length_not_multiple_of_frame_rejected(tmp_path):
    _write_demo(tmp_path)
    _corrupt_manifest(tmp_path, lambda m: m["trials"][1].update(length=13))
    with pytest.raises(DataError, match="t001"):
        container.read_container(tmp_path)


def test_duplicate_ids_in_manifest_rejected(tmp_path):
    _write_demo(tmp_path)
    _corrupt_manifest(tmp_path, lambda m: m["trials"][1].update(trial_id="t000"))
    with pytest.raises(DataError, match="duplicate"):
        container.read_container(tmp_path)


def test_missing_record_field_rejected(tmp_path):
    _write_demo(tmp_path)
    _corrupt_manifest(tmp_path, lambda m: m["trials"][0].pop("prompt"))
    with pytest.raises(DataError, match="trial record"):
        container.read_container(tmp_path)


def test_missing_data_file(tmp_path):
    _write_demo(tmp_path)
    (tmp_path / "data.bin").unlink()
    with pytest.raises(DataError, match="data file"):
        container.read_container(tmp_path)


def test_storage_is_float32(tmp_path):
    """Values survive exactly because inputs already fit in single precision."""
    value = np.float32(1.0 / 3.0)
    trials = [("t0", "s00", "/uw/", np.full((1, 4), value, dtype=np.float32)),
              ("t1", "s00", "/m/", np.zeros((1, 4), dtype=np.float32))]
    written = container.write_container(tmp_path, "demo", 128.0, ["only"], trials)
    assert (tmp_path / "data.bin").stat().st_size == 2 * 4 * 4
    got = container.load_samples(written, written.trials[0])
    assert got.dtype == np.float64
    assert np.all(got == float(value))


def test_digest_is_the_sha256_of_the_manifest_then_the_data(tmp_path, monkeypatch):
    _write_demo(tmp_path, n_trials=5, n_times=40)
    cont = container.read_container(tmp_path)
    both = (tmp_path / "manifest.json").read_bytes() + (tmp_path / "data.bin").read_bytes()
    want = hashlib.sha256(both).hexdigest()
    assert container.digest(cont) == want
    # chunks that split each file, and one larger than both
    for chunk in (1, 7, 1 << 20):
        monkeypatch.setattr(container, "_DIGEST_CHUNK", chunk)
        assert container.digest(cont) == want


def test_digest_changes_with_one_bit_of_either_file(tmp_path):
    _write_demo(tmp_path)
    cont = container.read_container(tmp_path)
    before = container.digest(cont)
    for name in ("data.bin", "manifest.json"):
        path = tmp_path / name
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 1
        path.write_bytes(bytes(blob))
        after = container.digest(cont)
        assert after != before
        before = after


def test_digest_of_an_unreadable_file_is_a_data_error(tmp_path):
    _write_demo(tmp_path)
    cont = container.read_container(tmp_path)
    (tmp_path / "data.bin").unlink()
    with pytest.raises(DataError, match="data.bin"):
        container.digest(cont)


#: Subject ids that would put a fold's files outside its directory: a fold
#: is named ``subject-<id>``, and the name is a path component.
ESCAPING_SUBJECTS = ["../../../../../escaped", "lab/s00", "s\0"]


@pytest.mark.parametrize("subject", ESCAPING_SUBJECTS)
def test_write_refuses_a_subject_id_with_a_slash_or_nul(tmp_path, subject):
    root = tmp_path / "new"
    with pytest.raises(DataError, match="trial 't0': subject id .* may not contain"):
        container.write_container(root, "demo", 128.0, ["a", "b"],
                                  [("t0", subject, "/uw/", _TRIAL)])
    assert not root.exists()


def test_write_refuses_a_trial_id_longer_than_a_tensor_name(tmp_path):
    # features.tensors is keyed by trial id; 32 768 two-byte characters are
    # one UTF-8 byte more than a tensor name may hold
    root = tmp_path / "new"
    long_id = "é" * (MAX_NAME_BYTES // 2 + 1)
    with pytest.raises(DataError, match="trial 'é+': trial id is longer than 65535 UTF-8 bytes"):
        container.write_container(root, "demo", 128.0, ["a", "b"],
                                  [(long_id, "s00", "/uw/", _TRIAL)])
    assert not root.exists()


@pytest.mark.parametrize("subject", ESCAPING_SUBJECTS)
def test_read_refuses_a_subject_id_with_a_slash_or_nul(tmp_path, subject):
    _write_demo(tmp_path)
    _corrupt_manifest(tmp_path, lambda m: m["trials"][1].update(subject_id=subject))
    with pytest.raises(DataError, match="trial 't001': subject id .* may not contain"):
        container.read_container(tmp_path)


@pytest.mark.parametrize("where, key, value", [
    ("manifest", "name", 5),
    ("manifest", "sample_rate_hz", "128"),
    ("manifest", "sample_rate_hz", True),
    ("manifest", "channel_names", "ab"),
    ("manifest", "channel_names", ["a", 2]),
    ("manifest", "trials", {"t000": {}}),
    ("trial", "trial_id", 7),
    ("trial", "subject_id", 0),
    ("trial", "prompt", ["/uw/"]),
    ("trial", "offset", 0.0),
    ("trial", "offset", "0"),
    ("trial", "offset", False),
    ("trial", "length", 64.0),
])
def test_read_refuses_a_field_of_another_json_type(tmp_path, where, key, value):
    _write_demo(tmp_path)

    def retype(manifest):
        (manifest if where == "manifest" else manifest["trials"][0])[key] = value

    _corrupt_manifest(tmp_path, retype)
    with pytest.raises(DataError) as err:
        container.read_container(tmp_path)
    message = str(err.value)
    assert message.startswith(f"manifest {tmp_path / 'manifest.json'}: ")
    assert f"field {key!r} must be a JSON " in message


def test_a_rate_written_as_a_json_integer_reads_as_a_float(tmp_path):
    _write_demo(tmp_path)
    _corrupt_manifest(tmp_path, lambda m: m.update(sample_rate_hz=128))
    loaded = container.read_container(tmp_path)
    assert loaded.sample_rate_hz == 128.0 and type(loaded.sample_rate_hz) is float
    assert all(type(r.offset) is int and type(r.length) is int for r in loaded.trials)


def test_an_integer_rate_too_large_for_a_float_is_a_data_error(tmp_path):
    _write_demo(tmp_path)
    _corrupt_manifest(tmp_path, lambda m: m.update(sample_rate_hz=10**400))
    with pytest.raises(DataError, match="int too large to convert to float"):
        container.read_container(tmp_path)
