"""On-disk trial container: round trips, idempotence, corruption reporting."""

import json
import tracemalloc

import numpy as np
import pytest

from eegspeech import container
from eegspeech.errors import DataError


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
