"""End-to-end command-line tests, run in-process against `main`."""

import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import tracemalloc
import warnings
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from eegspeech import cli, config, container, covariance, networks, parallel, pipeline
from eegspeech.cli import main
from eegspeech.errors import DataError, LeakageError, TrainingError
from eegspeech.nn import load_tensors
from eegspeech.nn.checkpoint import MAX_NAME_BYTES

from conftest import workers

FAST_SECTIONS = {
    "covariance": {"input_size": 6},
    "cnn": {"epochs": 3, "batch_size": 16},
    "lstm": {"epochs": 3, "batch_size": 16},
    "dae": {"epochs": 5, "batch_size": 16},
    "gbt": {"n_estimators": 30, "max_depth": 3},
}

ZERO_SECTIONS = {
    "covariance": {"input_size": 6},
    "cnn": {"epochs": 0},
    "lstm": {"epochs": 0},
    "dae": {"epochs": 0},
    "gbt": {"n_estimators": 0},
}


def _write_config(path: Path, out_dir: Path, sections=FAST_SECTIONS, **extra) -> Path:
    raw = {"seed": 11, "tasks": ["uw"], "output_dir": str(out_dir), **sections, **extra}
    path.write_text(json.dumps(raw))
    return path


def _make_container(root: Path, n_trials=40, n_channels=6, n_subjects=2, seed=5):
    code = main(["synth", "--out", str(root), "--n-trials", str(n_trials),
                 "--n-channels", str(n_channels), "--n-subjects", str(n_subjects),
                 "--seed", str(seed)])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """One full `train` invocation shared by the read-only assertions."""
    base = tmp_path_factory.mktemp("trained")
    cont = _make_container(base / "data")
    out = base / "out"
    cfg = _write_config(base / "run.json", out)
    code = main(["train", "--config", str(cfg), "--container", str(cont)])
    assert code == 0
    return cont, cfg, out


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_same_seed_is_byte_identical(tmp_path):
    _make_container(tmp_path / "a", n_trials=6, seed=9)
    _make_container(tmp_path / "b", n_trials=6, seed=9)
    for name in ("manifest.json", "data.bin"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_synth_seed_changes_data(tmp_path):
    _make_container(tmp_path / "a", n_trials=6, seed=1)
    _make_container(tmp_path / "b", n_trials=6, seed=2)
    assert (tmp_path / "a" / "data.bin").read_bytes() != (tmp_path / "b" / "data.bin").read_bytes()


def test_synth_rejects_zero_trials(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "c"), "--n-trials", "0"]) == 2


def test_synth_rejects_unknown_task(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "c"), "--task", "vowels"]) == 2


def test_synth_rejects_one_channel(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "c"), "--n-channels", "1"]) == 2


@pytest.mark.parametrize("flag", ["--sample-rate=0", "--sample-rate=-5", "--separability=nan",
                                  "--noise=inf", "--noise=-1"])
def test_synth_refuses_a_value_that_gives_unusable_trials(tmp_path, flag):
    assert main(["synth", "--out", str(tmp_path / "c"), "--n-trials", "6", flag]) == 2
    assert not (tmp_path / "c").exists()


# ---------------------------------------------------------------------------
# featurize
# ---------------------------------------------------------------------------


def _features_of(cont: Path, cfg: Path) -> dict:
    """Each trial's CCV matrix, computed directly from the container."""
    run = config.load_config(cfg)
    stored = container.read_container(cont)
    return {r.trial_id: covariance.ccv_matrix(
                pipeline.preprocess(container.load_recording(stored, r), run)).values
            for r in stored.trials}


def test_featurize_writes_one_matrix_per_trial(tmp_path):
    cont = _make_container(tmp_path / "data", n_trials=3, n_channels=4)
    out = tmp_path / "feat"
    cfg = _write_config(tmp_path / "run.json", out)
    assert main(["featurize", "--config", str(cfg), "--container", str(cont)]) == 0
    doc = json.loads((out / "features.json").read_text())
    assert sorted(p.name for p in out.iterdir()) == ["features.json", "features.tensors"]
    matrices = load_tensors(out / "features.tensors")
    expected = _features_of(cont, cfg)
    assert list(matrices) == doc["trials"] == list(expected)
    for trial_id, values in matrices.items():
        assert np.array_equal(values, expected[trial_id])
        assert np.array_equal(values, values.T)
        eigs = np.linalg.eigvalsh(values)
        assert eigs.min() >= -1e-8 * np.abs(values).max()


def test_featurize_keeps_path_like_trial_ids_inside_out(tmp_path):
    rng = np.random.default_rng(3)
    ids = ["sub/t0", "../escape"]
    container.write_container(tmp_path / "data", "paths", 128.0,
                              [f"ch{c}" for c in range(4)],
                              [(t, "s00", "/uw/", rng.normal(size=(4, 64))) for t in ids])
    out = tmp_path / "nest" / "feat"
    cfg = _write_config(tmp_path / "run.json", out)
    before = sorted(p for p in tmp_path.rglob("*"))
    assert main(["featurize", "--config", str(cfg), "--container",
                 str(tmp_path / "data")]) == 0
    added = sorted(set(tmp_path.rglob("*")) - set(before))
    assert added == [tmp_path / "nest", out, out / "features.json", out / "features.tensors"]
    matrices = load_tensors(out / "features.tensors")
    expected = _features_of(tmp_path / "data", cfg)
    assert list(matrices) == ids
    for trial_id in ids:
        assert np.array_equal(matrices[trial_id], expected[trial_id])


def test_featurize_is_idempotent(tmp_path):
    cont = _make_container(tmp_path / "data", n_trials=3, n_channels=4)
    out = tmp_path / "feat"
    cfg = _write_config(tmp_path / "run.json", out)
    main(["featurize", "--config", str(cfg), "--container", str(cont)])
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    main(["featurize", "--config", str(cfg), "--container", str(cont)])
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_featurize_corrupt_container_exits_3(tmp_path):
    cont = _make_container(tmp_path / "data", n_trials=3, n_channels=4)
    manifest = json.loads((cont / "manifest.json").read_text())
    manifest["trials"][0]["offset"] = 10_000_000
    (cont / "manifest.json").write_text(json.dumps(manifest))
    cfg = _write_config(tmp_path / "run.json", tmp_path / "feat")
    assert main(["featurize", "--config", str(cfg), "--container", str(cont)]) == 3


@pytest.mark.parametrize("rate", [0.0, -128.0, float("nan"), float("inf")])
@pytest.mark.parametrize("verb", ["featurize", "train", "crossval", "evaluate"])
def test_a_sample_rate_that_is_not_finite_and_positive_exits_3(tmp_path, capsys, verb, rate):
    cont = _make_container(tmp_path / "data", n_trials=12)
    manifest = json.loads((cont / "manifest.json").read_text())
    manifest["sample_rate_hz"] = rate  # json writes NaN and Infinity, and reads them back
    (cont / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "run.json", out, sections=ZERO_SECTIONS)
    models = tmp_path / "models"
    models.mkdir()
    argv = [verb, "--config", str(cfg), "--container", str(cont)]
    if verb == "evaluate":
        argv += ["--models", str(models)]
    capsys.readouterr()
    assert main(argv) == 3
    assert f"manifest {cont / 'manifest.json'}: sample_rate_hz" in capsys.readouterr().err
    assert not out.exists()


def test_featurize_non_finite_samples_exit_3(tmp_path):
    samples = np.ones((4, 64), dtype=np.float32)
    samples[2, 10] = np.nan
    container.write_container(tmp_path / "data", "nan", 128.0,
                              [f"ch{c}" for c in range(4)], [("t0", "s00", "/uw/", samples)])
    cfg = _write_config(tmp_path / "run.json", tmp_path / "feat")
    assert main(["featurize", "--config", str(cfg), "--container",
                 str(tmp_path / "data")]) == 3


def test_high_hz_at_nyquist_exits_2(tmp_path):
    cont = _make_container(tmp_path / "data", n_trials=12)  # sampled at 128 Hz
    cfg = _write_config(tmp_path / "run.json", tmp_path / "out", sections=ZERO_SECTIONS,
                        preprocessing={"high_hz": 64.0})
    assert main(["train", "--config", str(cfg), "--container", str(cont)]) == 2


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_produces_accurate_report(trained_run):
    _, _, out = trained_run
    report = json.loads((out / "uw" / "report.json").read_text())
    assert report["task"] == "uw"
    assert report["mode"] == "random_holdout"
    assert report["accuracy"] >= 0.9
    assert report["skipped_folds"] == []


def test_train_writes_resolved_config_and_summary(trained_run):
    _, _, out = trained_run
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["seed"] == 11
    assert "output_dir" not in resolved
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tasks"] == ["uw"]
    assert summary["accuracy"]["mean"] >= 0.9
    table = (out / "summary.csv").read_text().splitlines()
    assert table[0] == "metric,uw"
    assert table[1].startswith("accuracy_pct,")


def test_train_saves_bundles_and_traces(trained_run):
    _, _, out = trained_run
    bundle_dir = out / "uw" / "bundles" / "holdout"
    assert sorted(p.name for p in bundle_dir.iterdir()) == ["meta.json", "model.tensors"]
    for model in ("cnn", "lstm", "dae"):
        trace = out / "uw" / "traces" / f"holdout.{model}.csv"
        lines = trace.read_text().splitlines()
        assert lines[0] == "epoch,loss,accuracy"
        assert len(lines) > 1


def test_predictions_csv_covers_test_trials(trained_run):
    _, _, out = trained_run
    report = json.loads((out / "uw" / "report.json").read_text())
    n_test = report["folds"][0]["n_test"]
    lines = (out / "uw" / "predictions.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + n_test


def test_missing_config_key_exits_2(tmp_path):
    cont = _make_container(tmp_path / "data", n_trials=12)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"tasks": ["uw"]}))  # no seed
    assert main(["train", "--config", str(cfg), "--container", str(cont)]) == 2


def test_invalid_config_json_exits_2(tmp_path):
    cont = _make_container(tmp_path / "data", n_trials=12)
    cfg = tmp_path / "run.json"
    cfg.write_text("{broken")
    assert main(["train", "--config", str(cfg), "--container", str(cont)]) == 2


def test_threads_config_key_exits_2(tmp_path):
    cont = _make_container(tmp_path / "data", n_trials=12)
    cfg = _write_config(tmp_path / "run.json", tmp_path / "out", sections=ZERO_SECTIONS,
                        threads=2)
    assert main(["train", "--config", str(cfg), "--container", str(cont)]) == 2


def test_single_class_container_exits_4(tmp_path):
    rng = np.random.default_rng(0)
    trials = [(f"t{i}", "s00", "/uw/", rng.normal(size=(4, 64)).astype(np.float32))
              for i in range(12)]
    container.write_container(tmp_path / "data", "mono", 128.0,
                              [f"ch{c}" for c in range(4)], trials)
    cfg = _write_config(tmp_path / "run.json", tmp_path / "out",
                        sections=ZERO_SECTIONS, tasks=["nasal"])
    assert main(["train", "--config", str(cfg), "--container",
                 str(tmp_path / "data")]) == 4


def _files(root: Path) -> list[Path]:
    return sorted(root.rglob("*"))


@pytest.mark.parametrize("subject", ["../../../../../escaped", "lab/s00"])
@pytest.mark.parametrize("verb", ["train", "crossval"])
def test_a_subject_id_that_leaves_its_fold_directory_exits_3(tmp_path, capsys, verb, subject):
    # a fold is named subject-<id>, and its bundle directory after it
    cont = _make_container(tmp_path / "data", n_trials=12)
    manifest = json.loads((cont / "manifest.json").read_text())
    for trial in manifest["trials"]:
        if trial["subject_id"] == "s00":
            trial["subject_id"] = subject
    (cont / "manifest.json").write_text(json.dumps(manifest))
    cfg = _write_config(tmp_path / "run.json", tmp_path / "run" / "out", sections=ZERO_SECTIONS)
    before = _files(tmp_path)
    capsys.readouterr()
    assert main([verb, "--config", str(cfg), "--container", str(cont)]) == 3
    err = capsys.readouterr().err
    assert f"subject id {subject!r} may not contain" in err and "Traceback" not in err
    assert _files(tmp_path) == before


def _rename_first_trial(cont: Path, trial_id: str) -> None:
    manifest = json.loads((cont / "manifest.json").read_text())
    manifest["trials"][0]["trial_id"] = trial_id
    (cont / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("verb", ["featurize", "train", "crossval", "evaluate"])
def test_a_trial_id_longer_than_a_tensor_name_exits_3(tmp_path, capsys, verb):
    # features.tensors is keyed by trial id, and a tensor name's length is a u16
    cont = _make_container(tmp_path / "data", n_trials=12)
    _rename_first_trial(cont, "x" * 70000)
    cfg = _write_config(tmp_path / "run.json", tmp_path / "run" / "out", sections=ZERO_SECTIONS)
    (tmp_path / "models").mkdir()
    argv = [verb, "--config", str(cfg), "--container", str(cont)]
    if verb == "evaluate":
        argv += ["--models", str(tmp_path / "models")]
    before = _files(tmp_path)
    capsys.readouterr()
    assert main(argv) == 3
    assert "trial id is longer than 65535 UTF-8 bytes" in capsys.readouterr().err
    assert _files(tmp_path) == before


def test_a_trial_id_as_long_as_a_tensor_name_round_trips(tmp_path):
    cont = _make_container(tmp_path / "data", n_trials=12)
    longest = "x" * MAX_NAME_BYTES
    _rename_first_trial(cont, longest)
    out, replay = tmp_path / "out", tmp_path / "replay"
    cfg = _write_config(tmp_path / "run.json", out, sections=ZERO_SECTIONS)
    assert main(["train", "--config", str(cfg), "--container", str(cont)]) == 0
    assert main(["evaluate", "--config", str(cfg), "--container", str(cont),
                 "--models", str(out), "--out", str(replay)]) == 0
    assert next(iter(load_tensors(out / cli.FEATURES_ARCHIVE))) == longest
    assert (replay / "uw" / "predictions.csv").read_bytes() == \
           (out / "uw" / "predictions.csv").read_bytes()


@pytest.mark.parametrize("where, key, value", [
    ("trial", "offset", 0.9),  # the offset of the first trial is 0
    ("trial", "offset", "0"),
    ("trial", "length", "length as a float"),
    ("manifest", "channel_names", "abcdef"),
    ("manifest", "sample_rate_hz", "128"),
    ("trial", "trial_id", 7),
    ("trial", "subject_id", 0),
    ("manifest", "name", 5),
])
def test_a_manifest_field_of_another_json_type_exits_3(tmp_path, capsys, where, key, value):
    cont = _make_container(tmp_path / "data", n_trials=12)
    path = cont / "manifest.json"
    manifest = json.loads(path.read_text())
    owner = manifest if where == "manifest" else manifest["trials"][0]
    owner[key] = float(owner[key]) if value == "length as a float" else value
    path.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "run.json", out, sections=ZERO_SECTIONS)
    capsys.readouterr()
    assert main(["featurize", "--config", str(cfg), "--container", str(cont)]) == 3
    err = capsys.readouterr().err
    assert f"manifest {path}: " in err and f"field {key!r} must be a JSON " in err
    assert "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# crossval
# ---------------------------------------------------------------------------


def test_crossval_reports_one_fold_per_subject(tmp_path):
    cont = _make_container(tmp_path / "data", n_trials=24, n_subjects=3)
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "run.json", out, sections=ZERO_SECTIONS)
    assert main(["crossval", "--config", str(cfg), "--container", str(cont)]) == 0
    report = json.loads((out / "uw" / "report.json").read_text())
    assert report["mode"] == "leave_one_subject_out"
    assert [f["name"] for f in report["folds"]] == \
           ["subject-s00", "subject-s01", "subject-s02"]


def test_crossval_filters_each_trial_once(tmp_path, monkeypatch):
    cont = _make_container(tmp_path / "data", n_trials=24, n_subjects=3)
    cfg = _write_config(tmp_path / "run.json", tmp_path / "out", sections=ZERO_SECTIONS,
                        tasks=["uw", "iy"])
    calls = []
    original = pipeline.bandpass_filter

    def counting(rec, spec):
        calls.append(rec)
        return original(rec, spec)

    monkeypatch.setattr(pipeline, "bandpass_filter", counting)
    assert main(["crossval", "--config", str(cfg), "--container", str(cont)]) == 0
    assert len(calls) == 24  # once per trial, not once per trial and task


def test_crossval_with_saturated_hessians_exits_0_without_warnings(tmp_path):
    # Without lambda, deep trees at learning rate 1 drive every probability to
    # exactly 0 or 1, so whole nodes have H = 0 and H + lambda = 0.
    assert main(["synth", "--out", str(tmp_path / "data"), "--n-trials", "180",
                 "--n-channels", "8", "--n-subjects", "3", "--separability", "0",
                 "--seed", "5"]) == 0
    sections = {**ZERO_SECTIONS, "covariance": {"input_size": 8},
                "gbt": {"n_estimators": 60, "max_depth": 10, "reg_lambda": 0,
                        "min_child_weight": 0, "learning_rate": 1.0}}
    cfg = _write_config(tmp_path / "run.json", tmp_path / "out", sections=sections)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["crossval", "--config", str(cfg), "--container", str(tmp_path / "data")])
    assert code == 0


def _model_refs(bundle):
    return [weakref.ref(obj) for obj in (bundle, bundle.cnn, bundle.lstm, bundle.dae)]


def _alive(refs) -> int:
    gc.collect()
    return sum(ref() is not None for ref in refs)


def test_crossval_releases_a_tasks_bundles_before_the_next_task(tmp_path, monkeypatch):
    cont = _make_container(tmp_path / "data", n_trials=24, n_subjects=3)
    cfg = _write_config(tmp_path / "run.json", tmp_path / "out", tasks=["uw", "iy"],
                        sections={**ZERO_SECTIONS, "gbt": {"n_estimators": 2}})
    refs, alive_at_save = [], []
    original = pipeline.save_bundle

    def tracking(bundle, root):
        # each fold is saved as soon as it is trained, so every earlier fold's
        # bundle, of this task or another, must be gone by now
        alive_at_save.append(_alive(refs))
        refs.extend(_model_refs(bundle))
        original(bundle, root)

    monkeypatch.setattr(pipeline, "save_bundle", tracking)
    with workers(1):  # one worker: every unit trains in this process
        assert main(["crossval", "--config", str(cfg), "--container", str(cont)]) == 0
    assert alive_at_save == [0] * 6
    assert _alive(refs) == 0


def test_crossval_live_data_stays_level_across_folds_and_tasks(tmp_path, monkeypatch):
    # a bundle of the 6x6 networks holds about 20 MB of weights, so a fold that
    # outlived its save would lift every later fold's level by that much
    cont = _make_container(tmp_path / "data", n_trials=24, n_subjects=3)
    cfg = _write_config(tmp_path / "run.json", tmp_path / "out", tasks=["uw", "iy"],
                        sections={**ZERO_SECTIONS, "gbt": {"n_estimators": 2}})
    levels = []  # live bytes after each fold's save, and when the next fold starts
    original_save, original_train = pipeline.save_bundle, networks.train_cnn

    def saving(bundle, root):
        original_save(bundle, root)
        levels.append(("saved", tracemalloc.get_traced_memory()[0]))

    def training(*args, **kwargs):
        levels.append(("started", tracemalloc.get_traced_memory()[0]))
        return original_train(*args, **kwargs)

    monkeypatch.setattr(pipeline, "save_bundle", saving)
    monkeypatch.setattr(networks, "train_cnn", training)
    tracemalloc.start()
    try:
        with workers(1):  # one worker: every unit trains in this process
            assert main(["crossval", "--config", str(cfg), "--container", str(cont)]) == 0
    finally:
        tracemalloc.stop()
    assert [kind for kind, _ in levels] == ["started", "saved"] * 6
    for kind in ("started", "saved"):
        live = [level for k, level in levels if k == kind]
        assert max(abs(level - live[0]) for level in live) < 5_000_000, (kind, live)


def test_a_task_whose_later_fold_fails_leaves_no_bundle(tmp_path, monkeypatch):
    cont = _make_container(tmp_path / "data", n_trials=24, n_subjects=3)
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "run.json", out,
                        sections={**ZERO_SECTIONS, "gbt": {"n_estimators": 2}})
    calls = []
    original = networks.train_lstm

    def failing_second_fold(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise TrainingError("the second fold's LSTM failed")
        return original(*args, **kwargs)

    monkeypatch.setattr(networks, "train_lstm", failing_second_fold)
    with workers(1):  # one worker: every unit trains in this process
        assert main(["crossval", "--config", str(cfg), "--container", str(cont)]) == 4
    # the first fold was written when it ended; the failure took it back
    assert [p for p in (out / "uw").rglob("*")] == []
    # and no features are left for an evaluate to reuse
    assert sorted(p.name for p in out.iterdir()) == ["config.resolved.json"]


def _tree(root: Path) -> dict:
    """Every file under ``root`` by its relative path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _no_child_left() -> None:
    # neither alive nor unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _failing_fold(fold_name, fail):
    """``pipeline.train_fold``, calling ``fail()`` first for the fold ``fold_name``."""
    original = pipeline.train_fold

    def train(covs, labels, task, fold, *args):
        if task.task_id == "uw" and fold.name == fold_name:
            fail()
        return original(covs, labels, task, fold, *args)

    return train


def _two_task_crossval(tmp_path, out):
    cont = _make_container(tmp_path / "data", n_trials=24, n_subjects=3)
    cfg = _write_config(tmp_path / "run.json", out, tasks=["uw", "iy"],
                        sections={**ZERO_SECTIONS, "gbt": {"n_estimators": 2}})
    return ["crossval", "--config", str(cfg), "--container", str(cont)]


def _one_task_train(tmp_path, out):
    """A holdout run of one task: a single (task, fold) unit."""
    cont = _make_container(tmp_path / "data", n_trials=24, n_subjects=3)
    cfg = _write_config(tmp_path / "run.json", out,
                        sections={**ZERO_SECTIONS, "gbt": {"n_estimators": 2}})
    return ["train", "--config", str(cfg), "--container", str(cont)]


def test_a_failing_fold_leaves_the_same_output_at_one_and_two_workers(tmp_path, monkeypatch,
                                                                       capsys):
    def fail():
        raise TrainingError("subject s01's fold failed")

    monkeypatch.setattr(pipeline, "train_fold", _failing_fold("subject-s01", fail))
    trees = []
    for n in (1, 2):
        out = tmp_path / f"out{n}"
        argv = _two_task_crossval(tmp_path / f"run{n}", out)
        capsys.readouterr()
        with workers(n):
            assert main(argv) == 4
        assert "subject s01's fold failed" in capsys.readouterr().err
        assert [p for p in (out / "uw").rglob("*")] == []
        trees.append(_tree(out))
        _no_child_left()
    # iy, whose folds the children may have trained, left nothing either
    assert list(trees[0]) == ["config.resolved.json"]
    assert trees[0].keys() == trees[1].keys()


def test_outputs_are_the_same_bytes_at_one_two_and_three_workers(tmp_path):
    trees = []
    for n in (1, 2, 3):
        out = tmp_path / f"out{n}"
        argv = _two_task_crossval(tmp_path / f"run{n}", out)
        with workers(n):
            assert main(argv) == 0
        tree = _tree(out)
        tree.pop("config.resolved.json")  # it names its output directory
        trees.append(tree)
        _no_child_left()
    assert any(name.startswith("iy/bundles/") for name in trees[0])
    assert trees[1] == trees[0] and trees[2] == trees[0]


@pytest.mark.parametrize("n_workers", [1, 2])
def test_children_train_at_one_worker_while_the_parent_holds_one_bundle(tmp_path, monkeypatch,
                                                                         n_workers):
    # at one worker the units train in this process instead; either way the
    # parent scores every fold from the bundle its unit wrote to staging
    argv = _two_task_crossval(tmp_path, tmp_path / "out")
    seen = tmp_path / "seen"
    seen.mkdir()
    original_train, original_load = pipeline.train_fold, pipeline.load_bundle

    def training(covs, labels, task, fold, *args):
        (seen / f"{task.task_id}.{fold.name}").write_text(json.dumps(
            [os.getpid(), parallel.WORKERS]))
        return original_train(covs, labels, task, fold, *args)

    refs, loaded, earlier_alive = [], [], []

    def loading(root):
        earlier_alive.append(_alive(refs))
        bundle = original_load(root)
        loaded.append((Path(root).parents[2].name, Path(root).name))
        refs.extend(_model_refs(bundle))
        return bundle

    monkeypatch.setattr(pipeline, "train_fold", training)
    monkeypatch.setattr(pipeline, "load_bundle", loading)
    with workers(n_workers):
        assert main(argv) == 0
    units = [(task, f"subject-s0{i}") for task in ("uw", "iy") for i in range(3)]
    assert sorted(p.name for p in seen.iterdir()) == sorted(f"{t}.{f}" for t, f in units)
    for path in seen.iterdir():
        pid, unit_workers = json.loads(path.read_text())
        assert (pid == os.getpid()) == (n_workers == 1) and unit_workers == 1
    assert loaded == units
    assert earlier_alive == [0] * 6
    assert _alive(refs) == 0
    _no_child_left()


def test_a_child_killed_by_a_signal_exits_4_naming_its_task_and_fold(tmp_path, monkeypatch,
                                                                    capsys):
    parent = os.getpid()

    def die():
        assert os.getpid() != parent, "this fold must train in a child"
        os.kill(os.getpid(), signal.SIGKILL)

    argv = _two_task_crossval(tmp_path, tmp_path / "out")
    monkeypatch.setattr(pipeline, "train_fold", _failing_fold("subject-s01", die))
    with workers(2):
        assert main(argv) == 4
    err = capsys.readouterr().err
    assert "training error: task 'uw' fold 'subject-s01'" in err and "SIGKILL" in err
    assert "Traceback" not in err
    assert [p for p in (tmp_path / "out" / "uw").rglob("*")] == []
    _no_child_left()


def test_a_lone_unit_trains_in_this_process_at_two_workers(tmp_path, monkeypatch):
    # no other unit could run beside it, so it keeps both workers
    argv = _one_task_train(tmp_path, tmp_path / "out")
    seen = []
    original = pipeline.train_fold

    def training(*args):
        seen.append((os.getpid(), parallel.WORKERS))
        return original(*args)

    def no_fork():
        raise AssertionError("a lone unit must not fork")

    monkeypatch.setattr(pipeline, "train_fold", training)
    monkeypatch.setattr(os, "fork", no_fork)
    with workers(2):
        assert main(argv) == 0
    assert seen == [(os.getpid(), 2)]


@pytest.mark.parametrize("verb, n_workers", [("crossval", 1), ("crossval", 2), ("train", 2)])
@pytest.mark.parametrize("exc, code, message", [
    (DataError("trial t03 is unreadable"), 3, "data error: trial t03 is unreadable"),
    (LeakageError("gbt-fit fit on held-out trials [3]"), 4,
     "training error: gbt-fit fit on held-out trials [3]"),
    (RuntimeError("out of luck"), 4,
     "training error: task 'uw' fold '{fold}': RuntimeError: out of luck"),
])
def test_a_childs_error_gives_the_verb_its_exit_code(tmp_path, monkeypatch, capsys, exc, code,
                                                    message, verb, n_workers):
    # a unit trained in this process (one worker, or the lone holdout unit)
    # fails with the same exit code and line as one trained in a child
    def fail():
        raise exc

    run, fold = {"crossval": (_two_task_crossval, "subject-s01"),
                 "train": (_one_task_train, "holdout")}[verb]
    argv = run(tmp_path, tmp_path / "out")
    monkeypatch.setattr(pipeline, "train_fold", _failing_fold(fold, fail))
    with workers(n_workers):
        assert main(argv) == code
    err = capsys.readouterr().err
    assert message.format(fold=fold) in err and "Traceback" not in err
    _no_child_left()


@pytest.mark.parametrize("n_workers", [1, 2])
def test_an_interrupted_parent_leaves_no_child(tmp_path, monkeypatch, n_workers):
    argv = _two_task_crossval(tmp_path, tmp_path / "out")

    def interrupted(root):
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline, "load_bundle", interrupted)
    with workers(n_workers), pytest.raises(KeyboardInterrupt):
        main(argv)
    _no_child_left()
    assert not list((tmp_path / "out").rglob(".partial"))


def test_a_rerun_into_the_same_directory_keeps_only_its_own_folds(tmp_path):
    cont = _make_container(tmp_path / "data", n_trials=24, n_subjects=3)
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "run.json", out,
                        sections={**ZERO_SECTIONS, "gbt": {"n_estimators": 2}})
    for verb in ("train", "crossval"):
        assert main([verb, "--config", str(cfg), "--container", str(cont)]) == 0
    folds = [f"subject-s0{i}" for i in range(3)]
    assert sorted(p.name for p in (out / "uw" / "bundles").iterdir()) == folds
    assert sorted({p.name.split(".")[0] for p in (out / "uw" / "traces").iterdir()}) == folds
    assert main(["evaluate", "--config", str(cfg), "--container", str(cont),
                 "--models", str(out), "--out", str(tmp_path / "eval")]) == 0
    assert (tmp_path / "eval" / "uw" / "predictions.csv").read_bytes() == \
           (out / "uw" / "predictions.csv").read_bytes()


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_replays_train_predictions(tmp_path, trained_run):
    cont, cfg, train_out = trained_run
    eval_out = tmp_path / "eval"
    code = main(["evaluate", "--config", str(cfg), "--container", str(cont),
                 "--models", str(train_out), "--out", str(eval_out)])
    assert code == 0
    trained = json.loads((train_out / "uw" / "report.json").read_text())
    assert trained["folds"][0]["dev_accuracy"] > 0.0
    # the dev accuracy comes back from the bundle, so the whole report replays
    for name in ("report.json", "predictions.csv"):
        assert (eval_out / "uw" / name).read_bytes() == (train_out / "uw" / name).read_bytes()


@pytest.mark.parametrize("verb", ["train", "crossval"])
def test_train_and_crossval_write_the_features_featurize_writes(tmp_path, verb):
    cont = _make_container(tmp_path / "data", n_trials=24, n_subjects=3)
    cfg = _write_config(tmp_path / "run.json", tmp_path / "out", tasks=["uw", "iy"],
                        sections={**ZERO_SECTIONS, "gbt": {"n_estimators": 2}})
    for argv_verb, out in (("featurize", tmp_path / "feat"), (verb, tmp_path / "out")):
        assert main([argv_verb, "--config", str(cfg), "--container", str(cont),
                     "--out", str(out)]) == 0
    for name in (cli.FEATURES_ARCHIVE, cli.FEATURES_DOC):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "feat" / name).read_bytes()
    doc = json.loads((tmp_path / "out" / cli.FEATURES_DOC).read_text())
    assert list(doc) == ["container", "band", "order", "trials", "digest"]
    assert doc["digest"] == container.digest(container.read_container(cont))


def _counting(monkeypatch, *targets) -> dict:
    """Count the calls of each ``(owner, name)`` function, looked up on its owner."""
    calls = {name: 0 for _, name in targets}
    for owner, name in targets:
        def call(*args, _name=name, _original=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, call)
    return calls


def _crossval_and_bare_copy(tmp_path, tasks=("uw",)):
    """A crossval run's container, config and models, and a copy of the
    models without their features, on which evaluate runs the feature pass."""
    cont = _make_container(tmp_path / "data", n_trials=24, n_subjects=3)
    models = tmp_path / "models"
    cfg = _write_config(tmp_path / "run.json", models, tasks=list(tasks),
                        sections={**ZERO_SECTIONS, "gbt": {"n_estimators": 2}})
    assert main(["crossval", "--config", str(cfg), "--container", str(cont)]) == 0
    bare = tmp_path / "bare"
    shutil.copytree(models, bare,
                    ignore=shutil.ignore_patterns(cli.FEATURES_ARCHIVE, cli.FEATURES_DOC))
    return cont, cfg, models, bare


def _evaluate(cfg: Path, cont: Path, models: Path, out: Path) -> int:
    return main(["evaluate", "--config", str(cfg), "--container", str(cont),
                 "--models", str(models), "--out", str(out)])


def test_evaluate_reuses_its_runs_features(tmp_path, monkeypatch):
    cont, cfg, models, bare = _crossval_and_bare_copy(tmp_path, tasks=("uw", "iy"))
    assert _evaluate(cfg, cont, bare, tmp_path / "recomputed") == 0
    calls = _counting(monkeypatch, (container, "load_recording"),
                      (pipeline, "ccv_features"))
    assert _evaluate(cfg, cont, models, tmp_path / "reused") == 0
    assert calls == {"load_recording": 0, "ccv_features": 0}
    assert _tree(tmp_path / "reused") == _tree(tmp_path / "recomputed")
    for task in ("uw", "iy"):
        assert (tmp_path / "reused" / task / "predictions.csv").read_bytes() == \
               (models / task / "predictions.csv").read_bytes()


def _flip_a_data_bit(cont: Path) -> None:
    # the lowest mantissa bit of the first sample: the trial stays finite
    blob = bytearray((cont / "data.bin").read_bytes())
    blob[0] ^= 1
    (cont / "data.bin").write_bytes(bytes(blob))


def _rename(cont: Path) -> None:
    manifest = json.loads((cont / "manifest.json").read_text())
    manifest["name"] = "renamed"
    (cont / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("change, field", [(_flip_a_data_bit, "digest"),
                                           (_rename, "container"),
                                           (None, None)])
def test_evaluate_recomputes_features_of_other_bytes(tmp_path, monkeypatch, capsys, change,
                                                     field):
    # a container changed after its run, or a run whose models hold no
    # features, gets the features computed as the feature pass computes them
    cont, cfg, models, bare = _crossval_and_bare_copy(tmp_path)
    if change is None:
        models = bare
    else:
        change(cont)
    assert _evaluate(cfg, cont, bare, tmp_path / "recomputed") == 0
    calls = _counting(monkeypatch, (pipeline, "ccv_features"))
    capsys.readouterr()
    assert _evaluate(cfg, cont, models, tmp_path / "eval") == 0
    assert calls == {"ccv_features": 1}
    assert _tree(tmp_path / "eval") == _tree(tmp_path / "recomputed")
    said = [line for line in capsys.readouterr().err.splitlines() if "features" in line]
    if field is None:
        assert said == []
    else:
        assert said == [f"evaluate: the {field} in {models / cli.FEATURES_DOC} differs "
                        f"from this run's; computing the features"]


def test_a_band_edge_written_as_an_integer_is_the_same_config(tmp_path):
    cont = _make_container(tmp_path / "data", n_trials=24, n_subjects=3)
    outs, cfgs = [], []
    for name, low in (("int", 1), ("float", 1.0)):
        outs.append(tmp_path / name)
        cfgs.append(_write_config(tmp_path / f"{name}.json", outs[-1],
                                  sections={**ZERO_SECTIONS, "gbt": {"n_estimators": 2}},
                                  preprocessing={"low_hz": low}))
    for cfg in cfgs:
        assert main(["train", "--config", str(cfg), "--container", str(cont)]) == 0
    assert (outs[0] / "config.resolved.json").read_bytes() == \
           (outs[1] / "config.resolved.json").read_bytes()
    assert _evaluate(cfgs[1], cont, outs[0], tmp_path / "eval") == 0


@pytest.mark.parametrize("preprocessing, field", [({"high_hz": 40.0}, "band"),
                                                  ({"order": 3}, "order")])
def test_evaluate_under_another_band_recomputes_and_exits_2(tmp_path, monkeypatch, capsys,
                                                            preprocessing, field):
    cont, cfg, models, _ = _crossval_and_bare_copy(tmp_path)
    raw = json.loads(cfg.read_text())
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**raw, "preprocessing": preprocessing}))
    calls = _counting(monkeypatch, (pipeline, "ccv_features"))
    capsys.readouterr()
    # the features are computed under the new band; the bundles' fingerprint then refuses it
    assert _evaluate(other, cont, models, tmp_path / "eval") == 2
    assert calls == {"ccv_features": 1}
    err = capsys.readouterr().err
    assert f"the {field} in {models / cli.FEATURES_DOC} differs" in err
    assert "Traceback" not in err
    assert not (tmp_path / "eval" / "uw" / "predictions.csv").exists()


def test_evaluate_releases_a_tasks_bundles_before_the_next_load(tmp_path, monkeypatch):
    cont = _make_container(tmp_path / "data", n_trials=24, n_subjects=3)
    models = tmp_path / "models"
    cfg = _write_config(tmp_path / "run.json", models, tasks=["uw", "iy"],
                        sections={**ZERO_SECTIONS, "gbt": {"n_estimators": 2}})
    assert main(["crossval", "--config", str(cfg), "--container", str(cont)]) == 0
    refs, loaded, earlier_alive = [], [], []
    original = pipeline.load_bundle

    def tracking(root):
        # each fold's bundle is loaded when its fold is scored, so every
        # earlier bundle, of this task or another, must be gone by now
        earlier_alive.append(_alive(refs))
        bundle = original(root)
        loaded.append((Path(root).parent.parent.name, Path(root).name))
        refs.extend(_model_refs(bundle))
        return bundle

    monkeypatch.setattr(pipeline, "load_bundle", tracking)
    assert main(["evaluate", "--config", str(cfg), "--container", str(cont),
                 "--models", str(models), "--out", str(tmp_path / "eval")]) == 0
    assert loaded == [(task, f"subject-s0{i}") for task in ("uw", "iy") for i in range(3)]
    assert earlier_alive == [0] * 6
    assert _alive(refs) == 0


def test_evaluate_reads_no_archive_before_its_fold(tmp_path, monkeypatch):
    # the split check reads every fold's meta.json; each archive is read when
    # the fold loop reaches its fold, after the folds before it are scored
    cont = _make_container(tmp_path / "data", n_trials=24, n_subjects=3)
    models = tmp_path / "models"
    cfg = _write_config(tmp_path / "run.json", models,
                        sections={**ZERO_SECTIONS, "gbt": {"n_estimators": 2}})
    assert main(["crossval", "--config", str(cfg), "--container", str(cont)]) == 0
    events = []
    original_read, original_score = pipeline.load_tensors, pipeline.score_fold

    def reading(path):
        events.append(("read", Path(path).parent.name))
        return original_read(path)

    def scoring(bundle, fold, *args):
        events.append(("scored", fold.name))
        return original_score(bundle, fold, *args)

    monkeypatch.setattr(pipeline, "load_tensors", reading)
    monkeypatch.setattr(pipeline, "score_fold", scoring)
    assert main(["evaluate", "--config", str(cfg), "--container", str(cont),
                 "--models", str(models), "--out", str(tmp_path / "eval")]) == 0
    assert events == [(kind, f"subject-s0{i}") for i in range(3) for kind in ("read", "scored")]


def test_evaluate_checks_every_meta_before_it_reads_an_archive(tmp_path, monkeypatch, capsys):
    cont = _make_container(tmp_path / "data", n_trials=24, n_subjects=3)
    models = tmp_path / "models"
    cfg = _write_config(tmp_path / "run.json", models,
                        sections={**ZERO_SECTIONS, "gbt": {"n_estimators": 2}})
    assert main(["crossval", "--config", str(cfg), "--container", str(cont)]) == 0
    (models / "uw" / "bundles" / "subject-s01" / "meta.json").write_text("{garbled")

    def no_read(path):
        raise AssertionError(f"read {path} before every meta was checked")

    monkeypatch.setattr(pipeline, "load_tensors", no_read)
    eval_out = tmp_path / "eval"
    assert main(["evaluate", "--config", str(cfg), "--container", str(cont),
                 "--models", str(models), "--out", str(eval_out)]) == 3
    assert "subject-s01" in capsys.readouterr().err
    assert not (eval_out / "uw" / "predictions.csv").exists()


def test_evaluate_missing_models_exits_3(tmp_path, trained_run):
    cont, cfg, _ = trained_run
    assert main(["evaluate", "--config", str(cfg), "--container", str(cont),
                 "--models", str(tmp_path / "nothing"),
                 "--out", str(tmp_path / "eval")]) == 3


def test_evaluate_empty_bundles_exits_3(tmp_path, trained_run):
    cont, cfg, train_out = trained_run
    models = tmp_path / "models"
    (models / "uw" / "bundles").mkdir(parents=True)
    assert main(["evaluate", "--config", str(cfg), "--container", str(cont),
                 "--models", str(models), "--out", str(tmp_path / "eval")]) == 3


def test_evaluate_with_another_seed_exits_3(tmp_path):
    # seed 2 splits off other test trials, some of which seed 1's bundle trained on
    cont = _make_container(tmp_path / "data", n_trials=20)
    models = tmp_path / "models"
    cfg = _write_config(tmp_path / "run.json", models, sections=ZERO_SECTIONS)
    assert main(["train", "--config", str(cfg), "--container", str(cont),
                 "--seed", "1"]) == 0
    eval_out = tmp_path / "eval"
    assert main(["evaluate", "--config", str(cfg), "--container", str(cont),
                 "--models", str(models), "--out", str(eval_out), "--seed", "2"]) == 3
    assert not (eval_out / "uw" / "predictions.csv").exists()


def test_evaluate_under_another_config_exits_2(tmp_path):
    cont = _make_container(tmp_path / "data", n_trials=20)
    models = tmp_path / "models"
    trained = _write_config(tmp_path / "train.json", models,
                            sections={**ZERO_SECTIONS, "gbt": {"n_estimators": 2}})
    assert main(["train", "--config", str(trained), "--container", str(cont)]) == 0
    other = _write_config(tmp_path / "other.json", tmp_path / "eval",
                          sections={**ZERO_SECTIONS, "cnn": {"epochs": 1},
                                    "gbt": {"n_estimators": 9}})
    assert main(["evaluate", "--config", str(other), "--container", str(cont),
                 "--models", str(models)]) == 2
    assert not (tmp_path / "eval" / "uw" / "predictions.csv").exists()


def test_evaluate_replays_a_task_subset(tmp_path):
    cont = _make_container(tmp_path / "data", n_trials=20)
    models = tmp_path / "models"
    cfg = _write_config(tmp_path / "run.json", models, tasks=["uw", "iy"],
                        sections={**ZERO_SECTIONS, "gbt": {"n_estimators": 2}})
    assert main(["train", "--config", str(cfg), "--container", str(cont)]) == 0
    eval_out = tmp_path / "eval"
    assert main(["evaluate", "--config", str(cfg), "--container", str(cont),
                 "--models", str(models), "--out", str(eval_out), "--tasks", "uw"]) == 0
    assert (eval_out / "uw" / "predictions.csv").read_bytes() == \
           (models / "uw" / "predictions.csv").read_bytes()
    assert not (eval_out / "iy").exists()


def test_crossval_records_its_split_and_replays(tmp_path):
    # the config has no split key
    cont = _make_container(tmp_path / "data", n_trials=24, n_subjects=3)
    models = tmp_path / "models"
    cfg = _write_config(tmp_path / "run.json", models,
                        sections={**ZERO_SECTIONS, "gbt": {"n_estimators": 2}})
    assert main(["crossval", "--config", str(cfg), "--container", str(cont)]) == 0
    resolved = json.loads((models / "config.resolved.json").read_text())
    assert resolved["split_mode"] == "leave_one_subject_out"
    eval_out = tmp_path / "eval"
    assert main(["evaluate", "--config", str(cfg), "--container", str(cont),
                 "--models", str(models), "--out", str(eval_out)]) == 0
    for name in ("report.json", "predictions.csv"):
        assert (eval_out / "uw" / name).read_bytes() == (models / "uw" / name).read_bytes()


def test_evaluate_refuses_bundles_of_two_splits_with_exit_3(tmp_path, capsys):
    # a holdout bundle copied beside crossval's subject bundles
    cont = _make_container(tmp_path / "data", n_trials=24, n_subjects=3)
    models = tmp_path / "models"
    cfg = _write_config(tmp_path / "run.json", models,
                        sections={**ZERO_SECTIONS, "gbt": {"n_estimators": 2}})
    for verb, out in (("train", tmp_path / "holdout"), ("crossval", models)):
        assert main([verb, "--config", str(cfg), "--container", str(cont),
                     "--out", str(out)]) == 0
    shutil.copytree(tmp_path / "holdout" / "uw" / "bundles" / "holdout",
                    models / "uw" / "bundles" / "holdout")
    eval_out = tmp_path / "eval"
    assert main(["evaluate", "--config", str(cfg), "--container", str(cont),
                 "--models", str(models), "--out", str(eval_out)]) == 3
    err = capsys.readouterr().err
    assert "leave_one_subject_out" in err and "random_holdout" in err
    assert not (eval_out / "uw" / "predictions.csv").exists()


def test_evaluate_refuses_another_tasks_bundles_with_exit_3(tmp_path, capsys):
    # splits do not depend on the task, so nasal's bundles hold uw's test trials
    cont = _make_container(tmp_path / "data", n_trials=24, n_subjects=3)
    models = tmp_path / "models"
    cfg = _write_config(tmp_path / "run.json", models, tasks=["uw", "nasal"],
                        sections={**ZERO_SECTIONS, "gbt": {"n_estimators": 2}})
    assert main(["crossval", "--config", str(cfg), "--container", str(cont)]) == 0
    shutil.rmtree(models / "uw" / "bundles")
    shutil.copytree(models / "nasal" / "bundles", models / "uw" / "bundles")
    eval_out = tmp_path / "eval"
    assert main(["evaluate", "--config", str(cfg), "--container", str(cont),
                 "--models", str(models), "--out", str(eval_out), "--tasks", "uw"]) == 3
    assert "'nasal'" in capsys.readouterr().err
    assert not (eval_out / "uw" / "predictions.csv").exists()


@pytest.mark.parametrize("verb, other_split",
                         [("train", "leave_one_subject_out"), ("crossval", "random_holdout")])
def test_verb_refuses_a_config_naming_the_other_split_with_exit_2(tmp_path, capsys, verb,
                                                                  other_split):
    # each split has one verb; split.mode may only agree with it
    cont = _make_container(tmp_path / "data", n_trials=24, n_subjects=3)
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "run.json", out, split={"mode": other_split},
                        sections=ZERO_SECTIONS)
    assert main([verb, "--config", str(cfg), "--container", str(cont)]) == 2
    assert "split/mode" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------


def test_plot_round_trips_metric_values(tmp_path, trained_run):
    _, _, out = trained_run
    report_path = out / "uw" / "report.json"
    plot_out = tmp_path / "plots"
    assert main(["plot", str(report_path), "--out", str(plot_out)]) == 0
    report = json.loads(report_path.read_text())

    root = ET.parse(plot_out / "metrics.svg").getroot()
    texts = root.findall(".//{*}text")
    acc_values = [t.text for t in texts if t.get("class") == "value-acc"]
    kappa_values = [t.text for t in texts if t.get("class") == "value-kappa"]
    task_labels = [t.text for t in texts if t.get("class") == "task"]
    assert acc_values == [f"{report['accuracy']:.2f}"]
    assert kappa_values == [f"{report['kappa']:.2f}"]
    assert task_labels == ["uw"]

    table = (plot_out / "metrics.csv").read_text().splitlines()
    assert table[0] == "metric,uw"
    assert table[1] == f"accuracy_pct,{report['accuracy'] * 100:.2f}"
    assert table[2] == f"kappa,{report['kappa']:.2f}"


@pytest.mark.parametrize("key, value, kind", [
    ("accuracy", True, "number"),
    ("kappa", "0.5", "number"),
    ("task", ["uw"], "string"),
])
def test_a_report_field_of_another_json_type_exits_3(tmp_path, capsys, key, value, kind):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"task": "uw", "accuracy": 0.5, "kappa": 0.0, key: value}))
    capsys.readouterr()
    assert main(["plot", str(report), "--out", str(tmp_path / "plots")]) == 3
    err = capsys.readouterr().err
    assert f"bad report file {report}: field {key!r} must be a JSON {kind}" in err
    assert not (tmp_path / "plots").exists()


@pytest.mark.parametrize("kappa", [7.5, -1.5, float("nan")])
def test_a_report_kappa_outside_its_range_exits_3(tmp_path, capsys, kappa):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"task": "uw", "accuracy": 0.5, "kappa": kappa}))
    capsys.readouterr()
    assert main(["plot", str(report), "--out", str(tmp_path / "plots")]) == 3
    assert f"bad report file {report}: kappa out of range" in capsys.readouterr().err
    assert not (tmp_path / "plots").exists()


@pytest.mark.parametrize("kappa", [1.0, -1.0])
def test_a_report_kappa_at_its_bounds_plots(tmp_path, kappa):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"task": "uw", "accuracy": 0.5, "kappa": kappa}))
    assert main(["plot", str(report), "--out", str(tmp_path / "plots")]) == 0
    assert (tmp_path / "plots" / "metrics.csv").read_text().splitlines()[2] == \
           f"kappa,{kappa:.2f}"
    assert (tmp_path / "plots" / "metrics.svg").is_file()


def test_plot_missing_report_exits_3(tmp_path):
    assert main(["plot", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "plots")]) == 3


def test_plot_without_reports_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["plot"])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# seed resolution
# ---------------------------------------------------------------------------


def test_env_seed_applies_when_no_flag(tmp_path, monkeypatch):
    cont = _make_container(tmp_path / "data", n_trials=12)
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "run.json", out, sections=ZERO_SECTIONS)
    monkeypatch.setenv("EEGSPEECH_SEED", "99")
    assert main(["train", "--config", str(cfg), "--container", str(cont)]) == 0
    assert json.loads((out / "config.resolved.json").read_text())["seed"] == 99


def test_seed_flag_beats_env(tmp_path, monkeypatch):
    cont = _make_container(tmp_path / "data", n_trials=12)
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "run.json", out, sections=ZERO_SECTIONS)
    monkeypatch.setenv("EEGSPEECH_SEED", "99")
    assert main(["train", "--config", str(cfg), "--container", str(cont),
                 "--seed", "7"]) == 0
    assert json.loads((out / "config.resolved.json").read_text())["seed"] == 7


def test_non_integer_env_seed_exits_2(tmp_path, monkeypatch):
    cont = _make_container(tmp_path / "data", n_trials=12)
    cfg = _write_config(tmp_path / "run.json", tmp_path / "out", sections=ZERO_SECTIONS)
    monkeypatch.setenv("EEGSPEECH_SEED", "not-a-number")
    assert main(["train", "--config", str(cfg), "--container", str(cont)]) == 2


@pytest.mark.parametrize("flag, env", [(["--seed", "-1"], None), ([], "-1")])
def test_synth_refuses_a_negative_seed(tmp_path, monkeypatch, flag, env):
    if env is not None:
        monkeypatch.setenv("EEGSPEECH_SEED", env)
    assert main(["synth", "--out", str(tmp_path / "c"), "--n-trials", "6", *flag]) == 2
    assert not (tmp_path / "c").exists()


def test_unknown_task_flag_exits_2(tmp_path, trained_run):
    cont, cfg, _ = trained_run
    assert main(["train", "--config", str(cfg), "--container", str(cont),
                 "--tasks", "uw,vowels", "--out", str(tmp_path / "out")]) == 2


# ---------------------------------------------------------------------------
# output paths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("verb", ["synth", "featurize", "train", "crossval", "evaluate",
                                  "plot"])
def test_an_output_path_that_is_a_file_exits_2(tmp_path, capsys, trained_run, verb):
    cont, cfg, models = trained_run
    blocked = tmp_path / "blocked"
    blocked.write_text("")
    run = ["--config", str(cfg), "--container", str(cont)]
    argv = {"synth": ["synth", "--n-trials", "6"],
            "featurize": ["featurize", *run],
            "train": ["train", *run],
            "crossval": ["crossval", *run],
            "evaluate": ["evaluate", *run, "--models", str(models)],
            "plot": ["plot", str(models / "uw" / "report.json")]}[verb]
    assert main([*argv, "--out", str(blocked)]) == 2
    err = capsys.readouterr().err
    assert str(blocked) in err and "Traceback" not in err


def test_a_bundle_path_that_is_a_file_exits_2(tmp_path, capsys):
    cont = _make_container(tmp_path / "data", n_trials=20)
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "run.json", out, sections=ZERO_SECTIONS)
    (out / "uw").mkdir(parents=True)
    (out / "uw" / "bundles").write_text("")
    assert main(["train", "--config", str(cfg), "--container", str(cont)]) == 2
    assert str(out / "uw" / "bundles" / "holdout") in capsys.readouterr().err


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------


def test_module_invocation_prints_usage():
    proc = subprocess.run([sys.executable, "-m", "eegspeech.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for verb in ("synth", "featurize", "train", "crossval", "evaluate", "plot"):
        assert verb in proc.stdout
