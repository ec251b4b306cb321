"""Task derivation, split plans, leakage auditing and the fold driver."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from eegspeech import config, covariance, metrics, networks, nn, pipeline, synth
from eegspeech.nn import layers, network
from eegspeech.config import CovarianceSettings, NetworkHyper, RunConfig
from eegspeech.errors import ConfigError, DataError, LeakageError, TrainingError
from eegspeech.gbt import GbtConfig
from eegspeech.recording import Recording


def _task(task_id):
    return pipeline.task_from_config(config.config_from_dict(
        {"seed": 0, "tasks": [task_id]}), task_id)


def _stub_recordings(n, n_subjects=1, prompts=("/uw/", "/m/")):
    samples = np.zeros((2, 4))
    return [Recording(subject_id=f"s{i % n_subjects:02d}",
                      prompt=prompts[i % len(prompts)], samples=samples,
                      sample_rate_hz=128.0, channel_names=("a", "b"))
            for i in range(n)]


def _synthetic_recordings(n_trials, n_channels, n_subjects, separability, seed):
    trials = synth.generate_synthetic_recordings(n_trials, n_channels, n_subjects,
                                                 separability, seed)
    names = tuple(f"ch{c:02d}" for c in range(n_channels))
    recs = [Recording(subject_id=subject, prompt=prompt,
                      samples=np.asarray(samples, dtype=np.float64),
                      sample_rate_hz=128.0, channel_names=names)
            for _, subject, prompt, samples in trials]
    ids = [trial_id for trial_id, *_ in trials]
    return recs, ids


def _fast_config(seed=11, input_size=6, mode="random_holdout"):
    return RunConfig(
        seed=seed, tasks=("uw",), split_mode=mode,
        covariance=CovarianceSettings(input_size=input_size),
        cnn=NetworkHyper(epochs=3, batch_size=16),
        lstm=NetworkHyper(epochs=3, batch_size=16),
        dae=NetworkHyper(epochs=5, batch_size=16),
        gbt=GbtConfig(n_estimators=30, max_depth=3, seed=seed),
    )


# ---------------------------------------------------------------------------
# task labels
# ---------------------------------------------------------------------------


def test_derive_label_examples():
    assert pipeline.derive_label("/m/", _task("nasal")) == 1
    assert pipeline.derive_label("/uw/", _task("uw")) == 1
    assert pipeline.derive_label("/iy/", _task("cv")) == 0
    assert pipeline.derive_label("pat", _task("bilabial")) == 1
    assert pipeline.derive_label("/n/", _task("bilabial")) == 0


def test_derive_label_unknown_prompt():
    with pytest.raises(ValueError, match="unknown prompt"):
        pipeline.derive_label("/zz/", _task("uw"))


def test_task_validation():
    with pytest.raises(ValueError):
        pipeline.Task(task_id="x", positives=())
    with pytest.raises(ValueError):
        pipeline.Task(task_id="x", positives=("/nope/",))
    from eegspeech.recording import PROMPTS
    with pytest.raises(ValueError, match="strict subset"):
        pipeline.Task(task_id="x", positives=PROMPTS)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def test_holdout_split_sizes():
    recs = _stub_recordings(1913)
    folds = pipeline.make_splits(recs, pipeline.SplitPlan("random_holdout", seed=1))
    assert len(folds) == 1
    fold = folds[0]
    assert (len(fold.train), len(fold.dev), len(fold.test)) == (1531, 191, 191)


def test_holdout_split_partitions_everything():
    recs = _stub_recordings(57)
    fold = pipeline.make_splits(recs, pipeline.SplitPlan("random_holdout", seed=3))[0]
    all_indices = [*fold.train, *fold.dev, *fold.test]
    assert sorted(all_indices) == list(range(57))
    assert len(set(all_indices)) == 57


def test_holdout_split_is_not_ordered():
    recs = _stub_recordings(100)
    fold = pipeline.make_splits(recs, pipeline.SplitPlan("random_holdout", seed=1))[0]
    assert fold.test != tuple(range(10))


def test_holdout_needs_ten_trials():
    with pytest.raises(DataError, match="at least 10"):
        pipeline.make_splits(_stub_recordings(9), pipeline.SplitPlan("random_holdout", 1))


def test_split_determinism_and_seed_sensitivity():
    recs = _stub_recordings(60)
    a = pipeline.make_splits(recs, pipeline.SplitPlan("random_holdout", seed=4))
    b = pipeline.make_splits(recs, pipeline.SplitPlan("random_holdout", seed=4))
    c = pipeline.make_splits(recs, pipeline.SplitPlan("random_holdout", seed=5))
    assert a == b
    assert a != c


def test_loso_one_fold_per_subject():
    recs = _stub_recordings(140, n_subjects=14)
    folds = pipeline.make_splits(recs, pipeline.SplitPlan("leave_one_subject_out", 1))
    assert len(folds) == 14
    assert [f.name for f in folds] == [f"subject-s{i:02d}" for i in range(14)]
    for fold in folds:
        subjects_in_test = {recs[i].subject_id for i in fold.test}
        assert len(subjects_in_test) == 1
        held_subject = subjects_in_test.pop()
        assert all(recs[i].subject_id != held_subject for i in fold.train)
        assert all(recs[i].subject_id != held_subject for i in fold.dev)
        rest = 140 - len(fold.test)
        assert len(fold.dev) == rest // 10
        assert sorted([*fold.train, *fold.dev, *fold.test]) == list(range(140))


def test_loso_needs_two_subjects():
    with pytest.raises(DataError, match="2 subjects"):
        pipeline.make_splits(_stub_recordings(20, n_subjects=1),
                             pipeline.SplitPlan("leave_one_subject_out", 1))


def test_split_plan_rejects_unknown_mode():
    with pytest.raises(ValueError):
        pipeline.SplitPlan("bootstrap", 1)


# ---------------------------------------------------------------------------
# channel rejection vote
# ---------------------------------------------------------------------------


IDS = ("t0", "t1", "t2")


def _pair_cov(n_channels, pair, strength=0.9):
    """Identity covariance with one correlated channel pair."""
    values = np.eye(n_channels)
    i, j = pair
    values[i, j] = values[j, i] = strength
    return covariance.CovMatrix(values)


def test_rejection_vote_keeps_majority_channels():
    covs = [_pair_cov(4, (0, 1)), _pair_cov(4, (0, 1)), _pair_cov(4, (2, 3))]
    kept = pipeline.fit_channel_rejection(covs, IDS, (0, 1, 2), threshold=0.3)
    assert kept == (0, 1)


def test_rejection_vote_falls_back_to_top_two():
    covs = [_pair_cov(4, (0, 1)), _pair_cov(4, (0, 2)), _pair_cov(4, (0, 3))]
    # votes: channel 0 three times, the rest once; only channel 0 clears half
    kept = pipeline.fit_channel_rejection(covs, IDS, (0, 1, 2), threshold=0.3)
    assert kept == (0, 1)


def test_rejection_uses_only_train_indices():
    covs = [_pair_cov(4, (0, 1)), _pair_cov(4, (2, 3)), _pair_cov(4, (2, 3))]
    kept = pipeline.fit_channel_rejection(covs, IDS, (0,), threshold=0.3)
    assert kept == (0, 1)


def test_rejection_requires_consistent_channel_counts():
    covs = [_pair_cov(4, (0, 1)), _pair_cov(5, (0, 1))]
    with pytest.raises(DataError, match="channel count"):
        pipeline.fit_channel_rejection(covs, IDS, (0, 1), threshold=0.3)


def test_rejection_names_a_training_trial_with_one_live_channel():
    dead = covariance.CovMatrix(np.diag([1.0, 0.0, 0.0, 0.0]))
    covs = [_pair_cov(4, (0, 1)), dead, _pair_cov(4, (0, 1))]
    with pytest.raises(DataError, match="training trial t1: fewer than 2 channels"):
        pipeline.fit_channel_rejection(covs, IDS, (0, 1, 2), threshold=0.3)


# ---------------------------------------------------------------------------
# leakage audit
# ---------------------------------------------------------------------------


def test_leakage_audit_blocks_held_out_indices():
    audit = pipeline.LeakageAudit(held_out=frozenset({5, 6, 7}))
    audit.check("cnn-train", (0, 1, 2))
    with pytest.raises(LeakageError, match="gbt-fit"):
        audit.check("gbt-fit", (2, 6))
    assert audit.log == [("cnn-train", 3)]


def test_rejection_audit_integration():
    covs = [_pair_cov(4, (0, 1)) for _ in range(3)]
    audit = pipeline.LeakageAudit(held_out=frozenset({2}))
    with pytest.raises(LeakageError, match="channel-rejection"):
        pipeline.fit_channel_rejection(covs, IDS, (0, 1, 2), 0.3, audit)


# ---------------------------------------------------------------------------
# the fold driver
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_run():
    recs, ids = _synthetic_recordings(40, 6, 2, separability=3.0, seed=5)
    cfg = _fast_config(seed=11)
    task = _task("uw")
    plan = pipeline.SplitPlan("random_holdout", seed=cfg.seed)
    bundles, report = pipeline.run_task(recs, task, plan, cfg, trial_ids=ids)
    return recs, ids, cfg, task, plan, bundles, report


def test_run_task_learns_separable_corpus(small_run):
    *_, report = small_run
    assert report.skipped_folds == []
    assert report.accuracy >= 0.9
    assert report.folds[0].n_train == 32
    assert report.folds[0].n_dev == 4
    assert report.folds[0].n_test == 4


def test_run_task_is_deterministic(small_run):
    recs, ids, cfg, task, plan, _, report = small_run
    _, again = pipeline.run_task(recs, task, plan, cfg, trial_ids=ids)
    assert pipeline.report_to_dict(again) == pipeline.report_to_dict(report)
    assert [p.probability for p in again.predictions] == \
           [p.probability for p in report.predictions]


def test_report_kappa_consistent_with_confusion(small_run):
    *_, report = small_run
    kappa = metrics.cohen_kappa(report.confusion)
    assert report.kappa == kappa.value
    assert report.accuracy == metrics.accuracy(report.confusion)


def test_report_carries_fingerprint_and_seed(small_run):
    _, _, cfg, *_ , report = small_run
    assert report.config_fingerprint == cfg.fingerprint()
    assert report.seed == cfg.seed
    assert report.mode == "random_holdout"


def test_bundle_round_trip_reproduces_predictions(tmp_path, small_run):
    recs, ids, cfg, task, plan, bundles, report = small_run
    bundle = bundles["holdout"]
    pipeline.save_bundle(bundle, tmp_path / "b")
    assert sorted(p.name for p in (tmp_path / "b").iterdir()) == \
        ["meta.json", pipeline.BUNDLE_ARCHIVE]
    loaded = pipeline.load_bundle(tmp_path / "b")
    assert loaded.task_id == bundle.task_id
    assert loaded.ensemble == bundle.ensemble
    assert loaded.kept_channels == bundle.kept_channels
    assert loaded.config_fingerprint == bundle.config_fingerprint
    replayed = pipeline.evaluate_bundles(recs, task, plan, cfg,
                                         lambda fold: {"holdout": loaded}.get(fold.name),
                                         trial_ids=ids)
    assert replayed.accuracy == report.accuracy
    assert [p.probability for p in replayed.predictions] == \
           [p.probability for p in report.predictions]


def test_loading_a_bundle_draws_nothing_and_copies_nothing(tmp_path, small_run, monkeypatch):
    # every parameter of a loaded network is the array read from the archive
    *_, bundles, _ = small_run
    pipeline.save_bundle(bundles["holdout"], tmp_path / "b")

    def no_draw(*args, **kwargs):
        raise AssertionError("loading a bundle drew initial weights")

    monkeypatch.setattr(networks, "initial_state", no_draw)
    monkeypatch.setattr(network, "initial_state", no_draw)
    monkeypatch.setattr(layers, "_glorot_uniform", no_draw)
    read = {}

    def tracked(path):
        read.update(nn.load_tensors(path))
        return read

    monkeypatch.setattr(pipeline, "load_tensors", tracked)
    loaded = pipeline.load_bundle(tmp_path / "b")
    for prefix in ("cnn", "lstm", "dae"):
        for name, tensor in getattr(loaded, prefix).net.parameters():
            assert tensor.data is read[f"{prefix}.{name}"], (prefix, name)
    assert loaded.dae.mean is read["dae.standardize.mean"]


def test_loading_a_bundle_allocates_no_gradient(tmp_path, small_run):
    *_, bundles, _ = small_run
    pipeline.save_bundle(bundles["holdout"], tmp_path / "b")
    weights = (tmp_path / "b" / pipeline.BUNDLE_ARCHIVE).stat().st_size
    tracemalloc.start()
    try:
        loaded = pipeline.load_bundle(tmp_path / "b")
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a zero gradient per parameter would double the archive's weights
    assert live < 1.1 * weights
    assert loaded.predict_proba(np.zeros((2, 6, 6))).shape == (2,)


def test_run_task_splits_the_trials_once(small_run, monkeypatch):
    recs, ids, cfg, task, plan, _, report = small_run
    calls, split = [], pipeline.make_splits

    def counted(trials, plan):
        calls.append(plan)
        return split(trials, plan)

    monkeypatch.setattr(pipeline, "make_splits", counted)
    _, again = pipeline.run_task(recs, task, plan, cfg, trial_ids=ids)
    assert calls == [plan]
    assert pipeline.report_to_dict(again) == pipeline.report_to_dict(report)


def test_run_task_hands_each_bundle_to_save_and_keeps_none(small_run):
    recs, ids, cfg, task, plan, _, report = small_run
    saved = []
    kept, again = pipeline.run_task(recs, task, plan, cfg, trial_ids=ids, save=saved.append)
    assert kept == {} and [b.fold_name for b in saved] == ["holdout"]
    assert pipeline.report_to_dict(again) == pipeline.report_to_dict(report)


def test_bundle_preserves_unsigned_fold_seed(tmp_path, small_run):
    *_, bundles, _ = small_run
    bundle = bundles["holdout"]
    config = dataclasses.replace(bundle.ensemble.config, seed=2**63 + 12345)
    wide = dataclasses.replace(bundle, ensemble=dataclasses.replace(bundle.ensemble,
                                                                    config=config))
    pipeline.save_bundle(wide, tmp_path / "b")  # sha-derived fold seeds exceed signed range
    assert pipeline.load_bundle(tmp_path / "b").ensemble.config == config


def test_evaluate_bundles_refuses_channels_the_container_lacks(tmp_path, small_run):
    recs, ids, cfg, task, plan, bundles, _ = small_run
    wide = dataclasses.replace(bundles["holdout"], kept_channels=(0, 6))
    with pytest.raises(DataError, match="keeps channels"):
        pipeline.evaluate_bundles(recs, task, plan, cfg,
                                  lambda fold: {"holdout": wide}.get(fold.name), trial_ids=ids)


@pytest.mark.parametrize("key, value", [("task_id", "nasal"), ("fold_name", "subject-s01")])
def test_evaluate_bundles_refuses_another_tasks_or_folds_bundle(small_run, key, value):
    # splits do not depend on the task, so the test-trial check alone would pass
    recs, ids, cfg, task, plan, bundles, _ = small_run
    other = dataclasses.replace(bundles["holdout"], **{key: value})
    with pytest.raises(DataError, match=value):
        pipeline.evaluate_bundles(recs, task, plan, cfg,
                                  lambda fold: {"holdout": other}.get(fold.name), trial_ids=ids)


def test_evaluate_bundles_refuses_another_config(small_run):
    recs, ids, cfg, task, plan, bundles, _ = small_run
    other = dataclasses.replace(cfg, gbt=dataclasses.replace(cfg.gbt, n_estimators=31))
    with pytest.raises(ConfigError, match="another config"):
        pipeline.evaluate_bundles(recs, task, plan, other,
                                  lambda fold: bundles.get(fold.name), trial_ids=ids)


def test_evaluate_bundles_without_bundles_cannot_score(small_run):
    recs, ids, cfg, task, plan, *_ = small_run
    with pytest.raises(TrainingError, match="no bundle"):
        pipeline.evaluate_bundles(recs, task, plan, cfg, lambda fold: None, trial_ids=ids)


def test_evaluate_replays_a_skipped_fold_with_its_reason():
    recs, ids = _synthetic_recordings(24, 6, 3, separability=1.0, seed=9)
    # only subject s00 holds /uw/ trials, so its own fold trains on one class
    recs = [dataclasses.replace(r, prompt="/uw/" if r.subject_id == "s00" and i % 2 else "/iy/")
            for i, r in enumerate(recs)]
    zero = NetworkHyper(epochs=0)
    cfg = RunConfig(seed=21, tasks=("uw",), split_mode="leave_one_subject_out",
                    covariance=CovarianceSettings(input_size=6), cnn=zero, lstm=zero, dae=zero,
                    gbt=GbtConfig(n_estimators=2, max_depth=2))
    task = _task("uw")
    plan = pipeline.SplitPlan("leave_one_subject_out", seed=cfg.seed)
    bundles, report = pipeline.run_task(recs, task, plan, cfg, trial_ids=ids)
    assert report.skipped_folds == ["subject-s00"]
    assert report.folds[0].reason == "single-class training labels"
    asked = []

    def bundle_for(fold):
        asked.append(fold.name)
        return bundles.get(fold.name)

    replayed = pipeline.evaluate_bundles(recs, task, plan, cfg, bundle_for, trial_ids=ids)
    assert pipeline.report_to_dict(replayed) == pipeline.report_to_dict(report)
    # each scorable fold is asked for once, in fold order, by training and replay alike
    scorable = [f.name for f in report.folds if not f.skipped]
    assert len(scorable) == 2 and asked == list(bundles) == scorable


def test_single_class_task_raises_training_error():
    recs, ids = _synthetic_recordings(20, 6, 2, separability=1.0, seed=6)
    # a corpus of nothing but /uw/ trials leaves the nasal task single-class
    recs = [dataclasses.replace(r, prompt="/uw/") for r in recs]
    cfg = _fast_config(seed=3)
    task = _task("nasal")
    plan = pipeline.SplitPlan("random_holdout", seed=cfg.seed)
    with pytest.raises(TrainingError, match="single-class"):
        pipeline.run_task(recs, task, plan, cfg, trial_ids=ids)


def test_report_json_and_csv_outputs(tmp_path, small_run):
    *_, report = small_run
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "predictions.csv"
    pipeline.write_report_json(report, json_path)
    pipeline.write_predictions_csv(report, csv_path)
    doc = json.loads(json_path.read_text())
    assert doc["task"] == "uw"
    assert doc["accuracy"] == report.accuracy
    assert doc["folds"][0]["name"] == "holdout"
    assert np.array(doc["confusion"]).shape == (2, 2)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("trial_id,subject_id,prompt,task,fold")
    assert len(lines) == 1 + len(report.predictions)
    prob = float(lines[1].split(",")[-1])
    assert 0.0 <= prob <= 1.0


def test_loso_run_has_fold_per_subject():
    recs, ids = _synthetic_recordings(24, 6, 3, separability=3.0, seed=9)
    cfg = _fast_config(seed=21, mode="leave_one_subject_out")
    task = _task("uw")
    plan = pipeline.SplitPlan("leave_one_subject_out", seed=cfg.seed)
    bundles, report = pipeline.run_task(recs, task, plan, cfg, trial_ids=ids)
    assert len(report.folds) == 3
    assert set(bundles) == {"subject-s00", "subject-s01", "subject-s02"}
    assert report.accuracy >= 0.8
    # every trial scored exactly once across folds
    assert sorted(p.index for p in report.predictions) == list(range(24))
