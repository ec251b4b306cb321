"""Each input rule has one owner, so every entry point that takes the input
refuses the same bad values with the same words: a writer cannot write what
its reader refuses, and a report's skip reason is what training would say."""

import json
import re

import numpy as np
import pytest

from eegspeech import config, container, gbt, networks, pipeline, synth
from eegspeech.errors import ConfigError, DataError, TrainingError
from eegspeech.recording import PROMPTS, Recording

BAD_RATES = [float("nan"), float("inf"), float("-inf"), 0.0, -1.0]
SAMPLES = np.zeros((2, 64), dtype=np.float32)


def _recording(rate, root):
    Recording("s00", "/uw/", SAMPLES, rate, ("a", "b"))


def _synth(rate, root):
    synth.generate_synthetic_recordings(4, 2, 1, 1.0, 0, sample_rate_hz=rate)


def _write(rate, root):
    try:
        container.write_container(root, "demo", rate, ["a", "b"],
                                  [("t0", "s00", "/uw/", SAMPLES)])
    finally:
        assert not (root / container.MANIFEST_NAME).exists()
        assert not (root / container.DATA_NAME).exists()


def _read(rate, root):
    container.write_container(root, "demo", 128.0, ["a", "b"],
                              [("t0", "s00", "/uw/", SAMPLES)])
    path = root / container.MANIFEST_NAME
    manifest = json.loads(path.read_text())
    manifest["sample_rate_hz"] = rate  # json writes NaN and Infinity, and reads them back
    path.write_text(json.dumps(manifest))
    try:
        container.read_container(root)
    except DataError as exc:
        assert str(exc).startswith(f"manifest {path}: sample_rate_hz")
        raise


@pytest.mark.parametrize("rate", BAD_RATES)
@pytest.mark.parametrize("entry", [_recording, _synth, _write, _read])
def test_every_entry_point_refuses_a_rate_that_is_not_finite_and_positive(
        entry, rate, tmp_path):
    refusal = DataError if entry in (_write, _read) else ValueError
    with pytest.raises(refusal, match="sample_rate_hz must be finite and > 0"):
        entry(rate, tmp_path)


def _task(positives):
    pipeline.Task(task_id="uw", positives=positives)


def _config(positives):
    config.config_from_dict({"seed": 0, "tasks": ["uw"],
                             "task_table": {"uw": list(positives)}})


def _synth_positives(positives):
    synth.generate_synthetic_recordings(4, 2, 1, 1.0, 0, task_positives=positives)


@pytest.mark.parametrize("positives", [(), ("bogus",), PROMPTS])
@pytest.mark.parametrize("entry", [_task, _config, _synth_positives])
def test_every_entry_point_refuses_positives_that_are_not_a_strict_subset(
        entry, positives):
    refusal = ConfigError if entry is _config else ValueError
    with pytest.raises(refusal, match="non-empty strict subset of the prompts"):
        entry(positives)


def _train_cnn(labels):
    networks.train_cnn(np.zeros((len(labels), 6, 6)), labels,
                       networks.NetworkHyper(epochs=0, batch_size=4), 0)


def _fit_trees(labels):
    gbt.fit(np.zeros((len(labels), 3)), labels, gbt.GbtConfig(n_estimators=1))


def _skip_fold(labels):
    # two subjects with the same labels: each leave-one-subject-out fold
    # trains on the other's trials (too few for a dev part), so both skip
    prompts = {0: "/m/", 1: "/uw/"}
    trials = [container.TrialRecord(f"{subject}-{i}", subject, prompts[y], 0, 0)
              for subject in ("s00", "s01") for i, y in enumerate(labels)]
    cfg = config.RunConfig(seed=0, tasks=("uw",))
    task = pipeline.Task(task_id="uw", positives=("/uw/",))
    plan = pipeline.SplitPlan(pipeline.LOSO, seed=0)
    # a skipped fold asks for no bundle and reads no matrix
    pipeline.evaluate_bundles(trials, task, plan, cfg, lambda fold: pytest.fail(fold.name),
                              [t.trial_id for t in trials], covs=[None] * len(trials))


@pytest.mark.parametrize("labels, problem", [
    ([0, 0, 1], "fewer than 2 training examples per class"),
    ([1, 1], "single-class training labels"),
])
@pytest.mark.parametrize("entry", [_train_cnn, _fit_trees, _skip_fold])
def test_every_entry_point_refuses_labels_with_the_skip_reason(entry, labels, problem):
    refusal = TrainingError if entry is _skip_fold else ValueError
    with pytest.raises(refusal, match=re.escape(problem)):
        entry(np.array(labels))
