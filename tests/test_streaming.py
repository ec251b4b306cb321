"""The feature pass streams a container.

Every verb reads each trial's samples once, inside the feature pass, and
keeps none of them past the trial's covariance matrix; a bad trial or a bad
band stops a verb before it creates its output directory.
"""

import collections
import json
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from eegspeech import container, pipeline
from eegspeech.cli import main
from eegspeech.config import RunConfig
from eegspeech.errors import ConfigError, DataError

from conftest import random_recording, workers

ZERO_SECTIONS = {
    "covariance": {"input_size": 6},
    "cnn": {"epochs": 0},
    "lstm": {"epochs": 0},
    "dae": {"epochs": 0},
    "gbt": {"n_estimators": 2},
}

VERBS = ("featurize", "train", "crossval", "evaluate")


def _write_config(path: Path, out: Path, **extra) -> Path:
    path.write_text(json.dumps({"seed": 11, "tasks": ["uw"], "output_dir": str(out),
                                **ZERO_SECTIONS, **extra}))
    return path


def _synth(root: Path, *flags: str) -> Path:
    assert main(["synth", "--out", str(root), "--n-subjects", "3", "--seed", "3",
                 *flags]) == 0
    return root


def _argv(verb: str, cfg: Path, data: Path, out: Path, models: Path | None) -> list[str]:
    argv = [verb, "--config", str(cfg), "--container", str(data), "--out", str(out)]
    return argv + ["--models", str(models)] if verb == "evaluate" else argv


# --- memory -------------------------------------------------------------------

#: 25 trials of 62 x 5000 samples: 62 MB as float64, 31 MB on disk.
LONG_TRIALS = 25
LONG_RAW_BYTES = LONG_TRIALS * 62 * 5000 * 8


@pytest.fixture(scope="module")
def long_run(tmp_path_factory):
    """A corpus of long trials and the bundles a crossval run trained on it."""
    base = tmp_path_factory.mktemp("long")
    data = _synth(base / "data", "--n-trials", str(LONG_TRIALS), "--n-channels", "62",
                  "--n-times", "5000", "--sample-rate", "1000")
    cfg = _write_config(base / "run.json", base / "models")
    assert main(["crossval", "--config", str(cfg), "--container", str(data)]) == 0
    return data, cfg, base / "models"


@pytest.mark.parametrize("verb", VERBS)
def test_no_verb_holds_the_raw_trials(long_run, tmp_path, monkeypatch, verb):
    data, cfg, models = long_run
    at_features = []
    original = pipeline.ccv_features

    def traced(*args, **kwargs):
        covs = original(*args, **kwargs)
        at_features.append(tracemalloc.get_traced_memory())
        return covs

    monkeypatch.setattr(pipeline, "ccv_features", traced)
    with workers(2):
        tracemalloc.start()
        try:
            code = main(_argv(verb, cfg, data, tmp_path / "out", models))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    [(live, peak_to_features)] = at_features
    # one trial's samples as float64 are 2.5 MB, and each of the two workers
    # holds a few copies of one trial at a time
    assert peak_to_features < LONG_RAW_BYTES / 2
    # what the verb keeps after the pass: the 25 matrices of 31 KB, little else
    assert live < 5_000_000
    if verb == "featurize":
        assert peak < LONG_RAW_BYTES / 2


# --- reads --------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("small")
    data = _synth(base / "data", "--n-trials", "18", "--n-channels", "5")
    cfg = _write_config(base / "run.json", base / "models", tasks=["uw", "iy"])
    assert main(["crossval", "--config", str(cfg), "--container", str(data)]) == 0
    return data, cfg, base / "models"


@pytest.mark.parametrize("verb", VERBS)
def test_each_verb_reads_each_trial_once(small_run, tmp_path, monkeypatch, verb):
    data, cfg, models = small_run
    reads = collections.Counter()
    original = container.load_recording

    def counting(cont, record):
        reads[record.trial_id] += 1
        return original(cont, record)

    # the CLI looks the reader up on the module at each call, as a tracer needs
    monkeypatch.setattr(container, "load_recording", counting)
    assert main(_argv(verb, cfg, data, tmp_path / "out", models)) == 0
    ids = [r.trial_id for r in container.read_container(data).trials]
    assert reads == collections.Counter(ids)


# --- failures -----------------------------------------------------------------

@pytest.fixture(scope="module")
def nan_corpus(tmp_path_factory):
    """Twelve trials at 128 Hz; the fourth holds one NaN sample."""
    rng = np.random.default_rng(8)
    trials = []
    for i in range(12):
        samples = rng.normal(size=(4, 64))
        if i == 3:
            samples[2, 10] = np.nan
        trials.append((f"t{i:02d}", f"s{i % 3}", ("/uw/", "/iy/")[i % 2], samples))
    root = tmp_path_factory.mktemp("nan") / "data"
    container.write_container(root, "nan", 128.0, [f"ch{c}" for c in range(4)], trials)
    return root


@pytest.mark.parametrize("verb", VERBS)
def test_a_nan_trial_exits_3_before_any_output(nan_corpus, tmp_path, capsys, verb):
    cfg = _write_config(tmp_path / "run.json", tmp_path / "out")
    assert main(_argv(verb, cfg, nan_corpus, tmp_path / "out", tmp_path)) == 3
    assert "trial 't03'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def short_corpus(tmp_path_factory):
    """Twelve trials at 128 Hz; the sixth has 10 time points, fewer than the
    default band's filter pads each end with (27)."""
    rng = np.random.default_rng(9)
    trials = [(f"t{i:02d}", f"s{i % 3}", ("/uw/", "/iy/")[i % 2],
               rng.normal(size=(4, 10 if i == 5 else 64))) for i in range(12)]
    root = tmp_path_factory.mktemp("short") / "data"
    container.write_container(root, "short", 128.0, [f"ch{c}" for c in range(4)], trials)
    return root


@pytest.mark.parametrize("verb", VERBS)
def test_a_trial_shorter_than_the_filter_padding_exits_3_before_any_output(
        short_corpus, tmp_path, capsys, verb):
    cfg = _write_config(tmp_path / "run.json", tmp_path / "out")
    assert main(_argv(verb, cfg, short_corpus, tmp_path / "out", tmp_path)) == 3
    err = capsys.readouterr().err
    assert "trial 't05': 10 time points" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", VERBS)
def test_a_bad_band_exits_2_even_beside_a_bad_trial(nan_corpus, tmp_path, capsys, verb):
    # the band is checked against the container's rate before any trial is read
    cfg = _write_config(tmp_path / "run.json", tmp_path / "out",
                        preprocessing={"high_hz": 64.0})
    assert main(_argv(verb, cfg, nan_corpus, tmp_path / "out", tmp_path)) == 2
    assert "preprocessing/high_hz" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# --- the feature pass on a lazy sequence ----------------------------------------

class _Lazy:
    """Recordings made when indexed, with a log of every fetch and an error
    for some indices."""

    def __init__(self, recordings, errors=None):
        self.recordings = recordings
        self.errors = errors or {}
        self.fetched = collections.Counter()
        self.threads = set()

    def __len__(self):
        return len(self.recordings)

    def __getitem__(self, i):
        self.fetched[i] += 1
        self.threads.add(threading.get_ident())
        if i in self.errors:
            raise self.errors[i]
        return self.recordings[i]


def _recordings(rates=None):
    rng = np.random.default_rng(4)
    rates = rates or [128.0] * 9
    return [random_recording(rng, n_channels=5, n_times=200, sample_rate_hz=rate)
            for rate in rates]


@pytest.mark.parametrize("n_workers", [1, 2, 3])
def test_a_lazy_sequence_is_fetched_once_per_item(monkeypatch, n_workers):
    monkeypatch.setattr(pipeline, "SPLIT_SAMPLES", 1)
    recs, cfg = _recordings(), RunConfig(seed=0, tasks=("uw",))
    want = [c.values.tobytes() for c in pipeline.ccv_features(recs, cfg)]
    lazy = _Lazy(recs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads switch often, so a shared slice would show
    try:
        with workers(n_workers):
            got = [c.values.tobytes() for c in pipeline.ccv_features(lazy, cfg)]
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    assert lazy.fetched == collections.Counter(range(len(recs)))


@pytest.mark.parametrize("n_workers", [1, 2, 3])
def test_the_earliest_failing_trial_names_the_error(monkeypatch, n_workers):
    monkeypatch.setattr(pipeline, "SPLIT_SAMPLES", 1)
    cfg = RunConfig(seed=0, tasks=("uw",))
    # trial 4 is sampled at 80 Hz, below twice the 50 Hz band edge; trial 7 is unreadable
    lazy = _Lazy(_recordings([128.0] * 4 + [80.0] + [128.0] * 4),
                 errors={7: DataError("trial 7 is unreadable")})
    with workers(n_workers), pytest.raises(ConfigError, match="preprocessing/high_hz"):
        pipeline.ccv_features(lazy, cfg)
    lazy = _Lazy(_recordings(), errors={2: DataError("trial 2"), 6: DataError("trial 6")})
    with workers(n_workers), pytest.raises(DataError, match="trial 2"):
        pipeline.ccv_features(lazy, cfg)


@pytest.mark.parametrize("samples, threads", [(1000, 2), (1001, 1)])
def test_trials_split_only_from_split_samples_up(monkeypatch, samples, threads):
    # the trials hold 5 x 200 samples
    monkeypatch.setattr(pipeline, "SPLIT_SAMPLES", samples)
    lazy = _Lazy(_recordings())
    with workers(2):
        pipeline.ccv_features(lazy, RunConfig(seed=0, tasks=("uw",)))
    assert len(lazy.threads) == threads


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before 3.11 a caller's stack keeps its call arguments")
def test_preprocess_frees_the_raw_samples_before_the_mean_removal(monkeypatch):
    alive = []
    original = pipeline.subtract_channel_means

    def spy(rec):
        alive.append(raw() is not None)
        return original(rec)

    monkeypatch.setattr(pipeline, "subtract_channel_means", spy)
    rec = _recordings()[0]
    raw = weakref.ref(rec.samples)
    holder = [rec]
    del rec
    pipeline.preprocess(holder.pop(), RunConfig(seed=0, tasks=("uw",)))
    assert alive == [False]
