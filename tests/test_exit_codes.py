"""The exit-code contract under bad input: for a config with one bad key, a
bad --tasks or --out flag, a corrupted container or a corrupted model bundle,
every verb that reads them returns 0, 2, 3 or 4 and never ends in a
traceback."""

import dataclasses
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import v1_archive
from eegspeech import pipeline
from eegspeech.cli import main
from eegspeech.config import CONFIG_SCHEMA
from eegspeech.gbt import GbtConfig
from eegspeech.nn import load_tensors, save_tensors

CONTRACT = {0, 2, 3, 4}
VERBS = ("featurize", "train", "crossval", "evaluate")

BASE = {
    "seed": 3, "tasks": ["uw"],
    "covariance": {"input_size": 6},
    "cnn": {"epochs": 0}, "lstm": {"epochs": 0}, "dae": {"epochs": 0},
    "gbt": {"n_estimators": 2, "max_depth": 2},
}


def _leaf_keys(schema, prefix=()):
    for key, sub in schema["properties"].items():
        if sub.get("type") == "object" and "properties" in sub:
            yield from _leaf_keys(sub, prefix + (key,))
        else:
            yield prefix + (key,)


REMOVED_KEYS = [("covariance", "lag"), ("lstm", "sequence_axis"), ("gbt", "seed")]
KEYS = sorted(_leaf_keys(CONFIG_SCHEMA)) + REMOVED_KEYS

# Every numeric key has a lower bound of 0 or more, so negative numbers are out
# of range everywhere; values in (1, 4] exceed the bounded fractions.  No value
# here can ask for a large run.
BAD_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2), st.just({}),
    st.integers(max_value=-1), st.floats(max_value=-1e-9),
    st.floats(min_value=1.0, max_value=4.0, exclude_min=True),
    st.sampled_from([float("nan"), float("inf")]),
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A tiny container plus the bundles a clean `train` leaves on it."""
    root = tmp_path_factory.mktemp("exit-codes")
    data = root / "data"
    assert main(["synth", "--out", str(data), "--n-trials", "20", "--n-channels", "4",
                 "--n-subjects", "2", "--n-times", "64", "--seed", "1"]) == 0
    config = root / "base.json"
    config.write_text(json.dumps(BASE))
    models = root / "models"
    assert main(["train", "--config", str(config), "--container", str(data),
                 "--out", str(models)]) == 0
    return data, models


def _exit_codes(config: Path, data: Path, models: Path, work: Path) -> dict:
    codes = {}
    for verb in VERBS:
        argv = [verb, "--config", str(config), "--container", str(data),
                "--out", str(work / verb)]
        if verb == "evaluate":
            argv += ["--models", str(models)]
        codes[verb] = main(argv)
    return codes


@settings(max_examples=25, deadline=None, derandomize=True)
@given(key=st.sampled_from(KEYS), value=BAD_VALUES)
@example(key=("covariance", "lag"), value=1)
@example(key=("lstm", "sequence_axis"), value="columns")
@example(key=("gbt", "seed"), value=12345)
@example(key=("covariance", "input_size"), value=4)
@example(key=("covariance", "threshold"), value=float("nan"))
@example(key=("cnn", "epochs"), value=2.0)
def test_one_bad_config_key_keeps_the_contract(corpus, key, value):
    data, models = corpus
    raw = json.loads(json.dumps(BASE))
    section = raw
    for part in key[:-1]:
        section = section.setdefault(part, {})
    section[key[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "run.json").write_text(json.dumps(raw))
        codes = _exit_codes(work / "run.json", data, models, work)
    assert set(codes.values()) <= CONTRACT, codes
    if key in REMOVED_KEYS:
        assert set(codes.values()) == {2}, codes


#: Flag values the config file's checks refuse, and the key each names.
BAD_FLAGS = [(["--tasks", ""], "tasks"), (["--tasks", ","], "tasks"),
             (["--tasks", "uw,uw"], "tasks"), (["--tasks", "uw,,vowels"], "tasks"),
             (["--tasks", "uw,,iy"], "tasks"), (["--out", ""], "output_dir")]


@pytest.mark.parametrize("flag,key", BAD_FLAGS)
@pytest.mark.parametrize("verb", VERBS)
def test_a_bad_flag_is_refused_like_the_same_value_in_the_config(
        corpus, tmp_path, monkeypatch, capsys, verb, flag, key):
    data, models = corpus
    config = tmp_path / "run.json"
    config.write_text(json.dumps(BASE))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)  # where an empty --out would write
    argv = [verb, "--config", str(config), "--container", str(data),
            "--out", str(work / "out"), *flag]
    if verb == "evaluate":
        argv += ["--models", str(models)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"config key {key}" in err and "Traceback" not in err
    assert not any(work.iterdir())


@pytest.mark.parametrize("verb", ["synth", "plot"])
def test_an_empty_out_is_refused_before_anything_is_written(
        corpus, tmp_path, monkeypatch, capsys, verb):
    # these verbs read no config, so no schema checks their --out
    _, models = corpus
    monkeypatch.chdir(tmp_path)
    argv = {"synth": ["synth", "--n-trials", "6"],
            "plot": ["plot", str(models / "uw" / "report.json")]}[verb]
    assert main([*argv, "--out", ""]) == 2
    err = capsys.readouterr().err
    assert "output directory" in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def _truncate(root: Path, fraction: float, offset: int) -> None:
    path = root / "data.bin"
    blob = path.read_bytes()
    path.write_bytes(blob[:math.floor(len(blob) * fraction)])


def _garble_manifest(root: Path, fraction: float, offset: int) -> None:
    path = root / "manifest.json"
    blob = bytearray(path.read_bytes())
    at = math.floor(len(blob) * fraction)
    blob[at:at + 4] = offset.to_bytes(4, "little")
    path.write_bytes(bytes(blob))


def _bad_manifest_field(root: Path, fraction: float, offset: int) -> None:
    path = root / "manifest.json"
    manifest = json.loads(path.read_text())
    fields = sorted(manifest)
    field = fields[math.floor(len(fields) * fraction)]
    manifest[field] = [[], None, 0, -1.5, "x", {}, [0]][offset % 7]
    path.write_text(json.dumps(manifest))


def _non_finite_sample(value):
    def corrupt(root: Path, fraction: float, offset: int) -> None:
        path = root / "data.bin"
        samples = np.frombuffer(path.read_bytes(), dtype="<f4").copy()
        samples[math.floor(len(samples) * fraction)] = value
        path.write_bytes(samples.tobytes())
    return corrupt


def _lone_surrogate(root: Path, fraction: float, offset: int) -> None:
    # the JSON escape "\ud800" spells a string that no UTF-8 output can hold
    path = root / "manifest.json"
    manifest = json.loads(path.read_text())
    trial = manifest["trials"][offset % len(manifest["trials"])]
    owner, key = [(trial, "trial_id"), (trial, "subject_id"), (manifest, "name"),
                  (manifest["channel_names"], 0)][math.floor(4 * fraction)]
    owner[key] += chr(0xD800 + offset % 0x800)
    path.write_text(json.dumps(manifest))


def _dead_trial(root: Path, fraction: float, offset: int) -> None:
    # every channel of one trial but one is flat zero: one live channel is left
    manifest = json.loads((root / "manifest.json").read_text())
    trial = manifest["trials"][math.floor(len(manifest["trials"]) * fraction)]
    n_channels = len(manifest["channel_names"])
    path = root / "data.bin"
    samples = np.frombuffer(path.read_bytes(), dtype="<f4").copy()
    start = trial["offset"] // 4
    block = samples[start:start + trial["length"] // 4].reshape(n_channels, -1)
    block[np.arange(n_channels) != offset % n_channels] = 0.0
    path.write_bytes(samples.tobytes())


#: kills t0001 with the dead-trial corruption: it trains in both splits
DEAD_TRAINING_TRIAL = 0.05

CORRUPTIONS = {
    "truncate-data": _truncate,
    "garble-manifest": _garble_manifest,
    "bad-manifest-field": _bad_manifest_field,
    "nan-sample": _non_finite_sample(np.nan),
    "inf-sample": _non_finite_sample(-np.inf),
    "lone-surrogate": _lone_surrogate,
    "dead-trial": _dead_trial,
}


@settings(max_examples=15, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(CORRUPTIONS)),
       fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       offset=st.integers(0, 2**32 - 1))
@example(kind="garble-manifest", fraction=0.0, offset=0xFFFEFDFC)
@example(kind="bad-manifest-field", fraction=0.0, offset=0)  # no channels
@example(kind="bad-manifest-field", fraction=0.9, offset=1)  # trials: null
@example(kind="lone-surrogate", fraction=0.0, offset=0)  # trial id
@example(kind="lone-surrogate", fraction=0.3, offset=5)  # subject id
@example(kind="lone-surrogate", fraction=0.6, offset=0x7FF)  # container name
@example(kind="lone-surrogate", fraction=0.9, offset=0x400)  # channel name
@example(kind="dead-trial", fraction=DEAD_TRAINING_TRIAL, offset=0)
def test_corrupted_container_keeps_the_contract(corpus, kind, fraction, offset):
    data, models = corpus
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        broken = work / "data"
        shutil.copytree(data, broken)
        CORRUPTIONS[kind](broken, fraction, offset)
        (work / "run.json").write_text(json.dumps(BASE))
        codes = _exit_codes(work / "run.json", broken, models, work)
    assert set(codes.values()) <= CONTRACT, codes
    if kind == "lone-surrogate":
        assert set(codes.values()) == {3}, codes
    if kind == "dead-trial":
        # only fitting channel rejection on the trial fails; scoring it does not,
        # and a drawn trial may be held out of every fold that trains
        assert codes["featurize"] == codes["evaluate"] == 0, codes
        assert {codes["train"], codes["crossval"]} <= {0, 3}, codes
        if fraction == DEAD_TRAINING_TRIAL:
            assert codes["train"] == codes["crossval"] == 3, codes


# --- saved bundles ------------------------------------------------------------

BUNDLE = Path("uw") / "bundles" / "holdout"
MISSING = "<missing>"
META_KEYS = [(k,) for k in ("task", "fold", "mode", "config_fingerprint", "kept_channels",
                            "input_size", "test_trials", "dev_accuracy", "gbt")] + \
    [("gbt", f.name) for f in dataclasses.fields(GbtConfig)] + [("gbt", "base_score")]
#: meta.json values that must exit exactly 3, not just any code of the contract.
PINNED_META = [(("mode",), "nope"), (("kept_channels",), [0, 99]), (("input_size",), 7),
               (("input_size",), MISSING), (("dev_accuracy",), 1.5),
               (("dev_accuracy",), 1)]


def _corrupt_bundle(bundle: Path, kind: str, fraction: float, offset: int, key, value):
    archive = bundle / pipeline.BUNDLE_ARCHIVE
    blob = archive.read_bytes()
    at = math.floor(len(blob) * fraction)
    if kind == "truncate":
        archive.write_bytes(blob[:at])
    elif kind == "garble":
        archive.write_bytes(blob[:at] + offset.to_bytes(4, "little") + blob[at + 4:])
    elif kind == "delete":
        archive.unlink()
    else:
        meta = json.loads((bundle / "meta.json").read_text())
        section = meta if len(key) == 1 else meta[key[0]]
        if value == MISSING:
            del section[key[-1]]
        else:
            section[key[-1]] = value
        (bundle / "meta.json").write_text(json.dumps(meta))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["truncate", "garble", "delete", "meta"]),
       fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       offset=st.integers(0, 2**32 - 1),
       key=st.sampled_from(META_KEYS), value=st.one_of(st.just(MISSING), BAD_VALUES))
@example(kind="truncate", fraction=0.5, offset=0, key=("task",), value=None)
@example(kind="truncate", fraction=0.0, offset=0, key=("task",), value=None)
@example(kind="delete", fraction=0.0, offset=0, key=("task",), value=None)
@example(kind="meta", fraction=0.0, offset=0, key=("mode",), value="nope")
@example(kind="meta", fraction=0.0, offset=0, key=("kept_channels",), value=[0, 99])
@example(kind="meta", fraction=0.0, offset=0, key=("input_size",), value=7)
@example(kind="meta", fraction=0.0, offset=0, key=("input_size",), value=MISSING)
@example(kind="meta", fraction=0.0, offset=0, key=("dev_accuracy",), value=1.5)
@example(kind="meta", fraction=0.0, offset=0, key=("dev_accuracy",), value=1)
def test_corrupted_bundle_keeps_the_contract(corpus, kind, fraction, offset, key, value):
    data, models = corpus
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(models / "uw", work / "models" / "uw")
        _corrupt_bundle(work / "models" / BUNDLE, kind, fraction, offset, key, value)
        (work / "run.json").write_text(json.dumps(BASE))
        code = main(["evaluate", "--config", str(work / "run.json"), "--container",
                     str(data), "--models", str(work / "models"), "--out",
                     str(work / "eval")])
    assert code in CONTRACT
    if kind in ("truncate", "delete") or (kind == "meta" and (key, value) in PINNED_META):
        assert code == 3


def _wrong_cnn_shape(tensors: dict) -> str:
    tensors["cnn.layer06.weights"] = tensors["cnn.layer06.weights"][:, :-1].copy()
    return "cnn.layer06.weights"


def _extra_dae_tensor(tensors: dict) -> str:
    tensors["dae.layer99.weights"] = np.zeros((2, 2))
    return "dae.layer99.weights"


@pytest.mark.parametrize("misfit", [_wrong_cnn_shape, _extra_dae_tensor])
def test_archive_that_does_not_fit_the_model_exits_3(corpus, misfit, capsys):
    # a well-formed archive whose tensors are not the networks' parameters;
    # the message names the misfit by its archive key, network included
    data, models = corpus
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(models / "uw", work / "models" / "uw")
        archive = work / "models" / BUNDLE / pipeline.BUNDLE_ARCHIVE
        tensors = load_tensors(archive)
        key = misfit(tensors)
        save_tensors(archive, tensors)
        (work / "run.json").write_text(json.dumps(BASE))
        code = main(["evaluate", "--config", str(work / "run.json"), "--container",
                     str(data), "--models", str(work / "models"), "--out",
                     str(work / "eval")])
    assert code == 3
    assert key in capsys.readouterr().err


def test_a_version_1_bundle_exits_3_naming_its_version(corpus, capsys):
    data, models = corpus
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(models / "uw", work / "models" / "uw")
        archive = work / "models" / BUNDLE / pipeline.BUNDLE_ARCHIVE
        archive.write_bytes(v1_archive(load_tensors(archive)))
        (work / "run.json").write_text(json.dumps(BASE))
        code = main(["evaluate", "--config", str(work / "run.json"), "--container",
                     str(data), "--models", str(work / "models"), "--out",
                     str(work / "eval")])
    err = capsys.readouterr().err
    assert code == 3
    assert "archive version 1 is not supported" in err and "Traceback" not in err
