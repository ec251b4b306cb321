"""The exit-code contract under bad input: for a config with one bad key, a
corrupted container or a corrupted model bundle, every verb that reads them
returns 0, 2, 3 or 4 and never ends in a traceback."""

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

from eegspeech import pipeline
from eegspeech.cli import main
from eegspeech.config import CONFIG_SCHEMA
from eegspeech.gbt import GbtConfig

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


CORRUPTIONS = {
    "truncate-data": _truncate,
    "garble-manifest": _garble_manifest,
    "bad-manifest-field": _bad_manifest_field,
    "nan-sample": _non_finite_sample(np.nan),
    "inf-sample": _non_finite_sample(-np.inf),
}


@settings(max_examples=15, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(CORRUPTIONS)),
       fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       offset=st.integers(0, 2**32 - 1))
@example(kind="garble-manifest", fraction=0.0, offset=0xFFFEFDFC)
@example(kind="bad-manifest-field", fraction=0.0, offset=0)  # no channels
@example(kind="bad-manifest-field", fraction=0.9, offset=1)  # trials: null
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


# --- saved bundles ------------------------------------------------------------

BUNDLE = Path("uw") / "bundles" / "holdout"
MISSING = "<missing>"
META_KEYS = [(k,) for k in ("task", "fold", "mode", "config_fingerprint", "kept_channels",
                            "input_size", "test_trials", "gbt")] + \
    [("gbt", f.name) for f in dataclasses.fields(GbtConfig)] + [("gbt", "base_score")]
#: meta.json values that must exit exactly 3, not just any code of the contract.
PINNED_META = [(("mode",), "nope"), (("kept_channels",), [0, 99]), (("input_size",), 7),
               (("input_size",), MISSING)]


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
