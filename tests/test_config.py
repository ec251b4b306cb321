"""Config schema validation, defaulting, and run fingerprints."""

import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from eegspeech import config
from eegspeech.errors import ConfigError
from eegspeech.gbt import GbtConfig
from eegspeech.networks import NetworkHyper
from eegspeech.recording import BandpassSpec

MINIMAL = {"seed": 7, "tasks": ["uw"]}


def test_minimal_config_gets_reference_defaults():
    cfg = config.config_from_dict(MINIMAL)
    assert cfg.seed == 7
    assert cfg.tasks == ("uw",)
    assert cfg.output_dir == "out"
    assert cfg.split_mode is None  # train then runs the holdout, crossval LOSO
    assert (cfg.preprocessing.low_hz, cfg.preprocessing.high_hz,
            cfg.preprocessing.order) == (1.0, 50.0, 4)
    assert (cfg.covariance.threshold, cfg.covariance.input_size) == (0.3, 62)
    for section, epochs in ((cfg.cnn, 50), (cfg.lstm, 50), (cfg.dae, 200)):
        assert section.epochs == epochs
        assert section.batch_size == 64
        assert section.learning_rate == 0.001
    assert cfg.gbt.n_estimators == 5000
    assert cfg.gbt.max_depth == 10
    assert cfg.gbt.learning_rate == 0.1
    assert cfg.gbt.reg_lambda == 0.3
    assert cfg.gbt.gamma == 0.0
    assert cfg.gbt.subsample == 0.8
    assert cfg.gbt.colsample == 0.4
    assert cfg.gbt.min_child_weight == 1.0
    assert cfg.task_table["uw"] == ("/uw/",)
    assert set(cfg.task_table) == set(config.TASK_IDS)


def test_readme_config_block_is_valid():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    cfg = config.config_from_dict(json.loads(blocks[0]))
    assert cfg.tasks == ("uw", "nasal")


def test_gbt_seed_override():
    # every fold seeds its trees from the run seed, so no tree seed is
    # settable and none is part of the resolved config
    with pytest.raises(ConfigError, match="gbt"):
        config.config_from_dict({**MINIMAL, "gbt": {"seed": 99}})
    assert "seed" not in config.config_from_dict(MINIMAL).canonical_dict()["gbt"]


def test_missing_required_key_names_path():
    with pytest.raises(ConfigError, match="seed"):
        config.config_from_dict({"tasks": ["uw"]})
    with pytest.raises(ConfigError, match="tasks"):
        config.config_from_dict({"seed": 1})


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="epoch_count"):
        config.config_from_dict({**MINIMAL, "epoch_count": 10})


def test_unknown_nested_key_names_section():
    with pytest.raises(ConfigError, match="cnn"):
        config.config_from_dict({**MINIMAL, "cnn": {"momentum": 0.9}})


def test_misplaced_known_key_rejected():
    # threshold belongs to the covariance section only
    with pytest.raises(ConfigError, match="cnn"):
        config.config_from_dict({**MINIMAL, "cnn": {"threshold": 0.3}})


@pytest.mark.parametrize("patch,needle", [
    ({"seed": -1}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"tasks": []}, "tasks"),
    ({"tasks": ["uw", "uw"]}, "tasks"),
    ({"tasks": ["vowels"]}, "tasks"),
    ({"dae": {"epochs": -1}}, "dae/epochs"),
    ({"output_dir": ""}, "output_dir"),
    ({"split": {"mode": "bootstrap"}}, "split/mode"),
    ({"preprocessing": {"low_hz": -1}}, "preprocessing/low_hz"),
    ({"preprocessing": {"high_hz": 0}}, "preprocessing/high_hz"),
    ({"preprocessing": {"order": 0}}, "preprocessing/order"),
    ({"covariance": {"threshold": 0}}, "covariance/threshold"),
    ({"covariance": {"threshold": 1.5}}, "covariance/threshold"),
    ({"covariance": {"input_size": 1}}, "covariance/input_size"),
    ({"cnn": {"epochs": -1}}, "cnn/epochs"),
    ({"cnn": {"batch_size": 0}}, "cnn/batch_size"),
    ({"cnn": {"learning_rate": 0}}, "cnn/learning_rate"),
    ({"lstm": {"sequence_axis": "rows"}}, "lstm"),
    ({"gbt": {"n_estimators": -1}}, "gbt/n_estimators"),
    ({"gbt": {"max_depth": 0}}, "gbt/max_depth"),
    ({"gbt": {"learning_rate": 0}}, "gbt/learning_rate"),
    ({"gbt": {"reg_lambda": -0.1}}, "gbt/reg_lambda"),
    ({"gbt": {"gamma": -1}}, "gbt/gamma"),
    ({"gbt": {"subsample": 0}}, "gbt/subsample"),
    ({"gbt": {"subsample": 1.1}}, "gbt/subsample"),
    ({"gbt": {"colsample": 0}}, "gbt/colsample"),
    ({"gbt": {"min_child_weight": -1}}, "gbt/min_child_weight"),
    ({"task_table": {"uw": []}}, "task_table/uw"),
    ({"task_table": {"uw": ["/zz/"]}}, "task_table/uw"),
    ({"task_table": {"vowels": ["/uw/"]}}, "task_table"),
    ({"covariance": {"lag": 1}}, "covariance"),
    ({"gbt": {"seed": 12345}}, "gbt"),
])
def test_domain_violations_name_the_key(patch, needle):
    raw = {**MINIMAL, **patch}
    with pytest.raises(ConfigError) as err:
        config.config_from_dict(raw)
    assert needle in str(err.value)


def test_error_message_prefix():
    with pytest.raises(ConfigError, match=r"config key cnn/epochs"):
        config.config_from_dict({**MINIMAL, "cnn": {"epochs": -3}})


def test_task_table_must_be_strict_subset():
    every_prompt = list(config.PROMPTS)
    with pytest.raises(ConfigError, match="strict subset"):
        config.config_from_dict({**MINIMAL, "task_table": {"cv": every_prompt}})


def test_cross_field_error_names_its_section():
    with pytest.raises(ConfigError, match=re.escape(
            "config key preprocessing: high_hz (10) must exceed low_hz (30)")):
        config.config_from_dict({**MINIMAL, "preprocessing": {"low_hz": 30, "high_hz": 10}})


@pytest.mark.parametrize("overrides,needle", [
    ({"seed": -1}, "config key seed"),
    ({"output_dir": ""}, "config key output_dir"),
    ({"tasks": []}, "config key tasks"),
    ({"tasks": ["uw", "uw"]}, "config key tasks"),
    ({"tasks": ["uw", ""]}, "config key tasks/1"),
])
def test_overrides_pass_the_schema(overrides, needle):
    with pytest.raises(ConfigError, match=needle):
        config.config_from_dict(MINIMAL, overrides)


def test_overrides_replace_the_files_keys_after_the_file_is_checked():
    cfg = config.config_from_dict(MINIMAL, {"seed": 0, "output_dir": "o", "tasks": ["iy"]})
    assert (cfg.seed, cfg.output_dir, cfg.tasks) == (0, "o", ("iy",))
    # a bad key in the file is refused even when an override replaces it
    with pytest.raises(ConfigError, match="config key seed"):
        config.config_from_dict({**MINIMAL, "seed": -1}, {"seed": 3})


def test_non_object_root_rejected():
    with pytest.raises(ConfigError):
        config.config_from_dict(["seed", 1])


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**MINIMAL, "cnn": {"epochs": 3}}))
    cfg = config.load_config(path)
    assert cfg.cnn.epochs == 3
    assert cfg.dae.epochs == 200


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="no config file"):
        config.load_config(tmp_path / "absent.json")


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{seed: 7}")
    with pytest.raises(ConfigError, match="JSON"):
        config.load_config(path)


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def test_fingerprint_is_stable_and_hex():
    a = config.config_from_dict(MINIMAL).fingerprint()
    b = config.config_from_dict(dict(MINIMAL)).fingerprint()
    assert a == b
    assert len(a) == 64
    int(a, 16)


def test_fingerprint_tracks_result_affecting_settings():
    base = config.config_from_dict(MINIMAL).fingerprint()
    changed = config.config_from_dict({**MINIMAL, "cnn": {"epochs": 3}}).fingerprint()
    assert base != changed
    reseeded = config.config_from_dict({**MINIMAL, "seed": 8}).fingerprint()
    assert base != reseeded


def test_fingerprint_ignores_operational_knobs():
    base = config.config_from_dict(MINIMAL).fingerprint()
    assert config.config_from_dict({**MINIMAL, "output_dir": "elsewhere"}).fingerprint() == base


def test_fingerprint_ignores_the_task_subset():
    base = config.config_from_dict(MINIMAL)
    both = config.config_from_dict({**MINIMAL, "tasks": ["uw", "nasal"]})
    assert both.fingerprint() == base.fingerprint()
    assert both.canonical_dict()["tasks"] == ["uw", "nasal"]
    table = {**MINIMAL, "task_table": {"uw": ["/uw/", "/iy/"]}}
    assert config.config_from_dict(table).fingerprint() != base.fingerprint()


def test_canonical_dict_excludes_operational_knobs():
    canonical = config.config_from_dict(MINIMAL).canonical_dict()
    assert "output_dir" not in canonical
    assert canonical["seed"] == 7


# ---------------------------------------------------------------------------
# bounds declared on the settings fields
# ---------------------------------------------------------------------------

SCHEMA_COPY = Path(__file__).resolve().parent / "data" / "config_schema.json"


def test_schema_equals_the_committed_copy():
    # the sections are derived from the settings fields; the published
    # schema is the one the hand-written sections gave
    assert config.CONFIG_SCHEMA == json.loads(SCHEMA_COPY.read_text())


#: Arguments that satisfy each settings type's other rules while one field
#: moves to its bounds: a band from 0 Hz lets high_hz reach down to 0.
SETTINGS = {BandpassSpec: {"low_hz": 0.0}, config.CovarianceSettings: {},
            NetworkHyper: {"epochs": 1}, GbtConfig: {}}


def _bound_cases():
    for settings, base in SETTINGS.items():
        for f in dataclasses.fields(settings):
            for keyword, bound in f.metadata.items():
                yield pytest.param(settings, base, f, keyword, bound,
                                   id=f"{settings.__name__}.{f.name}.{keyword}")


def _step(f, value, direction):
    """The nearest value of ``f``'s type past ``value`` in ``direction``."""
    if f.type == "int":
        return value + (1 if direction > 0 else -1)
    return math.nextafter(float(value), direction * math.inf)


@pytest.mark.parametrize("settings,base,f,keyword,bound", list(_bound_cases()))
def test_each_bound_admits_its_edge_and_refuses_past_it(settings, base, f, keyword, bound):
    inward = -1 if keyword == "maximum" else 1
    edge = _step(f, bound, inward) if keyword.startswith("exclusive") else bound
    settings(**{**base, f.name: edge})
    with pytest.raises(ValueError, match=f.name):
        settings(**{**base, f.name: _step(f, edge, -inward)})


@pytest.mark.parametrize("kwargs", [{"input_size": 4}, {"threshold": 0},
                                    {"threshold": 1.5}, {"threshold": math.nan}])
def test_covariance_settings_refuse_values_out_of_bounds(kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=name):
        config.CovarianceSettings(**kwargs)
