"""Run configuration: a JSON file validated against a published schema.

Only `seed` and `tasks` are required; every other section defaults to the
reference hyperparameters (networks: 2x conv 3x3 at 32/64 filters, dense
64/128 and 512/1024, dropout 0.25/0.50, 50/50/200 epochs, batch 64, Adam at
1e-3; trees: depth 10, 5000 rounds, learning rate 0.1, L2 0.3, subsample 0.8,
column sample 0.4).  Unknown keys are rejected so typos fail loudly, and every
validation error names the offending key path.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

import jsonschema

from .errors import ConfigError
from .gbt import GbtConfig
from .recording import PROMPTS, BandpassSpec

TASK_IDS = ("bilabial", "nasal", "cv", "uw", "iy")
SPLIT_MODES = ("random_holdout", "leave_one_subject_out")

DEFAULT_TASK_TABLE = {
    "bilabial": ("/piy/", "/m/", "pat", "pot"),
    "nasal": ("/m/", "/n/", "knew", "gnaw"),
    "cv": ("/piy/", "/tiy/", "/diy/", "/m/", "/n/", "pat", "pot", "knew", "gnaw"),
    "uw": ("/uw/",),
    "iy": ("/iy/", "/piy/", "/tiy/", "/diy/"),
}

_NETWORK_SECTION = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "epochs": {"type": "integer", "minimum": 0},
        "batch_size": {"type": "integer", "minimum": 1},
        "learning_rate": {"type": "number", "exclusiveMinimum": 0},
    },
}

_LSTM_SECTION = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        **_NETWORK_SECTION["properties"],
        "sequence_axis": {"enum": ["rows", "columns"]},
    },
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["seed", "tasks"],
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string", "minLength": 1},
        "tasks": {
            "type": "array",
            "items": {"enum": list(TASK_IDS)},
            "minItems": 1,
            "uniqueItems": True,
        },
        "split": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"mode": {"enum": list(SPLIT_MODES)}},
        },
        "preprocessing": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "low_hz": {"type": "number", "minimum": 0},
                "high_hz": {"type": "number", "exclusiveMinimum": 0},
                "order": {"type": "integer", "minimum": 1},
            },
        },
        "covariance": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "lag": {"type": "integer"},
                "threshold": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "input_size": {"type": "integer", "minimum": 2},
            },
        },
        "cnn": _NETWORK_SECTION,
        "lstm": _LSTM_SECTION,
        "dae": _NETWORK_SECTION,
        "gbt": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_estimators": {"type": "integer", "minimum": 0},
                "max_depth": {"type": "integer", "minimum": 1},
                "learning_rate": {"type": "number", "exclusiveMinimum": 0},
                "reg_lambda": {"type": "number", "minimum": 0},
                "gamma": {"type": "number", "minimum": 0},
                "subsample": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "colsample": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "min_child_weight": {"type": "number", "minimum": 0},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "task_table": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                task: {
                    "type": "array",
                    "items": {"enum": list(PROMPTS)},
                    "minItems": 1,
                    "uniqueItems": True,
                }
                for task in TASK_IDS
            },
        },
    },
}


@dataclass(frozen=True)
class CovarianceSettings:
    lag: int = 0
    threshold: float = 0.3
    input_size: int = 62


@dataclass(frozen=True)
class NetworkHyper:
    epochs: int
    batch_size: int = 64
    learning_rate: float = 0.001
    sequence_axis: str = "rows"


@dataclass(frozen=True)
class RunConfig:
    seed: int
    tasks: tuple[str, ...]
    output_dir: str = "out"
    split_mode: str = "random_holdout"
    preprocessing: BandpassSpec = field(default_factory=BandpassSpec)
    covariance: CovarianceSettings = field(default_factory=CovarianceSettings)
    cnn: NetworkHyper = field(default_factory=lambda: NetworkHyper(epochs=50))
    lstm: NetworkHyper = field(default_factory=lambda: NetworkHyper(epochs=50))
    dae: NetworkHyper = field(default_factory=lambda: NetworkHyper(epochs=200))
    gbt: GbtConfig = field(default_factory=GbtConfig)
    task_table: dict = field(default_factory=lambda: {k: tuple(v) for k, v in DEFAULT_TASK_TABLE.items()})

    def canonical_dict(self) -> dict:
        """Result-affecting settings only: the output directory is excluded
        so it cannot change the fingerprint."""
        out = asdict(self)
        del out["output_dir"]
        out["tasks"] = list(self.tasks)
        out["task_table"] = {k: list(v) for k, v in sorted(self.task_table.items())}
        return out

    def fingerprint(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def validate_raw(raw: dict) -> None:
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        path = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"config key {path}: {err.message}")


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    validate_raw(raw)
    pre = raw.get("preprocessing", {})
    cov = raw.get("covariance", {})
    gbt_raw = dict(raw.get("gbt", {}))
    gbt_raw.setdefault("seed", raw["seed"])

    def hyper(section: str, default_epochs: int) -> NetworkHyper:
        sec = raw.get(section, {})
        return NetworkHyper(
            epochs=sec.get("epochs", default_epochs),
            batch_size=sec.get("batch_size", 64),
            learning_rate=sec.get("learning_rate", 0.001),
            sequence_axis=sec.get("sequence_axis", "rows"),
        )

    table_raw = raw.get("task_table", {})
    table = {task: tuple(table_raw.get(task, DEFAULT_TASK_TABLE[task])) for task in TASK_IDS}
    for task, positives in table.items():
        if set(positives) == set(PROMPTS):
            raise ConfigError(
                f"config key task_table/{task}: positive set must be a strict subset of prompts")
    try:
        return RunConfig(
            seed=raw["seed"],
            tasks=tuple(raw["tasks"]),
            output_dir=raw.get("output_dir", "out"),
            split_mode=raw.get("split", {}).get("mode", "random_holdout"),
            preprocessing=BandpassSpec(
                low_hz=pre.get("low_hz", 1.0),
                high_hz=pre.get("high_hz", 50.0),
                order=pre.get("order", 4),
            ),
            covariance=CovarianceSettings(
                lag=cov.get("lag", 0),
                threshold=cov.get("threshold", 0.3),
                input_size=cov.get("input_size", 62),
            ),
            cnn=hyper("cnn", 50),
            lstm=hyper("lstm", 50),
            dae=hyper("dae", 200),
            gbt=GbtConfig(**gbt_raw),
            task_table=table,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | os.PathLike) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"no config file at {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(raw)
