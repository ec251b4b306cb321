"""Run configuration: a JSON file validated against a published schema.

Only `seed` and `tasks` are required; every other section defaults to the
reference hyperparameters (networks: 2x conv 3x3 at 32/64 filters, dense
64/128 and 512/1024, dropout 0.25/0.50, 50/50/200 epochs, batch 64, Adam at
1e-3; trees: depth 10, 5000 rounds, learning rate 0.1, L2 0.3, subsample 0.8,
column sample 0.4).  The verb picks the split (`train` the shuffled holdout,
`crossval` leave-one-subject-out); `split.mode` has no default and, when set,
must name the verb's split.  What cannot change a result is not a key: the
covariance is always taken at lag 0, the LSTM reads matrix rows (the
matrices are symmetric), and each fold seeds its trees from the run seed.
Unknown keys are rejected so typos fail loudly, and every validation error
names the offending key path, or the section for a rule between its keys.
The sections are derived from the settings types' fields and the bounds
declared on them (see `bounds`).  Command-line overrides replace the file's
keys once the file has passed the schema, and pass it themselves.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import jsonschema

from .bounds import check_bounds, section_schema
from .errors import ConfigError
from .gbt import GbtConfig
from .networks import NetworkHyper
from .recording import PROMPTS, BandpassSpec, check_positives

TASK_IDS = ("bilabial", "nasal", "cv", "uw", "iy")
SPLIT_MODES = ("random_holdout", "leave_one_subject_out")

DEFAULT_TASK_TABLE = {
    "bilabial": ("/piy/", "/m/", "pat", "pot"),
    "nasal": ("/m/", "/n/", "knew", "gnaw"),
    "cv": ("/piy/", "/tiy/", "/diy/", "/m/", "/n/", "pat", "pot", "knew", "gnaw"),
    "uw": ("/uw/",),
    "iy": ("/iy/", "/piy/", "/tiy/", "/diy/"),
}


@dataclass(frozen=True)
class CovarianceSettings:
    threshold: float = field(default=0.3, metadata={"exclusiveMinimum": 0, "maximum": 1})
    # the CNN's two valid 3x3 convolutions need at least 5x5
    input_size: int = field(default=62, metadata={"minimum": 5})

    def __post_init__(self):
        check_bounds(self)


#: Each config section and the settings type whose fields are its keys.
_SECTIONS = {"preprocessing": BandpassSpec, "covariance": CovarianceSettings,
            "cnn": NetworkHyper, "lstm": NetworkHyper, "dae": NetworkHyper, "gbt": GbtConfig}

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
        # every fold seeds its trees from the run seed, so gbt has no seed key
        **{name: section_schema(settings, omit=("seed",) if name == "gbt" else ())
           for name, settings in _SECTIONS.items()},
        "task_table": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                # `check_positives` owns which prompts a task may list
                task: {"type": "array", "items": {"type": "string"}, "uniqueItems": True}
                for task in TASK_IDS
            },
        },
    },
}


@dataclass(frozen=True)
class RunConfig:
    seed: int
    tasks: tuple[str, ...]
    output_dir: str = "out"
    split_mode: str | None = None
    preprocessing: BandpassSpec = field(default_factory=BandpassSpec)
    covariance: CovarianceSettings = field(default_factory=CovarianceSettings)
    cnn: NetworkHyper = field(default_factory=lambda: NetworkHyper(epochs=50))
    lstm: NetworkHyper = field(default_factory=lambda: NetworkHyper(epochs=50))
    dae: NetworkHyper = field(default_factory=lambda: NetworkHyper(epochs=200))
    gbt: GbtConfig = field(default_factory=GbtConfig)
    task_table: dict = field(default_factory=lambda: {k: tuple(v) for k, v in DEFAULT_TASK_TABLE.items()})

    def canonical_dict(self) -> dict:
        """Result-affecting settings only: the output directory and the tree
        seed, which every fold replaces with its own, are excluded."""
        out = asdict(self)
        del out["output_dir"]
        del out["gbt"]["seed"]
        out["tasks"] = list(self.tasks)
        out["task_table"] = {k: list(v) for k, v in sorted(self.task_table.items())}
        return out

    def fingerprint(self) -> str:
        # without tasks, which pick which results a run makes and change none
        settings = self.canonical_dict()
        del settings["tasks"]
        blob = json.dumps(settings, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# JSON Schema counts 2.0 as an integer; the code needs a Python int.
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, instance: type(instance) is int))


def validate_raw(raw: dict) -> None:
    validator = _Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        path = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"config key {path}: {err.message}")


def config_from_dict(raw: dict, overrides: dict | None = None) -> RunConfig:
    """The RunConfig of the config ``raw``; each key of ``overrides`` then
    replaces the file's, and the merged config passes the schema again."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    validate_raw(raw)
    if overrides:
        raw = {**raw, **overrides}
        validate_raw(raw)
    table_raw = raw.get("task_table", {})
    table = {task: tuple(table_raw.get(task, DEFAULT_TASK_TABLE[task])) for task in TASK_IDS}
    for task, positives in table.items():
        try:
            check_positives(positives)
        except ValueError as exc:
            raise ConfigError(f"config key task_table/{task}: {exc}") from exc
    base = RunConfig(seed=raw["seed"], tasks=tuple(raw["tasks"]))
    # each section's keys are the fields of its settings type, and replace
    # checks the merged section as its constructor would
    sections = {}
    for name in _SECTIONS:
        try:
            sections[name] = replace(getattr(base, name), **raw.get(name, {}))
        except ValueError as exc:
            raise ConfigError(f"config key {name}: {exc}") from exc
    return replace(base, output_dir=raw.get("output_dir", base.output_dir),
                   split_mode=raw.get("split", {}).get("mode"), task_table=table, **sections)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def load_config(path: str | os.PathLike, overrides: dict | None = None) -> RunConfig:
    """The config file at ``path``, with ``overrides`` as in `config_from_dict`."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"no config file at {path}")
    try:
        raw = json.loads(path.read_text(), parse_constant=_reject_constant)
    except ValueError as exc:  # malformed JSON or UTF-8, NaN or Infinity
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(raw, overrides)
