"""Command-line entry point.

Verbs: synth, featurize, train, evaluate, crossval, plot.  Progress goes to
standard error, results to files only.  Exit codes: 0 success, 2 bad
configuration or arguments, 3 bad data, 4 training failure.  The seed
resolves flag > environment (EEGSPEECH_SEED) > config file.  featurize,
train and crossval preprocess every trial and compute its covariance matrix
once, whatever the number of tasks, reading each trial's samples from disk
as it goes and dropping them once its matrix is computed, and write those
matrices out (features.tensors and features.json).  evaluate reuses the
matrices its train or crossval run wrote when they were computed from the
same container bytes, band and order, and reads no trial then; otherwise it
computes them as the other verbs do.  With two or more workers, train and
crossval train each (task, fold) unit in a forked child (`parallel.Units`)
and score, publish and summarise in the parent, in task and fold order; no
child outlives its verb.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import shutil
import sys
from pathlib import Path

from . import container as container_mod
from . import covariance, metrics, networks, parallel, pipeline, plotting, synth
from .config import DEFAULT_TASK_TABLE, TASK_IDS, RunConfig, load_config
from .errors import ConfigError, DataError, LeakageError, TrainingError
from .nn import load_tensors, save_tensors
from .nn.checkpoint import write_json_atomic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAINING = 4

SEED_ENV = "EEGSPEECH_SEED"

#: Where train and crossval write a task's folds until the task has ended.
STAGING = ".partial"

#: The feature pass's matrices, keyed by trial id, and what they were
#: computed from, as featurize, train and crossval write them.
FEATURES_ARCHIVE = "features.tensors"
FEATURES_DOC = "features.json"
#: The fields of a features.json that must equal a run's for evaluate to
#: reuse the matrices beside it.
FEATURES_KEY = ("container", "band", "order", "digest")


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"environment variable {name} must be an integer, got {raw!r}")


def _resolve_seed(args) -> int | None:
    """The --seed flag, else EEGSPEECH_SEED, else None."""
    return args.seed if args.seed is not None else _env_int(SEED_ENV)


def _resolve_config(args) -> RunConfig:
    """The --config file, checked as written, then with --seed (or
    EEGSPEECH_SEED), --out and --tasks in place of its seed, output_dir and
    tasks, which pass the same schema."""
    seed = _resolve_seed(args)
    overrides = {} if seed is None else {"seed": seed}
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.tasks is not None:
        overrides["tasks"] = [t.strip() for t in args.tasks.split(",")]
    return load_config(args.config, overrides)


def _output_dir(path) -> Path:
    """Create the directory ``path`` and its parents; an empty path (the
    --out of synth and plot, which read no config) or one that cannot be a
    directory is a ConfigError."""
    if path == "":
        raise ConfigError("the output directory must be a non-empty path")
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory {path}: {exc.strerror}") from exc
    return path


class _StoredRecordings:
    """A container's trials as a sequence of Recordings, each read from the
    data file when it is indexed and held by nobody afterwards."""

    def __init__(self, cont: container_mod.TrialContainer):
        self.cont = cont

    def __len__(self) -> int:
        return len(self.cont.trials)

    def __getitem__(self, i: int):
        # looked up at call time, so a wrapper set on the module sees every read
        return container_mod.load_recording(self.cont, self.cont.trials[i])


def _featurize(path: str, cfg: RunConfig, models: Path | None = None):
    """The container at ``path``, the features.json document of its feature
    pass (`_write_features`) and each trial's CCV matrix, in trial order.

    ``pipeline.filter_design`` checks the band against the container's
    sampling rate, and the design's ``check_length`` each trial's length,
    before any trial is read, so a bad band exits 2 even when a trial is bad
    too.  Then the container's digest is taken.  Given the ``models``
    directory of evaluate, the matrices stored there are used, and no trial
    is read, when its features.json holds this run's key (`_stored_features`);
    otherwise, as for every other verb, ``pipeline.ccv_features`` computes
    them.
    """
    cont = container_mod.read_container(path)
    design = pipeline.filter_design(cfg, cont.sample_rate_hz)
    for record in cont.trials:
        try:
            design.check_length(cont.n_times(record))
        except ValueError as exc:
            raise DataError(f"trial {record.trial_id!r}: {exc}") from exc
    doc = {
        "container": cont.name,
        "band": [cfg.preprocessing.low_hz, cfg.preprocessing.high_hz],
        "order": cfg.preprocessing.order,
        "trials": [r.trial_id for r in cont.trials],
        "digest": container_mod.digest(cont),
    }
    covs = None if models is None else _stored_features(models, doc, cont.n_channels)
    if covs is None:
        covs = pipeline.ccv_features(_StoredRecordings(cont), cfg)
    return cont, doc, covs


def _stored_features(models: Path, doc: dict, k: int):
    """The matrices under ``models``, as read-only views of its archive,
    when its features.json matches ``doc`` on every `FEATURES_KEY` field;
    None when it has no features.json, or when a key field differs, which
    one stderr line names.  A features file that cannot be read, or that
    does not hold one finite, symmetric k x k matrix for each of ``doc``'s
    trials in their order, is a DataError naming the file."""
    doc_path = models / FEATURES_DOC
    if not doc_path.is_file():
        return None
    try:
        stored = json.loads(doc_path.read_bytes())
        if not isinstance(stored, dict):
            raise ValueError("not a JSON object")
    except (OSError, ValueError) as exc:  # unreadable, or malformed JSON or UTF-8
        raise DataError(f"cannot read {doc_path}: {exc}") from exc
    for field in FEATURES_KEY:
        if stored.get(field) != doc[field]:
            _progress(f"evaluate: the {field} in {doc_path} differs from this run's; "
                      f"computing the features")
            return None
    # the digest covers the manifest, so these trials can only differ in a damaged file
    if stored.get("trials") != doc["trials"]:
        raise DataError(f"cannot read {doc_path}: its trials are not the container's")
    archive = models / FEATURES_ARCHIVE
    try:
        matrices = load_tensors(archive)
        if list(matrices) != doc["trials"]:
            raise ValueError("its matrices are not the container's trials in their order")
        covs = []
        for trial_id, values in matrices.items():
            try:
                if values.shape != (k, k):
                    raise ValueError(f"shape {values.shape} is not {k} x {k}")
                covs.append(covariance.CovMatrix(values))
            except ValueError as exc:
                raise ValueError(f"trial {trial_id!r}: {exc}") from None
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read {archive}: {exc}") from exc
    return covs


def _write_features(out: Path, doc: dict, covs) -> None:
    """Write ``covs`` as one archive keyed by trial id, so no file name
    comes from a trial id, and ``doc`` as features.json, under ``out``."""
    save_tensors(out / FEATURES_ARCHIVE, dict(zip(doc["trials"], (cov.values for cov in covs))))
    write_json_atomic(out / FEATURES_DOC, doc)


def cmd_synth(args) -> int:
    seed = _resolve_seed(args) or 0
    if args.task not in TASK_IDS:
        raise ConfigError(f"unknown task {args.task!r}; choose from {list(TASK_IDS)}")
    try:
        trials = synth.generate_synthetic_recordings(
            args.n_trials, args.n_channels, args.n_subjects, args.separability, seed,
            task_positives=DEFAULT_TASK_TABLE[args.task],
            n_times=args.n_times, sample_rate_hz=args.sample_rate,
            noise_scale=args.noise)
    except ValueError as exc:
        raise ConfigError(f"synth: {exc}") from exc
    _output_dir(args.out)
    container_mod.write_container(args.out, name=f"synthetic-{args.task}",
                                  sample_rate_hz=args.sample_rate,
                                  channel_names=[f"ch{c:02d}" for c in range(args.n_channels)],
                                  trials=trials)
    _progress(f"synth: wrote {args.n_trials} trials to {args.out}")
    return EXIT_OK


def cmd_featurize(args) -> int:
    cfg = _resolve_config(args)
    _, doc, covs = _featurize(args.container, cfg)
    out = _output_dir(cfg.output_dir)
    _write_features(out, doc, covs)
    _progress(f"featurize: wrote {len(covs)} covariance matrices to {out}")
    return EXIT_OK


def _metrics_row(task: str, accuracy: float, kappa: float) -> plotting.TaskMetrics:
    # (po - pe) / (1 - pe) can leave [-1, 1] by float rounding; TaskMetrics refuses that
    return plotting.TaskMetrics(task=task, accuracy=accuracy, kappa=max(-1.0, min(1.0, kappa)))


def _score_tasks(verb: str, cfg: RunConfig, n_trials: int, score_task,
                 record_config: bool) -> list[pipeline.EvalReport]:
    """The per-task loop of train, crossval and evaluate, once the feature
    pass has run: create the output directory (with config.resolved.json
    when ``record_config``), write each task's report.json and
    predictions.csv from ``score_task(task, task_dir)``, then summary.csv."""
    out = _output_dir(cfg.output_dir)
    if record_config:
        write_json_atomic(out / "config.resolved.json", cfg.canonical_dict())
    reports = []
    for task_id in cfg.tasks:
        _progress(f"{verb}: task {task_id} on {n_trials} trials")
        task_dir = out / task_id
        report = score_task(pipeline.task_from_config(cfg, task_id), task_dir)
        _output_dir(task_dir)
        pipeline.write_report_json(report, task_dir / "report.json")
        pipeline.write_predictions_csv(report, task_dir / "predictions.csv")
        _progress(f"{verb}: task {task_id} accuracy {report.accuracy:.4f} "
                  f"kappa {report.kappa:.4f}")
        reports.append(report)
    plotting.write_metric_table_csv([_metrics_row(r.task_id, r.accuracy, r.kappa)
                                     for r in reports], out / "summary.csv")
    return reports


def _save_fold(bundle: pipeline.ModelBundle, task_dir: Path) -> None:
    """Write one fold's bundle, and its networks' training traces, under ``task_dir``."""
    fold = bundle.fold_name
    pipeline.save_bundle(bundle, _output_dir(task_dir / "bundles" / fold))
    traces = _output_dir(task_dir / "traces")
    for model_name, model in (("cnn", bundle.cnn), ("lstm", bundle.lstm), ("dae", bundle.dae)):
        networks.write_trace_csv(traces / f"{fold}.{model_name}.csv", model.trace)


#: The errors a unit's child passes to the verb, which exits with their codes.
EXIT_ERRORS = (ConfigError, DataError, LeakageError, TrainingError)


def _publish(staging: Path, task_dir: Path) -> None:
    """Replace the task's bundles/ and traces/ by the files under ``staging``,
    moved to the same places under ``task_dir``, so no fold of an earlier run
    stays beside this run's."""
    for name in ("bundles", "traces"):
        shutil.rmtree(task_dir / name, ignore_errors=True)
    for path in sorted(p for p in staging.rglob("*") if p.is_file()):
        target = _output_dir(task_dir / path.parent.relative_to(staging)) / path.name
        os.replace(path, target)


def _discard_staging(task_dirs) -> None:
    """Remove each task's staging directory, and the task's directory when
    that leaves it empty."""
    for task_dir in task_dirs:
        shutil.rmtree(task_dir / STAGING, ignore_errors=True)
        try:
            task_dir.rmdir()
        except OSError:  # absent, or holding an earlier run's files
            pass


def _run_protocol(args, mode: str) -> int:
    """Train and score every task of train or crossval, then publish it.

    Each fold is written as it ends, under its task's staging directory,
    whose files replace the task's own once every fold of the task is
    scored, so a task that fails leaves no bundle behind.  Once the feature
    pass has run, with two or more workers and trainable (task, fold) units,
    every unit trains in a forked child of its own (`parallel.Units`), in
    task and fold order, while the parent scores each task's folds in order
    through `pipeline.evaluate_bundles`, loading each fold's bundle from the
    staging directory when its child has ended.  Otherwise
    `pipeline.run_task` trains each fold inline.  Either way the outputs are
    the same bytes, an error is that of the earliest failing unit, and every
    child has been killed and reaped when the verb returns.
    """
    # the verb picks the split and split.mode may only agree with it, so one
    # split has one route; the resolved config and fingerprint record it
    cfg = _resolve_config(args)
    if cfg.split_mode not in (None, mode):
        raise ConfigError(f"config key split/mode: {args.verb} runs {mode}, "
                          f"not {cfg.split_mode}")
    cfg = dataclasses.replace(cfg, split_mode=mode)
    plan = pipeline.SplitPlan(mode=mode, seed=cfg.seed)
    cont, doc, covs = _featurize(args.container, cfg)
    trials, ids = cont.trials, doc["trials"]
    task_dirs = [Path(cfg.output_dir) / task_id for task_id in cfg.tasks]
    fingerprint = cfg.fingerprint()
    units = []
    for task_id, task_dir in zip(cfg.tasks, task_dirs):
        task = pipeline.task_from_config(cfg, task_id)
        labels = pipeline.task_labels(trials, task)
        units += [(task, labels, fold, task_dir / STAGING)
                  for fold, reason in pipeline.fold_plan(trials, labels, plan) if not reason]

    def train_unit(task, labels, fold, staging):
        bundle = pipeline._train_fold(covs, labels, task, fold, cfg, mode, fingerprint, ids)
        _save_fold(bundle, staging)

    def train_task(task, task_dir):
        staging = task_dir / STAGING
        if not in_children:
            _, report = pipeline.run_task(trials, task, plan, cfg, trial_ids=ids, covs=covs,
                                          save=lambda bundle: _save_fold(bundle, staging))
        else:
            def bundle_for(fold):
                try:
                    runner.result((task.task_id, fold.name))
                except parallel.ChildFailed as exc:
                    raise TrainingError(f"task {task.task_id!r} fold {fold.name!r}: "
                                        f"{exc}") from None
                return pipeline.load_bundle(staging / "bundles" / fold.name)

            report = pipeline.evaluate_bundles(trials, task, plan, cfg, bundle_for, ids, covs)
        _publish(staging, task_dir)
        return report

    runner = parallel.Units(passes=EXIT_ERRORS)
    in_children = parallel.WORKERS > 1 and len(units) > 1
    try:
        _discard_staging(task_dirs)
        if in_children:
            for task, labels, fold, staging in units:
                runner.submit((task.task_id, fold.name),
                              functools.partial(train_unit, task, labels, fold, staging))
        reports = _score_tasks(args.verb, cfg, len(trials), train_task, record_config=True)
    finally:
        # the children go first, so none writes into a staging directory after it is removed
        runner.close()
        _discard_staging(task_dirs)
    summary = {"mode": mode, "seed": cfg.seed, "config_fingerprint": fingerprint,
               "tasks": list(cfg.tasks)}
    for key in ("accuracy", "kappa"):
        stats = metrics.summarize([getattr(r, key) for r in reports])
        summary[key] = {"mean": stats.mean, "std": stats.std, "min": stats.minimum,
                        "max": stats.maximum}
    write_json_atomic(Path(cfg.output_dir) / "summary.json", summary)
    # last, so a failed run leaves no features for evaluate to reuse
    _write_features(Path(cfg.output_dir), doc, covs)
    return EXIT_OK


def cmd_train(args) -> int:
    return _run_protocol(args, pipeline.HOLDOUT)


def cmd_crossval(args) -> int:
    return _run_protocol(args, pipeline.LOSO)


def cmd_evaluate(args) -> int:
    cfg = _resolve_config(args)
    models = Path(args.models)
    if not models.is_dir():
        raise DataError(f"no model directory at {models}")

    cont, doc, covs = _featurize(args.container, cfg, models)
    trials, ids = cont.trials, doc["trials"]

    def evaluate_task(task, task_dir):
        bundles_dir = models / task.task_id / "bundles"
        folds = sorted(p for p in bundles_dir.iterdir() if p.is_dir()) \
            if bundles_dir.is_dir() else []
        if not folds:
            raise DataError(f"no trained bundles for task {task.task_id!r} under {models}")
        # the bundles' split is the one their run's config recorded; only
        # their metas are read here, and each archive when its fold is scored
        modes = sorted({pipeline.read_meta(p)["mode"] for p in folds})
        if len(modes) > 1:
            raise DataError(f"bundles of task {task.task_id!r} under {models} mix the "
                            f"{' and '.join(modes)} splits")
        plan = pipeline.SplitPlan(mode=modes[0], seed=cfg.seed)
        _progress(f"evaluate: task {task.task_id} with {len(folds)} fold bundle(s)")
        stored = {p.name: p for p in folds}

        def bundle_for(fold):
            return pipeline.load_bundle(stored[fold.name]) if fold.name in stored else None

        return pipeline.evaluate_bundles(trials, task, plan,
                                         dataclasses.replace(cfg, split_mode=modes[0]),
                                         bundle_for, trial_ids=ids, covs=covs)

    _score_tasks(args.verb, cfg, len(trials), evaluate_task, record_config=False)
    return EXIT_OK


def cmd_plot(args) -> int:
    entries = []
    for path in args.reports:
        path = Path(path)
        if not path.is_file():
            raise DataError(f"no report file at {path}")
        try:
            payload = json.loads(path.read_text())
            entries.append(_metrics_row(str(payload["task"]), float(payload["accuracy"]),
                                        float(payload["kappa"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"bad report file {path}: {exc}") from exc
    out = _output_dir(args.out if args.out is not None else ".")
    plotting.write_task_bars_svg(entries, out / "metrics.svg")
    plotting.write_metric_table_csv(entries, out / "metrics.csv")
    _progress(f"plot: wrote metrics.svg and metrics.csv for {len(entries)} task(s)")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, *, config_required: bool) -> None:
    parser.add_argument("--config", required=config_required,
                        help="path to the JSON run configuration")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"override seed (also {SEED_ENV})")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--tasks", default=None,
                        help="comma-separated task subset, e.g. bilabial,nasal")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eegspeech",
        description="Phonological category classification from imagined-speech EEG.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("synth", help="generate a synthetic trial container")
    p.add_argument("--out", required=True, help="container directory to write")
    p.add_argument("--n-trials", type=int, default=200)
    p.add_argument("--n-channels", type=int, default=8)
    p.add_argument("--n-subjects", type=int, default=3)
    p.add_argument("--separability", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--task", default="uw",
                   help="task whose label table drives prompt assignment")
    p.add_argument("--n-times", type=int, default=256)
    p.add_argument("--sample-rate", type=float, default=128.0)
    p.add_argument("--noise", type=float, default=0.05)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("featurize", help="write covariance features for a container")
    p.add_argument("--container", required=True)
    _add_common(p, config_required=True)
    p.set_defaults(func=cmd_featurize)

    for verb, func, blurb in (
            ("train", cmd_train, "train and score with a shuffled holdout split"),
            ("crossval", cmd_crossval, "train and score leave-one-subject-out")):
        p = sub.add_parser(verb, help=blurb)
        p.add_argument("--container", required=True)
        _add_common(p, config_required=True)
        p.set_defaults(func=func)

    p = sub.add_parser("evaluate", help="re-score held-out trials from saved bundles")
    p.add_argument("--container", required=True)
    p.add_argument("--models", required=True,
                   help="output directory of a previous train/crossval run")
    _add_common(p, config_required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("plot", help="render metric bars (SVG) and tables (CSV)")
    p.add_argument("reports", nargs="+", help="report.json files")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _progress(f"config error: {exc}")
        return EXIT_CONFIG
    except DataError as exc:
        _progress(f"data error: {exc}")
        return EXIT_DATA
    except (TrainingError, LeakageError) as exc:
        _progress(f"training error: {exc}")
        return EXIT_TRAINING


if __name__ == "__main__":
    sys.exit(main())
