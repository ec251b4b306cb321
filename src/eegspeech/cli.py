"""Command-line entry point.

Verbs: synth, featurize, train, evaluate, crossval, plot.  Progress goes to
standard error, results to files only.  Exit codes: 0 success, 2 bad
configuration or arguments, 3 bad data, 4 training failure.  The seed
resolves flag > environment (EEGSPEECH_SEED) > config file.  Each verb that
reads a container preprocesses every trial and computes its covariance
matrix once, whatever the number of tasks, reading each trial's samples
from disk as it goes and dropping them once its matrix is computed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

from . import container as container_mod
from . import metrics, networks, pipeline, plotting, synth
from .config import DEFAULT_TASK_TABLE, TASK_IDS, RunConfig, load_config
from .errors import ConfigError, DataError, LeakageError, TrainingError
from .nn import save_tensors
from .nn.checkpoint import write_json_atomic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAINING = 4

SEED_ENV = "EEGSPEECH_SEED"

#: Where train and crossval write a task's folds until the task has ended.
STAGING = ".partial"


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


def _featurize(path: str, cfg: RunConfig):
    """The container at ``path``, its trial ids and each trial's CCV matrix.
    ``pipeline.filter_design`` checks the band against the container's
    sampling rate, and the design's ``check_length`` each trial's length,
    before any trial is read, so a bad band exits 2 even when a trial is bad
    too."""
    cont = container_mod.read_container(path)
    design = pipeline.filter_design(cfg, cont.sample_rate_hz)
    for record in cont.trials:
        try:
            design.check_length(cont.n_times(record))
        except ValueError as exc:
            raise DataError(f"trial {record.trial_id!r}: {exc}") from exc
    covs = pipeline.ccv_features(_StoredRecordings(cont), cfg)
    return cont, [r.trial_id for r in cont.trials], covs


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
    cont, ids, covs = _featurize(args.container, cfg)
    out = _output_dir(cfg.output_dir)
    # one archive keyed by trial id, so no file name comes from a trial id
    save_tensors(out / "features.tensors", dict(zip(ids, (cov.values for cov in covs))))
    write_json_atomic(out / "features.json", {
        "container": cont.name,
        "band": [cfg.preprocessing.low_hz, cfg.preprocessing.high_hz],
        "order": cfg.preprocessing.order,
        "trials": ids,
    })
    _progress(f"featurize: wrote {len(ids)} covariance matrices to {out}")
    return EXIT_OK


def _metrics_row(task: str, accuracy: float, kappa: float) -> plotting.TaskMetrics:
    # (po - pe) / (1 - pe) can leave [-1, 1] by float rounding; TaskMetrics refuses that
    return plotting.TaskMetrics(task=task, accuracy=accuracy, kappa=max(-1.0, min(1.0, kappa)))


def _score_tasks(args, cfg: RunConfig, score_task,
                 record_config: bool) -> list[pipeline.EvalReport]:
    """The per-task loop of train, crossval and evaluate: read and featurize
    the container, create the output directory (with config.resolved.json
    when ``record_config``), write each task's report.json and predictions.csv
    from ``score_task(task, trials, ids, covs, task_dir)``, where ``trials``
    are the container's TrialRecords, then summary.csv."""
    cont, ids, covs = _featurize(args.container, cfg)
    trials = cont.trials
    out = _output_dir(cfg.output_dir)
    if record_config:
        write_json_atomic(out / "config.resolved.json", cfg.canonical_dict())
    reports = []
    for task_id in cfg.tasks:
        _progress(f"{args.verb}: task {task_id} on {len(trials)} trials")
        task_dir = out / task_id
        report = score_task(pipeline.task_from_config(cfg, task_id), trials, ids, covs,
                            task_dir)
        _output_dir(task_dir)
        pipeline.write_report_json(report, task_dir / "report.json")
        pipeline.write_predictions_csv(report, task_dir / "predictions.csv")
        _progress(f"{args.verb}: task {task_id} accuracy {report.accuracy:.4f} "
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


def _publish(staging: Path, task_dir: Path) -> None:
    """Move every file under ``staging`` to the same place under ``task_dir``."""
    for path in sorted(p for p in staging.rglob("*") if p.is_file()):
        target = _output_dir(task_dir / path.parent.relative_to(staging)) / path.name
        os.replace(path, target)


def _run_protocol(args, mode: str) -> int:
    # the verb picks the split and split.mode may only agree with it, so one
    # split has one route; the resolved config and fingerprint record it
    cfg = _resolve_config(args)
    if cfg.split_mode not in (None, mode):
        raise ConfigError(f"config key split/mode: {args.verb} runs {mode}, "
                          f"not {cfg.split_mode}")
    cfg = dataclasses.replace(cfg, split_mode=mode)
    plan = pipeline.SplitPlan(mode=mode, seed=cfg.seed)

    def train_task(task, trials, ids, covs, task_dir):
        # each fold is written as it ends, under a staging directory whose
        # files move into the task's directory once every fold is scored, so
        # a task that fails leaves no bundle behind
        staging = task_dir / STAGING
        shutil.rmtree(staging, ignore_errors=True)
        try:
            _, report = pipeline.run_task(trials, task, plan, cfg, trial_ids=ids, covs=covs,
                                          save=lambda bundle: _save_fold(bundle, staging))
            _publish(staging, task_dir)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        return report

    reports = _score_tasks(args, cfg, train_task, record_config=True)
    summary = {"mode": mode, "seed": cfg.seed, "config_fingerprint": cfg.fingerprint(),
               "tasks": list(cfg.tasks)}
    for key in ("accuracy", "kappa"):
        stats = metrics.summarize([getattr(r, key) for r in reports])
        summary[key] = {"mean": stats.mean, "std": stats.std, "min": stats.minimum,
                        "max": stats.maximum}
    write_json_atomic(Path(cfg.output_dir) / "summary.json", summary)
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

    def evaluate_task(task, trials, ids, covs, task_dir):
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

    _score_tasks(args, cfg, evaluate_task, record_config=False)
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
