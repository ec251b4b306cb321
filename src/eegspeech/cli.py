"""Command-line entry point.

Verbs: synth, featurize, train, evaluate, crossval, plot.  Progress goes to
standard error, results to files only.  Exit codes: 0 success, 2 bad
configuration or arguments, 3 bad data, 4 training failure.  The seed
resolves flag > environment (EEGSPEECH_SEED) > config file.  Each verb that
reads a container preprocesses every trial and computes its covariance
matrix once, whatever the number of tasks.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
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


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else _env_int(SEED_ENV)
    updates = {}
    if seed is not None:
        if seed < 0:
            raise ConfigError("seed must be >= 0")
        updates["seed"] = seed
    if args.out is not None:
        updates["output_dir"] = args.out
    if args.tasks is not None:
        tasks = tuple(t.strip() for t in args.tasks.split(",") if t.strip())
        if not tasks:
            raise ConfigError("--tasks must name at least one task")
        unknown = [t for t in tasks if t not in TASK_IDS]
        if unknown:
            raise ConfigError(f"unknown tasks: {unknown}; choose from {list(TASK_IDS)}")
        updates["tasks"] = tasks
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _load_recordings(path: str):
    cont = container_mod.read_container(path)
    recordings = [container_mod.load_recording(cont, r) for r in cont.trials]
    ids = [r.trial_id for r in cont.trials]
    return cont, recordings, ids


def cmd_synth(args) -> int:
    seed = args.seed if args.seed is not None else _env_int(SEED_ENV)
    if seed is None:
        seed = 0
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
    container_mod.write_container(args.out, name=f"synthetic-{args.task}",
                                  sample_rate_hz=args.sample_rate,
                                  channel_names=[f"ch{c:02d}" for c in range(args.n_channels)],
                                  trials=trials)
    _progress(f"synth: wrote {args.n_trials} trials to {args.out}")
    return EXIT_OK


def cmd_featurize(args) -> int:
    cfg = _resolve_config(args)
    cont, recordings, ids = _load_recordings(args.container)
    covs = pipeline.ccv_features(recordings, cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
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


def _write_scored_task(report: pipeline.EvalReport, task_dir: Path) -> plotting.TaskMetrics:
    """Write a scored task's report.json and predictions.csv; return its
    summary-table row."""
    task_dir.mkdir(parents=True, exist_ok=True)
    pipeline.write_report_json(report, task_dir / "report.json")
    pipeline.write_predictions_csv(report, task_dir / "predictions.csv")
    return _metrics_row(report.task_id, report.accuracy, report.kappa)


def _metrics_row(task: str, accuracy: float, kappa: float) -> plotting.TaskMetrics:
    # (po - pe) / (1 - pe) can leave [-1, 1] by float rounding; TaskMetrics refuses that
    return plotting.TaskMetrics(task=task, accuracy=accuracy, kappa=max(-1.0, min(1.0, kappa)))


def _run_protocol(args, mode: str) -> int:
    # the verb picks the split and split.mode may only agree with it, so one
    # split has one route; the resolved config and fingerprint record it
    cfg = _resolve_config(args)
    if cfg.split_mode not in (None, mode):
        raise ConfigError(f"config key split/mode: {args.verb} runs {mode}, "
                          f"not {cfg.split_mode}")
    cfg = dataclasses.replace(cfg, split_mode=mode)
    cont, recordings, ids = _load_recordings(args.container)
    covs = pipeline.ccv_features(recordings, cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json_atomic(out / "config.resolved.json", cfg.canonical_dict())
    plan = pipeline.SplitPlan(mode=mode, seed=cfg.seed)
    entries = []
    accuracies = []
    kappas = []
    for task_id in cfg.tasks:
        task = pipeline.task_from_config(cfg, task_id)
        _progress(f"{mode}: task {task_id} on {len(recordings)} trials")
        bundles, report = pipeline.run_task(recordings, task, plan, cfg,
                                            trial_ids=ids, covs=covs)
        task_dir = out / task_id
        entries.append(_write_scored_task(report, task_dir))
        traces = task_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        for fold_name, bundle in sorted(bundles.items()):
            pipeline.save_bundle(bundle, task_dir / "bundles" / fold_name)
            for model_name, model in (("cnn", bundle.cnn), ("lstm", bundle.lstm),
                                      ("dae", bundle.dae)):
                networks.write_trace_csv(traces / f"{fold_name}.{model_name}.csv",
                                         model.trace)
        accuracies.append(report.accuracy)
        kappas.append(report.kappa)
        _progress(f"{mode}: task {task_id} accuracy {report.accuracy:.4f} "
                  f"kappa {report.kappa:.4f}")
    acc = metrics.summarize(accuracies)
    kap = metrics.summarize(kappas)
    write_json_atomic(out / "summary.json", {
        "mode": mode,
        "seed": cfg.seed,
        "config_fingerprint": cfg.fingerprint(),
        "tasks": list(cfg.tasks),
        "accuracy": {"mean": acc.mean, "std": acc.std, "min": acc.minimum,
                     "max": acc.maximum},
        "kappa": {"mean": kap.mean, "std": kap.std, "min": kap.minimum,
                  "max": kap.maximum},
    })
    plotting.write_metric_table_csv(entries, out / "summary.csv")
    return EXIT_OK


def cmd_train(args) -> int:
    return _run_protocol(args, pipeline.HOLDOUT)


def cmd_crossval(args) -> int:
    return _run_protocol(args, pipeline.LOSO)


def cmd_evaluate(args) -> int:
    cfg = _resolve_config(args)
    cont, recordings, ids = _load_recordings(args.container)
    models = Path(args.models)
    if not models.is_dir():
        raise DataError(f"no model directory at {models}")
    covs = pipeline.ccv_features(recordings, cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for task_id in cfg.tasks:
        task = pipeline.task_from_config(cfg, task_id)
        bundles_dir = models / task_id / "bundles"
        folds = sorted(p for p in bundles_dir.iterdir() if p.is_dir()) \
            if bundles_dir.is_dir() else []
        if not folds:
            raise DataError(f"no trained bundles for task {task_id!r} under {models}")
        bundles = {p.name: pipeline.load_bundle(p) for p in folds}
        # the bundles' split is the one their run's config recorded
        mode = next(iter(bundles.values())).mode
        task_cfg = dataclasses.replace(cfg, split_mode=mode)
        plan = pipeline.SplitPlan(mode=mode, seed=cfg.seed)
        _progress(f"evaluate: task {task_id} with {len(bundles)} fold bundle(s)")
        report = pipeline.evaluate_bundles(recordings, task, plan, task_cfg, bundles,
                                           trial_ids=ids, covs=covs)
        entries.append(_write_scored_task(report, out / task_id))
        _progress(f"evaluate: task {task_id} accuracy {report.accuracy:.4f}")
    plotting.write_metric_table_csv(entries, out / "summary.csv")
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
    out = Path(args.out if args.out is not None else ".")
    out.mkdir(parents=True, exist_ok=True)
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
