"""Per-task orchestration of the three-level hierarchy.

Every trial is preprocessed and turned into a channel cross-covariance
matrix once per container (`ccv_features`), which drops its samples then;
from there on a trial is its matrix, subject and prompt.  Then, for each
fold of the chosen protocol: fit channel rejection on the training fold,
build standardized network inputs, train the CNN and LSTM branches, fuse
their penultimate features, train the autoencoder, encode, and fit the
boosted-tree classifier.  Held-out trials are scored by `evaluate_bundles`,
the one path that scores a fold, whether its bundle was just trained or
loaded from disk: its fold loop calls a function of the fold for that
fold's bundle, one fold at a time, and drops the bundle before the next
call, so a task never holds more than one.  `fold_plan` owns the rule for
which folds train, which that loop and the CLI's list of (task, fold) units
both read.  A leakage audit object checks that no fitting step ever sees a
held-out trial index.
"""

from __future__ import annotations

import dataclasses
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import covariance, gbt, metrics, networks, parallel
from . import rng as rng_mod
from .config import SPLIT_MODES, RunConfig
from .errors import ConfigError, DataError, LeakageError, TrainingError
from .nn import load_tensors, save_tensors
from .nn.checkpoint import write_csv_atomic, write_json_atomic
from .recording import (BandpassDesign, Recording, bandpass_design, bandpass_filter,
                        check_positives, check_prompt, subtract_channel_means)

HOLDOUT, LOSO = SPLIT_MODES

BUNDLE_ARCHIVE = "model.tensors"

#: Samples (channels x times) a trial needs before the feature pass splits
#: trials across workers.  A smaller trial's preprocessing is mostly
#: interpreter work, for which two threads only contend: on a 2-vCPU VM one
#: thread was faster on trials of 32 x 256 samples, and two on 62 x 1000.
SPLIT_SAMPLES = 32768


@dataclass(frozen=True)
class Task:
    task_id: str
    positives: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "positives", check_positives(self.positives))


def task_from_config(cfg: RunConfig, task_id: str) -> Task:
    return Task(task_id=task_id, positives=tuple(cfg.task_table[task_id]))


def derive_label(prompt: str, task: Task) -> int:
    check_prompt(prompt)
    return 1 if prompt in task.positives else 0


@dataclass(frozen=True)
class SplitPlan:
    mode: str
    seed: int

    def __post_init__(self):
        if self.mode not in SPLIT_MODES:
            raise ValueError(f"unknown split mode {self.mode!r}")


@dataclass(frozen=True)
class Fold:
    name: str
    train: tuple[int, ...]
    dev: tuple[int, ...]
    test: tuple[int, ...]


def make_splits(trials, plan: SplitPlan) -> list[Fold]:
    """Index folds over the trial list, whose items carry ``subject_id``.

    Holdout: one fold; dev and test each get floor(n/10) shuffled trials and
    the remainder trains.  Leave-one-subject-out: one fold per subject, the
    subject's trials test, a shuffled 10% of the rest serve as dev.
    """
    n = len(trials)
    if plan.mode == HOLDOUT:
        if n < 10:
            raise DataError(f"holdout split needs at least 10 trials, got {n}")
        n_part = n // 10
        order = rng_mod.stream(plan.seed, "split", "holdout").permutation(n)
        test = tuple(sorted(int(i) for i in order[:n_part]))
        dev = tuple(sorted(int(i) for i in order[n_part : 2 * n_part]))
        train = tuple(sorted(int(i) for i in order[2 * n_part :]))
        return [Fold(name="holdout", train=train, dev=dev, test=test)]
    subjects = sorted({trial.subject_id for trial in trials})
    if len(subjects) < 2:
        raise DataError(
            f"leave-one-subject-out needs at least 2 subjects, got {len(subjects)}")
    folds = []
    for subject in subjects:
        test = [i for i, trial in enumerate(trials) if trial.subject_id == subject]
        rest = [i for i, trial in enumerate(trials) if trial.subject_id != subject]
        n_dev = len(rest) // 10
        order = rng_mod.stream(plan.seed, "split", "loso", subject).permutation(len(rest))
        dev = tuple(sorted(rest[int(j)] for j in order[:n_dev]))
        train = tuple(sorted(rest[int(j)] for j in order[n_dev:]))
        folds.append(Fold(name=f"subject-{subject}", train=train, dev=dev,
                          test=tuple(test)))
    return folds


@dataclass
class LeakageAudit:
    """Records fitting calls and rejects any that touch held-out indices."""

    held_out: frozenset
    log: list = field(default_factory=list)

    def check(self, stage: str, indices) -> None:
        indices = tuple(indices)
        touched = self.held_out.intersection(indices)
        if touched:
            raise LeakageError(
                f"{stage} fit on held-out trials {sorted(touched)[:5]}")
        self.log.append((stage, len(indices)))


def filter_design(cfg: RunConfig, sample_rate_hz: float) -> BandpassDesign:
    """The preprocessing filter for ``sample_rate_hz``; a band edge at or
    above its Nyquist rate is a ConfigError."""
    try:
        return bandpass_design(cfg.preprocessing, sample_rate_hz)
    except ValueError as exc:
        raise ConfigError(f"config key preprocessing/high_hz: {exc}") from exc


def preprocess(rec: Recording, cfg: RunConfig) -> Recording:
    """Bandpass ``rec`` and remove its channel means; a band edge at or above
    its Nyquist rate is a ConfigError."""
    filter_design(cfg, rec.sample_rate_hz)
    filtered = bandpass_filter(rec, cfg.preprocessing)
    # when the caller passed the only reference, the raw samples are freed
    # here, before the mean removal allocates: a worker's heap then reuses
    # their pages instead of faulting in fresh ones
    del rec
    return subtract_channel_means(filtered)


def ccv_features(recordings, cfg: RunConfig) -> list[covariance.CovMatrix]:
    """Preprocess every trial and compute its CCV matrix: the one feature
    pass a verb makes over a container, split by trial across
    ``parallel.split``'s workers.

    ``recordings`` is a sequence of Recordings.  Each item is fetched once,
    by the worker that reduces it, and dropped by the time its matrix is
    computed, so a lazy sequence that reads its item *i* from disk keeps one
    raw trial per worker in memory.  The first trial is processed alone: it
    designs the filter (`recording.bandpass_design`) before any worker needs
    it, and the rest are split only when it holds at least
    ``SPLIT_SAMPLES`` samples.  Trials are processed in order within each
    slice, so the error of the earliest failing trial is raised; a band edge
    at or above a trial's Nyquist rate is a ConfigError.
    """
    n = len(recordings)
    covs = [None] * n
    if not n:
        return covs
    first = recordings[0]
    # a grain of n keeps every trial on this thread
    grain = 1 if first.samples.size >= SPLIT_SAMPLES else n
    covs[0] = covariance.ccv_matrix(preprocess(first, cfg))
    del first

    def part(lo, hi):
        for i in range(lo + 1, hi + 1):
            covs[i] = covariance.ccv_matrix(preprocess(recordings[i], cfg))

    parallel.split(n - 1, part, grain)
    return covs


def fit_channel_rejection(covs, trial_ids, train_indices, threshold: float,
                          audit: LeakageAudit | None = None) -> tuple[int, ...]:
    """Channels kept in at least half of the training trials' rejections.

    Falls back to the two most frequently kept channels when the vote leaves
    fewer than two.  A training trial with fewer than two live channels is a
    DataError naming the trial by its id in ``trial_ids``.
    """
    if audit is not None:
        audit.check("channel-rejection", train_indices)
    if not train_indices:
        raise DataError("channel rejection needs at least one training trial")
    n_channels = covs[train_indices[0]].k
    votes = np.zeros(n_channels, dtype=np.int64)
    for idx in train_indices:
        cov = covs[idx]
        if cov.k != n_channels:
            raise DataError("training trials disagree on channel count")
        try:
            kept = covariance.reject_channels(cov, threshold)
        except ValueError as exc:
            raise DataError(f"training trial {trial_ids[idx]}: {exc}") from exc
        votes[list(kept)] += 1
    half = len(train_indices) / 2.0
    kept = tuple(int(c) for c in range(n_channels) if votes[c] >= half)
    if len(kept) < 2:
        order = sorted(range(n_channels), key=lambda c: (-votes[c], c))
        kept = tuple(sorted(order[:2]))
    return kept


@dataclass
class ModelBundle:
    task_id: str
    fold_name: str
    mode: str
    config_fingerprint: str
    kept_channels: tuple[int, ...]
    input_size: int
    cnn: networks.Model
    lstm: networks.Model
    dae: networks.Model
    ensemble: gbt.Ensemble
    test_trial_ids: tuple[str, ...]
    dev_accuracy: float

    def predict_proba(self, inputs: np.ndarray) -> np.ndarray:
        """P(class 1) for a stack of network inputs: fuse, encode, then trees."""
        fused = networks.extract_fused(self.cnn, self.lstm, inputs)
        return self.ensemble.predict_proba(networks.encode(self.dae, fused))


def save_bundle(bundle: ModelBundle, root: str | os.PathLike) -> None:
    """Write ``meta.json`` and one archive: ``cnn.*``, ``lstm.*`` and ``dae.*``
    parameters, the DAE standardisation and each tree's rows (``gbt.tree.<i>``)."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    ensemble = bundle.ensemble
    meta = {
        "task": bundle.task_id,
        "fold": bundle.fold_name,
        "mode": bundle.mode,
        "config_fingerprint": bundle.config_fingerprint,
        "kept_channels": list(bundle.kept_channels),
        "input_size": bundle.input_size,
        "test_trials": list(bundle.test_trial_ids),
        "dev_accuracy": bundle.dev_accuracy,
        "gbt": {**dataclasses.asdict(ensemble.config), "base_score": ensemble.base_score},
    }
    write_json_atomic(root / "meta.json", meta)
    tensors = {}
    for prefix, net in (("cnn", bundle.cnn.net), ("lstm", bundle.lstm.net),
                        ("dae", bundle.dae.net)):
        tensors.update((f"{prefix}.{name}", t.data) for name, t in net.parameters())
    tensors["dae.standardize.mean"] = bundle.dae.mean
    tensors["dae.standardize.std"] = bundle.dae.std
    tensors.update((f"gbt.tree.{i}", tree.to_rows()) for i, tree in enumerate(ensemble.trees))
    save_tensors(root / BUNDLE_ARCHIVE, tensors)


@contextmanager
def _reading(root):
    """Turn any unreadable or ill-fitting bundle file under ``root`` into a DataError."""
    try:
        yield
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"cannot read the bundle under {root}: {exc}") from exc


def read_meta(root: str | os.PathLike) -> dict:
    """The ``meta.json`` of `save_bundle` output, checked and read without
    its archive, with ``gbt`` as a GbtConfig and its ``base_score`` moved to
    the top level: the one parser of a bundle's meta, which `load_bundle`
    uses.  An unreadable or ill-formed meta is a DataError."""
    with _reading(root):
        meta = json.loads((Path(root) / "meta.json").read_text())
        if meta["mode"] not in SPLIT_MODES:
            raise ValueError(f"unknown split mode {meta['mode']!r}")
        kept = meta["kept_channels"]
        if not (all(type(c) is int and c >= 0 for c in kept) and kept == sorted(set(kept))):
            raise ValueError(f"kept_channels {kept!r} are not ascending channel indices")
        dev_accuracy = meta.get("dev_accuracy")  # absent from bundles of older releases
        if not (type(dev_accuracy) is float and 0.0 <= dev_accuracy <= 1.0):
            raise ValueError(f"dev_accuracy {dev_accuracy!r} is not a float in [0, 1]")
        if type(meta["input_size"]) is not int:
            raise ValueError(f"input_size {meta['input_size']!r} is not an integer")
        gbt_meta = dict(meta["gbt"])
        meta["base_score"] = float(gbt_meta.pop("base_score"))
        if set(gbt_meta) != {f.name for f in dataclasses.fields(gbt.GbtConfig)}:
            raise ValueError(f"gbt settings {sorted(gbt_meta)} are not the GbtConfig fields")
        meta["gbt"] = gbt.GbtConfig(**gbt_meta)
        return meta


def load_bundle(root: str | os.PathLike) -> ModelBundle:
    """Read `save_bundle` output; any unreadable or ill-fitting file is a DataError."""
    meta = read_meta(root)
    with _reading(root):
        return _bundle_from(meta, load_tensors(Path(root) / BUNDLE_ARCHIVE))


def _bundle_from(meta: dict, tensors: dict) -> ModelBundle:
    # The LSTM's first input weight is (4 * units, input_size); checking it
    # first means no network is ever built at a size the archive does not hold.
    size = meta["input_size"]
    if tensors.get("lstm.layer00.wx", np.empty(0)).shape[1:] != (size,):
        raise ValueError(f"input_size {size!r} does not match the archive")
    config = meta["gbt"]

    def section(prefix: str) -> dict:
        return {k: v for k, v in tensors.items() if k.startswith(prefix)}

    # each network reads its section under the archive's own keys, so a
    # tensor that does not fit is named with its network
    cnn = networks.build_model("cnn", size, section("cnn."), "cnn.")
    lstm = networks.build_model("lstm", size, section("lstm."), "lstm.")
    dae_state = section("dae.")
    mean = dae_state.pop("dae.standardize.mean")
    std = dae_state.pop("dae.standardize.std")
    if mean.shape != (networks.FUSED_DIM,) or std.shape != (networks.FUSED_DIM,):
        raise ValueError("the autoencoder's standardisation does not fit its input width")
    dae = networks.build_model("dae", networks.FUSED_DIM, dae_state, "dae.")
    dae.mean, dae.std = mean, std
    rows = section("gbt.tree.")
    trees = [gbt.Tree.from_rows(rows.pop(f"gbt.tree.{i}"), networks.DAE_LATENT)
             for i in range(config.n_estimators)]
    if rows:
        raise ValueError("the archive holds more trees than gbt.n_estimators")
    ensemble = gbt.Ensemble(config=config, base_score=meta["base_score"], trees=trees)
    return ModelBundle(task_id=meta["task"], fold_name=meta["fold"], mode=meta["mode"],
                       config_fingerprint=meta["config_fingerprint"],
                       kept_channels=tuple(meta["kept_channels"]), input_size=size,
                       cnn=cnn, lstm=lstm, dae=dae, ensemble=ensemble,
                       test_trial_ids=tuple(meta["test_trials"]),
                       dev_accuracy=meta["dev_accuracy"])


@dataclass
class TrialPrediction:
    index: int
    trial_id: str
    subject_id: str
    prompt: str
    fold: str
    truth: int
    prediction: int
    probability: float


@dataclass
class FoldReport:
    name: str
    skipped: bool = False
    reason: str = ""
    n_train: int = 0
    n_dev: int = 0
    n_test: int = 0
    kept_channels: tuple[int, ...] = ()
    accuracy: float = 0.0
    kappa: float = 0.0
    kappa_degenerate: bool = False
    dev_accuracy: float = 0.0
    confusion: np.ndarray = field(default_factory=lambda: np.zeros((2, 2), dtype=np.int64))


@dataclass
class EvalReport:
    task_id: str
    mode: str
    seed: int
    config_fingerprint: str
    folds: list[FoldReport]
    confusion: np.ndarray
    accuracy: float
    kappa: float
    kappa_degenerate: bool
    predictions: list[TrialPrediction]

    @property
    def skipped_folds(self) -> list[str]:
        return [f.name for f in self.folds if f.skipped]


def _network_inputs(covs, kept: tuple[int, ...], input_size: int) -> np.ndarray:
    return np.stack([covariance.to_network_input(covariance.submatrix(cov, kept), input_size)
                     for cov in covs])


def _bundle_proba(bundle: ModelBundle, covs, indices) -> np.ndarray:
    inputs = _network_inputs([covs[i] for i in indices], bundle.kept_channels, bundle.input_size)
    return bundle.predict_proba(inputs)


def score_fold(bundle: ModelBundle, fold: Fold, covs, labels, trials,
               trial_ids) -> tuple[FoldReport, list[TrialPrediction]]:
    """Score a fold's test trials through its bundle: its FoldReport and predictions."""
    probs = _bundle_proba(bundle, covs, fold.test)
    pred = (probs >= 0.5).astype(np.int64)
    truth = labels[list(fold.test)]
    confusion = metrics.confusion_matrix(truth, pred)
    kappa = metrics.cohen_kappa(confusion)
    report = FoldReport(name=fold.name, n_train=len(fold.train), n_dev=len(fold.dev),
                        n_test=len(fold.test), kept_channels=bundle.kept_channels,
                        accuracy=metrics.accuracy(confusion), kappa=kappa.value,
                        kappa_degenerate=kappa.degenerate,
                        dev_accuracy=bundle.dev_accuracy, confusion=confusion)
    predictions = [
        TrialPrediction(index=i, trial_id=trial_ids[i], subject_id=trials[i].subject_id,
                        prompt=trials[i].prompt, fold=fold.name,
                        truth=int(truth[j]), prediction=int(pred[j]),
                        probability=float(probs[j]))
        for j, i in enumerate(fold.test)
    ]
    return report, predictions


def train_fold(covs, labels, task: Task, fold: Fold, cfg: RunConfig, mode: str,
               fingerprint: str, trial_ids) -> ModelBundle:
    """Train one fold, every stage on ``fold.train`` alone, and return its bundle."""
    train_labels = labels[list(fold.train)]
    audit = LeakageAudit(held_out=frozenset(fold.dev) | frozenset(fold.test))
    kept = fit_channel_rejection(covs, trial_ids, fold.train, cfg.covariance.threshold,
                                 audit)
    train_inputs = _network_inputs([covs[i] for i in fold.train], kept,
                                   cfg.covariance.input_size)
    fold_seed = rng_mod.child_seed(cfg.seed, "task", task.task_id, "fold", fold.name)

    audit.check("cnn-train", fold.train)
    cnn = networks.train_cnn(train_inputs, train_labels, cfg.cnn, fold_seed)
    audit.check("lstm-train", fold.train)
    lstm = networks.train_lstm(train_inputs, train_labels, cfg.lstm, fold_seed)

    fused = networks.extract_fused(cnn, lstm, train_inputs)
    audit.check("dae-train", fold.train)
    dae = networks.train_dae(fused, cfg.dae, fold_seed)

    audit.check("gbt-fit", fold.train)
    ensemble = gbt.fit(networks.encode(dae, fused), train_labels,
                       dataclasses.replace(cfg.gbt, seed=fold_seed))

    bundle = ModelBundle(task_id=task.task_id, fold_name=fold.name, mode=mode,
                         config_fingerprint=fingerprint, kept_channels=kept,
                         input_size=cfg.covariance.input_size,
                         cnn=cnn, lstm=lstm, dae=dae, ensemble=ensemble,
                         test_trial_ids=tuple(trial_ids[i] for i in fold.test),
                         dev_accuracy=0.0)
    if fold.dev:
        dev_pred = _bundle_proba(bundle, covs, fold.dev) >= 0.5
        bundle.dev_accuracy = float((dev_pred == labels[list(fold.dev)]).mean())
    return bundle


def task_labels(trials, task: Task) -> np.ndarray:
    """Each trial's label under ``task``, from its ``prompt``."""
    return np.array([derive_label(trial.prompt, task) for trial in trials], dtype=np.int64)


def fold_plan(trials, labels, plan: SplitPlan) -> list[tuple[Fold, str]]:
    """Every fold of ``plan`` over ``trials``, in fold order, with the reason
    it is not trained: the problem `metrics.label_problem` finds in its
    training labels, or "" when it trains."""
    return [(fold, metrics.label_problem(labels[list(fold.train)]))
            for fold in make_splits(trials, plan)]


def run_task(trials, task: Task, plan: SplitPlan, cfg: RunConfig, trial_ids):
    """Train and score every fold of one task, one fold at a time, in this
    process, keeping every bundle.

    ``trials`` are Recordings, whose CCV matrices `ccv_features` computes
    once.  `evaluate_bundles`' fold loop calls the training function with
    each fold in turn, and the fold is trained and scored then.  Returns
    (bundles by fold name, EvalReport).  Folds that `fold_plan` does not
    train are not trained; `evaluate_bundles` flags them as skipped, and
    raises TrainingError when every fold is.
    """
    covs = ccv_features(trials, cfg)
    labels = task_labels(trials, task)
    fingerprint = cfg.fingerprint()
    kept = {}

    def train(fold: Fold) -> ModelBundle:
        kept[fold.name] = train_fold(covs, labels, task, fold, cfg, plan.mode, fingerprint,
                                      trial_ids)
        return kept[fold.name]

    return kept, evaluate_bundles(trials, task, plan, cfg, train, trial_ids, covs)


def evaluate_bundles(trials, task: Task, plan: SplitPlan, cfg: RunConfig,
                     bundle_for, trial_ids, covs) -> EvalReport:
    """Score held-out trials with trained fold bundles and pool the folds.

    ``trials`` carry each trial's ``subject_id`` and ``prompt`` (the
    container's TrialRecords, or Recordings), and ``covs`` are their CCV
    matrices from `ccv_features`.  The split is recomputed from the plan
    seed.  ``bundle_for(fold)`` is called with each `Fold` that can be
    scored, once and in fold order, and returns its bundle, trained or
    loaded then, or None when there is none; the bundle is dropped before
    the next call.  DataError is raised for a bundle trained for another
    task or fold, for one whose stored test trials differ from its
    recomputed fold's (another seed or container), so no bundle ever scores
    a trial it was trained on, and for one that keeps channels the container
    lacks; another config's bundle raises ConfigError.  Folds that
    `fold_plan` does not train, and folds without a bundle, are flagged as
    skipped, the former with its reason; if every fold is skipped the task
    cannot be scored and a TrainingError is raised.
    """
    labels = task_labels(trials, task)
    fingerprint = cfg.fingerprint()
    folds, predictions = [], []
    for fold, reason in fold_plan(trials, labels, plan):
        bundle = None if reason else bundle_for(fold)
        if bundle is None:
            folds.append(FoldReport(name=fold.name, skipped=True,
                                    reason=reason or "no bundle for fold",
                                    n_train=len(fold.train), n_dev=len(fold.dev),
                                    n_test=len(fold.test)))
            continue
        if (bundle.task_id, bundle.fold_name) != (task.task_id, fold.name):
            raise DataError(f"task {task.task_id!r} fold {fold.name!r}: the bundle was "
                            f"trained for task {bundle.task_id!r} fold {bundle.fold_name!r}")
        if tuple(trial_ids[i] for i in fold.test) != bundle.test_trial_ids:
            raise DataError(
                f"task {task.task_id!r} fold {fold.name!r}: the bundle was trained for "
                f"other test trials than this split holds (different seed or container?)")
        if any(c >= covs[0].k for c in bundle.kept_channels):
            raise DataError(f"task {task.task_id!r} fold {fold.name!r}: the bundle keeps "
                            f"channels the container's {covs[0].k} do not include")
        if bundle.config_fingerprint != fingerprint:
            raise ConfigError(f"task {task.task_id!r} fold {fold.name!r}: the bundle was "
                              f"trained under another config fingerprint")
        report, fold_predictions = score_fold(bundle, fold, covs, labels, trials, trial_ids)
        del bundle  # before the next fold's bundle is trained or loaded
        folds.append(report)
        predictions.extend(fold_predictions)
    scored = [f for f in folds if not f.skipped]
    if not scored:
        raise TrainingError(
            f"task {task.task_id!r}: every fold was skipped ({folds[0].reason})")
    pooled = np.zeros((2, 2), dtype=np.int64)
    for f in scored:
        pooled += f.confusion
    kappa = metrics.cohen_kappa(pooled)
    return EvalReport(task_id=task.task_id, mode=plan.mode, seed=cfg.seed,
                      config_fingerprint=fingerprint, folds=folds, confusion=pooled,
                      accuracy=metrics.accuracy(pooled), kappa=kappa.value,
                      kappa_degenerate=kappa.degenerate, predictions=predictions)


def report_to_dict(report: EvalReport) -> dict:
    """JSON-ready dict with a fixed key order."""
    return {
        "task": report.task_id,
        "mode": report.mode,
        "seed": report.seed,
        "config_fingerprint": report.config_fingerprint,
        "accuracy": report.accuracy,
        "kappa": report.kappa,
        "kappa_degenerate": report.kappa_degenerate,
        "confusion": report.confusion.tolist(),
        "skipped_folds": report.skipped_folds,
        "folds": [{**dataclasses.asdict(f), "kept_channels": list(f.kept_channels),
                   "confusion": f.confusion.tolist()} for f in report.folds],
    }


def write_report_json(report: EvalReport, path: str | os.PathLike) -> None:
    write_json_atomic(path, report_to_dict(report))


def write_predictions_csv(report: EvalReport, path: str | os.PathLike) -> None:
    predictions = sorted(report.predictions, key=lambda p: p.index)
    write_csv_atomic(path, [["trial_id", "subject_id", "prompt", "task", "fold",
                             "truth", "prediction", "probability"],
                            *([p.trial_id, p.subject_id, p.prompt, report.task_id, p.fold,
                               p.truth, p.prediction, repr(p.probability)]
                              for p in predictions)])
