"""Agreement metrics and result summaries for binary classification runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def label_problem(labels) -> str:
    """Why ``labels`` cannot train a binary classifier, or "" when they are a
    flat 0/1 vector with at least 2 examples of each class.  The two
    class-count problems are the skip reasons a report gives for a fold."""
    y = np.asarray(labels)
    if y.ndim != 1:
        return "labels must be a flat vector"
    if not np.isin(y, (0, 1)).all():
        return "labels must be binary (0/1)"
    counts = np.bincount(y.astype(np.int64), minlength=2)
    if counts.min() == 0:
        return "single-class training labels"
    if counts.min() < 2:
        return "fewer than 2 training examples per class"
    return ""


def confusion_matrix(truth, predicted) -> np.ndarray:
    """2x2 counts indexed [truth][predicted]."""
    y = np.asarray(truth, dtype=np.int64)
    p = np.asarray(predicted, dtype=np.int64)
    if y.shape != p.shape or y.ndim != 1:
        raise ValueError("truth and predicted must be flat vectors of equal length")
    if len(y) == 0:
        raise ValueError("need at least one example")
    for arr, name in ((y, "truth"), (p, "predicted")):
        if not np.isin(arr, (0, 1)).all():
            raise ValueError(f"{name} labels must be 0/1")
    counts = np.zeros((2, 2), dtype=np.int64)
    np.add.at(counts, (y, p), 1)
    return counts


def accuracy(counts: np.ndarray) -> float:
    counts = np.asarray(counts)
    total = counts.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(counts) / total)


def chance_agreement(counts: np.ndarray) -> float:
    """Expected agreement from the marginal label frequencies."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    truth_marginal = counts.sum(axis=1) / total
    pred_marginal = counts.sum(axis=0) / total
    return float(np.dot(truth_marginal, pred_marginal))


@dataclass(frozen=True)
class KappaResult:
    value: float
    observed: float
    expected: float
    degenerate: bool


def cohen_kappa(counts: np.ndarray) -> KappaResult:
    """Chance-corrected agreement; degenerate marginals (expected agreement
    of exactly 1) yield value 0 with the flag set."""
    po = accuracy(counts)
    pe = chance_agreement(counts)
    if pe >= 1.0:
        return KappaResult(value=0.0, observed=po, expected=pe, degenerate=True)
    return KappaResult(value=(po - pe) / (1.0 - pe), observed=po, expected=pe,
                       degenerate=False)


@dataclass(frozen=True)
class Summary:
    mean: float
    std: float
    minimum: float
    maximum: float
    count: int


def summarize(values) -> Summary:
    """Mean and sample standard deviation (n-1 denominator) of a result list."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or len(arr) == 0:
        raise ValueError("need a non-empty flat list of values")
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return Summary(mean=float(arr.mean()), std=std,
                   minimum=float(arr.min()), maximum=float(arr.max()),
                   count=len(arr))


def improvement_over(results, baselines) -> np.ndarray:
    """Element-wise difference, result minus baseline, in the same units."""
    a = np.asarray(results, dtype=np.float64)
    b = np.asarray(baselines, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("results and baselines must be flat vectors of equal length")
    return a - b
