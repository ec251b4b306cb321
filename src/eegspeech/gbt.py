"""Gradient-boosted decision trees for binary classification.

Second-order boosting on the logistic loss: each round fits a regression tree
to the per-row gradient/hessian statistics of the current prediction, using
exact greedy splits over midpoint thresholds.  Split gain and leaf weights
follow the regularised objective

    gain = 1/2 * (GL^2/(HL+lam) + GR^2/(HR+lam) - (GL+GR)^2/(HL+HR+lam)) - gamma
    leaf = -G / (H + lam)

and a tree only splits while the gain is positive.  The split search sorts
each sampled column once and reads GL and HL off prefix sums down the sorted
rows, as in the exact greedy algorithm of Chen and Guestrin (KDD 2016).  A
zero denominator never divides: a candidate whose child has H + lam == 0 is
skipped, and such a leaf weighs 0.  Row subsampling and per-tree column
subsampling are seeded and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import metrics
from . import rng as rng_mod
from .bounds import check_bounds
from .nn.ops import sigmoid


@dataclass(frozen=True)
class GbtConfig:
    n_estimators: int = field(default=5000, metadata={"minimum": 0})
    max_depth: int = field(default=10, metadata={"minimum": 1})
    learning_rate: float = field(default=0.1, metadata={"exclusiveMinimum": 0})
    reg_lambda: float = field(default=0.3, metadata={"minimum": 0})
    gamma: float = field(default=0.0, metadata={"minimum": 0})
    subsample: float = field(default=0.8, metadata={"exclusiveMinimum": 0, "maximum": 1})
    colsample: float = field(default=0.4, metadata={"exclusiveMinimum": 0, "maximum": 1})
    min_child_weight: float = field(default=1.0, metadata={"minimum": 0})
    seed: int = 0

    def __post_init__(self):
        check_bounds(self)


@dataclass
class TreeNode:
    """One node; leaves have feature == -1 and carry a weight."""
    feature: int = -1
    threshold: float = 0.0
    weight: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass
class Tree:
    root: TreeNode

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Each row's leaf weight; all rows go down the tree together."""
        out = np.empty(len(x))
        columns = x.T
        stack = [(self.root, np.arange(len(x)))]
        while stack:
            node, idx = stack.pop()
            if node.is_leaf:
                out[idx] = node.weight
                continue
            left = columns[node.feature][idx] < node.threshold
            for child, rows in ((node.left, idx[left]), (node.right, idx[~left])):
                if len(rows):
                    stack.append((child, rows))
        return out

    def n_nodes(self) -> int:
        return len(self.to_rows())

    def to_rows(self) -> np.ndarray:
        """The nodes in pre-order as (feature, threshold, weight) rows."""
        rows, stack = [], [self.root]
        while stack:
            node = stack.pop()
            rows.append((node.feature, node.threshold, node.weight))
            if not node.is_leaf:
                stack += [node.right, node.left]
        return np.array(rows, dtype=np.float64)

    @classmethod
    def from_rows(cls, rows, n_features: int) -> "Tree":
        """Inverse of `to_rows`; rows that do not form one tree over features
        below ``n_features`` raise ValueError."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != 3 or len(rows) == 0:
            raise ValueError(f"tree rows must be a non-empty (n, 3) array, got {rows.shape}")
        col = rows[:, 0]
        if not np.all((col == -1) | ((col >= 0) & (col < n_features) & (col == np.floor(col)))):
            raise ValueError(f"tree rows hold a feature index outside -1..{n_features - 1}")
        # Read backwards, pre-order is a node after its right and left subtrees.
        stack = []
        for f, t, w in reversed(rows.tolist()):
            node = TreeNode(feature=int(f), threshold=t, weight=w)
            if not node.is_leaf:
                if len(stack) < 2:
                    raise ValueError("a split in the tree rows lacks a child")
                node.left, node.right = stack.pop(), stack.pop()
            stack.append(node)
        if len(stack) != 1:
            raise ValueError("the tree rows hold more than one tree")
        return cls(stack[0])


def grad_hess(probs: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row first and second derivatives of logistic loss wrt the score."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    return p - y, p * (1.0 - p)


def leaf_weight(g_sum: float, h_sum: float, reg_lambda: float) -> float:
    """-G / (H + lam), or 0.0 where H + lam is 0 (every hessian saturated)."""
    denominator = h_sum + reg_lambda
    return -g_sum / denominator if denominator != 0 else 0.0


def split_gain(gl: float, hl: float, gr: float, hr: float,
               reg_lambda: float, gamma: float) -> float:
    def score(g, h):
        return g * g / (h + reg_lambda)
    return 0.5 * (score(gl, hl) + score(gr, hr) - score(gl + gr, hl + hr)) - gamma


@dataclass
class _Split:
    feature: int
    threshold: float
    gain: float
    left_mask: np.ndarray


def best_split(x: np.ndarray, g: np.ndarray, h: np.ndarray, columns: np.ndarray,
               config: GbtConfig) -> _Split | None:
    """Exact greedy search over midpoint thresholds of the given columns.

    Each column is sorted once (stably), and GL and HL at every candidate are
    prefix sums down the sorted rows.  The sums run in row order, so they are
    the same floats a row-by-row loop accumulates, and the gain is
    `split_gain` on the arrays.  A candidate is skipped where its two rows
    hold equal values, where a child's hessian sum is below
    `min_child_weight`, or where a child's H + reg_lambda is 0.  Ties on gain
    resolve to the lowest feature index, then the lowest threshold, so the
    result does not depend on column order.
    """
    if len(x) < 2:
        return None
    features = np.sort(columns)
    xs = x[:, features]
    order = np.argsort(xs, axis=0, kind="stable")
    sv = np.take_along_axis(xs, order, axis=0)
    # Row i of gl/hl sums the i + 1 smallest rows: the split after sorted row i.
    gl = np.cumsum(g[order], axis=0)[:-1]
    hl = np.cumsum(h[order], axis=0)[:-1]
    gr = float(g.sum()) - gl
    hr = float(h.sum()) - hl
    lam = config.reg_lambda
    valid = ((sv[:-1] != sv[1:]) & (hl >= config.min_child_weight)
             & (hr >= config.min_child_weight) & (hl + lam != 0) & (hr + lam != 0))
    with np.errstate(divide="ignore", invalid="ignore"):  # only skipped candidates divide by 0
        gain = np.where(valid, split_gain(gl, hl, gr, hr, lam, config.gamma), -np.inf)
    # Column-major order visits features, then thresholds, in ascending order,
    # and argmax returns the first maximum.
    j, i = divmod(int(np.argmax(gain.T)), gain.shape[0])
    if not gain[i, j] > 0.0:
        return None
    threshold = 0.5 * (float(sv[i, j]) + float(sv[i + 1, j]))
    feature = int(features[j])
    return _Split(feature, threshold, float(gain[i, j]), x[:, feature] < threshold)


def _grow(x: np.ndarray, g: np.ndarray, h: np.ndarray, columns: np.ndarray,
          depth: int, config: GbtConfig) -> TreeNode:
    if depth >= config.max_depth or len(x) < 2:
        return TreeNode(weight=leaf_weight(float(g.sum()), float(h.sum()), config.reg_lambda))
    split = best_split(x, g, h, columns, config)
    if split is None:
        return TreeNode(weight=leaf_weight(float(g.sum()), float(h.sum()), config.reg_lambda))
    mask = split.left_mask
    return TreeNode(
        feature=split.feature,
        threshold=split.threshold,
        left=_grow(x[mask], g[mask], h[mask], columns, depth + 1, config),
        right=_grow(x[~mask], g[~mask], h[~mask], columns, depth + 1, config),
    )


@dataclass
class Ensemble:
    config: GbtConfig
    base_score: float
    trees: list[Tree] = field(default_factory=list)

    def raw_scores(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        scores = np.full(len(x), self.base_score)
        for tree in self.trees:
            scores += self.config.learning_rate * tree.predict(x)
        return scores

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return sigmoid(self.raw_scores(x))


def fit(x, y, config: GbtConfig) -> Ensemble:
    """Boost `config.n_estimators` trees on binary labels."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be 2-D (rows x features)")
    if y.shape != (len(x),):
        raise ValueError("y must be a flat vector matching x rows")
    problem = metrics.label_problem(y)
    if problem:
        raise ValueError(problem)
    n, n_features = x.shape
    prior = float(np.clip(y.mean(), 1e-12, 1 - 1e-12))
    base_score = float(np.log(prior / (1.0 - prior)))
    ensemble = Ensemble(config=config, base_score=base_score)
    scores = np.full(n, base_score)
    row_rng = rng_mod.stream(config.seed, "gbt", "rows")
    col_rng = rng_mod.stream(config.seed, "gbt", "cols")
    n_rows = max(1, int(round(config.subsample * n)))
    n_cols = max(1, int(round(config.colsample * n_features)))
    for _ in range(config.n_estimators):
        probs = sigmoid(scores)
        g, h = grad_hess(probs, y)
        if config.subsample < 1.0:
            rows = np.sort(row_rng.choice(n, size=n_rows, replace=False))
        else:
            rows = np.arange(n)
        if config.colsample < 1.0:
            cols = np.sort(col_rng.choice(n_features, size=n_cols, replace=False))
        else:
            cols = np.arange(n_features)
        tree = Tree(_grow(x[rows], g[rows], h[rows], cols, 0, config))
        ensemble.trees.append(tree)
        scores += config.learning_rate * tree.predict(x)
    return ensemble

