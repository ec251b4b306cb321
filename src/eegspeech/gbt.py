"""Gradient-boosted decision trees for binary classification.

Second-order boosting on the logistic loss: each round fits a regression tree
to the per-row gradient/hessian statistics of the current prediction, using
exact greedy splits over midpoint thresholds.  Split gain and leaf weights
follow the regularised objective

    gain = 1/2 * (GL^2/(HL+lam) + GR^2/(HR+lam) - (GL+GR)^2/(HL+HR+lam)) - gamma
    leaf = -G / (H + lam)

and a tree only splits while the gain is positive.  Row subsampling and
per-tree column subsampling are seeded and reproducible.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field

import numpy as np

from . import rng as rng_mod
from .nn.ops import sigmoid

_MAGIC = b"GBT1"


@dataclass(frozen=True)
class GbtConfig:
    n_estimators: int = 5000
    max_depth: int = 10
    learning_rate: float = 0.1
    reg_lambda: float = 0.3
    gamma: float = 0.0
    subsample: float = 0.8
    colsample: float = 0.4
    min_child_weight: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_estimators < 0:
            raise ValueError("n_estimators must be >= 0")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.reg_lambda < 0:
            raise ValueError("reg_lambda must be >= 0")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if not 0 < self.subsample <= 1:
            raise ValueError("subsample must be in (0, 1]")
        if not 0 < self.colsample <= 1:
            raise ValueError("colsample must be in (0, 1]")
        if self.min_child_weight < 0:
            raise ValueError("min_child_weight must be >= 0")


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

    def predict_one(self, x: np.ndarray) -> float:
        node = self.root
        while not node.is_leaf:
            node = node.left if x[node.feature] < node.threshold else node.right
        return node.weight

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.array([self.predict_one(row) for row in x])

    def n_nodes(self) -> int:
        def count(node):
            if node.is_leaf:
                return 1
            return 1 + count(node.left) + count(node.right)
        return count(self.root)


def grad_hess(probs: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row first and second derivatives of logistic loss wrt the score."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    return p - y, p * (1.0 - p)


def leaf_weight(g_sum: float, h_sum: float, reg_lambda: float) -> float:
    return -g_sum / (h_sum + reg_lambda)


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

    Ties on gain resolve to the lowest feature index, then the lowest
    threshold, so the result does not depend on column order.
    """
    g_total = float(g.sum())
    h_total = float(h.sum())
    best: _Split | None = None
    for feature in np.sort(columns):
        values = x[:, feature]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        sg = g[order]
        sh = h[order]
        gl = 0.0
        hl = 0.0
        for i in range(len(sv) - 1):
            gl += float(sg[i])
            hl += float(sh[i])
            if sv[i] == sv[i + 1]:
                continue
            hr = h_total - hl
            if hl < config.min_child_weight or hr < config.min_child_weight:
                continue
            gain = split_gain(gl, hl, g_total - gl, hr, config.reg_lambda, config.gamma)
            threshold = 0.5 * (float(sv[i]) + float(sv[i + 1]))
            # Features and thresholds are visited in ascending order, so a
            # strict comparison keeps the lowest (feature, threshold) on ties.
            if best is None or gain > best.gain:
                best = _Split(int(feature), threshold, gain, values < threshold)
    if best is None or best.gain <= 0.0:
        return None
    return best


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
    n_features: int = 0

    def raw_scores(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        scores = np.full(len(x), self.base_score)
        for tree in self.trees:
            scores += self.config.learning_rate * tree.predict(x)
        return scores

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return sigmoid(self.raw_scores(x))

    def predict_class(self, x: np.ndarray) -> np.ndarray:
        return (self.predict_proba(x) >= 0.5).astype(np.int64)


def fit(x, y, config: GbtConfig) -> Ensemble:
    """Boost `config.n_estimators` trees on binary labels."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be 2-D (rows x features)")
    if y.shape != (len(x),):
        raise ValueError("y must be a flat vector matching x rows")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("labels must be binary (0/1)")
    counts = np.bincount(y.astype(np.int64), minlength=2)
    if counts.min() == 0:
        raise ValueError("single-class labels: both classes must be present")
    if counts.min() < 2:
        raise ValueError("need at least 2 examples per class")
    n, n_features = x.shape
    prior = float(np.clip(y.mean(), 1e-12, 1 - 1e-12))
    base_score = float(np.log(prior / (1.0 - prior)))
    ensemble = Ensemble(config=config, base_score=base_score, n_features=n_features)
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


def _write_node(buf: io.BytesIO, node: TreeNode) -> None:
    if node.is_leaf:
        buf.write(struct.pack("<b", 0))
        buf.write(struct.pack("<d", node.weight))
    else:
        buf.write(struct.pack("<b", 1))
        buf.write(struct.pack("<id", node.feature, node.threshold))
        _write_node(buf, node.left)
        _write_node(buf, node.right)


def _read_node(buf: io.BytesIO) -> TreeNode:
    (tag,) = struct.unpack("<b", buf.read(1))
    if tag == 0:
        (weight,) = struct.unpack("<d", buf.read(8))
        return TreeNode(weight=weight)
    feature, threshold = struct.unpack("<id", buf.read(12))
    left = _read_node(buf)
    right = _read_node(buf)
    return TreeNode(feature=feature, threshold=threshold, left=left, right=right)


def ensemble_to_bytes(ensemble: Ensemble) -> bytes:
    buf = io.BytesIO()
    buf.write(_MAGIC)
    c = ensemble.config
    buf.write(struct.pack("<iidddddddQ", c.n_estimators, c.max_depth, c.learning_rate,
                          c.reg_lambda, c.gamma, c.subsample, c.colsample,
                          c.min_child_weight, ensemble.base_score, c.seed))
    buf.write(struct.pack("<ii", ensemble.n_features, len(ensemble.trees)))
    for tree in ensemble.trees:
        _write_node(buf, tree.root)
    return buf.getvalue()


def ensemble_from_bytes(data: bytes) -> Ensemble:
    buf = io.BytesIO(data)
    if buf.read(4) != _MAGIC:
        raise ValueError("not a tree-ensemble blob")
    (n_estimators, max_depth, learning_rate, reg_lambda, gamma, subsample,
     colsample, min_child_weight, base_score, seed) = struct.unpack(
        "<iidddddddQ", buf.read(struct.calcsize("<iidddddddQ")))
    config = GbtConfig(n_estimators=n_estimators, max_depth=max_depth,
                       learning_rate=learning_rate, reg_lambda=reg_lambda,
                       gamma=gamma, subsample=subsample, colsample=colsample,
                       min_child_weight=min_child_weight, seed=int(seed))
    n_features, n_trees = struct.unpack("<ii", buf.read(8))
    trees = [Tree(_read_node(buf)) for _ in range(n_trees)]
    if buf.read(1):
        raise ValueError("trailing bytes after ensemble")
    return Ensemble(config=config, base_score=base_score, trees=trees,
                    n_features=n_features)
