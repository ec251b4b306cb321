"""Boosted-tree tests: split mathematics, a brute-force reference fit, the
row-by-row split search the array search replaced, batched prediction, and
the pre-order tree rows that bundles store."""

import warnings

import numpy as np
import pytest

from eegspeech import gbt


def _cfg(**kw):
    defaults = dict(n_estimators=5, max_depth=3, learning_rate=0.1,
                    reg_lambda=0.0, gamma=0.0, subsample=1.0, colsample=1.0,
                    min_child_weight=0.0, seed=0)
    defaults.update(kw)
    return gbt.GbtConfig(**defaults)


# ---------------------------------------------------------------------------
# derivatives, leaf weights and gains
# ---------------------------------------------------------------------------


def test_grad_hess_example():
    g, h = gbt.grad_hess(np.array([0.5]), np.array([1.0]))
    assert g[0] == -0.5
    assert h[0] == 0.25


def test_grad_hess_confident_correct():
    g, h = gbt.grad_hess(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert np.array_equal(g, [0.0, 0.0])
    assert np.array_equal(h, [0.0, 0.0])


def test_hessian_peaks_at_half():
    p = np.linspace(0.01, 0.99, 99)
    _, h = gbt.grad_hess(p, np.zeros_like(p))
    assert np.argmax(h) == 49
    assert h.max() == pytest.approx(0.25, abs=1e-4)


def test_leaf_weight_example():
    assert gbt.leaf_weight(2.0, 2.0, 0.3) == pytest.approx(-0.8696, abs=5e-5)


def test_leaf_weight_moves_against_gradient():
    assert gbt.leaf_weight(1.0, 1.0, 0.0) == -1.0
    assert gbt.leaf_weight(-3.0, 1.5, 0.5) == pytest.approx(1.5)


def test_leaf_weight_of_saturated_hessians_is_zero():
    # every row predicted with certainty: H = 0, and without lambda nothing divides
    assert gbt.leaf_weight(0.0, 0.0, 0.0) == 0.0
    assert gbt.leaf_weight(-2.0, 0.0, 0.0) == 0.0
    assert gbt.leaf_weight(-2.0, 0.0, 0.5) == 4.0


def test_split_gain_example():
    # four rows, g = (-1,-1,1,1), unit hessians, split in the middle
    assert gbt.split_gain(-2.0, 2.0, 2.0, 2.0, 0.0, 0.0) == pytest.approx(2.0)


def test_split_gain_gamma_penalty():
    base = gbt.split_gain(-2.0, 2.0, 2.0, 2.0, 0.0, 0.0)
    assert gbt.split_gain(-2.0, 2.0, 2.0, 2.0, 0.0, 0.75) == pytest.approx(base - 0.75)


def test_split_gain_vanishes_under_heavy_regularisation():
    assert gbt.split_gain(-2.0, 2.0, 2.0, 2.0, 1e9, 0.0) == pytest.approx(0.0, abs=1e-6)


# ---------------------------------------------------------------------------
# split search
# ---------------------------------------------------------------------------


def test_best_split_finds_the_boundary():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    g = np.array([-1.0, -1.0, 1.0, 1.0])
    h = np.ones(4)
    split = gbt.best_split(x, g, h, np.array([0]), _cfg())
    assert split is not None
    assert split.feature == 0
    assert split.threshold == 1.5
    assert split.gain == pytest.approx(2.0)
    assert np.array_equal(split.left_mask, [True, True, False, False])


def test_best_split_midpoint_thresholds():
    x = np.array([[0.0], [10.0]])
    split = gbt.best_split(x, np.array([-1.0, 1.0]), np.ones(2), np.array([0]), _cfg())
    assert split.threshold == 5.0


def test_best_split_constant_feature_returns_none():
    x = np.ones((6, 1))
    g = np.array([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
    assert gbt.best_split(x, g, np.ones(6), np.array([0]), _cfg()) is None


def test_best_split_rejects_nonpositive_gain():
    # uniform gradients: any split scores zero, which must not be taken
    x = np.arange(8.0)[:, None]
    g = np.ones(8)
    assert gbt.best_split(x, g, np.ones(8), np.array([0]), _cfg()) is None


def test_best_split_heavy_lambda_returns_none():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    g = np.array([-1.0, -1.0, 1.0, 1.0])
    cfg = _cfg(reg_lambda=1e12, gamma=1e-6)
    assert gbt.best_split(x, g, np.ones(4), np.array([0]), cfg) is None


def test_best_split_gamma_can_veto():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    g = np.array([-1.0, -1.0, 1.0, 1.0])
    assert gbt.best_split(x, g, np.ones(4), np.array([0]), _cfg(gamma=2.5)) is None


def test_best_split_min_child_weight_blocks_thin_children():
    x = np.arange(4.0)[:, None]
    g = np.array([-5.0, 1.0, 1.0, 1.0])
    h = np.ones(4)
    free = gbt.best_split(x, g, h, np.array([0]), _cfg(min_child_weight=0.0))
    assert free.threshold == 0.5  # isolates the outlier row
    heavy = gbt.best_split(x, g, h, np.array([0]), _cfg(min_child_weight=2.0))
    assert heavy.threshold == 1.5  # forced to keep two rows per side


def test_best_split_tie_breaks_to_lowest_feature():
    col = np.array([0.0, 1.0, 2.0, 3.0])
    x = np.column_stack([col, col])  # identical columns, identical gains
    g = np.array([-1.0, -1.0, 1.0, 1.0])
    split = gbt.best_split(x, g, np.ones(4), np.array([1, 0]), _cfg())
    assert split.feature == 0


def test_best_split_skips_children_with_zero_denominator():
    x = np.arange(4.0)[:, None]
    g = np.array([-1.0, -1.0, 1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gbt.best_split(x, g, np.zeros(4), np.array([0]), _cfg()) is None
        # only the split that leaves both hessian rows on the left has H > 0 on one side
        # and H = 0 on the other, so every candidate is skipped
        h = np.array([0.0, 0.5, 0.0, 0.0])
        assert gbt.best_split(x, g, h, np.array([0]), _cfg()) is None
        h = np.array([0.0, 0.5, 0.5, 0.0])
        split = gbt.best_split(x, g, h, np.array([0]), _cfg())
    assert split.threshold == 1.5


def test_best_split_tie_breaks_to_lowest_threshold():
    # symmetric gradients: splits at 0.5 and 2.5 tie, the lower one wins
    x = np.arange(4.0)[:, None]
    g = np.array([3.0, -1.0, -1.0, 3.0])
    split = gbt.best_split(x, g, np.ones(4), np.array([0]), _cfg())
    assert split.threshold == 0.5


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def test_fit_separates_one_dimensional_classes():
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.uniform(0, 1, 20), rng.uniform(2, 3, 20)])[:, None]
    y = np.array([0] * 20 + [1] * 20)
    model = gbt.fit(x, y, _cfg(n_estimators=50, learning_rate=0.3))
    assert np.array_equal(model.predict_proba(x) >= 0.5, y)


def test_fit_nonlinear_xor():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=(80, 2))
    y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(int)
    model = gbt.fit(x, y, _cfg(n_estimators=40, max_depth=3, learning_rate=0.4))
    assert ((model.predict_proba(x) >= 0.5) == y).mean() >= 0.95


def test_zero_estimators_predicts_prior():
    x = np.arange(8.0)[:, None]
    y = np.array([0, 0, 1, 1, 1, 1, 1, 1])
    model = gbt.fit(x, y, _cfg(n_estimators=0))
    assert model.trees == []
    assert np.allclose(model.predict_proba(x), 0.75, atol=1e-12)


def test_zero_estimators_balanced_prior_is_half():
    x = np.arange(4.0)[:, None]
    model = gbt.fit(x, np.array([0, 1, 0, 1]), _cfg(n_estimators=0))
    assert np.allclose(model.predict_proba(x), 0.5, atol=1e-12)


def test_fit_input_validation():
    x = np.arange(8.0)[:, None]
    with pytest.raises(ValueError, match="single-class"):
        gbt.fit(x, np.zeros(8), _cfg())
    with pytest.raises(ValueError, match="fewer than 2 training examples per class"):
        gbt.fit(x, np.array([1, 0, 0, 0, 0, 0, 0, 0]), _cfg())
    with pytest.raises(ValueError, match="binary"):
        gbt.fit(x, np.array([0, 1, 2, 0, 1, 0, 1, 2]), _cfg())
    with pytest.raises(ValueError, match="2-D"):
        gbt.fit(np.arange(8.0), np.array([0, 1] * 4), _cfg())
    with pytest.raises(ValueError, match="flat vector"):
        gbt.fit(x, np.array([0, 1] * 2), _cfg())


def test_config_domains():
    for kw in (dict(n_estimators=-1), dict(max_depth=0), dict(learning_rate=0.0),
               dict(reg_lambda=-0.1), dict(gamma=-1.0), dict(subsample=0.0),
               dict(subsample=1.5), dict(colsample=0.0), dict(min_child_weight=-1.0)):
        with pytest.raises(ValueError):
            gbt.GbtConfig(**kw)


def test_fit_deterministic_with_subsampling():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(60, 5))
    y = (x[:, 0] + 0.3 * x[:, 2] > 0).astype(int)
    cfg = _cfg(n_estimators=12, subsample=0.8, colsample=0.6, seed=99,
               min_child_weight=1.0, reg_lambda=0.3)
    a = gbt.fit(x, y, cfg)
    b = gbt.fit(x, y, cfg)
    assert _rows(a) == _rows(b)


def test_fit_seed_changes_subsampled_trees():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(60, 5))
    y = (x[:, 1] > 0).astype(int)
    a = gbt.fit(x, y, _cfg(n_estimators=8, subsample=0.5, colsample=0.6, seed=1))
    b = gbt.fit(x, y, _cfg(n_estimators=8, subsample=0.5, colsample=0.6, seed=2))
    assert _rows(a) != _rows(b)


def test_power_of_two_feature_scaling_is_bitwise_invariant():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(40, 3))
    y = (x[:, 0] > 0.2).astype(int)
    cfg = _cfg(n_estimators=10, max_depth=3)
    base = gbt.fit(x, y, cfg)
    scaled = gbt.fit(x * 4.0, y, cfg)
    assert np.array_equal(base.predict_proba(x), scaled.predict_proba(x * 4.0))


# ---------------------------------------------------------------------------
# hand-built ensembles
# ---------------------------------------------------------------------------


def test_zero_weight_tree_is_identity():
    cfg = _cfg(n_estimators=1)
    model = gbt.Ensemble(config=cfg, base_score=0.3,
                         trees=[gbt.Tree(gbt.TreeNode(weight=0.0))])
    assert np.allclose(model.raw_scores(np.zeros((4, 1))), 0.3, atol=0)


def test_hand_traced_two_tree_ensemble():
    stump1 = gbt.Tree(gbt.TreeNode(feature=0, threshold=1.0,
                                   left=gbt.TreeNode(weight=-2.0),
                                   right=gbt.TreeNode(weight=2.0)))
    stump2 = gbt.Tree(gbt.TreeNode(feature=1, threshold=0.0,
                                   left=gbt.TreeNode(weight=1.0),
                                   right=gbt.TreeNode(weight=-1.0)))
    model = gbt.Ensemble(config=_cfg(learning_rate=0.5), base_score=0.1,
                         trees=[stump1, stump2])
    x = np.array([[0.0, -1.0],  # left, left: 0.1 + 0.5*(-2 + 1) = -0.4
                  [2.0, 1.0]])  # right, right: 0.1 + 0.5*(2 - 1) = 0.6
    assert np.allclose(model.raw_scores(x), [-0.4, 0.6], atol=1e-15)


def test_predict_class_threshold():
    model = gbt.Ensemble(config=_cfg(), base_score=0.0, trees=[])
    # sigmoid(0) is exactly 0.5, which the pipeline's p >= 0.5 takes to class 1
    assert model.predict_proba(np.zeros((1, 1)))[0] == 0.5


# ---------------------------------------------------------------------------
# brute-force reference implementation
# ---------------------------------------------------------------------------


def _oracle_best_split(x, g, h, lam, gamma, min_cw):
    """Exhaustive scan over every feature and midpoint candidate.

    Left-side sums accumulate in feature-sorted row order and right-side sums
    are totals minus left.  That pins down which candidate wins when two
    partitions tie in exact arithmetic, making tree-for-tree comparison
    well defined; the search itself stays a naive per-candidate rescan.
    """
    g_total = float(g.sum())
    h_total = float(h.sum())
    best = None
    for feature in range(x.shape[1]):
        values = x[:, feature]
        order = np.argsort(values, kind="stable")
        uniq = np.unique(values)
        for lo, hi in zip(uniq[:-1], uniq[1:]):
            threshold = 0.5 * (float(lo) + float(hi))
            gl = hl = 0.0
            for i in order:
                if values[i] < threshold:
                    gl += float(g[i])
                    hl += float(h[i])
            hr = h_total - hl
            if hl < min_cw or hr < min_cw:
                continue
            gain = gbt.split_gain(gl, hl, g_total - gl, hr, lam, gamma)
            if best is None or gain > best[0]:
                best = (gain, feature, threshold, values < threshold)
    if best is None or best[0] <= 0.0:
        return None
    return best


def _oracle_grow(x, g, h, depth, cfg):
    if depth >= cfg.max_depth or len(x) < 2:
        return gbt.TreeNode(weight=gbt.leaf_weight(g.sum(), h.sum(), cfg.reg_lambda))
    found = _oracle_best_split(x, g, h, cfg.reg_lambda, cfg.gamma, cfg.min_child_weight)
    if found is None:
        return gbt.TreeNode(weight=gbt.leaf_weight(g.sum(), h.sum(), cfg.reg_lambda))
    _, feature, threshold, mask = found
    return gbt.TreeNode(feature=feature, threshold=threshold,
                        left=_oracle_grow(x[mask], g[mask], h[mask], depth + 1, cfg),
                        right=_oracle_grow(x[~mask], g[~mask], h[~mask], depth + 1, cfg))


def _stable_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _oracle_fit(x, y, cfg):
    prior = np.clip(y.mean(), 1e-12, 1 - 1e-12)
    base = float(np.log(prior / (1 - prior)))
    scores = np.full(len(x), base)
    trees = []
    for _ in range(cfg.n_estimators):
        probs = _stable_sigmoid(scores)
        g, h = probs - y, probs * (1 - probs)
        tree = gbt.Tree(_oracle_grow(x, g, h, 0, cfg))
        trees.append(tree)
        scores = scores + cfg.learning_rate * tree.predict(x)
    return base, trees, scores


def _assert_same_structure(a: gbt.TreeNode, b: gbt.TreeNode):
    assert a.is_leaf == b.is_leaf
    if a.is_leaf:
        assert a.weight == pytest.approx(b.weight, abs=1e-10)
    else:
        assert a.feature == b.feature
        assert a.threshold == b.threshold
        _assert_same_structure(a.left, b.left)
        _assert_same_structure(a.right, b.right)


@pytest.mark.parametrize("seed", range(10))
def test_fit_matches_brute_force_reference(seed):
    rng = np.random.default_rng(4000 + seed)
    n = int(rng.integers(10, 51))
    n_features = int(rng.integers(1, 5))
    x = np.round(rng.normal(size=(n, n_features)), 2)  # ties appear naturally
    y = (rng.random(n) < 0.5).astype(np.float64)
    if y.sum() < 2 or (1 - y).sum() < 2:
        y[:2] = 1.0
        y[2:4] = 0.0
    cfg = _cfg(n_estimators=3, max_depth=int(rng.integers(1, 4)),
               learning_rate=0.3, reg_lambda=float(rng.choice([0.0, 0.3, 1.0])))
    model = gbt.fit(x, y, cfg)
    base, trees, scores = _oracle_fit(x, y, cfg)
    assert model.base_score == pytest.approx(base, abs=1e-12)
    assert len(model.trees) == len(trees)
    for ours, ref in zip(model.trees, trees):
        _assert_same_structure(ours.root, ref.root)
    assert np.allclose(model.raw_scores(x), scores, atol=1e-10)


# ---------------------------------------------------------------------------
# the row-by-row split search that the array search replaced
# ---------------------------------------------------------------------------


def _loop_best_split(x, g, h, columns, config):
    """Exact greedy search over midpoint thresholds of the given columns.

    Ties on gain resolve to the lowest feature index, then the lowest
    threshold, so the result does not depend on column order.
    """
    g_total = float(g.sum())
    h_total = float(h.sum())
    best = None
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
            gain = gbt.split_gain(gl, hl, g_total - gl, hr, config.reg_lambda, config.gamma)
            threshold = 0.5 * (float(sv[i]) + float(sv[i + 1]))
            # Features and thresholds are visited in ascending order, so a
            # strict comparison keeps the lowest (feature, threshold) on ties.
            if best is None or gain > best.gain:
                best = gbt._Split(int(feature), threshold, gain, values < threshold)
    if best is None or best.gain <= 0.0:
        return None
    return best


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def _random_split_input(rng):
    """Rows with ties, constant columns, zero hessians and an unsorted column
    subset, plus a config whose min_child_weight may sit exactly on a prefix sum."""
    n = int(rng.integers(2, 41))
    n_features = int(rng.integers(1, 7))
    x = np.round(rng.normal(size=(n, n_features)), int(rng.integers(0, 3)))
    x[:, rng.random(n_features) < 0.15] = 1.25
    g = rng.normal(size=n)
    h = rng.uniform(0.0, 0.25, size=n)
    if rng.random() < 0.5:
        g = np.round(g, 1)
        h = np.round(h, 2)
    h[rng.random(n) < 0.2] = 0.0
    columns = rng.permutation(n_features)[:int(rng.integers(1, n_features + 1))]
    min_cw = float(rng.choice([0.0, 0.1, 1.0]))
    if rng.random() < 0.3:  # the edge: a child's hessian sum equals the bound exactly
        feature = int(rng.choice(columns))
        prefix = np.cumsum(h[np.argsort(x[:, feature], kind="stable")])
        min_cw = float(prefix[int(rng.integers(0, n))])
    cfg = _cfg(reg_lambda=float(rng.choice([0.0, 0.3, 1.0])), min_child_weight=min_cw,
               gamma=float(rng.choice([0.0, 0.01])))
    return x, g, h, columns, cfg


def test_best_split_matches_the_loop_bit_for_bit():
    rng = np.random.default_rng(2016)
    compared = found = 0
    for _ in range(2400):
        x, g, h, columns, cfg = _random_split_input(rng)
        try:
            expected = _loop_best_split(x, g, h, columns, cfg)
        except ZeroDivisionError:  # the loop divided by a zero H + lambda
            continue
        got = gbt.best_split(x, g, h, columns, cfg)
        compared += 1
        if expected is None:
            assert got is None
            continue
        found += 1
        assert got.feature == expected.feature
        assert _bits(got.threshold) == _bits(expected.threshold)
        assert _bits(got.gain) == _bits(expected.gain)
        assert np.array_equal(got.left_mask, expected.left_mask)
    assert compared >= 2000 and found >= 1000


def test_fit_grows_the_loops_trees(monkeypatch):
    rng = np.random.default_rng(32)
    x = rng.normal(size=(120, 32))
    y = (x[:, 0] + rng.normal(size=120) > 0).astype(np.float64)
    for cfg in (gbt.GbtConfig(n_estimators=4, max_depth=10),
                _cfg(n_estimators=4, max_depth=10, subsample=0.8, colsample=0.4)):
        ours = _rows(gbt.fit(x, y, cfg))
        with monkeypatch.context() as patch:
            patch.setattr(gbt, "best_split", _loop_best_split)
            loop = _rows(gbt.fit(x, y, cfg))
        assert ours == loop


def _walk(tree: gbt.Tree, row: np.ndarray) -> float:
    node = tree.root
    while not node.is_leaf:
        node = node.left if row[node.feature] < node.threshold else node.right
    return node.weight


def test_predict_equals_a_walk_per_row():
    rng = np.random.default_rng(33)
    x = np.round(rng.normal(size=(150, 6)), 1)  # rows on thresholds go right
    y = (x[:, 0] * x[:, 1] > 0).astype(np.float64)
    model = gbt.fit(x, y, _cfg(n_estimators=5, max_depth=6))
    probe = np.vstack([x, np.round(rng.normal(size=(40, 6)), 1)])
    for tree in model.trees:
        assert tree.predict(probe).tobytes() == \
            np.array([_walk(tree, row) for row in probe]).tobytes()
        assert tree.predict(probe[:0]).shape == (0,)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _rows(ensemble: gbt.Ensemble) -> list[bytes]:
    """Every tree's pre-order rows, as comparable bytes."""
    return [tree.to_rows().tobytes() for tree in ensemble.trees]


def test_serialization_round_trip():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(30, 4))
    y = (x[:, 0] > 0).astype(int)
    model = gbt.fit(x, y, _cfg(n_estimators=6, subsample=0.9, colsample=0.75, seed=17))
    for tree in model.trees:
        loaded = gbt.Tree.from_rows(tree.to_rows(), n_features=4)
        _assert_same_structure(loaded.root, tree.root)
        assert np.array_equal(loaded.to_rows(), tree.to_rows())
        assert np.array_equal(loaded.predict(x), tree.predict(x))


def test_tree_rows_are_pre_order():
    tree = gbt.Tree(gbt.TreeNode(feature=1, threshold=0.5,
                                 left=gbt.TreeNode(feature=0, threshold=-1.0,
                                                   left=gbt.TreeNode(weight=1.0),
                                                   right=gbt.TreeNode(weight=2.0)),
                                 right=gbt.TreeNode(weight=3.0)))
    assert tree.to_rows().tolist() == [[1, 0.5, 0.0], [0, -1.0, 0.0], [-1, 0.0, 1.0],
                                       [-1, 0.0, 2.0], [-1, 0.0, 3.0]]


def test_serialization_rejects_corrupt_blobs():
    x = np.arange(12.0).reshape(6, 2)
    y = np.array([0, 0, 0, 1, 1, 1])
    rows = gbt.fit(x, y, _cfg(n_estimators=1)).trees[0].to_rows()
    assert len(rows) > 1
    bad = {
        "truncated": rows[:-1],
        "trailing row": np.vstack([rows, [[-1, 0.0, 0.0]]]),
        "empty": rows[:0],
        "wrong width": rows[:, :2],
        "feature past the last column": np.vstack([[[2, 0.5, 0.0]], rows[1:]]),
        "fractional feature": np.vstack([[[0.5, 0.5, 0.0]], rows[1:]]),
        "feature below -1": np.vstack([[[-2, 0.5, 0.0]], rows[1:]]),
    }
    for value in bad.values():
        with pytest.raises(ValueError):
            gbt.Tree.from_rows(value, n_features=2)
