"""Architecture, training and feature-extraction tests for the three networks."""

import numpy as np
import pytest

from conftest import separable_matrices
from eegspeech import networks
from eegspeech import rng as rng_mod
from eegspeech.nn import LayerSpec, Network, infer_shapes, initial_state
from eegspeech.nn import ops
from test_optim import _ReferenceAdam


# ---------------------------------------------------------------------------
# width contract
# ---------------------------------------------------------------------------


def test_fusion_arithmetic():
    assert networks.CNN_PENULTIMATE == 128
    assert networks.LSTM_PENULTIMATE == 1024
    assert networks.FUSED_DIM == 1152
    assert networks.DAE_LATENT == 32


def test_cnn_penultimate_width():
    model = networks.build_cnn_model(8, seed=3)
    feat = model.penultimate(np.zeros((2, 8, 8)))
    assert feat.shape == (2, 128)


def test_lstm_penultimate_width():
    model = networks.build_lstm_model(8, seed=3)
    feat = model.penultimate(np.zeros((2, 8, 8)))
    assert feat.shape == (2, 1024)


def test_dae_latent_width():
    model = networks.build_dae_model(networks.FUSED_DIM, seed=3)
    code = networks.encode(model, np.zeros((2, networks.FUSED_DIM)))
    assert code.shape == (2, 32)


def test_cnn_width_deviation_fails_at_build(monkeypatch):
    bad = list(networks.CNN_SPECS)
    bad[9] = LayerSpec("dense", units=96)
    monkeypatch.setattr(networks, "CNN_SPECS", bad)
    with pytest.raises(ValueError, match="penultimate"):
        networks.build_cnn_model(8)


def test_lstm_width_deviation_fails_at_build(monkeypatch):
    bad = list(networks.LSTM_SPECS)
    bad[7] = LayerSpec("dense", units=999)
    monkeypatch.setattr(networks, "LSTM_SPECS", bad)
    with pytest.raises(ValueError, match="penultimate"):
        networks.build_lstm_model(8)


def test_dae_width_deviation_fails_at_build(monkeypatch):
    bad = networks.dae_specs(16)
    bad[6] = LayerSpec("dense", units=16)
    monkeypatch.setattr(networks, "dae_specs", lambda d: bad)
    with pytest.raises(ValueError, match="latent"):
        networks.build_dae_model(16)


@pytest.mark.parametrize("size", [6, 8])
@pytest.mark.parametrize("name", ["cnn", "lstm", "dae"])
def test_inferred_shapes_match_forward_outputs(name, size):
    # the width contract reads the inferred shapes, so they must be the real ones
    specs, shape, model = {
        "cnn": (networks.CNN_SPECS, (1, size, size), networks.build_cnn_model(size)),
        "lstm": (networks.LSTM_SPECS, (size, size), networks.build_lstm_model(size)),
        "dae": (networks.dae_specs(size), (size,), networks.build_dae_model(size)),
    }[name]
    x = np.random.default_rng(size).normal(size=(2, *shape))
    for i, inferred in enumerate(infer_shapes(specs, shape)):
        out = model.net.forward(x, train=False, stop=i)
        assert out.shape == (2, *inferred), i


def test_lstm_specs_without_last_step_fail_at_build(monkeypatch):
    # no layer is built that no spec names: the dense stack cannot read a sequence
    bare = [spec for spec in networks.LSTM_SPECS if spec.kind != "last_step"]
    monkeypatch.setattr(networks, "LSTM_SPECS", bare)
    with pytest.raises(ValueError, match="dense needs a flat input"):
        networks.build_lstm_model(8)


def test_cnn_rejects_too_small_input():
    # two valid 3x3 convolutions need at least a 5x5 matrix
    with pytest.raises(ValueError):
        networks.build_cnn_model(4)


# ---------------------------------------------------------------------------
# assembling a network from named arrays
# ---------------------------------------------------------------------------


ARCHITECTURES = {
    "cnn": (networks.CNN_SPECS, (1, 6, 6)),
    "lstm": (networks.LSTM_SPECS, (6, 6)),
    "dae": (networks.dae_specs(10), (10,)),
}


def _reference_draws(specs, input_shape, rng):
    # the per-layer draws as the layers made them before `initial_state`
    # existed: glorot for conv and dense weights, scaled uniform for LSTM
    # weights, in layer order; biases draw nothing
    state = {}
    in_shapes = [input_shape] + infer_shapes(specs, input_shape)
    for i, spec in enumerate(specs):
        shape = in_shapes[i]
        if spec.kind in ("conv2d", "dense"):
            if spec.kind == "conv2d":
                k = spec.kernel
                fan_in, fan_out = shape[0] * k * k, spec.filters * k * k
                w_shape = (spec.filters, shape[0], k, k)
            else:
                fan_in, fan_out, w_shape = shape[0], spec.units, (spec.units, shape[0])
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            state[f"layer{i:02d}.weights"] = rng.uniform(-limit, limit, size=w_shape)
            state[f"layer{i:02d}.bias"] = np.zeros(w_shape[0])
        elif spec.kind == "lstm":
            u, n = spec.units, shape[1]
            state[f"layer{i:02d}.wx"] = rng.uniform(-1, 1, size=(4 * u, n)) / np.sqrt(n)
            state[f"layer{i:02d}.wh"] = rng.uniform(-1, 1, size=(4 * u, u)) / np.sqrt(u)
            bias = np.zeros(4 * u)
            bias[u:2 * u] = 1.0
            state[f"layer{i:02d}.bias"] = bias
    return state


@pytest.mark.parametrize("name", sorted(ARCHITECTURES))
def test_initial_state_keeps_the_layer_by_layer_draws(name):
    specs, shape = ARCHITECTURES[name]
    got = initial_state(specs, shape, np.random.default_rng(4))
    want = _reference_draws(specs, shape, np.random.default_rng(4))
    assert list(got) == list(want)
    for key in want:
        assert got[key].tobytes() == want[key].tobytes(), key


@pytest.mark.parametrize("name", sorted(ARCHITECTURES))
def test_from_state_wraps_the_given_arrays(name):
    specs, shape = ARCHITECTURES[name]
    state = initial_state(specs, shape, np.random.default_rng(5))
    net = Network.from_state(specs, shape, state)
    params = net.parameters()
    assert [n for n, _ in params] == list(state)
    for key, tensor in params:
        assert tensor.data is state[key], key


def _misfits():
    specs, shape = ARCHITECTURES["cnn"]
    state = initial_state(specs, shape, np.random.default_rng(6))
    missing = dict(state)
    del missing["layer06.bias"]
    extra = {**state, "layer07.weights": np.zeros((2, 2))}
    wrong = {**state, "layer06.weights": state["layer06.weights"].T.copy()}
    return {"missing": (missing, "layer06.bias"), "extra": (extra, "layer07.weights"),
            "wrong-shape": (wrong, "layer06.weights")}


@pytest.mark.parametrize("kind", ["missing", "extra", "wrong-shape"])
def test_from_state_names_the_tensor_that_does_not_fit(kind):
    specs, shape = ARCHITECTURES["cnn"]
    state, name = _misfits()[kind]
    with pytest.raises(ValueError, match=name):
        Network.from_state(specs, shape, state)


# ---------------------------------------------------------------------------
# training behaviour
# ---------------------------------------------------------------------------


def _train_accuracy(model, x, y) -> float:
    preds = np.argmax(model.predict_proba(x), axis=1)
    return float(np.mean(preds == y))


def test_cnn_learns_separable_classes(trained_pair):
    cnn, _, x, y = trained_pair
    assert _train_accuracy(cnn, x, y) >= 0.95


def test_lstm_learns_separable_classes(trained_pair):
    _, lstm, x, y = trained_pair
    assert _train_accuracy(lstm, x, y) >= 0.90


def test_probabilities_are_normalised(trained_pair):
    cnn, lstm, x, _ = trained_pair
    for model in (cnn, lstm):
        p = model.predict_proba(x[:3])
        assert p.shape == (3, 2)
        assert np.all(p >= 0)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_zero_epochs_equals_fresh_build():
    gen = np.random.default_rng(5)
    x, y = separable_matrices(gen, 8, 6, 2.0)
    trained = networks.train_cnn(x, y, networks.NetworkHyper(epochs=0, batch_size=4), 42)
    fresh = networks.build_cnn_model(6, seed=42)
    a, b = trained.net.state_dict(), fresh.net.state_dict()
    assert set(a) == set(b)
    for key in a:
        assert np.array_equal(a[key], b[key]), key
    assert trained.trace == []


def test_training_is_deterministic():
    gen = np.random.default_rng(6)
    x, y = separable_matrices(gen, 12, 6, 2.0)
    hyper = networks.NetworkHyper(epochs=2, batch_size=4)
    first = networks.train_cnn(x, y, hyper, 9)
    second = networks.train_cnn(x, y, hyper, 9)
    for key, value in first.net.state_dict().items():
        assert np.array_equal(value, second.net.state_dict()[key]), key
    assert [(s.epoch, s.loss, s.accuracy) for s in first.trace] == \
           [(s.epoch, s.loss, s.accuracy) for s in second.trace]


@pytest.mark.parametrize("field,value", [("epochs", -1), ("batch_size", 0),
                                         ("learning_rate", 0.0)])
def test_network_hyper_validation(field, value):
    with pytest.raises(ValueError, match=field):
        networks.NetworkHyper(**{"epochs": 1, field: value})


def test_different_seeds_give_different_weights():
    a = networks.build_cnn_model(6, seed=1)
    b = networks.build_cnn_model(6, seed=2)
    assert not np.array_equal(a.net.state_dict()["layer00.weights"],
                              b.net.state_dict()["layer00.weights"])


def test_label_validation():
    gen = np.random.default_rng(7)
    x, _ = separable_matrices(gen, 8, 6, 1.0)
    hyper = networks.NetworkHyper(epochs=0, batch_size=4)
    with pytest.raises(ValueError, match="single-class"):
        networks.train_cnn(x, np.zeros(8, dtype=int), hyper, 0)
    with pytest.raises(ValueError, match="2 examples"):
        networks.train_cnn(x, np.array([1, 0, 0, 0, 0, 0, 0, 0]), hyper, 0)
    with pytest.raises(ValueError, match="binary"):
        networks.train_cnn(x, np.array([0, 1, 2, 0, 1, 0, 1, 0]), hyper, 0)
    with pytest.raises(ValueError, match="length"):
        networks.train_cnn(x, np.array([0, 1, 0, 1]), hyper, 0)


# ---------------------------------------------------------------------------
# the training loop against the accumulating loop it replaced
# ---------------------------------------------------------------------------


def _accumulating_fit(model, x, targets, hyper, seed, name):
    """The earlier ``_fit`` verbatim, with its ``zero_grad``, its
    ``Tensor.accumulate`` (inlined: each layer's fresh gradient is added into
    the zeroed buffer the tensor held) and the textbook Adam step."""
    net = model.net
    classify = targets.dtype.kind == "i"
    adam = _ReferenceAdam(net.parameters(), learning_rate=hyper.learning_rate)
    shuffle_rng = rng_mod.stream(seed, name, "shuffle")
    net.set_dropout_rng(rng_mod.stream(seed, name, "dropout"))
    n = len(x)
    for epoch in range(hyper.epochs):
        order = shuffle_rng.permutation(n)
        loss = 0.0
        hits = 0
        for start in range(0, n, hyper.batch_size):
            idx = order[start:start + hyper.batch_size]
            xb, tb = x[idx], targets[idx]
            out = net.forward(xb, train=True)
            net.zero_grad()
            buffers = [t.grad for _, t in net.parameters()]
            if classify:
                loss += ops.bce_loss_batch(out, tb) * len(idx)
                hits += int((out.argmax(axis=1) == tb).sum())
                net.backward(ops.cross_entropy_logit_grad(out, tb), start=len(net.layers) - 2)
            else:
                loss += ops.mse_loss(out, tb) * len(idx)
                net.backward(ops.mse_grad(out, tb))
            for buffer, (_, t) in zip(buffers, net.parameters()):
                buffer += t.grad
                t.grad = buffer
            adam.step()
        model.trace.append(networks.EpochStats(epoch, loss / n, hits / n))
    net.set_dropout_rng(None)


def _train_all_three():
    gen = np.random.default_rng(21)
    x, y = separable_matrices(gen, 12, 8, 2.0)
    hyper = networks.NetworkHyper(epochs=2, batch_size=5)  # three batches, the last short
    cnn = networks.train_cnn(x, y, hyper, 3)
    lstm = networks.train_lstm(x, y, hyper, 3)
    dae = networks.train_dae(gen.normal(size=(12, 40)), hyper, 3)
    return cnn, lstm, dae


def test_written_gradients_and_in_place_adam_match_the_accumulating_loop(monkeypatch):
    ours = _train_all_three()
    monkeypatch.setattr(networks, "_fit", _accumulating_fit)
    reference = _train_all_three()
    for name, a, b in zip(("cnn", "lstm", "dae"), ours, reference):
        sa, sb = a.net.state_dict(), b.net.state_dict()
        assert set(sa) == set(sb)
        for key in sa:
            assert sa[key].tobytes() == sb[key].tobytes(), f"{name}.{key}"
        assert [(s.loss, s.accuracy) for s in a.trace] == [(s.loss, s.accuracy) for s in b.trace]


def _arrays(value):
    """Every ndarray in a layer attribute: caches nest them in dicts, lists and tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)


@pytest.mark.parametrize("name", ["cnn", "lstm", "dae"])
def test_backward_writes_every_gradient_fresh(name):
    # Adam overwrites gradients in place, so each must be a fresh array that
    # one backward pass writes in full
    gen = np.random.default_rng(4)
    if name == "dae":
        model = networks.build_dae_model(40, seed=1)
        x = gen.normal(size=(5, 40))
    else:
        model = getattr(networks, f"build_{name}_model")(8, seed=1)
        x, y = separable_matrices(gen, 5, 8, 2.0)
    net = model.net
    params = net.parameters()
    for _, t in params:
        t.grad = np.full(t.shape, np.nan)
    net.set_dropout_rng(np.random.default_rng(5))
    out = net.forward(x.reshape(len(x), *model.input_shape), train=True)
    if name == "dae":
        net.backward(ops.mse_grad(out, x))
    else:
        net.backward(ops.cross_entropy_logit_grad(out, y), start=len(net.layers) - 2)
    # every layer a backward reached has released its cache, so no gradient
    # can alias one
    assert not [a for layer in net.layers for a in _arrays(vars(layer))]
    for i, (key, t) in enumerate(params):
        assert np.all(np.isfinite(t.grad)), key
        assert t.grad.shape == t.shape, key
        others = [u.data for _, u in params] + [u.grad for j, (_, u) in enumerate(params) if j != i]
        assert not any(np.shares_memory(t.grad, a) for a in others), key


def _step_gradients(model, x, targets):
    """One train-mode forward and backward with a fixed dropout stream, as
    ``_fit`` runs it; returns a copy of every gradient."""
    net = model.net
    net.set_dropout_rng(np.random.default_rng(8))
    out = net.forward(model.standardize(x), train=True)
    if targets.dtype.kind == "i":
        net.backward(ops.cross_entropy_logit_grad(out, targets), start=len(net.layers) - 2)
    else:
        net.backward(ops.mse_grad(out, targets))
    net.set_dropout_rng(None)
    return {key: t.grad.copy() for key, t in net.parameters()}


def test_trained_models_hold_no_activations():
    gen = np.random.default_rng(9)
    x, y = separable_matrices(gen, 6, 8, 2.0)
    hyper = networks.NetworkHyper(epochs=1, batch_size=4)
    features = gen.normal(size=(6, 40))
    dae = networks.train_dae(features, hyper, 2)
    cases = [(networks.train_cnn(x, y, hyper, 2), x, y),
             (networks.train_lstm(x, y, hyper, 2), x, y),
             (dae, features, dae.standardize(features))]
    for model, rows, targets in cases:
        assert not [a for layer in model.net.layers for a in _arrays(vars(layer))]
        # a released cache is never read again: a second step repeats the first
        first = _step_gradients(model, rows, targets)
        assert not [a for layer in model.net.layers for a in _arrays(vars(layer))]
        second = _step_gradients(model, rows, targets)
        for key, grad in first.items():
            assert grad.tobytes() == second[key].tobytes(), key


def test_trained_models_hold_no_gradients():
    # Adam releases each gradient it consumes, so a trained model keeps its
    # weights only
    gen = np.random.default_rng(10)
    x, y = separable_matrices(gen, 6, 8, 2.0)
    hyper = networks.NetworkHyper(epochs=1, batch_size=4)
    models = {"cnn": networks.train_cnn(x, y, hyper, 2),
              "lstm": networks.train_lstm(x, y, hyper, 2),
              "dae": networks.train_dae(gen.normal(size=(6, 40)), hyper, 2)}
    for name, model in models.items():
        held = [key for key, t in model.net.parameters() if t.grad is not None]
        assert not held, f"{name}: {held}"
        model.net.zero_grad()
        assert all(not t.grad.any() for _, t in model.net.parameters()), name


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------


def test_extract_fused_layout(trained_pair):
    cnn, lstm, x, _ = trained_pair
    fused = networks.extract_fused(cnn, lstm, x[:4])
    assert fused.shape == (4, networks.FUSED_DIM)
    assert np.array_equal(fused[:, :128], cnn.penultimate(x[:4]))
    assert np.array_equal(fused[:, 128:], lstm.penultimate(x[:4]))


def test_extract_fused_deterministic(trained_pair):
    cnn, lstm, x, _ = trained_pair
    assert np.array_equal(networks.extract_fused(cnn, lstm, x[3:4]),
                          networks.extract_fused(cnn, lstm, x[3:4]))


def test_extract_fused_rows_match_one_row_passes(monkeypatch, trained_pair):
    # chunked batches give each row the features a batch of one gives it
    cnn, lstm, x, _ = trained_pair
    monkeypatch.setattr(networks, "EVAL_CHUNK", 5)
    batched = networks.extract_fused(cnn, lstm, x[:12])
    single = np.concatenate([networks.extract_fused(cnn, lstm, x[i:i + 1]) for i in range(12)])
    assert np.allclose(batched, single, rtol=1e-12, atol=1e-12)


def test_eval_forward_caches_nothing(trained_pair):
    x = trained_pair[2]
    fresh = networks.build_cnn_model(8, seed=0)
    before = [dict(vars(layer)) for layer in fresh.net.layers]
    fresh.predict_proba(x[:2])
    fresh.penultimate(x[:2])
    for layer, state in zip(fresh.net.layers, before):
        for key, value in vars(layer).items():
            assert value is state[key], key


def test_fused_features_nonnegative(trained_pair):
    # both penultimate layers end in a relu
    cnn, lstm, x, _ = trained_pair
    fused = networks.extract_fused(cnn, lstm, x[5:6])
    assert np.all(fused >= 0)


# ---------------------------------------------------------------------------
# autoencoder
# ---------------------------------------------------------------------------


def _subspace_features(rng, n, dim, rank):
    basis = rng.normal(size=(rank, dim))
    coeff = rng.uniform(-1.0, 1.0, size=(n, rank))
    return coeff @ basis


def test_dae_compresses_low_rank_features():
    """Reconstruction error on rank-3 data must beat the predict-zero baseline."""
    gen = np.random.default_rng(31)
    feats = _subspace_features(gen, 64, 24, 3)
    hyper = networks.NetworkHyper(epochs=150, batch_size=16, learning_rate=0.003)
    dae = networks.train_dae(feats, hyper, 77)
    z = dae.standardize(feats)
    baseline = float(np.mean(z**2))
    mse = networks.reconstruction_mse(dae, feats)
    assert mse < 0.2 * baseline
    assert dae.trace[-1].loss < dae.trace[0].loss


def test_dae_constant_features_reconstruct_exactly():
    feats = np.tile(np.arange(12.0), (10, 1))
    dae = networks.train_dae(feats, networks.NetworkHyper(epochs=20, batch_size=5), 4)
    # constant columns standardise to zero, which tanh output can match
    assert np.array_equal(dae.standardize(feats), np.zeros_like(feats))
    assert networks.reconstruction_mse(dae, feats) < 0.01


def test_dae_standardization_uses_training_stats():
    gen = np.random.default_rng(8)
    feats = gen.normal(loc=5.0, scale=2.0, size=(20, 6))
    dae = networks.train_dae(feats, networks.NetworkHyper(epochs=0, batch_size=8), 0)
    z = dae.standardize(feats)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)


def test_encode_dimension_and_range(trained_pair):
    cnn, lstm, x, _ = trained_pair
    feats = networks.extract_fused(cnn, lstm, x[:8])
    dae = networks.train_dae(feats, networks.NetworkHyper(epochs=2, batch_size=4), 1)
    code = networks.encode(dae, feats)
    assert code.shape == (8, 32)
    assert np.all((code >= 0) & (code <= 1))  # sigmoid bottleneck


def test_encode_deterministic_and_input_sensitive():
    gen = np.random.default_rng(13)
    feats = gen.normal(size=(16, 20))
    dae = networks.train_dae(feats, networks.NetworkHyper(epochs=3, batch_size=8), 2)
    a = networks.encode(dae, feats[:1])
    b = networks.encode(dae, feats[:1])
    c = networks.encode(dae, feats[1:2])
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_zero_epoch_dae_matches_fresh_build():
    gen = np.random.default_rng(14)
    feats = gen.normal(size=(6, 10))
    trained = networks.train_dae(feats, networks.NetworkHyper(epochs=0, batch_size=4), 21)
    fresh = networks.build_dae_model(10, seed=21)
    for key, value in trained.net.state_dict().items():
        assert np.array_equal(value, fresh.net.state_dict()[key]), key


def test_dae_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        networks.train_dae(np.ones((1, 5)), networks.NetworkHyper(epochs=1), 0)
    with pytest.raises(ValueError):
        networks.train_dae(np.ones(5), networks.NetworkHyper(epochs=1), 0)


# ---------------------------------------------------------------------------
# training trace
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["cnn", "lstm", "dae"])
def test_trace_csv_round_trips(tmp_path, trained_pair, name):
    cnn, lstm, x, _ = trained_pair
    model = {"cnn": cnn, "lstm": lstm}.get(name) or networks.train_dae(
        networks.extract_fused(cnn, lstm, x), networks.NetworkHyper(epochs=3, batch_size=16), 5)
    path = tmp_path / "trace.csv"
    networks.write_trace_csv(path, model.trace)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,accuracy"
    assert len(lines) == 1 + len(model.trace) > 1
    for line, stats in zip(lines[1:], model.trace):
        epoch, loss, accuracy = line.split(",")
        assert int(epoch) == stats.epoch
        assert float(loss) == stats.loss  # repr() round-trips exactly
        assert float(accuracy) == stats.accuracy
        if name == "dae":  # the autoencoder has no classes to hit
            assert accuracy == "0.0"


@pytest.mark.parametrize("build", [networks.build_cnn_model, networks.build_lstm_model])
def test_branch_standardisation_is_the_exact_identity(build):
    model = build(6)
    special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -1.7976931348623157e308]
    rows = np.random.default_rng(3).normal(size=(3, 6, 6))
    rows.flat[:len(special)] = special
    got = model.standardize(rows)
    assert got.shape == (3, *model.input_shape)
    assert np.array_equal(got.reshape(rows.shape).view(np.uint64), rows.view(np.uint64))
