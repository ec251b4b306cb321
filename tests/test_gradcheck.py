"""Finite-difference verification of every analytic gradient path.

Each layer kind is checked on a spread of seeded random instances against
central differences.  Shapes are kept tiny because the checker perturbs
every scalar individually.
"""

import numpy as np
import pytest

from eegspeech.nn import ops
from eegspeech.nn.gradcheck import gradient_check
from eegspeech.nn.network import LayerSpec, build_network
from eegspeech.nn.tensor import Tensor

TOL = 1e-4
SEEDS = range(20)


def _project(out, r) -> float:
    return float(np.sum(out * r))


# ---------------------------------------------------------------------------
# single operations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_dense_gradients(seed):
    rng = np.random.default_rng(1000 + seed)
    x = Tensor(rng.normal(size=(3, 4)))
    w = Tensor(rng.normal(size=(5, 4)))
    b = Tensor(rng.normal(size=5))
    r = rng.normal(size=(3, 5))

    def loss():
        return _project(ops.dense_forward(x.data, w.data, b.data), r)

    dx, dw, db = ops.dense_backward(x.data, w.data, r)
    x.grad[...] = dx
    w.grad[...] = dw
    b.grad[...] = db
    assert gradient_check(loss, [x, w, b]) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_conv2d_gradients(seed):
    rng = np.random.default_rng(2000 + seed)
    x = Tensor(rng.normal(size=(2, 2, 5, 5)))
    w = Tensor(rng.normal(size=(3, 2, 3, 3)))
    b = Tensor(rng.normal(size=3))
    r = rng.normal(size=(2, 3, 3, 3))

    def loss():
        return _project(ops.conv2d_forward(x.data, w.data, b.data), r)

    dx, dw, db = ops.conv2d_backward(x.data, w.data, r)
    x.grad[...] = dx
    w.grad[...] = dw
    b.grad[...] = db
    assert gradient_check(loss, [x, w, b]) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_lstm_gradients(seed):
    """BPTT gradients for weights, biases, inputs and both initial states."""
    rng = np.random.default_rng(3000 + seed)
    units, inputs, steps, batch = 2, 3, 4, 2
    xs = Tensor(rng.normal(size=(batch, steps, inputs)))
    wx = Tensor(rng.normal(scale=0.5, size=(4 * units, inputs)))
    wh = Tensor(rng.normal(scale=0.5, size=(4 * units, units)))
    b = Tensor(rng.normal(scale=0.5, size=4 * units))
    h0 = Tensor(rng.normal(size=(batch, units)))
    c0 = Tensor(rng.normal(size=(batch, units)))
    r = rng.normal(size=(batch, steps, units))

    def loss():
        hs, _ = ops.lstm_forward(xs.data, wx.data, wh.data, b.data, h0.data, c0.data)
        return _project(hs, r)

    _, cache = ops.lstm_forward(xs.data, wx.data, wh.data, b.data, h0.data, c0.data)
    dxs, dwx, dwh, db, dh0, dc0 = ops.lstm_backward(cache, r)
    for tensor, grad in ((xs, dxs), (wx, dwx), (wh, dwh), (b, db), (h0, dh0), (c0, dc0)):
        tensor.grad[...] = grad
    assert gradient_check(loss, [xs, wx, wh, b, h0, c0]) < TOL


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ops.ACTIVATIONS)
def test_activation_gradients(kind, seed):
    rng = np.random.default_rng(4000 + seed)
    # keep magnitudes above the step size so relu's kink is never straddled
    x = Tensor(rng.uniform(0.1, 2.0, size=12) * rng.choice([-1.0, 1.0], size=12))
    r = rng.normal(size=12)

    def loss():
        return _project(ops.activation_forward(x.data, kind), r)

    out = ops.activation_forward(x.data, kind)
    x.grad[...] = ops.activation_backward(x.data, out, kind, r)
    assert gradient_check(loss, [x]) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_softmax_cross_entropy_gradients(seed):
    """The fused (probs - onehot)/batch gradient against finite differences."""
    rng = np.random.default_rng(5000 + seed)
    logits = Tensor(rng.normal(size=(4, 2)))
    targets = rng.integers(0, 2, size=4)

    def loss():
        probs = ops.softmax(logits.data)
        return ops.bce_loss_batch(probs, targets)

    probs = ops.softmax(logits.data)
    logits.grad[...] = ops.cross_entropy_logit_grad(probs, targets)
    assert gradient_check(loss, [logits]) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_softmax_backward_gradients(seed):
    """Unfused softmax jacobian-vector product, for non-loss uses."""
    rng = np.random.default_rng(5500 + seed)
    logits = Tensor(rng.normal(size=(3, 4)))
    r = rng.normal(size=(3, 4))

    def loss():
        return _project(ops.softmax(logits.data), r)

    probs = ops.softmax(logits.data)
    logits.grad[...] = ops.softmax_backward(probs, r)
    assert gradient_check(loss, [logits]) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_dropout_gradients_with_frozen_mask(seed):
    rng = np.random.default_rng(6000 + seed)
    x = Tensor(rng.normal(size=(4, 5)))
    rate = 0.25
    mask = rng.random(x.shape) >= rate
    r = rng.normal(size=x.shape)

    def loss():
        return _project(x.data * mask / (1.0 - rate), r)

    x.grad[...] = ops.dropout_backward(mask, rate, r)
    assert gradient_check(loss, [x]) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_mse_gradients(seed):
    rng = np.random.default_rng(7000 + seed)
    pred = Tensor(rng.normal(size=10))
    target = rng.normal(size=10)

    def loss():
        return ops.mse_loss(pred.data, target)

    pred.grad[...] = ops.mse_grad(pred.data, target)
    assert gradient_check(loss, [pred]) < TOL


# ---------------------------------------------------------------------------
# assembled stacks
# ---------------------------------------------------------------------------


def _check_stack(specs, input_shape, batch_input, loss_pair, seed):
    """Gradient-check every parameter of a built network.

    ``loss_pair`` maps the network output to (scalar loss, output gradient).
    """
    net = build_network(specs, input_shape, np.random.default_rng(seed))

    def loss():
        out = net.forward(batch_input)
        return loss_pair(out)[0]

    net.zero_grad()
    out = net.forward(batch_input)
    net.backward(loss_pair(out)[1])
    tensors = [t for _, t in net.parameters()]
    assert tensors, "stack under test has no parameters"
    assert gradient_check(loss, tensors) < TOL


@pytest.mark.parametrize("seed", range(5))
def test_small_conv_stack_gradients(seed):
    rng = np.random.default_rng(8000 + seed)
    x = rng.normal(size=(2, 1, 5, 5))
    targets = rng.integers(0, 2, size=2)
    specs = [
        LayerSpec("conv2d", filters=2, kernel=3),
        LayerSpec("activation", fn="relu"),
        LayerSpec("flatten"),
        LayerSpec("dense", units=3),
        LayerSpec("activation", fn="tanh"),
        LayerSpec("dense", units=2),
        LayerSpec("softmax"),
    ]

    def loss_pair(probs):
        return ops.bce_loss_batch(probs, targets), None

    net = build_network(specs, (1, 5, 5), np.random.default_rng(seed))

    def loss():
        return loss_pair(net.forward(x))[0]

    net.zero_grad()
    probs = net.forward(x)
    # backpropagate through the dense stack from the logits, skipping softmax
    net.backward(ops.cross_entropy_logit_grad(probs, targets), start=len(net.layers) - 2)
    assert gradient_check(loss, [t for _, t in net.parameters()]) < TOL


@pytest.mark.parametrize("seed", range(5))
def test_small_lstm_stack_gradients(seed):
    rng = np.random.default_rng(9000 + seed)
    x = rng.normal(size=(2, 3, 2))  # batch, steps, features
    r = rng.normal(size=(2, 2))
    specs = [
        LayerSpec("lstm", units=2),
        LayerSpec("last_step"),
        LayerSpec("dense", units=2),
        LayerSpec("activation", fn="tanh"),
    ]
    _check_stack(specs, (3, 2), x, lambda out: (_project(out, r), r), seed)


@pytest.mark.parametrize("seed", range(5))
def test_small_autoencoder_stack_gradients(seed):
    """A narrow encoder/decoder with the reconstruction loss end to end."""
    rng = np.random.default_rng(10_000 + seed)
    x = rng.normal(size=(3, 6))
    specs = [
        LayerSpec("dense", units=4),
        LayerSpec("activation", fn="relu"),
        LayerSpec("dense", units=2),
        LayerSpec("activation", fn="sigmoid"),
        LayerSpec("dense", units=4),
        LayerSpec("activation", fn="sigmoid"),
        LayerSpec("dense", units=6),
        LayerSpec("activation", fn="tanh"),
    ]
    _check_stack(specs, (6,), x,
                 lambda out: (ops.mse_loss(out, x), ops.mse_grad(out, x)), seed)


def test_gradient_check_flags_a_wrong_gradient():
    """The checker itself must fail loudly when handed a corrupted gradient."""
    rng = np.random.default_rng(99)
    x = Tensor(rng.normal(size=6))
    r = rng.normal(size=6)

    def loss():
        return _project(x.data * 2.0, r)

    x.grad[...] = 2.0 * r
    assert gradient_check(loss, [x]) < TOL
    x.grad[...] = 2.5 * r  # deliberately off by 25 percent
    assert gradient_check(loss, [x]) > 0.01
