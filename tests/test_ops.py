"""Closed-form checks for the individual network operations."""

import numpy as np
import pytest

from eegspeech.nn import Activation, ops
from eegspeech.nn.optim import Adam
from eegspeech.nn.tensor import Tensor


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def test_relu_example():
    out = ops.relu(np.array([-1.0, 2.0]))
    assert np.array_equal(out, [0.0, 2.0])


def test_relu_preserves_positive_part():
    x = np.linspace(-3, 3, 13)
    out = ops.relu(x)
    assert np.all(out[x <= 0] == 0.0)
    assert np.array_equal(out[x > 0], x[x > 0])


def test_sigmoid_symmetry():
    x = np.array([-5.0, -1.0, 0.0, 1.0, 5.0])
    s = ops.sigmoid(x)
    assert s[2] == pytest.approx(0.5)
    assert np.allclose(s + ops.sigmoid(-x), 1.0, atol=1e-15)


def test_activation_forward_kinds():
    x = np.array([-0.5, 0.0, 0.5])
    assert np.array_equal(ops.activation_forward(x, "relu"), ops.relu(x))
    assert np.allclose(ops.activation_forward(x, "tanh"), np.tanh(x))
    assert np.allclose(ops.activation_forward(x, "sigmoid"), ops.sigmoid(x))
    with pytest.raises(ValueError):
        ops.activation_forward(x, "softplus")


def test_activation_backward_matches_derivative():
    rng = np.random.default_rng(7)
    x = rng.normal(size=20)
    grad = rng.normal(size=20)
    for kind in ops.ACTIVATIONS:
        out = ops.activation_forward(x, kind)
        got = ops.activation_backward(x, out, kind, grad)
        if kind == "relu":
            expect = grad * (x > 0)
        elif kind == "sigmoid":
            expect = grad * out * (1.0 - out)
        else:
            expect = grad * (1.0 - out**2)
        assert np.allclose(got, expect, atol=1e-12)


def _edge_values(rng, n):
    """Signed zeros, infinities, values where exp over- or underflows,
    subnormals, then ``n`` normal draws at two scales."""
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 800.0, -800.0, 710.0, -710.0,
             tiny, -tiny, 1e-310, -1e-310]
    draws = [rng.normal(size=n // 2), rng.normal(scale=30.0, size=n - n // 2)]
    return np.concatenate([edges, *draws])


def _sigmoid_split_by_sign(x):
    """The earlier ``ops.sigmoid`` verbatim: two boolean masks and fancy indexing."""
    # split by sign to avoid overflow in exp
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_is_bit_identical_to_the_split_by_sign_form():
    rng = np.random.default_rng(12)
    gates = rng.normal(scale=5.0, size=(64, 1024))[:, 256:512]  # an LSTM gate's column slice
    for x in (_edge_values(rng, 800_000), gates):
        got, expect = ops.sigmoid(x), _sigmoid_split_by_sign(x)
        assert np.array_equal(got.view(np.int64), expect.view(np.int64))
    assert np.isnan(ops.sigmoid(np.array([np.nan, -np.nan]))).all()


def _activation_backward_from_input(x, out, kind, grad):
    """The earlier ``ops.activation_backward`` verbatim: relu reads its input."""
    if kind == "relu":
        return grad * (x > 0)
    if kind == "sigmoid":
        return grad * out * (1.0 - out)
    if kind == "tanh":
        return grad * (1.0 - out * out)
    raise ValueError(f"unknown activation {kind!r}")


@pytest.mark.parametrize("kind", ops.ACTIVATIONS)
def test_activation_layer_backward_matches_the_input_form(kind):
    # the layer keeps only its output; relu's out > 0 must be x > 0 bit for bit
    rng = np.random.default_rng(13)
    x = np.concatenate([_edge_values(rng, 2000), [np.nan, -np.nan]])
    grad = rng.normal(size=x.shape)
    layer = Activation(kind)
    layer.forward(x, train=True)
    got = layer.backward(grad)
    expect = _activation_backward_from_input(x, ops.activation_forward(x, kind), kind, grad)
    assert got.tobytes() == expect.tobytes()


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def test_softmax_uniform_on_equal_logits():
    p = ops.softmax(np.array([[0.0, 0.0]]))
    assert np.allclose(p, [[0.5, 0.5]], atol=1e-15)


def test_softmax_shift_invariance():
    logits = np.array([[1.0, -2.0, 0.5], [3.0, 3.0, -1.0]])
    p1 = ops.softmax(logits)
    p2 = ops.softmax(logits + 123.456)
    assert np.allclose(p1, p2, atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    logits = rng.normal(scale=10.0, size=(6, 4))
    p = ops.softmax(logits)
    assert np.all(p > 0)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_extreme_logits_stable():
    p = ops.softmax(np.array([[1000.0, 0.0], [-1000.0, 0.0]]))
    assert np.all(np.isfinite(p))
    assert p[0, 0] == pytest.approx(1.0)
    assert p[1, 1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------


def test_dense_identity_weights():
    x = np.array([[2.0, -3.0]])
    w = np.eye(2)
    b = np.zeros(2)
    assert np.array_equal(ops.dense_forward(x, w, b), x)


def test_dense_zero_weights_gives_bias():
    x = np.ones((4, 3))
    w = np.zeros((5, 3))
    b = np.arange(5.0)
    out = ops.dense_forward(x, w, b)
    assert np.array_equal(out, np.tile(b, (4, 1)))


def test_dense_worked_example():
    # [1, 2] through rows (1,1) and (1,-1) with bias (0, 1): (3, -1+1) = (3, 0)
    x = np.array([[1.0, 2.0]])
    w = np.array([[1.0, 1.0], [1.0, -1.0]])
    b = np.array([0.0, 1.0])
    out = ops.dense_forward(x, w, b)
    assert np.array_equal(out, [[3.0, 0.0]])


def test_dense_backward_shapes_and_bias():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(5, 3))
    w = rng.normal(size=(4, 3))
    grad = rng.normal(size=(5, 4))
    dx, dw, db = ops.dense_backward(x, w, grad)
    assert dx.shape == x.shape
    assert dw.shape == w.shape
    assert np.allclose(db, grad.sum(axis=0))
    assert np.allclose(dx, grad @ w)
    assert np.allclose(dw, grad.T @ x)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def test_conv_delta_kernel_picks_center():
    x = np.arange(25.0).reshape(1, 5, 5)
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    out = ops.conv2d_forward(x[None], w, np.zeros(1))
    assert out.shape == (1, 1, 3, 3)
    assert np.array_equal(out[0, 0], x[0, 1:4, 1:4])


def test_conv_constant_input_sums_kernel():
    c, bias = 2.5, -1.0
    x = np.full((1, 6, 6), c)
    w = np.ones((1, 1, 3, 3))
    out = ops.conv2d_forward(x[None], w, np.array([bias]))
    assert out.shape == (1, 1, 4, 4)
    assert np.allclose(out, 9 * c + bias, atol=1e-12)


def test_conv_zero_weights_gives_bias():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 8, 8))
    w = np.zeros((4, 3, 3, 3))
    b = rng.normal(size=4)
    out = ops.conv2d_forward(x, w, b)
    assert out.shape == (2, 4, 6, 6)
    assert np.allclose(out, b[None, :, None, None], atol=0)


def test_conv_output_shape_valid_mode():
    x = np.zeros((1, 2, 10, 7))
    w = np.zeros((5, 2, 3, 3))
    out = ops.conv2d_forward(x, w, np.zeros(5))
    assert out.shape == (1, 5, 8, 5)


def test_conv_channel_mismatch_raises():
    x = np.zeros((1, 2, 5, 5))
    w = np.zeros((3, 4, 3, 3))
    with pytest.raises(ValueError):
        ops.conv2d_forward(x, w, np.zeros(3))


def test_conv_kernel_larger_than_input_raises():
    x = np.zeros((1, 1, 2, 2))
    w = np.zeros((1, 1, 3, 3))
    with pytest.raises(ValueError):
        ops.conv2d_forward(x, w, np.zeros(1))


def test_conv_matches_direct_sum():
    """Cross-check one output element against an explicit triple loop."""
    rng = np.random.default_rng(21)
    x = rng.normal(size=(1, 2, 6, 6))
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    out = ops.conv2d_forward(x, w, b)
    i, j, f = 2, 1, 1
    acc = b[f]
    for ch in range(2):
        for di in range(3):
            for dj in range(3):
                acc += x[0, ch, i + di, j + dj] * w[f, ch, di, dj]
    assert out[0, f, i, j] == pytest.approx(acc, rel=1e-12)


def _einsum_conv(x, w, b, grad):
    """Oracle: the einsum contractions the im2col kernels replaced."""
    kh, kw = w.shape[2:]
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    out = np.einsum("bchwij,ocij->bohw", win, w) + b[:, None, None]
    dw = np.einsum("bcuvij,bouv->ocij", win, grad)
    padded = np.pad(grad, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
    pwin = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(2, 3))
    dx = np.einsum("bohwij,ocij->bchw", pwin, w[:, :, ::-1, ::-1])
    return out, dx, dw, grad.sum(axis=(0, 2, 3))


@pytest.mark.parametrize("kernel", [(1, 1), (2, 2), (3, 3), (5, 5), (2, 5)])
@pytest.mark.parametrize("batch, c_in", [(1, 1), (1, 3), (4, 1), (3, 2)])
def test_conv_matches_einsum_oracle(kernel, batch, c_in):
    rng = np.random.default_rng(100 * batch + 10 * c_in + kernel[0])
    x = rng.normal(size=(batch, c_in, 9, 7))
    w = rng.normal(size=(4, c_in, *kernel))
    b = rng.normal(size=4)
    grad = rng.normal(size=(batch, 4, 10 - kernel[0], 8 - kernel[1]))
    out = ops.conv2d_forward(x, w, b)
    dx, dw, db = ops.conv2d_backward(x, w, grad)
    got = (out, dx, dw, db)
    for name, have, want in zip(("out", "dx", "dw", "db"), got, _einsum_conv(x, w, b, grad)):
        assert have.shape == want.shape, name
        assert have.dtype == np.float64 and have.flags.c_contiguous, name
        assert np.max(np.abs(have - want)) <= 1e-10, name
    again = (ops.conv2d_forward(x, w, b), *ops.conv2d_backward(x, w, grad))
    for have, second in zip(got, again):
        assert np.array_equal(have, second)


# ---------------------------------------------------------------------------
# lstm
# ---------------------------------------------------------------------------


def test_lstm_zero_weights_carry_half_cell():
    """With all-zero parameters every gate sits at its bias point.

    Input and forget gates are sigmoid(0) = 0.5 and the candidate is
    tanh(0) = 0, so one step maps cell state c to 0.5 c and emits
    0.5 * tanh(0.5 c).
    """
    units, inputs = 3, 2
    wx = np.zeros((4 * units, inputs))
    wh = np.zeros((4 * units, units))
    b = np.zeros(4 * units)
    c0 = np.array([[1.0, -2.0, 0.5]])
    h0 = np.zeros((1, units))
    xs = np.ones((1, 1, inputs))
    hs, _ = ops.lstm_forward(xs, wx, wh, b, h0, c0)
    expect = 0.5 * np.tanh(0.5 * c0)
    assert np.allclose(hs[:, 0], expect, atol=1e-12)


def test_lstm_all_zero_state_stays_zero():
    units, inputs, steps = 4, 3, 5
    wx = np.zeros((4 * units, inputs))
    wh = np.zeros((4 * units, units))
    b = np.zeros(4 * units)
    xs = np.zeros((2, steps, inputs))
    hs, _ = ops.lstm_forward(xs, wx, wh, b, np.zeros((2, units)), np.zeros((2, units)))
    assert np.array_equal(hs, np.zeros((2, steps, units)))


def test_lstm_single_step_matches_manual_cell():
    rng = np.random.default_rng(5)
    units, inputs = 3, 2
    wx = rng.normal(scale=0.3, size=(4 * units, inputs))
    wh = rng.normal(scale=0.3, size=(4 * units, units))
    b = rng.normal(scale=0.3, size=4 * units)
    x = rng.normal(size=(1, 1, inputs))
    h0 = rng.normal(size=(1, units))
    c0 = rng.normal(size=(1, units))

    z = x[0, 0] @ wx.T + h0[0] @ wh.T + b
    gi = ops.sigmoid(z[:units])
    gf = ops.sigmoid(z[units:2 * units])
    gc = np.tanh(z[2 * units:3 * units])
    go = ops.sigmoid(z[3 * units:])
    c1 = gf * c0[0] + gi * gc
    h1 = go * np.tanh(c1)

    hs, _ = ops.lstm_forward(x, wx, wh, b, h0, c0)
    assert np.allclose(hs[0, 0], h1, atol=1e-12)


def test_lstm_weight_shape_mismatch_raises():
    with pytest.raises(ValueError):
        ops.lstm_forward(np.zeros((1, 2, 3)), np.zeros((8, 3)), np.zeros((8, 3)),
                         np.zeros(8), np.zeros((1, 2)), np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


def test_dropout_eval_mode_is_identity():
    x = np.arange(12.0).reshape(3, 4)
    out, mask = ops.dropout_forward(x, 0.5, train=False, rng=None)
    assert np.array_equal(out, x)
    assert mask is None
    # with no mask, backward is a pass-through too
    assert np.array_equal(ops.dropout_backward(mask, 0.5, x), x)


def test_dropout_rate_zero_is_identity():
    x = np.arange(6.0)
    out, _ = ops.dropout_forward(x, 0.0, train=True, rng=np.random.default_rng(0))
    assert np.array_equal(out, x)


def test_dropout_training_needs_rng():
    with pytest.raises(ValueError):
        ops.dropout_forward(np.ones(4), 0.5, train=True, rng=None)


def test_dropout_survivor_fraction_and_scaling():
    rng = np.random.default_rng(2024)
    x = np.ones(100_000)
    out, mask = ops.dropout_forward(x, 0.5, train=True, rng=rng)
    kept = np.count_nonzero(out)
    assert 0.49 <= kept / x.size <= 0.51
    # inverted scaling: survivors are 1 / (1 - rate) = 2
    assert np.array_equal(np.unique(out), [0.0, 2.0])
    assert abs(out.mean() - 1.0) <= 0.02
    assert np.array_equal(out, x * mask / 0.5)


def test_dropout_backward_uses_same_mask():
    rng = np.random.default_rng(17)
    x = np.ones((8, 8))
    out, mask = ops.dropout_forward(x, 0.25, train=True, rng=rng)
    grad = np.full_like(x, 3.0)
    dx = ops.dropout_backward(mask, 0.25, grad)
    assert np.array_equal(dx != 0, out != 0)
    assert np.allclose(dx[dx != 0], 3.0 / 0.75)


def test_dropout_rate_domain():
    with pytest.raises(ValueError):
        ops.dropout_forward(np.ones(3), 1.0, train=True, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        ops.dropout_forward(np.ones(3), -0.1, train=True, rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def test_bce_confident_correct_is_near_zero():
    assert ops.bce_loss_batch(np.array([[1.0, 0.0]]), np.array([0])) < 1e-10


def test_bce_uniform_is_log_two():
    loss = ops.bce_loss_batch(np.array([[0.5, 0.5]]), np.array([1]))
    assert loss == pytest.approx(np.log(2.0), rel=1e-12)


def test_bce_batch_averages():
    probs = np.array([[0.9, 0.1], [0.5, 0.5]])
    targets = np.array([0, 1])
    expect = -(np.log(0.9) + np.log(0.5)) / 2
    assert ops.bce_loss_batch(probs, targets) == pytest.approx(expect)


def test_bce_clamps_impossible_prediction():
    # probability exactly 0 for the true class must stay finite
    loss = ops.bce_loss_batch(np.array([[0.0, 1.0]]), np.array([0]))
    assert np.isfinite(loss)
    assert loss > 20.0


def test_cross_entropy_logit_grad_formula():
    probs = np.array([[0.7, 0.3], [0.2, 0.8]])
    targets = np.array([0, 0])
    grad = ops.cross_entropy_logit_grad(probs, targets)
    expect = (probs - np.array([[1.0, 0.0], [1.0, 0.0]])) / 2
    assert np.allclose(grad, expect, atol=1e-15)


def test_mse_identity_is_zero():
    x = np.arange(10.0)
    assert ops.mse_loss(x, x) == 0.0


def test_mse_grad_example():
    pred = np.array([1.0, 2.0])
    target = np.array([0.0, 0.0])
    assert ops.mse_loss(pred, target) == pytest.approx(2.5)
    assert np.allclose(ops.mse_grad(pred, target), [1.0, 2.0])


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_leaves_params_unchanged():
    t = Tensor(np.array([1.0, -2.0, 3.0]))
    opt = Adam([("w", t)], learning_rate=0.1)
    before = t.data.copy()
    opt.step()
    assert np.array_equal(t.data, before)
    assert opt.step_count == 1


def test_adam_first_step_magnitude_is_learning_rate():
    t = Tensor(np.zeros(4))
    opt = Adam([("w", t)], learning_rate=0.01)
    t.grad = np.array([1.0, -1.0, 0.5, -2.0])
    opt.step()
    # bias correction makes the very first update +-lr regardless of scale
    assert np.allclose(np.abs(t.data), 0.01, rtol=1e-6)
    assert np.all(np.sign(t.data) == [-1.0, 1.0, -1.0, 1.0])


def test_adam_repeated_identical_gradients_shrink_updates():
    t = Tensor(np.zeros(1))
    opt = Adam([("w", t)], learning_rate=0.05)
    t.grad = np.array([2.0])
    opt.step()
    first = abs(t.data[0])
    prev = t.data[0]
    t.grad = np.array([2.0])
    opt.step()
    second = abs(t.data[0] - prev)
    assert second <= first + 1e-12


def test_adam_tracks_multiple_parameters_independently():
    a = Tensor(np.zeros(2))
    b = Tensor(np.zeros(3))
    opt = Adam([("a", a), ("b", b)], learning_rate=0.1)
    a.grad = np.ones(2)
    opt.step()
    assert np.all(a.data != 0)
    assert np.all(b.data == 0)


def test_adam_converges_on_quadratic():
    t = Tensor(np.array([5.0]))
    opt = Adam([("w", t)], learning_rate=0.2)
    for _ in range(200):
        t.grad = 2.0 * t.data
        opt.step()
    assert abs(t.data[0]) < 1e-3
