"""Forward/backward math for every layer kind, as pure array functions.

Every op takes batch-first arrays, the layout the layer classes use: dense
(b, ..., n), conv2d (b, c, h, w) and lstm (b, T, n).  Backward functions
return gradients with respect to inputs and parameters given the upstream
gradient, and are verified against central finite differences in the test
suite.  Convolution runs on BLAS through im2col, which unfolds the input
windows into a column block, and col2im, which folds its gradient back.
The conv ops split the batch by sample across ``parallel.split``'s workers:
each fills its samples' slice of one column block the op allocates (496 MB
for the 32->64 layer at batch 64), and the weight and bias gradients are
summed over the whole batch afterwards, in sample order, so no output bit
depends on the worker count.
"""

from __future__ import annotations

import numpy as np

from .. import parallel

# --- elementwise activations -------------------------------------------------

def relu(x):
    return np.maximum(x, 0.0)


def sigmoid(x):
    # exp of a non-positive argument never overflows; both branches are
    # computed everywhere and each element takes the one for its sign
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


ACTIVATIONS = ("relu", "sigmoid", "tanh")


def activation_forward(x, kind: str):
    if kind == "relu":
        return relu(x)
    if kind == "sigmoid":
        return sigmoid(x)
    if kind == "tanh":
        return np.tanh(x)
    raise ValueError(f"unknown activation {kind!r}")


def activation_backward(x, out, kind: str, grad):
    """Gradient through an activation given its output ``out``.

    No kind reads the input ``x``: relu's ``out > 0`` is the predicate
    ``x > 0`` for every float, NaN and signed zero included.  The layer
    passes ``None``, so a kind that needed ``x`` would fail loudly.
    """
    if kind == "relu":
        return grad * (out > 0)
    if kind == "sigmoid":
        return grad * out * (1.0 - out)
    if kind == "tanh":
        return grad * (1.0 - out * out)
    raise ValueError(f"unknown activation {kind!r}")


# --- softmax -----------------------------------------------------------------

def softmax(x):
    """Stable softmax over the last axis; outputs are positive and sum to 1."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


# --- dense -------------------------------------------------------------------

def dense_forward(x, weights, bias):
    """Affine map x -> x @ W^T + b with W of shape (out, in)."""
    x = np.asarray(x)
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
    if x.shape[-1] != weights.shape[1]:
        raise ValueError(f"input dim {x.shape[-1]} != weight fan-in {weights.shape[1]}")
    if bias.shape != (weights.shape[0],):
        raise ValueError(f"bias shape {bias.shape} != ({weights.shape[0]},)")
    return x @ weights.T + bias


def dense_backward(x, weights, grad):
    x = np.asarray(x)
    flat_x = x.reshape(-1, x.shape[-1])
    flat_g = grad.reshape(-1, grad.shape[-1])
    dw = flat_g.T @ flat_x
    db = flat_g.sum(axis=0)
    dx = grad @ weights
    return dx, dw, db


# --- 2-D convolution (valid, stride 1) ---------------------------------------
# im2col (Chellapilla, Puri and Simard, 2006): each sample's windows become a
# contiguous block with one row per kernel tap (channel, i, j) and one column
# per output pixel, so the forward pass and the weight gradient are one GEMM
# per sample.  col2im adds the block's gradient back onto the input, one
# strided add per kernel tap.

#: Forward multiply-adds a slice of a conv's batch needs before it runs on a
#: thread of its own.  Starting and joining that thread and passing the
#: interpreter lock between the two cost about 0.25 ms per call on a 2-vCPU
#: VM, more than a whole 1->32 conv at 6x6 over 16 samples; 4 M multiply-adds
#: take about as long at one core's DGEMM rate.
SPLIT_MACS = 4_000_000


def _grain(weights, h_out, w_out):
    # the fewest samples whose forward GEMMs hold SPLIT_MACS multiply-adds
    return -(-SPLIT_MACS // (weights.size * h_out * w_out))


def _windows(x, kh, kw):
    # (b, c, h, w) -> (b, c, kh, kw, h', w'): a view, in the row order of a
    # flattened kernel
    return np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3)) \
        .transpose(0, 1, 4, 5, 2, 3)


def conv2d_forward(x, weights, bias):
    """Valid cross-correlation, stride 1.

    ``x`` is (b, c_in, h, w); ``weights`` is (c_out, c_in, kh, kw); output
    spatial dims shrink by kernel - 1.
    """
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"input must be (b, c, h, w), got shape {x.shape}")
    c_out, c_in, kh, kw = weights.shape
    if x.shape[1] != c_in:
        raise ValueError(f"input has {x.shape[1]} channels, kernel expects {c_in}")
    if x.shape[2] < kh or x.shape[3] < kw:
        raise ValueError(f"kernel {kh}x{kw} does not fit input {x.shape[2]}x{x.shape[3]}")
    if bias.shape != (c_out,):
        raise ValueError(f"bias shape {bias.shape} != ({c_out},)")
    win = _windows(x, kh, kw)
    b, h_out, w_out = len(x), win.shape[4], win.shape[5]
    dtype = np.result_type(x, weights)
    cols = np.empty(win.shape, dtype)
    out = np.empty((b, c_out, h_out * w_out), dtype)
    w_mat = weights.reshape(c_out, -1)

    def part(lo, hi):
        np.copyto(cols[lo:hi], win[lo:hi])
        np.matmul(w_mat, cols[lo:hi].reshape(hi - lo, -1, h_out * w_out), out=out[lo:hi])
        out[lo:hi] += bias[:, None]

    parallel.split(b, part, _grain(weights, h_out, w_out))
    return out.reshape(b, c_out, h_out, w_out)


def conv2d_backward(x, weights, grad):
    x = np.asarray(x)
    c_out, c_in, kh, kw = weights.shape
    b, _, h_out, w_out = grad.shape
    g = grad.reshape(b, c_out, h_out * w_out)
    win = _windows(x, kh, kw)
    dtype = np.result_type(x, weights, grad)
    # the per-sample input windows, then the same block as their gradient
    cols = np.empty(win.shape, dtype)
    prod = np.empty((b, c_out, c_in * kh * kw), dtype)
    dx = np.zeros(x.shape)
    w_mat = weights.reshape(c_out, -1)

    def part(lo, hi):
        np.copyto(cols[lo:hi], win[lo:hi])
        block = cols[lo:hi].reshape(hi - lo, -1, h_out * w_out)
        np.matmul(g[lo:hi], block.transpose(0, 2, 1), out=prod[lo:hi])
        np.matmul(w_mat.T, g[lo:hi], out=block)
        for i in range(kh):
            for j in range(kw):
                dx[lo:hi, :, i:i + h_out, j:j + w_out] += cols[lo:hi, :, i, j]

    parallel.split(b, part, _grain(weights, h_out, w_out))
    dw = prod.sum(axis=0).reshape(weights.shape)
    db = grad.sum(axis=(0, 2, 3))
    return dx, dw, db


# --- LSTM --------------------------------------------------------------------
# Gate layout in the stacked weight matrices: input, forget, candidate, output.

def lstm_forward(xs, wx, wh, b, h0=None, c0=None):
    """Run an LSTM over a full sequence; returns all hidden states.

    ``xs`` is (b, T, n); ``wx`` is (4m, n), ``wh`` is (4m, m), ``b`` is
    (4m,).  Returns ``(hs, cache)`` where ``hs`` is (b, T, m): the hidden
    state of every step.
    """
    xs = np.asarray(xs)
    if xs.ndim != 3:
        raise ValueError(f"sequence must be (b, T, n), got shape {xs.shape}")
    n_batch, n_steps, n_in = xs.shape
    if n_steps == 0:
        raise ValueError("empty sequence")
    four_m, n_units = wh.shape[0], wh.shape[1]
    if four_m != 4 * n_units:
        raise ValueError(f"recurrent weights must be (4m, m), got {wh.shape}")
    if wx.shape != (four_m, n_in):
        raise ValueError(f"input weights shape {wx.shape} != ({four_m}, {n_in})")
    h = np.zeros((n_batch, n_units)) if h0 is None else np.broadcast_to(h0, (n_batch, n_units)).copy()
    c = np.zeros((n_batch, n_units)) if c0 is None else np.broadcast_to(c0, (n_batch, n_units)).copy()
    hs = np.empty((n_batch, n_steps, n_units))
    steps = []
    m = n_units
    for t in range(n_steps):
        x_t = xs[:, t, :]
        z = x_t @ wx.T + h @ wh.T + b
        gi = sigmoid(z[:, :m])
        gf = sigmoid(z[:, m:2 * m])
        gc = np.tanh(z[:, 2 * m:3 * m])
        go = sigmoid(z[:, 3 * m:])
        c_prev = c
        c = gf * c_prev + gi * gc
        tc = np.tanh(c)
        h_prev = h
        h = go * tc
        hs[:, t, :] = h
        steps.append((x_t, h_prev, c_prev, gi, gf, gc, go, c, tc))
    cache = {"steps": steps, "wx": wx, "wh": wh}
    return hs, cache


def lstm_backward(cache, grad_hs):
    """Backpropagation through time given gradients on every hidden state."""
    steps = cache["steps"]
    wx, wh = cache["wx"], cache["wh"]
    grad_hs = np.asarray(grad_hs)
    n_batch, n_steps, m = grad_hs.shape
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    db = np.zeros(wx.shape[0])
    dxs = np.empty((n_batch, n_steps, wx.shape[1]))
    dh_rec = np.zeros((n_batch, m))
    dc = np.zeros((n_batch, m))
    for t in range(n_steps - 1, -1, -1):
        x_t, h_prev, c_prev, gi, gf, gc, go, c, tc = steps[t]
        dh = grad_hs[:, t, :] + dh_rec
        dgo = dh * tc
        dc = dc + dh * go * (1.0 - tc * tc)
        dgi = dc * gc
        dgc = dc * gi
        dgf = dc * c_prev
        dz = np.concatenate(
            [
                dgi * gi * (1.0 - gi),
                dgf * gf * (1.0 - gf),
                dgc * (1.0 - gc * gc),
                dgo * go * (1.0 - go),
            ],
            axis=1,
        )
        dwx += dz.T @ x_t
        dwh += dz.T @ h_prev
        db += dz.sum(axis=0)
        dxs[:, t, :] = dz @ wx
        dh_rec = dz @ wh
        dc = dc * gf
    return dxs, dwx, dwh, db, dh_rec, dc


# --- dropout -----------------------------------------------------------------

def dropout_forward(x, rate: float, train: bool, rng: np.random.Generator | None):
    """Inverted dropout: eval mode is the identity; in train mode each element
    survives with probability 1 - rate and is scaled by 1/(1 - rate)."""
    if not 0 <= rate < 1:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x, None
    if rng is None:
        raise ValueError("training-mode dropout needs a random generator")
    mask = rng.random(np.shape(x)) >= rate
    return x * mask / (1.0 - rate), mask


def dropout_backward(mask, rate: float, grad):
    if mask is None:
        return grad
    return grad * mask / (1.0 - rate)


# --- losses ------------------------------------------------------------------

_CLAMP = 1e-12


def bce_loss_batch(probs, targets) -> float:
    p = np.clip(probs[np.arange(len(targets)), targets], _CLAMP, None)
    return float(-np.log(p).mean())


def cross_entropy_logit_grad(probs, targets):
    """Combined softmax + cross-entropy gradient at the logits: probs - onehot,
    averaged over the batch."""
    probs = np.atleast_2d(probs)
    targets = np.atleast_1d(targets)
    g = probs.copy()
    g[np.arange(len(targets)), targets] -= 1.0
    return g / len(targets)


def mse_loss(x, y) -> float:
    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return float(np.mean(diff * diff))


def mse_grad(x, y):
    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return 2.0 * diff / diff.size
