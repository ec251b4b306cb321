"""Layer objects wrapping the functional ops with parameter storage.

Every layer sees batch-first arrays.  ``forward(x, train=True)`` caches what
its ``backward`` reads, and ``backward`` takes the cache, setting the
attribute back to ``None`` before it computes: a cache lives from a
train-mode forward to that layer's backward.  Eval-mode forward caches
nothing, so a trained layer holds no activations.  ``backward`` sets each
of its parameters' ``grad`` to the array the op just returned (no copy, no
add) and returns the gradient with respect to its input.

Writing rather than accumulating is exact because every parameter belongs to
exactly one layer, and a training step's backward pass reaches layer 0, so
each step writes every gradient once.  The op's array is fresh: it shares
memory with no parameter, cache or other gradient, so ``Adam.step``, which
reads each gradient and then drops it, sees the values the op computed.

A layer with parameters is built from their ``Tensor``s.  Its static
``initial(rng, **shapes)`` draws starting values for them, given each
parameter's shape by name; `nn.network.initial_state` calls it layer by
layer.
"""

from __future__ import annotations

import math

import numpy as np

from . import ops
from .tensor import Tensor


class Layer:
    def forward(self, x, train: bool = False):
        raise NotImplementedError

    def backward(self, grad):
        raise NotImplementedError

    def parameters(self) -> list[tuple[str, Tensor]]:
        return []


def _glorot_uniform(rng, fan_in, fan_out, shape):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Dense(Layer):
    def __init__(self, weights: Tensor, bias: Tensor):
        self.weights = weights
        self.bias = bias
        self._x = None

    @staticmethod
    def initial(rng: np.random.Generator, weights, bias) -> dict[str, np.ndarray]:
        n_out, n_in = weights
        return {"weights": _glorot_uniform(rng, n_in, n_out, weights), "bias": np.zeros(bias)}

    def forward(self, x, train=False):
        if train:
            self._x = x
        return ops.dense_forward(x, self.weights.data, self.bias.data)

    def backward(self, grad):
        x, self._x = self._x, None
        dx, dw, db = ops.dense_backward(x, self.weights.data, grad)
        self.weights.grad = dw
        self.bias.grad = db
        return dx

    def parameters(self):
        return [("weights", self.weights), ("bias", self.bias)]


class Conv2D(Layer):
    def __init__(self, weights: Tensor, bias: Tensor):
        self.weights = weights
        self.bias = bias
        self._x = None

    @staticmethod
    def initial(rng: np.random.Generator, weights, bias) -> dict[str, np.ndarray]:
        c_out, c_in, kh, kw = weights
        return {"weights": _glorot_uniform(rng, c_in * kh * kw, c_out * kh * kw, weights),
                "bias": np.zeros(bias)}

    def forward(self, x, train=False):
        if train:
            self._x = x
        return ops.conv2d_forward(x, self.weights.data, self.bias.data)

    def backward(self, grad):
        x, self._x = self._x, None
        dx, dw, db = ops.conv2d_backward(x, self.weights.data, grad)
        self.weights.grad = dw
        self.bias.grad = db
        return dx

    def parameters(self):
        return [("weights", self.weights), ("bias", self.bias)]


class Lstm(Layer):
    """An LSTM over full sequences, emitting the hidden state at every step."""

    def __init__(self, wx: Tensor, wh: Tensor, bias: Tensor):
        self.wx = wx
        self.wh = wh
        self.bias = bias
        self._cache = None

    @staticmethod
    def initial(rng: np.random.Generator, wx, wh, bias) -> dict[str, np.ndarray]:
        # uniform +-1/sqrt(fan_in), forget-gate bias raised to +1
        units = wh[1]
        b = np.zeros(bias)
        b[units:2 * units] = 1.0
        return {"wx": rng.uniform(-1, 1, size=wx) / math.sqrt(wx[1]),
                "wh": rng.uniform(-1, 1, size=wh) / math.sqrt(units), "bias": b}

    @property
    def units(self) -> int:
        return self.wh.data.shape[1]

    def forward(self, x, train=False):
        hs, cache = ops.lstm_forward(x, self.wx.data, self.wh.data, self.bias.data)
        if train:
            self._cache = cache
        return hs

    def backward(self, grad):
        cache, self._cache = self._cache, None
        dxs, dwx, dwh, db, _, _ = ops.lstm_backward(cache, grad)
        self.wx.grad = dwx
        self.wh.grad = dwh
        self.bias.grad = db
        return dxs

    def parameters(self):
        return [("wx", self.wx), ("wh", self.wh), ("bias", self.bias)]


class Activation(Layer):
    def __init__(self, fn: str):
        if fn not in ops.ACTIVATIONS:
            raise ValueError(f"unknown activation {fn!r}")
        self.fn = fn
        self._out = None

    def forward(self, x, train=False):
        out = ops.activation_forward(x, self.fn)
        if train:
            self._out = out
        return out

    def backward(self, grad):
        out, self._out = self._out, None
        return ops.activation_backward(None, out, self.fn, grad)


class Softmax(Layer):
    """Class probabilities over the last axis, with no backward: the
    cross-entropy gradient is taken with respect to the logits below it."""

    def forward(self, x, train=False):
        return ops.softmax(x)


class Dropout(Layer):
    def __init__(self, rate: float):
        if not 0 <= rate < 1:
            raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
        self.rate = rate
        self.rng: np.random.Generator | None = None
        self._mask = None

    def forward(self, x, train=False):
        out, mask = ops.dropout_forward(x, self.rate, train, self.rng)
        if train:
            self._mask = mask
        return out

    def backward(self, grad):
        mask, self._mask = self._mask, None
        return ops.dropout_backward(mask, self.rate, grad)


class Flatten(Layer):
    def __init__(self):
        self._shape = None

    def forward(self, x, train=False):
        if train:
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._shape)


class LastStep(Layer):
    """Select the final timestep of a (batch, T, features) sequence."""

    def __init__(self):
        self._shape = None

    def forward(self, x, train=False):
        if train:
            self._shape = x.shape
        return x[:, -1, :]

    def backward(self, grad):
        full = np.zeros(self._shape)
        full[:, -1, :] = grad
        return full
