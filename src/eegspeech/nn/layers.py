"""Layer objects wrapping the functional ops with parameter storage.

Every layer sees batch-first arrays.  ``forward(x, train=True)`` caches
whatever its ``backward`` needs; eval-mode forward caches nothing, so a
trained layer holds no activations between calls.  ``backward`` accumulates
parameter gradients in place and returns the gradient with respect to its
input.
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

    @classmethod
    def create(cls, n_in: int, n_out: int, rng: np.random.Generator) -> "Dense":
        w = _glorot_uniform(rng, n_in, n_out, (n_out, n_in))
        return cls(Tensor(w), Tensor(np.zeros(n_out)))

    def forward(self, x, train=False):
        if train:
            self._x = x
        return ops.dense_forward(x, self.weights.data, self.bias.data)

    def backward(self, grad):
        dx, dw, db = ops.dense_backward(self._x, self.weights.data, grad)
        self.weights.accumulate(dw)
        self.bias.accumulate(db)
        return dx

    def parameters(self):
        return [("weights", self.weights), ("bias", self.bias)]


class Conv2D(Layer):
    def __init__(self, weights: Tensor, bias: Tensor):
        self.weights = weights
        self.bias = bias
        self._x = None

    @classmethod
    def create(cls, c_in: int, c_out: int, kernel: int, rng: np.random.Generator) -> "Conv2D":
        fan_in = c_in * kernel * kernel
        fan_out = c_out * kernel * kernel
        w = _glorot_uniform(rng, fan_in, fan_out, (c_out, c_in, kernel, kernel))
        return cls(Tensor(w), Tensor(np.zeros(c_out)))

    def forward(self, x, train=False):
        if train:
            self._x = x
        return ops.conv2d_forward(x, self.weights.data, self.bias.data)

    def backward(self, grad):
        dx, dw, db = ops.conv2d_backward(self._x, self.weights.data, grad)
        self.weights.accumulate(dw)
        self.bias.accumulate(db)
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

    @classmethod
    def create(cls, n_in: int, units: int, rng: np.random.Generator) -> "Lstm":
        # uniform +-1/sqrt(fan_in), forget-gate bias raised to +1
        wx = rng.uniform(-1, 1, size=(4 * units, n_in)) / math.sqrt(n_in)
        wh = rng.uniform(-1, 1, size=(4 * units, units)) / math.sqrt(units)
        b = np.zeros(4 * units)
        b[units:2 * units] = 1.0
        return cls(Tensor(wx), Tensor(wh), Tensor(b))

    @property
    def units(self) -> int:
        return self.wh.data.shape[1]

    def forward(self, x, train=False):
        hs, cache = ops.lstm_forward(x, self.wx.data, self.wh.data, self.bias.data)
        if train:
            self._cache = cache
        return hs

    def backward(self, grad):
        dxs, dwx, dwh, db, _, _ = ops.lstm_backward(self._cache, grad)
        self.wx.accumulate(dwx)
        self.wh.accumulate(dwh)
        self.bias.accumulate(db)
        return dxs

    def parameters(self):
        return [("wx", self.wx), ("wh", self.wh), ("bias", self.bias)]


class Activation(Layer):
    def __init__(self, fn: str):
        if fn not in ops.ACTIVATIONS:
            raise ValueError(f"unknown activation {fn!r}")
        self.fn = fn
        self._x = None
        self._out = None

    def forward(self, x, train=False):
        out = ops.activation_forward(x, self.fn)
        if train:
            self._x, self._out = x, out
        return out

    def backward(self, grad):
        return ops.activation_backward(self._x, self._out, self.fn, grad)


class Softmax(Layer):
    def __init__(self):
        self._probs = None

    def forward(self, x, train=False):
        probs = ops.softmax(x)
        if train:
            self._probs = probs
        return probs

    def backward(self, grad):
        return ops.softmax_backward(self._probs, grad)


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
        return ops.dropout_backward(self._mask, self.rate, grad)


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
