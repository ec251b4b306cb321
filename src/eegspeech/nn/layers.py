"""Layer objects wrapping the functional ops with parameter storage.  Each
class is also the one definition of its layer kind (see `Layer`), and
`nn.network.KINDS` maps each `LayerSpec` kind to its class.

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
"""

from __future__ import annotations

import math

import numpy as np

from . import ops
from .tensor import Tensor


class Layer:
    """A layer, and the one definition of its kind.  ``check(spec)`` refuses
    a `LayerSpec` the kind cannot build.  ``shapes(spec, shape)`` gives the
    per-example output shape and each parameter's shape by name, or refuses
    an input shape that does not fit (its message follows the kind's name).
    ``initial(rng, **shapes)`` draws the parameters, and ``build(spec,
    **params)`` makes the layer from their ``Tensor``s.  Refusals raise
    ValueError.  The defaults fit a shape-keeping kind without parameters.
    """

    #: the spec fields that must be positive for this kind
    positive: tuple[str, ...] = ()
    #: the parameters' attribute names, in the order `parameters` lists them
    param_names: tuple[str, ...] = ()

    @classmethod
    def check(cls, spec) -> None:
        for field in cls.positive:
            value = getattr(spec, field)
            if not (value and value > 0):
                raise ValueError(f"{spec.kind} {field} must be positive, got {value!r}")

    @staticmethod
    def shapes(spec, shape):
        return shape, {}

    @classmethod
    def build(cls, spec, **params: Tensor) -> Layer:
        return cls(**params)

    def forward(self, x, train: bool = False):
        raise NotImplementedError

    def backward(self, grad):
        raise NotImplementedError

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [(name, getattr(self, name)) for name in self.param_names]


def _glorot_uniform(rng, fan_in, fan_out, shape):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class _WeightsAndBias(Layer):
    """The body of Dense and Conv2D.  It calls ``ops.<op>_forward`` and
    ``ops.<op>_backward``, looked up in `nn.ops` at each call, so a kernel
    rebound there (by a profiler, say) is the one that runs."""

    op = ""
    param_names = ("weights", "bias")

    def __init__(self, weights: Tensor, bias: Tensor):
        self.weights = weights
        self.bias = bias
        self._x = None

    def forward(self, x, train=False):
        if train:
            self._x = x
        return getattr(ops, f"{self.op}_forward")(x, self.weights.data, self.bias.data)

    def backward(self, grad):
        x, self._x = self._x, None
        dx, self.weights.grad, self.bias.grad = getattr(ops, f"{self.op}_backward")(
            x, self.weights.data, grad)
        return dx


class Dense(_WeightsAndBias):
    op = "dense"
    positive = ("units",)

    @staticmethod
    def shapes(spec, shape):
        if len(shape) != 1:
            raise ValueError(f"needs a flat input, got {shape}")
        return (spec.units,), {"weights": (spec.units, shape[0]), "bias": (spec.units,)}

    @staticmethod
    def initial(rng: np.random.Generator, weights, bias) -> dict[str, np.ndarray]:
        n_out, n_in = weights
        return {"weights": _glorot_uniform(rng, n_in, n_out, weights), "bias": np.zeros(bias)}


class Conv2D(_WeightsAndBias):
    op = "conv2d"
    positive = ("filters", "kernel")

    @staticmethod
    def shapes(spec, shape):
        if len(shape) != 3:
            raise ValueError(f"needs (c, h, w) input, got {shape}")
        c, h, w = shape
        f, k = spec.filters, spec.kernel
        if h < k or w < k:
            raise ValueError(f"kernel {k} does not fit {h}x{w}")
        return (f, h - k + 1, w - k + 1), {"weights": (f, c, k, k), "bias": (f,)}

    @staticmethod
    def initial(rng: np.random.Generator, weights, bias) -> dict[str, np.ndarray]:
        c_out, c_in, kh, kw = weights
        return {"weights": _glorot_uniform(rng, c_in * kh * kw, c_out * kh * kw, weights),
                "bias": np.zeros(bias)}


class Lstm(Layer):
    """An LSTM over full sequences, emitting the hidden state at every step."""

    positive = ("units",)
    param_names = ("wx", "wh", "bias")

    def __init__(self, wx: Tensor, wh: Tensor, bias: Tensor):
        self.wx = wx
        self.wh = wh
        self.bias = bias
        self._cache = None

    @staticmethod
    def shapes(spec, shape):
        if len(shape) != 2:
            raise ValueError(f"needs (T, features) input, got {shape}")
        gates = 4 * spec.units
        return (shape[0], spec.units), {"wx": (gates, shape[1]), "wh": (gates, spec.units),
                                        "bias": (gates,)}

    @staticmethod
    def initial(rng: np.random.Generator, wx, wh, bias) -> dict[str, np.ndarray]:
        # uniform +-1/sqrt(fan_in), forget-gate bias raised to +1
        units = wh[1]
        b = np.zeros(bias)
        b[units:2 * units] = 1.0
        return {"wx": rng.uniform(-1, 1, size=wx) / math.sqrt(wx[1]),
                "wh": rng.uniform(-1, 1, size=wh) / math.sqrt(units), "bias": b}

    def forward(self, x, train=False):
        hs, cache = ops.lstm_forward(x, self.wx.data, self.wh.data, self.bias.data)
        if train:
            self._cache = cache
        return hs

    def backward(self, grad):
        cache, self._cache = self._cache, None
        dxs, self.wx.grad, self.wh.grad, self.bias.grad, _, _ = ops.lstm_backward(cache, grad)
        return dxs


class Activation(Layer):
    @staticmethod
    def check(spec):
        if spec.fn not in ops.ACTIVATIONS:
            raise ValueError(f"activation fn must be one of {ops.ACTIVATIONS}, got {spec.fn!r}")

    build = classmethod(lambda cls, spec: cls(spec.fn))

    def __init__(self, fn: str):
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
    @staticmethod
    def check(spec):
        if spec.rate is None or not 0 <= spec.rate < 1:
            raise ValueError("dropout rate must lie in [0, 1)")

    build = classmethod(lambda cls, spec: cls(spec.rate))

    def __init__(self, rate: float):
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
    _shape: tuple[int, ...] | None = None

    @staticmethod
    def shapes(spec, shape):
        return (int(np.prod(shape)),), {}

    def forward(self, x, train=False):
        if train:
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._shape)


class LastStep(Layer):
    """Select the final timestep of a (batch, T, features) sequence."""

    _shape: tuple[int, ...] | None = None

    @staticmethod
    def shapes(spec, shape):
        if len(shape) != 2:
            raise ValueError(f"needs (T, features) input, got {shape}")
        return (shape[1],), {}

    def forward(self, x, train=False):
        if train:
            self._shape = x.shape
        return x[:, -1, :]

    def backward(self, grad):
        full = np.zeros(self._shape)
        full[:, -1, :] = grad
        return full
