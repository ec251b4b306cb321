"""Sequential network container plus declarative layer specs with build-time
shape checking: a mismatched architecture fails when the model is built, never
mid-training."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .layers import Activation, Conv2D, Dense, Dropout, Flatten, LastStep, Layer, Lstm, Softmax
from .tensor import Tensor

LAYER_KINDS = ("conv2d", "dense", "lstm", "last_step", "dropout", "activation", "softmax",
               "flatten")


@dataclass(frozen=True)
class LayerSpec:
    """One layer of an architecture; only the fields for ``kind`` are used."""

    kind: str
    filters: int | None = None
    kernel: int = 3
    units: int | None = None
    rate: float | None = None
    fn: str | None = None

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == "conv2d":
            if not (self.filters and self.filters > 0):
                raise ValueError("conv2d needs a positive filter count")
            if self.kernel < 1:
                raise ValueError("conv2d kernel must be positive")
        elif self.kind in ("dense", "lstm"):
            if not (self.units and self.units > 0):
                raise ValueError(f"{self.kind} needs a positive unit count")
        elif self.kind == "dropout":
            if self.rate is None or not 0 <= self.rate < 1:
                raise ValueError("dropout rate must lie in [0, 1)")
        elif self.kind == "activation":
            if self.fn not in ("relu", "sigmoid", "tanh"):
                raise ValueError(f"activation fn must be relu|sigmoid|tanh, got {self.fn!r}")


def infer_shapes(specs: list[LayerSpec], input_shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Per-layer output shapes (excluding the batch axis); raises on any
    mismatch so errors surface at build time."""
    shapes = []
    shape = tuple(input_shape)
    for i, spec in enumerate(specs):
        if spec.kind == "conv2d":
            if len(shape) != 3:
                raise ValueError(f"layer {i}: conv2d needs (c, h, w) input, got {shape}")
            c, h, w = shape
            if h < spec.kernel or w < spec.kernel:
                raise ValueError(f"layer {i}: kernel {spec.kernel} does not fit {h}x{w}")
            shape = (spec.filters, h - spec.kernel + 1, w - spec.kernel + 1)
        elif spec.kind == "dense":
            if len(shape) != 1:
                raise ValueError(f"layer {i}: dense needs a flat input, got {shape}")
            shape = (spec.units,)
        elif spec.kind in ("lstm", "last_step"):
            if len(shape) != 2:
                raise ValueError(f"layer {i}: {spec.kind} needs (T, features) input, got {shape}")
            shape = (shape[0], spec.units) if spec.kind == "lstm" else (shape[1],)
        elif spec.kind == "flatten":
            shape = (int(np.prod(shape)),)
        shapes.append(shape)
    return shapes


def _parameter_shapes(specs: list[LayerSpec],
                      input_shape: tuple[int, ...]) -> list[dict[str, tuple[int, ...]]]:
    """Per layer, the shape of each parameter by name, in the layer's order."""
    in_shapes = [tuple(input_shape)] + infer_shapes(specs, input_shape)[:-1]
    shapes = []
    for spec, shape in zip(specs, in_shapes):
        if spec.kind == "conv2d":
            k = spec.kernel
            shapes.append({"weights": (spec.filters, shape[0], k, k), "bias": (spec.filters,)})
        elif spec.kind == "dense":
            shapes.append({"weights": (spec.units, shape[0]), "bias": (spec.units,)})
        elif spec.kind == "lstm":
            gates = 4 * spec.units
            shapes.append({"wx": (gates, shape[1]), "wh": (gates, spec.units), "bias": (gates,)})
        else:
            shapes.append({})
    return shapes


_PARAMETRIC = {"conv2d": Conv2D, "dense": Dense, "lstm": Lstm}


def initial_state(specs: list[LayerSpec], input_shape: tuple[int, ...],
                  rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Freshly drawn parameters for the network of ``specs``, named as
    `Network.parameters` names them and drawn from ``rng`` layer by layer,
    in that order.  The shape chain is checked before anything is drawn."""
    state = {}
    for i, (spec, shapes) in enumerate(zip(specs, _parameter_shapes(specs, input_shape))):
        if shapes:
            drawn = _PARAMETRIC[spec.kind].initial(rng, **shapes)
            state.update((f"layer{i:02d}.{name}", drawn[name]) for name in shapes)
    return state


def build_network(specs: list[LayerSpec], input_shape: tuple[int, ...],
                  rng: np.random.Generator) -> "Network":
    """A network of ``specs`` with freshly drawn parameters."""
    return Network.from_state(specs, input_shape, initial_state(specs, input_shape, rng))


class Network:
    """A plain sequential stack with explicit forward/backward control."""

    def __init__(self, layers: list[Layer]):
        self.layers = layers

    @classmethod
    def from_state(cls, specs: list[LayerSpec], input_shape: tuple[int, ...],
                   state: Mapping[str, np.ndarray], prefix: str = "") -> "Network":
        """The network of ``specs`` whose parameters are ``state``'s arrays.

        Layer i is built from spec i, and its parameter ``layer<ii>.<name>``
        wraps the array ``state`` holds under ``prefix + "layer<ii>.<name>"``
        as it is: a contiguous float64 array becomes the parameter's data
        without a copy, so training the network writes into it.  Raises
        ValueError, naming the tensors by their keys in ``state``, when
        ``state`` lacks a parameter, holds a key the network does not have,
        or holds an array of another shape.
        """
        shapes = _parameter_shapes(specs, input_shape)  # fail fast on any mismatch
        expected = {f"{prefix}layer{i:02d}.{name}" for i, layer in enumerate(shapes)
                    for name in layer}
        if set(state) != expected:
            missing = sorted(expected - set(state))
            extra = sorted(set(state) - expected)
            raise ValueError(f"checkpoint mismatch: missing={missing} extra={extra}")
        layers: list[Layer] = []
        for i, spec in enumerate(specs):
            params = {}
            for name, shape in shapes[i].items():
                key = f"{prefix}layer{i:02d}.{name}"
                tensor = Tensor(state[key])
                if tensor.shape != shape:
                    raise ValueError(f"{key}: checkpoint shape {tensor.shape} "
                                     f"!= model shape {shape}")
                params[name] = tensor
            if spec.kind in _PARAMETRIC:
                layers.append(_PARAMETRIC[spec.kind](**params))
            elif spec.kind == "last_step":
                layers.append(LastStep())
            elif spec.kind == "dropout":
                layers.append(Dropout(spec.rate))
            elif spec.kind == "activation":
                layers.append(Activation(spec.fn))
            elif spec.kind == "softmax":
                layers.append(Softmax())
            elif spec.kind == "flatten":
                layers.append(Flatten())
        return cls(layers)

    def forward(self, x, train: bool = True, stop: int | None = None):
        """Run the layers up to and including layer ``stop`` (default: all).

        Training mode is the default, so a ``backward`` may follow any plain
        forward call.  With ``train=False`` dropout is the identity and no
        layer caches anything, so eval passes leave the network unchanged.
        """
        last = len(self.layers) - 1 if stop is None else stop
        for layer in self.layers[: last + 1]:
            x = layer.forward(x, train)
        return x

    def backward(self, grad, start: int | None = None):
        """Propagate ``grad`` backward from the output of layer ``start``
        (default: the last layer), writing each parameter's gradient.

        Layers above ``start`` keep their old gradients.  ``Softmax`` has no
        backward, so a network ending in one starts below it, at the logits.
        """
        if start is None:
            start = len(self.layers) - 1
        for layer in reversed(self.layers[: start + 1]):
            grad = layer.backward(grad)
        return grad

    def parameters(self) -> list[tuple[str, Tensor]]:
        named = []
        for i, layer in enumerate(self.layers):
            for name, tensor in layer.parameters():
                named.append((f"layer{i:02d}.{name}", tensor))
        return named

    def zero_grad(self) -> None:
        for _, t in self.parameters():
            t.zero_grad()

    def set_dropout_rng(self, rng: np.random.Generator | None) -> None:
        for layer in self.layers:
            if isinstance(layer, Dropout):
                layer.rng = rng

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.parameters()}
