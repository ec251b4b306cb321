"""Sequential network container plus declarative layer specs with build-time
shape checking: a mismatched architecture fails when the model is built, never
mid-training.

Each layer kind is defined once, by its class in `nn.layers`: its spec
check, shapes, initial draw and construction.  `KINDS` maps each kind name
to that class, and is where this module looks a spec's kind up.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .layers import Activation, Conv2D, Dense, Dropout, Flatten, LastStep, Layer, Lstm, Softmax
from .tensor import Tensor

KINDS: dict[str, type[Layer]] = {
    "conv2d": Conv2D, "dense": Dense, "lstm": Lstm, "last_step": LastStep,
    "dropout": Dropout, "activation": Activation, "softmax": Softmax, "flatten": Flatten}


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
        if self.kind not in KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        KINDS[self.kind].check(self)


def _walk(specs: list[LayerSpec], input_shape: tuple[int, ...]) -> list[tuple]:
    """Per layer: its kind's class, its per-example output shape and each
    parameter's shape by name.  Raises ValueError, naming the layer and its
    kind, at the first one whose input does not fit."""
    walked = []
    shape = tuple(input_shape)
    for i, spec in enumerate(specs):
        kind = KINDS[spec.kind]
        try:
            shape, params = kind.shapes(spec, shape)
        except ValueError as exc:
            raise ValueError(f"layer {i}: {spec.kind} {exc}") from None
        walked.append((kind, shape, params))
    return walked


def infer_shapes(specs: list[LayerSpec], input_shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Per-layer output shapes (excluding the batch axis); raises on any
    mismatch so errors surface at build time."""
    return [shape for _, shape, _ in _walk(specs, input_shape)]


def initial_state(specs: list[LayerSpec], input_shape: tuple[int, ...],
                  rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Freshly drawn parameters for the network of ``specs``, named as
    `Network.parameters` names them and drawn from ``rng`` layer by layer,
    in that order.  The shape chain is checked before anything is drawn."""
    state = {}
    for i, (kind, _, shapes) in enumerate(_walk(specs, input_shape)):
        if shapes:
            drawn = kind.initial(rng, **shapes)
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
        walked = _walk(specs, input_shape)  # fail fast on any mismatch
        expected = {f"{prefix}layer{i:02d}.{name}": shape
                    for i, (_, _, shapes) in enumerate(walked) for name, shape in shapes.items()}
        missing, extra = sorted(set(expected) - set(state)), sorted(set(state) - set(expected))
        if missing or extra:
            raise ValueError(f"checkpoint mismatch: missing={missing} extra={extra}")
        tensors = {key: Tensor(state[key]) for key in expected}
        for key, shape in expected.items():
            if tensors[key].shape != shape:
                raise ValueError(f"{key}: checkpoint shape {tensors[key].shape} "
                                 f"!= model shape {shape}")
        return cls([kind.build(spec, **{name: tensors[f"{prefix}layer{i:02d}.{name}"]
                                        for name in shapes})
                    for i, (spec, (kind, _, shapes)) in enumerate(zip(specs, walked))])

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
        return [(f"layer{i:02d}.{name}", tensor) for i, layer in enumerate(self.layers)
                for name, tensor in layer.parameters()]

    def zero_grad(self) -> None:
        for _, t in self.parameters():
            t.zero_grad()

    def set_dropout_rng(self, rng: np.random.Generator | None) -> None:
        for layer in self.layers:
            if isinstance(layer, Dropout):
                layer.rng = rng
