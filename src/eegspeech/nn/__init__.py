"""Minimal dense neural-network core: float64 tensors, layer forward/backward
passes, losses, Adam, and a finite-difference gradient checker."""

from .tensor import Tensor
from .layers import Activation, Conv2D, Dense, Dropout, Flatten, LastStep, Lstm, Softmax
from .network import LayerSpec, Network, build_network, infer_shapes, initial_state
from .optim import Adam
from .checkpoint import load_tensors, save_tensors
from .gradcheck import gradient_check

__all__ = [
    "Tensor", "Activation", "Conv2D", "Dense", "Dropout", "Flatten", "LastStep",
    "Lstm", "Softmax", "LayerSpec", "Network", "build_network", "infer_shapes",
    "initial_state", "Adam", "load_tensors", "save_tensors", "gradient_check",
]
