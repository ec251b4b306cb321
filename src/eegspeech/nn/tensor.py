import numpy as np


class Tensor:
    """A contiguous float64 array with a same-shape gradient buffer.

    Parameters and their accumulated gradients are the only mutable state in
    the network core; activations flow through as plain ndarrays.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def accumulate(self, g) -> None:
        if np.shape(g) != self.data.shape:
            raise ValueError(f"gradient shape {np.shape(g)} != parameter shape {self.data.shape}")
        self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"
