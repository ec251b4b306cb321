import numpy as np


class Tensor:
    """A contiguous float64 array with a same-shape gradient, or ``None``.

    Parameters and their gradients are the only mutable state in the network
    core; activations flow through as plain ndarrays.  The owning layer's
    ``backward`` replaces ``grad`` with the array its op returned, and
    ``Adam.step`` then consumes it in place as a work buffer and sets it to
    ``None``.  For a large parameter the initial ``np.zeros`` maps its pages
    lazily, so a gradient that is replaced before it is read costs no memory
    traffic.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad = np.zeros(self.data.shape)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = np.zeros(self.data.shape)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"
