import numpy as np


class Tensor:
    """A contiguous float64 array with a same-shape gradient, or ``None``.

    Parameters and their gradients are the only mutable state in the network
    core; activations flow through as plain ndarrays.  The owning layer's
    ``backward`` replaces ``grad`` with the array its op returned, and
    ``Adam.step`` then reads it, without writing to it, and sets it to
    ``None``.  Until ``grad`` is first set, its first read allocates a
    writable zero array, so a tensor whose gradient is only ever replaced,
    and a loaded model's, which is never read, hold no gradient memory.
    """

    __slots__ = ("data", "_grad")

    def __init__(self, data):
        self.data = np.ascontiguousarray(data, dtype=np.float64)

    @property
    def grad(self):
        try:
            return self._grad
        except AttributeError:  # never set: zeros, made now
            self._grad = np.zeros(self.data.shape)
            return self._grad

    @grad.setter
    def grad(self, value):
        self._grad = value

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
