import numpy as np

from .. import parallel
from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8
#: Elements per block of the step: six 256 KB slices (gradient, both moments,
#: data and the two work buffers) fit in a 2 MB L2 cache, so each block's 14
#: operations stream their operands from memory about once.
BLOCK = 32768
#: Blocks per worker a parameter needs before its step is split.  Each of a
#: block's 14 operations passes the interpreter lock between the threads; on
#: a 2-vCPU VM a split step was slower below about 1 M elements per worker
#: and faster above it.
SPLIT_BLOCKS = 32


class Adam:
    """Adam with bias correction over a fixed list of named parameters, with
    the moment decays ``BETA1``/``BETA2`` and the denominator's ``EPSILON``.

    Holds first/second moment buffers and the step counter; update order is
    the parameter list order, so runs are reproducible.  The update runs in
    place, ``BLOCK`` elements at a time, through two work buffers of at most
    ``BLOCK`` elements shared by all parameters, so a step allocates no
    parameter-sized temporary.  The update is elementwise, so a large
    parameter splits across ``parallel.split``'s workers without moving a bit.
    """

    def __init__(self, params: list[tuple[str, Tensor]], learning_rate: float = 0.001):
        if not learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        self.params = list(params)
        self.learning_rate = learning_rate
        self.step_count = 0
        self._m = {name: np.zeros(t.shape) for name, t in self.params}
        self._v = {name: np.zeros(t.shape) for name, t in self.params}
        width = min(BLOCK, max((t.size for _, t in self.params), default=0))
        self._work = (np.empty(width), np.empty(width))

    def step(self) -> None:
        """Apply one update from the gradients currently stored on the params.

        The step reads each ``tensor.grad`` without writing to it, and sets
        it to ``None`` once the parameter is updated, so a trained network
        holds no gradient and a fresh backward pass must write one before the
        next step.  If any parameter has none, the step raises ValueError
        before it updates anything.  Every element goes through the same IEEE
        operations on the same operands as the textbook
        ``m += (1 - b1) * g``, ``v += (1 - b2) * g * g`` and
        ``data -= lr * m_hat / (sqrt(v_hat) + eps)``, so the weights match
        that form bit for bit.
        """
        missing = next((name for name, t in self.params if t.grad is None), None)
        if missing is not None:
            raise ValueError(f"{missing} has no gradient; run a backward pass before each step")
        self.step_count += 1
        bias1 = 1.0 - BETA1 ** self.step_count
        bias2 = 1.0 - BETA2 ** self.step_count
        for name, tensor in self.params:
            # Tensor makes ``data`` C-contiguous and nothing rebinds it, so
            # this reshape is a view and the update lands in the weights.
            arrays = (tensor.grad.reshape(-1), self._m[name].reshape(-1),
                      self._v[name].reshape(-1), tensor.data.reshape(-1))
            size = tensor.data.size
            # a large parameter splits into one contiguous range per worker,
            # and worker i steps its range through slice i of each work buffer
            parts = max(1, min(parallel.WORKERS, size // (SPLIT_BLOCKS * BLOCK)))
            width = len(self._work[0]) // parts

            def run(first, last):
                for i in range(first, last):
                    lo, hi = size * i // parts, size * (i + 1) // parts
                    self._update(*(a[lo:hi] for a in arrays),
                                 *(w[i * width:(i + 1) * width] for w in self._work),
                                 bias1, bias2)

            parallel.split(parts, run)
            tensor.grad = None

    def _update(self, grad, m_all, v_all, data, s_all, t_all, bias1, bias2) -> None:
        """Step one range of a parameter in blocks as wide as the work slices
        ``s_all`` and ``t_all``."""
        b1, b2 = BETA1, BETA2
        width = len(s_all)
        for lo in range(0, data.size, width):
            hi = min(lo + width, data.size)
            g, m, v, p = grad[lo:hi], m_all[lo:hi], v_all[lo:hi], data[lo:hi]
            s, t = s_all[:hi - lo], t_all[:hi - lo]
            v *= b2
            np.multiply(1.0 - b2, g, out=s)
            s *= g
            v += s
            m *= b1
            np.multiply(g, 1.0 - b1, out=t)
            m += t
            np.divide(m, bias1, out=s)
            s *= self.learning_rate
            np.divide(v, bias2, out=t)
            np.sqrt(t, out=t)
            t += EPSILON
            s /= t
            p -= s
