import numpy as np

from .. import parallel
from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8
#: Elements per block of the step, shared by the workers of a split step.
#: On a 2-vCPU VM a serial step took the same time at blocks of 32 K, 48 K
#: and 64 K elements, while a split step was faster the wider each worker's
#: share (each operation passes the interpreter lock between the threads):
#: 1 M elements took 8.3 ms at 32 K, 6.9 ms at 48 K and 6.3 ms at 64 K.
#: 48 K keeps the two work buffers under 1 MB.
BLOCK = 49152
#: Blocks per worker a step needs before it is split.  On a 2-vCPU VM a
#: split step broke even with a serial one at 100-130 K elements and was
#: faster from about 200 K up (262 K: 2.0-2.7 ms serial, 1.6-2.2 ms split).
SPLIT_BLOCKS = 2


class Adam:
    """Adam with bias correction over a fixed list of named parameters, with
    the moment decays ``BETA1``/``BETA2`` and the denominator's ``EPSILON``.

    Holds first/second moment buffers and the step counter; update order is
    the parameter list order, so runs are reproducible.  The update runs in
    place, ``BLOCK`` elements at a time, through two work buffers of at most
    ``BLOCK`` elements shared by all parameters, so a step allocates no
    parameter-sized temporary.  The update is elementwise, so a step's
    elements split across ``parallel.split``'s workers without moving a bit.
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
        that form bit for bit; at the first step, where both moments are +0,
        ``b * m + x`` is computed as the bit-equal ``x + 0.0``.
        """
        missing = next((name for name, t in self.params if t.grad is None), None)
        if missing is not None:
            raise ValueError(f"{missing} has no gradient; run a backward pass before each step")
        self.step_count += 1
        bias1 = 1.0 - BETA1 ** self.step_count
        bias2 = 1.0 - BETA2 ** self.step_count
        fresh = self.step_count == 1
        # the parameters in list order make one range of elements, cut into
        # one contiguous part per worker; worker i steps the pieces of every
        # parameter in its part through slice i of each work buffer
        sizes = [t.size for _, t in self.params]
        total = sum(sizes)
        parts = max(1, min(parallel.WORKERS, total // (SPLIT_BLOCKS * BLOCK)))
        width = len(self._work[0]) // parts

        def run(first, last):
            for i in range(first, last):
                lo, hi = total * i // parts, total * (i + 1) // parts
                work = [w[i * width:(i + 1) * width] for w in self._work]
                start = 0
                for (name, tensor), size in zip(self.params, sizes):
                    end = start + size
                    if lo < end and start < hi:
                        a, b = max(lo, start) - start, min(hi, end) - start
                        # Tensor makes ``data`` C-contiguous and nothing
                        # rebinds it, so these reshapes are views and the
                        # update lands in the weights.
                        arrays = (tensor.grad.reshape(-1), self._m[name].reshape(-1),
                                  self._v[name].reshape(-1), tensor.data.reshape(-1))
                        self._update(*(x[a:b] for x in arrays), *work, bias1, bias2, fresh)
                        if b - a == size:
                            # no other part reads this gradient, and freeing it
                            # now lets the heap shrink before later moments
                            # are first touched
                            tensor.grad = None
                    start = end

        parallel.split(parts, run)
        for _, tensor in self.params:
            tensor.grad = None

    def _update(self, grad, m_all, v_all, data, s_all, t_all, bias1, bias2,
                fresh: bool) -> None:
        """Step one range of a parameter in blocks as wide as the work slices
        ``s_all`` and ``t_all``; ``fresh`` marks the first step."""
        b1, b2 = BETA1, BETA2
        width = len(s_all)
        for lo in range(0, data.size, width):
            hi = min(lo + width, data.size)
            g, m, v, p = grad[lo:hi], m_all[lo:hi], v_all[lo:hi], data[lo:hi]
            s, t = s_all[:hi - lo], t_all[:hi - lo]
            np.multiply(1.0 - b2, g, out=s)
            s *= g
            np.multiply(g, 1.0 - b1, out=t)
            if fresh:
                # both moments are +0 before the first step, and +0 * b + x
                # has the bits of x + 0.0 (a -0 turns +0 in both), so the
                # moments are written without first reading their zero pages
                np.add(s, 0.0, out=v)
                np.add(t, 0.0, out=m)
            else:
                v *= b2
                v += s
                m *= b1
                m += t
            np.divide(m, bias1, out=s)
            s *= self.learning_rate
            np.divide(v, bias2, out=t)
            np.sqrt(t, out=t)
            t += EPSILON
            s /= t
            p -= s
