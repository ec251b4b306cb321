"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

from typing import Callable, Iterable

from .tensor import Tensor


def gradient_check(loss_fn: Callable[[], float], tensors: Iterable[Tensor],
                   step: float = 1e-5) -> float:
    """Max relative error between stored gradients and central differences.

    ``loss_fn`` must recompute the scalar loss from the tensors' current
    values.  Each tensor's ``grad`` must already hold the analytic gradient of
    that loss.  Every scalar is perturbed by +-``step`` in turn.
    """
    worst = 0.0
    for tensor in tensors:
        flat = tensor.data.reshape(-1)
        analytic = tensor.grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = loss_fn()
            flat[i] = original - step
            down = loss_fn()
            flat[i] = original
            numeric = (up - down) / (2.0 * step)
            scale = max(abs(analytic[i]), abs(numeric), 1e-2)
            worst = max(worst, abs(analytic[i] - numeric) / scale)
    return worst
