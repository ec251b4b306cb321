from contextlib import contextmanager

import numpy as np
import pytest

from eegspeech import parallel
from eegspeech.recording import Recording


def random_recording(rng: np.random.Generator, n_channels=None, n_times=None,
                     prompt="/uw/", subject="s00", sample_rate_hz=128.0) -> Recording:
    if n_channels is None:
        n_channels = int(rng.integers(2, 11))
    if n_times is None:
        n_times = int(rng.integers(16, 81))
    samples = rng.normal(size=(n_channels, n_times))
    return Recording(subject_id=subject, prompt=prompt, samples=samples,
                     sample_rate_hz=sample_rate_hz,
                     channel_names=tuple(f"ch{c:02d}" for c in range(n_channels)))


@contextmanager
def workers(n):
    """Run the block at ``n`` workers, on a pool of its own."""
    saved = parallel.WORKERS, parallel._pool
    parallel.WORKERS, parallel._pool = n, None
    try:
        yield
    finally:
        if parallel._pool is not None:
            parallel._pool.shutdown(wait=False, cancel_futures=True)
        parallel.WORKERS, parallel._pool = saved


def separable_matrices(rng: np.random.Generator, n: int, size: int, offset: float):
    """Square matrices in two classes separated by a mean offset on one block."""
    half = n // 2
    x = rng.normal(size=(n, size, size))
    x[half:, : size // 2, : size // 2] += offset
    y = np.array([0] * half + [1] * (n - half))
    return x, y


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def trained_pair():
    """A CNN and LSTM trained once on a shared separable fixture."""
    from eegspeech import networks

    gen = np.random.default_rng(777)
    x, y = separable_matrices(gen, 48, 8, 3.0)
    hyper = networks.NetworkHyper(epochs=4, batch_size=16)
    cnn = networks.train_cnn(x, y, hyper, 101)
    lstm = networks.train_lstm(x, y, hyper, 101)
    return cnn, lstm, x, y
