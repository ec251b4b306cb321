import os

# One BLAS thread, as README advises and the benchmark runs; set before numpy
# loads OpenBLAS, so forked training children do not each start a thread per CPU.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import struct  # noqa: E402
from contextlib import contextmanager  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from eegspeech import parallel  # noqa: E402
from eegspeech.recording import Recording  # noqa: E402


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
    """Run the block at ``n`` workers."""
    saved = parallel.WORKERS
    parallel.WORKERS = n
    try:
        yield
    finally:
        parallel.WORKERS = saved


def separable_matrices(rng: np.random.Generator, n: int, size: int, offset: float):
    """Square matrices in two classes separated by a mean offset on one block."""
    half = n // 2
    x = rng.normal(size=(n, size, size))
    x[half:, : size // 2, : size // 2] += offset
    y = np.array([0] * half + [1] * (n - half))
    return x, y


def v1_archive(named: dict) -> bytes:
    """``named`` as a version-1 named-tensor archive, whose data followed
    each header with no padding."""
    parts = [b"NTAR" + struct.pack("<II", 1, len(named))]
    for name, value in named.items():
        arr, encoded = np.asarray(value, dtype="<f8"), name.encode("utf-8")
        parts += [struct.pack(f"<H{len(encoded)}sB{arr.ndim}I", len(encoded), encoded,
                              arr.ndim, *arr.shape), arr.tobytes()]
    return b"".join(parts)


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
