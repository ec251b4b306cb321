"""Channel cross-covariance features.

The joint variability of all electrode pairs is summarised in one square
covariance matrix per trial: entry (i, j) is the empirical covariance between
channel i at time t and channel j at time t + lag, with per-channel empirical
means and normalisation by the number of overlapping samples.  Channels whose
strongest normalised cross-covariance with any other channel falls below a
threshold are rejected before the matrix is resized and standardised into a
fixed network input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .recording import Recording

# Tolerances for the structural checks on freshly built matrices.
_SYMMETRY_RTOL = 1e-9


@dataclass(frozen=True)
class CovMatrix:
    """A k x k cross-covariance matrix over the retained channels.

    ``kept_channels`` maps rows/columns back to original channel indices and
    is always unique and ascending.  ``zero_variance_channels`` records any
    channels that were discarded because their auto-covariance vanished.
    """

    values: np.ndarray
    kept_channels: tuple[int, ...]
    lag: int
    zero_variance_channels: tuple[int, ...] = field(default=())

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"values must be square, got shape {values.shape}")
        kept = tuple(int(c) for c in self.kept_channels)
        if len(kept) != values.shape[0]:
            raise ValueError(
                f"kept_channels has {len(kept)} entries for a {values.shape[0]}-row matrix"
            )
        if list(kept) != sorted(set(kept)):
            raise ValueError("kept_channels must be unique and ascending")
        if self.lag == 0 and values.size:
            scale = np.abs(values).max()
            if not np.allclose(values, values.T, rtol=0, atol=_SYMMETRY_RTOL * max(scale, 1e-300)):
                raise ValueError("matrix at lag 0 must be symmetric")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "kept_channels", kept)
        object.__setattr__(
            self, "zero_variance_channels", tuple(int(c) for c in self.zero_variance_channels)
        )

    @property
    def k(self) -> int:
        return self.values.shape[0]


def ccv_matrix(rec: Recording, lag: int = 0) -> CovMatrix:
    """Cross-covariance of every channel pair at a fixed sample lag.

    Entry (i, j) = sum_t (x_i[t] - mean_i)(x_j[t + lag] - mean_j) / (T - |lag|),
    with full-series per-channel means.  At lag 0 this is the population
    covariance matrix, which is symmetric and positive semi-definite.
    """
    x = rec.samples
    n_times = x.shape[1]
    lag = int(lag)
    if abs(lag) >= n_times:
        raise ValueError(f"|lag| ({abs(lag)}) must be below the time length ({n_times})")
    if n_times - abs(lag) < 2:
        raise ValueError(f"lag {lag} leaves a degenerate overlap of < 2 samples")
    centered = x - x.mean(axis=1, keepdims=True)
    tau = abs(lag)
    head = centered[:, : n_times - tau]
    tail = centered[:, tau:]
    # einsum keeps each entry's reduction order fixed, so permuting channels
    # or scaling one channel by a power of two reproduces entries bitwise.
    values = np.einsum("it,jt->ij", head, tail) / (n_times - tau)
    if lag < 0:
        values = values.T
    return CovMatrix(values=values, kept_channels=tuple(range(x.shape[0])), lag=lag)


def rejection_scores(cov: CovMatrix) -> np.ndarray:
    """Per-channel score: the largest |normalised cross-covariance| against
    any other channel.  Channels with non-positive auto-covariance score -1.
    """
    v = cov.values
    k = cov.k
    diag = np.diag(v).copy()
    valid = diag > 0
    scores = np.full(k, -1.0)
    if valid.sum() >= 2:
        d = np.sqrt(diag[valid])
        sub = np.abs(v[np.ix_(valid, valid)]) / np.outer(d, d)
        np.fill_diagonal(sub, -np.inf)
        scores[valid] = sub.max(axis=1)
    return scores


def submatrix(cov: CovMatrix, positions) -> CovMatrix:
    """Restrict ``cov`` to the given row/column positions (ascending)."""
    positions = sorted(int(p) for p in positions)
    values = cov.values[np.ix_(positions, positions)]
    kept = tuple(cov.kept_channels[p] for p in positions)
    return CovMatrix(values=values, kept_channels=kept, lag=cov.lag,
                     zero_variance_channels=cov.zero_variance_channels)


def reject_channels(cov: CovMatrix, threshold: float) -> CovMatrix:
    """Drop channels whose rejection score falls below ``threshold``.

    Zero-variance channels are removed unconditionally and flagged in the
    result.  At least two channels are always retained: if thresholding
    would leave fewer, the two highest-scoring channels are kept.
    """
    if cov.lag != 0:
        raise ValueError("channel rejection requires a lag-0 matrix")
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    diag = np.diag(cov.values)
    if (diag < 0).any():
        raise ValueError("negative auto-covariance on the diagonal")
    dead = [p for p in range(cov.k) if diag[p] <= 0]
    alive = [p for p in range(cov.k) if diag[p] > 0]
    if len(alive) < 2:
        raise ValueError(
            f"fewer than 2 channels with positive variance ({len(alive)} of {cov.k})"
        )
    scores = rejection_scores(cov)
    kept = [p for p in alive if scores[p] >= threshold]
    if len(kept) < 2:
        # keep the 2 highest-scoring; ties resolved toward lower index
        order = sorted(alive, key=lambda p: (-scores[p], p))
        kept = sorted(order[:2])
    flagged = tuple(cov.kept_channels[p] for p in dead)
    out = submatrix(cov, kept)
    return CovMatrix(values=out.values, kept_channels=out.kept_channels, lag=cov.lag,
                     zero_variance_channels=cov.zero_variance_channels + flagged)


def to_network_input(cov: CovMatrix, size: int) -> np.ndarray:
    """Resize to a fixed ``size`` x ``size`` matrix and standardise.

    Oversized matrices keep the ``size`` channels with the highest rejection
    scores; undersized ones are zero-padded on the trailing row/column side
    (keeping the matrix symmetric).  The result is shifted and scaled to zero
    mean and unit variance over all entries; an all-equal matrix maps to all
    zeros.
    """
    size = int(size)
    if size < 2:
        raise ValueError(f"network input size must be >= 2, got {size}")
    k = cov.k
    if k > size:
        scores = rejection_scores(cov)
        # stable: higher score first, lower position on ties
        order = sorted(range(k), key=lambda p: (-scores[p], p))
        m = submatrix(cov, sorted(order[:size])).values
    elif k < size:
        m = np.zeros((size, size))
        m[:k, :k] = cov.values
    else:
        m = np.array(cov.values)
    std = m.std()
    if std == 0.0 or np.ptp(m) == 0.0:
        return np.zeros((size, size))
    return (m - m.mean()) / std

