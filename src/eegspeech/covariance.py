"""Channel cross-covariance features.

The joint variability of all electrode pairs is summarised in one square
matrix per trial: entry (i, j) is the empirical covariance between channels i
and j at lag 0, with per-channel empirical means and normalisation by the
number of samples.  Channels whose strongest normalised cross-covariance with
any other channel falls below a threshold are rejected before the matrix is
resized and standardised into a fixed network input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .recording import Recording

# Tolerance for the symmetry check on freshly built matrices.
_SYMMETRY_RTOL = 1e-9
#: Rows per tile of ``ccv_matrix``'s upper triangle.
_TILE = 16


@dataclass(frozen=True)
class CovMatrix:
    """A k x k covariance matrix: square, finite, symmetric and read-only."""

    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"values must be square, got shape {values.shape}")
        # an infinite or NaN entry would make the symmetry tolerance infinite or NaN
        if not np.isfinite(values).all():
            raise ValueError("a covariance matrix must be finite")
        # exact symmetry, the common case, passes the tolerance check too
        if values.size and not np.array_equal(values, values.T):
            scale = np.abs(values).max()
            if not np.allclose(values, values.T, rtol=0, atol=_SYMMETRY_RTOL * max(scale, 1e-300)):
                raise ValueError("a covariance matrix must be symmetric")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def k(self) -> int:
        return self.values.shape[0]


def ccv_matrix(rec: Recording, lag: int = 0) -> CovMatrix:
    """Covariance of every channel pair at lag 0.

    Entry (i, j) = sum_t (x_i[t] - mean_i)(x_j[t] - mean_j) / T: the
    population covariance matrix, which is symmetric and positive
    semi-definite.  ``lag`` is accepted for callers that spell out the lag;
    any value but 0 is a ValueError.
    """
    if lag != 0:
        raise ValueError(f"only lag 0 is supported, got lag {lag}")
    x = rec.samples
    centered = x - x.mean(axis=1, keepdims=True)
    # einsum keeps each entry's reduction order fixed, so permuting channels
    # or scaling one channel by a power of two reproduces entries bitwise,
    # and entry (j, i) has the bits of entry (i, j).  So each pair is summed
    # once, over tiles of rows of the upper triangle, and mirrored.
    k = x.shape[0]
    out = np.empty((k, k))
    for lo in range(0, k, _TILE):
        hi = min(lo + _TILE, k)
        tile = np.einsum("it,jt->ij", centered[lo:hi], centered[lo:])
        out[lo:hi, lo:] = tile
        out[hi:, lo:hi] = tile[:, hi - lo:].T
    out /= x.shape[1]
    return CovMatrix(out)


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
    return CovMatrix(cov.values[np.ix_(positions, positions)])


def reject_channels(cov: CovMatrix, threshold: float) -> tuple[int, ...]:
    """The ascending positions of the channels whose rejection score reaches
    ``threshold``.

    Zero-variance channels are never kept.  At least two channels are always
    kept: if thresholding would leave fewer, the two highest-scoring channels
    are.
    """
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    diag = np.diag(cov.values)
    if (diag < 0).any():
        raise ValueError("negative auto-covariance on the diagonal")
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
    return tuple(kept)


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

