"""Raw trial representation and the two preprocessing transforms applied to
every trial before feature extraction: zero-phase bandpass filtering and
per-channel mean removal.

Ocular-artifact removal is expected to have happened upstream; recordings fed
in here are either pre-cleaned or synthetic.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np
from scipy.signal import butter, sosfiltfilt

#: The eleven imagined-speech prompts: seven phonemic/syllabic, four words.
PROMPTS = (
    "/iy/", "/piy/", "/tiy/", "/diy/", "/uw/", "/m/", "/n/",
    "pat", "pot", "knew", "gnaw",
)


@dataclass(frozen=True)
class Recording:
    """One trial: a channels x time amplitude matrix plus metadata.

    Instances are immutable; ``samples`` is stored as a read-only float64
    array so trials can be shared freely across threads.
    """

    subject_id: str
    prompt: str
    samples: np.ndarray
    sample_rate_hz: float
    channel_names: tuple[str, ...]

    def __post_init__(self):
        samples = np.ascontiguousarray(self.samples, dtype=np.float64)
        if samples.ndim != 2:
            raise ValueError(f"samples must be 2-D, got shape {samples.shape}")
        n_channels, n_times = samples.shape
        if n_channels < 2:
            raise ValueError(f"need at least 2 channels, got {n_channels}")
        if n_times < 2:
            raise ValueError(f"need at least 2 time points, got {n_times}")
        if not np.isfinite(samples).all():
            raise ValueError("samples contain NaN or Inf amplitudes")
        if not self.sample_rate_hz > 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        if self.prompt not in PROMPTS:
            raise ValueError(f"unknown prompt {self.prompt!r}")
        names = tuple(self.channel_names)
        if len(names) != n_channels:
            raise ValueError(
                f"channel_names has {len(names)} entries for {n_channels} channels"
            )
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "channel_names", names)

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_times(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class BandpassSpec:
    """Butterworth band edges and order for the preprocessing filter.

    Both cutoffs are in Hz; ``low_hz`` may be 0 to request a pure low-pass.
    Validity against the Nyquist rate is only checkable at application time.
    """

    low_hz: float = 1.0
    high_hz: float = 50.0
    order: int = 4

    def __post_init__(self):
        if self.low_hz < 0:
            raise ValueError(f"low_hz must be >= 0, got {self.low_hz}")
        if not self.high_hz > self.low_hz:
            raise ValueError(
                f"high_hz ({self.high_hz}) must exceed low_hz ({self.low_hz})"
            )
        if not (isinstance(self.order, int) and self.order >= 1):
            raise ValueError(f"order must be a positive integer, got {self.order}")

    def validate_for(self, sample_rate_hz: float) -> None:
        nyquist = sample_rate_hz / 2.0
        if self.high_hz >= nyquist:
            raise ValueError(
                f"high_hz ({self.high_hz}) must be below Nyquist ({nyquist})"
            )


def subtract_channel_means(rec: Recording) -> Recording:
    """Remove each channel's arithmetic mean. Shape and metadata unchanged."""
    centered = rec.samples - rec.samples.mean(axis=1, keepdims=True)
    return dataclasses.replace(rec, samples=centered)


@functools.lru_cache(maxsize=16)
def bandpass_sos(spec: BandpassSpec, sample_rate_hz: float) -> np.ndarray:
    """The filter's second-order sections, designed once per spec and rate
    and shared read-only.  A band edge at or above Nyquist is a ValueError."""
    spec.validate_for(sample_rate_hz)
    if spec.low_hz > 0:
        sos = butter(spec.order, [spec.low_hz, spec.high_hz], btype="band",
                     fs=sample_rate_hz, output="sos")
    else:
        sos = butter(spec.order, spec.high_hz, btype="low", fs=sample_rate_hz, output="sos")
    sos.setflags(write=False)
    return sos


def filter_padding(spec: BandpassSpec, sample_rate_hz: float) -> int:
    """Samples `bandpass_filter` pads each end of a trial with, SciPy's
    ``sosfiltfilt`` default for the filter's sections: a trial needs more
    time points than this."""
    sos = bandpass_sos(spec, sample_rate_hz)
    zero_edges = min(int((sos[:, 2] == 0).sum()), int((sos[:, 5] == 0).sum()))
    return 3 * (2 * len(sos) + 1 - zero_edges)


def bandpass_filter(rec: Recording, spec: BandpassSpec) -> Recording:
    """Zero-phase Butterworth bandpass along the time axis.

    The filter is applied forward and backward (cascaded second-order
    sections), so the passband gain is the squared magnitude response and
    phase is exactly zero.
    """
    # a copy: scipy's filter loop needs a writable buffer
    sos = bandpass_sos(spec, rec.sample_rate_hz).copy()
    filtered = sosfiltfilt(sos, rec.samples, axis=1)
    return dataclasses.replace(rec, samples=np.ascontiguousarray(filtered))
