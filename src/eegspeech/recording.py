"""Raw trial representation and the two preprocessing transforms applied to
every trial before feature extraction: zero-phase bandpass filtering and
per-channel mean removal.

Ocular-artifact removal is expected to have happened upstream; recordings fed
in here are either pre-cleaned or synthetic.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import butter, sosfilt, sosfilt_zi

from .bounds import check_bounds

#: The eleven imagined-speech prompts: seven phonemic/syllabic, four words.
PROMPTS = (
    "/iy/", "/piy/", "/tiy/", "/diy/", "/uw/", "/m/", "/n/",
    "pat", "pot", "knew", "gnaw",
)


def check_prompt(prompt: str) -> None:
    """A ValueError unless ``prompt`` is one of `PROMPTS`."""
    if prompt not in PROMPTS:
        raise ValueError(f"unknown prompt {prompt!r}")


def check_subject(subject_id: str) -> None:
    """A ValueError if ``subject_id``, part of a fold's path, holds "/" or NUL."""
    if "/" in subject_id or "\0" in subject_id:
        raise ValueError(f"subject id {subject_id!r} may not contain '/' or NUL")


def check_positives(positives) -> tuple[str, ...]:
    """A task's positive prompts as a tuple; a ValueError unless they are a
    non-empty strict subset of `PROMPTS`, so both classes can occur."""
    positives = tuple(positives)
    if not positives or not set(positives) < set(PROMPTS):
        raise ValueError(f"positive prompts {list(positives)} must be a non-empty strict "
                         f"subset of the prompts")
    return positives


def check_sample_rate(sample_rate_hz: float) -> None:
    """A ValueError unless ``sample_rate_hz`` is finite and > 0."""
    if not 0.0 < sample_rate_hz < np.inf:
        raise ValueError(f"sample_rate_hz must be finite and > 0, got {sample_rate_hz!r}")


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
        check_sample_rate(self.sample_rate_hz)
        check_prompt(self.prompt)
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
    Validity against the Nyquist rate depends on a trial's sampling rate, so
    `bandpass_design` checks it once per spec and rate.
    """

    low_hz: float = field(default=1.0, metadata={"minimum": 0})
    high_hz: float = field(default=50.0, metadata={"exclusiveMinimum": 0})
    order: int = field(default=4, metadata={"minimum": 1})

    def __post_init__(self):
        if not isinstance(self.order, int):
            raise ValueError(f"order must be an integer, got {self.order!r}")
        check_bounds(self)
        if not self.high_hz > self.low_hz:
            raise ValueError(
                f"high_hz ({self.high_hz}) must exceed low_hz ({self.low_hz})"
            )


def subtract_channel_means(rec: Recording) -> Recording:
    """Remove each channel's arithmetic mean. Shape and metadata unchanged."""
    centered = rec.samples - rec.samples.mean(axis=1, keepdims=True)
    return dataclasses.replace(rec, samples=centered)


@dataclass(frozen=True, eq=False)
class BandpassDesign:
    """The preprocessing filter for one spec and sampling rate, shared
    read-only: its second-order sections ``sos``, their steady state for a
    unit step ``zi`` (SciPy's ``sosfilt_zi``, shaped (sections, 1, 2) to
    scale by a trial's first samples), and the ``padding`` it extends each
    end of a trial by, SciPy's ``sosfiltfilt`` default for these sections."""

    sos: np.ndarray
    zi: np.ndarray
    padding: int

    def check_length(self, n_times: int) -> None:
        """A ValueError unless a trial of ``n_times`` points is longer than
        the padding."""
        if n_times <= self.padding:
            raise ValueError(f"{n_times} time points are too few for the bandpass filter, "
                             f"which pads each end with {self.padding}")


@functools.lru_cache(maxsize=16)
def bandpass_design(spec: BandpassSpec, sample_rate_hz: float) -> BandpassDesign:
    """The filter for ``spec`` at ``sample_rate_hz``, designed once per spec
    and rate.  A band edge at or above Nyquist is a ValueError."""
    nyquist = sample_rate_hz / 2.0
    if spec.high_hz >= nyquist:
        raise ValueError(f"high_hz ({spec.high_hz}) must be below Nyquist ({nyquist})")
    if spec.low_hz > 0:
        sos = butter(spec.order, [spec.low_hz, spec.high_hz], btype="band",
                     fs=sample_rate_hz, output="sos")
    else:
        sos = butter(spec.order, spec.high_hz, btype="low", fs=sample_rate_hz, output="sos")
    zi = sosfilt_zi(sos)[:, None, :]
    sos.setflags(write=False)
    zi.setflags(write=False)
    zero_edges = min(int((sos[:, 2] == 0).sum()), int((sos[:, 5] == 0).sum()))
    return BandpassDesign(sos, zi, 3 * (2 * len(sos) + 1 - zero_edges))


def bandpass_filter(rec: Recording, spec: BandpassSpec) -> Recording:
    """Zero-phase Butterworth bandpass along the time axis.

    The filter is applied forward and backward (cascaded second-order
    sections), so the passband gain is the squared magnitude response and
    phase is exactly zero.  The steps and their bits are SciPy's
    ``sosfiltfilt`` at its default padding: an odd extension of the
    design's ``padding`` samples at each end, one ``sosfilt`` pass forward
    and one over the reversed output, each started from the design's steady
    state scaled by its first sample, and the padding sliced off.  The
    filter is `bandpass_design`'s for the trial's rate, and a trial it
    refuses (`BandpassDesign.check_length`) is a ValueError.
    """
    design = bandpass_design(spec, rec.sample_rate_hz)
    design.check_length(rec.n_times)
    # a copy: scipy's filter loop needs a writable buffer
    sos, zi, pad = design.sos.copy(), design.zi, design.padding
    x = rec.samples
    ext = np.concatenate((2 * x[:, :1] - x[:, pad:0:-1], x,
                          2 * x[:, -1:] - x[:, -2:-(pad + 2):-1]), axis=1)
    y, _ = sosfilt(sos, ext, zi=zi * ext[:, :1])
    y, _ = sosfilt(sos, y[:, ::-1], zi=zi * y[:, -1:])
    # freed before the contiguous copy, which reuses its pages, as in sosfiltfilt
    del ext
    return dataclasses.replace(rec, samples=np.ascontiguousarray(y[:, ::-1][:, pad:-pad]))
