"""Seeded synthetic corpus for desk-scale runs without real EEG.

Each trial mixes three fixed-frequency sinusoid sources into the channels
through a shared random matrix plus a class-dependent offset: class 0 boosts
the first half of the channels, class 1 the second half, scaled by
`separability`.  The class offset shows up directly in the channel covariance
structure, so downstream accuracy rises with separability and sits at chance
when it is 0.  Prompts are assigned so that deriving labels for the chosen
task reproduces the generating class.
"""

from __future__ import annotations

import numpy as np

from . import rng as rng_mod
from .recording import PROMPTS, check_positives, check_sample_rate

SOURCE_FREQS_HZ = (8.0, 13.0, 21.0)


def generate_synthetic_recordings(n_trials: int, n_channels: int, n_subjects: int,
                                  separability: float, seed: int, *,
                                  task_positives=("/uw/",),
                                  n_times: int = 256,
                                  sample_rate_hz: float = 128.0,
                                  noise_scale: float = 0.05):
    """Trial tuples (trial_id, subject_id, prompt, float32 samples).

    Labels alternate 0/1 and subjects rotate over label pairs, so every
    subject sees both classes whenever it has at least two trials.
    """
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if n_channels < 2:
        raise ValueError("n_channels must be >= 2")
    if n_subjects < 1:
        raise ValueError("n_subjects must be >= 1")
    check_sample_rate(sample_rate_hz)
    for name, value in (("separability", separability), ("noise_scale", noise_scale)):
        if not (np.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and >= 0")
    if n_times < 8:
        raise ValueError("n_times must be >= 8")
    positives = check_positives(task_positives)
    negatives = tuple(p for p in PROMPTS if p not in positives)

    mix_rng = rng_mod.stream(seed, "synth", "mixing")
    n_sources = len(SOURCE_FREQS_HZ)
    base_mix = mix_rng.normal(size=(n_channels, n_sources)) / np.sqrt(n_sources)
    offsets = np.zeros((2, n_channels, n_sources))
    offsets[0, : n_channels // 2, :] = 1.0
    offsets[1, n_channels // 2 :, :] = 1.0

    t = np.arange(n_times) / sample_rate_hz
    freqs = np.array(SOURCE_FREQS_HZ)
    trials = []
    for i in range(n_trials):
        label = i % 2
        pick = i // 2
        prompt = positives[pick % len(positives)] if label else negatives[pick % len(negatives)]
        subject = f"s{pick % n_subjects:02d}"
        trial_rng = rng_mod.stream(seed, "synth", "trial", str(i))
        phases = trial_rng.uniform(0.0, 2.0 * np.pi, size=n_sources)
        sources = np.sin(2.0 * np.pi * freqs[:, None] * t[None, :] + phases[:, None])
        mixing = base_mix + separability * offsets[label]
        samples = mixing @ sources
        samples += noise_scale * trial_rng.normal(size=(n_channels, n_times))
        trials.append((f"t{i:04d}", subject, prompt, samples.astype(np.float32)))
    return trials
