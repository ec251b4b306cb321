import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import sosfiltfilt

from eegspeech.recording import (
    PROMPTS,
    BandpassSpec,
    Recording,
    bandpass_design,
    bandpass_filter,
    subtract_channel_means,
)

from conftest import random_recording


def make(samples, rate=128.0):
    samples = np.asarray(samples, dtype=np.float64)
    return Recording(subject_id="s00", prompt="/uw/", samples=samples,
                     sample_rate_hz=rate,
                     channel_names=tuple(f"c{i}" for i in range(samples.shape[0])))


class TestRecordingInvariants:
    def test_valid_construction(self):
        rec = make(np.zeros((3, 8)))
        assert rec.n_channels == 3
        assert rec.n_times == 8

    def test_rejects_single_channel(self):
        with pytest.raises(ValueError, match="2 channels"):
            make(np.zeros((1, 8)))

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError, match="2 time points"):
            make(np.zeros((2, 1)))

    def test_rejects_nan(self):
        bad = np.zeros((2, 4))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            make(bad)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="sample_rate"):
            make(np.zeros((2, 4)), rate=0.0)

    def test_rejects_unknown_prompt(self):
        with pytest.raises(ValueError, match="prompt"):
            Recording("s", "/zz/", np.zeros((2, 4)), 128.0, ("a", "b"))

    def test_rejects_name_count_mismatch(self):
        with pytest.raises(ValueError, match="channel_names"):
            Recording("s", "/uw/", np.zeros((3, 4)), 128.0, ("a", "b"))

    def test_prompt_set_has_eleven_entries(self):
        assert len(PROMPTS) == 11
        assert len(set(PROMPTS)) == 11

    def test_samples_are_immutable(self):
        rec = make(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            rec.samples[0, 0] = 1.0


class TestMeanSubtraction:
    def test_constant_channel_goes_to_zero(self):
        rec = subtract_channel_means(make([[1, 1, 1, 1], [2, 2, 2, 2]]))
        assert np.array_equal(rec.samples, np.zeros((2, 4)))

    def test_two_point_channel(self):
        rec = subtract_channel_means(make([[1, 3], [0, 0]]))
        assert np.array_equal(rec.samples[0], [-1.0, 1.0])

    def test_arithmetic_sequence(self):
        rec = subtract_channel_means(make([[2, 4, 6, 8], [0, 0, 0, 0]]))
        assert np.array_equal(rec.samples[0], [-3.0, -1.0, 1.0, 3.0])

    def test_output_means_are_zero(self, rng):
        rec = subtract_channel_means(random_recording(rng))
        assert np.abs(rec.samples.mean(axis=1)).max() < 1e-9

    def test_idempotent(self, rng):
        once = subtract_channel_means(random_recording(rng))
        twice = subtract_channel_means(once)
        assert np.abs(twice.samples - once.samples).max() < 1e-12

    def test_metadata_preserved(self, rng):
        rec = random_recording(rng)
        out = subtract_channel_means(rec)
        assert out.subject_id == rec.subject_id
        assert out.prompt == rec.prompt
        assert out.channel_names == rec.channel_names
        assert out.sample_rate_hz == rec.sample_rate_hz
        assert out.samples.shape == rec.samples.shape

    def test_commutes_with_channel_permutation(self, rng):
        rec = random_recording(rng, n_channels=5)
        perm = rng.permutation(5)
        permuted = make_perm(rec, perm)
        a = subtract_channel_means(permuted).samples
        b = subtract_channel_means(rec).samples[perm]
        assert np.array_equal(a, b)


def make_perm(rec: Recording, perm) -> Recording:
    return Recording(rec.subject_id, rec.prompt, rec.samples[perm],
                     rec.sample_rate_hz, tuple(rec.channel_names[i] for i in perm))


def steady_amplitude(signal: np.ndarray, freq_hz: float, rate: float) -> float:
    """Peak amplitude at freq_hz from the FFT of the middle of the signal."""
    n = len(signal)
    core = signal[n // 4 : -n // 4]
    spectrum = np.fft.rfft(core * np.hanning(len(core)))
    freqs = np.fft.rfftfreq(len(core), d=1.0 / rate)
    window_gain = np.hanning(len(core)).sum() / 2.0
    idx = int(np.argmin(np.abs(freqs - freq_hz)))
    return np.abs(spectrum[idx]) / window_gain


class TestBandpassSpec:
    def test_defaults(self):
        spec = BandpassSpec()
        assert (spec.low_hz, spec.high_hz, spec.order) == (1.0, 50.0, 4)

    def test_rejects_inverted_band(self):
        with pytest.raises(ValueError, match="exceed"):
            BandpassSpec(low_hz=30.0, high_hz=10.0)

    def test_rejects_negative_low(self):
        with pytest.raises(ValueError, match="low_hz"):
            BandpassSpec(low_hz=-1.0)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError, match="order"):
            BandpassSpec(order=0)

    def test_rejects_cutoff_above_nyquist(self):
        rec = make(np.zeros((2, 64)), rate=64.0)
        with pytest.raises(ValueError, match="Nyquist"):
            bandpass_filter(rec, BandpassSpec(high_hz=40.0))


def test_a_design_is_made_once_and_shared_read_only():
    spec = BandpassSpec(low_hz=2.0, high_hz=30.0, order=3)
    design = bandpass_design(spec, 128.0)
    assert bandpass_design(spec, 128.0) is design
    assert design.zi.shape == (len(design.sos), 1, 2)
    for array in (design.sos, design.zi):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1.0


class TestBandpassFilter:
    RATE = 256.0

    def sinusoid(self, freq, n=2048):
        t = np.arange(n) / self.RATE
        row = np.sin(2 * np.pi * freq * t)
        return make(np.stack([row, row]), rate=self.RATE)

    def test_constant_channel_rejected(self):
        rec = make(np.full((2, 1024), 5.0), rate=self.RATE)
        out = bandpass_filter(rec, BandpassSpec(low_hz=1.0, high_hz=50.0))
        settled = out.samples[:, 256:-256]
        assert np.abs(settled).max() < 0.01 * 5.0

    def test_passband_center_retained(self):
        spec = BandpassSpec(low_hz=1.0, high_hz=50.0)
        center = np.sqrt(spec.low_hz * spec.high_hz)
        rec = self.sinusoid(center)
        out = bandpass_filter(rec, spec)
        ratio = steady_amplitude(out.samples[0], center, self.RATE) / steady_amplitude(
            rec.samples[0], center, self.RATE)
        assert ratio >= 0.7

    def test_stopband_attenuated(self):
        spec = BandpassSpec(low_hz=1.0, high_hz=30.0)
        freq = 2 * spec.high_hz
        rec = self.sinusoid(freq)
        out = bandpass_filter(rec, spec)
        ratio = steady_amplitude(out.samples[0], freq, self.RATE) / steady_amplitude(
            rec.samples[0], freq, self.RATE)
        assert ratio <= 0.3

    def test_lowpass_when_low_is_zero(self):
        rec = make(np.full((2, 1024), 3.0), rate=self.RATE)
        out = bandpass_filter(rec, BandpassSpec(low_hz=0.0, high_hz=40.0))
        # a pure low-pass keeps DC
        assert np.abs(out.samples[:, 256:-256] - 3.0).max() < 0.01

    def test_shape_and_metadata_preserved(self, rng):
        rec = random_recording(rng, n_times=64)
        out = bandpass_filter(rec, BandpassSpec())
        assert out.samples.shape == rec.samples.shape
        assert out.channel_names == rec.channel_names

    @pytest.mark.parametrize("spec, rate", [(BandpassSpec(), 128.0),
                                            (BandpassSpec(low_hz=0.0), 128.0),
                                            (BandpassSpec(order=3), 1000.0),
                                            (BandpassSpec(low_hz=0.0, order=5), 256.0)])
    def test_a_trial_needs_more_time_points_than_the_padding(self, spec, rate):
        padding = bandpass_design(spec, rate).padding
        bandpass_filter(make(np.ones((2, padding + 1)), rate=rate), spec)
        with pytest.raises(ValueError, match=f"pads each end with {padding}$"):
            bandpass_filter(make(np.ones((2, padding)), rate=rate), spec)

    # band-pass and low-pass, orders 1 to 8, at each rate: lengths from one
    # past the padding to 1000 samples, 2, 8 and 62 channels
    ORACLE_SPECS = (BandpassSpec(), BandpassSpec(low_hz=0.0, order=1), BandpassSpec(order=8),
                    BandpassSpec(low_hz=0.0, high_hz=30.0, order=5),
                    BandpassSpec(low_hz=4.0, high_hz=40.0, order=2))

    @pytest.mark.parametrize("rate", [128.0, 256.0, 1000.0])
    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_pads_by_the_design_padding_with_scipys_default_bits(self, spec, rate):
        rng = np.random.default_rng(7)
        padding = bandpass_design(spec, rate).padding
        for n_times in (padding + 1, padding + 2, 2 * padding + 1, 256, 1000):
            for n_channels in (2, 8, 62):
                rec = random_recording(rng, n_channels=n_channels, n_times=n_times,
                                       sample_rate_hz=rate)
                out = bandpass_filter(rec, spec).samples
                expected = sosfiltfilt(bandpass_design(spec, rate).sos.copy(), rec.samples,
                                       axis=1)
                assert out.flags.c_contiguous
                assert out.tobytes() == expected.tobytes(), (n_times, n_channels)

    def test_commutes_with_channel_permutation(self, rng):
        rec = random_recording(rng, n_channels=4, n_times=128)
        perm = rng.permutation(4)
        spec = BandpassSpec()
        a = bandpass_filter(make_perm(rec, perm), spec).samples
        b = bandpass_filter(rec, spec).samples[perm]
        assert np.array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mean_subtraction_idempotent_property(seed):
    rec = random_recording(np.random.default_rng(seed))
    once = subtract_channel_means(rec)
    twice = subtract_channel_means(once)
    assert np.abs(twice.samples - once.samples).max() < 1e-12
