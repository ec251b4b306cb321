import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegspeech import covariance
from eegspeech.covariance import (
    CovMatrix,
    ccv_matrix,
    reject_channels,
    rejection_scores,
    submatrix,
    to_network_input,
)
from eegspeech.recording import Recording

from conftest import random_recording


def make(samples, prompt="/uw/"):
    samples = np.asarray(samples, dtype=np.float64)
    return Recording("s00", prompt, samples, 128.0,
                     tuple(f"c{i}" for i in range(samples.shape[0])))


def oracle_ccv(samples: np.ndarray) -> np.ndarray:
    """Direct per-pair summation over every sample."""
    c, n = samples.shape
    means = samples.mean(axis=1)
    out = np.empty((c, c))
    for i in range(c):
        for j in range(c):
            total = 0.0
            for t in range(n):
                total += (samples[i, t] - means[i]) * (samples[j, t] - means[j])
            out[i, j] = total / n
    return out


class TestCcvMatrix:
    def test_constant_channels_give_zero(self):
        cov = ccv_matrix(make([[3, 3, 3, 3], [7, 7, 7, 7]]))
        assert np.array_equal(cov.values, np.zeros((2, 2)))

    def test_alternating_identical_channels(self):
        row = [1, -1, 1, -1]
        cov = ccv_matrix(make([row, row]))
        assert np.allclose(cov.values, np.ones((2, 2)), rtol=0, atol=1e-15)

    def test_symmetric_at_lag_zero(self, rng):
        cov = ccv_matrix(random_recording(rng))
        assert np.array_equal(cov.values, cov.values.T)

    @pytest.mark.parametrize("shape", [(62, 5000), (62, 1000), (62, 256), (32, 256),
                                       (17, 300), (8, 256), (3, 50)])
    def test_tiled_pairs_match_the_full_einsum_bitwise(self, shape):
        # channels at scales far apart, so a changed summation order would show
        rng = np.random.default_rng(shape[0] * 7 + shape[1])
        rec = make(rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=(shape[0], 1)))
        centered = rec.samples - rec.samples.mean(axis=1, keepdims=True)
        want = np.einsum("it,jt->ij", centered, centered) / shape[1]
        assert ccv_matrix(rec).values.tobytes() == want.tobytes()

    def test_matches_double_loop_oracle(self, rng):
        rec = random_recording(rng, n_channels=4, n_times=30)
        got = ccv_matrix(rec, lag=0).values
        want = oracle_ccv(rec.samples)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-10 * max(scale, 1.0)

    def test_kept_channels_cover_all(self, rng):
        rec = random_recording(rng, n_channels=5)
        assert ccv_matrix(rec).k == 5

    def test_lag_out_of_range(self):
        rec = make(np.random.default_rng(0).normal(size=(2, 10)))
        for lag in (1, -1, 10):  # lag 0 is the only one computed
            with pytest.raises(ValueError, match="lag 0"):
                ccv_matrix(rec, lag=lag)

    def test_positive_semidefinite(self, rng):
        for _ in range(25):
            cov = ccv_matrix(random_recording(rng))
            eigs = np.linalg.eigvalsh(cov.values)
            assert eigs.min() >= -1e-8 * max(np.abs(cov.values).max(), 1e-300)

    def test_permutation_equivariance_exact(self, rng):
        rec = random_recording(rng, n_channels=6, n_times=50)
        perm = rng.permutation(6)
        permuted = Recording(rec.subject_id, rec.prompt, rec.samples[perm],
                             rec.sample_rate_hz,
                             tuple(rec.channel_names[i] for i in perm))
        a = ccv_matrix(permuted).values
        b = ccv_matrix(rec).values[np.ix_(perm, perm)]
        assert np.array_equal(a, b)

    def test_scaling_covariance_exact(self, rng):
        rec = random_recording(rng, n_channels=4, n_times=40)
        scaled_samples = rec.samples.copy()
        scaled_samples[1] *= 4.0  # power of two: exact in floating point
        scaled = Recording(rec.subject_id, rec.prompt, scaled_samples,
                           rec.sample_rate_hz, rec.channel_names)
        base = ccv_matrix(rec).values
        got = ccv_matrix(scaled).values
        want = base.copy()
        want[1, :] *= 4.0
        want[:, 1] *= 4.0
        assert np.array_equal(got, want)


class TestRejectChannels:
    def test_identical_channels_none_rejected(self):
        row = np.sin(np.arange(20))
        cov = ccv_matrix(make(np.stack([row, row, row])))
        assert reject_channels(cov, 0.3) == (0, 1, 2)
        assert np.allclose(rejection_scores(cov), 1.0)

    def test_vacuous_threshold_keeps_all(self, rng):
        rec = random_recording(rng, n_channels=4, n_times=60)
        cov = ccv_matrix(rec)
        scores = rejection_scores(cov)
        eps = scores.min() / 2
        assert reject_channels(cov, eps) == (0, 1, 2, 3)

    def test_independent_channel_rejected(self):
        gen = np.random.default_rng(5)
        t = np.arange(400)
        shared = np.sin(0.3 * t)
        ch0 = shared + 0.01 * gen.normal(size=t.size)
        ch1 = shared + 0.01 * gen.normal(size=t.size)
        noise = gen.normal(size=t.size)
        cov = ccv_matrix(make(np.stack([ch0, noise, ch1])))
        scores = rejection_scores(cov)
        # brute-force normalised covariance for the noise channel
        v = cov.values
        brute = max(abs(v[1, j]) / np.sqrt(v[1, 1] * v[j, j]) for j in (0, 2))
        assert scores[1] == pytest.approx(brute)
        assert brute < 0.1
        assert reject_channels(cov, 0.3) == (0, 2)

    def test_zero_variance_channel_flagged(self):
        gen = np.random.default_rng(6)
        shared = gen.normal(size=50)
        flat = np.zeros(50)
        cov = ccv_matrix(make(np.stack([shared, flat, shared * 0.5])))
        assert reject_channels(cov, 0.3) == (0, 2)

    def test_keeps_top_two_when_all_below_threshold(self):
        gen = np.random.default_rng(7)
        x = gen.normal(size=(4, 5000))  # nearly independent channels
        cov = ccv_matrix(make(x))
        assert rejection_scores(cov).max() < 0.5
        kept = reject_channels(cov, 0.999)
        assert len(kept) == 2
        assert all(type(p) is int for p in kept)

    def test_threshold_domain(self, rng):
        cov = ccv_matrix(random_recording(rng))
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="threshold"):
                reject_channels(cov, bad)

    def test_fewer_than_two_live_channels_errors(self):
        cov = ccv_matrix(make(np.vstack([np.zeros(20), np.arange(20.0)])))
        with pytest.raises(ValueError, match="positive variance"):
            reject_channels(cov, 0.3)

    def test_scores_invariant_under_positive_scaling(self, rng):
        rec = random_recording(rng, n_channels=5, n_times=80)
        scaled_samples = rec.samples.copy()
        scaled_samples[2] *= 8.0
        scaled = Recording(rec.subject_id, rec.prompt, scaled_samples,
                           rec.sample_rate_hz, rec.channel_names)
        a = rejection_scores(ccv_matrix(rec))
        b = rejection_scores(ccv_matrix(scaled))
        assert np.allclose(a, b, rtol=1e-12, atol=0)


class TestToNetworkInput:
    def test_same_size_is_standardised(self, rng):
        cov = ccv_matrix(random_recording(rng, n_channels=5))
        out = to_network_input(cov, 5)
        assert out.shape == (5, 5)
        assert abs(out.mean()) < 1e-9
        assert out.std() == pytest.approx(1.0, abs=1e-9)

    def test_all_equal_matrix_maps_to_zeros(self):
        cov = CovMatrix(np.full((3, 3), 2.5))
        assert np.array_equal(to_network_input(cov, 3), np.zeros((3, 3)))

    def test_padding_placement(self):
        values = np.arange(9.0).reshape(3, 3)
        values = (values + values.T) / 2
        cov = CovMatrix(values)
        out = to_network_input(cov, 4)
        padded = np.zeros((4, 4))
        padded[:3, :3] = values
        want = (padded - padded.mean()) / padded.std()
        assert np.allclose(out, want, rtol=0, atol=1e-12)
        # undoing the standardisation exposes the zero last row/column
        raw = out * padded.std() + padded.mean()
        assert np.allclose(raw[3, :], 0.0, atol=1e-12)
        assert np.allclose(raw[:, 3], 0.0, atol=1e-12)

    def test_oversised_keeps_highest_scoring(self):
        gen = np.random.default_rng(8)
        t = np.arange(300)
        shared = np.sin(0.2 * t)
        rows = [shared + 0.01 * gen.normal(size=t.size) for _ in range(3)]
        rows.insert(1, gen.normal(size=t.size))  # weakly coupled channel
        cov = ccv_matrix(make(np.stack(rows)))
        scores = rejection_scores(cov)
        assert np.argmin(scores) == 1
        out = to_network_input(cov, 3)
        keep = sorted(np.argsort(-scores)[:3])
        want = cov.values[np.ix_(keep, keep)]
        want = (want - want.mean()) / want.std()
        assert np.allclose(out, want, rtol=0, atol=1e-12)

    def test_size_below_two_rejected(self, rng):
        cov = ccv_matrix(random_recording(rng))
        with pytest.raises(ValueError, match="size"):
            to_network_input(cov, 1)


class TestCovMatrixType:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            CovMatrix(np.zeros((2, 3)))

    def test_rejects_asymmetric_at_lag_zero(self):
        with pytest.raises(ValueError, match="symmetric"):
            CovMatrix(np.array([[1.0, 2.0], [0.5, 1.0]]))

    @pytest.mark.parametrize("values, accepted", [
        ([[2.0, 0.5], [0.5, 1.0]], True),  # exactly symmetric
        ([[np.inf, -1.0], [-1.0, -np.inf]], True),
        ([[1.0, 0.5 + 1e-12], [0.5, 1.0]], True),  # asymmetric within atol
        ([[1.0, 0.5 + 1e-6], [0.5, 1.0]], False),  # asymmetric beyond atol
        ([[1.0, np.inf], [0.5, 1.0]], False),
        ([[np.nan, 0.5], [0.5, 1.0]], False),  # NaN on the diagonal
        ([[1.0, np.nan], [np.nan, 1.0]], False),
    ])
    def test_symmetry_check_agrees_with_the_tolerance_rule(self, values, accepted):
        # the exact-equality shortcut changes nothing that allclose decides;
        # numpy warns of the infinite or NaN atol that a non-finite entry makes
        values = np.array(values)
        scale = np.abs(values).max()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert np.allclose(values, values.T, rtol=0,
                               atol=1e-9 * max(scale, 1e-300)) == accepted
            if accepted:
                assert CovMatrix(values).values.tobytes() == values.tobytes()
            else:
                with pytest.raises(ValueError, match="symmetric"):
                    CovMatrix(values)

    def test_values_are_read_only(self):
        cov = CovMatrix(np.eye(2))
        with pytest.raises(ValueError):
            cov.values[0, 0] = 2.0

    def test_submatrix_tracks_original_indices(self, rng):
        cov = ccv_matrix(random_recording(rng, n_channels=5))
        sub = submatrix(cov, (4, 0, 2))
        assert np.array_equal(sub.values, cov.values[np.ix_([0, 2, 4], [0, 2, 4])])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_ccv_psd_and_oracle_property(seed):
    gen = np.random.default_rng(seed)
    rec = random_recording(gen, n_channels=int(gen.integers(2, 7)),
                           n_times=int(gen.integers(8, 40)))
    cov = ccv_matrix(rec)
    assert np.array_equal(cov.values, cov.values.T)
    eigs = np.linalg.eigvalsh(cov.values)
    assert eigs.min() >= -1e-8 * max(np.abs(cov.values).max(), 1e-300)
    want = oracle_ccv(rec.samples)
    assert np.abs(cov.values - want).max() <= 1e-10 * max(np.abs(want).max(), 1.0)
