"""Tests for the waveform cleanup pipeline.

The wavelet transform is checked against a brute-force filter-bank
oracle (explicit index reflection, scalar loops) that shares no code
with the production path.
"""

import math

import numpy as np
import pytest

from ecgfusion import sigproc
from ecgfusion.errors import DataError
from ecgfusion.sigproc import (
    CleanEcg,
    DEC_HI,
    DEC_LO,
    RawEcg,
    WaveletCoeffs,
    compute_threshold,
    denoise,
    dwt_db4,
    idwt_db4,
    preprocess_record,
    soft_threshold,
    standardize,
    truncate_quarter,
)


def naive_dwt_band(x, filt):
    """Direct convolve-then-downsample with explicit symmetric reflection."""
    n, L = len(x), len(filt)

    def sample(i):
        while i < 0 or i >= n:
            if i < 0:
                i = -1 - i
            if i >= n:
                i = 2 * n - 1 - i
        return x[i]

    out = []
    for k in range((n + L - 1) // 2):
        acc = 0.0
        for j in range(L):
            acc += filt[j] * sample(2 * k + 1 - j)
        out.append(acc)
    return np.array(out)


def sine(freq_hz, n=250, rate=100.0):
    return np.sin(2 * np.pi * freq_hz * np.arange(n) / rate)


def snr_db(reference, signal):
    return 10 * np.log10((reference**2).sum() / ((signal - reference) ** 2).sum())


class TestFilters:
    def test_lowpass_dc_gain_is_sqrt2(self):
        assert abs(DEC_LO.sum() - math.sqrt(2)) < 1e-14

    def test_highpass_kills_dc(self):
        assert abs(DEC_HI.sum()) < 1e-14

    def test_orthonormal(self):
        # published db4 constants carry ~1e-12 truncation error
        assert abs((DEC_LO**2).sum() - 1.0) < 1e-11
        assert abs(DEC_LO @ DEC_HI) < 1e-14


class TestDwt:
    def test_constant_signal_has_zero_details(self):
        coeffs = dwt_db4(np.full(128, 2.5), 4)
        for d in coeffs.details:
            assert np.abs(d).max() < 1e-10

    def test_linear_ramp_details_vanish_in_interior(self):
        coeffs = dwt_db4(np.linspace(0.0, 10.0, 256), 1)
        interior = coeffs.details[0][4:-4]
        assert np.abs(interior).max() < 1e-10

    def test_matches_filter_bank_oracle(self):
        x = np.random.default_rng(17).normal(size=64)
        coeffs = dwt_db4(x, 1)
        np.testing.assert_allclose(coeffs.details[0], naive_dwt_band(x, DEC_HI), atol=1e-10)
        np.testing.assert_allclose(coeffs.approx, naive_dwt_band(x, DEC_LO), atol=1e-10)

    def test_two_levels_match_cascaded_oracle(self):
        x = np.random.default_rng(18).normal(size=64)
        coeffs = dwt_db4(x, 2)
        a1 = naive_dwt_band(x, DEC_LO)
        np.testing.assert_allclose(coeffs.details[1], naive_dwt_band(a1, DEC_HI), atol=1e-10)
        np.testing.assert_allclose(coeffs.approx, naive_dwt_band(a1, DEC_LO), atol=1e-10)

    def test_too_short_signal_rejected(self):
        with pytest.raises(DataError, match="shorter"):
            dwt_db4(np.zeros(4), 1)
        with pytest.raises(DataError, match="levels"):
            dwt_db4(np.zeros(8), 4)


class TestIdwt:
    @pytest.mark.parametrize("n", [64, 128, 250, 256])
    def test_perfect_reconstruction(self, n):
        x = np.random.default_rng(n).normal(size=n)
        back = idwt_db4(dwt_db4(x, 4))
        assert np.abs(back - x).max() < 1e-8

    def test_zero_coefficients_give_zero_signal(self):
        coeffs = dwt_db4(np.zeros(96), 3)
        assert np.abs(idwt_db4(coeffs)).max() == 0.0

    def test_linearity_under_scaling(self):
        x = np.random.default_rng(5).normal(size=128)
        coeffs = dwt_db4(x, 3)
        doubled = WaveletCoeffs(
            approx=2 * coeffs.approx,
            details=[2 * d for d in coeffs.details],
            original_length=coeffs.original_length,
        )
        np.testing.assert_allclose(idwt_db4(doubled), 2 * idwt_db4(coeffs), atol=1e-10)

    def test_inconsistent_lengths_rejected(self):
        coeffs = dwt_db4(np.random.default_rng(0).normal(size=64), 2)
        coeffs.details[0] = coeffs.details[0][:-1]
        with pytest.raises(DataError, match="length"):
            idwt_db4(coeffs)


class TestSoftThreshold:
    @pytest.mark.parametrize(
        "x,t,expect", [(1.0, 2.0, 0.0), (5.0, 2.0, 3.0), (-5.0, 2.0, -3.0)]
    )
    def test_pointwise(self, x, t, expect):
        assert soft_threshold(np.array([x]), t)[0] == expect

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            soft_threshold(np.array([1.0]), -0.5)

    def test_energy_nonincreasing_in_threshold(self):
        d = np.random.default_rng(3).normal(size=200)
        energies = [(soft_threshold(d, t) ** 2).sum() for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(energies, energies[1:]))


class TestComputeThreshold:
    def test_constant_magnitude_band(self):
        c, n = 0.9, 500
        t = compute_threshold(np.full(40, c), n)
        assert abs(t - (c / 0.6745) * math.sqrt(2 * math.log(n))) < 1e-12

    def test_zero_band_gives_zero(self):
        assert compute_threshold(np.zeros(30), 1000) == 0.0

    def test_unit_normal_monte_carlo(self):
        # MAD/0.6745 estimates sigma=1, so t should sit near sqrt(2 ln 1000)
        rng = np.random.default_rng(42)
        target = math.sqrt(2 * math.log(1000))
        draws = [compute_threshold(rng.normal(size=503), 1000) for _ in range(100)]
        assert abs(np.mean(draws) - target) / target < 0.10

    def test_monotone_in_noise_scale(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=128)
        t_small = compute_threshold(0.5 * base, 250)
        t_large = compute_threshold(2.0 * base, 250)
        assert t_large > t_small


class TestDenoise:
    def test_clean_sine_preserved(self):
        x = sine(2.0)
        assert np.corrcoef(x, denoise(x))[0, 1] >= 0.99

    def test_noisy_sine_snr_improves(self):
        clean = sine(2.0)
        rng = np.random.default_rng(11)
        noise_sd = math.sqrt((clean**2).mean() / 10 ** (5 / 10))  # 5 dB SNR
        noisy = clean + rng.normal(scale=noise_sd, size=clean.size)
        assert snr_db(clean, denoise(noisy)) > snr_db(clean, noisy)

    def test_zero_in_zero_out(self):
        assert np.abs(denoise(np.zeros(250))).max() == 0.0

    def test_length_preserved(self):
        assert denoise(np.random.default_rng(1).normal(size=250)).size == 250

    def test_idempotent_up_to_drift(self):
        rng = np.random.default_rng(13)
        x = sine(3.0) + rng.normal(scale=0.4, size=250)
        once = denoise(x)
        twice = denoise(once)
        assert np.abs(twice - once).max() < np.abs(once - x).max()


class TestStandardize:
    def test_flat_lead_hits_variance_floor(self):
        np.testing.assert_array_equal(standardize(np.ones(4)), np.zeros(4))

    def test_already_standardized(self):
        np.testing.assert_allclose(standardize(np.array([1.0, -1.0])), [1.0, -1.0], atol=1e-12)

    def test_moments(self):
        x = np.random.default_rng(9).normal(loc=3.0, scale=4.0, size=250)
        z = standardize(x)
        assert abs(z.mean()) < 1e-12
        assert abs(z.var() - 1.0) < 1e-9


class TestTruncateAndRecord:
    def make_raw(self, fill=None):
        rng = np.random.default_rng(21)
        leads = rng.normal(size=(12, 1000)) if fill is None else np.full((12, 1000), fill)
        return RawEcg(leads=leads, record_id="r1")

    def test_first_quarter_kept(self):
        raw = RawEcg(leads=np.tile(np.arange(1000.0), (12, 1)), record_id="ramp")
        out = truncate_quarter(raw)
        np.testing.assert_array_equal(out[0], np.arange(250.0))

    def test_total_points_3000(self):
        assert truncate_quarter(self.make_raw()).size == 3000

    def test_constant_lead_stays_constant(self):
        out = truncate_quarter(self.make_raw(fill=1.25))
        assert (out == 1.25).all()

    def test_preprocess_record_contract(self):
        clean = preprocess_record(self.make_raw())
        assert isinstance(clean, CleanEcg)
        assert clean.leads.shape == (12, 250)
        np.testing.assert_allclose(clean.leads.mean(axis=1), 0.0, atol=1e-9)

    def test_raw_shape_validation(self):
        with pytest.raises(DataError, match="shape"):
            RawEcg(leads=np.zeros((12, 999)), record_id="bad")
        with pytest.raises(DataError, match="non-finite"):
            RawEcg(leads=np.full((12, 1000), np.inf), record_id="bad")
