"""Tests for the waveform cleanup pipeline.

The wavelet transform is checked against a brute-force filter-bank
oracle (explicit index reflection, scalar loops) that shares no code
with the production path.  The row-block code is also checked bitwise
against the per-lead ``np.pad`` + ``np.convolve`` pipeline it replaced.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ecgfusion import data, sigproc
from ecgfusion.errors import DataError
from ecgfusion.sigproc import (
    CleanEcg,
    DEC_HI,
    DEC_LO,
    FILTER_LEN,
    REC_HI,
    REC_LO,
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


# Per-lead reference: the cleanup one lead at a time, as np.pad and
# np.convolve compute it.  The row-block code must match it bitwise.


def lead_analyze(x, filt):
    ext = np.pad(x, FILTER_LEN - 1, mode="symmetric")
    full = np.convolve(ext, filt)
    seg = full[FILTER_LEN - 1 : FILTER_LEN - 1 + len(x) + FILTER_LEN - 1]
    return seg[1::2]


def lead_synthesize(ca, cd, out_len):
    o = len(ca)
    up_a = np.zeros(2 * o - 1)
    up_a[::2] = ca
    up_d = np.zeros(2 * o - 1)
    up_d[::2] = cd
    rec = np.convolve(up_a, REC_LO) + np.convolve(up_d, REC_HI)
    return rec[FILTER_LEN - 2 : 2 * o][:out_len]


def lead_dwt(x, levels):
    details, approx = [], x
    for _ in range(levels):
        details.append(lead_analyze(approx, DEC_HI))
        approx = lead_analyze(approx, DEC_LO)
    return approx, details


def lead_idwt(approx, details, n):
    lengths = [n]
    for _ in details:
        lengths.append((lengths[-1] + FILTER_LEN - 1) // 2)
    y = approx
    for level in range(len(details) - 1, -1, -1):
        y = lead_synthesize(y, details[level], lengths[level])
    return y


def lead_threshold(finest, n):
    return float(np.median(np.abs(finest)) / 0.6745 * math.sqrt(2.0 * math.log(n)))


def lead_soft(d, t):
    return np.sign(d) * np.maximum(np.abs(d) - t, 0.0)


def lead_denoise(x):
    approx, details = lead_dwt(x, 4)
    t = lead_threshold(details[0], len(x))
    return lead_idwt(approx, [lead_soft(d, t) for d in details], len(x))


def lead_standardize(x):
    return (x - x.mean()) / math.sqrt(max(x.var(), 1e-8))


def lead_preprocess(leads):
    return np.stack([lead_standardize(lead_denoise(lead[:250])) for lead in leads])


def oracle_corpus():
    """Synthetic records at 20 seeds, random records across 12 decades of
    scale with offsets, and the degenerate records."""
    for seed in range(20):
        ds = data.synth_dataset(3, seed=seed)
        for rid in sorted(ds.waveforms):
            yield f"synth{seed}/{rid}", ds.waveforms[rid]
    rng = np.random.default_rng(1101)
    for i in range(300):
        scale = 10.0 ** rng.uniform(-6, 6)
        yield f"random{i}", scale * (rng.normal(size=(12, 1000)) + 10.0 * rng.normal())
    flat = rng.normal(size=(12, 1000))
    flat[3] = 2.5
    yield "one flat lead", flat
    yield "all zero", np.zeros((12, 1000))
    spike = np.zeros((12, 1000))
    spike[:, 17] = 5.0
    yield "single spike", spike


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

    @pytest.mark.parametrize("shape", [(), (2, 3, 64)])
    def test_rank_other_than_one_or_two_rejected(self, shape):
        with pytest.raises(DataError, match="1-D.*2-D"):
            dwt_db4(np.zeros(shape), 1)

    def test_length_checks_apply_to_last_axis(self):
        with pytest.raises(DataError, match="shorter"):
            dwt_db4(np.zeros((12, 4)), 1)
        with pytest.raises(DataError, match="levels"):
            dwt_db4(np.zeros((12, 8)), 4)
        assert dwt_db4(np.zeros((3, 8)), 3).approx.shape == (3, 7)


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

    def test_rank_other_than_one_or_two_rejected(self):
        coeffs = dwt_db4(np.zeros((3, 64)), 2)
        coeffs.approx = coeffs.approx[None]
        with pytest.raises(DataError, match="1-D.*2-D"):
            idwt_db4(coeffs)

    def test_rows_of_bands_must_agree(self):
        coeffs = dwt_db4(np.zeros((3, 64)), 2)
        coeffs.details[1] = coeffs.details[1][:2]
        with pytest.raises(DataError, match="detail band 1 has shape"):
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

    def test_negative_row_threshold_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            soft_threshold(np.ones((3, 5)), np.array([0.5, -1e-300, 2.0]))

    def test_row_thresholds_must_match_rows(self):
        with pytest.raises(ValueError, match="do not fit"):
            soft_threshold(np.ones(5), np.array([0.5, 1.0]))

    def test_one_threshold_per_row(self):
        out = soft_threshold(np.full((2, 3), 5.0), np.array([1.0, 4.0]))
        np.testing.assert_array_equal(out, [[4.0] * 3, [1.0] * 3])

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

    def test_two_d_band_gives_one_threshold_per_row(self):
        band = np.array([[1.0, -2.0, 3.0], [0.0, 0.0, 0.0]])
        t = compute_threshold(band, 250)
        assert t.shape == (2,) and t[1] == 0.0
        assert t[0] == compute_threshold(band[0], 250)

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 5)])
    def test_empty_band_rejected(self, shape):
        with pytest.raises(ValueError, match="empty"):
            compute_threshold(np.zeros(shape), 250)

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

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 64, 65, 128, 131])
    def test_median_bitwise_equal_to_np_median(self, n):
        rng = np.random.default_rng(n)
        for scale in (1e-300, 1e-6, 1.0, 1e6, 1e300):
            band = np.abs(rng.normal(size=(5, n))) * scale
            band[1] = np.round(band[1] / scale) * scale  # ties
            band[2] = 0.0
            assert np.array_equal(sigproc._median(band), np.median(band, axis=-1))
            assert np.array_equal(sigproc._median(band[0]), np.median(band[0]))

    def test_median_is_nan_for_a_row_holding_nan(self):
        band = np.ones((3, 6))
        band[1, 2] = np.nan
        assert np.array_equal(sigproc._median(band), np.median(band, axis=-1), equal_nan=True)

    def test_cleaning_a_record_leaves_numpy_ma_unimported(self):
        # np.median's first call imports numpy.ma, a one-off cost in the
        # first record a fresh process cleans
        code = (
            "import sys, numpy as np\n"
            "from ecgfusion import sigproc\n"
            "raw = sigproc.RawEcg(np.random.default_rng(0).normal(size=(12, 1000)), 'r')\n"
            "sigproc.preprocess_record(raw)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(sigproc.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60, check=True)
        assert out.stdout.strip() == "False"


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


class TestPerLeadOracle:
    """Row blocks give bitwise what the per-lead np.convolve pipeline gives."""

    def test_preprocess_record_matches_per_lead_oracle(self):
        count = 0
        for tag, leads in oracle_corpus():
            clean = preprocess_record(RawEcg(leads=leads, record_id=tag)).leads
            assert np.array_equal(clean, lead_preprocess(leads)), tag
            count += 1
        assert count == 623

    @pytest.mark.parametrize("n", [64, 101, 128, 250, 256])
    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_row_wise_functions_match_per_row_loop(self, n, levels):
        rng = np.random.default_rng(1000 * n + levels)
        x = 10.0 ** rng.uniform(-3, 3) * rng.normal(size=(5, n)) + rng.normal()
        coeffs = dwt_db4(x, levels)
        per_row = [dwt_db4(row, levels) for row in x]
        assert np.array_equal(coeffs.approx, np.stack([c.approx for c in per_row]))
        for level, band in enumerate(coeffs.details):
            assert np.array_equal(band, np.stack([c.details[level] for c in per_row]))
        assert np.array_equal(idwt_db4(coeffs), np.stack([idwt_db4(c) for c in per_row]))
        t = compute_threshold(coeffs.details[-1], n)
        assert np.array_equal(t, [compute_threshold(c.details[-1], n) for c in per_row])
        assert np.array_equal(
            soft_threshold(coeffs.details[0], t),
            np.stack([soft_threshold(c.details[0], tr) for c, tr in zip(per_row, t)]),
        )
        assert np.array_equal(denoise(x), np.stack([denoise(row) for row in x]))
        assert np.array_equal(standardize(x), np.stack([standardize(row) for row in x]))

    @pytest.mark.parametrize("n", [64, 101, 128, 250, 256])
    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_one_lead_matches_per_lead_oracle(self, n, levels):
        x = np.random.default_rng(n + 10 * levels).normal(size=n)
        coeffs = dwt_db4(x, levels)
        approx, details = lead_dwt(x, levels)
        assert np.array_equal(coeffs.approx, approx)
        assert all(np.array_equal(a, b) for a, b in zip(coeffs.details, details, strict=True))
        assert np.array_equal(idwt_db4(coeffs), lead_idwt(approx, details, n))
        t = compute_threshold(details[0], n)
        assert isinstance(t, float) and t == lead_threshold(details[0], n)
        assert np.array_equal(soft_threshold(details[0], t), lead_soft(details[0], t))
        assert np.array_equal(denoise(x), lead_denoise(x))
        assert np.array_equal(standardize(x), lead_standardize(x))
