"""Waveform cleanup: truncation, db4 wavelet denoising, standardization.

A raw 12x1000 record (100 Hz) is cut to its first quarter, each lead is
denoised by soft-thresholding the detail bands of a 4-level Daubechies-4
decomposition, and finally standardized to zero mean / unit variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ecgfusion.errors import DataError

N_LEADS = 12
RAW_SAMPLES = 1000
CLEAN_SAMPLES = 250
SAMPLE_RATE_HZ = 100.0

# Daubechies scaling filter with 4 vanishing moments (8 taps).  The
# remaining analysis/synthesis filters follow from the standard
# quadrature-mirror relations; sum(REC_LO) == sqrt(2).
REC_LO = np.array(
    [
        0.23037781330885523,
        0.71484657055254153,
        0.63088076792959036,
        -0.02798376941698385,
        -0.18703481171888114,
        0.03084138183598697,
        0.03288301166698295,
        -0.01059740178499728,
    ]
)
DEC_LO = REC_LO[::-1].copy()
DEC_HI = np.array([-(-1.0) ** k * REC_LO[k] for k in range(len(REC_LO))])
REC_HI = DEC_HI[::-1].copy()
FILTER_LEN = len(REC_LO)


@dataclass
class RawEcg:
    """One unprocessed record: 12 leads of 1000 samples at 100 Hz."""

    leads: np.ndarray
    record_id: str

    def __post_init__(self):
        self.leads = np.asarray(self.leads, dtype=np.float64)
        if self.leads.shape != (N_LEADS, RAW_SAMPLES):
            raise DataError(
                f"raw record {self.record_id!r}: expected shape "
                f"{(N_LEADS, RAW_SAMPLES)}, got {self.leads.shape}"
            )
        if not np.isfinite(self.leads).all():
            raise DataError(f"raw record {self.record_id!r}: non-finite samples")


@dataclass
class CleanEcg:
    """Denoised, standardized 12x250 model input."""

    leads: np.ndarray
    record_id: str

    def __post_init__(self):
        self.leads = np.asarray(self.leads, dtype=np.float64)
        if self.leads.shape != (N_LEADS, CLEAN_SAMPLES):
            raise DataError(
                f"clean record {self.record_id!r}: expected shape "
                f"{(N_LEADS, CLEAN_SAMPLES)}, got {self.leads.shape}"
            )
        if not np.isfinite(self.leads).all():
            raise DataError(f"clean record {self.record_id!r}: non-finite samples")


@dataclass
class WaveletCoeffs:
    """Multi-level decomposition: coarsest approximation plus detail
    bands ordered finest first."""

    approx: np.ndarray
    details: list = field(default_factory=list)
    original_length: int = 0


def _level_lengths(n: int, levels: int) -> list[int]:
    """Signal length at each cascade stage, [n, n1, ..., n_levels]."""
    out = [n]
    for _ in range(levels):
        out.append((out[-1] + FILTER_LEN - 1) // 2)
    return out


def _analyze(x: np.ndarray, filt: np.ndarray) -> np.ndarray:
    # symmetric (half-point) extension, full convolution, dyadic downsample
    ext = np.pad(x, FILTER_LEN - 1, mode="symmetric")
    full = np.convolve(ext, filt)
    seg = full[FILTER_LEN - 1 : FILTER_LEN - 1 + len(x) + FILTER_LEN - 1]
    return seg[1::2]


def _synthesize(ca: np.ndarray, cd: np.ndarray, out_len: int) -> np.ndarray:
    o = len(ca)
    up_a = np.zeros(2 * o - 1)
    up_a[::2] = ca
    up_d = np.zeros(2 * o - 1)
    up_d[::2] = cd
    rec = np.convolve(up_a, REC_LO) + np.convolve(up_d, REC_HI)
    y = rec[FILTER_LEN - 2 : 2 * o]
    if len(y) < out_len:
        raise DataError(f"inconsistent wavelet lengths: can rebuild {len(y)}, need {out_len}")
    return y[:out_len]


def dwt_db4(signal: np.ndarray, levels: int) -> WaveletCoeffs:
    """Cascaded db4 analysis with symmetric boundary extension."""
    x = np.asarray(signal, dtype=np.float64)
    n = len(x)
    if n < FILTER_LEN:
        raise DataError(f"signal of length {n} shorter than filter ({FILTER_LEN})")
    if levels < 1 or 2**levels > n:
        raise DataError(f"cannot run {levels} levels on a length-{n} signal")
    details = []
    approx = x
    for _ in range(levels):
        details.append(_analyze(approx, DEC_HI))
        approx = _analyze(approx, DEC_LO)
    return WaveletCoeffs(approx=approx, details=details, original_length=n)


def idwt_db4(coeffs: WaveletCoeffs) -> np.ndarray:
    """Synthesis filter bank inverting ``dwt_db4``; one level per detail band."""
    levels = len(coeffs.details)
    lengths = _level_lengths(coeffs.original_length, levels)
    if len(coeffs.approx) != lengths[-1]:
        raise DataError("wavelet coefficients inconsistent with original_length")
    y = coeffs.approx
    for level in range(levels - 1, -1, -1):
        cd = coeffs.details[level]
        if len(cd) != lengths[level + 1]:
            raise DataError(
                f"detail band {level} has length {len(cd)}, expected {lengths[level + 1]}"
            )
        y = _synthesize(y, cd, lengths[level])
    return y


def soft_threshold(coeffs: np.ndarray, t: float) -> np.ndarray:
    """Shrink toward zero: sign(x) * max(|x| - t, 0)."""
    if t < 0:
        raise ValueError(f"threshold must be nonnegative, got {t}")
    c = np.asarray(coeffs, dtype=np.float64)
    return np.sign(c) * np.maximum(np.abs(c) - t, 0.0)


def compute_threshold(finest_details: np.ndarray, n: int) -> float:
    """Universal threshold with the median-absolute-deviation noise
    estimate: (median|d| / 0.6745) * sqrt(2 ln n)."""
    d = np.asarray(finest_details, dtype=np.float64)
    if d.size == 0:
        raise ValueError("cannot estimate a threshold from an empty band")
    sigma = np.median(np.abs(d)) / 0.6745
    return float(sigma * math.sqrt(2.0 * math.log(n)))


DENOISE_LEVELS = 4


def denoise(lead: np.ndarray) -> np.ndarray:
    """Soft-threshold every detail band (threshold estimated from the
    finest band), leaving the approximation untouched."""
    x = np.asarray(lead, dtype=np.float64)
    coeffs = dwt_db4(x, DENOISE_LEVELS)
    t = compute_threshold(coeffs.details[0], len(x))
    coeffs.details = [soft_threshold(d, t) for d in coeffs.details]
    return idwt_db4(coeffs)


def standardize(lead: np.ndarray) -> np.ndarray:
    """Zero mean, unit variance per lead; flat leads hit the variance
    floor and come out all zero."""
    x = np.asarray(lead, dtype=np.float64)
    mu = x.mean()
    var = x.var()
    return (x - mu) / math.sqrt(max(var, 1e-8))


def truncate_quarter(raw: RawEcg) -> np.ndarray:
    """Keep the first 250 of 1000 samples per lead (12000 -> 3000 points)."""
    return raw.leads[:, :CLEAN_SAMPLES].copy()


def preprocess_record(raw: RawEcg) -> CleanEcg:
    """Full cleanup for one record: truncate, denoise, standardize."""
    block = truncate_quarter(raw)
    out = np.empty_like(block)
    for i in range(N_LEADS):
        out[i] = standardize(denoise(block[i]))
    return CleanEcg(leads=out, record_id=raw.record_id)
