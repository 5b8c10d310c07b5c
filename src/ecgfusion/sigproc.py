"""Waveform cleanup: truncation, db4 wavelet denoising, standardization.

A raw 12x1000 record (100 Hz) is cut to its first quarter, each lead is
denoised by soft-thresholding the detail bands of a 4-level Daubechies-4
decomposition, and finally standardized to zero mean / unit variance.

The transforms, thresholds and standardization take one lead (1-D) or a
rows x samples block (2-D) and work along the last axis, so a record is
cleaned with one call each.  Every row comes out bitwise equal to cleaning
that lead on its own with np.pad and np.convolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
    bands ordered finest first; 2-D bands hold one row per lead."""

    approx: np.ndarray
    details: list = field(default_factory=list)
    original_length: int = 0


def _level_lengths(n: int, levels: int) -> list[int]:
    """Signal length at each cascade stage, [n, n1, ..., n_levels]."""
    out = [n]
    for _ in range(levels):
        out.append((out[-1] + FILTER_LEN - 1) // 2)
    return out


def _rows(x, what: str) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim not in (1, 2):
        raise DataError(f"{what} must be one lead (1-D) or rows x samples (2-D), got {a.ndim}-D")
    return a


# Convolving with a filter is correlating with it reversed, and the
# reversed db4 filters are the other pair (DEC_LO[::-1] == REC_LO): analysis
# correlates with REC_HI and REC_LO, synthesis with these two rows.
_SYNTHESIS_TAPS = np.stack([DEC_LO, DEC_HI])  # approximation, detail


def _windows(x: np.ndarray, count: int, step: int) -> np.ndarray:
    # ``count`` length-8 windows along the last axis, ``step`` apart.  Kept
    # as a strided view, matmul adds the 8 products in tap order, as
    # np.convolve does where the filter fully overlaps; a contiguous copy
    # would go to BLAS gemv, which may add them in another order.
    s = x.strides[-1]
    return as_strided(
        x, x.shape[:-1] + (count, FILTER_LEN), x.strides[:-1] + (step * s, s), writeable=False
    )


def _analyze(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One analysis level along the last axis: (detail, approximation)."""
    # symmetric (half-point) extension by 7 samples, full convolution,
    # then every second output from the 9th on
    ext = np.concatenate([x[..., FILTER_LEN - 2 :: -1], x, x[..., : -FILTER_LEN : -1]], axis=-1)
    win = _windows(ext[..., 1:], (x.shape[-1] + FILTER_LEN - 1) // 2, 2)
    return win @ REC_HI, win @ REC_LO


def _synthesize(ca: np.ndarray, cd: np.ndarray, out_len: int) -> np.ndarray:
    """One synthesis level: outputs 6 .. 6+out_len-1 of the full
    convolutions of the zero-upsampled bands with REC_LO and REC_HI."""
    o = ca.shape[-1]
    # both bands upsampled (coefficients at the odd positions) with one zero
    # of padding at each end, so output j correlates up[..., j : j+8]
    up = np.zeros(ca.shape[:-1] + (2, 2 * o + 1))
    up[..., 0, 1::2] = ca
    up[..., 1, 1::2] = cd
    parts = (_windows(up, out_len, 1) @ _SYNTHESIS_TAPS[..., None])[..., 0]
    # Where the filter only partly overlaps the band (the first output, and
    # the last when out_len reaches the convolution's end) np.convolve takes
    # a BLAS dot over the overlap; vecdot with contiguous taps does the same.
    parts[..., 0] = np.vecdot(up[..., 1:FILTER_LEN], _SYNTHESIS_TAPS[:, 1:])
    if out_len == 2 * o - FILTER_LEN + 2:
        parts[..., -1] = np.vecdot(up[..., 2 * o + 1 - FILTER_LEN : 2 * o], _SYNTHESIS_TAPS[:, :-1])
    return parts[..., 0, :] + parts[..., 1, :]


def dwt_db4(signal: np.ndarray, levels: int) -> WaveletCoeffs:
    """Cascaded db4 analysis with symmetric boundary extension, along the
    last axis of one lead or of a rows x samples block."""
    x = _rows(signal, "signal")
    n = x.shape[-1]
    if n < FILTER_LEN:
        raise DataError(f"signal of length {n} shorter than filter ({FILTER_LEN})")
    if levels < 1 or 2**levels > n:
        raise DataError(f"cannot run {levels} levels on a length-{n} signal")
    details = []
    approx = x
    for _ in range(levels):
        detail, approx = _analyze(approx)
        details.append(detail)
    return WaveletCoeffs(approx=approx, details=details, original_length=n)


def idwt_db4(coeffs: WaveletCoeffs) -> np.ndarray:
    """Synthesis filter bank inverting ``dwt_db4``; one level per detail band."""
    levels = len(coeffs.details)
    lengths = _level_lengths(coeffs.original_length, levels)
    y = _rows(coeffs.approx, "approximation band")
    if y.shape[-1] != lengths[-1]:
        raise DataError("wavelet coefficients inconsistent with original_length")
    for level in range(levels - 1, -1, -1):
        cd = _rows(coeffs.details[level], f"detail band {level}")
        if cd.shape[:-1] != y.shape[:-1]:
            raise DataError(f"detail band {level} has shape {cd.shape}, approximation {y.shape}")
        if cd.shape[-1] != lengths[level + 1]:
            raise DataError(
                f"detail band {level} has length {cd.shape[-1]}, expected {lengths[level + 1]}"
            )
        y = _synthesize(y, cd, lengths[level])
    return y


def soft_threshold(coeffs: np.ndarray, t) -> np.ndarray:
    """Shrink toward zero: sign(x) * max(|x| - t, 0).  ``t`` is one
    threshold, or an array of one per row of ``coeffs``."""
    c = np.asarray(coeffs, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if t.ndim and t.shape != c.shape[:-1]:
        raise ValueError(f"thresholds of shape {t.shape} do not fit coefficients of shape {c.shape}")
    if (t < 0).any():
        raise ValueError(f"threshold must be nonnegative, got {t.min()}")
    return np.sign(c) * np.maximum(np.abs(c) - t[..., None], 0.0)


def _median(a: np.ndarray) -> np.ndarray:
    """np.median along the last axis, bitwise equal to it: the middle
    value of each sorted row, or the mean of the middle two; NaN where a
    row holds one.  np.median's first call imports numpy.ma, which adds
    15-35 ms to the first record a fresh process cleans."""
    s = np.sort(a, axis=-1)
    h = s.shape[-1] // 2
    mid = s[..., h] if s.shape[-1] % 2 else (s[..., h - 1] + s[..., h]) / 2.0
    return np.where(np.isnan(s[..., -1]), np.nan, mid)


def compute_threshold(finest_details: np.ndarray, n: int) -> float | np.ndarray:
    """Universal threshold with the median-absolute-deviation noise
    estimate: (median|d| / 0.6745) * sqrt(2 ln n).  A 2-D band gives one
    threshold per row."""
    d = np.asarray(finest_details, dtype=np.float64)
    if d.size == 0:
        raise ValueError("cannot estimate a threshold from an empty band")
    sigma = _median(np.abs(d)) / 0.6745
    t = sigma * math.sqrt(2.0 * math.log(n))
    return float(t) if d.ndim == 1 else t


DENOISE_LEVELS = 4


def denoise(lead: np.ndarray) -> np.ndarray:
    """Soft-threshold every detail band (threshold estimated from the
    finest band), leaving the approximation untouched.  A 2-D block is
    denoised row by row, each row with its own threshold."""
    x = np.asarray(lead, dtype=np.float64)
    coeffs = dwt_db4(x, DENOISE_LEVELS)
    t = compute_threshold(coeffs.details[0], x.shape[-1])
    coeffs.details = [soft_threshold(d, t) for d in coeffs.details]
    return idwt_db4(coeffs)


def standardize(lead: np.ndarray) -> np.ndarray:
    """Zero mean, unit variance per lead (per row of a 2-D block); flat
    leads hit the variance floor and come out all zero."""
    x = np.asarray(lead, dtype=np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(np.maximum(var, 1e-8))


def truncate_quarter(raw: RawEcg) -> np.ndarray:
    """Keep the first 250 of 1000 samples per lead (12000 -> 3000 points)."""
    return raw.leads[:, :CLEAN_SAMPLES].copy()


def preprocess_record(raw: RawEcg) -> CleanEcg:
    """Full cleanup for one record: truncate, denoise, standardize."""
    block = truncate_quarter(raw)
    return CleanEcg(leads=standardize(denoise(block)), record_id=raw.record_id)
