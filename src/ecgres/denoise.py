"""ECG denoising: 8-level db4 wavelet thresholding + moving-average baseline removal.

The wavelet transform is the orthogonal Daubechies-4 (8-tap) filter bank with
periodized boundaries, run in polyphase form: tap m touches phase m % 2 of the
stage (every other sample), circularly shifted by m // 2. Odd-length stages
are handled pywt-style: the last sample is repeated to make the stage even,
and the inverse truncates back, so perfect reconstruction holds for every
length; exact energy conservation additionally requires each stage length to
be even.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import LengthError, ParameterError, ShapeError

# db4 scaling (low-pass analysis) filter, orthonormal: sum h = sqrt(2), sum h^2 = 1.
DB4_H = np.array([
    0.23037781330885523,
    0.71484657055254153,
    0.63088076792959036,
    -0.02798376941698385,
    -0.18703481171888114,
    0.03084138183598697,
    0.03288301166698295,
    -0.01059740178499728,
])
# Quadrature mirror high-pass: g[m] = (-1)^m h[L-1-m].
DB4_G = ((-1.0) ** np.arange(8)) * DB4_H[::-1]

DEFAULT_LEVELS = 8
DEFAULT_BASELINE_WINDOW = 251  # ~0.70 s at 360 Hz


@dataclass
class WaveletDecomposition:
    approx: np.ndarray
    details: list[np.ndarray]  # index 0 = level 1 (finest)
    # length of the signal fed into each analysis stage (needed to undo
    # odd-length extension on inversion); stage_lengths[0] is the input length
    stage_lengths: list[int]


@dataclass(frozen=True)
class ThresholdPolicy:
    mode: str = "soft"  # "soft" | "hard"

    def __post_init__(self):
        if self.mode not in ("soft", "hard"):
            raise ParameterError(f"unknown threshold mode {self.mode!r}")


def _analysis_step(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if len(x) % 2:
        x = np.concatenate([x, x[-1:]])
    a = np.zeros(len(x) // 2)
    d = np.zeros(len(x) // 2)
    for m in range(8):
        xm = np.roll(x[m % 2 :: 2], -(m // 2))
        a += DB4_H[m] * xm
        d += DB4_G[m] * xm
    return a, d


def _synthesis_step(a: np.ndarray, d: np.ndarray, out_length: int) -> np.ndarray:
    if len(a) != len(d):
        raise ShapeError(f"approx/detail length mismatch: {len(a)} vs {len(d)}")
    x = np.zeros(2 * len(a))
    for m in range(8):
        x[m % 2 :: 2] += np.roll(DB4_H[m] * a + DB4_G[m] * d, m // 2)
    return x[:out_length]


def dwt_forward(signal, levels: int = DEFAULT_LEVELS) -> WaveletDecomposition:
    """Multi-level periodized db4 analysis."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"expected 1-D signal, got shape {x.shape}")
    if levels < 1:
        raise ParameterError(f"levels must be >= 1, got {levels}")
    if len(x) < 2 ** levels:
        raise LengthError(
            f"signal of length {len(x)} too short for {levels} levels "
            f"(at most {len(x).bit_length() - 1} levels fit)"
        )
    details = []
    stage_lengths = []
    for _ in range(levels):
        stage_lengths.append(len(x))
        x, d = _analysis_step(x)
        details.append(d)
    return WaveletDecomposition(x, details, stage_lengths)


def dwt_inverse(decomp: WaveletDecomposition) -> np.ndarray:
    """Invert dwt_forward; exact reconstruction for untouched coefficients."""
    x = decomp.approx
    for d, n in zip(reversed(decomp.details), reversed(decomp.stage_lengths)):
        x = _synthesis_step(x, d, n)
    return x


def universal_threshold(decomp: WaveletDecomposition) -> float:
    """T = sigma * sqrt(2 ln N), sigma = MAD(level-1 details) / 0.6745."""
    sigma = np.median(np.abs(decomp.details[0])) / 0.6745
    return float(sigma * math.sqrt(2.0 * math.log(decomp.stage_lengths[0])))


def apply_threshold(coeffs: np.ndarray, threshold: float, mode: str) -> np.ndarray:
    if mode == "soft":
        return np.sign(coeffs) * np.maximum(np.abs(coeffs) - threshold, 0.0)
    return np.where(np.abs(coeffs) > threshold, coeffs, 0.0)


def threshold_details(
    decomp: WaveletDecomposition, policy: ThresholdPolicy = ThresholdPolicy()
) -> WaveletDecomposition:
    """Shrink all detail levels by the universal threshold; approx untouched."""
    t = universal_threshold(decomp)
    details = [apply_threshold(d, t, policy.mode) for d in decomp.details]
    return replace(decomp, details=details)


def remove_baseline(signal, window: int = DEFAULT_BASELINE_WINDOW) -> np.ndarray:
    """Subtract a centered moving average; edge windows shrink symmetrically."""
    x = np.asarray(signal, dtype=np.float64)
    n = len(x)
    if window <= 0 or window % 2 == 0:
        raise ParameterError(f"window must be a positive odd integer, got {window}")
    if window > n:
        raise LengthError(f"baseline window {window} exceeds the record's {n} samples")
    half = window // 2
    idx = np.arange(n)
    h = np.minimum(half, np.minimum(idx, n - 1 - idx))
    csum = np.concatenate([[0.0], np.cumsum(x)])
    baseline = (csum[idx + h + 1] - csum[idx - h]) / (2 * h + 1)
    return x - baseline


def denoise(
    signal,
    levels: int = DEFAULT_LEVELS,
    window: int = DEFAULT_BASELINE_WINDOW,
    policy: ThresholdPolicy = ThresholdPolicy(),
) -> np.ndarray:
    """Full per-record cleanup: wavelet shrinkage, then baseline removal."""
    decomp = dwt_forward(signal, levels)
    decomp = threshold_details(decomp, policy)
    cleaned = dwt_inverse(decomp)
    return remove_baseline(cleaned, window)
