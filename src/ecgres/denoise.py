"""ECG denoising: 8-level db4 wavelet thresholding + moving-average baseline removal.

The denoising is the paper's and fixed, so `denoise` takes no settings; only
the transforms `dwt_forward` and `remove_baseline` take a size.

The wavelet transform is the orthogonal Daubechies-4 (8-tap) filter bank with
periodized boundaries, run in polyphase form. Analysis coefficient i of a
stage x of length N is sum over taps m of h[m] * x[(m + 2i) % N]. Each pass
copies its window of x once into two contiguous phase rows, the even and the
odd samples, so that tap m reads both filters' input as one contiguous slice
of row m % 2 from offset m // 2. Only the last 3
coefficients wrap around the end, so only the pass or passes holding them
fill the rows from a gathered copy of their samples plus the 6 wrapped ones.
Synthesis adds h[m] * a + g[m] * d, delayed by m // 2, into the even (m
even) or odd (m odd) output phase, and interleaves the two phases; only a
pass that starts before coefficient 3 reads a copy of a and d with 3 wrapped
samples in front. Odd-length stages are handled pywt-style: the last sample
is repeated to make the stage even, and the inverse truncates back, so
perfect reconstruction holds for every length; exact energy conservation
additionally requires each stage length to be even.

Both steps run in passes of BLOCK coefficients. Each tap's product goes into
one scratch buffer of a pass and is added into that pass's slice of the
output, so all 8 taps work on data already in cache; taking each tap over a
whole stage (2.6 MB per array on a 650,000-sample record) streams every
operand through main memory 8 times. Every coefficient still sums its taps
in the order m = 0..7 onto 0.0, so the output does not depend on BLOCK.

Working set. `threshold_details` and `remove_baseline` write over their
argument, the details and the float64 lead, and return it; `denoise` hands
them only arrays it made (the decomposition `dwt_forward` returned and the
lead `dwt_inverse` returned), so the caller's signal is never written.
Besides buffers one pass long it holds, in lead sizes, the details (1) and
the level-1 magnitudes (0.5), then the details, the level-1 approximation
and the reconstruction (2.5, the peak), then the reconstruction and its
cumulative sum (2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EcgresError, ParseError

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
BLOCK = 16_384  # coefficients per filter-bank pass; see the module docstring


@dataclass
class WaveletDecomposition:
    approx: np.ndarray
    details: list[np.ndarray]  # index 0 = level 1 (finest)
    # length of the signal fed into each analysis stage (needed to undo
    # odd-length extension on inversion); stage_lengths[0] is the input length
    stage_lengths: list[int]


def _analysis_step(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = len(x)
    half = -(-n // 2)
    a = np.zeros(half)
    d = np.zeros(half)
    phases = np.empty((2, min(half, BLOCK) + 3))
    t = np.empty(min(half, BLOCK))
    for i0 in range(0, half, BLOCK):
        i1 = min(i0 + BLOCK, half)
        w = i1 - i0
        if 2 * i1 + 6 <= n:  # every tap of the pass reads inside the stage
            src, lo = x, 2 * i0
        else:  # src[k] = x[(2 * i0 + k) % (2 * half)], x[n] = x[n - 1] for odd n
            k = np.arange(2 * i0, 2 * i1 + 6) % (2 * half)
            src, lo = x[np.minimum(k, n - 1)], 0
        phases[0, : w + 3] = src[lo : lo + 2 * w + 6 : 2]  # even samples of the window
        phases[1, : w + 3] = src[lo + 1 : lo + 2 * w + 6 : 2]  # odd samples
        ab, db, tb = a[i0:i1], d[i0:i1], t[:w]
        for m in range(8):
            xm = phases[m % 2, m // 2 : m // 2 + w]  # x[(m + 2i) % (2 * half)]
            ab += np.multiply(DB4_H[m], xm, out=tb)
            db += np.multiply(DB4_G[m], xm, out=tb)
    return a, d


def _synthesis_step(a: np.ndarray, d: np.ndarray, out_length: int) -> np.ndarray:
    if len(a) != len(d):
        raise EcgresError(f"approx/detail length mismatch: {len(a)} vs {len(d)}")
    n = len(a)
    x = np.empty(2 * n)
    rows = np.empty((4, min(n, BLOCK)))
    for j0 in range(0, n, BLOCK):
        j1 = min(j0 + BLOCK, n)
        if j0 >= 3:  # ae[j + 3 - s] = a[j - s] for shifts s <= 3
            ae, de, lo = a, d, j0 - 3
        else:  # 3 wrapped samples in front: ae[j + 3 - s] = a[(j - s) % n]
            ae = np.concatenate([a.take(range(-3, 0), mode="wrap"), a[:j1]])
            de = np.concatenate([d.take(range(-3, 0), mode="wrap"), d[:j1]])
            lo = j0
        phases, (t, u) = rows[:2, : j1 - j0], rows[2:, : j1 - j0]
        phases.fill(0.0)
        for m in range(8):
            s = lo + 3 - m // 2
            np.multiply(DB4_H[m], ae[s : s + j1 - j0], out=t)
            t += np.multiply(DB4_G[m], de[s : s + j1 - j0], out=u)
            row = phases[m % 2]  # output samples 2j + m % 2
            row += t
        x[2 * j0 : 2 * j1 : 2] = phases[0]
        x[2 * j0 + 1 : 2 * j1 : 2] = phases[1]
    return x[:out_length]


def dwt_forward(signal, levels: int = DEFAULT_LEVELS) -> WaveletDecomposition:
    """Multi-level periodized db4 analysis."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise EcgresError(f"expected 1-D signal, got shape {x.shape}")
    if levels < 1:
        raise ParseError(f"levels must be >= 1, got {levels}")
    if len(x) < 2 ** levels:
        raise EcgresError(
            f"signal of length {len(x)} too short for {levels} levels "
            f"(at most {max(len(x).bit_length() - 1, 0)} levels fit)"
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
    """T = sigma * sqrt(2 ln N), sigma = MAD(level-1 details) / 0.6745.

    The median is np.median's float from one partition at n // 2: an even
    count averages the lower part's max with it, and a NaN (sorted last)
    makes it NaN.
    """
    mags = np.abs(decomp.details[0])
    k = len(mags) // 2
    mags.partition(k)
    median = mags[k] if len(mags) % 2 else (mags[:k].max() + mags[k]) / 2
    if np.isnan(mags[k:].max()):
        median = np.nan
    sigma = median / 0.6745
    return float(sigma * math.sqrt(2.0 * math.log(decomp.stage_lengths[0])))


def _shrink(c: np.ndarray, threshold: float) -> None:
    """Soft-threshold c in place, in passes of BLOCK coefficients, as
    copysign(max(|c| - threshold, 0), c). That is the product form sign(c) *
    max(...) bit for bit except in the sign of a NaN output and of a -0.0
    coefficient (the product makes it +0.0)."""
    t = np.empty(min(len(c), BLOCK))
    for i0 in range(0, len(c), BLOCK):
        cb = c[i0 : i0 + BLOCK]
        mag = np.abs(cb, out=t[: len(cb)])
        mag -= threshold
        np.maximum(mag, 0.0, out=mag)
        np.copysign(mag, cb, out=cb)


def threshold_details(decomp: WaveletDecomposition) -> WaveletDecomposition:
    """Soft-shrink all detail levels in place by the universal threshold; approx untouched."""
    t = universal_threshold(decomp)
    for d in decomp.details:
        _shrink(d, t)
    return decomp


def remove_baseline(x: np.ndarray, window: int = DEFAULT_BASELINE_WINDOW) -> np.ndarray:
    """Subtract a centered moving average from float64 x in place and return x;
    edge windows shrink symmetrically."""
    n = len(x)
    if window <= 0 or window % 2 == 0:
        raise ParseError(f"window must be a positive odd integer, got {window}")
    if window > n:
        raise EcgresError(f"baseline window {window} exceeds the record's {n} samples")
    half = window // 2
    csum = np.zeros(n + 1)
    np.cumsum(x, out=csum[1:])
    t = np.empty(min(n, BLOCK))
    for i0 in range(half, n - half, BLOCK):  # full windows: one slice difference
        i1 = min(i0 + BLOCK, n - half)
        tb = np.subtract(csum[i0 + half + 1 : i1 + half + 1], csum[i0 - half : i1 - half],
                         out=t[: i1 - i0])
        tb /= window
        x[i0:i1] -= tb
    edge = np.r_[:half, n - half : n]  # windows shrink to 2 * h + 1 samples
    h = np.minimum(edge, n - 1 - edge)
    x[edge] -= (csum[edge + h + 1] - csum[edge - h]) / (2 * h + 1)
    return x


def denoise(signal) -> np.ndarray:
    """Full per-record cleanup: wavelet shrinkage, then baseline removal.

    The shrink gives the product form's bytes: `dwt_forward` sums each
    coefficient onto +0.0, so no detail is -0.0."""
    decomp = threshold_details(dwt_forward(signal))
    x = dwt_inverse(decomp)
    del decomp  # frees the details before the cumulative sum is allocated
    return remove_baseline(x)
