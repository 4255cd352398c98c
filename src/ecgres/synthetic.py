"""Synthetic MIT-BIH-style database generator.

Writes .hea/.dat/.atr files in the same binary formats the readers consume.
Beats are sums of Gaussian bumps with per-class morphology, plus baseline
wander and measurement noise, so the five classes are distinguishable but
not trivial. Useful for development and for end-to-end tests on machines
without the PhysioNet files.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .wfdb_io import EXCLUDED_RECORDS, MITBIH_RECORDS, encode_annotations, encode_format212

FS = 360
GAIN = 200.0
ADC_ZERO = 1024

# (time offset s, width s, amplitude mV) per wave component
_MORPHOLOGY = {
    "N": [(-0.20, 0.025, 0.15), (-0.025, 0.010, -0.10), (0.0, 0.012, 1.00),
          (0.025, 0.010, -0.20), (0.15, 0.060, 0.30)],
    "L": [(0.0, 0.050, 0.90), (0.06, 0.030, 0.40), (0.20, 0.070, -0.25)],
    "R": [(-0.03, 0.015, -0.35), (0.0, 0.015, 0.80), (0.04, 0.020, 0.50),
          (0.16, 0.060, 0.20)],
    "A": [(-0.15, 0.015, 0.35), (0.0, 0.012, 0.85), (0.14, 0.050, 0.25)],
    "V": [(0.0, 0.060, -1.10), (0.18, 0.070, 0.50)],
}

# Same relative class frequencies in every record.
_CLASS_PROBS = {"N": 0.70, "L": 0.10, "R": 0.10, "A": 0.05, "V": 0.05}


def synth_channel(codes, centers, num_samples, rng, amp_jitter=0.1):
    t = np.arange(num_samples) / FS
    x = np.zeros(num_samples)
    for code, center in zip(codes, centers):
        tc = center / FS
        for off, width, amp in _MORPHOLOGY[code]:
            a = amp * (1.0 + amp_jitter * rng.uniform(-1, 1))
            lo = max(0, int((tc + off - 4 * width) * FS))
            hi = min(num_samples, int((tc + off + 4 * width) * FS) + 1)
            x[lo:hi] += a * np.exp(-0.5 * ((t[lo:hi] - tc - off) / width) ** 2)
    # baseline wander + mains-like ripple + white noise
    x += 0.25 * np.sin(2 * np.pi * 0.33 * t + rng.uniform(0, 2 * np.pi))
    x += 0.15 * np.sin(2 * np.pi * 0.05 * t + rng.uniform(0, 2 * np.pi))
    x += 0.03 * np.sin(2 * np.pi * 50.0 * t + rng.uniform(0, 2 * np.pi))
    x += 0.02 * rng.standard_normal(num_samples)
    return x


def write_record(data_dir, name, duration_s=600, seed=0, lead="MLII"):
    """Generate one synthetic record and write its three WFDB files."""
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    num_samples = duration_s * FS

    centers = []
    codes = []
    pos = rng.integers(int(0.4 * FS), int(0.9 * FS))
    symbols = list(_CLASS_PROBS)
    probs = np.array([_CLASS_PROBS[s] for s in symbols])
    while pos < num_samples - int(0.5 * FS):
        centers.append(int(pos))
        codes.append(symbols[rng.choice(len(symbols), p=probs)])
        pos += int(FS * rng.uniform(0.65, 0.95))

    ch1 = synth_channel(codes, centers, num_samples, rng)
    ch2 = 0.6 * synth_channel(codes, centers, num_samples, rng)

    def to_adc(x):
        return np.clip(np.round(x * GAIN) + ADC_ZERO, -2048, 2047).astype(np.int16)

    (data_dir / f"{name}.dat").write_bytes(encode_format212(to_adc(ch1), to_adc(ch2)))

    header = (
        f"{name} 2 {FS} {num_samples}\n"
        f"{name}.dat 212 {GAIN:g} 11 {ADC_ZERO} 0 0 0 {lead}\n"
        f"{name}.dat 212 {GAIN:g} 11 {ADC_ZERO} 0 0 0 V5\n"
    )
    (data_dir / f"{name}.hea").write_text(header)

    (data_dir / f"{name}.atr").write_bytes(encode_annotations(centers, codes))
    return codes


def make_database(data_dir, duration_s=600, seed=0, records=None):
    """Write a full synthetic stand-in for the 48-record database."""
    records = records if records is not None else MITBIH_RECORDS
    for i, name in enumerate(records):
        # excluded records exist but are never selected; keep them short
        dur = 60 if name in EXCLUDED_RECORDS else duration_s
        write_record(data_dir, name, duration_s=dur, seed=seed * 1000 + i)
    return list(records)
