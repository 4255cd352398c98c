import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgres import denoise as dn
from ecgres.errors import EcgresError, ParseError


def dwt_step_oracle(x):
    """Direct convolve-and-decimate with mod indexing, independent of the
    vectorized implementation."""
    n = len(x)
    assert n % 2 == 0
    a = [sum(dn.DB4_H[m] * x[(2 * k + m) % n] for m in range(8)) for k in range(n // 2)]
    d = [sum(dn.DB4_G[m] * x[(2 * k + m) % n] for m in range(8)) for k in range(n // 2)]
    return np.array(a), np.array(d)


def analysis_step_oracle(x):
    """The modulo-index gather form of one analysis stage, kept as the
    bit-exact reference for the polyphase `_analysis_step`."""
    n = len(x)
    if n % 2:
        x = np.concatenate([x, x[-1:]])
        n += 1
    k = np.arange(n // 2)
    a = np.zeros(n // 2)
    d = np.zeros(n // 2)
    for m in range(8):
        xm = x[(2 * k + m) % n]
        a += dn.DB4_H[m] * xm
        d += dn.DB4_G[m] * xm
    return a, d


def synthesis_step_oracle(a, d, out_length):
    """The modulo-index scatter form of one synthesis stage, kept as the
    bit-exact reference for the polyphase `_synthesis_step`."""
    n = 2 * len(a)
    k = np.arange(len(a))
    x = np.zeros(n)
    for m in range(8):
        x[(2 * k + m) % n] += dn.DB4_H[m] * a + dn.DB4_G[m] * d
    return x[:out_length]


def assert_steps_match_oracles(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    for got, want in zip(dn._analysis_step(x), analysis_step_oracle(x)):
        assert got.tobytes() == want.tobytes()
    half = -(-n // 2)
    a, d = rng.standard_normal(half), rng.standard_normal(half)
    got = dn._synthesis_step(a, d, n)
    assert got.tobytes() == synthesis_step_oracle(a, d, n).tobytes()


DENOISE_SIGNAL_SEED = 8
DENOISE_SHA256 = {
    "default": "e36383d2f9b676ca2dd0b4d50e53a052f3baae46d43482404a5d23b3a259c255",
}


class TestFilters:
    def test_orthonormality(self):
        assert np.sum(dn.DB4_H**2) == pytest.approx(1.0, abs=1e-12)
        assert np.sum(dn.DB4_H) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert np.sum(dn.DB4_G) == pytest.approx(0.0, abs=1e-12)
        # analysis pair is orthogonal under even shifts
        for shift in (2, 4, 6):
            assert np.dot(dn.DB4_H, np.roll(dn.DB4_H, shift)) == pytest.approx(
                np.dot(dn.DB4_H[:-shift], dn.DB4_H[shift:]), abs=1e-12
            )


class TestForward:
    def test_constant_signal_details_vanish(self):
        decomp = dn.dwt_forward(np.full(256, 5.0), 8)
        for d in decomp.details:
            assert np.abs(d).max() < 1e-12

    def test_ramp_against_oracle(self):
        x = np.arange(32, dtype=np.float64)
        decomp = dn.dwt_forward(x, 1)
        a, d = dwt_step_oracle(x)
        assert np.allclose(decomp.approx, a, atol=1e-12)
        assert np.allclose(decomp.details[0], d, atol=1e-12)
        # db4 annihilates linear trends away from the periodic wrap-around
        assert np.abs(d[:10]).max() < 1e-10
        assert np.abs(d).max() > 1.0  # the wrap-around discontinuity

    def test_too_short_signal(self):
        with pytest.raises(EcgresError, match="length 255 too short for 8 levels"):
            dn.dwt_forward(np.zeros(255), 8)

    def test_detail_lengths(self):
        n = 1000
        decomp = dn.dwt_forward(np.random.default_rng(0).standard_normal(n), 8)
        length = n
        for k, d in enumerate(decomp.details, start=1):
            assert len(d) == -(-n // 2**k) == math.ceil(n / 2**k)
        assert decomp.stage_lengths[0] == n

    def test_impulse_roundtrip(self):
        x = np.zeros(512)
        x[100] = 1.0
        r = dn.dwt_inverse(dn.dwt_forward(x, 8))
        assert np.abs(r - x).max() < 1e-9

    @given(st.integers(256, 4096), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, n, seed):
        x = np.random.default_rng(seed).standard_normal(n)
        r = dn.dwt_inverse(dn.dwt_forward(x, 8))
        assert np.abs(r - x).max() < 1e-9

    def test_energy_conservation_even_stages(self):
        rng = np.random.default_rng(1)
        for n in (256, 1024, 2048, 65536):
            x = rng.standard_normal(n)
            decomp = dn.dwt_forward(x, 8)
            coeff_energy = sum(
                float(np.sum(c**2)) for c in [decomp.approx, *decomp.details]
            )
            assert coeff_energy == pytest.approx(float(np.sum(x**2)), rel=1e-6)


class TestPolyphaseSteps:
    """The polyphase steps reproduce the modulo-index filter bank bit for bit."""

    @pytest.mark.parametrize("n", [
        *range(1, 65), 257, 1001, 81225,
        # stage lengths around the edges of the BLOCK-coefficient passes
        2 * dn.BLOCK - 1, 2 * dn.BLOCK, 2 * dn.BLOCK + 1, 2 * dn.BLOCK + 2,
        4 * dn.BLOCK + 7, 649_800,
        # the analysis tail's wrapped taps reach into the next-to-last pass
        *range(2 * dn.BLOCK + 3, 2 * dn.BLOCK + 7), *range(4 * dn.BLOCK + 1, 4 * dn.BLOCK + 7),
    ])
    def test_bit_equal_to_oracle(self, n):
        assert_steps_match_oracles(n, n)

    @given(st.integers(1, 5000), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bit_equal_to_oracle_property(self, n, seed):
        assert_steps_match_oracles(n, seed)

    @pytest.mark.parametrize("block", [1, 2, 5, 8])
    def test_bit_equal_to_oracle_at_small_passes(self, block, monkeypatch):
        # every pass boundary, wrapped tail pass and phase-row slice of n <= 80
        monkeypatch.setattr(dn, "BLOCK", block)
        for n in range(1, 81):
            assert_steps_match_oracles(n, n)

    def test_synthesis_length_mismatch(self):
        with pytest.raises(EcgresError, match="approx/detail length mismatch: 4 vs 5"):
            dn._synthesis_step(np.zeros(4), np.zeros(5), 8)


def universal_threshold_oracle(decomp):
    """The `np.median` form of `universal_threshold`, kept as its bit-exact
    reference."""
    sigma = np.median(np.abs(decomp.details[0])) / 0.6745
    return float(sigma * math.sqrt(2.0 * math.log(decomp.stage_lengths[0])))


def assert_threshold_equal_to_oracle(d1):
    """Same float as the oracle (or NaN for both) on level-1 details `d1`,
    which are left as they were."""
    decomp = dn.WaveletDecomposition(np.zeros(1), [d1.copy()], [2 * len(d1)])
    got, want = dn.universal_threshold(decomp), universal_threshold_oracle(decomp)
    assert got == want or (math.isnan(got) and math.isnan(want))
    assert decomp.details[0].tobytes() == d1.tobytes()


class TestThreshold:
    def test_all_zero_details_noop(self):
        decomp = dn.dwt_forward(np.full(256, 3.0), 8)
        decomp.details = [np.zeros_like(d) for d in decomp.details]
        out = dn.threshold_details(decomp)
        for d in out.details:
            assert not d.any()

    def test_universal_threshold_formula(self):
        # median |d1| = 0.6745 -> sigma = 1 -> T = sqrt(2 ln 1024)
        decomp = dn.dwt_forward(np.zeros(1024), 8)
        decomp.details[0] = np.full(len(decomp.details[0]), 0.6745)
        t = dn.universal_threshold(decomp)
        assert t == pytest.approx(math.sqrt(2 * math.log(1024)), abs=1e-6)
        assert t == pytest.approx(3.7230, abs=5e-4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 16, 17, 255, 256, 1000, 1001,
                                   324_899, 324_900])
    def test_universal_threshold_bit_equal_to_median(self, n):
        rng = np.random.default_rng(n)
        ties = rng.integers(-2, 3, n).astype(np.float64)
        for d1 in (rng.standard_normal(n), ties, ties * 0.1, np.full(n, -0.3), np.zeros(n)):
            assert_threshold_equal_to_oracle(d1)
        for special in (np.nan, np.inf):
            d1 = rng.standard_normal(n)
            d1[rng.integers(n)] = special
            assert_threshold_equal_to_oracle(d1)

    def test_universal_threshold_bit_equal_to_median_every_length(self):
        """Details sorted high to low make |d1| fall then rise; after the
        partition the lower part's max is then often not at kth - 1."""
        rng = np.random.default_rng(0)
        for n in range(1, 521):
            assert_threshold_equal_to_oracle(np.sort(rng.standard_normal(n))[::-1].copy())

    @given(st.lists(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 1e-300, 3.0, -7.25]),
                    min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_universal_threshold_bit_equal_to_median_property(self, values):
        assert_threshold_equal_to_oracle(np.array(values))

    def test_soft_shrinkage_values(self):
        c = np.array([5.0, -2.0, -5.0])
        dn._shrink(c, 3.0)
        assert c[0] == pytest.approx(2.0)
        assert c[1] == 0.0
        assert c[2] == pytest.approx(-2.0)

    def test_approx_untouched(self):
        x = np.random.default_rng(2).standard_normal(1024)
        decomp = dn.dwt_forward(x, 8)
        approx = decomp.approx.copy()
        out = dn.threshold_details(decomp)
        assert out.approx.tobytes() == approx.tobytes()

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_soft_threshold_is_contraction(self, seed, t):
        c = np.random.default_rng(seed).standard_normal(64) * 5
        untouched = c.copy()
        dn._shrink(c, t)
        assert np.all(np.abs(c) <= np.abs(untouched) + 1e-15)


def remove_baseline_oracle(x, window):
    """The per-sample `idx +- h` gather form of `remove_baseline`, kept as the
    bit-exact reference for its slice-difference interior."""
    n = len(x)
    half = window // 2
    idx = np.arange(n)
    h = np.minimum(half, np.minimum(idx, n - 1 - idx))
    csum = np.concatenate([[0.0], np.cumsum(x)])
    baseline = (csum[idx + h + 1] - csum[idx - h]) / (2 * h + 1)
    return x - baseline


def moving_average_oracle(x, window):
    half = window // 2
    n = len(x)
    out = np.empty(n)
    for i in range(n):
        h = min(half, i, n - 1 - i)
        out[i] = x[i] - np.mean(x[i - h : i + h + 1])
    return out


class TestRemoveBaseline:
    def test_constant_signal(self):
        assert np.abs(dn.remove_baseline(np.full(500, 2.5), 251)).max() < 1e-12

    def test_window_one(self):
        x = np.random.default_rng(0).standard_normal(300)
        assert np.abs(dn.remove_baseline(x, 1)).max() < 1e-12

    def test_even_window_rejected(self):
        with pytest.raises(ParseError, match="positive odd integer, got 10"):
            dn.remove_baseline(np.zeros(100), 10)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ParseError, match="positive odd integer, got -3"):
            dn.remove_baseline(np.zeros(100), -3)

    def test_window_longer_than_signal_is_a_length_error(self):
        # a valid setting that does not fit the data, like too many levels
        with pytest.raises(EcgresError, match="window 101 exceeds the record's 100 samples"):
            dn.remove_baseline(np.zeros(100), 101)
        assert np.abs(dn.remove_baseline(np.ones(101), 101)).max() < 1e-12

    def test_against_oracle(self):
        x = np.random.default_rng(3).standard_normal(400)
        assert np.allclose(dn.remove_baseline(x.copy(), 51), moving_average_oracle(x, 51),
                           atol=1e-10)

    @pytest.mark.parametrize("window", [1, 3, 251, "n"])
    def test_bit_equal_to_oracle(self, window):
        rng = np.random.default_rng(9)
        lengths = range(1, 5001, 2) if window == "n" else range(window, 5001)
        for n in lengths:
            w = n if window == "n" else window
            x = rng.standard_normal(n)
            got = dn.remove_baseline(x.copy(), w)
            assert got.tobytes() == remove_baseline_oracle(x, w).tobytes()

    def test_sine_plus_dc(self):
        t = np.arange(1000)
        x = np.sin(2 * np.pi * 0.05 * t) + 0.5
        out = dn.remove_baseline(x.copy(), 251)
        assert np.allclose(out, moving_average_oracle(x, 251), atol=1e-10)
        # interior: DC offset removed within 0.02, sine survives up to the
        # moving average's own attenuation (~0.025 amplitude at this width)
        interior = slice(200, 800)
        assert abs(np.mean(out[interior])) < 0.02
        assert np.abs(out[interior] - np.sin(2 * np.pi * 0.05 * t)[interior]).max() < 0.03

    def test_linearity(self):
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal(500), rng.standard_normal(500)
        a, b = 2.5, -1.25
        lhs = dn.remove_baseline(a * x + b * y, 51)
        rhs = a * dn.remove_baseline(x, 51) + b * dn.remove_baseline(y, 51)
        assert np.abs(lhs - rhs).max() < 1e-10


class TestDenoise:
    def _clean_ecg(self, n=4096):
        t = np.arange(n) / 360.0
        x = np.zeros(n)
        for beat in np.arange(0.5, t[-1], 0.8):
            x += np.exp(-0.5 * ((t - beat) / 0.015) ** 2)
        return x

    def test_zero_signal(self):
        out = dn.denoise(np.zeros(1024))
        assert np.abs(out).max() < 1e-12

    def test_preserves_length_and_deterministic(self):
        x = np.random.default_rng(5).standard_normal(2048)
        out1 = dn.denoise(x)
        out2 = dn.denoise(x)
        assert len(out1) == len(x)
        assert np.array_equal(out1, out2)

    def test_snr_improves(self):
        clean = self._clean_ecg()
        rng = np.random.default_rng(6)
        power = np.mean(clean**2)
        noise = rng.standard_normal(len(clean))
        noise *= np.sqrt(power / (10 * np.mean(noise**2)))  # SNR 10 dB
        noisy = clean + noise

        def snr(sig):
            return 10 * np.log10(power / np.mean((sig - clean) ** 2))

        # compare against the clean signal with its own baseline removed,
        # since denoise also strips the (zero) baseline
        out = dn.denoise(noisy)
        ref = dn.remove_baseline(clean.copy())
        snr_out = 10 * np.log10(np.mean(ref**2) / np.mean((out - ref) ** 2))
        assert snr_out > snr(noisy)

    def test_low_frequency_energy_kept(self):
        # clean smooth signal: output ~ signal minus its slow baseline
        n = 4096
        t = np.arange(n) / 360.0
        x = np.sin(2 * np.pi * 6.0 * t)  # within the QRS band
        out = dn.denoise(x)
        ref = dn.remove_baseline(x)
        interior = slice(256, n - 256)
        kept = np.sum(out[interior] ** 2) / np.sum(ref[interior] ** 2)
        assert kept > 0.95

    def test_short_signal_rejected(self):
        with pytest.raises(EcgresError, match="length 100 too short"):
            dn.denoise(np.zeros(100))

    def test_short_signal_names_usable_levels(self):
        with pytest.raises(EcgresError, match="at most 7 levels fit"):
            dn.denoise(np.zeros(200))

    def test_empty_signal_names_zero_levels(self):
        for call in (dn.denoise, dn.dwt_forward):
            with pytest.raises(EcgresError, match=r"length 0 too short .*at most 0 levels fit"):
                call(np.zeros(0))

    @pytest.mark.parametrize("name, kwargs", [
        ("default", {}),
    ])
    def test_pinned_digest(self, name, kwargs):
        x = np.random.default_rng(DENOISE_SIGNAL_SEED).standard_normal(20001)
        out = dn.denoise(x, **kwargs)
        assert hashlib.sha256(out.tobytes()).hexdigest() == DENOISE_SHA256[name]

    def test_public_functions_leave_their_inputs_unchanged(self):
        x = np.random.default_rng(10).standard_normal(4099) * 3
        decomp = dn.dwt_forward(x)
        before = [a.tobytes() for a in (x, decomp.approx, *decomp.details)]
        dn.denoise(x)
        dn.dwt_forward(x)
        dn.dwt_inverse(decomp)
        assert [a.tobytes() for a in (x, decomp.approx, *decomp.details)] == before

    def test_in_place_steps_write_over_their_argument(self):
        x = np.random.default_rng(10).standard_normal(4099) * 3
        decomp = dn.dwt_forward(x)
        details = decomp.details[:]
        shrunk = [d.copy() for d in details]
        t = dn.universal_threshold(decomp)
        for d in shrunk:
            dn._shrink(d, t)
        assert dn.threshold_details(decomp) is decomp
        assert all(a is b for a, b in zip(decomp.details, details))
        assert [d.tobytes() for d in details] == [d.tobytes() for d in shrunk]
        want = remove_baseline_oracle(x, dn.DEFAULT_BASELINE_WINDOW)
        assert dn.remove_baseline(x) is x
        assert x.tobytes() == want.tobytes()

    def test_runs_its_four_steps_once_in_order(self, monkeypatch):
        """`denoise` reaches each step through the module namespace, where a
        tracer that patches the steps by name (perfbench's does) sees it."""
        x = np.random.default_rng(12).standard_normal(4099)
        want = dn.denoise(x).tobytes()
        steps = ["dwt_forward", "threshold_details", "dwt_inverse", "remove_baseline"]
        calls = []
        for name in steps:
            def spy(*args, _step=getattr(dn, name), _name=name, **kwargs):
                calls.append(_name)
                return _step(*args, **kwargs)
            monkeypatch.setattr(dn, name, spy)
        assert dn.denoise(x).tobytes() == want
        assert calls == steps

    def test_record_length_lead_peaks_under_three_lead_sizes(self):
        """A 650,000-sample lead (MIT-BIH's 30 min at 360 Hz) is denoised in
        at most 3x its own bytes of Python-traced allocations."""
        x = np.random.default_rng(11).standard_normal(649_800)
        tracemalloc.start()
        try:
            dn.denoise(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * x.nbytes, f"peak {peak / x.nbytes:.2f}x the lead"
