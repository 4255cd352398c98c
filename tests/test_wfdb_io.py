import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgres import cli
from ecgres import wfdb_io as wf
from ecgres.errors import (EcgresError, ParseError, RangeError, SelectionError, TruncatedSignal,
                           UnsupportedFormat)

from conftest import MITDB_DIR, requires_mitdb

HEADER_100 = """\
100 2 360 650000 0:0:0 0/0/0
100.dat 212 200 11 1024 995 -22131 0 MLII
100.dat 212 200 11 1024 1011 20052 0 V5
# comment line
"""


class TestParseHeader:
    def test_record_100_style_header(self):
        h = wf.parse_header(HEADER_100)
        assert h.record_name == "100"
        assert h.num_signals == 2
        assert h.sampling_frequency == 360
        assert h.num_samples == 650000
        assert [s.description for s in h.signals] == ["MLII", "V5"]
        assert all(s.format_code == 212 for s in h.signals)
        assert h.signals[0].gain == 200.0
        assert h.signals[0].adc_zero == 1024

    def test_zero_signals_rejected(self):
        with pytest.raises(ParseError):
            wf.parse_header("100 0 360 650000\n")

    def test_format_16_rejected(self):
        text = HEADER_100.replace("212", "16")
        with pytest.raises(UnsupportedFormat):
            wf.parse_header(text)

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ParseError, match="line 1"):
            wf.parse_header("garbage\n")

    def test_missing_signal_lines(self):
        with pytest.raises(ParseError):
            wf.parse_header("100 2 360 650000\n100.dat 212 200 11 1024 0 0 0 MLII\n")

    def test_gain_with_baseline_and_units(self):
        text = "x 1 360 1000\nx.dat 212 200(1024)/mV 11 1024 0 0 0 MLII\n"
        h = wf.parse_header(text)
        assert h.signals[0].gain == 200.0

    @pytest.mark.parametrize("token", ["212", "212+0", "212:0", "212x1"])
    def test_format_modifiers_keep_leading_int(self, token):
        h = wf.parse_header(f"x 1 360 1000\nx.dat {token} 200 11 1024 0 0 0 MLII\n")
        assert h.signals[0].format_code == 212

    @pytest.mark.parametrize("line", [
        "x.dat abc 200 11 1024 0 0 0 MLII",   # no leading integer in the format
        "x.dat 212 high 11 1024 0 0 0 MLII",  # non-numeric gain
        "x.dat 212 200 11 10.5 0 0 0 MLII",   # non-integer ADC zero
        "x.dat 212 200 11 zero 0 0 0 MLII",
    ])
    def test_bad_signal_fields_raise_parse_error(self, line):
        with pytest.raises(ParseError, match="line 2"):
            wf.parse_header(f"x 1 360 1000\n{line}\n")

    @pytest.mark.parametrize("fs", ["inf", "-inf", "nan", "1e400", "inf/128", "inf(0)"])
    def test_non_finite_frequency_raises_parse_error(self, fs):
        with pytest.raises(ParseError, match="line 1"):
            wf.parse_header(f"x 1 {fs} 1000\nx.dat 212 200 11 1024 0 0 0 MLII\n")

    @pytest.mark.parametrize("gain", ["inf", "-inf", "nan", "1e400", "inf(1024)/mV"])
    def test_non_finite_gain_raises_parse_error(self, gain):
        with pytest.raises(ParseError, match="line 2.*not finite"):
            wf.parse_header(f"x 1 360 1000\nx.dat 212 {gain} 11 1024 0 0 0 MLII\n")

    def test_infinite_frequency_ingest_exit_2(self, synth_db_small, tmp_path):
        for ext in ("dat", "atr"):
            shutil.copy(synth_db_small / f"100.{ext}", tmp_path / f"100.{ext}")
        lines = (synth_db_small / "100.hea").read_text().splitlines()
        lines[0] = "100 2 inf " + lines[0].split()[3]
        (tmp_path / "100.hea").write_text("\n".join(lines) + "\n")
        argv = ["ingest", "--data-dir", str(tmp_path), "--output-dir", str(tmp_path / "o")]
        assert cli.main(argv) == 2


# Tokens that header fields take, valid or not; `text` adds arbitrary ones.
HEADER_TOKENS = st.one_of(
    st.sampled_from(["100", "x.dat", "2", "1", "0", "-1", "360", "360/128", "360(0)",
                     "212", "212x1", "16", "200(1024)/mV", "inf", "-inf", "nan", "1e400",
                     "1.5", "99999999999999999999", "MLII", "V5", "0:0:0", "#", ""]),
    st.text(max_size=6),
)


class TestParseHeaderFuzz:
    """Whatever the text, `parse_header` returns a header with finite numbers
    or raises an `EcgresError`."""

    @staticmethod
    def _parse(text):
        try:
            h = wf.parse_header(text)
        except EcgresError:
            return
        assert h.num_signals == len(h.signals) > 0 and h.num_samples > 0
        assert all(np.isfinite(s.gain) for s in h.signals)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.text(max_size=200),
                     st.lists(st.lists(HEADER_TOKENS, max_size=10).map(" ".join),
                              max_size=4).map("\n".join)))
    def test_arbitrary_text(self, text):
        self._parse(text)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_token_substitutions(self, data):
        lines = [ln.split() for ln in HEADER_100.splitlines()[:3]]
        for _ in range(data.draw(st.integers(1, 3))):
            row = lines[data.draw(st.integers(0, 2))]
            row[data.draw(st.integers(0, len(row) - 1))] = data.draw(HEADER_TOKENS)
        self._parse("\n".join(" ".join(row) for row in lines))


class TestFormat212:
    def test_all_zero_group(self):
        s1, s2 = wf.decode_format212(b"\x00\x00\x00", 1)
        assert (s1[0], s2[0]) == (0, 0)

    def test_one_in_channel_one(self):
        s1, s2 = wf.decode_format212(b"\x01\x00\x00", 1)
        assert (s1[0], s2[0]) == (1, 0)

    def test_sign_extension(self):
        # 0xFFF sign-extends to -1
        s1, s2 = wf.decode_format212(b"\xff\x0f\x00", 1)
        assert (s1[0], s2[0]) == (-1, 0)

    def test_bit_layout_oracle(self):
        # independent per-bit extraction, validated against the vector decoder
        rng = np.random.default_rng(5)
        a = rng.integers(-2048, 2048, 64)
        b = rng.integers(-2048, 2048, 64)
        data = wf.encode_format212(a, b)
        s1, s2 = wf.decode_format212(data, 64)
        for i in range(64):
            g = data[3 * i : 3 * i + 3]
            bits1 = [(g[0] >> k) & 1 for k in range(8)] + [(g[1] >> k) & 1 for k in range(4)]
            bits2 = [(g[2] >> k) & 1 for k in range(8)] + [(g[1] >> (4 + k)) & 1 for k in range(4)]
            v1 = sum(bit << k for k, bit in enumerate(bits1))
            v2 = sum(bit << k for k, bit in enumerate(bits2))
            v1 -= (v1 & 0x800) << 1
            v2 -= (v2 & 0x800) << 1
            assert (v1, v2) == (s1[i], s2[i])

    def test_truncated_rejected(self):
        with pytest.raises(TruncatedSignal):
            wf.decode_format212(b"\x00\x00", 1)

    def test_range(self):
        rng = np.random.default_rng(0)
        a = rng.integers(-2048, 2048, 500)
        b = rng.integers(-2048, 2048, 500)
        s1, s2 = wf.decode_format212(wf.encode_format212(a, b), 500)
        assert s1.min() >= -2048 and s1.max() <= 2047
        assert np.array_equal(s1, a) and np.array_equal(s2, b)

    @given(
        st.lists(
            st.tuples(st.integers(-2048, 2047), st.integers(-2048, 2047)),
            min_size=1, max_size=200,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, pairs):
        a = np.array([p[0] for p in pairs], dtype=np.int16)
        b = np.array([p[1] for p in pairs], dtype=np.int16)
        data = wf.encode_format212(a, b)
        s1, s2 = wf.decode_format212(data, len(pairs))
        assert np.array_equal(s1, a) and np.array_equal(s2, b)
        # re-encoding decoded samples reproduces the bytes exactly
        assert wf.encode_format212(s1, s2) == data


class TestAnnotations:
    def test_empty_stream(self):
        assert wf.parse_annotations(b"\x00\x00") == ()

    def test_missing_terminator(self):
        word = int.to_bytes((1 << 10) | 5, 2, "little")
        with pytest.raises(ParseError):
            wf.parse_annotations(word)

    def test_simple_sequence(self):
        data = (
            int.to_bytes((1 << 10) | 100, 2, "little")
            + int.to_bytes((5 << 10) | 50, 2, "little")
            + b"\x00\x00"
        )
        anns = wf.parse_annotations(data)
        assert [(a.sample_index, a.code) for a in anns] == [(100, "N"), (150, "V")]

    def test_skip_word_offsets_next_annotation(self):
        # hand-built stream: SKIP(70000) then N at +30 -> absolute 70030
        skip = 70000
        data = (
            int.to_bytes(59 << 10, 2, "little")
            + int.to_bytes((skip >> 16) & 0xFFFF, 2, "little")
            + int.to_bytes(skip & 0xFFFF, 2, "little")
            + int.to_bytes((1 << 10) | 30, 2, "little")
            + b"\x00\x00"
        )
        anns = wf.parse_annotations(data)
        assert [(a.sample_index, a.code) for a in anns] == [(70030, "N")]

    def test_pseudo_annotations_consumed(self):
        data = (
            int.to_bytes((60 << 10) | 1, 2, "little")  # NUM
            + int.to_bytes((62 << 10) | 1, 2, "little")  # CHN
            + int.to_bytes((63 << 10) | 4, 2, "little") + b"abcd"  # AUX
            + int.to_bytes((2 << 10) | 10, 2, "little")
            + b"\x00\x00"
        )
        anns = wf.parse_annotations(data)
        assert [(a.sample_index, a.code) for a in anns] == [(10, "L")]

    def test_index_overflow_rejected(self):
        data = int.to_bytes((1 << 10) | 500, 2, "little") + b"\x00\x00"
        with pytest.raises(RangeError):
            wf.parse_annotations(data, num_samples=400)

    def test_roundtrip(self):
        anns = (
            wf.BeatAnnotation(120, "N"),
            wf.BeatAnnotation(130, "+"),
            wf.BeatAnnotation(90000, "V"),
        )
        assert wf.parse_annotations(wf.encode_annotations(anns)) == anns

    def test_strictly_increasing(self, synth_db_small):
        rec = wf.load_record(synth_db_small, "100")
        idx = [a.sample_index for a in rec.annotations]
        assert all(b > a for a, b in zip(idx, idx[1:]))


class TestLoadRecord:
    def test_mv_conversion(self, synth_db_small):
        rec = wf.load_record(synth_db_small, "100")
        spec = rec.header.signals[0]
        raw1, _ = wf.decode_format212(
            (synth_db_small / "100.dat").read_bytes(), rec.header.num_samples
        )
        expected = (raw1.astype(np.float64) - spec.adc_zero) / spec.gain
        assert np.array_equal(rec.channels[0], expected)
        assert len(rec.channels[0]) == rec.header.num_samples

    @staticmethod
    def _renamed_record(src, dst, dat_names):
        """Record 100 in `dst`, its signal lines naming `dat_names`, its data in other.dat."""
        shutil.copy(src / "100.atr", dst / "100.atr")
        shutil.copy(src / "100.dat", dst / "other.dat")
        lines = (src / "100.hea").read_text().splitlines()
        for i, dat in enumerate(dat_names, start=1):
            lines[i] = lines[i].replace("100.dat", dat, 1)
        (dst / "100.hea").write_text("\n".join(lines) + "\n")

    def test_reads_file_named_in_header(self, synth_db_small, tmp_path):
        self._renamed_record(synth_db_small, tmp_path, ["other.dat", "other.dat"])
        rec = wf.load_record(tmp_path, "100")
        ref = wf.load_record(synth_db_small, "100")
        for got, want in zip(rec.channels, ref.channels):
            assert np.array_equal(got, want)

    def test_two_signal_files_rejected(self, synth_db_small, tmp_path):
        self._renamed_record(synth_db_small, tmp_path, ["other.dat", "100.dat"])
        shutil.copy(synth_db_small / "100.dat", tmp_path / "100.dat")
        with pytest.raises(ParseError, match="one file"):
            wf.load_record(tmp_path, "100")

    def test_missing_named_file_ingest_exit_2(self, synth_db_small, tmp_path):
        # 100.dat is present but the header names a file that is not
        self._renamed_record(synth_db_small, tmp_path, ["gone.dat", "gone.dat"])
        shutil.copy(synth_db_small / "100.dat", tmp_path / "100.dat")
        argv = ["ingest", "--data-dir", str(tmp_path), "--output-dir", str(tmp_path / "o")]
        assert cli.main(argv) == 2


class TestSelectDataset:
    def test_excluded_records_absent(self, synth_db_small):
        records = [wf.load_record(synth_db_small, n)
                   for n in wf.discover_records(synth_db_small)]
        index = wf.select_dataset(records)
        names = {ref.record.name for ref in index}
        assert "102" not in names
        assert names == {"100", "101", "103", "105", "106"}

    def test_only_excluded_record_gives_empty_index(self, synth_db_small):
        rec = wf.load_record(synth_db_small, "102")
        assert wf.select_dataset([rec]) == []

    def test_codes_restricted(self, synth_db_small):
        records = [wf.load_record(synth_db_small, n)
                   for n in wf.discover_records(synth_db_small)]
        index = wf.select_dataset(records)
        assert index
        assert all(ref.annotation.code in "NLRAV" for ref in index)

    def test_missing_mlii_raises(self, tmp_path):
        from ecgres import synthetic

        synthetic.write_record(tmp_path, "999", duration_s=30, seed=0, lead="V2")
        rec = wf.load_record(tmp_path, "999")
        with pytest.raises(SelectionError, match="999"):
            wf.select_dataset([rec])

    def test_non_beat_codes_dropped_not_errored(self, tmp_path):
        from ecgres import synthetic

        synthetic.write_record(tmp_path, "998", duration_s=30, seed=1)
        # append a paced-beat annotation code to the stream
        rec = wf.load_record(tmp_path, "998")
        anns = rec.annotations + (wf.BeatAnnotation(rec.header.num_samples - 10, "/"),)
        (tmp_path / "998.atr").write_bytes(wf.encode_annotations(anns))
        rec = wf.load_record(tmp_path, "998")
        index = wf.select_dataset([rec])
        assert all(ref.annotation.code != "/" for ref in index)


@requires_mitdb
class TestRealDatabase:
    """Cross-checks against the published MIT-BIH record facts."""

    def test_record_100_header(self):
        rec = wf.load_record(MITDB_DIR, "100")
        assert rec.header.sampling_frequency == 360
        assert rec.header.num_signals == 2
        assert rec.header.num_samples == 650000
        assert rec.header.signals[0].description == "MLII"

    def test_record_100_first_sample(self):
        # first MLII sample of record 100 is ADC 995 -> (995-1024)/200 mV
        rec = wf.load_record(MITDB_DIR, "100")
        assert rec.channels[0][0] == pytest.approx((995 - 1024) / 200.0)

    def test_record_100_annotation_counts(self):
        rec = wf.load_record(MITDB_DIR, "100")
        codes = [a.code for a in rec.annotations]
        assert codes.count("N") == 2239
        assert codes.count("A") == 33
        assert codes.count("V") == 1

    def test_record_100_selected_codes(self):
        rec = wf.load_record(MITDB_DIR, "100")
        index = wf.select_dataset([rec])
        assert {ref.annotation.code for ref in index} == {"N", "A", "V"}

    def test_full_database_selection(self):
        names = wf.discover_records(MITDB_DIR)
        records = [wf.load_record(MITDB_DIR, n) for n in names]
        index = wf.select_dataset(records)
        assert len({ref.record.name for ref in index}) == 44
