import shutil
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgres import cli
from ecgres import wfdb_io as wf
from ecgres.errors import ParseError

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
        with pytest.raises(ParseError, match=r"line 2: signal format 16 \(only 212 supported\)"):
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
        "x.dat 212 200 11 2048 0 0 0 MLII",   # ADC zero outside 12 bits
        "x.dat 212 200 11 -2049 0 0 0 MLII",
        pytest.param("x.dat 212 200 11 1" + "0" * 400 + " 0 0 0 MLII",
                     id="x.dat 212 200 11 1e400 0 0 0 MLII"),  # beyond float64
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
    or raises a `ParseError`."""

    @staticmethod
    def _parse(text):
        try:
            h = wf.parse_header(text)
        except ParseError:
            return
        assert h.num_signals == len(h.signals) > 0 and h.num_samples > 0
        assert all(np.isfinite(s.gain) and -2048 <= s.adc_zero <= 2047 for s in h.signals)

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


def decode_format212_oracle(data, num_samples):
    """The int32 decoder that the int16 `decode_format212` replaced, kept as
    its bit-exact reference."""
    buf = np.frombuffer(data, dtype=np.uint8, count=3 * num_samples)
    b0 = buf[0::3].astype(np.int32)
    b1 = buf[1::3].astype(np.int32)
    b2 = buf[2::3].astype(np.int32)
    s1 = b0 | ((b1 & 0x0F) << 8)
    s2 = b2 | ((b1 & 0xF0) << 4)
    s1 -= (s1 & 0x800) << 1
    s2 -= (s2 & 0x800) << 1
    return s1.astype(np.int16), s2.astype(np.int16)


class TestFormat212:
    def test_bit_equal_to_oracle(self):
        # (b, b1, b) for every b1 and b: each (b0, low nibble of b1) and each
        # (b2, high nibble of b1) pair, so every 12-bit value in both channels
        b, b1 = np.divmod(np.arange(1 << 16), 256)
        data = np.stack([b, b1, b], axis=1).astype(np.uint8).tobytes()
        for got, want in zip(wf.decode_format212(data, 1 << 16),
                             decode_format212_oracle(data, 1 << 16)):
            assert got.dtype == want.dtype == np.int16
            assert got.tobytes() == want.tobytes()
        assert len(np.unique(got)) == 1 << 12

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
        with pytest.raises(ParseError, match="format-212 file too short: need 3 bytes"):
            wf.decode_format212(b"\x00\x00", 1)

    @pytest.mark.parametrize("extra", [1, 3, 6])
    def test_appended_bytes_rejected(self, extra):
        data = wf.encode_format212([1, 2], [3, 4]) + b"\x00" * extra
        with pytest.raises(ParseError, match=f"format-212 file too long: need 6 bytes for "
                                             f"2 samples/channel, got {6 + extra}$"):
            wf.decode_format212(data, 2)

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


@dataclass(frozen=True)
class Annotation:
    sample_index: int
    code: str


def oracle_parse_annotations(data, num_samples=None):
    """Reference reader: the one-object-per-annotation parser that the array
    form of `parse_annotations` replaced."""
    out = []
    pos = 0
    sample = 0
    pending_skip = 0
    terminated = False
    while pos + 2 <= len(data):
        word = data[pos] | (data[pos + 1] << 8)
        pos += 2
        code = word >> 10
        interval = word & 0x3FF
        if word == 0:
            terminated = True
            break
        if code == 59:  # SKIP
            if pos + 4 > len(data):
                raise ParseError("truncated SKIP annotation")
            high = data[pos] | (data[pos + 1] << 8)
            low = data[pos + 2] | (data[pos + 3] << 8)
            pos += 4
            skip = (high << 16) | low
            if skip >= 1 << 31:
                skip -= 1 << 32
            pending_skip += skip
        elif code == 63:  # AUX
            n = interval + (interval & 1)
            if pos + n > len(data):
                raise ParseError("truncated AUX annotation")
            pos += n
        elif code in (60, 61, 62):  # NUM, SUB, CHN
            pass
        else:
            sample += interval + pending_skip
            pending_skip = 0
            if num_samples is not None and not (0 <= sample < num_samples):
                raise ParseError(
                    f"annotation at sample {sample} outside record of {num_samples} samples"
                )
            out.append(Annotation(sample, wf.ANNOTATION_SYMBOLS.get(code, f"?{code}")))
    if not terminated:
        raise ParseError("annotation stream missing zero terminator")
    return tuple(out)


def pairs(samples, codes):
    """(sample, symbol) pairs of `parse_annotations` arrays, as the oracle names them."""
    assert samples.dtype == np.int64 and codes.dtype == np.uint8
    assert samples.shape == codes.shape
    return [(s, wf.ANNOTATION_SYMBOLS.get(c, f"?{c}"))
            for s, c in zip(samples.tolist(), codes.tolist())]


def word(code, interval=0):
    return int.to_bytes((code << 10) | interval, 2, "little")


# One entry of a valid annotation stream: a beat or other annotation with its
# increment (never the zero word), or a SKIP, NUM/SUB/CHN or AUX pseudo-annotation.
ANNOTATION_ENTRY = st.one_of(
    st.builds(lambda c, i: word(c, i),
              st.one_of(st.sampled_from([1, 2, 3, 5, 8]), st.integers(1, 58)),
              st.integers(0, 0x3FF)),
    st.builds(lambda i: word(0, i), st.integers(1, 0x3FF)),
    st.builds(lambda i, skip: word(59, i) + int.to_bytes((skip >> 16) & 0xFFFF, 2, "little")
              + int.to_bytes(skip & 0xFFFF, 2, "little"),
              st.integers(0, 0x3FF), st.integers(-(1 << 31), (1 << 31) - 1)),
    st.builds(word, st.sampled_from([60, 61, 62]), st.integers(0, 0x3FF)),
    st.builds(lambda text: word(63, len(text)) + text + b"\x00" * (len(text) & 1),
              st.binary(max_size=9)),
)
VALID_STREAM = st.lists(ANNOTATION_ENTRY, max_size=30).map(lambda e: b"".join(e) + b"\x00\x00")


def outcome(parse, data, num_samples):
    """The parse result as (sample, symbol) pairs, or the message of the
    ParseError it raised."""
    try:
        result = parse(data, num_samples)
    except ParseError as e:
        return str(e)
    return pairs(*result) if parse is wf.parse_annotations else [
        (a.sample_index, a.code) for a in result]


class TestAnnotations:
    def test_empty_stream(self):
        samples, codes = wf.parse_annotations(b"\x00\x00")
        assert pairs(samples, codes) == []

    def test_missing_terminator(self):
        with pytest.raises(ParseError):
            wf.parse_annotations(word(1, 5))

    def test_simple_sequence(self):
        data = word(1, 100) + word(5, 50) + b"\x00\x00"
        assert pairs(*wf.parse_annotations(data)) == [(100, "N"), (150, "V")]

    def test_skip_word_offsets_next_annotation(self):
        # hand-built stream: SKIP(70000) then N at +30 -> absolute 70030
        skip = 70000
        data = (
            word(59)
            + int.to_bytes((skip >> 16) & 0xFFFF, 2, "little")
            + int.to_bytes(skip & 0xFFFF, 2, "little")
            + word(1, 30)
            + b"\x00\x00"
        )
        assert pairs(*wf.parse_annotations(data)) == [(70030, "N")]

    def test_pseudo_annotations_consumed(self):
        data = word(60, 1) + word(62, 1) + word(63, 4) + b"abcd" + word(2, 10) + b"\x00\x00"
        assert pairs(*wf.parse_annotations(data)) == [(10, "L")]

    @pytest.mark.parametrize("data", [
        # an AUX string whose words read as a zero word, a SKIP, an AUX and a NUM
        word(63, 8) + b"\x00\x00" + word(59, 1) + word(63, 3) + word(60, 2)
        + word(1, 10) + b"\x00\x00",
        # a SKIP (value -4097) whose low payload word has code 59
        b"\x00\xec\xff\xff\xff\xef\x00\x04\x00\x00",
    ], ids=["aux-payload", "skip-payload"])
    @pytest.mark.parametrize("num_samples", [None, 100])
    def test_payload_words_that_look_like_control_words(self, data, num_samples):
        want = outcome(oracle_parse_annotations, data, num_samples)
        assert outcome(wf.parse_annotations, data, num_samples) == want

    def test_index_overflow_rejected(self):
        data = word(1, 500) + b"\x00\x00"
        with pytest.raises(ParseError, match="annotation at sample 500 outside record of 400"):
            wf.parse_annotations(data, num_samples=400)

    def test_roundtrip(self):
        samples, symbols = [120, 130, 90000], ["N", "+", "V"]
        assert pairs(*wf.parse_annotations(wf.encode_annotations(samples, symbols))) == list(
            zip(samples, symbols))

    def test_strictly_increasing(self, synth_db_small):
        rec = wf.load_record(synth_db_small, "100")
        assert len(rec.ann_samples) and np.all(np.diff(rec.ann_samples) > 0)


class TestParseAnnotationsFuzz:
    """The array parser agrees with the object-building oracle, and only a
    `ParseError`, with the oracle's message, escapes it."""

    @settings(max_examples=300, deadline=None)
    @given(VALID_STREAM, st.one_of(st.none(), st.integers(1, 1 << 20)))
    def test_valid_streams_match_oracle(self, data, num_samples):
        want = outcome(oracle_parse_annotations, data, num_samples)
        assert outcome(wf.parse_annotations, data, num_samples) == want
        if num_samples is None:
            assert isinstance(want, list)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=120), st.one_of(st.none(), st.integers(1, 5000)))
    def test_arbitrary_bytes(self, data, num_samples):
        assert (outcome(wf.parse_annotations, data, num_samples)
                == outcome(oracle_parse_annotations, data, num_samples))

    @settings(max_examples=50, deadline=None)
    @given(VALID_STREAM)
    def test_every_truncation(self, data):
        for end in range(len(data)):
            assert (outcome(wf.parse_annotations, data[:end], None)
                    == outcome(oracle_parse_annotations, data[:end], None))


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
    @staticmethod
    def _select_all(data_dir):
        names = wf.discover_records(data_dir)
        return wf.select_dataset(wf.load_record(data_dir, n) for n in names)

    def test_excluded_records_absent(self, synth_db_small):
        sel = self._select_all(synth_db_small)
        names = set(sel.record_ids)
        assert "102" not in names
        assert names == set(sel.leads) == {"100", "101", "103", "105", "106"}

    def test_only_excluded_record_gives_empty_index(self, synth_db_small):
        sel = wf.select_dataset([wf.load_record(synth_db_small, "102")])
        assert len(sel) == 0 and not sel.leads
        for col in (sel.record_ids, sel.channels, sel.centers, sel.labels):
            assert col.shape == (0,)

    def test_codes_restricted(self, synth_db_small):
        sel = self._select_all(synth_db_small)
        assert len(sel)
        assert set(sel.labels.tolist()) <= set(wf.BeatClass)

    def test_columns_match_annotations(self, synth_db_small):
        rec = wf.load_record(synth_db_small, "105")
        sel = wf.select_dataset([rec])
        symbols = [wf.ANNOTATION_SYMBOLS[c] for c in rec.ann_codes.tolist()]
        want = [(int(s), sym) for s, sym in zip(rec.ann_samples, symbols) if sym in "NLRAV"]
        assert list(zip(sel.centers.tolist(), ("NLRAV"[k] for k in sel.labels))) == want
        assert len(sel) == len(want) and set(sel.record_ids) == {"105"}
        assert sel.channels.tolist() == [0] * len(sel)
        assert sel.leads["105"] is rec.channels[0]
        assert [c.dtype for c in (sel.channels, sel.centers, sel.labels)] == [np.int64] * 3

    def test_rows_keep_leads(self, synth_db_small):
        sel = self._select_all(synth_db_small)
        rows = sel[sel.record_ids == "103"]
        assert len(rows) == (sel.record_ids == "103").sum() > 0
        assert rows.leads is sel.leads and set(rows.record_ids) == {"103"}

    def test_missing_mlii_raises(self, tmp_path):
        from ecgres import synthetic

        synthetic.write_record(tmp_path, "999", duration_s=30, seed=0, lead="V2")
        rec = wf.load_record(tmp_path, "999")
        with pytest.raises(ParseError, match="record 999 has no MLII channel"):
            wf.select_dataset([rec])

    def test_non_beat_codes_dropped_not_errored(self, tmp_path):
        from ecgres import synthetic

        synthetic.write_record(tmp_path, "998", duration_s=30, seed=1)
        # append a paced-beat annotation code to the stream
        rec = wf.load_record(tmp_path, "998")
        samples = [*rec.ann_samples.tolist(), rec.header.num_samples - 10]
        symbols = [*(wf.ANNOTATION_SYMBOLS[c] for c in rec.ann_codes.tolist()), "/"]
        (tmp_path / "998.atr").write_bytes(wf.encode_annotations(samples, symbols))
        rec = wf.load_record(tmp_path, "998")
        assert rec.ann_codes[-1] == 12
        sel = wf.select_dataset([rec])
        assert len(sel) == len(rec.ann_codes) - 1
        assert rec.header.num_samples - 10 not in sel.centers


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
        codes = rec.ann_codes.tolist()
        assert codes.count(1) == 2239  # N
        assert codes.count(8) == 33    # A
        assert codes.count(5) == 1     # V

    def test_record_100_selected_codes(self):
        rec = wf.load_record(MITDB_DIR, "100")
        sel = wf.select_dataset([rec])
        assert set(sel.labels.tolist()) == {wf.BeatClass.NOR, wf.BeatClass.APC, wf.BeatClass.PVC}

    def test_full_database_selection(self):
        # one record at a time, as the CLI reads them
        names = {n for n in wf.discover_records(MITDB_DIR)
                 if len(wf.select_dataset([wf.load_record(MITDB_DIR, n)]))}
        assert len(names) == 44
