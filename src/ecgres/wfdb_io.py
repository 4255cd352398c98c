"""MIT-BIH WFDB readers: header (.hea), format-212 signal (.dat), annotations (.atr).

Only the subset of the WFDB conventions that the MIT-BIH arrhythmia database
actually uses is supported: two-signal format-212 records sampled at 360 Hz
with MIT-format annotation files. Anything else raises `ParseError`, which
the CLI ends with exit code 2; `load_record`'s errors name the file or record.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import ParseError

# The 48 records of the MIT-BIH arrhythmia database.
MITBIH_RECORDS = [
    "100", "101", "102", "103", "104", "105", "106", "107",
    "108", "109", "111", "112", "113", "114", "115", "116",
    "117", "118", "119", "121", "122", "123", "124", "200",
    "201", "202", "203", "205", "207", "208", "209", "210",
    "212", "213", "214", "215", "217", "219", "220", "221",
    "222", "223", "228", "230", "231", "232", "233", "234",
]

# Dropped for poor signal quality (AAMI recommendation).
EXCLUDED_RECORDS = frozenset({"102", "104", "107", "217"})

LEAD_NAME = "MLII"

# MIT annotation type codes -> symbols (subset of the standard table);
# `encode_annotations` maps the symbols back to codes.
ANNOTATION_SYMBOLS = {
    1: "N", 2: "L", 3: "R", 4: "a", 5: "V", 6: "F", 7: "J", 8: "A",
    9: "S", 10: "E", 11: "j", 12: "/", 13: "Q", 14: "~", 16: "|",
    18: "s", 19: "T", 20: "*", 21: "D", 22: '"', 23: "=", 24: "p",
    25: "B", 26: "^", 27: "t", 28: "+", 29: "u", 30: "?", 31: "!",
    32: "[", 33: "]", 34: "e", 35: "n", 36: "#", 37: "x", 38: "f",
}
_SYMBOL_TO_CODE = {symbol: code for code, symbol in ANNOTATION_SYMBOLS.items()}

# Pseudo-annotation codes: consumed while parsing, never emitted.
_SKIP, _AUX = 59, 63  # 60-62 are NUM, SUB and CHN, one word each


class BeatClass(IntEnum):
    """The five target classes with their fixed ids."""

    NOR = 0
    LBBB = 1
    RBBB = 2
    APC = 3
    PVC = 4


# The MIT symbol of each BeatClass, indexed by its id, and MIT type code ->
# BeatClass id through those symbols; -1 for every code outside the five classes.
CLASS_SYMBOLS = "NLRAV"
CODE_TO_CLASS = np.full(64, -1, dtype=np.int64)
CODE_TO_CLASS[[_SYMBOL_TO_CODE[s] for s in CLASS_SYMBOLS]] = list(BeatClass)


@dataclass(frozen=True)
class SignalSpec:
    file_name: str
    format_code: int
    gain: float
    adc_zero: int
    description: str


@dataclass(frozen=True)
class RecordHeader:
    record_name: str
    num_signals: int
    sampling_frequency: float
    num_samples: int
    signals: tuple[SignalSpec, ...]


@dataclass(frozen=True)
class EcgRecord:
    header: RecordHeader
    channels: tuple[np.ndarray, ...]  # millivolts, float64
    ann_samples: np.ndarray  # (n,) int64 annotation sample indices
    ann_codes: np.ndarray    # (n,) uint8 MIT annotation type codes

    @property
    def name(self) -> str:
        return self.header.record_name


@dataclass(frozen=True, eq=False)
class Selection:
    """The selected beats as columns, one row per beat, and the MLII lead of
    each record a row comes from. Indexing takes rows and keeps the leads."""

    record_ids: np.ndarray  # (n,) object array of record-name str
    channels: np.ndarray    # (n,) int64 MLII channel index in its record
    centers: np.ndarray     # (n,) int64 R-peak sample index
    labels: np.ndarray      # (n,) int64 BeatClass ids
    leads: dict[str, np.ndarray] = field(repr=False)  # record name -> MLII lead, mV

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, rows) -> Selection:
        return Selection(self.record_ids[rows], self.channels[rows], self.centers[rows],
                         self.labels[rows], self.leads)


def parse_header(text: str) -> RecordHeader:
    """Parse a WFDB .hea file. Only format-212 signal lines are accepted."""
    lines = [
        ln.strip() for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise ParseError("empty header")

    fields = lines[0].split()
    if len(fields) < 4:
        raise ParseError(f"line 1: expected 'name nsig fs nsamp', got {lines[0]!r}")
    try:
        record_name = fields[0].split("/")[0]
        num_signals = int(fields[1])
        # fs may carry counter-frequency suffixes: "360/..." or "360(0)"
        fs_tok = fields[2].split("/")[0].split("(")[0]
        sampling_frequency = float(fs_tok)
        if not np.isfinite(sampling_frequency):
            raise ValueError(f"sampling frequency {sampling_frequency} is not finite")
        num_samples = int(fields[3])
    except ValueError as e:
        raise ParseError(f"line 1: {e}") from e
    if num_signals <= 0:
        raise ParseError(f"line 1: non-positive signal count {num_signals}")
    if num_samples <= 0:
        raise ParseError(f"line 1: non-positive sample count {num_samples}")

    if len(lines) - 1 < num_signals:
        raise ParseError(
            f"header declares {num_signals} signals but has {len(lines) - 1} signal lines"
        )

    signals = []
    for i in range(num_signals):
        toks = lines[1 + i].split()
        lineno = 2 + i
        if len(toks) < 3:
            raise ParseError(f"line {lineno}: short signal line {lines[1 + i]!r}")
        try:
            # format token may carry xN/:N/+N modifiers; take the leading int
            fmt = int(re.match(r"\d*", toks[1]).group())
            # a zero gain means unspecified: WFDB's default is 200
            gain = float(toks[2].split("(")[0].split("/")[0]) or 200.0
            if not np.isfinite(gain):
                raise ValueError(f"gain {gain} is not finite")
            adc_zero = int(toks[4]) if len(toks) > 4 else 0
        except ValueError as e:
            raise ParseError(f"line {lineno}: bad signal line {lines[1 + i]!r} ({e})") from e
        if fmt != 212:
            raise ParseError(
                f"line {lineno}: signal format {fmt} (only 212 supported)"
            )
        if not -2048 <= adc_zero <= 2047:
            raise ParseError(
                f"line {lineno}: ADC zero outside format 212's 12-bit range [-2048, 2047]"
            )
        description = " ".join(toks[8:]) if len(toks) > 8 else f"sig{i}"
        signals.append(SignalSpec(toks[0], fmt, gain, adc_zero, description))

    return RecordHeader(
        record_name=record_name,
        num_signals=num_signals,
        sampling_frequency=sampling_frequency,
        num_samples=num_samples,
        signals=tuple(signals),
    )


def decode_format212(data: bytes, num_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Unpack two interleaved 12-bit channels from format-212 bytes.

    Each 3-byte group holds two samples:
      s1 = b0 | ((b1 & 0x0F) << 8),  s2 = b2 | ((b1 & 0xF0) << 4)
    both sign-extended from 12 bits. Returns raw ADC counts (int16).
    """
    needed = -(-num_samples * 2 * 12 // 8)  # ceil
    if len(data) != needed:
        size = "short" if len(data) < needed else "long"
        raise ParseError(
            f"format-212 file too {size}: need {needed} bytes for "
            f"{num_samples} samples/channel, got {len(data)}"
        )
    groups = np.frombuffer(data, dtype=np.uint8, count=3 * num_samples).reshape(-1, 3)
    s1 = groups[:, 1].astype(np.int16)
    s2 = s1 >> 4  # high nibble of b1
    s1 &= 0x0F
    for s, low in ((s1, groups[:, 0]), (s2, groups[:, 2])):
        s <<= 8
        s |= low
        s ^= 0x800  # sign-extend from bit 11: (v ^ 0x800) - 0x800
        s -= 0x800
    return s1, s2


def encode_format212(ch1: np.ndarray, ch2: np.ndarray) -> bytes:
    """Inverse of decode_format212 (used by tests and the synthetic writer)."""
    if len(ch1) != len(ch2):
        raise ParseError("format-212 channels must have equal length")
    a = np.asarray(ch1, dtype=np.int32) & 0xFFF
    b = np.asarray(ch2, dtype=np.int32) & 0xFFF
    out = np.empty(3 * len(a), dtype=np.uint8)
    out[0::3] = a & 0xFF
    out[1::3] = ((a >> 8) & 0x0F) | (((b >> 8) & 0x0F) << 4)
    out[2::3] = b & 0xFF
    return out.tobytes()


def parse_annotations(data: bytes, num_samples: int | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Parse a MIT-format .atr byte stream into (int64 sample indices, uint8
    type codes) of its annotations.

    Words are 2-byte little-endian; top 6 bits are the type code, bottom 10
    the sample-index increment. SKIP/NUM/SUB/CHN/AUX pseudo-annotations are
    consumed without being emitted. The stream ends with a zero word.
    Python walks only the zero and pseudo-annotation (code >= 59) words.
    """
    # every word starts at an even offset: a SKIP's value is 4 bytes, and an
    # AUX's string is padded to even
    words = np.frombuffer(data, dtype="<u2", count=len(data) // 2)
    delta = (words & 0x3FF).astype(np.int64)  # a SKIP's word carries its value
    emitted = np.ones(len(words), dtype=bool)
    end, error, pos = len(words), "annotation stream missing zero terminator", 0
    for i in np.flatnonzero((words == 0) | (words >= _SKIP << 10)).tolist():
        if i < pos:
            continue  # a word of an earlier SKIP's or AUX's payload
        code, pos = int(words[i]) >> 10, i + 1
        if code == 0:
            end, error = i, None
            break
        if code == _SKIP:
            pos += 2
        elif code == _AUX:  # aux strings are padded to even
            pos += (int(delta[i]) + 1) // 2
        if 2 * pos > len(data):
            end = i
            error = "truncated SKIP annotation" if code == _SKIP else "truncated AUX annotation"
            break
        delta[i:pos] = 0
        emitted[i:pos] = False
        if code == _SKIP:
            high, low = words[i + 1 : pos].tolist()
            skip = (high << 16) | low
            delta[i] = skip - (1 << 32) if skip >= 1 << 31 else skip
    emitted = emitted[:end]
    samples = np.cumsum(delta[:end])[emitted]
    if num_samples is not None:
        outside = (samples < 0) | (samples >= num_samples)
        if outside.any():
            raise ParseError(f"annotation at sample {samples[outside.argmax()]} "
                             f"outside record of {num_samples} samples")
    if error:
        raise ParseError(error)
    return samples, (words[:end][emitted] >> 10).astype(np.uint8)


def encode_annotations(samples, symbols) -> bytes:
    """Inverse of parse_annotations, from sample indices and their symbols
    (values of ANNOTATION_SYMBOLS)."""
    chunks = []
    prev = 0
    for sample, symbol in zip(samples, symbols):
        code = _SYMBOL_TO_CODE[symbol]
        inc = sample - prev
        if inc < 0:
            raise ParseError("annotations must be in increasing sample order")
        if inc > 0x3FF:
            chunks.append(int.to_bytes(_SKIP << 10, 2, "little"))
            chunks.append(int.to_bytes((inc >> 16) & 0xFFFF, 2, "little"))
            chunks.append(int.to_bytes(inc & 0xFFFF, 2, "little"))
            inc = 0
        chunks.append(int.to_bytes((code << 10) | inc, 2, "little"))
        prev = sample
    chunks.append(b"\x00\x00")
    return b"".join(chunks)


def _naming(path: Path, parse, *args):
    """`parse(*args)`, with `path` put before the message of a ParseError it raises."""
    try:
        return parse(*args)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from e


def load_record(data_dir: str | Path, name: str) -> EcgRecord:
    """Load one record's header, signals (converted to mV), and annotations.

    The signal file is the one the header names, relative to `data_dir`.
    """
    data_dir = Path(data_dir)
    hea = data_dir / f"{name}.hea"
    data = hea.read_bytes()
    try:  # WFDB headers are ASCII
        text = data.decode("ascii")
    except UnicodeDecodeError as e:
        raise ParseError(f"{hea}: byte 0x{data[e.start]:02X} at offset {e.start} "
                         "is not ASCII") from e
    header = _naming(hea, parse_header, text)
    if header.record_name != name:
        raise ParseError(f"{hea}: header declares record {header.record_name}")
    if header.num_signals != 2:
        raise ParseError(
            f"record {name}: expected 2 signals, header declares {header.num_signals}"
        )
    if header.sampling_frequency != 360:  # the 200-sample beat window assumes it
        raise ParseError(
            f"record {name}: sampled at {str(header.sampling_frequency).removesuffix('.0')} Hz, "
            "only 360 Hz is supported"
        )
    # format 212 interleaves both signals in one file, named on each signal line
    files = {spec.file_name for spec in header.signals}
    if len(files) != 1:
        raise ParseError(
            f"record {name}: format-212 signals must share one file, header names "
            f"{sorted(files)}"
        )
    dat = data_dir / files.pop()
    raw1, raw2 = _naming(dat, decode_format212, dat.read_bytes(), header.num_samples)
    channels = []
    for spec, raw in zip(header.signals, (raw1, raw2)):
        mv = np.subtract(raw, spec.adc_zero, dtype=np.float64)
        mv /= spec.gain
        channels.append(mv)
    atr = data_dir / f"{name}.atr"
    ann_samples, ann_codes = _naming(atr, parse_annotations, atr.read_bytes(),
                                     header.num_samples)
    return EcgRecord(header, tuple(channels), ann_samples, ann_codes)


def discover_records(data_dir: str | Path) -> list[str]:
    """Record names present in a directory, by globbing *.hea."""
    return sorted(p.stem for p in Path(data_dir).glob("*.hea"))


def select_dataset(records) -> Selection:
    """The beats of the paper's protocol, as one `Selection`.

    Drops records 102/104/107/217, keeps only the MLII channel, and keeps
    only annotations coded N/L/R/A/V. Beats with any other code are dropped
    silently.
    """
    ids, channels, centers, labels, leads = [], [], [], [], {}
    for rec in records:
        if rec.name in EXCLUDED_RECORDS:
            continue
        descriptions = [s.description for s in rec.header.signals]
        if LEAD_NAME not in descriptions:
            raise ParseError(
                f"record {rec.name} has no {LEAD_NAME} channel (leads: {descriptions})"
            )
        channel = descriptions.index(LEAD_NAME)
        label = CODE_TO_CLASS[rec.ann_codes]
        rows = np.flatnonzero(label >= 0)
        if len(rows):
            leads[rec.name] = rec.channels[channel]
        ids += [rec.name] * len(rows)
        channels += [channel] * len(rows)
        centers += rec.ann_samples[rows].tolist()
        labels += label[rows].tolist()
    return Selection(np.array(ids, dtype=object), np.array(channels, dtype=np.int64),
                     np.array(centers, dtype=np.int64), np.array(labels, dtype=np.int64),
                     leads)


def class_counts(labels: np.ndarray) -> dict[str, int]:
    """Beats per class name, from an integer array of `BeatClass` ids."""
    counts = np.bincount(labels, minlength=len(BeatClass))
    return {cls.name: int(counts[cls]) for cls in BeatClass}
