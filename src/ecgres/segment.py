"""Beat segmentation, rescaling, train/test splitting, and dataset files.

`cut_beats` cuts all annotated beats of a record in one array operation. A
beat whose 200-sample window around the R peak (100 before / 100 after)
leaves the record is dropped; every other beat keeps the central 180
samples of that window, rescaled per segment to [-1, 1]. A set of beats is
one `Beats` table of columns, from the cut to the network input.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import atomic
from . import denoise as dn
from .errors import EcgresError, ParseError
from .wfdb_io import BeatClass, Selection

WINDOW_SAMPLES = 200
SEGMENT_SAMPLES = 180
HALF_WINDOW = WINDOW_SAMPLES // 2

DATASET_MAGIC = b"ECGB"
DATASET_VERSION = 1


@dataclass(frozen=True, eq=False)
class Beats:
    """A table of beats: four equal-length columns, one row per beat. An
    integer index gives a one-row table, or IndexError past the end, so a
    table also iterates row by row."""

    samples: np.ndarray           # (n, 180) float32 in [-1, 1]
    labels: np.ndarray            # (n,) int64 BeatClass ids
    record_ids: np.ndarray        # (n,) object array of record-name str
    annotation_index: np.ndarray  # (n,) int64 R-peak sample index

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index) -> Beats:
        if isinstance(index, (int, np.integer)):
            index = slice(row := range(len(self))[index], row + 1)
        return Beats(*(getattr(self, f.name)[index] for f in fields(self)))

    @classmethod
    def concat(cls, tables) -> Beats:
        """The rows of `tables` in order; no tables give an empty table."""
        tables = [EMPTY, *tables]
        return cls(*(np.concatenate([getattr(t, f.name) for t in tables])
                     for f in fields(cls)))


EMPTY = Beats(np.zeros((0, SEGMENT_SAMPLES), np.float32), np.zeros(0, np.int64),
              np.zeros(0, object), np.zeros(0, np.int64))


def as_beats(beats: Beats | list[Beats]) -> Beats:
    # perfbench's prepare.py and Train set-up build sets as lists of tables
    return Beats.concat(beats) if isinstance(beats, list) else beats


@dataclass
class DatasetSplit:
    train: Beats
    test: Beats
    seed: int

    def __post_init__(self):
        self.train, self.test = as_beats(self.train), as_beats(self.test)


def cut_beats(channel: np.ndarray, centers) -> tuple[np.ndarray, np.ndarray]:
    """The network inputs for the beats annotated at `centers`.

    A beat is kept when its 200-sample window around the R peak lies inside
    the record. Each kept beat becomes samples center-90 .. center+89,
    mapped affinely onto [-1, 1] per row in float64 (constant rows become
    zeros), then cast to float32. Returns ((kept, 180) float32 samples,
    boolean kept mask over `centers`).
    """
    centers = np.asarray(centers, dtype=np.int64)
    kept = (centers >= HALF_WINDOW) & (centers + HALF_WINDOW <= len(channel))
    offsets = np.arange(-SEGMENT_SAMPLES // 2, SEGMENT_SAMPLES // 2)
    seg = np.asarray(channel, dtype=np.float64)[centers[kept, None] + offsets]
    lo, hi = seg.min(axis=1, keepdims=True), seg.max(axis=1, keepdims=True)
    flat = hi == lo
    # 2 * (seg - lo) / (hi - lo) - 1, the same operations in place on the gather
    seg -= lo
    seg *= 2.0
    seg /= np.where(flat, 1.0, hi - lo)
    seg -= 1.0
    seg[flat[:, 0]] = 0.0
    return seg.astype(np.float32), kept


def segment_record_beats(selection: Selection) -> tuple[Beats, int]:
    """Denoise the lead of each record with selected rows once, in name
    order, then cut that record's beats; a record too short to denoise is an
    EcgresError naming it. Returns (beats, boundary_skips)."""
    tables, skips = [], 0
    for name in sorted(set(selection.record_ids)):
        rows = selection[selection.record_ids == name]
        lead = selection.leads[name]
        if len(lead) < 2 ** dn.DEFAULT_LEVELS:
            raise EcgresError(f"record {name}: signal of length {len(lead)} too short; "
                              f"denoising needs at least {2 ** dn.DEFAULT_LEVELS} samples")
        channel = dn.denoise(lead)
        samples, kept = cut_beats(channel, rows.centers)
        skips += len(rows) - len(samples)
        tables.append(Beats(samples, rows.labels[kept], np.full(len(samples), name, dtype=object),
                            rows.centers[kept]))
    return Beats.concat(tables), skips


def build_split(
    segments: Beats | list[Beats], seed: int, per_set_size: int | None = None
) -> DatasetSplit:
    """Stratified 50/50 split; optional proportional down-sampling per set.

    Each class, in `BeatClass` order, is shuffled by one seeded permutation
    and its first ceil(n/2) beats go to train. With `per_set_size`, each set
    takes floor(per_set_size * class share) beats per class, capped by the
    class's half, then tops up one beat per class in turn, largest remainder
    first, until the set is full. Beats are never duplicated.
    """
    segments = as_beats(segments)
    if not segments:
        raise EcgresError("empty beat index")
    rng = np.random.default_rng(seed)
    labels = segments.labels
    halves = []
    for cls in range(len(BeatClass)):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        halves.append(np.split(idx, [(len(idx) + 1) // 2]))
    train, test = zip(*halves)
    if per_set_size is not None and per_set_size > min(sum(map(len, train)),
                                                       sum(map(len, test))):
        raise EcgresError(
            f"per_set_size {per_set_size} exceeds available beats per set "
            f"({len(segments)} total)"
        )

    def take(pool) -> Beats:
        n = cap = np.array([len(h) for h in pool])
        if per_set_size is not None:
            exact = per_set_size * np.bincount(labels, minlength=len(cap)) / len(segments)
            floor = exact.astype(np.int64)
            n = np.minimum(floor, cap)
            order = np.argsort(floor - exact, kind="stable")  # largest remainder first
            # each pass gives one more beat to every class with room left; the
            # pre-check above guarantees some class has room while deficit > 0
            while (deficit := per_set_size - n.sum()) > 0:
                room = order[n[order] < cap[order]]
                n[room[:deficit]] += 1
        return segments[np.concatenate([h[:k] for h, k in zip(pool, n)])]

    return DatasetSplit(take(train), take(test), seed)


# --- dataset container: magic "ECGB", version u16, count u32, then per beat
#     a u16 record-id length, the utf-8 id and the 725-byte `_FIXED` part:
#     u32 annotation index at 0, u8 label at 4, 180 float32 samples at 5 ---

_FIXED = np.dtype([("annotation_index", "<u4"), ("label", "u1"),
                   ("samples", "<f4", (SEGMENT_SAMPLES,))])


def save_segments(beats: Beats, path: str | Path) -> None:
    """One `tobytes()` encodes every row's fixed part; each row then joins
    its record's cached length-and-id prefix and its slice of those bytes."""
    fixed = np.empty(len(beats), _FIXED)
    fixed["annotation_index"], fixed["label"], fixed["samples"] = (
        beats.annotation_index, beats.labels, beats.samples)
    body, size = memoryview(fixed.tobytes()), _FIXED.itemsize
    prefix = {rid: struct.pack("<H", len(b)) + b
              for rid in set(beats.record_ids) for b in [rid.encode()]}
    parts = [DATASET_MAGIC + struct.pack("<HI", DATASET_VERSION, len(beats))]
    for i, rid in enumerate(beats.record_ids):
        parts += prefix[rid], body[i * size : (i + 1) * size]
    atomic.write_bytes(path, b"".join(parts))


def load_segments(path: str | Path) -> Beats:
    """One pass over the ids finds the fixed parts; array gathers decode them."""
    data = Path(path).read_bytes()
    if data[:4] != DATASET_MAGIC:
        raise ParseError(f"{path}: not a dataset file (bad magic)")
    ids, starts = [], []
    try:
        version, count = struct.unpack_from("<HI", data, 4)
        if version != DATASET_VERSION:
            raise ParseError(f"{path}: unsupported dataset version {version}")
        pos = 10
        for _ in range(count):
            (rid_len,) = struct.unpack_from("<H", data, pos)
            ids.append(data[pos + 2 : pos + 2 + rid_len].decode())
            starts.append(pos := pos + 2 + rid_len)
            pos += _FIXED.itemsize
    except (struct.error, ValueError) as e:
        raise ParseError(f"{path}: truncated or corrupt dataset file") from e
    if pos > len(data):
        raise ParseError(f"{path}: truncated or corrupt dataset file")
    if pos < len(data):
        raise ParseError(f"{path}: {len(data) - pos} bytes after the last of {count} segments")
    if not count:
        return EMPTY
    # Each column is gathered from a sliding-window view of the file at its
    # `_FIXED` offset. The view copies nothing, so the file bytes and the
    # samples are the only large buffers alive at once.
    u8, starts = np.frombuffer(data, np.uint8), np.array(starts)
    window = np.lib.stride_tricks.sliding_window_view
    labels = u8[starts + 4].astype(np.int64)
    if labels.max() >= len(BeatClass):
        raise ParseError(f"{path}: label {labels.max()} is not a beat class")
    samples = window(u8, 4 * SEGMENT_SAMPLES)[starts + 5].view("<f4")
    if not -1 <= samples.min() <= samples.max() <= 1:  # False for NaN too
        row = (np.abs(samples) <= 1).all(axis=1).argmin()
        raise ParseError(f"{path}: segment {row} has a sample outside [-1, 1]")
    return Beats(samples, labels, np.array(ids, dtype=object),
                 window(u8, 4)[starts].view("<u4")[:, 0].astype(np.int64))


def segments_to_arrays(beats: Beats) -> tuple[np.ndarray, np.ndarray]:
    """(batch, 1, 180) float32 inputs and int label vector for the network."""
    if not beats:
        raise EcgresError("no beats to stack: the dataset is empty")
    return beats.samples[:, None, :], beats.labels
