"""Beat segmentation, rescaling, train/test splitting, and dataset files.

`cut_beats` cuts all annotated beats of a record in one array operation. A
beat whose 200-sample window around the R peak (100 before / 100 after)
leaves the record is dropped; every other beat keeps the central 180
samples of that window, rescaled per segment to [-1, 1].
"""
from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import atomic
from . import denoise as dn
from .errors import ParseError, SizeError
from .wfdb_io import BeatClass, BeatRef

WINDOW_SAMPLES = 200
SEGMENT_SAMPLES = 180
HALF_WINDOW = WINDOW_SAMPLES // 2

DATASET_MAGIC = b"ECGB"
DATASET_VERSION = 1


@dataclass(frozen=True)
class BeatSegment:
    samples: np.ndarray  # 180 float32 values in [-1, 1]
    label: BeatClass
    record_id: str
    annotation_index: int

    @property
    def key(self) -> tuple[str, int]:
        return (self.record_id, self.annotation_index)


@dataclass
class DatasetSplit:
    train: list[BeatSegment]
    test: list[BeatSegment]
    seed: int


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
    out = 2.0 * (seg - lo) / np.where(flat, 1.0, hi - lo) - 1.0
    out[flat[:, 0]] = 0.0
    return out.astype(np.float32), kept


def segment_record_beats(
    refs: list[BeatRef],
    levels: int = dn.DEFAULT_LEVELS,
    window: int = dn.DEFAULT_BASELINE_WINDOW,
    policy: dn.ThresholdPolicy = dn.ThresholdPolicy(),
) -> tuple[list[BeatSegment], int]:
    """Denoise each referenced record once, then cut its beats.

    Returns (segments, boundary_skips).
    """
    by_record: dict[str, list[BeatRef]] = {}
    for ref in refs:
        by_record.setdefault(ref.record.name, []).append(ref)

    segments: list[BeatSegment] = []
    skips = 0
    for name in sorted(by_record):
        group = by_record[name]
        channel = dn.denoise(group[0].record.channels[group[0].channel],
                             levels=levels, window=window, policy=policy)
        samples, kept = cut_beats(channel, [r.annotation.sample_index for r in group])
        kept_refs = [r for r, k in zip(group, kept) if k]
        skips += len(group) - len(kept_refs)
        segments += [BeatSegment(row, r.label, name, r.annotation.sample_index)
                     for row, r in zip(samples, kept_refs)]
    return segments, skips


def build_split(
    segments: list[BeatSegment], seed: int, per_set_size: int | None = None
) -> DatasetSplit:
    """Stratified 50/50 split; optional proportional down-sampling per set.

    Each class, in `BeatClass` order, is shuffled by one seeded permutation
    and its first ceil(n/2) beats go to train. With `per_set_size`, each set
    takes floor(per_set_size * class share) beats per class, capped by the
    class's half, then tops up one beat per class in turn, largest remainder
    first, until the set is full. Beats are never duplicated.
    """
    if not segments:
        raise SizeError("empty beat index")
    rng = np.random.default_rng(seed)
    labels = np.array([int(s.label) for s in segments])
    halves = []
    for cls in range(len(BeatClass)):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        halves.append(np.split(idx, [(len(idx) + 1) // 2]))
    train, test = zip(*halves)
    if per_set_size is not None and per_set_size > min(sum(map(len, train)),
                                                       sum(map(len, test))):
        raise SizeError(
            f"per_set_size {per_set_size} exceeds available beats per set "
            f"({len(segments)} total)"
        )

    def take(pool) -> list[BeatSegment]:
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
        return [segments[i] for i in np.concatenate([h[:k] for h, k in zip(pool, n)])]

    return DatasetSplit(take(train), take(test), seed)


# --- dataset container: magic "ECGB", version u16, count u32, then per beat:
#     u16 record-id length + utf-8 bytes, u32 annotation index, u8 label,
#     180 little-endian float32 samples ---

def save_segments(segments: list[BeatSegment], path: str | Path) -> None:
    buf = io.BytesIO()
    buf.write(DATASET_MAGIC)
    buf.write(struct.pack("<HI", DATASET_VERSION, len(segments)))
    for seg in segments:
        rid = seg.record_id.encode()
        buf.write(struct.pack("<H", len(rid)))
        buf.write(rid)
        buf.write(struct.pack("<IB", seg.annotation_index, int(seg.label)))
        buf.write(np.asarray(seg.samples, dtype="<f4").tobytes())
    atomic.write_bytes(path, buf.getvalue())


def load_segments(path: str | Path) -> list[BeatSegment]:
    data = Path(path).read_bytes()
    if data[:4] != DATASET_MAGIC:
        raise ParseError(f"{path}: not a dataset file (bad magic)")
    out = []
    try:
        version, count = struct.unpack_from("<HI", data, 4)
        if version != DATASET_VERSION:
            raise ParseError(f"{path}: unsupported dataset version {version}")
        pos = 10
        for _ in range(count):
            (rid_len,) = struct.unpack_from("<H", data, pos)
            pos += 2
            rid = data[pos : pos + rid_len].decode()
            pos += rid_len
            ann_idx, label = struct.unpack_from("<IB", data, pos)
            pos += 5
            samples = np.frombuffer(data, dtype="<f4", count=SEGMENT_SAMPLES, offset=pos)
            pos += 4 * SEGMENT_SAMPLES
            out.append(BeatSegment(samples.copy(), BeatClass(label), rid, ann_idx))
    except (struct.error, ValueError) as e:
        raise ParseError(f"{path}: truncated or corrupt dataset file") from e
    if pos != len(data):
        raise ParseError(f"{path}: {len(data) - pos} bytes after the last of {count} segments")
    return out


def segments_to_arrays(segments: list[BeatSegment]) -> tuple[np.ndarray, np.ndarray]:
    """(batch, 1, 180) float32 inputs and int label vector for the network."""
    if not segments:
        raise SizeError("no beats to stack: the dataset is empty")
    x = np.stack([np.asarray(s.samples, dtype=np.float32) for s in segments])
    return x[:, None, :], np.array([int(s.label) for s in segments], dtype=np.int64)
