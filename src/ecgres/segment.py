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

    Shuffling and sampling use a seeded generator, so identical inputs and
    seed give identical splits. Beats are never duplicated.
    """
    if not segments:
        raise SizeError("empty beat index")
    rng = np.random.default_rng(seed)

    by_class: dict[int, list[BeatSegment]] = {int(c): [] for c in BeatClass}
    for seg in segments:
        by_class[int(seg.label)].append(seg)

    train_pool: dict[int, list[BeatSegment]] = {}
    test_pool: dict[int, list[BeatSegment]] = {}
    for cls in sorted(by_class):
        group = by_class[cls]
        order = rng.permutation(len(group))
        shuffled = [group[i] for i in order]
        half = (len(group) + 1) // 2
        train_pool[cls] = shuffled[:half]
        test_pool[cls] = shuffled[half:]

    if per_set_size is None:
        train = [s for cls in sorted(train_pool) for s in train_pool[cls]]
        test = [s for cls in sorted(test_pool) for s in test_pool[cls]]
        return DatasetSplit(train, test, seed)

    total = len(segments)
    if per_set_size > min(sum(len(v) for v in train_pool.values()),
                          sum(len(v) for v in test_pool.values())):
        raise SizeError(
            f"per_set_size {per_set_size} exceeds available beats per set "
            f"({len(segments)} total)"
        )

    # proportional allocation with largest remainders, capped by availability
    def allocate(pool: dict[int, list[BeatSegment]]) -> list[BeatSegment]:
        classes = sorted(c for c in by_class if by_class[c])
        exact = {c: per_set_size * len(by_class[c]) / total for c in classes}
        counts = {c: min(int(exact[c]), len(pool[c])) for c in classes}
        remainders = sorted(
            classes, key=lambda c: exact[c] - int(exact[c]), reverse=True
        )
        deficit = per_set_size - sum(counts.values())
        while deficit > 0:
            progressed = False
            for c in remainders:
                if deficit == 0:
                    break
                if counts[c] < len(pool[c]):
                    counts[c] += 1
                    deficit -= 1
                    progressed = True
            if not progressed:
                raise SizeError(
                    f"cannot reach per_set_size {per_set_size} with available class counts"
                )
        return [s for c in classes for s in pool[c][: counts[c]]]

    return DatasetSplit(allocate(train_pool), allocate(test_pool), seed)


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
