import hashlib
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecgres import segment as sg
from ecgres import synthetic
from ecgres import wfdb_io as wf
from ecgres.errors import EcgresError, ParseError
from ecgres.wfdb_io import BeatClass


def rescale(segment):
    """Reference affine map onto [-1, 1]; constant segments map to zeros."""
    seg = np.asarray(segment, dtype=np.float64)
    lo, hi = seg.min(), seg.max()
    if hi == lo:
        return np.zeros_like(seg)
    return 2.0 * (seg - lo) / (hi - lo) - 1.0


def oracle_beat(channel, center):
    """Reference per-beat cut: the 200-sample window around `center`, its
    central 180 samples, rescaled, float32; None when the window leaves the
    record."""
    lo, hi = center - 100, center + 100
    if lo < 0 or hi > len(channel):
        return None
    return rescale(channel[lo:hi][10:190]).astype(np.float32)


def make_segment(label=BeatClass.NOR, record_id="100", ann=0, seed=0):
    """A one-row `Beats` table with random rescaled samples."""
    rng = np.random.default_rng(seed)
    samples = rescale(rng.standard_normal(180)).astype(np.float32)
    return sg.Beats(samples[None], np.array([label], np.int64),
                    np.array([record_id], object), np.array([ann], np.int64))


def make_beats(n, classes=5):
    """`n` rows of `make_segment`, labels cycling through the first `classes`."""
    return sg.Beats.concat([make_segment(BeatClass(i % classes), "100", i, i)
                            for i in range(n)])


def save_segments_oracle(beats):
    """The bytes of the per-row `np.rec.fromarrays` + `struct.pack` encoder,
    kept as the bit-exact reference for `save_segments`."""
    fixed = np.rec.fromarrays([beats.annotation_index, beats.labels, beats.samples],
                              dtype=sg._FIXED)
    rows = (struct.pack("<H", len(rid)) + rid + row.tobytes()
            for rid, row in zip((r.encode() for r in beats.record_ids), fixed))
    head = sg.DATASET_MAGIC + struct.pack("<HI", sg.DATASET_VERSION, len(beats))
    return head + b"".join(rows)


def assert_saves_as_oracle(beats, path):
    sg.save_segments(beats, path)
    assert path.read_bytes() == save_segments_oracle(beats)


def keys(beats):
    """The (record id, annotation index) key of each row, as Python values."""
    return list(zip(beats.record_ids.tolist(), beats.annotation_index.tolist()))


def write_record(data_dir, centers, num_samples, name="100"):
    """A one-record WFDB database of `num_samples` samples with an N beat
    annotated at each of `centers`."""
    codes = "N" * len(centers)
    rng = np.random.default_rng(0)
    adc = [np.round(200 * synthetic.synth_channel(codes, centers, num_samples, rng)
                    ).astype(np.int16) + 1024 for _ in range(2)]
    data_dir.mkdir(parents=True, exist_ok=True)
    (data_dir / f"{name}.dat").write_bytes(wf.encode_format212(*adc))
    (data_dir / f"{name}.hea").write_text(
        f"{name} 2 360 {num_samples}\n"
        f"{name}.dat 212 200 11 1024 0 0 0 MLII\n"
        f"{name}.dat 212 200 11 1024 0 0 0 V5\n")
    (data_dir / f"{name}.atr").write_bytes(wf.encode_annotations(centers, codes))


def write_edge_record(data_dir, name="100", num_samples=3600):
    """A one-record WFDB database whose first and last of three N beats lie
    50 samples from the record's ends."""
    centers = [50, num_samples // 2, num_samples - 50]
    write_record(data_dir, centers, num_samples, name)
    return centers


def oracle_split(segments, seed, per_set_size=None):
    """Reference split: the list-pool allocator that `build_split` replaced.
    Returns the (train keys, test keys) lists."""
    if not segments:
        raise EcgresError("empty beat index")
    rng = np.random.default_rng(seed)

    by_class = {int(c): [] for c in BeatClass}
    for label, key in zip(segments.labels.tolist(), keys(segments)):
        by_class[label].append(key)

    train_pool, test_pool = {}, {}
    for cls in sorted(by_class):
        group = by_class[cls]
        order = rng.permutation(len(group))
        shuffled = [group[i] for i in order]
        half = (len(group) + 1) // 2
        train_pool[cls] = shuffled[:half]
        test_pool[cls] = shuffled[half:]

    if per_set_size is None:
        return ([k for cls in sorted(train_pool) for k in train_pool[cls]],
                [k for cls in sorted(test_pool) for k in test_pool[cls]])

    total = len(segments)
    if per_set_size > min(sum(len(v) for v in train_pool.values()),
                          sum(len(v) for v in test_pool.values())):
        raise EcgresError(
            f"per_set_size {per_set_size} exceeds available beats per set "
            f"({len(segments)} total)"
        )

    def allocate(pool):
        classes = sorted(c for c in by_class if by_class[c])
        exact = {c: per_set_size * len(by_class[c]) / total for c in classes}
        counts = {c: min(int(exact[c]), len(pool[c])) for c in classes}
        remainders = sorted(classes, key=lambda c: exact[c] - int(exact[c]), reverse=True)
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
                raise EcgresError(
                    f"cannot reach per_set_size {per_set_size} with available class counts"
                )
        return [k for c in classes for k in pool[c][: counts[c]]]

    return allocate(train_pool), allocate(test_pool)


def split_keys(split):
    return keys(split.train), keys(split.test)


def oracle_load(data):
    """Reference decode: the per-beat `struct` reader that `load_segments`
    replaced. Returns one (record id, annotation index, label, samples)
    tuple per beat."""
    version, count = struct.unpack_from("<HI", data, 4)
    assert data[:4] == sg.DATASET_MAGIC and version == sg.DATASET_VERSION
    out, pos = [], 10
    for _ in range(count):
        (rid_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        rid = data[pos : pos + rid_len].decode()
        pos += rid_len
        ann_idx, label = struct.unpack_from("<IB", data, pos)
        pos += 5
        samples = np.frombuffer(data, dtype="<f4", count=180, offset=pos)
        pos += 4 * 180
        out.append((rid, ann_idx, BeatClass(label), samples.copy()))
    assert pos == len(data)
    return out


def cut_one(channel, center):
    samples, kept = sg.cut_beats(channel, [center])
    assert samples.shape == (int(kept[0]), 180) and samples.dtype == np.float32
    return samples[0] if kept[0] else None


class TestBeats:
    def test_integer_index_is_one_row(self):
        beats = make_beats(4)
        for i in (2, np.int64(2), -2):
            row = beats[i]
            assert len(row) == 1 and row.samples.shape == (1, 180)
            assert keys(row) == [("100", 2)] and row.labels.tolist() == [2]
            assert np.shares_memory(row.samples, beats.samples)
        for i in (4, -5):
            with pytest.raises(IndexError):
                beats[i]

    def test_iterates_row_by_row(self):
        beats = make_beats(5)
        rows = list(beats)
        assert len(rows) == 5 and all(len(r) == 1 for r in rows)
        again = sg.Beats.concat(rows)
        assert keys(again) == keys(beats)
        assert np.array_equal(again.samples, beats.samples)

    def test_index_array_and_slice(self):
        beats = make_beats(6)
        assert keys(beats[np.array([4, 1])]) == [("100", 4), ("100", 1)]
        assert keys(beats[1:3]) == [("100", 1), ("100", 2)]
        assert len(beats[np.array([], dtype=np.int64)]) == 0

    def test_empty_concat(self):
        empty = sg.Beats.concat([])
        assert len(empty) == 0 and not empty
        assert empty.samples.shape == (0, 180) and empty.samples.dtype == np.float32
        assert empty.labels.dtype == np.int64 and empty.annotation_index.dtype == np.int64

    def test_lists_of_tables_are_concatenated(self):
        rows = [make_segment(BeatClass(i % 5), ann=i, seed=i) for i in range(30)]
        split = sg.DatasetSplit(rows[:20], [], 0)
        assert isinstance(split.train, sg.Beats) and len(split.train) == 20
        assert isinstance(split.test, sg.Beats) and len(split.test) == 0
        assert split_keys(sg.build_split(rows, 3)) == split_keys(
            sg.build_split(sg.Beats.concat(rows), 3))


# The window, crop and rescale rules of `cut_beats`, one class each.

class TestExtractWindow:
    def test_ramp(self):
        # a quadratic ramp: the rescaled cut shows which samples it took
        channel = np.arange(1000.0) ** 2
        assert np.array_equal(cut_one(channel, 100),
                              rescale(channel[10:190]).astype(np.float32))

    def test_boundary_skip_start(self):
        assert cut_one(np.arange(1000.0), 50) is None
        assert cut_one(np.arange(1000.0), 99) is None
        assert cut_one(np.arange(1000.0), 100) is not None

    def test_boundary_skip_end(self):
        assert cut_one(np.arange(1000.0), 950) is None
        assert cut_one(np.arange(1000.0), 901) is None
        assert cut_one(np.arange(1000.0), 900) is not None

    def test_peak_centered(self, synth_selection):
        # R annotations sit at the beat peak; check the segment max lands
        # within a few samples of center for a clean tall beat
        sel = synth_selection
        row = np.flatnonzero((sel.labels == BeatClass.NOR) & (sel.centers > 200))[0]
        out = cut_one(sel.leads[sel.record_ids[row]], sel.centers[row])
        assert abs(int(np.argmax(out)) - 90) <= 5


class TestReduceDimension:
    def test_ramp_crop(self):
        channel = np.arange(1000.0) ** 2
        assert np.array_equal(cut_one(channel, 500),
                              rescale(channel[410:590]).astype(np.float32))

    def test_constant(self):
        out = cut_one(np.full(1000, 7.0), 500)
        assert out.shape == (180,) and np.all(out == 0.0)

    def test_boundary_identity(self):
        # the crop's first and last samples are the extremes; the window's
        # outer samples 9 and 190, beyond them, are not part of the segment
        win = np.random.default_rng(0).uniform(0.0, 1.0, 200)
        win[[9, 10, 189, 190]] = [-10.0, -5.0, 5.0, 10.0]
        out = cut_one(win, 100)
        assert out[0] == -1.0 and out[179] == 1.0
        assert np.array_equal(out, rescale(win[10:190]).astype(np.float32))


class TestRescale:
    def test_affine_endpoints(self):
        channel = np.zeros(400)
        channel[110:290] = 5.0
        channel[[110, 289]] = [0.0, 10.0]
        out = cut_one(channel, 200)
        assert out[0] == -1.0 and out[179] == 1.0 and np.all(out[1:179] == 0.0)

    def test_constant_maps_to_zero(self):
        out = cut_one(np.full(400, 3.3), 200)
        assert np.all(out == 0.0) and not np.signbit(out).any()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_range_attained(self, seed):
        channel = np.random.default_rng(seed).standard_normal(600)
        samples, kept = sg.cut_beats(channel, [100, 250, 400, 500])
        assert kept.all()
        assert samples.min(axis=1) == pytest.approx(-1.0, abs=1e-12)
        assert samples.max(axis=1) == pytest.approx(1.0, abs=1e-12)


class TestCutBeats:
    @pytest.mark.parametrize("num_centers", [0, 1, 3000])
    def test_bit_equal_to_oracle(self, num_centers):
        rng = np.random.default_rng(num_centers)
        channel = rng.standard_normal(20000).cumsum()
        channel[5000:5400] = 3.25  # constant rows
        centers = rng.integers(-50, 20050, num_centers)
        if num_centers > 1:
            centers[:7] = [99, 100, 101, 19899, 19900, 19901, 5200]
        samples, kept = sg.cut_beats(channel, centers)
        want = [oracle_beat(channel, int(c)) for c in centers]
        assert kept.tolist() == [w is not None for w in want]
        want = np.array([w for w in want if w is not None], dtype=np.float32).reshape(-1, 180)
        assert samples.shape == want.shape and samples.dtype == np.float32
        assert samples.view(np.uint32).tobytes() == want.view(np.uint32).tobytes()


class TestSegmentRecords:
    def test_segment_shapes_and_ranges(self, synth_segments):
        assert len(synth_segments)
        samples = synth_segments.samples[:500]
        assert samples.shape == (500, 180) and samples.dtype == np.float32
        assert samples.min() >= -1.0 and samples.max() <= 1.0
        assert np.abs(samples).max(axis=1) == pytest.approx(np.ones(500), abs=1e-6)
        assert synth_segments.labels.dtype == np.int64
        assert synth_segments.annotation_index.dtype == np.int64
        assert len({len(synth_segments.samples), len(synth_segments.labels),
                    len(synth_segments.record_ids), len(synth_segments.annotation_index)}) == 1

    def test_deterministic(self, synth_selection):
        a, _ = sg.segment_record_beats(synth_selection)
        b, _ = sg.segment_record_beats(synth_selection)
        assert len(a) == len(b) > 0
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.labels, b.labels)
        assert keys(a) == keys(b)

    def test_boundary_beats_skipped(self, tmp_path):
        centers = write_edge_record(tmp_path)
        sel = wf.select_dataset([wf.load_record(tmp_path, "100")])
        assert sel.centers.tolist() == centers
        segments, skips = sg.segment_record_beats(sel)
        assert skips == 2
        assert keys(segments) == [("100", centers[1])]

    def test_records_in_name_order_each_denoised_once(self, synth_db_small, monkeypatch):
        recs = [wf.load_record(synth_db_small, n) for n in ("105", "100", "103")]
        sel = wf.select_dataset(recs)
        calls = []
        real = sg.dn.denoise
        monkeypatch.setattr(sg.dn, "denoise", lambda x: calls.append(x) or real(x))
        segments, skips = sg.segment_record_beats(sel)
        assert [id(x) for x in calls] == [id(sel.leads[n]) for n in ("100", "103", "105")]
        assert list(dict.fromkeys(segments.record_ids)) == ["100", "103", "105"]
        one = [sg.segment_record_beats(wf.select_dataset([r])) for r in recs]
        assert keys(segments) == keys(sg.Beats.concat([one[1][0], one[2][0], one[0][0]]))
        assert skips == sum(n for _, n in one)


class TestBuildSplit:
    def test_even_split_single_class(self):
        segs = [make_segment(ann=i, seed=i) for i in range(10)]
        split = sg.build_split(segs, seed=0)
        assert len(split.train) == 5 and len(split.test) == 5

    def test_same_seed_identical(self):
        segs = [make_segment(label=BeatClass(i % 5), ann=i, seed=i) for i in range(57)]
        s1 = sg.build_split(segs, seed=42)
        s2 = sg.build_split(segs, seed=42)
        assert split_keys(s1) == split_keys(s2)

    def test_disjoint(self):
        segs = [make_segment(label=BeatClass(i % 5), ann=i, seed=i) for i in range(101)]
        split = sg.build_split(segs, seed=1)
        assert not (set(keys(split.train)) & set(keys(split.test)))
        assert len(split.train) + len(split.test) == 101

    def test_stratification_within_one(self):
        segs = [make_segment(label=BeatClass(i % 5), ann=i, seed=i) for i in range(203)]
        split = sg.build_split(segs, seed=3)
        for cls in BeatClass:
            n_train = int((split.train.labels == cls).sum())
            n_test = int((split.test.labels == cls).sum())
            assert abs(n_train - n_test) <= 1

    def test_per_set_size(self):
        segs = [make_segment(label=BeatClass(i % 5), ann=i, seed=i) for i in range(400)]
        split = sg.build_split(segs, seed=0, per_set_size=100)
        assert len(split.train) == 100 and len(split.test) == 100
        assert not (set(keys(split.train)) & set(keys(split.test)))

    def test_per_set_size_preserves_proportions(self):
        segs = [make_segment(label=BeatClass.NOR, ann=i, seed=i) for i in range(300)]
        segs += [make_segment(label=BeatClass.PVC, ann=1000 + i, seed=i) for i in range(100)]
        split = sg.build_split(segs, seed=0, per_set_size=100)
        n_nor = int((split.train.labels == BeatClass.NOR).sum())
        assert n_nor == 75

    def test_size_error(self):
        segs = [make_segment(ann=i, seed=i) for i in range(10)]
        with pytest.raises(EcgresError, match="per_set_size 6 exceeds available beats per set"):
            sg.build_split(segs, seed=0, per_set_size=6)

    def test_empty_index(self):
        with pytest.raises(EcgresError, match="empty beat index"):
            sg.build_split([], seed=0)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equal_to_oracle(self, data):
        n = data.draw(st.integers(1, 400))
        classes = data.draw(st.lists(st.sampled_from(list(BeatClass)), min_size=1,
                                     max_size=5, unique=True))
        labels = data.draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n))
        seed = data.draw(st.integers(0, 2**32 - 1))
        half = (n + 1) // 2
        size = data.draw(st.one_of(st.none(), st.integers(0, n),
                                   st.sampled_from([1, 2, 3, n // 4, n // 2, half])))
        segs = sg.Beats(np.zeros((n, 0), np.float32), np.array(labels, np.int64),
                        np.array([f"r{i % 3}" for i in range(n)], object), np.arange(n))
        outcomes = []
        for split in (oracle_split, lambda *a: split_keys(sg.build_split(*a))):
            try:
                outcomes.append(split(segs, seed, size))
            except EcgresError as e:
                outcomes.append(str(e))
        assert outcomes[0] == outcomes[1]

    def test_pinned_keys(self, synth_segments):
        # digest of the split's key lists, taken from the list-pool allocator
        keys = repr(split_keys(sg.build_split(synth_segments, seed=0, per_set_size=1000)))
        assert hashlib.sha256(keys.encode()).hexdigest() == (
            "a9f3136bb938c6d95792a98f55477441c2d64e48ab399986e802a8f6772af076")


class TestDatasetFile:
    def test_roundtrip(self, tmp_path):
        segs = make_beats(23)
        path = tmp_path / "x.ecgb"
        sg.save_segments(segs, path)
        loaded = sg.load_segments(path)
        assert len(loaded) == 23
        assert keys(loaded) == keys(segs)
        assert np.array_equal(loaded.labels, segs.labels)
        assert loaded.samples.dtype == np.float32
        assert np.array_equal(loaded.samples, segs.samples)

    def test_mixed_length_ids_equal_to_oracle(self, tmp_path):
        ids = ["", "1", "100", "x" * 300, "ü", "1", "232"]
        segs = sg.Beats.concat([make_segment(BeatClass(i % 5), rid, 7 * i + 2**31, i)
                                for i, rid in enumerate(ids)])
        path = tmp_path / "m.ecgb"
        assert_saves_as_oracle(segs, path)
        want = oracle_load(path.read_bytes())
        loaded = sg.load_segments(path)
        assert keys(loaded) == [(rid, ann) for rid, ann, _, _ in want]
        assert loaded.labels.tolist() == [int(label) for _, _, label, _ in want]
        assert loaded.samples.tobytes() == np.stack([s for *_, s in want]).tobytes()
        sg.save_segments(loaded, tmp_path / "again.ecgb")
        assert (tmp_path / "again.ecgb").read_bytes() == path.read_bytes()

    def test_empty_table_equal_to_oracle(self, tmp_path):
        assert_saves_as_oracle(sg.EMPTY, tmp_path / "e.ecgb")

    @given(st.lists(st.tuples(st.sampled_from(["100", "232", "", "ü", "x" * 300]),
                              st.integers(0, len(BeatClass) - 1),
                              st.integers(0, 2**32 - 1)), max_size=40),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_interleaved_ids_equal_to_oracle(self, tmp_path, rows, seed):
        """Repeated and interleaved record ids share one cached prefix each."""
        samples = np.random.default_rng(seed).standard_normal((len(rows), 180))
        samples[:, :3] = -0.0, np.inf, np.nan
        beats = sg.Beats(samples.astype(np.float32),
                         np.array([label for _, label, _ in rows], np.int64),
                         np.array([rid for rid, _, _ in rows], object),
                         np.array([ann for *_, ann in rows], np.int64))
        assert_saves_as_oracle(beats, tmp_path / "h.ecgb")

    @pytest.mark.parametrize("label", [5, 255])
    def test_label_out_of_range(self, tmp_path, label):
        p = tmp_path / "l.ecgb"
        sg.save_segments(make_beats(3), p)
        data = bytearray(p.read_bytes())
        data[10 + (2 + 3 + 725) + 2 + 3 + 4] = label  # second beat's label byte
        p.write_bytes(bytes(data))
        with pytest.raises(ParseError, match=f"label {label}"):
            sg.load_segments(p)

    def test_byte_identical_rewrites(self, tmp_path):
        segs = make_beats(7, classes=1)
        p1, p2 = tmp_path / "a.ecgb", tmp_path / "b.ecgb"
        sg.save_segments(segs, p1)
        sg.save_segments(segs, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ecgb"
        p.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(ParseError):
            sg.load_segments(p)

    def test_truncated(self, tmp_path):
        segs = make_beats(5, classes=1)
        p = tmp_path / "t.ecgb"
        sg.save_segments(segs, p)
        p.write_bytes(p.read_bytes()[:-100])
        with pytest.raises(ParseError):
            sg.load_segments(p)

    @pytest.mark.parametrize("cut", [4, 5, 9])
    def test_short_header(self, tmp_path, cut):
        p = tmp_path / "s.ecgb"
        sg.save_segments(make_segment(), p)
        p.write_bytes(p.read_bytes()[:cut])
        with pytest.raises(ParseError, match="truncated"):
            sg.load_segments(p)

    def test_zero_beats_roundtrip(self, tmp_path):
        p = tmp_path / "z.ecgb"
        sg.save_segments(sg.Beats.concat([]), p)
        loaded = sg.load_segments(p)
        assert len(loaded) == 0 and loaded.samples.shape == (0, 180)

    @pytest.mark.parametrize("n", [0, 3])
    def test_trailing_bytes(self, tmp_path, n):
        p = tmp_path / "g.ecgb"
        sg.save_segments(make_beats(n, classes=1), p)
        p.write_bytes(p.read_bytes() + b"garbage")
        with pytest.raises(ParseError, match="7 bytes after"):
            sg.load_segments(p)


def _load_bytes(tmp_path, data):
    p = tmp_path / "fuzz.ecgb"
    p.write_bytes(data)
    return sg.load_segments(p)


def _valid_file_bytes(tmp_path):
    p = tmp_path / "valid.ecgb"
    segs = [make_segment(label=BeatClass(i), record_id="1" * i, ann=i, seed=i)
            for i in range(3)]
    sg.save_segments(sg.Beats.concat(segs), p)
    return p.read_bytes()


FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestLoadSegmentsFuzz:
    """Whatever the bytes, `load_segments` returns beats or raises ParseError."""

    @FUZZ
    @given(st.one_of(st.binary(max_size=1500),
                     st.binary(max_size=1500).map(lambda b: sg.DATASET_MAGIC + b)))
    def test_arbitrary_bytes(self, tmp_path, data):
        try:
            _load_bytes(tmp_path, data)
        except ParseError:
            pass

    @FUZZ
    @given(st.data())
    def test_truncations(self, tmp_path, data):
        valid = _valid_file_bytes(tmp_path)
        cut = data.draw(st.integers(0, len(valid) - 1))
        with pytest.raises(ParseError):
            _load_bytes(tmp_path, valid[:cut])

    @FUZZ
    @given(st.data())
    def test_single_byte_mutations(self, tmp_path, data):
        valid = bytearray(_valid_file_bytes(tmp_path))
        pos = data.draw(st.integers(0, len(valid) - 1))
        valid[pos] = data.draw(st.integers(0, 255).filter(lambda b: b != valid[pos]))
        try:
            loaded = _load_bytes(tmp_path, bytes(valid))
        except ParseError:
            return
        assert ((loaded.labels >= 0) & (loaded.labels < len(BeatClass))).all()
        assert loaded.samples.shape == (len(loaded), 180)
        assert loaded.samples.dtype == np.float32


class TestArrays:
    def test_shapes_and_dtype(self):
        x, y = sg.segments_to_arrays(make_beats(6))
        assert x.shape == (6, 1, 180) and x.dtype == np.float32
        assert y.tolist() == [0, 1, 2, 3, 4, 0]

    def test_empty_raises_size_error(self):
        with pytest.raises(EcgresError, match="the dataset is empty"):
            sg.segments_to_arrays(sg.Beats.concat([]))
