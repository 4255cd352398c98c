import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgres import segment as sg
from ecgres.errors import BoundarySkip, ParseError, ShapeError, SizeError
from ecgres.wfdb_io import BeatClass


def make_segment(label=BeatClass.NOR, record_id="100", ann=0, seed=0):
    rng = np.random.default_rng(seed)
    samples = sg.rescale(rng.standard_normal(180)).astype(np.float32)
    return sg.BeatSegment(samples, label, record_id, ann)


class TestExtractWindow:
    def test_ramp(self):
        channel = np.arange(1000.0)
        win = sg.extract_window(channel, 100)
        assert np.array_equal(win, np.arange(0.0, 200.0))

    def test_boundary_skip_start(self):
        with pytest.raises(BoundarySkip):
            sg.extract_window(np.zeros(1000), 50)

    def test_boundary_skip_end(self):
        with pytest.raises(BoundarySkip):
            sg.extract_window(np.zeros(1000), 950)

    def test_peak_centered(self, synth_index):
        # R annotations sit at the beat peak; check the window max lands
        # within a few samples of center for a clean tall beat
        ref = next(r for r in synth_index if r.annotation.code == "N"
                   and r.annotation.sample_index > 200)
        channel = ref.record.channels[ref.channel]
        win = sg.extract_window(channel, ref.annotation.sample_index)
        assert abs(int(np.argmax(win)) - 100) <= 5


class TestReduceDimension:
    def test_ramp_crop(self):
        out = sg.reduce_dimension(np.arange(200.0))
        assert np.array_equal(out, np.arange(10.0, 190.0))

    def test_constant(self):
        out = sg.reduce_dimension(np.full(200, 7.0))
        assert out.shape == (180,) and np.all(out == 7.0)

    def test_boundary_identity(self):
        win = np.random.default_rng(0).standard_normal(200)
        out = sg.reduce_dimension(win)
        assert out[0] == win[10] and out[179] == win[189]

    def test_wrong_length(self):
        with pytest.raises(ShapeError):
            sg.reduce_dimension(np.zeros(180))


class TestRescale:
    def test_affine_endpoints(self):
        assert np.allclose(sg.rescale(np.array([0.0, 5.0, 10.0])), [-1.0, 0.0, 1.0])

    def test_constant_maps_to_zero(self):
        assert np.all(sg.rescale(np.full(180, 3.3)) == 0.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_range_attained(self, seed):
        x = np.random.default_rng(seed).standard_normal(180)
        out = sg.rescale(x)
        assert out.min() == pytest.approx(-1.0, abs=1e-12)
        assert out.max() == pytest.approx(1.0, abs=1e-12)


class TestSegmentRecords:
    def test_segment_shapes_and_ranges(self, synth_segments):
        assert synth_segments
        for seg in synth_segments[:500]:
            assert len(seg.samples) == 180
            assert seg.samples.min() >= -1.0 and seg.samples.max() <= 1.0
            assert np.abs(seg.samples).max() == pytest.approx(1.0, abs=1e-6)

    def test_deterministic(self, synth_index):
        subset = [r for r in synth_index if r.record.name == "100"]
        a, _ = sg.segment_record_beats(subset)
        b, _ = sg.segment_record_beats(subset)
        assert len(a) == len(b)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.samples, sb.samples)
            assert sa.key == sb.key


class TestBuildSplit:
    def test_even_split_single_class(self):
        segs = [make_segment(ann=i, seed=i) for i in range(10)]
        split = sg.build_split(segs, seed=0)
        assert len(split.train) == 5 and len(split.test) == 5

    def test_same_seed_identical(self):
        segs = [make_segment(label=BeatClass(i % 5), ann=i, seed=i) for i in range(57)]
        s1 = sg.build_split(segs, seed=42)
        s2 = sg.build_split(segs, seed=42)
        assert [s.key for s in s1.train] == [s.key for s in s2.train]
        assert [s.key for s in s1.test] == [s.key for s in s2.test]

    def test_disjoint(self):
        segs = [make_segment(label=BeatClass(i % 5), ann=i, seed=i) for i in range(101)]
        split = sg.build_split(segs, seed=1)
        assert not ({s.key for s in split.train} & {s.key for s in split.test})
        assert len(split.train) + len(split.test) == 101

    def test_stratification_within_one(self):
        segs = [make_segment(label=BeatClass(i % 5), ann=i, seed=i) for i in range(203)]
        split = sg.build_split(segs, seed=3)
        for cls in BeatClass:
            n_train = sum(1 for s in split.train if s.label == cls)
            n_test = sum(1 for s in split.test if s.label == cls)
            assert abs(n_train - n_test) <= 1

    def test_per_set_size(self):
        segs = [make_segment(label=BeatClass(i % 5), ann=i, seed=i) for i in range(400)]
        split = sg.build_split(segs, seed=0, per_set_size=100)
        assert len(split.train) == 100 and len(split.test) == 100
        assert not ({s.key for s in split.train} & {s.key for s in split.test})

    def test_per_set_size_preserves_proportions(self):
        segs = [make_segment(label=BeatClass.NOR, ann=i, seed=i) for i in range(300)]
        segs += [make_segment(label=BeatClass.PVC, ann=1000 + i, seed=i) for i in range(100)]
        split = sg.build_split(segs, seed=0, per_set_size=100)
        n_nor = sum(1 for s in split.train if s.label == BeatClass.NOR)
        assert n_nor == 75

    def test_size_error(self):
        segs = [make_segment(ann=i, seed=i) for i in range(10)]
        with pytest.raises(SizeError):
            sg.build_split(segs, seed=0, per_set_size=6)

    def test_empty_index(self):
        with pytest.raises(SizeError):
            sg.build_split([], seed=0)


class TestDatasetFile:
    def test_roundtrip(self, tmp_path):
        segs = [make_segment(label=BeatClass(i % 5), ann=i, seed=i) for i in range(23)]
        path = tmp_path / "x.ecgb"
        sg.save_segments(segs, path)
        loaded = sg.load_segments(path)
        assert len(loaded) == 23
        for a, b in zip(segs, loaded):
            assert a.key == b.key and a.label == b.label
            assert np.array_equal(a.samples, np.asarray(b.samples, dtype=np.float32))

    def test_byte_identical_rewrites(self, tmp_path):
        segs = [make_segment(ann=i, seed=i) for i in range(7)]
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
        segs = [make_segment(ann=i, seed=i) for i in range(5)]
        p = tmp_path / "t.ecgb"
        sg.save_segments(segs, p)
        p.write_bytes(p.read_bytes()[:-100])
        with pytest.raises(ParseError):
            sg.load_segments(p)

    @pytest.mark.parametrize("cut", [4, 5, 9])
    def test_short_header(self, tmp_path, cut):
        p = tmp_path / "s.ecgb"
        sg.save_segments([make_segment()], p)
        p.write_bytes(p.read_bytes()[:cut])
        with pytest.raises(ParseError, match="truncated"):
            sg.load_segments(p)

    def test_zero_beats_roundtrip(self, tmp_path):
        p = tmp_path / "z.ecgb"
        sg.save_segments([], p)
        assert sg.load_segments(p) == []


class TestArrays:
    def test_shapes_and_dtype(self):
        segs = [make_segment(label=BeatClass(i % 5), ann=i, seed=i) for i in range(6)]
        x, y = sg.segments_to_arrays(segs)
        assert x.shape == (6, 1, 180) and x.dtype == np.float32
        assert y.tolist() == [0, 1, 2, 3, 4, 0]

    def test_empty_raises_size_error(self):
        with pytest.raises(SizeError, match="empty"):
            sg.segments_to_arrays([])
