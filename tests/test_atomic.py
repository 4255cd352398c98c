from pathlib import Path

import numpy as np
import pytest

from ecgres import atomic
from ecgres import metrics as me
from ecgres import model as md
from ecgres import segment as sg

from test_segment import make_segment


@pytest.fixture
def fail_writes(monkeypatch):
    """Calling the returned function makes every later temporary-file write
    stop halfway with an OSError, as on a full disk."""
    write_bytes = Path.write_bytes

    def half_then_fail(self, data):
        write_bytes(self, data[: len(data) // 2])
        raise OSError(28, "No space left on device")

    return lambda: monkeypatch.setattr(Path, "write_bytes", half_then_fail)


def test_replaces_content(tmp_path):
    path = tmp_path / "a.bin"
    atomic.write_bytes(path, b"old")
    atomic.write_bytes(path, b"new content")
    assert path.read_bytes() == b"new content"
    assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]


def test_failed_write_keeps_previous_file(tmp_path, fail_writes):
    path = tmp_path / "a.bin"
    path.write_text("previous")
    fail_writes()
    with pytest.raises(OSError):
        atomic.write_bytes(path, b"x" * 1000)
    assert path.read_text() == "previous"
    assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]


def test_failed_write_creates_nothing(tmp_path, fail_writes):
    fail_writes()
    with pytest.raises(OSError):
        atomic.write_bytes(tmp_path / "a.bin", b"x" * 1000)
    assert list(tmp_path.iterdir()) == []


def test_artifact_writers_keep_previous_files(tmp_path, fail_writes):
    def write_all(seed):
        sg.save_segments(sg.Beats.concat([make_segment(ann=i, seed=seed + i)
                                          for i in range(3)]),
                         tmp_path / "train.ecgb")
        md.save_checkpoint(md.build_model(md.ModelConfig(seed=seed)),
                           tmp_path / "checkpoint.ecgm")
        cm = np.diag([seed + 1, 2, 3, 4, 5])
        me.emit_report(me.compute_metrics(cm), cm, tmp_path)

    write_all(0)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["checkpoint.ecgm", "confusion.csv", "metrics.json",
                              "train.ecgb"]
    fail_writes()
    with pytest.raises(OSError):
        write_all(9)
    # each writer fails on its own too, not just the first one reached
    with pytest.raises(OSError):
        md.save_checkpoint(md.build_model(md.ModelConfig(seed=9)),
                           tmp_path / "checkpoint.ecgm")
    with pytest.raises(OSError):
        cm = np.diag([9, 2, 3, 4, 5])
        me.emit_report(me.compute_metrics(cm), cm, tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
