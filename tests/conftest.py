import os

import numpy as np
import pytest

from ecgres import segment as sg
from ecgres import synthetic
from ecgres import wfdb_io as wf

# Real MIT-BIH files (optional): point this at a directory holding the
# PhysioNet .hea/.dat/.atr files to enable the reference-data tests.
MITDB_DIR = os.environ.get("MITDB_DIR")

requires_mitdb = pytest.mark.skipif(
    not MITDB_DIR, reason="MITDB_DIR not set; real MIT-BIH files unavailable"
)

# per-criterion result lines recorded by tests/test_acceptance.py
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = list(ACCEPTANCE_LINES)
    for outcome, tag in (("failed", "FAIL"), ("skipped", "SKIP")):
        for rep in terminalreporter.stats.get(outcome, []):
            if "test_acceptance" in rep.nodeid:
                name = rep.nodeid.split("::")[-1].removeprefix("test_")
                reason = ""
                if outcome == "skipped" and isinstance(rep.longrepr, tuple):
                    reason = f" ({rep.longrepr[2].removeprefix('Skipped: ')})"
                lines.append(f"ACCEPTANCE {tag}: {name.replace('_', ' ')}{reason}")
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines, key=lambda s: s.split(": ", 1)[1]):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def synth_db(tmp_path_factory):
    """Full 48-record synthetic database (10 min per selected record)."""
    path = tmp_path_factory.mktemp("synthdb")
    synthetic.make_database(path, duration_s=600, seed=7)
    return path


@pytest.fixture(scope="session")
def synth_db_small(tmp_path_factory):
    """Cheap 6-record database for parser/CLI tests."""
    path = tmp_path_factory.mktemp("synthdb_small")
    synthetic.make_database(
        path, duration_s=120, seed=3,
        records=["100", "101", "102", "103", "105", "106"],
    )
    return path


@pytest.fixture(scope="session")
def synth_selection(synth_db):
    """The selected beats of record 100 of the synthetic database."""
    return wf.select_dataset([wf.load_record(synth_db, "100")])


def segment_database(data_dir):
    """Every record's beats, cut one record at a time as `ecgres preprocess` does."""
    return sg.Beats.concat([
        sg.segment_record_beats(wf.select_dataset([wf.load_record(data_dir, n)]))[0]
        for n in wf.discover_records(data_dir)
    ])


@pytest.fixture(scope="session")
def synth_segments(synth_db):
    return segment_database(synth_db)


def fd_gradient(f, x, h=1e-3):
    """Central finite differences of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def rel_error(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))
