"""The three benchmark workloads: one-caller closed loops over public callables.

Each workload has `setup(mods)` (what the program loads once, timed as part
of `setup_s`), `op(i)` (the timed operation) and `check(i, ref)` (untimed).
`last_checked_op` is the highest op index with a check of its own; a run
always goes on at least until that op has been checked.
`check` compares the op's output with the pinned reference `ref` (skipped
when `ref` is None, as when pinning), returns the beats the op completed and
the observed values, and raises `Mismatch` when they differ.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import struct
from pathlib import Path

import numpy as np

TRAIN_SUBSET = 1_024
CHECKSUM_OP = 7          # the train op after which parameters are checksummed
LOSS_RTOL = 1e-9         # float64 path: only summation order may differ
CHECKSUM_RTOL = 1e-6     # float32 parameters after 8 x 32 Adam steps


class Mismatch(Exception):
    """An op's output differs from the pinned reference."""


class OpFailed(Exception):
    """The CLI returned a non-zero exit code."""


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _ecgb_count(path: Path) -> int:
    return struct.unpack_from("<I", path.read_bytes(), 6)[0]


def _run_cli(cli, argv) -> None:
    # The CLI prints progress; keep it off the benchmark's own stdout.
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"ecgres {argv[0]} exited with code {code}")


def _expect(ref, key, observed, rtol=0.0):
    if ref is None or key not in ref:
        return
    want = ref[key]
    same = (math.isclose(observed, want, rel_tol=rtol, abs_tol=0.0)
            if isinstance(want, float) else observed == want)
    if not same:
        raise Mismatch(f"{key}: got {observed!r}, pinned {want!r}")


class Preprocess:
    """`ecgres preprocess` on a one-record directory, cycling through the
    selectable records in an order drawn from the workload seed."""

    name = "preprocess"
    last_checked_op = 0

    def __init__(self, inputs: Path, manifest: dict, seed: int, work: Path):
        records = manifest["records"]
        self.order = [records[k] for k in np.random.default_rng(seed).permutation(len(records))]
        self.db = inputs / "db"
        self.out = work / "preprocess"

    def setup(self, mods) -> None:
        self.cli = mods["cli"]

    def record(self, i: int) -> str:
        return self.order[i % len(self.order)]

    def op(self, i: int) -> None:
        _run_cli(self.cli, ["preprocess", "--data-dir", str(self.db / self.record(i)),
                            "--output-dir", str(self.out)])

    def check(self, i: int, ref):
        files = (self.out / "train.ecgb", self.out / "test.ecgb")
        name = self.record(i)
        observed = {"sha256": _digest(*files), "beats": sum(map(_ecgb_count, files))}
        for key, value in observed.items():
            _expect(None if ref is None else ref[name], key, value)
        return observed["beats"], {name: observed}


class Train:
    """One `model.train` epoch over a fixed stratified 1,024-beat subset,
    continuing the same model from op to op."""

    name = "train"
    last_checked_op = CHECKSUM_OP

    def __init__(self, inputs: Path, manifest: dict, seed: int, work: Path):
        self.path = inputs / "train.ecgb"
        self.variant = manifest["variant"]

    def setup(self, mods) -> None:
        sg, md = mods["segment"], mods["model"]
        segments = sg.load_segments(self.path)
        _, labels = sg.segments_to_arrays(segments)
        # systematic sample of the label-sorted shuffle = proportional strata
        order = np.random.default_rng(self.variant).permutation(len(labels))
        order = order[np.argsort(labels[order], kind="stable")]
        pick = order[np.linspace(0, len(order), TRAIN_SUBSET, endpoint=False).astype(int)]
        self.split = sg.DatasetSplit([segments[k] for k in pick], [], self.variant)
        self.model = md.build_model(md.ModelConfig(seed=self.variant))
        self.config = md.TrainConfig(epochs=1, batch_size=32, learning_rate=1e-3,
                                     shuffle_seed=self.variant)
        self.md = md

    def op(self, i: int) -> None:
        self.log = self.md.train(self.model, self.split, self.config)

    def check(self, i: int, ref):
        loss = self.log.epochs[0].train_loss
        if not math.isfinite(loss):
            raise Mismatch(f"op {i}: non-finite loss {loss}")
        observed = {}
        if i == 0:
            observed["first_loss"] = loss
            _expect(ref, "first_loss", loss, LOSS_RTOL)
        if i == CHECKSUM_OP:
            params = [p.astype(np.float64) for p in self.model.params().values()]
            observed["param_abs_sum"] = float(sum(np.abs(p).sum() for p in params))
            observed["param_sq_sum"] = float(sum(np.square(p).sum() for p in params))
            for key in ("param_abs_sum", "param_sq_sum"):
                _expect(ref, key, observed[key], CHECKSUM_RTOL)
        return len(self.split.train), observed


class Classify:
    """`ecgres evaluate` of the seeded checkpoint on the 4,096-beat test file."""

    name = "classify"
    last_checked_op = 0

    def __init__(self, inputs: Path, manifest: dict, seed: int, work: Path):
        self.argv = ["evaluate", "--checkpoint", str(inputs / "checkpoint.ecgm"),
                     "--dataset", str(inputs / "test.ecgb"),
                     "--output-dir", str(work / "classify")]
        self.report = work / "classify" / "metrics.json"
        self.beats = _ecgb_count(inputs / "test.ecgb")

    def setup(self, mods) -> None:
        self.cli = mods["cli"]

    def op(self, i: int) -> None:
        self.report.unlink(missing_ok=True)
        _run_cli(self.cli, self.argv)

    def check(self, i: int, ref):
        observed = {"metrics_sha256": _digest(self.report)}
        _expect(ref, "metrics_sha256", observed["metrics_sha256"])
        return self.beats, observed


WORKLOADS = {w.name: w for w in (Preprocess, Train, Classify)}
