"""Input preparation for the benchmark: one cached input set per variant.

A variant is a synthetic MIT-BIH-length database (``synthetic.make_database``
with ``duration_s=1805``, one directory per record) plus what the protocol
derives from it with the program's own public callables:

* ``train.ecgb`` - the protocol's 13,200-beat stratified training set;
* ``test.ecgb``  - a 4,096-beat stratified test set from the same split seed;
* ``checkpoint.ecgm`` - a short seeded training run on 2,048 training beats.

Generation runs in its own process (``python3 perfbench/prepare.py
--variant N``) so that neither its time nor its memory reaches the measured
process. Every file is listed with its SHA-256 in ``manifest.json``; the
manifest is checked before every run and a mismatch stops the run.

    python3 perfbench/prepare.py --variant 0
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CACHE = ROOT / ".perfbench-cache"
VARIANTS = 4
DURATION_S = 1805          # the real MIT-BIH record length (650,000 samples)
TRAIN_BEATS = 13_200       # the protocol's per-set size
TEST_BEATS = 4_096
CHECKPOINT_BEATS = 2_048
CHECKPOINT_EPOCHS = 2


class InputError(Exception):
    """The cached inputs are missing, corrupt or not the pinned ones."""


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def variant_dir(variant: int) -> Path:
    return CACHE / f"v{variant}"


def import_ecgres():
    src = ROOT / "src"
    if not (src / "ecgres" / "__init__.py").is_file():
        raise InputError(f"no ecgres package under {src}; run from a full checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import ecgres  # noqa: F401
    return ecgres


def generate(variant: int) -> None:
    """Write the variant's inputs into a temporary directory, then rename it."""
    import_ecgres()
    from ecgres import model as md
    from ecgres import segment as sg
    from ecgres import synthetic, wfdb_io as wf

    final = variant_dir(variant)
    tmp = CACHE / f"v{variant}.partial"
    shutil.rmtree(tmp, ignore_errors=True)
    db = tmp / "db"
    t0 = time.perf_counter()
    names = synthetic.make_database(db, duration_s=DURATION_S, seed=variant)

    # One directory per record, so one preprocess op reads exactly one record.
    selectable = [n for n in names if n not in wf.EXCLUDED_RECORDS]
    for name in names:
        (db / name).mkdir()
        for ext in ("hea", "dat", "atr"):
            os.replace(db / f"{name}.{ext}", db / name / f"{name}.{ext}")

    # Record by record, so only one 650k-sample record is in memory at a time;
    # the beat order equals that of `ecgres preprocess` on the whole database.
    segments = []
    for name in selectable:
        rec = wf.load_record(db / name, name)
        segs, _ = sg.segment_record_beats(wf.select_dataset([rec]))
        segments += segs
    train = sg.build_split(segments, variant, TRAIN_BEATS).train
    test = sg.build_split(segments, variant, TEST_BEATS).test
    sg.save_segments(train, tmp / "train.ecgb")
    sg.save_segments(test, tmp / "test.ecgb")

    model = md.build_model(md.ModelConfig(seed=variant))
    subset = sg.build_split(train, variant, CHECKPOINT_BEATS).train
    md.train(model, sg.DatasetSplit(subset, [], variant),
             md.TrainConfig(epochs=CHECKPOINT_EPOCHS, shuffle_seed=variant))
    md.save_checkpoint(model, tmp / "checkpoint.ecgm")

    files = sorted(p for p in tmp.rglob("*") if p.is_file())
    manifest = {
        "variant": variant,
        "records": selectable,
        "generate_s": round(time.perf_counter() - t0, 3),
        "files": {str(p.relative_to(tmp)): sha256(p) for p in files},
    }
    (tmp / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)


def inputs_digest(manifest: dict, prefix: str) -> str:
    """One digest over the manifest entries whose path starts with `prefix`."""
    h = hashlib.sha256()
    for rel, digest in sorted(manifest["files"].items()):
        if rel.startswith(prefix):
            h.update(f"{rel} {digest}\n".encode())
    return h.hexdigest()


def verify(variant: int) -> dict:
    """Check every cached file against the manifest; return the manifest."""
    vdir = variant_dir(variant)
    path = vdir / "manifest.json"
    if not path.is_file():
        raise InputError(f"{path} missing")
    manifest = json.loads(path.read_text())
    on_disk = {str(p.relative_to(vdir)) for p in vdir.rglob("*") if p.is_file()}
    on_disk.discard("manifest.json")
    if on_disk != set(manifest["files"]):
        raise InputError(f"{vdir}: files differ from the manifest: "
                         f"{sorted(on_disk ^ set(manifest['files']))[:5]}")
    for rel, digest in manifest["files"].items():
        if sha256(vdir / rel) != digest:
            raise InputError(f"{vdir / rel}: SHA-256 differs from the manifest")
    return manifest


def ensure(variant: int) -> dict:
    """Generate the variant in a child process if it is not cached, then verify."""
    if not (variant_dir(variant) / "manifest.json").is_file():
        CACHE.mkdir(exist_ok=True)
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--variant", str(variant)], stdout=subprocess.DEVNULL, cwd=ROOT)
        if proc.returncode != 0:
            raise InputError(f"input generation failed with exit code {proc.returncode}")
    return verify(variant)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--variant", type=int, required=True, choices=range(VARIANTS))
    args = ap.parse_args(argv)
    CACHE.mkdir(exist_ok=True)
    generate(args.variant)
    verify(args.variant)
    return 0


if __name__ == "__main__":
    sys.exit(main())
