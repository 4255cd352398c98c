#!/usr/bin/env python3
"""Quick end-to-end smoke run: small subset, 50 epochs, about a minute.

Runs all five commands: ingest, preprocess, train, evaluate and a predict of
one annotated beat of record 100. Uses MITDB_DIR when set; otherwise
generates a synthetic database in a temporary directory, removed when the
run ends. After preprocess, each `.ecgb` is loaded and saved again, and must
come out byte for byte the same.

    python scripts/run_smoke.py [--out runs/smoke]
"""
import argparse
import os
import tempfile
from pathlib import Path

from ecgres import cli, segment, synthetic


def check_resave(out):
    """Re-save each set that preprocess wrote and compare the bytes: the
    encoder must give the same file on the full run's interleaved record ids."""
    with tempfile.TemporaryDirectory(prefix="ecgres_resave_") as tmp:
        for name in ("train.ecgb", "test.ecgb"):
            path, again = Path(out) / name, Path(tmp) / name
            segment.save_segments(segment.load_segments(path), again)
            if again.read_bytes() != path.read_bytes():
                raise SystemExit(f"{path}: re-saving the loaded beats gives other bytes")


def run_pipeline(data_dir, args):
    data, out, seed = ["--data-dir", data_dir], ["--output-dir", args.out], ["--seed", "0"]
    checkpoint = ["--checkpoint", f"{args.out}/checkpoint.ecgm"]
    for argv in (
        ["ingest", *data, *out],
        ["preprocess", *data, *out, *seed, "--per-set-size", str(args.per_set_size)],
        ["train", *out, *seed, "--epochs", str(args.epochs)],
        ["evaluate", *checkpoint, "--dataset", f"{args.out}/test.ecgb",
         "--output-dir", f"{args.out}/metrics"],
        ["predict", *checkpoint, *data, "--record", "100", "--annotation-index", "10"],
    ):
        rc = cli.main(argv)
        if rc != 0:
            raise SystemExit(rc)
        if argv[0] == "preprocess":
            check_resave(args.out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/smoke")
    ap.add_argument("--per-set-size", type=int, default=3000)
    ap.add_argument("--epochs", type=int, default=50)
    args = ap.parse_args()

    data_dir = os.environ.get("MITDB_DIR")
    if data_dir:
        run_pipeline(data_dir, args)
        return
    with tempfile.TemporaryDirectory(prefix="ecgres_synthdb_") as tmp:
        print(f"MITDB_DIR not set; generating synthetic database in {tmp}")
        synthetic.make_database(tmp, duration_s=600, seed=7)
        run_pipeline(tmp, args)


if __name__ == "__main__":
    main()
