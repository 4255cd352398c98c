#!/usr/bin/env python3
"""Quick end-to-end smoke run: small subset, 50 epochs, about a minute.

Uses MITDB_DIR when set; otherwise generates a synthetic database in a
temporary directory, removed when the run ends.

    python scripts/run_smoke.py [--out runs/smoke]
"""
import argparse
import os
import tempfile

from ecgres import cli, synthetic


def run_pipeline(data_dir, args):
    base = ["--data-dir", data_dir, "--output-dir", args.out, "--seed", "0"]
    for argv in (
        ["preprocess", *base, "--per-set-size", str(args.limit)],
        ["train", *base, "--epochs", str(args.epochs)],
        ["evaluate", "--checkpoint", f"{args.out}/checkpoint.ecgm",
         "--dataset", f"{args.out}/test.ecgb",
         "--output-dir", f"{args.out}/metrics", "--seed", "0"],
    ):
        rc = cli.main(argv)
        if rc != 0:
            raise SystemExit(rc)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/smoke")
    ap.add_argument("--limit", type=int, default=3000)
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
