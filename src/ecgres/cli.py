"""Command-line pipeline driver: ingest, preprocess, train, evaluate, predict.

Exit codes: 0 success, 2 input/data errors and failed artifact writes
(OSError), 3 pipeline errors, 4 numeric training failure, 5 checkpoint refused.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import atomic
from . import metrics as me
from . import model as md
from . import segment as sg
from . import wfdb_io as wf
from .errors import EcgresError, ParseError

DATA_DIR_ENV = "ECGRES_DATA_DIR"


def _check_ranges(args: argparse.Namespace) -> None:
    """Refuse a count below 1 or a negative seed before any command runs."""
    for name, low in (("seed", 0), ("epochs", 1), ("per_set_size", 1)):
        val = getattr(args, name, None)
        if val is not None and val < low:
            raise ParseError(f"{name} must be at least {low}, got {val}")


def _record_names(args: argparse.Namespace) -> list[str]:
    names = wf.discover_records(args.data_dir)
    if not names:
        raise ParseError(f"no .hea files found in {args.data_dir}")
    return names


def _select(args: argparse.Namespace, name: str) -> wf.Selection:
    """The selection of one record; the record itself is dropped on return."""
    return wf.select_dataset([wf.load_record(args.data_dir, name)])


def cmd_ingest(args: argparse.Namespace) -> int:
    names = _record_names(args)
    index_doc, labels = [], []
    for name in names:
        sel = _select(args, name)
        labels.append(sel.labels)
        index_doc += [
            {"record": rid, "channel": channel, "sample_index": center,
             "code": wf.CLASS_SYMBOLS[label]}
            for rid, channel, center, label in zip(sel.record_ids.tolist(), sel.channels.tolist(),
                                                   sel.centers.tolist(), sel.labels.tolist())
        ]
    excluded = sorted(set(names) & wf.EXCLUDED_RECORDS)
    selected = sorted({row["record"] for row in index_doc})
    counts = wf.class_counts(np.concatenate(labels))

    print(f"records found:    {len(names)}")
    print(f"records selected: {len(selected)}")
    print(f"records excluded: {len(excluded)} ({', '.join(excluded) or 'none'})")
    for name, n in counts.items():
        print(f"  {name:5s} {n}")
    print(f"total beats: {len(index_doc)}")

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic.write_bytes(out_dir / "beat_index.json", (json.dumps(index_doc) + "\n").encode())
    print(f"wrote {out_dir / 'beat_index.json'}")
    return 0


def _segment_records(args: argparse.Namespace) -> tuple[sg.Beats, int]:
    """The beats of every record, cut one record at a time in name order, and
    the boundary skips. The per-record tables are dropped on return."""
    tables, skips = [], 0
    for name in _record_names(args):
        beats, n = sg.segment_record_beats(_select(args, name))
        tables.append(beats)
        skips += n
    return sg.Beats.concat(tables), skips


def cmd_preprocess(args: argparse.Namespace) -> int:
    beats, skips = _segment_records(args)
    split = sg.build_split(beats, args.seed, args.per_set_size)
    total, beats = len(beats), None  # the sets are copies; free the full table before writing

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sg.save_segments(split.train, out_dir / "train.ecgb")
    sg.save_segments(split.test, out_dir / "test.ecgb")

    print(f"segments: {total} (boundary skips: {skips})")
    for part, rows in (("train", split.train), ("test", split.test)):
        pretty = "  ".join(f"{k}={v}" for k, v in wf.class_counts(rows.labels).items())
        print(f"{part}: {len(rows)} beats  {pretty}")
    print(f"wrote {out_dir / 'train.ecgb'} and {out_dir / 'test.ecgb'}")
    return 0


def _load_split(args: argparse.Namespace) -> sg.DatasetSplit:
    out_dir = Path(args.output_dir)
    train_path, test_path = out_dir / "train.ecgb", out_dir / "test.ecgb"
    for p in (train_path, test_path):
        if not p.exists():
            raise EcgresError(f"dataset file {p} not found; run preprocess first")
    train, test = sg.load_segments(train_path), sg.load_segments(test_path)
    for p, beats in ((train_path, train), (test_path, test)):
        if not beats:
            raise EcgresError(f"dataset file {p} holds no beats to use")
    return sg.DatasetSplit(train, test, args.seed)


def cmd_train(args: argparse.Namespace) -> int:
    split = _load_split(args)
    model = md.build_model(md.ModelConfig(seed=args.seed))
    log = md.train(model, split, md.TrainConfig(epochs=args.epochs, shuffle_seed=args.seed,
                                                eval_each_epoch=args.eval_each_epoch), verbose=True)

    out_dir = Path(args.output_dir)
    md.save_checkpoint(model, out_dir / "checkpoint.ecgm")
    atomic.write_bytes(out_dir / "curves.csv", log.to_csv().encode())

    x_test, y_test = sg.segments_to_arrays(split.test)
    pred, _ = md.predict_batch(model, x_test)
    report = me.compute_metrics(me.confusion(y_test, pred))
    print(f"final test accuracy:    {report.overall_accuracy:.4f}")
    print(f"macro sensitivity:      {report.macro_sensitivity:.4f}")
    print(f"macro specificity:      {report.macro_specificity:.4f}")
    print(f"wrote {out_dir / 'checkpoint.ecgm'} and {out_dir / 'curves.csv'}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    model = md.load_checkpoint(args.checkpoint)
    x, y = sg.segments_to_arrays(sg.load_segments(args.dataset))
    pred, _ = md.predict_batch(model, x)
    cm = me.confusion(y, pred)
    report = me.compute_metrics(cm)
    me.emit_report(report, cm, args.output_dir)
    print(f"accuracy:    {report.overall_accuracy:.4f}")
    print(f"sensitivity: {report.macro_sensitivity:.4f}")
    print(f"specificity: {report.macro_specificity:.4f}")
    print(f"wrote reports to {args.output_dir}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    record, annotation_index = args.record, args.annotation_index
    model = md.load_checkpoint(args.checkpoint)
    selection = _select(args, record)
    if not (0 <= annotation_index < len(selection)):
        raise ParseError(
            f"annotation index {annotation_index} out of range "
            f"(record {record} has {len(selection)} eligible beats)"
        )
    row = selection[annotation_index:annotation_index + 1]
    beats, _ = sg.segment_record_beats(row)
    if not beats:
        raise EcgresError(
            f"beat {annotation_index} of record {record} (sample "
            f"{row.centers[0]}) is within {sg.HALF_WINDOW} samples of an end"
        )
    pred, probs = md.predict_batch(model, sg.segments_to_arrays(beats)[0])
    print(f"record {record}, beat {annotation_index} "
          f"(sample {row.centers[0]}, annotated {wf.CLASS_SYMBOLS[row.labels[0]]})")
    print(f"predicted: {wf.BeatClass(pred[0]).name}")
    for c in wf.BeatClass:
        print(f"  {c.name:5s} {probs[0, c]:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ecgres",
                                     description="MIT-BIH heartbeat classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {"--data-dir": dict(default=os.environ.get(DATA_DIR_ENV) or ".",
                                 help=f"WFDB directory (or ${DATA_DIR_ENV})"),
              "--output-dir": dict(default="out"), "--seed": dict(type=int, default=0)}

    def add(command, about, *flags):
        """A subcommand taking the named shared flags, and only those."""
        p = sub.add_parser(command, help=about)
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        return p

    add("ingest", "parse records and build the beat index", "--data-dir", "--output-dir")
    p = add("preprocess", "denoise, segment, and split the dataset",
            "--data-dir", "--output-dir", "--seed")
    p.add_argument("--per-set-size", type=int)

    p = add("train", "train the CNN on a preprocessed dataset", "--output-dir", "--seed")
    p.add_argument("--epochs", type=int, default=md.TrainConfig.epochs)
    p.add_argument("--eval-each-epoch", action="store_true")

    p = add("evaluate", "evaluate a checkpoint on a dataset file", "--output-dir")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)

    p = add("predict", "classify one annotated beat from a record", "--data-dir")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--record", required=True)
    p.add_argument("--annotation-index", type=int, required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_ranges(args)
        command = {"ingest": cmd_ingest, "preprocess": cmd_preprocess, "train": cmd_train,
                   "evaluate": cmd_evaluate, "predict": cmd_predict}[args.command]
        return command(args)
    except EcgresError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
