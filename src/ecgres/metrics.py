"""Confusion matrix and the three headline metrics (accuracy, sensitivity,
specificity), each computed per class one-vs-rest plus macro averages."""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import atomic
from .errors import EcgresError
from .wfdb_io import BeatClass

NUM_CLASSES = len(BeatClass)
CLASS_NAMES = [c.name for c in BeatClass]


@dataclass
class ClassMetrics:
    tp: int
    tn: int
    fp: int
    fn: int
    accuracy: float
    sensitivity: float | None  # None when the class has zero support
    specificity: float | None


@dataclass
class MetricsReport:
    overall_accuracy: float
    per_class: dict[str, ClassMetrics]
    macro_sensitivity: float
    macro_specificity: float
    macro_accuracy: float
    undefined_classes: list[str]


def confusion(true_labels, predicted_labels) -> np.ndarray:
    """5x5 count matrix, rows = true class, columns = predicted class."""
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(predicted_labels, dtype=np.int64)
    if t.shape != p.shape:
        raise EcgresError(f"label length mismatch: {t.shape} vs {p.shape}")
    if t.size and (t.min() < 0 or t.max() >= NUM_CLASSES
                   or p.min() < 0 or p.max() >= NUM_CLASSES):
        raise EcgresError(f"labels must lie in [0, {NUM_CLASSES})")
    cm = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    np.add.at(cm, (t, p), 1)
    return cm


def compute_metrics(cm: np.ndarray) -> MetricsReport:
    cm = np.asarray(cm, dtype=np.int64)
    if cm.shape != (NUM_CLASSES, NUM_CLASSES):
        raise EcgresError(f"expected {NUM_CLASSES}x{NUM_CLASSES} matrix, got {cm.shape}")
    total = int(cm.sum())
    if total == 0:
        raise EcgresError("empty confusion matrix")

    per_class: dict[str, ClassMetrics] = {}
    undefined = []
    sens_vals, spec_vals, acc_vals = [], [], []
    for k, name in enumerate(CLASS_NAMES):
        tp = int(cm[k, k])
        fn = int(cm[k].sum() - tp)
        fp = int(cm[:, k].sum() - tp)
        tn = total - tp - fn - fp
        accuracy = (tp + tn) / total
        sensitivity = tp / (tp + fn) if tp + fn else None
        specificity = tn / (tn + fp) if tn + fp else None
        if sensitivity is None:
            undefined.append(name)
        else:
            sens_vals.append(sensitivity)
        if specificity is not None:
            spec_vals.append(specificity)
        acc_vals.append(accuracy)
        per_class[name] = ClassMetrics(tp, tn, fp, fn, accuracy, sensitivity, specificity)

    return MetricsReport(
        overall_accuracy=int(np.trace(cm)) / total,
        per_class=per_class,
        macro_sensitivity=float(np.mean(sens_vals)),
        macro_specificity=float(np.mean(spec_vals)),
        macro_accuracy=float(np.mean(acc_vals)),
        undefined_classes=undefined,
    )


def emit_report(report: MetricsReport, cm: np.ndarray, out_dir) -> None:
    """Write confusion.csv and metrics.json into out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    lines = ["true\\pred," + ",".join(CLASS_NAMES)]
    for name, row in zip(CLASS_NAMES, np.asarray(cm)):
        lines.append(name + "," + ",".join(str(int(v)) for v in row))
    atomic.write_bytes(out_dir / "confusion.csv", ("\n".join(lines) + "\n").encode())

    text = json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"
    atomic.write_bytes(out_dir / "metrics.json", text.encode())
