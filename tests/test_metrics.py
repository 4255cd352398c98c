import json

import numpy as np
import pytest

from ecgres import metrics as me
from ecgres.errors import EcgresError


class TestConfusion:
    def test_perfect_predictions_diagonal(self):
        labels = np.array([0, 1, 2, 3, 4, 0, 1])
        cm = me.confusion(labels, labels)
        assert np.array_equal(cm, np.diag([2, 2, 1, 1, 1]))

    def test_empty_input(self):
        cm = me.confusion([], [])
        assert cm.shape == (5, 5) and cm.sum() == 0

    def test_hand_enumeration(self):
        cm = me.confusion([0, 1, 0], [0, 1, 1])
        assert cm[0, 0] == 1 and cm[1, 1] == 1 and cm[0, 1] == 1
        assert cm.sum() == 3

    def test_length_mismatch(self):
        with pytest.raises(EcgresError, match="label length mismatch"):
            me.confusion([0, 1], [0])

    def test_out_of_range_label(self):
        with pytest.raises(EcgresError, match=r"labels must lie in \[0, 5\)"):
            me.confusion([0, 5], [0, 0])


class TestComputeMetrics:
    def test_diagonal_is_perfect(self):
        report = me.compute_metrics(np.diag([10, 5, 5, 3, 2]))
        assert report.overall_accuracy == 1.0
        for m in report.per_class.values():
            assert m.sensitivity == 1.0 and m.specificity == 1.0

    def test_sensitivity_definition(self):
        cm = np.zeros((5, 5), dtype=int)
        cm[0, 0] = 9
        cm[0, 1] = 1  # one NOR beat misread as LBBB
        cm[1, 1] = 10
        report = me.compute_metrics(cm)
        assert report.per_class["NOR"].sensitivity == pytest.approx(0.9)
        assert report.per_class["NOR"].tp == 9
        assert report.per_class["NOR"].fn == 1

    def test_two_class_reduction_hand_formulas(self):
        # only classes 0/1 populated: TP/TN/FP/FN match binary hand counts
        cm = np.zeros((5, 5), dtype=int)
        cm[0, 0], cm[0, 1], cm[1, 0], cm[1, 1] = 8, 2, 3, 7
        report = me.compute_metrics(cm)
        m0 = report.per_class["NOR"]
        assert (m0.tp, m0.fn, m0.fp, m0.tn) == (8, 2, 3, 7)
        assert m0.accuracy == pytest.approx(15 / 20)
        assert m0.sensitivity == pytest.approx(8 / 10)
        assert m0.specificity == pytest.approx(7 / 10)

    def test_row_column_sums(self):
        rng = np.random.default_rng(0)
        cm = rng.integers(0, 50, (5, 5))
        report = me.compute_metrics(cm)
        for k, name in enumerate(me.CLASS_NAMES):
            m = report.per_class[name]
            assert m.tp + m.fn == cm[k].sum()
            assert m.tp + m.fp == cm[:, k].sum()
        assert report.overall_accuracy == pytest.approx(np.trace(cm) / cm.sum())

    def test_zero_support_class_undefined(self):
        cm = np.zeros((5, 5), dtype=int)
        cm[0, 0] = 10
        report = me.compute_metrics(cm)
        assert report.per_class["PVC"].sensitivity is None
        assert "PVC" in report.undefined_classes
        # undefined classes are excluded from the macro mean
        assert report.macro_sensitivity == 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        t = rng.integers(0, 5, 500)
        p = rng.integers(0, 5, 500)
        perm = np.array([3, 0, 4, 1, 2])
        r1 = me.compute_metrics(me.confusion(t, p))
        r2 = me.compute_metrics(me.confusion(perm[t], perm[p]))
        assert r1.overall_accuracy == pytest.approx(r2.overall_accuracy)
        assert r1.macro_sensitivity == pytest.approx(r2.macro_sensitivity)
        assert r1.macro_specificity == pytest.approx(r2.macro_specificity)

    def test_empty_matrix_rejected(self):
        with pytest.raises(EcgresError, match="empty confusion matrix"):
            me.compute_metrics(np.zeros((5, 5), dtype=int))


class TestEmitReport:
    def _sample(self):
        cm = np.diag([5, 4, 3, 2, 1])
        return me.compute_metrics(cm), cm

    def test_files_written(self, tmp_path):
        report, cm = self._sample()
        me.emit_report(report, cm, tmp_path)
        assert {p.name for p in tmp_path.iterdir()} == {"confusion.csv", "metrics.json"}

    def test_confusion_csv_layout(self, tmp_path):
        report, cm = self._sample()
        me.emit_report(report, cm, tmp_path)
        lines = (tmp_path / "confusion.csv").read_text().splitlines()
        assert lines[0] == "true\\pred,NOR,LBBB,RBBB,APC,PVC"
        assert lines[1] == "NOR,5,0,0,0,0"
        assert len(lines) == 6

    def test_metrics_json_matches_report(self, tmp_path):
        report, cm = self._sample()
        me.emit_report(report, cm, tmp_path)
        doc = json.loads((tmp_path / "metrics.json").read_text())
        assert doc["overall_accuracy"] == report.overall_accuracy
        assert doc["per_class"]["NOR"]["tp"] == 5

    def test_deterministic_bytes(self, tmp_path):
        report, cm = self._sample()
        me.emit_report(report, cm, tmp_path / "a")
        me.emit_report(report, cm, tmp_path / "b")
        for name in ("confusion.csv", "metrics.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
