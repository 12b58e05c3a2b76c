"""Evaluation metrics against loop-level one-vs-rest counting."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdafault.metrics import (
    ConfusionMatrix,
    EvalReport,
    confusion_matrix,
    evaluate_predictions,
)


def brute_counts(y_true, y_pred, cls):
    tp = sum(1 for t, p in zip(y_true, y_pred) if t == cls and p == cls)
    fp = sum(1 for t, p in zip(y_true, y_pred) if t != cls and p == cls)
    fn = sum(1 for t, p in zip(y_true, y_pred) if t == cls and p != cls)
    tn = sum(1 for t, p in zip(y_true, y_pred) if t != cls and p != cls)
    return tp, fp, fn, tn


def brute_rates(tp, fp, fn, tn):
    total = tp + fp + fn + tn

    def ratio(num, den):
        return num / den if den else 0.0

    precision = ratio(tp, tp + fp)
    recall = ratio(tp, tp + fn)
    return {
        "accuracy": ratio(tp + tn, total),
        "precision": precision,
        "recall": recall,
        "f1": ratio(2 * precision * recall, precision + recall),
        "false_alarm_rate": ratio(fp, fp + tn),
        "missed_alarm_rate": ratio(fn, fn + tp),
    }


def matrix_from(tp, fp, fn, tn, labels=("pos", "negA", "negB")):
    """Embed one-vs-rest counts for class 0 into a 3-class matrix."""
    counts = np.zeros((3, 3), dtype=np.int64)
    counts[0, 0] = tp
    counts[0, 1] = fn  # true class 0 predicted elsewhere
    counts[1, 0] = fp  # other classes predicted as 0
    counts[1, 2] = tn  # the rest, away from class 0
    return ConfusionMatrix(counts=counts, labels=labels)


class TestConfusionMatrix:
    def test_counts_layout(self):
        cm = confusion_matrix([0, 0, 1, 2, 1], [0, 1, 1, 2, 0], 3)
        want = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        np.testing.assert_array_equal(cm, want)

    def test_validation(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0], 2)
        with pytest.raises(ValueError):
            confusion_matrix([0, 3], [0, 1], 3)
        with pytest.raises(ValueError):
            confusion_matrix([], [], 2)
        with pytest.raises(ValueError):
            ConfusionMatrix(counts=np.zeros((2, 3)), labels=("a", "b"))

    @pytest.mark.parametrize("counts, message", [
        ([[-1, 0], [0, 1]], "negative"),
        ([[0, 0], [0, 0]], "all zero"),
        ([[1.5, 0], [0, 1]], "integers"),
        ([[1.0, 0], [0, 1]], "integers"),
        ([[True, False], [False, True]], "integers"),
    ], ids=["negative", "zero-total", "fraction", "float", "bool"])
    def test_rejects_counts_no_evaluation_produces(self, counts, message):
        with pytest.raises(ValueError, match=message):
            ConfusionMatrix(counts=counts, labels=("a", "b"))

    @given(st.integers(0, 100_000))
    @settings(max_examples=50)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n_cls = int(rng.integers(2, 8))
        n = int(rng.integers(1, 60))
        y_true = rng.integers(0, n_cls, n)
        y_pred = rng.integers(0, n_cls, n)
        cm = confusion_matrix(y_true, y_pred, n_cls)
        for c in range(n_cls):
            tp, fp, fn, tn = brute_counts(y_true, y_pred, c)
            assert cm[c, c] == tp
            assert cm[c].sum() - tp == fn
            assert cm[:, c].sum() - tp == fp


class TestPerClassRates:
    def test_exact_against_brute_force_random_labelings(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            n_cls = int(rng.integers(2, 7))
            n = int(rng.integers(1, 40))
            y_true = rng.integers(0, n_cls, n)
            y_pred = rng.integers(0, n_cls, n)
            labels = tuple(f"c{i}" for i in range(n_cls))
            report = evaluate_predictions(y_true, y_pred, labels)
            for c, r in enumerate(report.per_class):
                tp, fp, fn, tn = brute_counts(y_true, y_pred, c)
                assert (r.tp, r.fp, r.fn, r.tn) == (tp, fp, fn, tn)
                for name, want in brute_rates(tp, fp, fn, tn).items():
                    assert getattr(r, name) == want, (name, c)

    def test_spot_precision(self):
        # TP=85, FP=15 -> precision 0.85 exactly
        r = matrix_from(tp=85, fp=15, fn=0, tn=900).class_report(0)
        assert r.precision == 0.85

    def test_spot_missed_alarm_rate(self):
        # FN=12, TP=88 -> MAR 0.12 exactly
        r = matrix_from(tp=88, fp=0, fn=12, tn=900).class_report(0)
        assert r.missed_alarm_rate == 0.12

    def test_spot_perfect_recall(self):
        r = matrix_from(tp=40, fp=3, fn=0, tn=100).class_report(0)
        assert r.recall == 1.0
        assert r.missed_alarm_rate == 0.0

    def test_f1_harmonic_mean_value(self):
        # precision 0.85 (85/100), recall 0.88 (88/100)
        counts = np.zeros((3, 3), dtype=np.int64)
        counts[0, 0] = 85 * 88  # construct exact p=0.85, r=0.88 via scaling
        counts[1, 0] = 15 * 88
        counts[0, 1] = 85 * 12
        cm = ConfusionMatrix(counts=counts, labels=("a", "b", "c"))
        r = cm.class_report(0)
        assert r.precision == pytest.approx(0.85, abs=1e-12)
        assert r.recall == pytest.approx(0.88, abs=1e-12)
        assert r.f1 == pytest.approx(2 * 0.85 * 0.88 / (0.85 + 0.88), abs=1e-12)

    @given(st.integers(0, 50_000))
    @settings(max_examples=50)
    def test_recall_plus_mar_is_one(self, seed):
        rng = np.random.default_rng(seed)
        n_cls = int(rng.integers(2, 6))
        y_true = rng.integers(0, n_cls, 30)
        y_pred = rng.integers(0, n_cls, 30)
        report = evaluate_predictions(y_true, y_pred, tuple(map(str, range(n_cls))))
        for r in report.per_class:
            if r.tp + r.fn > 0:
                assert r.recall + r.missed_alarm_rate == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_zero_over_zero(self):
        # Class "c" never appears in truth or prediction: recall, MAR and f1
        # are 0/0 -> reported 0.0 and flagged.
        report = evaluate_predictions([0, 1], [0, 1], ("a", "b", "c"))
        r = report.per_class[2]
        assert (r.recall, r.missed_alarm_rate, r.f1, r.precision) == (0, 0, 0, 0)
        assert set(r.degenerate) == {"precision", "recall", "missed_alarm_rate", "f1"}
        assert "c" in report.degenerate_classes


class TestEvalReport:
    @pytest.fixture()
    def report(self):
        rng = np.random.default_rng(7)
        y_true = rng.integers(0, 4, 200)
        y_pred = np.where(rng.random(200) < 0.8, y_true, rng.integers(0, 4, 200))
        return evaluate_predictions(y_true, y_pred, ("w", "x", "y", "z"))

    def test_macro_is_unweighted_mean(self, report):
        for name in ("accuracy", "precision", "recall", "f1"):
            vals = [getattr(r, name) for r in report.per_class]
            assert report.macro[name] == pytest.approx(np.mean(vals), abs=1e-12)

    def test_overall_accuracy_is_trace_ratio(self, report):
        cm = report.matrix.counts
        assert report.overall_accuracy == np.trace(cm) / cm.sum()

    def test_json_round_trip(self, report):
        d = json.loads(json.dumps(report.to_dict()))
        assert d["n_samples"] == report.n_samples
        assert d["overall_accuracy"] == report.overall_accuracy
        rebuilt = EvalReport.from_matrix(
            ConfusionMatrix(
                counts=np.asarray(d["confusion_matrix"]), labels=tuple(d["labels"])
            )
        )
        assert rebuilt.macro == report.macro

    def test_csv_floats_round_trip_exactly(self, report):
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        header = rows[0]
        f1_col = header.index("f1")
        for row, r in zip(rows[1:], report.per_class):
            assert float(row[f1_col]) == getattr(r, "f1")
        assert rows[-1][0] == "macro"
        assert float(rows[-1][f1_col]) == report.macro["f1"]

    def test_text_table_mentions_every_class(self, report):
        text = report.to_text()
        for label in ("w", "x", "y", "z", "macro", "overall accuracy"):
            assert label in text
