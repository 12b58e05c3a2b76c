"""Multi-class evaluation: confusion matrix and one-vs-rest rates.

For each class the remaining classes are pooled into a single negative,
giving per-class TP/FP/FN/TN counts and the derived rates

* accuracy   -- (TP + TN) / total
* precision  -- TP / (TP + FP)
* recall     -- TP / (TP + FN)
* f1         -- harmonic mean of precision and recall
* false_alarm_rate -- FP / (FP + TN),  healthy samples flagged as this class
* missed_alarm_rate -- FN / (FN + TP), samples of this class that escaped

Every 0/0 ratio is reported as 0.0 and the class is flagged degenerate so
averages stay finite and auditable.  Macro averages are plain unweighted
means over classes.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConfusionMatrix",
    "ClassReport",
    "EvalReport",
    "confusion_matrix",
    "evaluate_predictions",
]

RATE_NAMES = ("accuracy", "precision", "recall", "f1", "false_alarm_rate", "missed_alarm_rate")


def _safe_ratio(num: float, den: float) -> tuple[float, bool]:
    """num/den with the 0/0 case mapped to (0.0, degenerate=True)."""
    if den == 0:
        return 0.0, True
    return num / den, False


def confusion_matrix(y_true, y_pred, n_classes: int) -> np.ndarray:
    """Counts with true classes on rows and predicted classes on columns."""
    y_true = np.asarray(y_true, dtype=np.int64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.int64).ravel()
    if y_true.shape != y_pred.shape:
        raise ValueError(f"label arrays differ in length: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("cannot evaluate an empty label set")
    for name, arr in (("y_true", y_true), ("y_pred", y_pred)):
        if arr.min() < 0 or arr.max() >= n_classes:
            raise ValueError(f"{name} contains labels outside [0, {n_classes})")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


@dataclass(frozen=True)
class ClassReport:
    """One-vs-rest counts and rates for a single class."""

    label: str
    tp: int
    fp: int
    fn: int
    tn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    false_alarm_rate: float
    missed_alarm_rate: float
    degenerate: tuple[str, ...] = ()

    @property
    def support(self) -> int:
        return self.tp + self.fn


def _class_report(label: str, tp: int, fp: int, fn: int, tn: int) -> ClassReport:
    total = tp + fp + fn + tn
    degenerate: list[str] = []
    rates: dict[str, float] = {}
    for name, num, den in (
        ("accuracy", tp + tn, total),
        ("precision", tp, tp + fp),
        ("recall", tp, tp + fn),
        ("false_alarm_rate", fp, fp + tn),
        ("missed_alarm_rate", fn, fn + tp),
    ):
        value, bad = _safe_ratio(num, den)
        rates[name] = value
        if bad:
            degenerate.append(name)
    pr = rates["precision"] + rates["recall"]
    f1, bad = _safe_ratio(2.0 * rates["precision"] * rates["recall"], pr)
    if bad:
        degenerate.append("f1")
    return ClassReport(
        label=label, tp=tp, fp=fp, fn=fn, tn=tn, f1=f1,
        degenerate=tuple(degenerate), **rates,
    )


@dataclass(frozen=True)
class ConfusionMatrix:
    """Confusion counts plus the class labels they are indexed by."""

    counts: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        n = len(self.labels)
        if counts.shape != (n, n):
            raise ValueError(f"counts shape {counts.shape} does not match {n} labels")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_predictions(cls, y_true, y_pred, labels) -> "ConfusionMatrix":
        labels = tuple(labels)
        return cls(confusion_matrix(y_true, y_pred, len(labels)), labels)

    def class_report(self, index: int) -> ClassReport:
        cm = self.counts
        tp = int(cm[index, index])
        fn = int(cm[index].sum() - tp)
        fp = int(cm[:, index].sum() - tp)
        tn = int(cm.sum() - tp - fn - fp)
        return _class_report(self.labels[index], tp, fp, fn, tn)


@dataclass(frozen=True)
class EvalReport:
    """Per-class reports, macro averages, and overall accuracy."""

    matrix: ConfusionMatrix
    per_class: tuple[ClassReport, ...]
    macro: dict[str, float]
    overall_accuracy: float
    n_samples: int
    degenerate_classes: tuple[str, ...] = field(default=())

    @classmethod
    def from_matrix(cls, matrix: ConfusionMatrix) -> "EvalReport":
        reports = tuple(matrix.class_report(i) for i in range(len(matrix.labels)))
        macro = {
            name: float(np.mean([getattr(r, name) for r in reports]))
            for name in RATE_NAMES
        }
        total = int(matrix.counts.sum())
        correct = int(np.trace(matrix.counts))
        flagged = tuple(r.label for r in reports if r.degenerate)
        return cls(
            matrix=matrix,
            per_class=reports,
            macro=macro,
            overall_accuracy=correct / total,
            n_samples=total,
            degenerate_classes=flagged,
        )

    # ---- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "overall_accuracy": self.overall_accuracy,
            "labels": list(self.matrix.labels),
            "confusion_matrix": self.matrix.counts.tolist(),
            "macro": {k: self.macro[k] for k in RATE_NAMES},
            "degenerate_classes": list(self.degenerate_classes),
            "per_class": [
                {
                    "label": r.label,
                    "support": r.support,
                    "tp": r.tp, "fp": r.fp, "fn": r.fn, "tn": r.tn,
                    **{name: getattr(r, name) for name in RATE_NAMES},
                    "degenerate": list(r.degenerate),
                }
                for r in self.per_class
            ],
        }

    def to_csv(self) -> str:
        """Per-class rates as CSV; floats use repr so round-trips are exact."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["label", "support", "tp", "fp", "fn", "tn", *RATE_NAMES])
        for r in self.per_class:
            writer.writerow(
                [r.label, r.support, r.tp, r.fp, r.fn, r.tn]
                + [repr(getattr(r, name)) for name in RATE_NAMES]
            )
        writer.writerow(
            ["macro", self.n_samples, "", "", "", ""]
            + [repr(self.macro[name]) for name in RATE_NAMES]
        )
        return buf.getvalue()

    def to_text(self) -> str:
        """Fixed-width table for terminal display."""
        headers = ["class", "support", "acc", "prec", "rec", "f1", "far", "mar"]
        rows = [
            [
                r.label, str(r.support),
                *(f"{getattr(r, name):.4f}" for name in RATE_NAMES),
            ]
            for r in self.per_class
        ]
        rows.append(
            ["macro", str(self.n_samples), *(f"{self.macro[n]:.4f}" for n in RATE_NAMES)]
        )
        widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        lines.append("  ".join("-" * w for w in widths))
        lines.extend("  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows)
        lines.append(f"overall accuracy: {self.overall_accuracy:.4f}")
        if self.degenerate_classes:
            lines.append("degenerate (0/0 reported as 0): " + ", ".join(self.degenerate_classes))
        return "\n".join(lines)


def evaluate_predictions(y_true, y_pred, labels) -> EvalReport:
    """Build the full report from parallel true/predicted label arrays."""
    return EvalReport.from_matrix(ConfusionMatrix.from_predictions(y_true, y_pred, labels))
