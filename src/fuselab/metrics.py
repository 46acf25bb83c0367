"""Confusion counts and the four evaluation metrics.

Per class (one-vs-rest): precision TP/(TP+FP), recall TP/(TP+FN), F1 the
harmonic mean of the two, accuracy (TP+TN)/total. Multi-class reports
use macro-averaging: the unweighted mean of per-class values.

Zero-denominator convention: precision or recall is 0 when its
denominator is 0, and F1 is 0 when precision + recall is 0. Classes with
zero support still participate in the macro averages, which keeps scores
honest on skewed data. Accuracy is reported but is uninformative under
heavy class skew; prefer macro-F there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from .datakit import LabelSpace
from .exceptions import InputError


@dataclass
class ClassCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass
class ConfusionCounts:
    per_class: Dict[str, ClassCounts]
    n_samples: int

    def __post_init__(self):
        for name, c in self.per_class.items():
            if min(c.tp, c.fp, c.fn, c.tn) < 0:
                raise InputError(f"negative count for class {name!r}")
            if c.total != self.n_samples:
                raise InputError(f"class {name!r} counts sum to {c.total}, "
                                 f"expected {self.n_samples}")


def confusion(truths: Sequence[str], preds: Sequence[str],
              space: LabelSpace) -> ConfusionCounts:
    """One-vs-rest confusion counts per class."""
    if len(truths) != len(preds):
        raise InputError(f"confusion: {len(truths)} truths vs {len(preds)} predictions")
    if len(truths) < 1:
        raise InputError("confusion: need at least one sample")
    valid = set(space.names)
    for label in list(truths) + list(preds):
        if label not in valid:
            raise InputError(f"confusion: label {label!r} not in space {list(space.names)}")
    per_class = {name: ClassCounts() for name in space.names}
    for truth, pred in zip(truths, preds):
        for name, counts in per_class.items():
            if truth == name and pred == name:
                counts.tp += 1
            elif truth == name:
                counts.fn += 1
            elif pred == name:
                counts.fp += 1
            else:
                counts.tn += 1
    return ConfusionCounts(per_class, len(truths))


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class MetricsReport:
    per_class: Dict[str, ClassMetrics]
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def compute_metrics(counts: ConfusionCounts) -> MetricsReport:
    per_class: Dict[str, ClassMetrics] = {}
    for name, c in counts.per_class.items():
        precision = _safe_div(c.tp, c.tp + c.fp)
        recall = _safe_div(c.tp, c.tp + c.fn)
        f1 = _safe_div(2.0 * precision * recall, precision + recall)
        per_class[name] = ClassMetrics(precision, recall, f1, support=c.tp + c.fn)
    k = len(per_class)
    correct = sum(c.tp for c in counts.per_class.values())
    return MetricsReport(
        per_class=per_class,
        accuracy=_safe_div(correct, counts.n_samples),
        macro_precision=sum(m.precision for m in per_class.values()) / k,
        macro_recall=sum(m.recall for m in per_class.values()) / k,
        macro_f1=sum(m.f1 for m in per_class.values()) / k,
    )


def evaluate(truths: Sequence[str], preds: Sequence[str],
             space: LabelSpace) -> MetricsReport:
    return compute_metrics(confusion(truths, preds, space))


# ---------------------------------------------------------------------------
# report rendering: one row per model in the experiment-table layout
# (Model | Input modes | Fusion type | P | R | F | A)

TABLE_COLUMNS = ("Model", "Input modes", "Fusion type", "P", "R", "F", "A")


@dataclass
class ResultRow:
    model: str
    input_modes: str
    fusion_type: str
    report: MetricsReport

    def cells(self) -> Tuple[str, ...]:
        r = self.report
        return (self.model, self.input_modes, self.fusion_type,
                f"{r.macro_precision:.4f}", f"{r.macro_recall:.4f}",
                f"{r.macro_f1:.4f}", f"{r.accuracy:.4f}")


def format_table(rows: Sequence[ResultRow]) -> str:
    table = [TABLE_COLUMNS] + [row.cells() for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(TABLE_COLUMNS))]
    lines = []
    for i, row in enumerate(table):
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("-+-".join("-" * w for w in widths))
    return "\n".join(lines)


def format_csv(rows: Sequence[ResultRow]) -> str:
    out = [",".join(TABLE_COLUMNS)]
    for row in rows:
        out.append(",".join(row.cells()))
    return "\n".join(out) + "\n"


def format_report(report: MetricsReport) -> str:
    """Per-class breakdown plus the macro row, as plain text."""
    lines = [f"{'class':<16} {'P':>8} {'R':>8} {'F1':>8} {'support':>8}"]
    for name, m in report.per_class.items():
        lines.append(f"{name:<16} {m.precision:8.4f} {m.recall:8.4f} "
                     f"{m.f1:8.4f} {m.support:8d}")
    lines.append(f"{'macro':<16} {report.macro_precision:8.4f} "
                 f"{report.macro_recall:8.4f} {report.macro_f1:8.4f}")
    lines.append(f"accuracy {report.accuracy:.4f} "
                 f"(uninformative under heavy class skew; prefer macro-F)")
    return "\n".join(lines)
