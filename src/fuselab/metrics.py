"""The four evaluation metrics of a set of predictions.

Per class: precision TP/predicted, recall TP/support, F1 the harmonic
mean of the two. Multi-class reports use macro-averaging: the unweighted
mean of per-class values, in the label space's class order. Accuracy is
the share of predictions that equal their truth.

Zero-denominator convention: precision or recall is 0 when its
denominator is 0, and F1 is 0 when precision + recall is 0. Classes with
zero support still participate in the macro averages, which keeps scores
honest on skewed data. Accuracy is reported but is uninformative under
heavy class skew; prefer macro-F there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from .datakit import LabelSpace
from .exceptions import InputError


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


def evaluate(truths: Sequence[str], preds: Sequence[str],
             space: LabelSpace) -> MetricsReport:
    """Score preds against truths, counting each class's true positives,
    predictions and support in one pass over the pairs."""
    if len(truths) != len(preds):
        raise InputError(f"evaluate: {len(truths)} truths vs {len(preds)} predictions")
    if len(truths) < 1:
        raise InputError("evaluate: need at least one sample")
    tp = dict.fromkeys(space.names, 0)
    predicted = dict.fromkeys(space.names, 0)
    support = dict.fromkeys(space.names, 0)
    try:
        for truth, pred in zip(truths, preds):
            support[truth] += 1
            predicted[pred] += 1
            if truth == pred:
                tp[truth] += 1
    except KeyError as exc:
        raise InputError(f"evaluate: label {exc.args[0]!r} not in space "
                         f"{list(space.names)}") from None
    per_class: Dict[str, ClassMetrics] = {}
    for name in support:
        precision = _safe_div(tp[name], predicted[name])
        recall = _safe_div(tp[name], support[name])
        f1 = _safe_div(2.0 * precision * recall, precision + recall)
        per_class[name] = ClassMetrics(precision, recall, f1, support[name])
    k = len(per_class)
    return MetricsReport(
        per_class=per_class,
        accuracy=sum(tp.values()) / len(truths),
        macro_precision=sum(m.precision for m in per_class.values()) / k,
        macro_recall=sum(m.recall for m in per_class.values()) / k,
        macro_f1=sum(m.f1 for m in per_class.values()) / k,
    )
