"""Per-class counts and metric formulas against brute-force recounts."""

import numpy as np
import pytest

from fuselab.datakit import BINARY_SPACE, LabelSpace, merge_to_binary
from fuselab.exceptions import InputError
from fuselab.experiment import render_report
from fuselab.metrics import evaluate
from fuselab.training import ModelConfig

HAND_TRUTHS = ["H", "H", "H", "H", "N", "N", "N", "N", "N", "N"]
HAND_PREDS = ["H", "H", "H", "N", "H", "N", "N", "N", "N", "N"]
HN_SPACE = LabelSpace(("H", "N"))


class TestConfusion:
    def test_perfect_predictor_has_no_errors(self):
        report = evaluate(HAND_TRUTHS, HAND_TRUTHS, HN_SPACE)
        for m in report.per_class.values():
            assert (m.precision, m.recall) == (1.0, 1.0)
        assert [m.support for m in report.per_class.values()] == [4, 6]

    def test_hand_count(self):
        # H: 3 true positives of 4 predictions and of 4 truths
        h = evaluate(HAND_TRUTHS, HAND_PREDS, HN_SPACE).per_class["H"]
        assert (h.precision, h.recall, h.support) == (3 / 4, 3 / 4, 4)

    def test_single_correct_sample(self):
        report = evaluate(["H"], ["H"], HN_SPACE)
        h, n = report.per_class["H"], report.per_class["N"]
        assert (h.precision, h.recall, h.support) == (1.0, 1.0, 1)
        assert (n.precision, n.recall, n.support) == (0.0, 0.0, 0)
        assert report.accuracy == 1.0

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            evaluate(["H"], ["H", "N"], HN_SPACE)

    def test_unknown_label(self):
        for truths, preds in ((["H"], ["X"]), (["X"], ["H"])):
            with pytest.raises(InputError, match="'X'"):
                evaluate(truths, preds, HN_SPACE)

    def test_empty_input(self):
        with pytest.raises(InputError):
            evaluate([], [], HN_SPACE)


class TestComputeMetrics:
    def test_worked_example(self):
        report = evaluate(HAND_TRUTHS, HAND_PREDS, HN_SPACE)
        h = report.per_class["H"]
        n = report.per_class["N"]
        assert (h.precision, h.recall, h.f1) == (0.75, 0.75, 0.75)
        assert abs(n.precision - 5 / 6) < 1e-12
        assert abs(n.recall - 5 / 6) < 1e-12
        assert abs(n.f1 - 5 / 6) < 1e-12
        assert report.accuracy == 0.8
        assert abs(report.macro_f1 - (0.75 + 5 / 6) / 2) < 1e-12
        assert round(report.macro_f1, 6) == 0.791667

    def test_perfect_predictor_all_ones(self):
        report = evaluate(HAND_TRUTHS, HAND_TRUTHS, HN_SPACE)
        assert report.accuracy == 1.0
        assert report.macro_precision == report.macro_recall == report.macro_f1 == 1.0
        for m in report.per_class.values():
            assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_macro_is_arithmetic_mean(self):
        # construct per-class F1 of 0.8 and 0.6, macro must be 0.7
        truths = ["A"] * 10 + ["B"] * 10
        # A: P=2/3 (8 tp, 4 fp), R=0.8 -> F1=0.7272..; easier to verify via recount
        report = evaluate(truths, truths, LabelSpace(("A", "B")))
        assert report.macro_f1 == 1.0
        # direct statement on the averaging rule
        from fuselab.metrics import ClassMetrics, MetricsReport
        rep = MetricsReport(
            per_class={"A": ClassMetrics(0, 0, 0.8, 1), "B": ClassMetrics(0, 0, 0.6, 1)},
            accuracy=0.0, macro_precision=0.0, macro_recall=0.0,
            macro_f1=(0.8 + 0.6) / 2,
        )
        assert rep.macro_f1 == 0.7

    def test_zero_denominator_conventions(self):
        # predictor never outputs B: precision(B)=0 by convention, F1(B)=0
        report = evaluate(["A", "B"], ["A", "A"], LabelSpace(("A", "B")))
        b = report.per_class["B"]
        assert b.precision == 0.0 and b.recall == 0.0 and b.f1 == 0.0
        assert report.macro_f1 == (report.per_class["A"].f1 + 0.0) / 2


def _brute_force_report(truths, preds, names):
    """Independent recount: literal formula evaluation per class."""
    out = {}
    for name in names:
        tp = sum(1 for t, p in zip(truths, preds) if t == name and p == name)
        fp = sum(1 for t, p in zip(truths, preds) if t != name and p == name)
        fn = sum(1 for t, p in zip(truths, preds) if t == name and p != name)
        tn = sum(1 for t, p in zip(truths, preds) if t != name and p != name)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        accuracy = (tp + tn) / len(truths)
        out[name] = (precision, recall, f1, accuracy)
    return out


class TestOracleEquivalence:
    def test_thousand_random_cases(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            k = int(rng.integers(2, 7))
            names = tuple(chr(ord("A") + i) for i in range(k))
            space = LabelSpace(names)
            n = int(rng.integers(1, 201))
            truths = [names[i] for i in rng.integers(0, k, size=n)]
            preds = [names[i] for i in rng.integers(0, k, size=n)]
            report = evaluate(truths, preds, space)
            oracle = _brute_force_report(truths, preds, names)
            accuracies = set()
            for name in names:
                p, r, f, a = oracle[name]
                m = report.per_class[name]
                assert abs(m.precision - p) < 1e-12
                assert abs(m.recall - r) < 1e-12
                assert abs(m.f1 - f) < 1e-12
                accuracies.add(round(a, 12))
            # one-vs-rest accuracy is the same whichever class is used
            # only in the overall (multi-class) sense below
            macro_f = sum(v[2] for v in oracle.values()) / k
            assert abs(report.macro_f1 - macro_f) < 1e-12
            overall = sum(1 for t, p in zip(truths, preds) if t == p) / n
            assert abs(report.accuracy - overall) < 1e-12

    def test_binary_merge_then_metrics_equals_metrics_in_binary_space(self):
        from fuselab.datakit import HATE_SPEECH_SPACE
        rng = np.random.default_rng(17)
        names = HATE_SPEECH_SPACE.names
        truths = [names[i] for i in rng.integers(0, len(names), size=300)]
        preds = [names[i] for i in rng.integers(0, len(names), size=300)]
        merged_t = [merge_to_binary(t, HATE_SPEECH_SPACE) for t in truths]
        merged_p = [merge_to_binary(p, HATE_SPEECH_SPACE) for p in preds]
        direct = evaluate(merged_t, merged_p, BINARY_SPACE)
        again = evaluate(list(merged_t), list(merged_p), BINARY_SPACE)
        assert direct == again


class TestFormatting:
    def test_table_layout(self):
        report = evaluate(HAND_TRUTHS, HAND_PREDS, HN_SPACE)
        text, csv = render_report("M2", ModelConfig(fusion="gan"), report)
        assert text.splitlines()[:3] == [
            "Model | Input modes | Fusion type | P      | R      | F      | A",
            "------+-------------+-------------+--------+--------+--------+-------",
            "M2    | image+text  | GAN-Fusion  | 0.7917 | 0.7917 | 0.7917 | 0.8000"]
        assert text.splitlines()[3] == "" and text.endswith("prefer macro-F)\n")
        assert csv == ("Model,Input modes,Fusion type,P,R,F,A\n"
                       "M2,image+text,GAN-Fusion,0.7917,0.7917,0.7917,0.8000\n")
