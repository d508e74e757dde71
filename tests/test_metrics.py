import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nascore import metrics, oracles
from nascore.dataset import NAS_VALUES


def indirect_set(true_classes, logits):
    records = [
        {"video_id": f"v{i}", "true_class": int(t), "logits": [float(x) for x in row]}
        for i, (t, row) in enumerate(zip(true_classes, logits))
    ]
    return metrics.PredictionSet.from_records("indirect", records)


def direct_set(true_classes, scores):
    records = [
        {"video_id": f"v{i}", "true_class": int(t), "score": float(s)}
        for i, (t, s) in enumerate(zip(true_classes, scores))
    ]
    return metrics.PredictionSet.from_records("direct", records)


def one_hot_logits(classes, scale=10.0):
    out = np.zeros((len(classes), 8))
    for i, c in enumerate(classes):
        out[i, c] = scale
    return out


class TestAccuracy:
    def test_perfect(self):
        classes = [0, 3, 7, 5]
        assert metrics.accuracy(indirect_set(classes, one_hot_logits(classes))) == 1.0

    def test_five_of_eight(self):
        true = [0, 1, 2, 3, 4, 5, 6, 7]
        pred = [0, 1, 2, 3, 4, 6, 7, 6]
        assert metrics.accuracy(indirect_set(true, one_hot_logits(pred))) == 0.625

    def test_tie_breaks_to_lowest_index(self):
        preds = indirect_set([0], np.zeros((1, 8)))
        assert metrics.argmax_classes(preds.logits)[0] == 0
        assert metrics.accuracy(preds) == 1.0


class TestF1Macro:
    def test_perfect_all_classes(self):
        classes = list(range(8))
        assert metrics.f1_macro(indirect_set(classes, one_hot_logits(classes))) == 1.0

    def test_single_class_confusion(self):
        # class 0: TP=2, FP=1, FN=1 -> F1 = 4/6; class 1: F1 = 0; rest absent
        true = [0, 0, 1, 0]
        pred = [0, 0, 0, 1]
        got = metrics.f1_macro(indirect_set(true, one_hot_logits(pred)))
        assert abs(got - (2.0 / 3.0) / 8.0) < 1e-15

    def test_matches_confusion_oracle_on_random_sets(self):
        for seed in range(100):
            records = oracles.random_prediction_records(seed)
            preds = metrics.PredictionSet.from_records("indirect", records)
            predicted = metrics.argmax_classes(preds.logits)
            expected = oracles.confusion_f1_macro(preds.true_classes, predicted, 8)
            assert abs(metrics.f1_macro(preds) - expected) < 1e-12


class TestRocAuc:
    def test_perfect_separation(self):
        assert metrics.class_auc([0.9, 0.8, 0.3, 0.2], np.array([True, True, False, False])) == 1.0

    def test_half_ordered_pairs(self):
        auc = metrics.class_auc([0.9, 0.2, 0.8, 0.3], np.array([True, True, False, False]))
        assert auc == 0.5

    def test_all_ties(self):
        auc = metrics.class_auc([0.4, 0.4, 0.4, 0.4], np.array([True, False, True, False]))
        assert auc == 0.5

    def test_degenerate_classes_excluded_and_flagged(self):
        true = [0, 0, 1, 1]  # classes 2..7 have no positives
        logits = np.random.default_rng(0).standard_normal((4, 8))
        preds = indirect_set(true, logits)
        assert metrics.auc_excluded_classes(preds) == [2, 3, 4, 5, 6, 7]
        assert 0.0 <= metrics.roc_auc_macro(preds) <= 1.0

    def test_matches_trapezoid_oracle_on_random_sets(self):
        for seed in range(100):
            records = oracles.random_prediction_records(seed)
            preds = metrics.PredictionSet.from_records("indirect", records)
            probs = metrics.softmax_probabilities(preds.logits)
            for c in range(8):
                positives = preds.true_classes == c
                if positives.all() or not positives.any():
                    continue
                mine = metrics.class_auc(probs[:, c], positives)
                ref = oracles.trapezoid_auc(probs[:, c], positives)
                assert abs(mine - ref) < 1e-9


class TestNasMse:
    def test_perfect_indirect_classifier(self):
        classes = [0, 1, 2, 3, 4, 5, 6, 7]
        assert metrics.nas_mse(indirect_set(classes, one_hot_logits(classes))) == 0.0

    def test_medication_vs_blood_taking(self):
        # true Medication (5.60) predicted as Blood taking (4.30)
        got = metrics.nas_mse(indirect_set([6], one_hot_logits([7])))
        assert abs(got - 1.69) < 1e-12

    def test_direct_exact_scores(self):
        classes = [0, 4, 7]
        scores = [NAS_VALUES[c] for c in classes]
        assert metrics.nas_mse(direct_set(classes, scores)) == 0.0

    def test_indirect_predictions_live_in_table(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((40, 8))
        preds = indirect_set(rng.integers(0, 8, size=40), logits)
        table = np.array(NAS_VALUES)
        predicted_scores = table[metrics.argmax_classes(preds.logits)]
        assert set(np.round(predicted_scores, 2)) <= set(NAS_VALUES)


class TestInvariances:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_auc_invariant_under_monotone_transforms(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal(20)
        positives = rng.integers(0, 2, size=20).astype(bool)
        if positives.all() or not positives.any():
            return
        base = metrics.class_auc(scores, positives)
        assert abs(metrics.class_auc(2 * scores + 1, positives) - base) < 1e-12
        assert abs(metrics.class_auc(np.exp(scores), positives) - base) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_argmax_metrics_invariant_to_per_video_shift(self, seed):
        rng = np.random.default_rng(seed)
        true = rng.integers(0, 8, size=12)
        logits = rng.standard_normal((12, 8))
        shifts = rng.uniform(-5, 5, size=(12, 1))
        a = indirect_set(true, logits)
        b = indirect_set(true, logits + shifts)
        assert metrics.accuracy(a) == metrics.accuracy(b)
        assert metrics.f1_macro(a) == metrics.f1_macro(b)


class TestAggregate:
    def rec(self, acc, mse=1.0):
        return {"mse": mse, "accuracy": acc, "roc_auc": 0.9, "f1_macro": 0.5,
                "auc_excluded_classes": []}

    def test_identical_records(self):
        out = metrics.aggregate_folds([self.rec(0.5), self.rec(0.5)])
        assert out["accuracy"] == 0.5 and out["mse"] == 1.0

    def test_mean_of_two(self):
        out = metrics.aggregate_folds([self.rec(0.5), self.rec(0.7)])
        assert abs(out["accuracy"] - 0.6) < 1e-15

    def test_single_fold_identity(self):
        rec = self.rec(0.42, mse=3.3)
        out = metrics.aggregate_folds([rec])
        assert out == {key: value for key, value in rec.items() if key != "auc_excluded_classes"}

    def test_excluded_classes_are_the_sorted_union(self):
        folds = [{**self.rec(0.5), "auc_excluded_classes": excluded}
                 for excluded in ([5, 2], [], [2, 7])]
        assert metrics.aggregate_folds(folds)["auc_excluded_classes"] == [2, 5, 7]

    def test_direct_records_average_mse_only(self):
        out = metrics.aggregate_folds([{"mse": 2.0}, {"mse": 4.0}])
        assert out == {"mse": 3.0}


class TestFoldMetrics:
    def test_each_method_gets_its_metrics(self):
        classes = [0, 1, 2, 3]
        indirect = metrics.compute_fold_metrics(indirect_set(classes, one_hot_logits(classes)))
        assert indirect == {"mse": 0.0, "accuracy": 1.0, "roc_auc": 1.0, "f1_macro": 0.5,
                            "auc_excluded_classes": [4, 5, 6, 7]}
        direct = metrics.compute_fold_metrics(direct_set([0, 1], [NAS_VALUES[0], NAS_VALUES[1]]))
        assert direct == {"mse": 0.0}


class TestReport:
    def build_results(self):
        results = {}
        for variant in ("mini-mvit", "micro-r2plus1d", "micro-cnn-rnn"):
            folds_i = [
                {"mse": 1.0 + i, "accuracy": 0.5, "roc_auc": 0.8, "f1_macro": 0.4,
                 "auc_excluded_classes": []}
                for i in range(2)
            ]
            folds_d = [{"mse": 2.0 + i} for i in range(2)]
            results[(variant, "indirect")] = {
                "folds": folds_i, "average": metrics.aggregate_folds(folds_i)
            }
            results[(variant, "direct")] = {
                "folds": folds_d, "average": metrics.aggregate_folds(folds_d)
            }
        return results

    def test_six_rows_and_sections(self, tmp_path):
        path = metrics.emit_report(self.build_results(), tmp_path / "report.json")
        report = json.loads(path.read_text())
        assert len(report["indirect"]) == 3 and len(report["direct"]) == 3

    def test_direct_rows_omit_classification_metrics(self, tmp_path):
        path = metrics.emit_report(self.build_results(), tmp_path / "report.json")
        report = json.loads(path.read_text())
        for row in report["direct"].values():
            assert "accuracy" not in row and "roc_auc" not in row and "f1_macro" not in row
            assert "mse" in row

    def test_values_round_trip_exactly(self, tmp_path):
        results = self.build_results()
        path = metrics.emit_report(
            results, tmp_path / "report.json", provenance={"corpus_digest": "abc"}
        )
        report = json.loads(path.read_text())
        assert report["indirect"]["mini-mvit"]["mse"] == results[("mini-mvit", "indirect")][
            "average"
        ]["mse"]
        assert report["provenance"]["corpus_digest"] == "abc"
        assert report["indirect"]["mini-mvit"]["per_fold"]["mse"] == [1.0, 2.0]
