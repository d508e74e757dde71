"""Evaluation: accuracy, macro F1, one-vs-rest ROC AUC, score MSE.

The indirect method is scored on all four metrics (predicted class =
argmax of the logits, class scores = softmax probabilities). The direct
method outputs a bare score, so only MSE applies. AUC uses pair counting
(Mann-Whitney, ties credited 0.5); classes with no positives or no
negatives in a fold are excluded from the macro mean and flagged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import ACTIVITY_TABLE, NAS_VALUES


class EmptyPredictionsError(ValueError):
    pass


N_CLASSES = len(ACTIVITY_TABLE)


@dataclass
class PredictionSet:
    method: str  # "indirect" | "direct"
    video_ids: list
    true_classes: np.ndarray
    logits: np.ndarray = None  # (N, 8) for indirect
    scores: np.ndarray = None  # (N,) for direct

    @classmethod
    def from_records(cls, method, records):
        if not records:
            raise EmptyPredictionsError("no predictions")
        video_ids = [r["video_id"] for r in records]
        true = np.array([r["true_class"] for r in records], dtype=int)
        if method == "indirect":
            return cls(method, video_ids, true, logits=np.array([r["logits"] for r in records]))
        if method == "direct":
            return cls(method, video_ids, true, scores=np.array([r["score"] for r in records]))
        raise ValueError(f"unknown method {method!r}")

    def _require(self, method):
        if self.method != method:
            raise ValueError(f"metric needs the {method} method, got {self.method}")
        if len(self.video_ids) == 0:
            raise EmptyPredictionsError("empty prediction set")


def argmax_classes(logits):
    """Predicted class per row; exact ties break to the lowest index."""
    return np.argmax(logits, axis=1)


def softmax_probabilities(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def accuracy(preds: PredictionSet) -> float:
    preds._require("indirect")
    predicted = argmax_classes(preds.logits)
    return float(np.mean(predicted == preds.true_classes))


def f1_macro(preds: PredictionSet) -> float:
    preds._require("indirect")
    predicted = argmax_classes(preds.logits)
    total = 0.0
    for c in range(N_CLASSES):
        tp = int(np.sum((predicted == c) & (preds.true_classes == c)))
        fp = int(np.sum((predicted == c) & (preds.true_classes != c)))
        fn = int(np.sum((predicted != c) & (preds.true_classes == c)))
        denom = 2 * tp + fp + fn
        total += (2.0 * tp / denom) if denom else 0.0
    return total / N_CLASSES


def class_auc(scores, positives) -> float:
    """Pair-counting AUC: 1 per correctly ordered (pos, neg) pair, 0.5 per tie."""
    pos = np.asarray(scores)[positives]
    neg = np.asarray(scores)[~positives]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (len(pos) * len(neg)))


def roc_auc_macro(preds: PredictionSet):
    """Mean one-vs-rest AUC; returns (auc, excluded class list)."""
    preds._require("indirect")
    probs = softmax_probabilities(preds.logits)
    aucs = []
    excluded = []
    for c in range(N_CLASSES):
        positives = preds.true_classes == c
        if positives.all() or not positives.any():
            excluded.append(c)
            continue
        aucs.append(class_auc(probs[:, c], positives))
    if not aucs:
        raise EmptyPredictionsError("every class is degenerate; AUC undefined")
    return float(np.mean(aucs)), excluded


def nas_mse(preds: PredictionSet) -> float:
    """Mean squared error between predicted and true workload scores.

    Indirect predictions map through the per-class average score table;
    direct predictions are compared as-is.
    """
    if len(preds.video_ids) == 0:
        raise EmptyPredictionsError("empty prediction set")
    table = np.array(NAS_VALUES)
    true_scores = table[preds.true_classes]
    if preds.method == "indirect":
        predicted_scores = table[argmax_classes(preds.logits)]
    else:
        predicted_scores = preds.scores
    return float(np.mean((predicted_scores - true_scores) ** 2))


@dataclass
class MetricsRecord:
    mse: float
    accuracy: float = None
    roc_auc: float = None
    f1_macro: float = None
    auc_excluded_classes: tuple = ()

    def validate(self):
        for name in ("accuracy", "roc_auc", "f1_macro"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        if self.mse < 0:
            raise ValueError(f"mse={self.mse} negative")


def compute_fold_metrics(preds: PredictionSet) -> MetricsRecord:
    if preds.method == "direct":
        record = MetricsRecord(mse=nas_mse(preds))
    else:
        auc, excluded = roc_auc_macro(preds)
        record = MetricsRecord(
            mse=nas_mse(preds),
            accuracy=accuracy(preds),
            roc_auc=auc,
            f1_macro=f1_macro(preds),
            auc_excluded_classes=tuple(excluded),
        )
    record.validate()
    return record


def aggregate_folds(records) -> MetricsRecord:
    """Unweighted arithmetic mean of each metric across folds."""
    records = list(records)
    if not records:
        raise EmptyPredictionsError("no fold records to aggregate")

    def mean_of(name):
        values = [getattr(r, name) for r in records]
        if any(v is None for v in values):
            return None
        return float(np.mean(values))

    excluded = sorted({c for r in records for c in r.auc_excluded_classes})
    out = MetricsRecord(
        mse=mean_of("mse"),
        accuracy=mean_of("accuracy"),
        roc_auc=mean_of("roc_auc"),
        f1_macro=mean_of("f1_macro"),
        auc_excluded_classes=tuple(excluded),
    )
    out.validate()
    return out


def _record_payload(average: MetricsRecord, folds):
    payload = {"mse": average.mse, "per_fold": {"mse": [r.mse for r in folds]}}
    if average.accuracy is not None:
        payload["accuracy"] = average.accuracy
        payload["roc_auc"] = average.roc_auc
        payload["f1_macro"] = average.f1_macro
        payload["per_fold"]["accuracy"] = [r.accuracy for r in folds]
        payload["per_fold"]["roc_auc"] = [r.roc_auc for r in folds]
        payload["per_fold"]["f1_macro"] = [r.f1_macro for r in folds]
        if average.auc_excluded_classes:
            payload["auc_excluded_classes"] = list(average.auc_excluded_classes)
    return payload


def emit_report(results, path, provenance=None) -> Path:
    """Writes the evaluation report.

    ``results`` maps (model variant, method) to a dict with keys "folds"
    (per-fold MetricsRecords) and "average" (the aggregate). Direct-method
    entries carry only MSE fields.
    """
    report = {"indirect": {}, "direct": {}, "provenance": provenance or {}}
    for (variant, method), bundle in sorted(results.items()):
        report[method][variant] = _record_payload(bundle["average"], bundle["folds"])
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
