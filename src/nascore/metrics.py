"""Evaluation: accuracy, macro F1, one-vs-rest ROC AUC, score MSE.

The indirect method is scored on all four metrics (predicted class =
argmax of the logits, class scores = softmax probabilities). The direct
method outputs a bare score, so only MSE applies. AUC uses pair counting
(Mann-Whitney, ties credited 0.5); classes with no positives or no
negatives in a fold are excluded from the macro mean and flagged.

Predictions come from run files that ``training.ExperimentRun.from_json``
has checked: every fold holds a prediction, an indirect fold two true
classes, and every logit and score is a number of bounded magnitude.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import ACTIVITY_TABLE, NAS_VALUES

N_CLASSES = len(ACTIVITY_TABLE)


@dataclass
class PredictionSet:
    method: str  # "indirect" | "direct"
    true_classes: np.ndarray
    logits: np.ndarray = None  # (N, 8) for indirect
    scores: np.ndarray = None  # (N,) for direct

    @classmethod
    def from_records(cls, method, records):
        true = np.array([r["true_class"] for r in records], dtype=int)
        if method == "indirect":
            logits = np.array([r["logits"] for r in records], dtype=np.float64)
            return cls(method, true, logits=logits)
        return cls(method, true, scores=np.array([r["score"] for r in records], dtype=np.float64))

    def _require(self, method):
        if self.method != method:
            raise ValueError(f"metric needs the {method} method, got {self.method}")


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


def auc_excluded_classes(preds: PredictionSet) -> list:
    """The classes with no positives or no negatives, which AUC leaves out."""
    present = set(preds.true_classes.tolist())
    # a class present alone has no negatives
    return [c for c in range(N_CLASSES) if c not in present or len(present) == 1]


def roc_auc_macro(preds: PredictionSet) -> float:
    """Mean one-vs-rest AUC over the classes ``auc_excluded_classes`` keeps."""
    preds._require("indirect")
    probs = softmax_probabilities(preds.logits)
    excluded = auc_excluded_classes(preds)
    aucs = [
        class_auc(probs[:, c], preds.true_classes == c)
        for c in range(N_CLASSES)
        if c not in excluded
    ]
    return float(np.mean(aucs))


def nas_mse(preds: PredictionSet) -> float:
    """Mean squared error between predicted and true workload scores.

    Indirect predictions map through the per-class average score table;
    direct predictions are compared as-is.
    """
    table = np.array(NAS_VALUES)
    true_scores = table[preds.true_classes]
    if preds.method == "indirect":
        predicted_scores = table[argmax_classes(preds.logits)]
    else:
        predicted_scores = preds.scores
    return float(np.mean((predicted_scores - true_scores) ** 2))


AUC_EXCLUDED = "auc_excluded_classes"

# each method's metrics by report name
METRICS = {
    "indirect": {
        "mse": nas_mse,
        "accuracy": accuracy,
        "roc_auc": roc_auc_macro,
        "f1_macro": f1_macro,
        AUC_EXCLUDED: auc_excluded_classes,
    },
    "direct": {"mse": nas_mse},
}


def compute_fold_metrics(preds: PredictionSet) -> dict:
    """One fold's ``METRICS`` of its method, by report name."""
    return {name: metric(preds) for name, metric in METRICS[preds.method].items()}


def aggregate_folds(folds) -> dict:
    """Unweighted arithmetic mean of each metric across folds; the classes
    any fold left out of its AUC, sorted, when there are some."""
    average = {
        name: float(np.mean([f[name] for f in folds]))
        for name in folds[0]
        if name != AUC_EXCLUDED
    }
    excluded = sorted({c for f in folds for c in f.get(AUC_EXCLUDED, ())})
    if excluded:
        average[AUC_EXCLUDED] = excluded
    return average


def emit_report(results, path, provenance=None) -> Path:
    """Writes the evaluation report as strict JSON.

    ``results`` maps (model variant, method) to a dict with keys "folds"
    (per-fold metric dicts) and "average" (the aggregate). Each row is the
    average with a "per_fold" list of every averaged metric.
    """
    report = {**{method: {} for method in METRICS}, "provenance": provenance or {}}
    for (variant, method), bundle in sorted(results.items()):
        average, folds = bundle["average"], bundle["folds"]
        per_fold = {name: [f[name] for f in folds] for name in average if name != AUC_EXCLUDED}
        report[method][variant] = {**average, "per_fold": per_fold}
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path
