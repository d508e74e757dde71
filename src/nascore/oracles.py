"""Independent reference implementations used to cross-check the metrics.

These deliberately take different routes from the metrics module: F1 goes
through an explicit confusion matrix, AUC through a threshold-sweep ROC
curve with trapezoidal integration, accuracy through direct counting.
"""

from __future__ import annotations

import numpy as np

from .dataset import ACTIVITY_TABLE


def counting_accuracy(true_classes, predicted_classes) -> float:
    correct = 0
    for t, p in zip(true_classes, predicted_classes):
        if t == p:
            correct += 1
    return correct / len(true_classes)


def confusion_matrix(true_classes, predicted_classes, n_classes):
    m = np.zeros((n_classes, n_classes), dtype=int)
    for t, p in zip(true_classes, predicted_classes):
        m[t][p] += 1
    return m


def confusion_f1_macro(true_classes, predicted_classes, n_classes) -> float:
    m = confusion_matrix(true_classes, predicted_classes, n_classes)
    scores = []
    for c in range(n_classes):
        tp = m[c, c]
        fp = m[:, c].sum() - tp
        fn = m[c, :].sum() - tp
        denom = 2 * tp + fp + fn
        scores.append(2.0 * tp / denom if denom else 0.0)
    return float(np.mean(scores))


def trapezoid_auc(scores, positives) -> float:
    """Area under the ROC curve from an explicit threshold sweep.

    Predicts positive at score >= threshold for each distinct score,
    anchored at (0,0) and (1,1); ties move the curve diagonally, which the
    trapezoid rule scores exactly like 0.5-credit pair counting.
    """
    scores = np.asarray(scores, dtype=float)
    positives = np.asarray(positives, dtype=bool)
    p = positives.sum()
    n = (~positives).sum()
    if p == 0 or n == 0:
        raise ValueError("degenerate class: needs both positives and negatives")
    points = [(0.0, 0.0)]
    for thr in sorted(set(scores), reverse=True):
        predicted = scores >= thr
        tpr = (predicted & positives).sum() / p
        fpr = (predicted & ~positives).sum() / n
        points.append((fpr, tpr))
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return float(area)


def random_prediction_records(seed, n_classes=len(ACTIVITY_TABLE)):
    """One seeded random indirect-method prediction set (8 to 64 videos).

    Some draws quantize the logits so tied scores are exercised.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 65))
    true = rng.integers(0, n_classes, size=n)
    logits = rng.standard_normal((n, n_classes)) * rng.uniform(0.5, 3.0)
    if rng.random() < 0.4:
        logits = np.round(logits, 1)
    return [
        {"video_id": f"r{i}", "true_class": int(true[i]), "logits": [float(v) for v in logits[i]]}
        for i in range(n)
    ]
