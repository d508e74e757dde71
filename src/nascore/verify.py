"""Built-in verification suites: gradient checks, metric oracles, prep counts.

Each suite returns a list of Check results; the CLI prints one line per
check and exits nonzero if any failed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import datagen, dataset, metrics, models, oracles, training
from .autodiff import GRADCHECK_SUITE
from .datagen import stable_seed


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


OP_TOLERANCE = 1e-4
MODEL_TOLERANCE = 1e-3
N_SEEDS = 5


def gradcheck_suite(seeds=range(N_SEEDS)):
    checks = []
    for kind, shapes, attrs in GRADCHECK_SUITE:
        worst = max(ad.grad_check(kind, shapes, seed=seed, attrs=attrs) for seed in seeds)
        checks.append(
            Check(
                name=f"gradcheck {kind} {shapes}",
                ok=worst < OP_TOLERANCE,
                detail=f"max rel err {worst:.2e} (< {OP_TOLERANCE})",
            )
        )
    for variant in models.VARIANTS:
        worst = max(model_grad_check(variant, seed) for seed in seeds)
        checks.append(
            Check(
                name=f"gradcheck model {variant}",
                ok=worst < MODEL_TOLERANCE,
                detail=f"max rel err {worst:.2e} over 20 params x {len(list(seeds))} seeds",
            )
        )
    return checks


_FD_CONFIGS = {
    # 12x16 gives a (8, 3, 4) stage-0 grid, so its (1, 8, 8) K/V pool
    # averages truncated ceil-mode windows; at 8x8 it would see (8, 2, 2)
    "mini-mvit": models.MvitConfig(models.CLASSIFY_HEAD, (12, 16), embed_dims=(8, 16, 32)),
    "micro-r2plus1d": models.R2plus1dConfig(models.CLASSIFY_HEAD, (8, 8), embed_dims=(4, 8, 8)),
    "micro-cnn-rnn": models.CnnRnnConfig(
        models.CLASSIFY_HEAD, (8, 8), embed_dims=(4, 8), hidden_size=8
    ),
}


def fd_floor(loss, step):
    """The smallest derivative that a central difference of a loss valued
    ``loss`` at step ``step`` resolves to MODEL_TOLERANCE:
    8 * eps * |loss| / (step * MODEL_TOLERANCE).

    Each loss value is rounded, so the difference quotient carries noise of
    about eps * |loss| / step; the factor 8 is headroom for the rounding of
    the forward pass (the gradcheck models stay within 1.1 of that unit)."""
    return 8 * np.finfo(float).eps * abs(loss) / (step * MODEL_TOLERANCE)


def model_grad_check(variant, seed, n_samples=20, step=1e-5):
    """Max relative error of d(loss)/d(param) against central differences
    for a random sample of parameters on a 2-clip batch.

    A central difference is only a valid derivative estimate where the
    loss is smooth across [theta-h, theta+h]; a ReLU kink inside that
    interval makes the secant meaningless regardless of gradient
    correctness. Each sampled parameter is therefore probed at two step
    sizes: if the two estimates disagree, the point is non-smooth and
    another parameter is drawn instead. A wrong gradient still fails,
    since there both estimates agree with each other and not the analytic
    value.

    The relative error's denominator is floored at ``fd_floor(L, step)``
    for the batch loss L, about 7e-7 at L = 4 and step 1e-5, since the
    difference quotient cannot resolve a smaller derivative: a parameter
    whose true derivative is 0 (a K bias, as softmax ignores a per-query
    constant) reads its rounding noise against that floor.
    """
    config = replace(_FD_CONFIGS[variant], seed=stable_seed(seed, variant, "init"))
    model = models.build_model(config)
    rng = np.random.default_rng(stable_seed(seed, variant, "fd"))
    batch = rng.uniform(0.0, 1.0, size=(2, 16, *config.frame_hw))
    classes = [int(c) for c in rng.integers(0, metrics.N_CLASSES, size=2)]

    out = model.forward(ad.tensor(batch))
    loss = training.loss_indirect(out, classes)
    floor = fd_floor(loss.item(), step)
    gmap = ad.backward(loss)
    analytic = {
        name: (gmap[p.node_id].data if p.node_id in gmap else np.zeros(p.shape))
        for name, p in model.params.items()
    }

    base = {name: p.data for name, p in model.params.items()}

    def objective(arrays):
        probe = models.Model(
            config=config, params={n: ad.tensor(a) for n, a in arrays.items()}
        )
        return training.loss_indirect(probe.forward(ad.tensor(batch)), classes).item()

    flat_index = [
        (name, j) for name, p in model.params.items() for j in range(p.data.size)
    ]
    order = rng.permutation(len(flat_index))
    worst = 0.0
    checked = 0
    for pick in order:
        if checked == n_samples:
            break
        name, j = flat_index[pick]
        fd = ad.central_difference(objective, base, name, j, step)
        fd_small = ad.central_difference(objective, base, name, j, step / 4.0)
        spread = abs(fd - fd_small)
        if spread > 1e-2 * max(abs(fd), abs(fd_small)) and spread > 1e-8:
            continue  # kink inside the secant interval; estimator invalid here
        a = float(analytic[name].reshape(-1)[j])
        worst = max(worst, ad.rel_err(a, fd, floor))
        checked += 1
    if checked < n_samples:
        raise RuntimeError(
            f"{variant}: only {checked}/{n_samples} smooth parameters found for the check"
        )
    return worst


def metrics_oracle_suite(n_sets=200):
    f1_worst = 0.0
    auc_worst = 0.0
    acc_exact = True
    degenerate = 0
    for seed in range(n_sets):
        records = oracles.random_prediction_records(seed)
        preds = metrics.PredictionSet.from_records("indirect", records)
        predicted = metrics.argmax_classes(preds.logits)
        f1_worst = max(
            f1_worst,
            abs(
                metrics.f1_macro(preds)
                - oracles.confusion_f1_macro(preds.true_classes, predicted, metrics.N_CLASSES)
            ),
        )
        if metrics.accuracy(preds) != oracles.counting_accuracy(preds.true_classes, predicted):
            acc_exact = False
        probs = metrics.softmax_probabilities(preds.logits)
        for c in range(metrics.N_CLASSES):
            positives = preds.true_classes == c
            if positives.all() or not positives.any():
                degenerate += 1
                continue
            auc_worst = max(
                auc_worst,
                abs(
                    metrics.class_auc(probs[:, c], positives)
                    - oracles.trapezoid_auc(probs[:, c], positives)
                ),
            )
    return [
        Check(
            name=f"metrics-oracle macro F1 vs confusion matrix ({n_sets} sets)",
            ok=f1_worst < 1e-12,
            detail=f"max abs diff {f1_worst:.2e} (< 1e-12)",
        ),
        Check(
            name=f"metrics-oracle pair-count AUC vs threshold sweep ({n_sets} sets)",
            ok=auc_worst < 1e-9,
            detail=f"max abs diff {auc_worst:.2e} (< 1e-9), {degenerate} degenerate classes skipped",
        ),
        Check(
            name=f"metrics-oracle accuracy vs direct counting ({n_sets} sets)",
            ok=acc_exact,
            detail="exact equality",
        ),
    ]


def prep_counts_suite(seed=0):
    plan = datagen.plan_corpus(seed)
    records = [
        dataset.LabelRecord(video_id=e.video_id, flags=e.labels, clip_path=None)
        for e in plan.entries
    ]
    observed = tuple(map(sum, zip(*(e.labels for e in plan.entries))))[: datagen.N_OBSERVED]
    checks = [
        Check(
            name="prep-counts corpus size",
            ok=len(records) == 882,
            detail=f"{len(records)} videos (expect 882)",
        ),
        Check(
            name="prep-counts occurrence totals",
            ok=observed == datagen.BEFORE_COUNTS,
            detail=f"{observed}",
        ),
    ]
    for rule in ("before", "after"):
        manifest = dataset.reduce_labels(records, rule=rule)
        checks.append(
            Check(
                name=f"prep-counts kept videos (rule={rule})",
                ok=manifest.total_after == 458,
                detail=f"{manifest.total_after} kept (expect 458)",
            )
        )
        checks.append(
            Check(
                name=f"prep-counts per-class counts (rule={rule})",
                ok=manifest.class_counts == datagen.AFTER_COUNTS,
                detail=f"{manifest.class_counts}",
            )
        )
    return checks


SUITES = {
    "gradcheck": gradcheck_suite,
    "metrics-oracle": metrics_oracle_suite,
    "prep-counts": prep_counts_suite,
}


def run_suites(names):
    checks = []
    for name in names:
        checks.extend(SUITES[name]())
    return checks
