"""Training protocol: Adam, stratified k-fold cross-validation, two methods.

The indirect method trains an 8-way classifier under summed softmax
cross-entropy; the direct method regresses the workload score under summed
squared error. Each fold trains a fresh model for a fixed number of epochs
and then emits predictions for its held-out videos. Fold seeds derive from
the run seed, so fold-level parallelism cannot change any result.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, asdict, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import dataset, models, tvf
from .datagen import stable_seed


class NonFiniteGradError(RuntimeError):
    pass


class RunFileError(ValueError):
    """A predictions.json this version cannot read."""


METHODS = ("indirect", "direct")


@dataclass(frozen=True)
class TrainConfig:
    method: str = "indirect"
    variant: str = "mini-mvit"
    learning_rate: float = 0.00003
    batch_size: int = 3
    epochs: int = 30
    folds: int = 5
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def validate(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.variant not in models.VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


@dataclass(frozen=True)
class FoldSplit:
    fold_index: int
    train_ids: tuple
    val_ids: tuple


def stratified_kfold(entries, k, seed):
    """Deals each class's shuffled members round-robin across folds.

    One global fold cursor runs through all classes, so per-class and
    overall fold sizes both differ by at most one. Falls back to a plain
    shuffled split (with a warning) when some class has fewer than k
    members.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > len(entries):
        raise ValueError(f"k={k} exceeds corpus size {len(entries)}")
    rng = np.random.default_rng(stable_seed(seed, "kfold"))
    by_class = {}
    for e in entries:
        by_class.setdefault(e.class_index, []).append(e.video_id)

    folds = [[] for _ in range(k)]
    if any(len(v) < k for v in by_class.values()):
        warnings.warn(
            f"some class has fewer than {k} members; using a plain shuffled {k}-fold split",
            stacklevel=2,
        )
        ids = [e.video_id for e in entries]
        order = rng.permutation(len(ids))
        for cursor, idx in enumerate(order):
            folds[cursor % k].append(ids[idx])
    else:
        cursor = 0
        for class_index in sorted(by_class):
            ids = by_class[class_index]
            order = rng.permutation(len(ids))
            for idx in order:
                folds[cursor % k].append(ids[idx])
                cursor += 1

    splits = []
    for f in range(k):
        val = tuple(folds[f])
        train = tuple(vid for g in range(k) if g != f for vid in folds[g])
        splits.append(FoldSplit(fold_index=f, train_ids=train, val_ids=val))
    return splits


def loss_indirect(logits, classes):
    """Summed cross-entropy over the batch; classes are indices in [0, 8)."""
    return ad.cross_entropy_logits(logits, classes)


def loss_direct(pred, targets):
    """Summed squared error between (B, 1) predictions and score targets."""
    t = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
    return ad.squared_error_sum(pred, ad.tensor(t))


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_step(params, grads, state: AdamState, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update; returns fresh parameter tensors."""
    state.t += 1
    t = state.t
    new_params = {}
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros(p.shape)
        elif not ad.all_finite(g):
            raise NonFiniteGradError(f"non-finite gradient for parameter {name!r}")
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros(p.shape)
            v = np.zeros(p.shape)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        new_params[name] = ad.tensor(
            p.data - lr * m_hat / (np.sqrt(v_hat) + eps), requires_grad=True
        )
    return new_params, state


# --- data plumbing ---------------------------------------------------------


def load_sampled_clips(entries):
    """Maps video_id to its 16 sampled frames, kept as raw u16 counts.

    Every clip must share the frame size of the first; a clip that differs
    raises ``models.GeometryError`` naming both clips.
    """
    out = {}
    first_path = first_hw = None
    for e in entries:
        t, h, w, _ = tvf.read_header(e.clip_path)
        if first_hw is None:
            first_path, first_hw = e.clip_path, (h, w)
        elif (h, w) != first_hw:
            raise models.GeometryError(
                f"{e.clip_path}: frames are {h}x{w} (HxW), but {first_path} has "
                f"{first_hw[0]}x{first_hw[1]}; all clips must share one frame size"
            )
        indices = dataset.sample_indices(t)
        out[e.video_id] = tvf.read_frames(e.clip_path, indices)
    return out

def _batch_tensor(clips, ids):
    stack = np.stack([clips[i] for i in ids]).astype(np.float64) / dataset.PIXEL_SCALE
    return ad.tensor(stack)


@dataclass
class FoldResult:
    fold_index: int
    loss_history: list
    predictions: list  # per held-out video: video_id, true_class, logits|score
    model: models.Model = None

    def to_dict(self):
        return {
            "fold_index": self.fold_index,
            "loss_history": self.loss_history,
            "predictions": self.predictions,
        }


def train_fold(split: FoldSplit, entry_map, model_config, config: TrainConfig) -> FoldResult:
    clips = load_sampled_clips([entry_map[i] for i in split.train_ids + split.val_ids])
    model = models.build_model(model_config)
    state = AdamState()
    shuffle_rng = np.random.default_rng(stable_seed(config.seed, split.fold_index, "shuffle"))
    n_train = len(split.train_ids)

    history = []
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n_train)
        total = 0.0
        for at in range(0, n_train, config.batch_size):
            ids = [split.train_ids[i] for i in order[at : at + config.batch_size]]
            x = _batch_tensor(clips, ids)
            out = model.forward(x)
            if config.method == "indirect":
                loss = loss_indirect(out, [entry_map[i].class_index for i in ids])
            else:
                loss = loss_direct(out, [entry_map[i].avg_nas for i in ids])
            gmap = ad.backward(loss)
            grads = {
                name: gmap[p.node_id].data if p.node_id in gmap else None
                for name, p in model.params.items()
            }
            new_params, state = adam_step(
                model.params, grads, state, config.learning_rate,
                config.beta1, config.beta2, config.eps,
            )
            model.replace_params(new_params)
            total += loss.item()
        history.append(total / n_train)

    predictions = []
    for at in range(0, len(split.val_ids), config.batch_size):
        ids = list(split.val_ids[at : at + config.batch_size])
        out = model.forward(_batch_tensor(clips, ids)).data
        for row, vid in enumerate(ids):
            record = {"video_id": vid, "true_class": entry_map[vid].class_index}
            if config.method == "indirect":
                record["logits"] = [float(v) for v in out[row]]
            else:
                record["score"] = float(out[row, 0])
            predictions.append(record)
    return FoldResult(
        fold_index=split.fold_index,
        loss_history=history,
        predictions=predictions,
        model=model,
    )


@dataclass
class ExperimentRun:
    variant: str
    method: str
    train_config: dict
    model_config: dict
    corpus_digest: str
    folds: list  # fold dicts in fold-index order

    SCHEMA = 1

    def to_json(self):
        payload = {
            "schema": self.SCHEMA,
            "variant": self.variant,
            "method": self.method,
            "train_config": self.train_config,
            "model_config": self.model_config,
            "corpus_digest": self.corpus_digest,
            "folds": self.folds,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text, source="run file"):
        """Parses ``to_json`` output; ``source`` names the file in errors."""
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RunFileError(f"{source}: not JSON ({exc})") from None
        if not isinstance(d, dict):
            raise RunFileError(f"{source}: expected a JSON object")
        if d.get("schema", cls.SCHEMA) != cls.SCHEMA:
            raise RunFileError(f"{source}: unknown schema {d['schema']!r}, expected {cls.SCHEMA}")
        names = [f.name for f in fields(cls)]
        for key in ("schema", *names):
            if key not in d:
                raise RunFileError(f"{source}: missing key {key!r}")
        if d["method"] not in METHODS:
            raise RunFileError(f"{source}: unknown method {d['method']!r}")
        _check_folds(d["folds"], d["method"], source)
        return cls(**{name: d[name] for name in names})


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_folds(folds, method, source):
    """Raises RunFileError unless ``folds`` holds what ``eval`` reads."""
    if not isinstance(folds, list):
        raise RunFileError(f"{source}: folds is not a list")
    n_classes = len(dataset.ACTIVITY_TABLE)
    for i, fold in enumerate(folds):
        if not isinstance(fold, dict):
            raise RunFileError(f"{source}: fold {i} is not an object")
        for key in ("fold_index", "loss_history", "predictions"):
            if key not in fold:
                raise RunFileError(f"{source}: fold {i}: missing key {key!r}")
        if not isinstance(fold["predictions"], list):
            raise RunFileError(f"{source}: fold {i}: predictions is not a list")
        for j, record in enumerate(fold["predictions"]):
            where = f"{source}: fold {i} record {j}"
            if not isinstance(record, dict):
                raise RunFileError(f"{where}: not an object")
            for key in ("video_id", "true_class"):
                if key not in record:
                    raise RunFileError(f"{where}: missing key {key!r}")
            true_class = record["true_class"]
            if type(true_class) is not int or not 0 <= true_class < n_classes:
                raise RunFileError(f"{where}: true_class {true_class!r} outside 0..{n_classes - 1}")
            if method == "indirect":
                logits = record.get("logits")
                if not (isinstance(logits, list) and len(logits) == n_classes
                        and all(_is_number(v) for v in logits)):
                    raise RunFileError(f"{where}: logits is not a list of {n_classes} numbers")
            elif not _is_number(record.get("score")):
                raise RunFileError(f"{where}: score is not a number")


def default_model_config(config: TrainConfig, entries) -> models.ModelConfig:
    """The default model for ``config`` at the frame size of the first clip.

    The indirect method gets the 8-way classification head, the direct
    method the single-score regression head.
    """
    _, h, w, _ = tvf.read_header(entries[0].clip_path)
    head = "classify-8" if config.method == "indirect" else "regress-1"
    return models.default_config(config.variant, head, (h, w))


def corpus_digest(manifest_path) -> str:
    return hashlib.sha256(Path(manifest_path).read_bytes()).hexdigest()


def _fold_task(args):
    split, entry_map, model_config, config = args
    result = train_fold(split, entry_map, model_config, config)
    return result.fold_index, result.to_dict(), {
        name: p.data for name, p in result.model.params.items()
    }


def run_experiment(
    manifest_path, config: TrainConfig, jobs=1, model_config=None, run_dir=None
) -> ExperimentRun:
    """Trains all folds and gathers every video's held-out prediction.

    Fold results are reduced in fold-index order whatever the worker
    scheduling, and every randomness source derives from config.seed, so
    reruns are byte-identical.
    """
    config.validate()
    entries = dataset.load_prepared_manifest(manifest_path)
    entry_map = {e.video_id: e for e in entries}
    if model_config is None:
        model_config = default_model_config(config, entries)
    splits = stratified_kfold(entries, config.folds, config.seed)

    fold_payloads = {}
    fold_params = {}
    tasks = []
    for split in splits:
        fold_model_config = replace(
            model_config, seed=stable_seed(config.seed, split.fold_index, "init")
        )
        tasks.append((split, entry_map, fold_model_config, config))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for fold_index, payload, params in pool.map(_fold_task, tasks):
                fold_payloads[fold_index] = payload
                fold_params[fold_index] = params
    else:
        for task in tasks:
            fold_index, payload, params = _fold_task(task)
            fold_payloads[fold_index] = payload
            fold_params[fold_index] = params

    run = ExperimentRun(
        variant=config.variant,
        method=config.method,
        train_config=asdict(config),
        model_config=models._config_to_dict(model_config),
        corpus_digest=corpus_digest(manifest_path),
        folds=[fold_payloads[i] for i in range(config.folds)],
    )
    if run_dir is not None:
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        for i in range(config.folds):
            fold_cfg = tasks[i][2]
            model = models.Model(
                config=fold_cfg,
                params={k: ad.tensor(v, requires_grad=True) for k, v in fold_params[i].items()},
            )
            models.save_checkpoint(model, run_dir / f"fold{i}.ckpt")
        (run_dir / "predictions.json").write_text(run.to_json())
    return run
