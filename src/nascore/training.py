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
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, asdict, replace
from functools import partial
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
# the one head each method's loss can train
METHOD_HEADS = {"indirect": models.CLASSIFY_HEAD, "direct": "regress-1"}


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
        models.check_field_types(self)
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
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.eps <= 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
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
    overall fold sizes both differ by at most one.
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
    """Adam's step count and moments for one set of parameters.

    ``m`` and ``v`` are flat vectors over the parameters in ``layout``
    order, the ``(name, shape)`` pairs that the first ``adam_step`` records
    and every later one checks.
    """

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0
    layout: tuple = ()


def _layout_mismatch(expected, got):
    """Names the first parameter where layout ``got`` parts from ``expected``."""
    for (want, want_shape), (name, shape) in zip(expected, got):
        if name != want:
            return f"parameter {name!r} where the Adam state has {want!r}"
        if shape != want_shape:
            return f"parameter {name!r} has shape {shape}, the Adam state {want_shape}"
    if len(got) < len(expected):
        return f"parameter {expected[len(got)][0]!r} of the Adam state is missing"
    return f"parameter {got[len(expected)][0]!r} is not in the Adam state"


def _first_non_finite(layout, parts):
    return next(name for (name, _), part in zip(layout, parts) if not ad.all_finite(part))


def adam_step(params, grads, state: AdamState, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update of all parameters as one flat vector.

    The gradients are concatenated in parameter order, a missing one as
    zeros, and checked once; a non-finite one raises NonFiniteGradError
    naming its parameter. The moments in ``state`` are updated in place.
    Every expression is elementwise and keeps the operand order of a
    per-parameter update, so each value is bit-identical to one. Returns
    fresh parameter tensors, contiguous views of one new vector, which is
    checked once and raises ``autodiff.NonFiniteError`` naming the first
    parameter it cannot hold. The first call records the parameters'
    names and shapes in ``state``; a later call with other parameters, or
    a gradient of another shape than its parameter, raises ValueError
    naming it.
    """
    layout = tuple((name, p.shape) for name, p in params.items())
    if state.m is None:
        size = sum(p.data.size for p in params.values())
        state.m, state.v, state.layout = np.zeros(size), np.zeros(size), layout
    elif layout != state.layout:
        raise ValueError(f"adam_step: {_layout_mismatch(state.layout, layout)}")
    parts = []
    for name, shape in layout:
        g = grads.get(name)
        if g is None:
            g = np.zeros(shape)
        elif g.shape != shape:
            raise ValueError(
                f"adam_step: gradient for parameter {name!r} has shape {g.shape}, "
                f"the parameter {shape}"
            )
        parts.append(g.ravel())
    g = np.concatenate(parts)
    if not ad.all_finite(g):
        name = _first_non_finite(layout, parts)
        raise NonFiniteGradError(f"non-finite gradient for parameter {name!r}")

    state.t += 1
    t = state.t
    m, v = state.m, state.v
    # m = beta1*m + (1-beta1)*g, v = beta2*v + (1-beta2)*(g*g) and
    # p - (lr*m_hat)/(sqrt(v_hat)+eps), each operation in that order, in
    # place and in two buffers: g turns into lr*m_hat, and ``flat`` holds
    # g*g, then sqrt(v_hat)+eps, then the new parameter vector.
    # Overflow leaves a non-finite value, which the check below raises on.
    with np.errstate(over="ignore", invalid="ignore"):
        flat = g * g
        flat *= 1.0 - beta2
        v *= beta2
        v += flat
        g *= 1.0 - beta1
        m *= beta1
        m += g
        np.divide(m, 1.0 - beta1**t, out=g)
        g *= lr
        np.divide(v, 1.0 - beta2**t, out=flat)
        np.sqrt(flat, out=flat)
        flat += eps
        g /= flat
        np.concatenate([p.data.ravel() for p in params.values()], out=flat)
        flat -= g

    views, at = [], 0
    for p in params.values():
        views.append(flat[at : at + p.data.size].reshape(p.shape))
        at += p.data.size
    if not ad.all_finite(flat):
        name = _first_non_finite(layout, views)
        raise ad.NonFiniteError(f"non-finite values in updated parameter {name!r}")
    new_params = {
        name: ad.Tensor(view, requires_grad=True, _checked=True)
        for (name, _), view in zip(layout, views)
    }
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


def train_fold(split: FoldSplit, entry_map, clips, model_config, config: TrainConfig):
    """Trains one fold's fresh model; returns ``(fold dict, trained Model)``.

    ``clips`` maps each video id of the split to its sampled frames, as
    ``load_sampled_clips`` returns them. The fold dict holds the fold index,
    the per-epoch mean loss and one prediction per held-out video: its id,
    true class, and logits or score.
    """
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
                loss = loss_direct(out, [dataset.avg_nas(entry_map[i].class_index) for i in ids])
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
    fold = {"fold_index": split.fold_index, "loss_history": history, "predictions": predictions}
    return fold, model


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
        payload = {"schema": self.SCHEMA, **asdict(self)}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text, source="run file"):
        """Parses ``to_json`` output; ``source`` names the file in errors.

        This is the one check of what ``eval`` reads: a file it passes can
        be scored and reported without error. It raises RunFileError
        naming the file, and the fold and record where there is one.
        """
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RunFileError(f"{source}: not JSON ({exc})") from None
        except RecursionError:
            raise RunFileError(f"{source}: not JSON (nested too deeply)") from None
        if not isinstance(d, dict):
            raise RunFileError(f"{source}: expected a JSON object")
        schema = d.get("schema", cls.SCHEMA)
        if type(schema) is not int or schema != cls.SCHEMA:
            raise RunFileError(f"{source}: unknown schema {d['schema']!r}, expected {cls.SCHEMA}")
        names = [f.name for f in fields(cls)]
        for key in ("schema", *names):
            if key not in d:
                raise RunFileError(f"{source}: missing key {key!r}")
        if d["method"] not in METHODS:
            raise RunFileError(f"{source}: unknown method {d['method']!r}")
        for key in ("variant", "corpus_digest"):
            if not isinstance(d[key], str):
                raise RunFileError(f"{source}: {key} is not a string")
        for key in ("train_config", "model_config"):
            if not isinstance(d[key], dict):
                raise RunFileError(f"{source}: {key} is not an object")
            try:  # the report echoes both, and is strict JSON
                json.dumps(d[key], allow_nan=False)
            except ValueError:
                raise RunFileError(f"{source}: {key} holds a number that is not finite") from None
        if "seed" not in d["train_config"]:
            raise RunFileError(f"{source}: train_config: missing key 'seed'")
        if type(d["train_config"]["seed"]) is not int:
            raise RunFileError(f"{source}: train_config: seed is not an int")
        _check_folds(d["folds"], d["method"], source)
        return cls(**{name: d[name] for name in names})


# the largest magnitude of a logit or score that eval takes: float64 holds
# every int up to it exactly, and differences and squares of such values
# stay far from overflow
MAX_MAGNITUDE = 2**53


def _is_number(v):
    """An int or float of magnitude at most MAX_MAGNITUDE. Python's json
    reads NaN, Infinity and 1e999 as floats, and an int of any size; none
    of them passes, as an int compares exactly with a float."""
    return type(v) in (int, float) and abs(v) <= MAX_MAGNITUDE


def _check_folds(folds, method, source):
    """Raises RunFileError unless ``folds`` holds what ``eval`` reads: one
    or more folds, each of one or more records, and an indirect fold of
    two true classes or more, so its ROC AUC is defined."""
    if not isinstance(folds, list):
        raise RunFileError(f"{source}: folds is not a list")
    if not folds:
        raise RunFileError(f"{source}: no folds")
    n_classes = len(dataset.ACTIVITY_TABLE)
    for i, fold in enumerate(folds):
        if not isinstance(fold, dict):
            raise RunFileError(f"{source}: fold {i} is not an object")
        for key in ("fold_index", "loss_history", "predictions"):
            if key not in fold:
                raise RunFileError(f"{source}: fold {i}: missing key {key!r}")
        if not isinstance(fold["predictions"], list):
            raise RunFileError(f"{source}: fold {i}: predictions is not a list")
        if not fold["predictions"]:
            raise RunFileError(f"{source}: fold {i}: no predictions")
        for j, record in enumerate(fold["predictions"]):
            where = f"{source}: fold {i} record {j}"
            if not isinstance(record, dict):
                raise RunFileError(f"{where}: not an object")
            for key in ("video_id", "true_class"):
                if key not in record:
                    raise RunFileError(f"{where}: missing key {key!r}")
            if not isinstance(record["video_id"], str):
                raise RunFileError(f"{where}: video_id is not a string")
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
        classes = {record["true_class"] for record in fold["predictions"]}
        if method == "indirect" and len(classes) < 2:
            raise RunFileError(f"{source}: fold {i}: every true_class is {classes.pop()}; "
                               "ROC AUC needs two classes")


def corpus_digest(manifest_path) -> str:
    return hashlib.sha256(Path(manifest_path).read_bytes()).hexdigest()


def write_config_echo(path, settings):
    lines = ["# effective run configuration"]
    for key, value in settings.items():
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    Path(path).write_text("\n".join(lines) + "\n")


_fold_args = None  # a fold worker's (entry_map, clips, train config)


def _init_fold_worker(*args):
    global _fold_args
    _fold_args = args


def _train_fold_in_worker(split, model_config):
    entry_map, clips, config = _fold_args
    return train_fold(split, entry_map, clips, model_config, config)


def run_experiment(
    manifest_path, config: TrainConfig, jobs=1, model_overrides=None, run_dir=None
) -> ExperimentRun:
    """Trains all folds of one (model, method) run and writes its run directory.

    The model is the variant's default config, with the method's head
    (``METHOD_HEADS``), the first clip's frame size and the variant's
    fields in ``model_overrides``. It and the fold split are checked
    before any clip is read. Every clip is then read once, and the frame
    sizes checked, before any fold trains. Each fold's model draws its
    init seed from config.seed, so the run records the model's settings
    without a seed. The folds run in this process when ``jobs`` is 1, else
    in ``min(jobs, folds)`` worker processes, which each get the clips
    once, from the pool's initializer.
    Results come back in fold-index order whatever the worker scheduling,
    and every randomness source derives from config.seed, so reruns are
    byte-identical. ``run_dir`` is checked before any clip is read, but
    created and written only once every fold has trained, and its files
    take their names only once all are written, so a run that fails
    leaves nothing behind.
    """
    config.validate()
    if run_dir is not None:
        _check_run_dir(Path(run_dir))
    entries = dataset.load_prepared_manifest(manifest_path)
    _, h, w, _ = tvf.read_header(entries[0].clip_path)
    head = METHOD_HEADS[config.method]
    model_config = models.default_config(config.variant, head, (h, w), **(model_overrides or {}))
    model_config.validate()
    splits = stratified_kfold(entries, config.folds, config.seed)
    clips = load_sampled_clips(entries)
    entry_map = {e.video_id: e for e in entries}
    fold_configs = [
        replace(model_config, seed=stable_seed(config.seed, split.fold_index, "init"))
        for split in splits
    ]
    if jobs == 1:
        results = [train_fold(s, entry_map, clips, c, config) for s, c in zip(splits, fold_configs)]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(splits)), initializer=_init_fold_worker,
                                 initargs=(entry_map, clips, config)) as pool:
            results = list(pool.map(_train_fold_in_worker, splits, fold_configs))

    settings = {k: v for k, v in asdict(model_config).items() if k != "seed"}
    run = ExperimentRun(
        variant=config.variant,
        method=config.method,
        train_config=asdict(config),
        model_config=settings,
        corpus_digest=corpus_digest(manifest_path),
        folds=[fold for fold, _ in results],
    )
    if run_dir is not None:
        writers = {
            f"fold{fold['fold_index']}.ckpt": partial(models.save_checkpoint, model)
            for fold, model in results
        }
        writers["predictions.json"] = lambda path: path.write_text(run.to_json())
        writers["config.txt"] = lambda path: write_config_echo(path, run.train_config | settings)
        writers["digest.txt"] = lambda path: path.write_text(run.corpus_digest + "\n")
        _write_run_dir(Path(run_dir), writers)
    return run


def _check_run_dir(run_dir):
    """Raises NotADirectoryError unless ``run_dir`` can be made a directory:
    it is one if it exists, and its nearest existing ancestor is one."""
    existing = next(p for p in (run_dir, *run_dir.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"{run_dir}: {existing} is not a directory")


def _write_run_dir(run_dir, writers):
    """Calls each ``writers[name](path)`` on a temporary name in ``run_dir``
    and moves the files to their names only once all are written, so a
    failed write leaves no run file, and no ``run_dir`` it created."""
    created = not run_dir.exists()
    run_dir.mkdir(parents=True, exist_ok=True)
    staged = []
    try:
        for name, write in writers.items():
            staged.append((run_dir / f".{name}.tmp", run_dir / name))
            write(staged[-1][0])
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        if created:
            run_dir.rmdir()
        raise
    for tmp, path in staged:
        os.replace(tmp, path)
