"""Spans and counters recorded at the package's module boundaries.

A traced repetition swaps module attributes of ``nascore`` (functions,
``Model.forward`` and every ``autodiff._OPS`` entry) for timing wrappers
and puts the originals back afterwards. Nothing under ``src/`` is edited,
and an untraced repetition runs the package exactly as a user would.

Spans live in memory as ``(name, start, end, parent, rep)`` tuples; the
layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import contextlib
import gzip
import statistics
import time
from collections import defaultdict

import numpy as np

from nascore import autodiff, cli, datagen, dataset, metrics, models, training, tvf

LAYERS = ("autodiff", "models", "training", "datagen", "tvf", "dataset", "metrics", "cli")

# The op kinds registered when the benchmark was defined. The list is fixed
# so metric names stay stable when ops are added or removed; calls to a kind
# outside it are summed under "other".
OP_KINDS = (
    "add", "avg_pool", "concat", "conv1d", "conv2d", "cross_entropy_logits",
    "embedding_add", "global_average_pool", "layer_norm", "matmul", "mean",
    "multiply", "permute", "relu", "reshape", "scalar_multiply", "sigmoid",
    "slice", "softmax", "squared_error_sum", "subtract", "sum", "tanh",
)
# No workload reaches these kinds, so their times could only read 0. Their
# calls are still counted, so a change that starts using one shows.
UNTIMED_KINDS = ("concat", "mean", "sum", "other")
FLOP_KINDS = ("matmul", "conv2d", "conv1d")
MODEL_SHORT = {variant: short for short, variant in cli.MODEL_NAMES.items()}

# (owner, attribute, span name). Every call site in the package reaches
# these through a module attribute or a module global, so swapping the
# attribute reroutes it. save_checkpoint lives in models but is only called
# by the training loop, which is the layer that pays for it.
FUNCTION_SPANS = (
    (autodiff, "apply", "autodiff.apply"),
    (autodiff, "backward", "autodiff.backward"),
    (models, "build_model", "models.build"),
    (models, "patchify", "models.patchify"),
    (models, "pooling_attention", "models.attention"),
    (models, "save_checkpoint", "training.checkpoint"),
    (training, "run_experiment", "training.run_experiment"),
    (training, "train_fold", "training.train_fold"),
    (training, "adam_step", "training.adam"),
    (training, "_batch_tensor", "training.batch"),
    (training, "load_sampled_clips", "training.load_clips"),
    (datagen, "write_corpus", "datagen.write_corpus"),
    (datagen, "render_clip", "datagen.render"),
    (tvf, "write_clip", "tvf.write"),
    (tvf, "read_header", "tvf.read_header"),
    (tvf, "read_frames", "tvf.read_frames"),
    (dataset, "load_labels", "dataset.load_labels"),
    (dataset, "reduce_labels", "dataset.reduce"),
    (dataset, "load_prepared_manifest", "dataset.load_manifest"),
    (metrics, "compute_fold_metrics", "metrics.fold_metrics"),
    (metrics, "aggregate_folds", "metrics.aggregate"),
    (metrics, "emit_report", "metrics.report"),
    (cli, "main", "cli.main"),
)


def _count_apply(tracer, result, args, kwargs):
    tracer.add("autodiff.out_bytes", result.data.nbytes)


def _count_write(tracer, result, args, kwargs):
    clip = args[1] if len(args) > 1 else kwargs["clip"]
    tracer.add("tvf.bytes_written", clip.frames.nbytes)


def _count_read(tracer, result, args, kwargs):
    tracer.add("tvf.bytes_read", result.nbytes)


AFTER = {
    "autodiff.apply": _count_apply,
    "tvf.write": _count_write,
    "tvf.read_frames": _count_read,
}


def forward_flops(kind, xs, out):
    """Multiply-adds x2 of one forward call, from operand shapes (computed)."""
    if kind == "matmul":
        a, b = xs
        batch = int(np.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]), dtype=np.int64))
        return 2 * batch * a.shape[-2] * a.shape[-1] * b.shape[-1]
    # conv2d (B,C,H,W)*(O,C,kh,kw) and conv1d (B,C,T)*(O,C,k): every output
    # element is a dot product over C times the kernel window
    w = xs[1]
    return 2 * out.size * int(np.prod(w.shape[1:]))


class Tracer:
    """In-memory spans for one run, grouped by repetition id."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self._stack = []
        self.rep = None
        self.counters = defaultdict(lambda: defaultdict(float))

    def open(self, name):
        # the slot is filled with a tuple of plain values on close: the
        # garbage collector stops tracking those, so hundreds of thousands
        # of spans do not slow every collection the program triggers
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return name, idx, time.perf_counter()

    def close(self, span):
        end = time.perf_counter()
        name, idx, start = span
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, self.rep)

    def add(self, counter, value):
        self.counters[self.rep][counter] += value

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(self, result, args, kwargs)
            return result

        return traced

    def write(self, path):
        """Writes every span as one tab-separated line (times in seconds)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tworkload\trep\n")
            for i, (name, start, end, parent, rep) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{self.workload}\t{rep}\n")

    def rep_metrics(self, rep):
        """Per-layer metrics of one repetition, in the order of per_layer_names()."""
        spans = self.spans
        ids = [i for i, s in enumerate(spans) if s[4] == rep]
        child = defaultdict(float)
        for i in ids:
            parent = spans[i][3]
            if parent >= 0:
                child[parent] += spans[i][2] - spans[i][1]
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        under_training = defaultdict(float)
        for i in ids:
            name, start, end, parent, _ = spans[i]
            dur = end - start
            own = dur - child[i]
            total[name] += dur
            self_time[name] += own
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += own
            if name.startswith("models.forward.") or name == "autodiff.backward":
                if self._has_training_ancestor(parent):
                    under_training[name.split(".", 1)[0]] += dur

        counters = self.counters[rep]
        out = {}
        for kind in OP_KINDS + ("other",):
            if kind not in UNTIMED_KINDS:
                out[f"autodiff.fwd_s.{kind}"] = 0.0
                out[f"autodiff.vjp_s.{kind}"] = 0.0
            out[f"autodiff.calls.{kind}"] = 0
        for name in list(total):
            for phase in ("fwd", "vjp"):
                prefix = f"autodiff.{phase}."
                if name.startswith(prefix):
                    kind = name[len(prefix):]
                    kind = kind if kind in OP_KINDS else "other"
                    if kind not in UNTIMED_KINDS:
                        out[f"autodiff.{phase}_s.{kind}"] += total[name]
                    if phase == "fwd":
                        out[f"autodiff.calls.{kind}"] += calls[name]
        for kind in FLOP_KINDS:
            flops = counters[f"flops.{kind}"]
            written = counters[f"out_bytes.{kind}"]
            out[f"autodiff.gflop.{kind}"] = flops / 1e9
            out[f"autodiff.flop_per_byte.{kind}"] = flops / written if written else 0.0
        out["autodiff.apply_overhead_s"] = self_time["autodiff.apply"]
        out["autodiff.backward_overhead_s"] = self_time["autodiff.backward"]
        out["autodiff.out_mb"] = counters["autodiff.out_bytes"] / 1e6
        out["models.patchify_s"] = total["models.patchify"]
        out["models.attention_s"] = total["models.attention"]
        for short in cli.MODEL_NAMES:
            out[f"models.forward_s.{short}"] = total[f"models.forward.{short}"]
        out["training.forward_s"] = under_training["models"]
        out["training.backward_s"] = under_training["autodiff"]
        out["training.adam_s"] = total["training.adam"]
        out["training.batch_s"] = total["training.batch"]
        out["training.load_clips_s"] = total["training.load_clips"]
        out["training.checkpoint_s"] = total["training.checkpoint"]
        out["datagen.render_s"] = total["datagen.render"]
        out["tvf.write_s"] = total["tvf.write"]
        out["tvf.read_frames_s"] = total["tvf.read_frames"]
        out["tvf.mb_written"] = counters["tvf.bytes_written"] / 1e6
        out["tvf.mb_read"] = counters["tvf.bytes_read"] / 1e6
        out["dataset.reduce_s"] = total["dataset.reduce"]
        out["metrics.fold_metrics_s"] = total["metrics.fold_metrics"]
        out["metrics.report_s"] = total["metrics.report"]
        for layer in LAYERS:
            out[f"self_s.{layer}"] = layer_self[layer]
        return out

    def _has_training_ancestor(self, idx):
        while idx >= 0:
            name, _, _, parent, _ = self.spans[idx]
            if name.startswith("training."):
                return True
            idx = parent
        return False


class _TracedOp:
    """Stands in for one ``autodiff._OPS`` entry; times forward and vjp."""

    def __init__(self, tracer, kind, op):
        fwd_name, vjp_name = f"autodiff.fwd.{kind}", f"autodiff.vjp.{kind}"
        counts_flops = kind in FLOP_KINDS

        def forward(xs, attrs):
            span = tracer.open(fwd_name)
            try:
                out = op.forward(xs, attrs)
            finally:
                tracer.close(span)
            if counts_flops:
                tracer.add(f"flops.{kind}", forward_flops(kind, xs, out))
                tracer.add(f"out_bytes.{kind}", out.nbytes)
            return out

        def vjp(g, xs, out, attrs):
            span = tracer.open(vjp_name)
            try:
                grads = op.vjp(g, xs, out, attrs)
            finally:
                tracer.close(span)
            if counts_flops:
                # each input gradient is one contraction as large as the forward
                tracer.add(f"flops.{kind}", 2 * forward_flops(kind, xs, out))
                tracer.add(f"out_bytes.{kind}", sum(gi.nbytes for gi in grads if gi is not None))
            return grads

        self.forward = forward
        self.vjp = vjp


def traced_targets():
    """Every (owner, attribute) pair a traced repetition swaps, with its current value."""
    targets = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in FUNCTION_SPANS]
    targets.append((models.Model, "forward", models.Model.__dict__["forward"]))
    return targets


@contextlib.contextmanager
def instrument(tracer, rep):
    """Routes the package through ``tracer`` for one repetition, then restores it."""
    saved = traced_targets()
    ops = dict(autodiff._OPS)
    tracer.rep = rep
    try:
        for owner, attr, name in FUNCTION_SPANS:
            setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr], AFTER.get(name)))
        model_forward = models.Model.__dict__["forward"]

        def forward(model, batch, capture=None):
            span = tracer.open(f"models.forward.{MODEL_SHORT[model.config.variant]}")
            try:
                return model_forward(model, batch, capture)
            finally:
                tracer.close(span)

        models.Model.forward = forward
        for kind, op in ops.items():
            autodiff._OPS[kind] = _TracedOp(tracer, kind, op)
        yield tracer
    finally:
        autodiff._OPS.clear()
        autodiff._OPS.update(ops)
        for owner, attr, original in saved:
            setattr(owner, attr, original)
        tracer.rep = None


COUNT_PREFIXES = ("autodiff.calls.", "autodiff.gflop.", "autodiff.flop_per_byte.", "autodiff.out_mb", "tvf.mb_")


def is_count(name):
    """Counts are exact functions of the inputs; everything else is a time."""
    return name.startswith(COUNT_PREFIXES)


def summarize(per_rep):
    """Median of each time over traced repetitions; counts from the first."""
    out = {}
    for name in per_rep[0]:
        values = [m[name] for m in per_rep]
        out[name] = values[0] if is_count(name) else statistics.median(values)
    return out


def unit_of(name):
    if name.startswith("autodiff.calls."):
        return "count"
    if name.startswith("autodiff.gflop."):
        return "GFLOP"
    if name.startswith("autodiff.flop_per_byte."):
        return "flop/B"
    if name.endswith("_mb") or name.startswith("tvf.mb_"):
        return "MB"
    if name == "trace.overhead_frac":
        return "ratio"
    return "s"


def per_layer_names():
    """Every per-layer metric a traced run reports, in report order."""
    tracer = Tracer("names")
    names = list(tracer.rep_metrics(None))
    return names + ["trace.overhead_s", "trace.overhead_frac"]
