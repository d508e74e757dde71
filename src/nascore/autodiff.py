"""Dense float64 tensors with reverse-mode automatic differentiation.

The operation set is fixed: it covers exactly what the three video models
need (dense/conv layers, pooling attention, the two losses). Every forward
op records a graph node when gradients are required; the tape order (node
creation order) is a valid topological order, so ``backward`` walks nodes
by descending id. It returns the gradients of the requires_grad leaves
only, and consumes the tape as it walks: each tensor drops its node when
passed, so activations, residuals and gradients are freed as soon as no
later vjp needs them. ``grad_check`` compares analytic gradients of any
op against central finite differences.

An op's forward returns its output array, or ``(out, residual)`` when its
vjp reuses intermediates of the forward (``pooled_attention`` saves its
softmax weights this way). Only ``out`` becomes the tensor; the residual
rides on the graph node, so it is dropped at once when no node is recorded
and freed with the node during ``backward``. The vjp gets back the same
pair as its ``out`` argument.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np


class AutodiffError(Exception):
    """Base class for tensor-engine failures."""


class ShapeMismatch(AutodiffError):
    def __init__(self, kind, expected, actual):
        super().__init__(f"{kind}: expected {expected}, got {actual}")
        self.expected = expected
        self.actual = actual


class NonFiniteError(AutodiffError):
    pass


class UnknownOpError(AutodiffError):
    pass


class GraphError(AutodiffError):
    pass


_node_counter = itertools.count()


@dataclass
class OpNode:
    kind: str
    inputs: tuple
    attrs: dict
    residual: object = None


class Tensor:
    """Immutable n-d array of float64, optionally tracked on the tape.

    ``node_id`` orders tensors by creation and keys the gradient map.
    """

    __slots__ = ("data", "requires_grad", "node_id", "op")

    def __init__(self, data, requires_grad=False, _op=None, _checked=False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        if not _checked:
            _require_finite(arr, "tensor")
        arr.flags.writeable = False
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.node_id = next(_node_counter)
        self.op = _op

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag}, id={self.node_id})"


def tensor(data, requires_grad=False):
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape):
    return Tensor(np.zeros(shape), _checked=True)


def ones(shape):
    return Tensor(np.ones(shape), _checked=True)


def all_finite(arr):
    """True when no value of ``arr`` is NaN or +-inf."""
    # a single-pass reduction is cheaper than isfinite().all(); NaN and
    # +-inf both poison the sum. The sum itself can overflow on huge finite
    # values, or meet inf + -inf, so confirm with the exact check.
    with np.errstate(over="ignore", invalid="ignore"):
        fast = float(arr.sum()) if arr.size else 0.0
    return math.isfinite(fast) or bool(np.isfinite(arr).all())


def _require_finite(arr, where):
    if not all_finite(arr):
        raise NonFiniteError(f"non-finite values in {where}")


def _unbroadcast(grad, shape):
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _broadcastable(a, b):
    try:
        return np.broadcast_shapes(a, b)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# op registry: kind -> (forward, vjp)
#
# forward(arrays, attrs) -> output array, or (output array, residual)
# vjp(grad, arrays, out, attrs) -> tuple of per-input gradients; ``out`` is
# what forward returned
# ---------------------------------------------------------------------------

_OPS = {}


def _register(kind):
    def wrap(cls):
        _OPS[kind] = cls
        return cls

    return wrap


def _ew_check(kind, a, b):
    shape = _broadcastable(a.shape, b.shape)
    if shape is None:
        raise ShapeMismatch(kind, f"broadcastable shapes", f"{a.shape} vs {b.shape}")
    return shape


@_register("add")
class _Add:
    @staticmethod
    def forward(xs, attrs):
        a, b = xs
        _ew_check("add", a, b)
        return a + b

    @staticmethod
    def vjp(g, xs, out, attrs):
        a, b = xs
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)


@_register("subtract")
class _Subtract:
    @staticmethod
    def forward(xs, attrs):
        a, b = xs
        _ew_check("subtract", a, b)
        return a - b

    @staticmethod
    def vjp(g, xs, out, attrs):
        a, b = xs
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)


@_register("multiply")
class _Multiply:
    @staticmethod
    def forward(xs, attrs):
        a, b = xs
        _ew_check("multiply", a, b)
        return a * b

    @staticmethod
    def vjp(g, xs, out, attrs):
        a, b = xs
        return _unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape)


@_register("matmul")
class _Matmul:
    @staticmethod
    def forward(xs, attrs):
        a, b = xs
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeMismatch("matmul", "rank >= 2 operands", f"{a.shape} @ {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise ShapeMismatch("matmul", f"inner dim {a.shape[-1]}", f"{b.shape[-2]}")
        if _broadcastable(a.shape[:-2], b.shape[:-2]) is None:
            raise ShapeMismatch("matmul", "broadcastable batch dims", f"{a.shape} @ {b.shape}")
        return a @ b

    @staticmethod
    def vjp(g, xs, out, attrs):
        a, b = xs
        ga = g @ np.swapaxes(b, -1, -2)
        gb = np.swapaxes(a, -1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)


@_register("reshape")
class _Reshape:
    @staticmethod
    def forward(xs, attrs):
        (a,) = xs
        shape = tuple(attrs["shape"])
        if int(np.prod(shape)) != a.size:
            raise ShapeMismatch("reshape", f"{a.size} elements", f"shape {shape}")
        return a.reshape(shape)

    @staticmethod
    def vjp(g, xs, out, attrs):
        return (g.reshape(xs[0].shape),)


@_register("permute")
class _Permute:
    @staticmethod
    def forward(xs, attrs):
        (a,) = xs
        axes = tuple(attrs["axes"])
        if sorted(axes) != list(range(a.ndim)):
            raise ShapeMismatch("permute", f"permutation of {a.ndim} axes", f"{axes}")
        return np.transpose(a, axes)

    @staticmethod
    def vjp(g, xs, out, attrs):
        inverse = np.argsort(attrs["axes"])
        return (np.transpose(g, inverse),)


@_register("concat")
class _Concat:
    @staticmethod
    def forward(xs, attrs):
        axis = attrs["axis"]
        ref = xs[0].shape
        for x in xs[1:]:
            if len(x.shape) != len(ref) or any(
                x.shape[i] != ref[i] for i in range(len(ref)) if i != axis
            ):
                raise ShapeMismatch("concat", f"match {ref} off axis {axis}", f"{x.shape}")
        return np.concatenate(xs, axis=axis)

    @staticmethod
    def vjp(g, xs, out, attrs):
        axis = attrs["axis"]
        splits = np.cumsum([x.shape[axis] for x in xs[:-1]])
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))


@_register("slice")
class _Slice:
    @staticmethod
    def forward(xs, attrs):
        (a,) = xs
        starts, stops = attrs["starts"], attrs["stops"]
        if len(starts) != a.ndim or len(stops) != a.ndim:
            raise ShapeMismatch("slice", f"{a.ndim} start/stop pairs", f"{len(starts)}/{len(stops)}")
        for i, (s, e) in enumerate(zip(starts, stops)):
            if not (0 <= s < e <= a.shape[i]):
                raise ShapeMismatch("slice", f"0 <= start < stop <= {a.shape[i]} on axis {i}", f"[{s}:{e}]")
        return a[tuple(slice(s, e) for s, e in zip(starts, stops))]

    @staticmethod
    def vjp(g, xs, out, attrs):
        gx = np.zeros(xs[0].shape)
        gx[tuple(slice(s, e) for s, e in zip(attrs["starts"], attrs["stops"]))] = g
        return (gx,)


@_register("relu")
class _Relu:
    @staticmethod
    def forward(xs, attrs):
        return np.maximum(xs[0], 0.0)

    @staticmethod
    def vjp(g, xs, out, attrs):
        # derivative at exactly 0 is defined as 0
        return (g * (xs[0] > 0.0),)


@_register("sigmoid")
class _Sigmoid:
    @staticmethod
    def forward(xs, attrs):
        x = xs[0]
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    @staticmethod
    def vjp(g, xs, out, attrs):
        return (g * out * (1.0 - out),)


@_register("tanh")
class _Tanh:
    @staticmethod
    def forward(xs, attrs):
        return np.tanh(xs[0])

    @staticmethod
    def vjp(g, xs, out, attrs):
        return (g * (1.0 - out * out),)


@_register("layer_norm")
class _LayerNorm:
    """Normalizes the last axis to zero mean, unit variance (no affine)."""

    @staticmethod
    def forward(xs, attrs):
        x = xs[0]
        eps = attrs.get("epsilon", 1e-5)
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + eps)

    @staticmethod
    def vjp(g, xs, out, attrs):
        x = xs[0]
        eps = attrs.get("epsilon", 1e-5)
        n = x.shape[-1]
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (x - mu) * inv
        gm = g.mean(axis=-1, keepdims=True)
        gxm = (g * xhat).mean(axis=-1, keepdims=True)
        return (inv * (g - gm - xhat * gxm),)


def _split_heads(x, heads):
    """(B, N, C) -> contiguous (B, heads, N, C // heads)."""
    b, n, c = x.shape
    return np.ascontiguousarray(x.reshape(b, n, heads, c // heads).transpose(0, 2, 1, 3))


def _merge_heads(x):
    """(B, heads, N, d) -> contiguous (B, N, heads * d)."""
    b, h, n, d = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, n, h * d)


@_register("pooled_attention")
class _PooledAttention:
    """Multi-head attention softmax(q k^T / sqrt(d)) v of q (B, Nq, C) over
    k, v (B, Nk, C); the heads split C into equal slices of width d.

    The forward keeps (q heads, k^T, v heads, softmax weights) as its
    residual, so the vjp does not recompute the weights. The matmul
    operands have the layouts the unfused reshape/permute chain gave them,
    so the results match that chain bit for bit.
    """

    @staticmethod
    def forward(xs, attrs):
        q, k, v = xs
        heads = attrs["heads"]
        if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
            raise ShapeMismatch(
                "pooled_attention", "rank-3 (B,N,C) q, k, v", f"{q.shape}, {k.shape}, {v.shape}"
            )
        b, nq, c = q.shape
        if any(t.shape[0] != b or t.shape[2] != c for t in (k, v)):
            raise ShapeMismatch(
                "pooled_attention", f"batch {b} and width {c} for k, v", f"{k.shape}, {v.shape}"
            )
        if k.shape[1] != v.shape[1]:
            raise ShapeMismatch("pooled_attention", f"{k.shape[1]} value tokens", f"{v.shape[1]}")
        if heads < 1 or c % heads != 0:
            raise ShapeMismatch("pooled_attention", f"width divisible by {heads} heads", f"{c}")
        qh, vh = _split_heads(q, heads), _split_heads(v, heads)
        kt = np.ascontiguousarray(_split_heads(k, heads).transpose(0, 1, 3, 2))
        w = qh @ kt
        w *= 1.0 / math.sqrt(c // heads)
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        return _merge_heads(w @ vh), (qh, kt, vh, w)

    @staticmethod
    def vjp(g, xs, out, attrs):
        _, (qh, kt, vh, w) = out
        b, h, nq, d = qh.shape
        gc = g.reshape(b, nq, h, d).transpose(0, 2, 1, 3)
        gv = np.swapaxes(w, -1, -2) @ gc
        gw = gc @ np.swapaxes(vh, -1, -2)
        # softmax vjp, then the 1/sqrt(d) scale, in place
        gw -= (gw * w).sum(axis=-1, keepdims=True)
        gw *= w
        gw *= 1.0 / math.sqrt(d)
        gq = gw @ np.swapaxes(kt, -1, -2)
        gk = np.swapaxes(np.swapaxes(qh, -1, -2) @ gw, -1, -2)
        return _merge_heads(gq), _merge_heads(gk), _merge_heads(gv)


def _conv_out(n, k, s, p):
    return (n + 2 * p - k) // s + 1


@_register("conv2d")
class _Conv2d:
    @staticmethod
    def forward(xs, attrs):
        x, w = xs
        if x.ndim != 4 or w.ndim != 4:
            raise ShapeMismatch("conv2d", "(B,C,H,W) and (O,C,kh,kw)", f"{x.shape}, {w.shape}")
        if x.shape[1] != w.shape[1]:
            raise ShapeMismatch("conv2d", f"{w.shape[1]} input channels", f"{x.shape[1]}")
        sh, sw = attrs["stride"]
        ph, pw = attrs["padding"]
        b, c, h, wd = x.shape
        o, _, kh, kw = w.shape
        oh, ow = _conv_out(h, kh, sh, ph), _conv_out(wd, kw, sw, pw)
        if oh <= 0 or ow <= 0:
            raise ShapeMismatch("conv2d", "positive output extent", f"{oh}x{ow}")
        xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        out = np.zeros((b, o, oh, ow))
        for u in range(kh):
            for v in range(kw):
                patch = xp[:, :, u : u + sh * oh : sh, v : v + sw * ow : sw]
                out += np.einsum("bcij,oc->boij", patch, w[:, :, u, v])
        return out

    @staticmethod
    def vjp(g, xs, out, attrs):
        x, w = xs
        sh, sw = attrs["stride"]
        ph, pw = attrs["padding"]
        _, _, oh, ow = g.shape
        kh, kw = w.shape[2], w.shape[3]
        xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        gxp = np.zeros_like(xp)
        gw = np.zeros_like(w)
        for u in range(kh):
            for v in range(kw):
                patch = xp[:, :, u : u + sh * oh : sh, v : v + sw * ow : sw]
                gw[:, :, u, v] = np.einsum("boij,bcij->oc", g, patch)
                gxp[:, :, u : u + sh * oh : sh, v : v + sw * ow : sw] += np.einsum(
                    "boij,oc->bcij", g, w[:, :, u, v]
                )
        h, wd = x.shape[2], x.shape[3]
        return gxp[:, :, ph : ph + h, pw : pw + wd], gw


def _pool_counts(dims, stride):
    """Per-output-cell coverage for ceil-mode pooling (truncated windows)."""
    outs = [math.ceil(n / s) for n, s in zip(dims, stride)]
    counts = np.ones(outs)
    for axis, (n, s, m) in enumerate(zip(dims, stride, outs)):
        per = np.full(m, s, dtype=np.float64)
        per[-1] = n - (m - 1) * s
        shape = [1] * len(outs)
        shape[axis] = m
        counts = counts * per.reshape(shape)
    return outs, counts


@_register("avg_pool")
class _AvgPool:
    """Strided average pooling over a token grid (B, n1..nk, C), k in 1..3.

    Ceil mode: windows truncated at the boundary are averaged over their
    actual coverage.
    """

    @staticmethod
    def forward(xs, attrs):
        (x,) = xs
        stride = tuple(attrs["stride"])
        k = len(stride)
        if not 1 <= k <= 3 or x.ndim != k + 2:
            raise ShapeMismatch("avg_pool", f"rank {len(stride) + 2} input", f"{x.shape}")
        if any(s < 1 for s in stride):
            raise ShapeMismatch("avg_pool", "positive strides", f"{stride}")
        dims = x.shape[1:-1]
        outs, counts = _pool_counts(dims, stride)
        padded = [m * s for m, s in zip(outs, stride)]
        xp = np.zeros((x.shape[0], *padded, x.shape[-1]))
        xp[(slice(None), *[slice(0, n) for n in dims], slice(None))] = x
        grouped = xp.reshape(
            x.shape[0], *itertools.chain(*zip(outs, stride)), x.shape[-1]
        )
        summed = grouped.sum(axis=tuple(range(2, 2 + 2 * k, 2)))
        return summed / counts[None, ..., None]

    @staticmethod
    def vjp(g, xs, out, attrs):
        (x,) = xs
        stride = tuple(attrs["stride"])
        k = len(stride)
        dims = x.shape[1:-1]
        outs, counts = _pool_counts(dims, stride)
        gn = g / counts[None, ..., None]
        expand = gn.reshape(
            g.shape[0], *itertools.chain(*zip(outs, [1] * k)), g.shape[-1]
        )
        target = (g.shape[0], *itertools.chain(*zip(outs, stride)), g.shape[-1])
        full = np.broadcast_to(expand, target).reshape(
            g.shape[0], *[m * s for m, s in zip(outs, stride)], g.shape[-1]
        )
        return (full[(slice(None), *[slice(0, n) for n in dims], slice(None))],)


@_register("sum")
class _Sum:
    @staticmethod
    def forward(xs, attrs):
        axes = attrs.get("axes")
        return xs[0].sum(axis=None if axes is None else tuple(axes))

    @staticmethod
    def vjp(g, xs, out, attrs):
        x = xs[0]
        axes = attrs.get("axes")
        if axes is None:
            return (np.broadcast_to(g, x.shape),)
        return (np.broadcast_to(np.expand_dims(g, tuple(axes)), x.shape),)


@_register("mean")
class _Mean:
    @staticmethod
    def forward(xs, attrs):
        (x,) = xs
        axes = attrs.get("axes")
        if axes is not None and any(not 0 <= a < x.ndim for a in axes):
            raise ShapeMismatch("mean", f"axes within rank {x.ndim}", f"{tuple(axes)}")
        return x.mean(axis=None if axes is None else tuple(axes))

    @staticmethod
    def vjp(g, xs, out, attrs):
        x = xs[0]
        axes = attrs.get("axes")
        if axes is None:
            return (np.broadcast_to(g / x.size, x.shape),)
        scale = 1.0 / np.prod([x.shape[a] for a in axes])
        return (np.broadcast_to(np.expand_dims(g, tuple(axes)) * scale, x.shape),)


@_register("squared_error_sum")
class _SquaredErrorSum:
    @staticmethod
    def forward(xs, attrs):
        a, b = xs
        if a.shape != b.shape:
            raise ShapeMismatch("squared_error_sum", f"{a.shape}", f"{b.shape}")
        d = a - b
        return np.asarray((d * d).sum())

    @staticmethod
    def vjp(g, xs, out, attrs):
        a, b = xs
        d = 2.0 * g * (a - b)
        return d, -d


@_register("cross_entropy_logits")
class _CrossEntropyLogits:
    """Sum over the batch of -log softmax(logits)[target], via log-sum-exp."""

    @staticmethod
    def forward(xs, attrs):
        (logits,) = xs
        targets = attrs["targets"]
        if logits.ndim != 2:
            raise ShapeMismatch("cross_entropy_logits", "(B,K) logits", f"{logits.shape}")
        if len(targets) != logits.shape[0]:
            raise ShapeMismatch(
                "cross_entropy_logits", f"{logits.shape[0]} targets", f"{len(targets)}"
            )
        k = logits.shape[1]
        for t in targets:
            if not 0 <= t < k:
                raise AutodiffError(f"cross_entropy_logits: class {t} out of range [0,{k})")
        m = logits.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
        picked = logits[np.arange(logits.shape[0]), list(targets)]
        return np.asarray((lse - picked).sum())

    @staticmethod
    def vjp(g, xs, out, attrs):
        (logits,) = xs
        targets = list(attrs["targets"])
        m = logits.max(axis=1, keepdims=True)
        e = np.exp(logits - m)
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(logits.shape[0]), targets] -= 1.0
        return (g * p,)


OP_KINDS = tuple(sorted(_OPS))


def apply(kind, inputs, attrs=None):
    """Run one forward op, recording a graph node if gradients are needed.

    Inputs must be Tensors; all values are finite by construction and the
    output is verified finite (overflow raises instead of propagating).
    """
    if kind not in _OPS:
        raise UnknownOpError(f"unknown op kind {kind!r}")
    attrs = {} if attrs is None else attrs
    arrays = tuple(t.data for t in inputs)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = _OPS[kind].forward(arrays, attrs)
    residual = None
    if isinstance(out, tuple):
        out, residual = out
    _require_finite(out, f"{kind} output")
    requires = any(t.requires_grad for t in inputs)
    node = OpNode(kind, tuple(inputs), attrs, residual) if requires else None
    return Tensor(out, requires_grad=requires, _op=node, _checked=True)


def backward(loss):
    """Gradients of the scalar ``loss`` with respect to the leaves it reaches.

    Returns a map node_id -> gradient Tensor with one entry per
    requires_grad leaf the loss reaches; intermediate gradients are not
    kept. The tape is consumed as it is walked: each tensor drops its op
    record when the walk passes it, so a second backward raises.
    """
    if loss.shape != ():
        raise GraphError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss.op is None:
        raise GraphError("backward on an empty graph (loss records no ops)")

    # ``seen`` keeps ids, so a tensor popped from ``order`` is held by nothing here
    order = [loss]
    seen = {loss.node_id}
    for t in order:
        for inp in t.op.inputs if t.op is not None else ():
            if inp.requires_grad and inp.node_id not in seen:
                seen.add(inp.node_id)
                order.append(inp)
    order.sort(key=lambda v: v.node_id)

    grads = {loss.node_id: np.ones(())}
    leaf_grads = {}
    while order:
        t = order.pop()
        op, t.op = t.op, None
        g = grads.pop(t.node_id)
        if op is None:
            leaf_grads[t.node_id] = Tensor(g, _checked=True)
            continue
        out = t.data if op.residual is None else (t.data, op.residual)
        input_grads = _OPS[op.kind].vjp(g, tuple(i.data for i in op.inputs), out, op.attrs)
        for inp, ig in zip(op.inputs, input_grads):
            if not inp.requires_grad:
                continue
            if inp.node_id in grads:
                grads[inp.node_id] = grads[inp.node_id] + ig
            else:
                grads[inp.node_id] = ig
    return leaf_grads


@dataclass
class CheckReport:
    """Outcome of one finite-difference gradient check."""

    kind: str
    max_rel_err: float
    per_input: list = field(default_factory=list)


FD_STEP = 1e-5


def _rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def _seeded_inputs(kind, shapes, rng):
    arrays = [rng.standard_normal(s) for s in shapes]
    if kind == "relu":
        # keep inputs away from the kink so the difference quotient is valid
        arrays = [np.where(np.abs(a) < 1e-3, np.sign(a) * 1e-3 + (a == 0) * 1e-3, a) for a in arrays]
    return arrays


def grad_check(kind, shapes, seed, attrs=None):
    """Compare reverse-mode gradients of one op against central differences.

    The op output is contracted to a scalar with fixed random weights, so
    every partial derivative of that scalar is exercised. Relative error
    uses max(|analytic|, |numeric|, 1e-8) as the denominator.
    """
    if kind not in _OPS:
        raise UnknownOpError(f"unknown op kind {kind!r}")
    attrs = {} if attrs is None else attrs
    rng = np.random.default_rng(seed)
    arrays = _seeded_inputs(kind, shapes, rng)

    def value(arrs):
        out = _OPS[kind].forward(tuple(arrs), attrs)
        return out[0] if isinstance(out, tuple) else out

    weights = rng.standard_normal(value(arrays).shape)

    def objective(arrs):
        return float((value(arrs) * weights).sum())

    tensors = [tensor(a, requires_grad=True) for a in arrays]
    out = apply(kind, tensors, attrs)
    loss = apply("sum", [apply("multiply", [out, tensor(weights)])], {"axes": None})
    gmap = backward(loss)

    report = CheckReport(kind=kind, max_rel_err=0.0)
    for idx, (base, t) in enumerate(zip(arrays, tensors)):
        analytic = gmap[t.node_id].data if t.node_id in gmap else np.zeros(base.shape)
        worst = 0.0
        flat = base.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            plus = [a.copy() for a in arrays]
            plus[idx].reshape(-1)[j] = orig + FD_STEP
            minus = [a.copy() for a in arrays]
            minus[idx].reshape(-1)[j] = orig - FD_STEP
            numeric = (objective(plus) - objective(minus)) / (2 * FD_STEP)
            worst = max(worst, _rel_err(float(analytic.reshape(-1)[j]), numeric))
        report.per_input.append(worst)
        report.max_rel_err = max(report.max_rel_err, worst)
    return report


# canonical shape/attr cases covering every registered op; the verify
# suite and the tests both run these across seeds
GRADCHECK_SUITE = (
    ("add", ((3, 4), (3, 4)), None),
    ("add", ((3, 4), (4,)), None),
    ("subtract", ((3, 4), (3, 4)), None),
    ("multiply", ((3, 4), (3, 4)), None),
    # attention with fewer key/value tokens than queries, as after kv pooling
    ("pooled_attention", ((2, 6, 4), (2, 3, 4), (2, 3, 4)), {"heads": 2}),
    ("matmul", ((3, 4), (4, 2)), None),
    ("matmul", ((2, 3, 4), (2, 4, 2)), None),
    ("matmul", ((2, 3, 4), (4, 2)), None),
    ("reshape", ((2, 6),), {"shape": (3, 4)}),
    ("permute", ((2, 3, 4),), {"axes": (2, 0, 1)}),
    ("concat", ((2, 3), (2, 2)), {"axis": 1}),
    ("slice", ((4, 5),), {"starts": (1, 0), "stops": (3, 4)}),
    ("relu", ((8,),), None),
    ("sigmoid", ((6,),), None),
    ("tanh", ((6,),), None),
    ("pooled_attention", ((2, 5, 3), (2, 4, 3), (2, 4, 3)), {"heads": 1}),
    ("pooled_attention", ((1, 4, 6), (1, 4, 6), (1, 4, 6)), {"heads": 3}),
    ("layer_norm", ((4,),), None),
    ("layer_norm", ((2, 5),), None),
    ("conv2d", ((2, 2, 5, 5), (3, 2, 3, 3)), {"stride": (2, 2), "padding": (1, 1)}),
    # a temporal conv over (1, T), as micro-r2plus1d runs it
    ("conv2d", ((2, 2, 1, 7), (3, 2, 1, 3)), {"stride": (1, 2), "padding": (0, 1)}),
    ("avg_pool", ((2, 5, 3),), {"stride": (2,)}),
    ("avg_pool", ((2, 5, 4, 3),), {"stride": (2, 2)}),
    ("avg_pool", ((2, 3, 5, 4, 2),), {"stride": (2, 2, 2)}),
    ("mean", ((2, 3, 4, 5),), {"axes": (1, 2)}),
    ("sum", ((3, 4),), {"axes": None}),
    ("sum", ((3, 4),), {"axes": (0,)}),
    ("mean", ((3, 4),), {"axes": (1,)}),
    ("squared_error_sum", ((3, 2), (3, 2)), None),
    ("cross_entropy_logits", ((3, 5),), {"targets": (0, 4, 2)}),
    # a positional table added to every batch item, as patchify does
    ("add", ((2, 3, 4, 5), (3, 4, 5)), None),
)


# convenience wrappers used by the model code -------------------------------


def add(a, b):
    return apply("add", (a, b))


def subtract(a, b):
    return apply("subtract", (a, b))


def multiply(a, b):
    return apply("multiply", (a, b))


def matmul(a, b):
    return apply("matmul", (a, b))


def reshape(a, shape):
    return apply("reshape", (a,), {"shape": tuple(shape)})


def permute(a, axes):
    return apply("permute", (a,), {"axes": tuple(axes)})


def concat(tensors, axis):
    return apply("concat", tuple(tensors), {"axis": axis})


def slice_(a, starts, stops):
    return apply("slice", (a,), {"starts": tuple(starts), "stops": tuple(stops)})


def relu(a):
    return apply("relu", (a,))


def sigmoid(a):
    return apply("sigmoid", (a,))


def tanh(a):
    return apply("tanh", (a,))


def pooled_attention(q, k, v, heads):
    return apply("pooled_attention", (q, k, v), {"heads": int(heads)})


def layer_norm(a, epsilon=1e-5):
    return apply("layer_norm", (a,), {"epsilon": epsilon})


def conv2d(x, w, stride, padding):
    return apply("conv2d", (x, w), {"stride": tuple(stride), "padding": tuple(padding)})


def avg_pool(x, stride):
    return apply("avg_pool", (x,), {"stride": tuple(stride)})


def sum_(a, axes=None):
    return apply("sum", (a,), {"axes": axes})


def mean(a, axes=None):
    return apply("mean", (a,), {"axes": axes})


def squared_error_sum(a, b):
    return apply("squared_error_sum", (a, b))


def cross_entropy_logits(logits, targets):
    return apply("cross_entropy_logits", (logits,), {"targets": tuple(int(t) for t in targets)})
