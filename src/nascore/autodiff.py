"""Dense float64 tensors with reverse-mode automatic differentiation.

The operation set is fixed: it is exactly the 12 kinds that the three
video models and their two losses run. Every forward op records a graph
node when gradients are required; the tape order (node creation order)
is a valid topological order. The one reverse walk is ``vjp(out, grad)``,
the vector-Jacobian product: it seeds ``out`` with the output gradient
``grad`` and walks the nodes by descending id; ``backward(loss)`` is
``vjp`` seeded with 1 at a scalar loss. The walk returns the gradients of
the requires_grad leaves only, and consumes the tape as it goes: each
tensor drops its node when passed, so activations, residuals and
gradients are freed as soon as no later vjp needs them. ``grad_check``
compares the ``vjp`` of any op against central finite differences.

An op's forward returns its output array, or ``(out, residual)`` when its
vjp reuses intermediates of the forward. ``pooled_attention`` saves its
split heads and per-row log-sum-exp this way: it never holds the full
softmax weights, and its vjp rebuilds them one query tile at a time. Only
``out`` becomes the tensor; the residual rides on the graph node, so it is
dropped at once when no node is recorded and freed with the node during
the walk. The vjp gets back the same pair as its ``out`` argument.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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

    def item(self):
        return float(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag}, id={self.node_id})"


def tensor(data, requires_grad=False):
    return Tensor(data, requires_grad=requires_grad)


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


# ---------------------------------------------------------------------------
# op registry: kind -> (forward, vjp)
#
# forward(arrays, attrs) -> output array, or (output array, residual)
# vjp(grad, arrays, out, attrs) -> tuple of per-input gradients; ``out`` is
# what forward returned, and ``attrs["needs"]`` holds one bool per input,
# whether the walk wants its gradient. A vjp returns None for, and computes
# nothing of, each input that needs none (after PyTorch's
# ``ctx.needs_input_grad``).
# ---------------------------------------------------------------------------

_OPS = {}


def _register(kind):
    def wrap(cls):
        _OPS[kind] = cls
        return cls

    return wrap


@_register("add")
class _Add:
    @staticmethod
    def forward(xs, attrs):
        a, b = xs
        try:
            return a + b
        except ValueError:
            raise ShapeMismatch("add", "broadcastable shapes", f"{a.shape} vs {b.shape}") from None

    @staticmethod
    def vjp(g, xs, out, attrs):
        (a, b), (na, nb) = xs, attrs["needs"]
        return (_unbroadcast(g, a.shape) if na else None, _unbroadcast(g, b.shape) if nb else None)


def _rows(a):
    """``a`` as a (rows, last axis) matrix; a free view when ``a`` is contiguous."""
    return a.reshape(-1, a.shape[-1])


def _row_mean(c):
    """The (C, 1) column that takes row means of a (..., C) array as a GEMV:
    numpy's own reduction along an axis only C = 8..72 wide runs several
    times slower than the BLAS product."""
    return np.full((c, 1), 1.0 / c)


@_register("linear")
class _Linear:
    """A dense layer, x @ w + b, for x (..., C), w (C, O) and b (O,).

    Both passes flatten x's leading axes into rows, so the forward and the
    weight gradient are one GEMM each and the bias gradient one GEMV,
    ones @ rows; the vjp skips the input gradient when x needs none."""

    @staticmethod
    def forward(xs, attrs):
        x, w, b = xs
        if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
            raise ShapeMismatch("linear", "(..., C) input and (C, O) weight", f"{x.shape}, {w.shape}")
        if b.shape != w.shape[1:]:
            raise ShapeMismatch("linear", f"bias of shape {w.shape[1:]}", f"{b.shape}")
        out = _rows(x) @ w
        out += b
        return out.reshape(*x.shape[:-1], w.shape[1])

    @staticmethod
    def vjp(g, xs, out, attrs):
        (x, w, _), (nx, nw, nb) = xs, attrs["needs"]
        rows = _rows(g)
        return (
            (rows @ w.T).reshape(x.shape) if nx else None,
            _rows(x).T @ rows if nw else None,
            np.ones(len(rows)) @ rows if nb else None,
        )


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


@_register("relu")
class _Relu:
    @staticmethod
    def forward(xs, attrs):
        return np.maximum(xs[0], 0.0)

    @staticmethod
    def vjp(g, xs, out, attrs):
        # derivative at exactly 0 is defined as 0
        return (g * (xs[0] > 0.0),)


@_register("layer_norm")
class _LayerNorm:
    """Normalizes x's last axis (width C) to zero mean and unit variance,
    then scales by g and shifts by b, both (C,).

    Both passes flatten x's leading axes into rows, so every reduction is
    one BLAS product: the row means of the forward and the vjp are
    rows @ (1/C column), the gain and shift gradients ones @ rows. The
    residual is the normalized rows xhat and the per-row 1/sqrt(var + eps),
    eps = 1e-5.
    """

    @staticmethod
    def forward(xs, attrs):
        x, gain, shift = xs
        if x.ndim < 1 or gain.shape != x.shape[-1:] or shift.shape != x.shape[-1:]:
            raise ShapeMismatch(
                "layer_norm", "(..., C) input with (C,) gain and shift",
                f"{x.shape}, {gain.shape}, {shift.shape}",
            )
        rows = _rows(x)
        avg = _row_mean(x.shape[-1])
        xc = rows - rows @ avg
        sd = np.sqrt((xc * xc) @ avg + 1e-5)
        xc /= sd
        out = xc * gain
        out += shift
        return out.reshape(x.shape), (xc, 1.0 / sd)

    @staticmethod
    def vjp(g, xs, out, attrs):
        (_, gain, _), (_, (xhat, inv)) = xs, out
        nx, ngain, nshift = attrs["needs"]
        rows = _rows(g)
        gx = None
        if nx:
            avg = _row_mean(g.shape[-1])
            gh = rows * gain
            gm = gh @ avg
            gxm = (gh * xhat) @ avg
            gh -= gm
            gh -= xhat * gxm
            gx = (gh * inv).reshape(g.shape)
        ones = np.ones(len(rows))
        return (
            gx,
            ones @ (rows * xhat) if ngain else None,
            ones @ rows if nshift else None,
        )


def _split_heads(x, heads):
    """(B, N, C) -> contiguous (B, heads, N, C // heads)."""
    b, n, c = x.shape
    return np.ascontiguousarray(x.reshape(b, n, heads, c // heads).transpose(0, 2, 1, 3))


def _merge_heads(x):
    """(B, heads, N, d) -> contiguous (B, N, heads * d)."""
    b, h, n, d = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, n, h * d)


# the byte budget of one query tile's (B, heads, Nk, rows) weight block:
# about half of a 2 MiB per-core L2, so the logits stay in cache through
# the max, exp, row-sum and context passes
ATTENTION_TILE_BYTES = 1 << 20


def _query_tiles(b, heads, nq, nk):
    """Row slices that walk Nq queries in tiles of ATTENTION_TILE_BYTES."""
    rows = max(1, ATTENTION_TILE_BYTES // (8 * b * heads * nk))
    return [slice(i, min(i + rows, nq)) for i in range(0, nq, rows)]


@_register("pooled_attention")
class _PooledAttention:
    """Multi-head attention softmax(q k^T / sqrt(d)) v of q (B, ..., C) over
    k, v of one shape (B, ..., C); the heads split C into equal slices of
    width d. The axes between B and C, a token grid's for one, are
    flattened into Nq and Nk tokens by free views; the output and the
    gradients take the shapes of q, k and v.

    Both passes walk the queries in row tiles (``_query_tiles``), so no
    (Nq, Nk) array is ever held, only one tile's weights. 1/sqrt(d) is
    folded into the split q heads once, so no pass scales a logit tile.
    Each tile's logits are key-major, k q^T (Nk, rows): the per-query max
    and sum over the keys then run down columns, the sum as the GEMV
    ones @ w. The forward leaves the weights unnormalised, exp(s - max),
    and divides the (rows, d) context by their sum instead, as
    FlashAttention does. The residual is (scaled q heads, k heads, v heads,
    per-query log-sum-exp of the logits); the vjp rebuilds each tile's
    weights as exp(s - lse), takes the softmax-vjp row term from the
    context, rowsum(g * ctx) as a GEMV with ones(d), which equals
    rowsum(g v^T * w), and scales the q gradient by 1/sqrt(d) once at the
    end.
    """

    @staticmethod
    def forward(xs, attrs):
        q, k, v = xs
        heads = attrs["heads"]
        if min(q.ndim, k.ndim, v.ndim) < 3:
            raise ShapeMismatch(
                "pooled_attention", "(B, ..., C) q, k, v", f"{q.shape}, {k.shape}, {v.shape}"
            )
        b, c = q.shape[0], q.shape[-1]
        if any(t.shape[0] != b or t.shape[-1] != c for t in (k, v)):
            raise ShapeMismatch(
                "pooled_attention", f"batch {b} and width {c} for k, v", f"{k.shape}, {v.shape}"
            )
        if k.shape != v.shape:
            raise ShapeMismatch("pooled_attention", f"v of k's shape {k.shape}", f"{v.shape}")
        if heads < 1 or c % heads != 0:
            raise ShapeMismatch("pooled_attention", f"width divisible by {heads} heads", f"{c}")
        q, k, v = (t.reshape(b, -1, c) for t in xs)
        nq = q.shape[1]
        # out of place: at one head, _split_heads returns a view of q
        qh = _split_heads(q, heads) * (1.0 / math.sqrt(c // heads))
        kh, vh = _split_heads(k, heads), _split_heads(v, heads)
        ones = np.ones(k.shape[1])
        ctx = np.empty(qh.shape)
        lse = np.empty((b, heads, 1, nq))
        for rows in _query_tiles(b, heads, nq, k.shape[1]):
            # key-major logits, (B, heads, Nk, rows)
            wt = kh @ np.swapaxes(qh[:, :, rows], -1, -2)
            m = wt.max(axis=-2, keepdims=True)
            wt -= m
            np.exp(wt, out=wt)
            total = ones @ wt
            part = np.swapaxes(wt, -1, -2) @ vh
            part /= total[..., None]
            ctx[:, :, rows] = part
            lse[:, :, :, rows] = m + np.log(total)[:, :, None]
        return _merge_heads(ctx).reshape(xs[0].shape), (qh, kh, vh, lse)

    @staticmethod
    def vjp(g, xs, out, attrs):
        ctx, (qh, kh, vh, lse) = out
        b, h, nq, d = qh.shape
        nq_, nk_, nv_ = attrs["needs"]
        gc = _split_heads(g.reshape(b, nq, h * d), h)
        # softmax-vjp row term per (batch, head, query): rowsum(g * ctx)
        rowdot = ((g * ctx).reshape(-1, d) @ np.ones(d)).reshape(b, nq, h).transpose(0, 2, 1)
        rowdot = rowdot[:, :, None]
        gq = np.empty(qh.shape) if nq_ else None
        gk = np.zeros(kh.shape) if nk_ else None
        gv = np.zeros(vh.shape) if nv_ else None
        for rows in _query_tiles(b, h, nq, kh.shape[2]):
            # the key-major weights exp(s - lse), (B, heads, Nk, rows)
            wt = kh @ np.swapaxes(qh[:, :, rows], -1, -2)
            wt -= lse[:, :, :, rows]
            np.exp(wt, out=wt)
            if nv_:
                gv += wt @ gc[:, :, rows]
            gwt = vh @ np.swapaxes(gc[:, :, rows], -1, -2)
            # the softmax vjp, in place: the gradient of the scaled logits
            gwt -= rowdot[:, :, :, rows]
            gwt *= wt
            if nq_:
                gq[:, :, rows] = np.swapaxes(gwt, -1, -2) @ kh
            if nk_:
                gk += gwt @ qh[:, :, rows]
        if nq_:
            gq *= 1.0 / math.sqrt(d)
        return tuple(
            _merge_heads(grad).reshape(x.shape) if need else None
            for grad, x, need in zip((gq, gk, gv), xs, (nq_, nk_, nv_))
        )


def _conv_cols(x, kernel, stride, padding, out):
    """The (C*kt*kh*kw, B*OT*OH*OW) window matrix of x (C, B, T, H, W): row
    (c, r, u, v) holds what tap (r, u, v) of channel c reads at every output
    position."""
    (kt, kh, kw), (st, sh, sw), (pt, ph, pw), (ot, oh, ow) = kernel, stride, padding, out
    et, eh, ew = st * ot, sh * oh, sw * ow
    c, b, t, h, w = x.shape
    xp = x
    if pt or ph or pw:
        xp = np.zeros((c, b, t + 2 * pt, h + 2 * ph, w + 2 * pw))
        xp[:, :, pt : pt + t, ph : ph + h, pw : pw + w] = x
    cols = np.empty((c, kt, kh, kw, b, ot, oh, ow))
    for r in range(kt):
        for u in range(kh):
            for v in range(kw):
                cols[:, r, u, v] = xp[:, :, r : r + et : st, u : u + eh : sh, v : v + ew : sw]
    return cols.reshape(c * kt * kh * kw, b * ot * oh * ow)


def _conv_input_grad(w, g, x_shape, stride, padding):
    """Gradient of conv3d's input x (C, B, T, H, W) for the output gradient
    g (O, B, OT, OH, OW): each tap's (C, B, OT, OH, OW) slice of w.T @ g
    adds onto the strided input positions it read."""
    o, c, kt, kh, kw = w.shape
    _, b, ot, oh, ow = g.shape
    (st, sh, sw), (pt, ph, pw) = stride, padding
    et, eh, ew = st * ot, sh * oh, sw * ow
    t, h, wd = x_shape[2:]
    taps = (w.reshape(o, -1).T @ g.reshape(o, -1)).reshape(c, kt, kh, kw, b, ot, oh, ow)
    gxp = np.zeros((c, b, t + 2 * pt, h + 2 * ph, wd + 2 * pw))
    for r in range(kt):
        for u in range(kh):
            for v in range(kw):
                gxp[:, :, r : r + et : st, u : u + eh : sh, v : v + ew : sw] += taps[:, r, u, v]
    return gxp[:, :, pt : pt + t, ph : ph + h, pw : pw + wd]


@_register("conv3d")
class _Conv3d:
    """A conv layer, relu(conv + b): the cross-correlation of the volume
    x (C, B, T, H, W) with w (O, C, kt, kh, kw), plus the bias
    b (O, 1, 1, 1, 1), then ReLU, giving (O, B, OT, OH, OW). The layout is
    channel-major, so each pass is one matmul with the unfolded window
    matrix (im2col) and no transpose: the forward is w (O, C*kt*kh*kw) @
    cols, the weight gradient g (O, B*OT*OH*OW) @ cols.T. The forward
    returns only its output: the vjp masks g by out > 0 (the ReLU's
    derivative, 0 at the kink), builds cols afresh and drops it before the
    input gradient, which it skips when x needs none."""

    @staticmethod
    def forward(xs, attrs):
        x, w, b = xs
        if x.ndim != 5 or w.ndim != 5:
            raise ShapeMismatch("conv3d", "(C,B,T,H,W) and (O,C,kt,kh,kw)", f"{x.shape}, {w.shape}")
        if x.shape[0] != w.shape[1]:
            raise ShapeMismatch("conv3d", f"{w.shape[1]} input channels", f"{x.shape[0]}")
        o = w.shape[0]
        if b.shape != (o, 1, 1, 1, 1):
            raise ShapeMismatch("conv3d", f"bias of shape {(o, 1, 1, 1, 1)}", f"{b.shape}")
        stride, padding = attrs["stride"], attrs["padding"]
        dims = zip(x.shape[2:], w.shape[2:], stride, padding)
        out = tuple((n + 2 * p - k) // s + 1 for n, k, s, p in dims)
        if min(out) <= 0:
            raise ShapeMismatch("conv3d", "positive output extent", "x".join(map(str, out)))
        cols = _conv_cols(x, w.shape[2:], stride, padding, out)
        y = (w.reshape(o, -1) @ cols).reshape(o, x.shape[1], *out)
        y += b
        return np.maximum(y, 0.0, out=y)

    @staticmethod
    def vjp(g, xs, out, attrs):
        (x, w, _), (nx, nw, nb) = xs, attrs["needs"]
        g = g * (out > 0.0)
        gw = None
        if nw:
            cols = _conv_cols(x, w.shape[2:], attrs["stride"], attrs["padding"], g.shape[2:])
            gw = (g.reshape(len(w), -1) @ cols.T).reshape(w.shape)
            del cols
        return (
            _conv_input_grad(w, g, x.shape, attrs["stride"], attrs["padding"]) if nx else None,
            gw,
            g.sum(axis=(1, 2, 3, 4), keepdims=True) if nb else None,
        )


def _sigmoid(x):
    """1 / (1 + e^-x), with exp taken only of non-positive values."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@_register("gru")
class _Gru:
    """The final hidden state of a gated recurrent unit run from h = 0 over
    T steps. xz, xr, xn (B, T, H) are the input projections of every step,
    biases included; whz, whr, whn (H, H) are the recurrent weights. Step t:

        z = sigmoid(xz_t + h whz), r = sigmoid(xr_t + h whr),
        n = tanh(xn_t + (r h) whn), h <- (1 - z) n + z h.

    The residual holds each step's input state h and its z, r, n and r h.
    The vjp runs backpropagation through time, then takes each recurrent
    weight gradient as one GEMM over all steps (Appleyard et al., arXiv
    1604.01946)."""

    @staticmethod
    def forward(xs, attrs):
        xz, xr, xn, whz, whr, whn = xs
        if xz.ndim != 3 or xr.shape != xz.shape or xn.shape != xz.shape:
            raise ShapeMismatch(
                "gru", "three (B, T, H) input projections", f"{xz.shape}, {xr.shape}, {xn.shape}"
            )
        b, t, hid = xz.shape
        if any(wh.shape != (hid, hid) for wh in (whz, whr, whn)):
            raise ShapeMismatch(
                "gru", f"({hid}, {hid}) recurrent weights", f"{whz.shape}, {whr.shape}, {whn.shape}"
            )
        hs = np.zeros((t + 1, b, hid))
        z, r, n, rh = np.empty((4, t, b, hid))
        for s in range(t):
            h = hs[s]
            z[s] = _sigmoid(xz[:, s] + h @ whz)
            r[s] = _sigmoid(xr[:, s] + h @ whr)
            rh[s] = r[s] * h
            n[s] = np.tanh(xn[:, s] + rh[s] @ whn)
            hs[s + 1] = (1.0 - z[s]) * n[s] + z[s] * h
        return hs[t], (hs, z, r, n, rh)

    @staticmethod
    def vjp(g, xs, out, attrs):
        _, (hs, z, r, n, rh) = out
        _, _, _, whz, whr, whn = xs
        t, _, hid = z.shape
        gz, gr, gn = np.empty((3, *z.shape))
        for s in reversed(range(t)):
            h = hs[s]
            gn[s] = g * (1.0 - z[s]) * (1.0 - n[s] * n[s])
            grh = gn[s] @ whn.T
            gr[s] = grh * h * r[s] * (1.0 - r[s])
            gz[s] = g * (h - n[s]) * z[s] * (1.0 - z[s])
            g = g * z[s] + grh * r[s] + gr[s] @ whr.T + gz[s] @ whz.T
        # each step's gradient for the gate pre-activations, (T, B, H) -> (B, T, H)
        needs = attrs["needs"]
        grads = [
            np.ascontiguousarray(ga.transpose(1, 0, 2)) if need else None
            for ga, need in zip((gz, gr, gn), needs)
        ]
        for ga, state, need in zip((gz, gr, gn), (hs[:-1], hs[:-1], rh), needs[3:]):
            grads.append(state.reshape(-1, hid).T @ ga.reshape(-1, hid) if need else None)
        return tuple(grads)


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


@_register("mean")
class _Mean:
    @staticmethod
    def forward(xs, attrs):
        (x,), axes = xs, attrs["axes"]
        if any(not 0 <= a < x.ndim for a in axes):
            raise ShapeMismatch("mean", f"axes within rank {x.ndim}", f"{axes}")
        return x.mean(axis=axes)

    @staticmethod
    def vjp(g, xs, out, attrs):
        (x,), axes = xs, attrs["axes"]
        scale = 1.0 / np.prod([x.shape[a] for a in axes])
        return (np.broadcast_to(np.expand_dims(g, axes) * scale, x.shape),)


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
        (a, b), (na, nb) = xs, attrs["needs"]
        d = 2.0 * g * (a - b)
        return d if na else None, -d if nb else None


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


def vjp(out, grad):
    """The vector-Jacobian product: gradients of sum(out * grad) with
    respect to the leaves ``out`` reaches, for an output gradient ``grad``
    of ``out``'s shape.

    Returns a map node_id -> gradient Tensor with one entry per
    requires_grad leaf that ``out`` reaches; intermediate gradients are not
    kept. The tape is consumed as it is walked: each tensor drops its op
    record when the walk passes it, so a second walk raises.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != out.shape:
        raise GraphError(
            f"vjp: output gradient of shape {grad.shape} for an output of shape {out.shape}"
        )
    if out.op is None:
        raise GraphError("vjp on an empty graph (the output records no ops)")

    # ``seen`` keeps ids, so a tensor popped from ``order`` is held by nothing here
    order = [out]
    seen = {out.node_id}
    for t in order:
        for inp in t.op.inputs if t.op is not None else ():
            if inp.requires_grad and inp.node_id not in seen:
                seen.add(inp.node_id)
                order.append(inp)
    order.sort(key=lambda v: v.node_id)

    grads = {out.node_id: grad}
    leaf_grads = {}
    while order:
        t = order.pop()
        op, t.op = t.op, None
        g = grads.pop(t.node_id)
        if op is None:
            leaf_grads[t.node_id] = Tensor(g, _checked=True)
            continue
        y = t.data if op.residual is None else (t.data, op.residual)
        needs = tuple(i.requires_grad for i in op.inputs)
        arrays = tuple(i.data for i in op.inputs)
        input_grads = _OPS[op.kind].vjp(g, arrays, y, {**op.attrs, "needs": needs})
        for inp, ig in zip(op.inputs, input_grads):
            if not inp.requires_grad:
                continue
            if inp.node_id in grads:
                grads[inp.node_id] = grads[inp.node_id] + ig
            else:
                grads[inp.node_id] = ig
    return leaf_grads


def backward(loss):
    """Gradients of the scalar ``loss`` with respect to the leaves it
    reaches: ``vjp`` seeded with d(loss)/d(loss) = 1, so it returns the
    same map and consumes the tape the same way."""
    if loss.shape != ():
        raise GraphError(f"backward requires a scalar loss, got shape {loss.shape}")
    return vjp(loss, np.ones(()))


FD_STEP = 1e-5


def rel_err(a, b, floor=1e-8):
    return abs(a - b) / max(abs(a), abs(b), floor)


def central_difference(objective, arrays, key, j, step=FD_STEP):
    """The central-difference derivative of the float ``objective(arrays)``
    in flat element ``j`` of ``arrays[key]``, for a list or dict of arrays.
    Each probe steps a copy of that one array; the others are shared."""

    def probe(h):
        moved = arrays.copy()
        moved[key] = arrays[key].copy()
        moved[key].reshape(-1)[j] += h
        return objective(moved)

    return (probe(step) - probe(-step)) / (2 * step)


def _seeded_inputs(kind, shapes, rng):
    arrays = [rng.standard_normal(s) for s in shapes]
    if kind == "relu":
        # keep inputs away from the kink so the difference quotient is valid
        arrays = [np.where(np.abs(a) < 1e-3, np.sign(a) * 1e-3 + (a == 0) * 1e-3, a) for a in arrays]
    return arrays


def grad_check(kind, shapes, seed, attrs=None):
    """Max relative error of one op's vjp against central differences.

    The op output is contracted to a scalar with fixed random weights, and
    the vjp is seeded with those weights, so every partial derivative of
    that scalar is exercised. Relative error uses max(|analytic|,
    |numeric|, 1e-8) as the denominator.
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
    gmap = vjp(apply(kind, tensors, attrs), weights)
    worst = 0.0
    for idx, (base, t) in enumerate(zip(arrays, tensors)):
        analytic = gmap[t.node_id].data if t.node_id in gmap else np.zeros(base.shape)
        for j, a in enumerate(analytic.reshape(-1)):
            worst = max(worst, rel_err(float(a), central_difference(objective, arrays, idx, j)))
    return worst


# canonical shape/attr cases covering every registered op; the verify
# suite and the tests both run these across seeds
GRADCHECK_SUITE = (
    ("add", ((3, 4), (3, 4)), None),
    ("add", ((3, 4), (4,)), None),
    # a one-channel clip through a first 1x3x3 conv, as both conv models start
    ("conv3d", ((1, 2, 3, 6, 5), (3, 1, 1, 3, 3), (3, 1, 1, 1, 1)),
     {"stride": (1, 2, 2), "padding": (0, 1, 1)}),
    # loss_direct's (B, 1) scores against their targets
    ("squared_error_sum", ((3, 1), (3, 1)), None),
    # attention with fewer key/value tokens than queries, as after kv pooling
    ("pooled_attention", ((2, 6, 4), (2, 3, 4), (2, 3, 4)), {"heads": 2}),
    ("linear", ((3, 4), (4, 2), (2,)), None),
    # (B, N, C) tokens, and patchify's (B, T, H, W, patch) rows
    ("linear", ((2, 3, 4), (4, 2), (2,)), None),
    ("linear", ((2, 2, 1, 3, 4), (4, 3), (3,)), None),
    # micro-cnn-rnn's (C, B, T) frame features to (B, T, C)
    ("permute", ((2, 3, 4),), {"axes": (1, 2, 0)}),
    ("permute", ((2, 3, 4),), {"axes": (2, 0, 1)}),
    # mini-mvit's (B, T, H, W, C) token grid
    ("layer_norm", ((2, 2, 3, 2, 5), (5,), (5,)), None),
    ("layer_norm", ((2, 3, 5), (5,), (5,)), None),
    ("relu", ((8,),), None),
    # one step, and backpropagation through four
    ("gru", ((2, 1, 3), (2, 1, 3), (2, 1, 3), (3, 3), (3, 3), (3, 3)), None),
    ("gru", ((2, 4, 3), (2, 4, 3), (2, 4, 3), (3, 3), (3, 3), (3, 3)), None),
    ("pooled_attention", ((2, 5, 3), (2, 4, 3), (2, 4, 3)), {"heads": 1}),
    ("pooled_attention", ((1, 4, 6), (1, 4, 6), (1, 4, 6)), {"heads": 3}),
    ("layer_norm", ((4,), (4,), (4,)), None),
    ("layer_norm", ((2, 5), (5,), (5,)), None),
    # a full 3x3x3 kernel, strided and padded on every axis
    ("conv3d", ((2, 2, 5, 4, 5), (3, 2, 3, 3, 3), (3, 1, 1, 1, 1)),
     {"stride": (2, 2, 2), "padding": (1, 1, 1)}),
    # a 1x1x3 kernel over a (1, 1, W) volume
    ("conv3d", ((2, 2, 1, 1, 7), (3, 2, 1, 1, 3), (3, 1, 1, 1, 1)),
     {"stride": (1, 1, 2), "padding": (0, 0, 1)}),
    ("avg_pool", ((2, 5, 3),), {"stride": (2,)}),
    ("avg_pool", ((2, 5, 4, 3),), {"stride": (2, 2)}),
    ("avg_pool", ((2, 3, 5, 4, 2),), {"stride": (2, 2, 2)}),
    ("mean", ((2, 3, 4, 5),), {"axes": (1, 2)}),
    # loss_indirect over the 8 activity classes, a class repeated
    ("cross_entropy_logits", ((4, 8),), {"targets": (7, 0, 3, 7)}),
    # r2plus1d's mean over a (C, B, T, H, W) volume's space-time axes
    ("mean", ((2, 3, 2, 3, 2),), {"axes": (2, 3, 4)}),
    ("mean", ((3, 4),), {"axes": (1,)}),
    ("squared_error_sum", ((3, 2), (3, 2)), None),
    ("cross_entropy_logits", ((3, 5),), {"targets": (0, 4, 2)}),
    # a positional table added to every batch item, as patchify does
    ("add", ((2, 3, 4, 5), (3, 4, 5)), None),
    # micro-r2plus1d's temporal 3x1x1 conv at stride 2 over an odd T
    ("conv3d", ((2, 2, 7, 2, 3), (3, 2, 3, 1, 1), (3, 1, 1, 1, 1)),
     {"stride": (2, 1, 1), "padding": (1, 0, 0)}),
    # grid-shaped queries over keys and values pooled to a coarser grid
    ("pooled_attention", ((2, 2, 3, 2, 4), (2, 1, 2, 1, 4), (2, 1, 2, 1, 4)), {"heads": 2}),
)


# convenience wrappers used by the model code -------------------------------


def add(a, b):
    return apply("add", (a, b))


def linear(x, w, b):
    return apply("linear", (x, w, b))


def permute(a, axes):
    return apply("permute", (a,), {"axes": tuple(axes)})


def relu(a):
    return apply("relu", (a,))


def pooled_attention(q, k, v, heads):
    return apply("pooled_attention", (q, k, v), {"heads": int(heads)})


def layer_norm(x, gain, shift):
    return apply("layer_norm", (x, gain, shift))


def conv3d(x, w, b, stride, padding):
    return apply("conv3d", (x, w, b), {"stride": tuple(stride), "padding": tuple(padding)})


def gru(xz, xr, xn, whz, whr, whn):
    return apply("gru", (xz, xr, xn, whz, whr, whn))


def avg_pool(x, stride):
    return apply("avg_pool", (x,), {"stride": tuple(stride)})


def mean(a, axes):
    return apply("mean", (a,), {"axes": tuple(axes)})


def squared_error_sum(a, b):
    return apply("squared_error_sum", (a, b))


def cross_entropy_logits(logits, targets):
    return apply("cross_entropy_logits", (logits,), {"targets": tuple(int(t) for t in targets)})
