import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nascore import autodiff as ad

# a 1x3x3 conv's stride and padding, as both conv models' spatial convs use
CONV_ATTRS = {"stride": (1, 2, 2), "padding": (0, 1, 1)}


def finite_difference(fn, arrays, idx, step=1e-5):
    """Independent central-difference gradient of scalar fn w.r.t. arrays[idx]."""
    base = arrays[idx]
    grad = np.zeros_like(base)
    flat = grad.reshape(-1)
    for j in range(base.size):
        plus = [a.copy() for a in arrays]
        minus = [a.copy() for a in arrays]
        plus[idx].reshape(-1)[j] += step
        minus[idx].reshape(-1)[j] -= step
        flat[j] = (fn(plus) - fn(minus)) / (2 * step)
    return grad


def max_rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def attention_weights(q, k, heads):
    """The (B, heads, Nq, Nk) softmax weights of pooled_attention.

    Each head's slice of v is the Nk x Nk identity (so the head width must
    equal Nk), which makes the context equal to the weights.
    """
    b, nq, _ = q.shape
    nk = k.shape[1]
    v = np.tile(np.eye(nk), (b, 1, heads))
    ctx = ad.pooled_attention(ad.tensor(q), ad.tensor(k), ad.tensor(v), heads).data
    return ctx.reshape(b, nq, heads, nk).transpose(0, 2, 1, 3)


def attention_reference(q, k, v, g, heads):
    """Context of pooled_attention and the gradients of sum(ctx * g), per
    batch item and head: scaled scores, row softmax, hand-derived vjp."""
    d = q.shape[2] // heads
    ctx = np.zeros_like(q)
    gq, gk, gv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
    for b in range(q.shape[0]):
        for h in range(heads):
            cols = slice(h * d, (h + 1) * d)
            qs, ks, vs, gs = q[b][:, cols], k[b][:, cols], v[b][:, cols], g[b][:, cols]
            scores = qs @ ks.T / np.sqrt(d)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            ctx[b][:, cols] = p @ vs
            gp = gs @ vs.T
            gscores = p * (gp - (gp * p).sum(axis=1, keepdims=True)) / np.sqrt(d)
            gq[b][:, cols] = gscores @ ks
            gk[b][:, cols] = gscores.T @ qs
            gv[b][:, cols] = p.T @ gs
    return ctx, gq, gk, gv


def assert_attention_matches_reference(q, k, v, g, heads):
    tq, tk, tv = (ad.tensor(a, requires_grad=True) for a in (q, k, v))
    out = ad.pooled_attention(tq, tk, tv, heads)
    gmap = ad.vjp(out, g)
    got = (out.data, gmap[tq.node_id].data, gmap[tk.node_id].data, gmap[tv.node_id].data)
    for a, expected in zip(got, attention_reference(q, k, v, g, heads)):
        np.testing.assert_allclose(a, expected, rtol=1e-12, atol=1e-12)


def conv_extent(x_shape, kernel, stride, padding):
    """conv3d's output extent (OT, OH, OW) over a 5-D volume ending in (T, H, W)."""
    dims = zip(x_shape[2:], kernel, stride, padding)
    return tuple((n + 2 * p - k) // s + 1 for n, k, s, p in dims)


def conv3d_reference(x, w, g, stride, padding):
    """Output of conv3d and the gradients of sum(out * g), as a plain loop
    over output positions and the three kernel tap axes, batch-first:
    x (B, C, T, H, W) and out, g (B, O, OT, OH, OW)."""
    b = x.shape[0]
    o, _, *kernel = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), *((p, p) for p in padding)))
    outs = conv_extent(x.shape, kernel, stride, padding)
    out = np.zeros((b, o, *outs))
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for i, j, l in np.ndindex(*outs):
        for r, u, v in np.ndindex(*kernel):
            at = (i * stride[0] + r, j * stride[1] + u, l * stride[2] + v)
            pixel = xp[(slice(None), slice(None), *at)]  # (B, C)
            out[:, :, i, j, l] += pixel @ w[:, :, r, u, v].T
            gw[:, :, r, u, v] += g[:, :, i, j, l].T @ pixel
            gxp[(slice(None), slice(None), *at)] += g[:, :, i, j, l] @ w[:, :, r, u, v]
    inner = tuple(slice(p, p + n) for p, n in zip(padding, x.shape[2:]))
    return out, gxp[(slice(None), slice(None), *inner)], gw


def assert_conv3d_matches_loop_reference(x_shape, w_shape, stride, padding):
    """conv3d (conv, bias, ReLU) and its vjp against the batch-first loop
    reference with the bias and ReLU applied around it, with
    x (B, C, T, H, W) and g transposed into and out of the channel-major op."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal(x_shape)
    w = rng.standard_normal(w_shape)
    b = rng.standard_normal(w_shape[0])
    swap = (1, 0, 2, 3, 4)
    tx = ad.tensor(x.transpose(swap), requires_grad=True)
    tw = ad.tensor(w, requires_grad=True)
    tb = ad.tensor(b.reshape(-1, 1, 1, 1, 1), requires_grad=True)
    out = ad.conv3d(tx, tw, tb, stride, padding)
    g = rng.standard_normal(out.shape)
    gmap = ad.vjp(out, g)
    got = (
        out.data.transpose(swap),
        gmap[tx.node_id].data.transpose(swap),
        gmap[tw.node_id].data,
        gmap[tb.node_id].data.reshape(-1),
    )
    g = g.transpose(swap)
    conv, _, _ = conv3d_reference(x, w, g, stride, padding)
    pre = conv + b[:, None, None, None]
    # the ReLU passes the output gradient where the pre-activation is positive
    g_pre = g * (pre > 0.0)
    _, gx, gw = conv3d_reference(x, w, g_pre, stride, padding)
    expected = (np.maximum(pre, 0.0), gx, gw, g_pre.sum(axis=(0, 2, 3, 4)))
    for a, ref in zip(got, expected):
        np.testing.assert_allclose(a, ref, rtol=1e-12, atol=1e-12)


def unfold_loop(x, kernel, stride, padding):
    """The (C*kt*kh*kw, B*OT*OH*OW) window matrix of x (C, B, T, H, W),
    built one kernel tap (r, u, v) at a time from strided slices of the
    zero-padded volume."""
    (kt, kh, kw), (st, sh, sw), (pt, ph, pw) = kernel, stride, padding
    ot, oh, ow = conv_extent(x.shape, kernel, stride, padding)
    et, eh, ew = st * ot, sh * oh, sw * ow
    c, b, t, h, w = x.shape
    xp = np.zeros((c, b, t + 2 * pt, h + 2 * ph, w + 2 * pw))
    xp[:, :, pt : pt + t, ph : ph + h, pw : pw + w] = x
    cols = np.empty((c, kt, kh, kw, b, ot, oh, ow))
    for r in range(kt):
        for u in range(kh):
            for v in range(kw):
                cols[:, r, u, v] = xp[:, :, r : r + et : st, u : u + eh : sh, v : v + ew : sw]
    return cols.reshape(c * kt * kh * kw, b * ot * oh * ow)


def fold_loop(taps, x_shape, kernel, stride, padding):
    """The adjoint of unfold_loop: each tap's (C, B, OT, OH, OW) slice of the
    (C*kt*kh*kw, B*OT*OH*OW) matrix ``taps`` adds onto the strided positions
    of the zero-padded volume it read, taps in kernel order; returns the
    interior."""
    (kt, kh, kw), (st, sh, sw), (pt, ph, pw) = kernel, stride, padding
    ot, oh, ow = conv_extent(x_shape, kernel, stride, padding)
    et, eh, ew = st * ot, sh * oh, sw * ow
    c, b, t, h, wd = x_shape
    taps = taps.reshape(c, kt, kh, kw, b, ot, oh, ow)
    gxp = np.zeros((c, b, t + 2 * pt, h + 2 * ph, wd + 2 * pw))
    for r in range(kt):
        for u in range(kh):
            for v in range(kw):
                gxp[:, :, r : r + et : st, u : u + eh : sh, v : v + ew : sw] += taps[:, r, u, v]
    return gxp[:, :, pt : pt + t, ph : ph + h, pw : pw + wd]


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_unfold_and_fold_match_loops(shapes, attrs):
    """conv3d's unfold and fold equal the per-tap loops bit for bit, and the
    fold is the unfold's adjoint: <unfold(x), c> = <x, fold(c)>."""
    rng = np.random.default_rng(3)
    x, w = rng.standard_normal(shapes[0]), rng.standard_normal(shapes[1])
    kernel, stride, padding = w.shape[2:], attrs["stride"], attrs["padding"]
    g = rng.standard_normal((len(w), x.shape[1], *conv_extent(x.shape, kernel, stride, padding)))
    cols = ad._conv_cols(x, kernel, stride, padding)
    assert_same_bits(cols, unfold_loop(x, kernel, stride, padding))
    # the fold's input, computed as the op's vjp computes it
    taps = w.reshape(len(w), -1).T @ g.reshape(len(w), -1)
    gx = ad._conv_input_grad(w, g, x.shape, stride, padding)
    assert_same_bits(gx, fold_loop(taps, x.shape, kernel, stride, padding))
    assert ad.rel_err(np.vdot(cols, taps), np.vdot(x, gx)) < 1e-12


def gru_reference(xz, xr, xn, whz, whr, whn):
    """The final hidden state of the GRU recurrence as a plain loop over
    steps, with sigmoid and tanh written out."""
    def sigmoid(a):
        return 1.0 / (1.0 + np.exp(-a))

    h = np.zeros((xz.shape[0], xz.shape[2]))
    for t in range(xz.shape[1]):
        z = sigmoid(xz[:, t] + h @ whz)
        r = sigmoid(xr[:, t] + h @ whr)
        n = np.tanh(xn[:, t] + (r * h) @ whn)
        h = (1.0 - z) * n + z * h
    return h


class TestForwardValues:
    def test_matmul_identity(self):
        # linear's matmul with the identity, and a zero bias, returns x
        a = ad.tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = ad.tensor(np.eye(2))
        np.testing.assert_array_equal(ad.linear(a, eye, ad.tensor(np.zeros((2,)))).data, a.data)

    # "stage0" is mini-mvit's first stage at 72x96: 3 clips of 3456 tokens,
    # 16 wide, long enough for a change in summation order to show
    @pytest.mark.parametrize("x_shape", [(5, 4), (2, 3, 4), (3, 3456, 16)],
                             ids=["2d", "3d", "stage0"])
    def test_linear_matches_numpy_composition(self, x_shape):
        rng = np.random.default_rng(14)
        c = x_shape[-1]
        x, w, b = (rng.standard_normal(s) for s in (x_shape, (c, 3), (3,)))
        tensors = [ad.tensor(a, requires_grad=True) for a in (x, w, b)]
        out = ad.linear(*tensors)
        g = rng.standard_normal(out.shape)
        gmap = ad.vjp(out, g)
        rows, g_rows = x.reshape(-1, c), g.reshape(-1, 3)
        expected = (x @ w + b, g @ w.T, rows.T @ g_rows, g_rows.sum(axis=0))
        got = (out.data, *(gmap[t.node_id].data for t in tensors))
        for a, ref in zip(got, expected):
            np.testing.assert_allclose(a, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("x_shape", [(2, 3, 5), (3, 3456, 16)], ids=["3d", "stage0"])
    def test_layer_norm_matches_numpy_composition(self, x_shape):
        rng = np.random.default_rng(15)
        c = x_shape[-1]
        x, gain, shift = (rng.standard_normal(s) for s in (x_shape, (c,), (c,)))
        tensors = [ad.tensor(a, requires_grad=True) for a in (x, gain, shift)]
        out = ad.layer_norm(*tensors)
        g = rng.standard_normal(out.shape)
        gmap = ad.vjp(out, g)
        xc = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
        xhat = xc * inv
        gh = g * gain
        gx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                    - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
        expected = (xhat * gain + shift, gx, (g * xhat).sum(axis=(0, 1)), g.sum(axis=(0, 1)))
        got = (out.data, *(gmap[t.node_id].data for t in tensors))
        for a, ref in zip(got, expected):
            np.testing.assert_allclose(a, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("steps", [1, 4, 16])
    def test_gru_matches_numpy_loop(self, steps):
        rng = np.random.default_rng(16)
        arrays = [rng.standard_normal((3, steps, 5)) for _ in range(3)]
        arrays += [rng.standard_normal((5, 5)) * 0.5 for _ in range(3)]
        out = ad.gru(*(ad.tensor(a) for a in arrays)).data
        np.testing.assert_allclose(out, gru_reference(*arrays), rtol=1e-12, atol=1e-12)

    def test_gru_saturated_gates_stay_finite(self):
        # gate inputs of +-800 would overflow exp(-x) in a naive sigmoid;
        # saturated gates copy the state (z = 1) or take n = +-1 (z = 0)
        x = np.array([[[800.0, -800.0]]])
        zero = ad.tensor(np.zeros((2, 2)))
        held = ad.gru(ad.tensor(np.full_like(x, 800.0)), ad.tensor(x), ad.tensor(x), zero, zero, zero)
        np.testing.assert_array_equal(held.data, [[0.0, 0.0]])
        taken = ad.gru(ad.tensor(np.full_like(x, -800.0)), ad.tensor(x), ad.tensor(x), zero, zero, zero)
        np.testing.assert_array_equal(taken.data, [[1.0, -1.0]])

    def test_relu(self):
        out = ad.relu(ad.tensor([-1.0, 0.0, 2.5]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.5])

    def test_softmax_symmetry(self):
        # equal keys get equal weights, so every query reads the mean of v
        rng = np.random.default_rng(5)
        q = rng.standard_normal((2, 3, 4))
        k = np.broadcast_to(rng.standard_normal((2, 1, 4)), (2, 4, 4))
        v = rng.integers(-8, 8, size=(2, 4, 4)).astype(float)
        out = ad.pooled_attention(ad.tensor(q), ad.tensor(k), ad.tensor(v), heads=2)
        expected = np.broadcast_to(v.mean(axis=1, keepdims=True), (2, 3, 4))
        np.testing.assert_array_equal(out.data, expected)

    def test_conv2d_ones(self):
        # a 3x3 frame of ones convolved with a 1x2x2 kernel of ones: every
        # window sums 4, and the bias of -1 leaves 3 after the ReLU
        x = ad.tensor(np.ones((1, 1, 1, 3, 3)))
        w = ad.tensor(np.ones((1, 1, 1, 2, 2)))
        b = ad.tensor(np.full((1, 1, 1, 1, 1), -1.0))
        out = ad.conv3d(x, w, b, stride=(1, 1, 1), padding=(0, 0, 0))
        np.testing.assert_array_equal(out.data, np.full((1, 1, 1, 2, 2), 3.0))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_height_one_conv2d_is_1d_correlation(self, stride):
        # a 1x1xk kernel over a one-frame (1, 1, T) volume; conv3d is
        # channel-major, so x goes in as (C, B, 1, 1, T) and the output comes
        # back as (O, B, 1, 1, T'), through a zero bias and the ReLU
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 1, 1, 7))
        w = rng.standard_normal((4, 3, 1, 1, 3))
        tx = ad.tensor(x.transpose(1, 0, 2, 3, 4))
        b = ad.tensor(np.zeros((4, 1, 1, 1, 1)))
        out = ad.conv3d(tx, ad.tensor(w), b, stride=(1, 1, stride), padding=(0, 0, 1)).data
        out = out.transpose(1, 0, 2, 3, 4)[:, :, 0]
        xp = np.pad(x[:, :, 0, 0], ((0, 0), (0, 0), (1, 1)))
        n_out = (7 + 2 - 3) // stride + 1
        expected = np.zeros((2, 4, n_out))
        for b in range(2):
            for o in range(4):
                for j in range(n_out):
                    window = xp[b, :, j * stride : j * stride + 3]
                    expected[b, o, j] = max(np.sum(window * w[o, :, 0, 0]), 0.0)
        assert out.shape == (2, 4, 1, n_out)
        np.testing.assert_allclose(out[:, :, 0], expected, rtol=1e-12, atol=1e-12)

    def test_cross_entropy_matches_log_softmax(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((4, 8))
        targets = [1, 0, 7, 3]
        loss = ad.cross_entropy_logits(ad.tensor(logits), targets)
        expected = 0.0
        for row, t in zip(logits, targets):
            p = np.exp(row - row.max())
            p /= p.sum()
            expected -= np.log(p[t])
        assert abs(loss.item() - expected) < 1e-12

    def test_avg_pool_ceil_mode(self):
        # extent 5 under stride 2 -> windows [0,1], [2,3], [4]; last averages 1 value
        x = ad.tensor(np.arange(5, dtype=float).reshape(1, 5, 1))
        out = ad.avg_pool(x, stride=(2,))
        np.testing.assert_allclose(out.data[0, :, 0], [0.5, 2.5, 4.0])

    def test_determinism(self):
        rng = np.random.default_rng(0)
        q, k, v = (ad.tensor(rng.standard_normal((2, n, 6))) for n in (5, 3, 3))
        a = ad.pooled_attention(q, k, v, heads=2).data
        b = ad.pooled_attention(q, k, v, heads=2).data
        np.testing.assert_array_equal(a, b)

    # "stage0" is mini-mvit's first stage at 72x96: 2 heads of width 8 and
    # 3456 queries over the 72 pooled keys, so each row sum runs 72 wide
    @pytest.mark.parametrize("b,nq,nk,d", [(2, 5, 4, 3), (3, 3456, 72, 8)], ids=["3d", "stage0"])
    def test_pooled_attention_matches_numpy_composition(self, b, nq, nk, d):
        rng = np.random.default_rng(6)
        heads = 2
        q = rng.standard_normal((b, nq, heads * d))
        k = rng.standard_normal((b, nk, heads * d))
        v = rng.standard_normal((b, nk, heads * d))
        g = rng.standard_normal((b, nq, heads * d))
        assert_attention_matches_reference(q, k, v, g, heads)

    def test_grid_shaped_attention_equals_the_flattened_call(self):
        # q on a (2, 4, 3) grid over k, v pooled to (1, 2, 2): the output and
        # every gradient are the (B, N, C) call's, bit for bit, in grid shape
        rng = np.random.default_rng(11)
        q, g = rng.standard_normal((2, 2, 2, 4, 3, 6))
        k, v = rng.standard_normal((2, 2, 1, 2, 2, 6))
        results = []
        for shape in (lambda a: a, lambda a: a.reshape(2, -1, 6)):
            tq, tk, tv = (ad.tensor(shape(a), requires_grad=True) for a in (q, k, v))
            out = ad.pooled_attention(tq, tk, tv, heads=2)
            gmap = ad.vjp(out, shape(g))
            results.append([out.data] + [gmap[t.node_id].data for t in (tq, tk, tv)])
        for grid, flat, x in zip(*results, (q, q, k, v)):
            assert grid.shape == x.shape
            assert grid.tobytes() == flat.tobytes()

    @pytest.mark.parametrize("b,heads,nq,nk", [(1, 1, 200, 2048), (2, 2, 131, 1024)])
    def test_pooled_attention_across_query_tiles(self, b, heads, nq, nk):
        # 2048 keys at B = heads = 1 give 64-row tiles, so 200 queries take
        # three full tiles and a ragged one of 8 rows; (2, 2, 131, 1024)
        # gives 32-row tiles and a ragged tile of 3
        rows = ad.ATTENTION_TILE_BYTES // (8 * b * heads * nk)
        assert nq > rows and nq % rows != 0
        rng = np.random.default_rng(10)
        q = rng.standard_normal((b, nq, heads * 4))
        k, v = (rng.standard_normal((b, nk, heads * 4)) for _ in range(2))
        g = rng.standard_normal(q.shape)
        assert_attention_matches_reference(q, k, v, g, heads)

    @pytest.mark.parametrize("kernel", [(3, 3), (1, 3)], ids=["3x3", "1x3"])
    @pytest.mark.parametrize("padding", [(0, 0), (1, 1), (0, 1)], ids=str)
    @pytest.mark.parametrize("stride", [(1, 1), (2, 2), (1, 2)], ids=str)
    def test_conv2d_matches_loop_reference(self, stride, padding, kernel):
        # a 1 x kh x kw kernel convolves each of three frames in 2D, with
        # the (H, W) stride and padding of the case
        assert_conv3d_matches_loop_reference(
            (2, 3, 3, 5, 7), (4, 3, 1, *kernel), (1, *stride), (0, *padding)
        )

    @pytest.mark.parametrize("frames", [7, 8])
    def test_temporal_conv2d_matches_loop_reference(self, frames):
        # micro-r2plus1d's temporal conv: a 3x1x1 kernel at stride (2, 1, 1),
        # padding (1, 0, 0); an odd T leaves a ragged last window
        assert_conv3d_matches_loop_reference(
            (2, 3, frames, 2, 3), (4, 3, 3, 1, 1), (2, 1, 1), (1, 0, 0)
        )

    @pytest.mark.parametrize("stride,padding", [
        ((2, 2, 2), (1, 1, 1)), ((2, 1, 2), (1, 1, 0)), ((1, 2, 3), (2, 0, 1)),
    ], ids=str)
    @pytest.mark.parametrize("frames", [7, 8])
    @pytest.mark.parametrize(
        "kernel", [(1, 3, 3), (3, 1, 1), (3, 3, 3)], ids=["1x3x3", "3x1x1", "3x3x3"]
    )
    def test_conv3d_matches_loop_reference(self, kernel, frames, stride, padding):
        # stride and padding on every axis, over odd and even T
        assert_conv3d_matches_loop_reference(
            (2, 3, frames, 5, 6), (4, 3, *kernel), stride, padding
        )

    @pytest.mark.parametrize(
        "shapes,attrs", [(shapes, attrs) for kind, shapes, attrs in ad.GRADCHECK_SUITE
                         if kind == "conv3d"]
    )
    def test_unfold_and_fold_match_loops_on_suite_cases(self, shapes, attrs):
        assert_unfold_and_fold_match_loops(shapes, attrs)

    @pytest.mark.parametrize("variant", ["micro-r2plus1d", "micro-cnn-rnn"])
    def test_unfold_and_fold_match_loops_on_model_layers(self, monkeypatch, variant):
        # every conv layer of the default model at the 24x32 smoke size
        from nascore import models

        layers = []
        apply = ad.apply

        def spy(kind, inputs, attrs=None):
            if kind == "conv3d":
                layers.append(([t.shape for t in inputs], attrs))
            return apply(kind, inputs, attrs)

        monkeypatch.setattr(ad, "apply", spy)
        model = models.build_model(models.default_config(variant, models.CLASSIFY_HEAD, (24, 32)))
        model.forward(ad.tensor(np.zeros((3, models.N_FRAMES, 24, 32))))
        assert len(layers) == {"micro-r2plus1d": 6, "micro-cnn-rnn": 2}[variant]
        for shapes, attrs in layers:
            assert_unfold_and_fold_match_loops(shapes, attrs)

    @pytest.mark.parametrize("shapes,attrs", [
        (((2, 2, 3, 4, 5), (3, 2, 2, 2, 3)), {"stride": (1, 2, 1), "padding": (0, 0, 0)}),
        (((2, 2, 3, 4, 5), (3, 2, 2, 2, 3)), {"stride": (1, 2, 1), "padding": (2, 3, 3)}),
        # T and H of 1 under stride 2: taps 0 and 2 of either read only padding
        (((2, 2, 1, 1, 3), (3, 2, 3, 3, 3)), {"stride": (2, 2, 2), "padding": (1, 1, 1)}),
    ], ids=["unpadded", "padding-wider-than-kernel", "extent-below-stride"])
    def test_unfold_and_fold_match_loops_on_edge_cases(self, shapes, attrs):
        assert_unfold_and_fold_match_loops(shapes, attrs)
        _, copies, _ = ad._conv_plan(shapes[0], shapes[1][2:], attrs["stride"], attrs["padding"])
        # a negative start would wrap around to the far end of the axis
        assert all(0 <= read.start < read.stop for src, _ in copies for read in src[2:])

    def test_tap_reading_only_padding_is_zeroed_and_skipped(self):
        x_shape, kernel, stride, padding = (2, 2, 1, 1, 3), (3, 3, 3), (2, 2, 2), (1, 1, 1)
        _, copies, zeros = ad._conv_plan(x_shape, kernel, stride, padding)
        # only taps (1, 1, v) read x: T and H have one element each
        assert [dst[1] for _, dst in copies] == [12, 13, 14]
        whole = {dst[1] for dst in zeros if dst[3:] == (slice(None),) * 3}
        assert whole == set(range(27)) - {12, 13, 14}


class TestErrors:
    def test_unknown_kind(self):
        with pytest.raises(ad.UnknownOpError):
            ad.apply("frobnicate", (ad.tensor([1.0]),))

    def test_shape_mismatch_reports_both(self):
        ones = ad.tensor(np.ones((2, 3)))
        with pytest.raises(ad.ShapeMismatch) as exc:
            ad.linear(ones, ones, ad.tensor(np.zeros(3)))
        assert "expected" in str(exc.value)

    @pytest.mark.parametrize("kind,shapes,attrs,expected", [
        ("linear", ((3,), (3, 2), (2,)), None, r"\(\.\.\., C\) input"),
        ("linear", ((4, 3), (2, 2), (2,)), None, r"\(\.\.\., C\) input"),
        ("linear", ((4, 3), (3, 2), (3,)), None, r"bias of shape \(2,\)"),
        ("layer_norm", ((2, 5), (4,), (5,)), None, r"\(C,\) gain and shift"),
        ("layer_norm", ((2, 5), (5,), (1, 5)), None, r"\(C,\) gain and shift"),
        ("conv3d", ((2, 1, 1, 5, 5), (3, 2, 1, 3, 3), (3,)), CONV_ATTRS,
         r"bias of shape \(3, 1, 1, 1, 1\)"),
        ("conv3d", ((2, 1, 5, 5), (3, 2, 1, 3, 3), (3, 1, 1, 1, 1)), CONV_ATTRS,
         r"\(C,B,T,H,W\) and \(O,C,kt,kh,kw\)"),
        ("conv3d", ((2, 1, 1, 5, 5), (3, 2, 3, 3), (3, 1, 1, 1, 1)), CONV_ATTRS,
         r"\(C,B,T,H,W\) and \(O,C,kt,kh,kw\)"),
        ("conv3d", ((3, 1, 1, 5, 5), (3, 2, 1, 3, 3), (3, 1, 1, 1, 1)), CONV_ATTRS,
         r"2 input channels"),
        # a 3x1x1 kernel over one unpadded frame leaves no output frame
        ("conv3d", ((2, 1, 1, 5, 5), (3, 2, 3, 1, 1), (3, 1, 1, 1, 1)),
         {"stride": (1, 1, 1), "padding": (0, 0, 0)}, r"positive output extent.*-1x5x5"),
        ("gru", ((2, 4, 3), (2, 4, 3), (2, 3, 3), (3, 3), (3, 3), (3, 3)), None,
         r"three \(B, T, H\) input projections"),
        ("gru", ((2, 4, 3), (2, 4, 3), (2, 4, 3), (3, 3), (3, 2), (3, 3)), None,
         r"\(3, 3\) recurrent weights"),
        # caught before the output extent divides by the stride
        ("conv3d", ((2, 1, 1, 5, 5), (3, 2, 1, 3, 3), (3, 1, 1, 1, 1)),
         {"stride": (1, 0, 2), "padding": (0, 1, 1)}, r"three positive strides.*\(1, 0, 2\)"),
        ("conv3d", ((2, 1, 1, 5, 5), (3, 2, 1, 3, 3), (3, 1, 1, 1, 1)),
         {"stride": (1, 2, 2), "padding": (0, -1, 1)},
         r"three non-negative paddings.*\(0, -1, 1\)"),
        # zip would drop the third axis of the kernel
        ("conv3d", ((2, 1, 1, 5, 5), (3, 2, 1, 3, 3), (3, 1, 1, 1, 1)),
         {"stride": (1, 2), "padding": (0, 1, 1)}, r"three positive strides.*\(1, 2\)"),
    ], ids=["linear-rank", "linear-width", "linear-bias", "layer_norm-gain", "layer_norm-shift",
            "conv3d-bias", "conv3d-input-rank", "conv3d-weight-rank", "conv3d-channels",
            "conv3d-extent", "gru-inputs", "gru-weights", "conv3d-stride", "conv3d-padding",
            "conv3d-stride-count"])
    def test_fused_op_shapes(self, kind, shapes, attrs, expected):
        with pytest.raises(ad.ShapeMismatch, match=expected):
            ad.apply(kind, [ad.tensor(np.ones(s)) for s in shapes], attrs)

    @pytest.mark.parametrize("shapes,heads,expected", [
        (((2, 3), (2, 3, 4), (2, 3, 4)), 2, r"\(B, \.\.\., C\) q, k, v"),
        (((2, 3, 4), (1, 3, 4), (1, 3, 4)), 2, "batch 2 and width 4"),
        (((2, 3, 4), (2, 3, 6), (2, 3, 6)), 2, "batch 2 and width 4"),
        (((2, 3, 4), (2, 3, 4), (2, 2, 4)), 2, r"v of k's shape \(2, 3, 4\)"),
        (((2, 3, 6), (2, 3, 6), (2, 3, 6)), 4, "width divisible by 4 heads"),
    ], ids=["rank", "batch", "width", "tokens", "heads"])
    def test_pooled_attention_shapes(self, shapes, heads, expected):
        q, k, v = (ad.tensor(np.ones(s)) for s in shapes)
        with pytest.raises(ad.ShapeMismatch, match=expected):
            ad.pooled_attention(q, k, v, heads)

    def test_mean_axes_out_of_range(self):
        x = ad.tensor(np.ones((2, 3)))
        for axes in ((2,), (-1,), (0, 5)):
            with pytest.raises(ad.ShapeMismatch, match="axes within rank 2"):
                ad.mean(x, axes=axes)

    def test_non_finite_input(self):
        with pytest.raises(ad.NonFiniteError):
            ad.tensor([1.0, np.inf])

    def test_overflow_guard(self):
        big = ad.tensor(np.full((2,), 1e308))
        with pytest.raises(ad.NonFiniteError):
            ad.add(big, big)

    def test_backward_non_scalar(self):
        x = ad.tensor([1.0, 2.0], requires_grad=True)
        y = ad.relu(x)
        with pytest.raises(ad.GraphError):
            ad.backward(y)

    def test_backward_empty_graph(self):
        x = ad.tensor(3.0, requires_grad=True)
        with pytest.raises(ad.GraphError):
            ad.backward(x)

    def test_graph_consumed_after_backward(self):
        x = ad.tensor(2.0, requires_grad=True)
        loss = ad.add(x, x)
        ad.backward(loss)
        with pytest.raises(ad.GraphError):
            ad.backward(loss)

    @pytest.mark.parametrize("grad_shape", [(), (2,), (3, 1)], ids=str)
    def test_vjp_output_gradient_of_another_shape(self, grad_shape):
        y = ad.relu(ad.tensor(np.ones((3, 2)), requires_grad=True))
        with pytest.raises(ad.GraphError, match=r"output gradient of shape .* shape \(3, 2\)"):
            ad.vjp(y, np.ones(grad_shape))


class TestBackward:
    def test_vjp_hands_the_output_gradient_to_the_leaves(self):
        # add passes its output gradient to both inputs, the broadcast one
        # summed over the axes it was broadcast along
        rng = np.random.default_rng(1)
        x = ad.tensor(rng.standard_normal((2, 3)), requires_grad=True)
        y = ad.tensor(rng.standard_normal(3), requires_grad=True)
        g = rng.standard_normal((2, 3))
        gmap = ad.vjp(ad.add(x, y), g)
        np.testing.assert_array_equal(gmap[x.node_id].data, g)
        np.testing.assert_array_equal(gmap[y.node_id].data, g.sum(axis=0))

    def test_layer_norm_matches_finite_differences(self):
        # a plain sum of normalized values is identically zero (the
        # residuals cancel), so weight the sum to get a nontrivial loss
        rng = np.random.default_rng(7)
        xv = rng.standard_normal(4)
        wv = rng.standard_normal(4)
        x = ad.tensor(xv, requires_grad=True)
        normed = ad.layer_norm(x, ad.tensor(np.ones(4)), ad.tensor(np.zeros((4,))))
        gmap = ad.vjp(normed, wv)

        def fn(arrs):
            v = arrs[0]
            mu = v.mean()
            var = ((v - mu) ** 2).mean()
            return float((((v - mu) / np.sqrt(var + 1e-5)) * wv).sum())

        oracle = finite_difference(fn, [xv], 0)
        assert max_rel_err(gmap[x.node_id].data, oracle) < 1e-4

    def test_layer_norm_plain_sum_gradient_is_zero(self):
        rng = np.random.default_rng(8)
        x = ad.tensor(rng.standard_normal(4), requires_grad=True)
        gmap = ad.vjp(ad.layer_norm(x, ad.tensor(np.ones(4)), ad.tensor(np.zeros(4))), np.ones(4))
        np.testing.assert_allclose(gmap[x.node_id].data, 0.0, atol=1e-12)

    def test_gradient_map_keys_are_node_ids(self):
        # x fans out to both inputs of add, so its gradient is 2 g
        x = ad.tensor([2.0, -1.0], requires_grad=True)
        y = ad.add(x, x)
        gmap = ad.vjp(y, np.array([2.0, -1.0]))
        assert set(gmap) == {x.node_id} and not hasattr(x, "grad")
        np.testing.assert_array_equal(gmap[x.node_id].data, [4.0, -2.0])

    def test_leaf_unreached_without_requires_grad(self):
        x = ad.tensor([1.0, 2.0], requires_grad=False)
        y = ad.tensor([3.0, 4.0], requires_grad=True)
        gmap = ad.vjp(ad.add(x, y), np.array([1.0, 2.0]))
        assert x.node_id not in gmap
        np.testing.assert_array_equal(gmap[y.node_id].data, [1.0, 2.0])

    def test_conv2d_builds_no_input_gradient_x_does_not_need(self, monkeypatch):
        # the clip at a model's first (1x3x3, so 2D) conv needs no gradient:
        # backward says so through the vjp's attrs["needs"], and the taps
        # are never scattered
        needs, scatters = [], []
        vjp, scatter = ad._Conv3d.vjp, ad._conv_input_grad

        def spy_vjp(g, xs, out, attrs):
            needs.append(attrs["needs"])
            return vjp(g, xs, out, attrs)

        def spy_scatter(*args):
            scatters.append(args)
            return scatter(*args)

        monkeypatch.setattr(ad._Conv3d, "vjp", staticmethod(spy_vjp))
        monkeypatch.setattr(ad, "_conv_input_grad", spy_scatter)
        rng = np.random.default_rng(13)
        x = ad.tensor(rng.standard_normal((2, 3, 2, 5, 5)))
        w = ad.tensor(rng.standard_normal((4, 2, 1, 3, 3)), requires_grad=True)
        b = ad.tensor(np.zeros((4, 1, 1, 1, 1)))
        out = ad.conv3d(x, w, b, (1, 2, 2), (0, 1, 1))
        gmap = ad.vjp(out, np.ones(out.shape))
        assert needs == [(False, True, False)] and scatters == []
        assert set(gmap) == {w.node_id}
        # grad_check asks for every input, so it still checks the scatter
        attrs = {"stride": (1, 2, 2), "padding": (0, 1, 1)}
        shapes = ((2, 2, 2, 5, 5), (3, 2, 1, 3, 3), (3, 1, 1, 1, 1))
        err = ad.grad_check("conv3d", shapes, seed=0, attrs=attrs)
        assert needs[1:] == [(True, True, True)] and len(scatters) == 1
        assert err < 1e-4

    def test_backward_frees_the_tape_as_it_walks(self):
        # a 20-op chain of 1.6 MB activations (linear, then relu, ten times):
        # keeping every intermediate gradient until the walk ends allocates
        # about 20 activations, while freeing each once its vjp has run
        # allocates about 3
        x = ad.tensor(np.linspace(-1.0, 1.0, 200_000).reshape(-1, 2), requires_grad=True)
        w = ad.tensor([[0.8, -0.6], [0.6, 0.8]])
        b = ad.tensor([0.1, 0.1])
        y = x
        for _ in range(10):
            y = ad.relu(ad.linear(y, w, b))
        loss = ad.mean(y, (0, 1))
        tracemalloc.start()
        try:
            gmap = ad.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert set(gmap) == {x.node_id}
        assert peak < 5 * x.data.nbytes

    def test_constant_subgraph_not_recorded(self):
        a = ad.tensor([1.0])
        b = ad.tensor([2.0])
        out = ad.add(a, b)
        assert out.op is None and not out.requires_grad

    def test_pooled_attention_residual_lives_on_the_node(self):
        rng = np.random.default_rng(9)
        arrays = [rng.standard_normal((1, n, 4)) for n in (6, 5, 5)]
        out = ad.pooled_attention(*(ad.tensor(a) for a in arrays), heads=2)
        assert out.op is None and not out.requires_grad
        q = ad.tensor(arrays[0], requires_grad=True)
        out = ad.pooled_attention(q, *(ad.tensor(a) for a in arrays[1:]), heads=2)
        # heads, k^T and the log-sum-exp rows: no array holds whole (Nq, Nk)
        # weight blocks
        residual = out.op.residual
        assert residual and all(r.size % (6 * 5) for r in residual)
        gmap = ad.vjp(out, np.ones(out.shape))
        assert out.op is None and gmap[q.node_id].shape == (1, 6, 4)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_pooled_attention_leaves_its_inputs_unchanged(self, heads):
        # grad_check hands the registry writable arrays; at one head the
        # split q heads are a view of q, so scaling them in place would
        # rewrite the caller's q
        rng = np.random.default_rng(19)
        q, k, v = (rng.standard_normal((2, n, 4)) for n in (5, 3, 3))
        g = rng.standard_normal(q.shape)
        before = [a.copy() for a in (q, k, v, g)]
        assert all(a.flags.writeable for a in (q, k, v, g))
        op, attrs = ad._OPS["pooled_attention"], {"heads": heads}
        out = op.forward((q, k, v), attrs)
        op.vjp(g, (q, k, v), out, {**attrs, "needs": (True, True, True)})
        for a, copy in zip((q, k, v, g), before):
            np.testing.assert_array_equal(a, copy)

    def test_pooled_attention_holds_no_full_weight_array(self):
        # stage-0-like: 3456 queries over 864 keys, so one (B, heads, Nq, Nk)
        # float64 weight array is 48 MB; the forward and backward together
        # must peak below it, because the weights live one query tile at a time
        b, heads, nq, nk = 1, 2, 3456, 864
        rng = np.random.default_rng(12)
        q = ad.tensor(rng.standard_normal((b, nq, heads * 8)), requires_grad=True)
        k, v = (ad.tensor(rng.standard_normal((b, nk, heads * 8)), requires_grad=True)
                for _ in range(2))
        g = rng.standard_normal(q.shape)
        tracemalloc.start()
        try:
            gmap = ad.vjp(ad.pooled_attention(q, k, v, heads), g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert set(gmap) == {q.node_id, k.node_id, v.node_id}
        assert peak < 8 * b * heads * nq * nk

    def test_conv3d_unfold_and_fold_allocate_no_padded_volume(self):
        # micro-r2plus1d's b1.spatial at 72x96, batch 3: the unfold allocates
        # only its window matrix, and the fold only w.T @ g and the gradient,
        # plus the (at most three) buffers numpy's ufunc iterator holds for a
        # `+=` through a strided slice; a padded copy of x would add 0.53 MB
        rng = np.random.default_rng(23)
        x, w = rng.standard_normal((8, 3, 16, 36, 48)), rng.standard_normal((16, 8, 1, 3, 3))
        g = rng.standard_normal((16, 3, 16, 18, 24))
        kernel, stride, padding = (1, 3, 3), (1, 2, 2), (0, 1, 1)
        window_bytes = 8 * 9 * g[0].nbytes
        peaks = []
        for call in (lambda: ad._conv_cols(x, kernel, stride, padding),
                     lambda: ad._conv_input_grad(w, g, x.shape, stride, padding)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.01 * window_bytes
        assert peaks[1] <= 1.01 * (window_bytes + x.nbytes) + 3 * np.getbufsize() * 8


class TestGradCheck:
    def test_relu_clean_inputs(self):
        assert ad.grad_check("relu", [(8,)], seed=1) < 1e-6

    def test_matmul_example(self):
        # linear's x @ w + b
        assert ad.grad_check("linear", [(3, 4), (4, 2), (2,)], seed=1) < 1e-4

    def test_softmax_example(self):
        # the attention softmax, its scale and both matmuls, in one op
        err = ad.grad_check("pooled_attention", [(1, 3, 4), (1, 5, 4), (1, 5, 4)], seed=2,
                            attrs={"heads": 2})
        assert err < 1e-4

    @pytest.mark.parametrize("kind,shapes,attrs", ad.GRADCHECK_SUITE)
    def test_all_ops_five_seeds(self, kind, shapes, attrs):
        for seed in range(5):
            err = ad.grad_check(kind, shapes, seed=seed, attrs=attrs)
            assert err < 1e-4, (kind, seed, err)

    def test_every_registered_op_covered(self):
        assert {kind for kind, _, _ in ad.GRADCHECK_SUITE} == set(ad.OP_KINDS)


class TestProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_softmax_rows_sum_to_one(self, seed):
        # scaled logits stay within +-sqrt(7) * 4 < 11, so logit gaps stay
        # below ~37: beyond that the dominant entry rounds to exactly 1.0 in
        # float64 and the open interval is unrepresentable
        rng = np.random.default_rng(seed)
        q = rng.uniform(-2, 2, size=(2, 4, 14))
        k = rng.uniform(-2, 2, size=(2, 7, 14))
        out = attention_weights(q, k, heads=2)
        assert np.all(out > 0.0) and np.all(out < 1.0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_extreme_logits_stay_normalized(self):
        # one query, three keys, d = 3: scaled logits of about 700, -700, 0
        q = np.array([[[1.0, 0.0, 0.0]]])
        k = np.array([[[700.0, 0.0, 0.0], [-700.0, 0.0, 0.0], [0.0, 0.0, 0.0]]]) * np.sqrt(3)
        out = attention_weights(q, k, heads=1)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_permute_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 3, 4))
        t = ad.tensor(x)
        back = ad.permute(ad.permute(t, (1, 2, 0)), (2, 0, 1))
        np.testing.assert_array_equal(back.data, x)
        volume = rng.standard_normal((2, 3, 4, 1, 5))
        again = ad.permute(ad.permute(ad.tensor(volume), (1, 0, 4, 2, 3)), (1, 0, 3, 4, 2))
        np.testing.assert_array_equal(again.data, volume)
