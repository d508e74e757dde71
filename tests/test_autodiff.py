import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nascore import autodiff as ad


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


class TestForwardValues:
    def test_matmul_identity(self):
        a = ad.tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = ad.tensor(np.eye(2))
        np.testing.assert_array_equal(ad.matmul(a, eye).data, a.data)

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
        # 3x3 ones convolved with a 2x2 ones kernel: every window sums 4
        x = ad.tensor(np.ones((1, 1, 3, 3)))
        w = ad.tensor(np.ones((1, 1, 2, 2)))
        out = ad.conv2d(x, w, stride=(1, 1), padding=(0, 0))
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 4.0))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_height_one_conv2d_is_1d_correlation(self, stride):
        # the temporal conv of micro-r2plus1d: a 1xk kernel over a (1, T) grid
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 1, 7))
        w = rng.standard_normal((4, 3, 1, 3))
        out = ad.conv2d(ad.tensor(x), ad.tensor(w), stride=(1, stride), padding=(0, 1)).data
        xp = np.pad(x[:, :, 0], ((0, 0), (0, 0), (1, 1)))
        n_out = (7 + 2 - 3) // stride + 1
        expected = np.zeros((2, 4, n_out))
        for b in range(2):
            for o in range(4):
                for j in range(n_out):
                    window = xp[b, :, j * stride : j * stride + 3]
                    expected[b, o, j] = np.sum(window * w[o, :, 0])
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

    def test_pooled_attention_matches_numpy_composition(self):
        rng = np.random.default_rng(6)
        heads, d = 2, 3
        q = rng.standard_normal((2, 5, heads * d))
        k = rng.standard_normal((2, 4, heads * d))
        v = rng.standard_normal((2, 4, heads * d))
        g = rng.standard_normal((2, 5, heads * d))

        # per batch item and head: scaled scores, row softmax, context, and
        # the hand-derived gradients of sum(ctx * g)
        ctx = np.zeros_like(q)
        gq, gk, gv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
        for b in range(2):
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

        tq, tk, tv = (ad.tensor(a, requires_grad=True) for a in (q, k, v))
        out = ad.pooled_attention(tq, tk, tv, heads)
        gmap = ad.backward(ad.sum_(ad.multiply(out, ad.tensor(g))))
        for got, expected in ((out.data, ctx), (gmap[tq.node_id].data, gq),
                              (gmap[tk.node_id].data, gk), (gmap[tv.node_id].data, gv)):
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


class TestErrors:
    def test_unknown_kind(self):
        with pytest.raises(ad.UnknownOpError):
            ad.apply("frobnicate", (ad.tensor([1.0]),))

    def test_shape_mismatch_reports_both(self):
        with pytest.raises(ad.ShapeMismatch) as exc:
            ad.matmul(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((2, 3))))
        assert "expected" in str(exc.value)

    @pytest.mark.parametrize("shapes,heads,expected", [
        (((2, 3), (2, 3, 4), (2, 3, 4)), 2, "rank-3"),
        (((2, 3, 4), (1, 3, 4), (1, 3, 4)), 2, "batch 2 and width 4"),
        (((2, 3, 4), (2, 3, 6), (2, 3, 6)), 2, "batch 2 and width 4"),
        (((2, 3, 4), (2, 3, 4), (2, 2, 4)), 2, "3 value tokens"),
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
            ad.multiply(big, big)

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
        x = ad.tensor([1.0, 2.0], requires_grad=True)
        loss = ad.sum_(x * 1 if False else ad.multiply(x, x))
        ad.backward(loss)
        with pytest.raises(ad.GraphError):
            ad.backward(loss)


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = ad.tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        gmap = ad.backward(ad.sum_(x))
        np.testing.assert_array_equal(gmap[x.node_id].data, np.ones((2, 3)))

    def test_product_rule(self):
        rng = np.random.default_rng(1)
        xv, yv = rng.standard_normal((2, 5))
        x = ad.tensor(xv, requires_grad=True)
        y = ad.tensor(yv, requires_grad=True)
        gmap = ad.backward(ad.sum_(ad.multiply(x, y)))
        np.testing.assert_array_equal(gmap[x.node_id].data, yv)
        np.testing.assert_array_equal(gmap[y.node_id].data, xv)

    def test_layer_norm_matches_finite_differences(self):
        # a plain sum of normalized values is identically zero (the
        # residuals cancel), so weight the sum to get a nontrivial loss
        rng = np.random.default_rng(7)
        xv = rng.standard_normal(4)
        wv = rng.standard_normal(4)
        x = ad.tensor(xv, requires_grad=True)
        gmap = ad.backward(ad.sum_(ad.multiply(ad.layer_norm(x), ad.tensor(wv))))

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
        gmap = ad.backward(ad.sum_(ad.layer_norm(x)))
        np.testing.assert_allclose(gmap[x.node_id].data, 0.0, atol=1e-12)

    def test_gradient_map_keys_are_node_ids(self):
        x = ad.tensor([2.0, -1.0], requires_grad=True)
        y = ad.multiply(x, x)
        loss = ad.sum_(y)
        gmap = ad.backward(loss)
        assert set(gmap) == {x.node_id} and not hasattr(x, "grad")
        np.testing.assert_array_equal(gmap[x.node_id].data, [4.0, -2.0])

    def test_leaf_unreached_without_requires_grad(self):
        x = ad.tensor([1.0, 2.0], requires_grad=False)
        y = ad.tensor([3.0, 4.0], requires_grad=True)
        loss = ad.sum_(ad.multiply(x, y))
        gmap = ad.backward(loss)
        assert x.node_id not in gmap
        np.testing.assert_array_equal(gmap[y.node_id].data, [1.0, 2.0])

    def test_backward_frees_the_tape_as_it_walks(self):
        # a 20-op chain of 1.6 MB activations: keeping every intermediate
        # gradient until the walk ends allocates about 20 activations, while
        # freeing each once its vjp has run allocates about 3
        x = ad.tensor(np.linspace(-1.0, 1.0, 200_000), requires_grad=True)
        y = x
        for _ in range(20):
            y = ad.tanh(y)
        loss = ad.sum_(y)
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
        arrays = [rng.standard_normal((1, 3, 4)) for _ in range(3)]
        out = ad.pooled_attention(*(ad.tensor(a) for a in arrays), heads=2)
        assert out.op is None and not out.requires_grad
        q = ad.tensor(arrays[0], requires_grad=True)
        out = ad.pooled_attention(q, *(ad.tensor(a) for a in arrays[1:]), heads=2)
        assert out.op.residual is not None
        gmap = ad.backward(ad.sum_(out))
        assert out.op is None and gmap[q.node_id].shape == (1, 3, 4)


class TestGradCheck:
    def test_relu_clean_inputs(self):
        assert ad.grad_check("relu", [(8,)], seed=1).max_rel_err < 1e-6

    def test_matmul_example(self):
        assert ad.grad_check("matmul", [(3, 4), (4, 2)], seed=1).max_rel_err < 1e-4

    def test_softmax_example(self):
        # the attention softmax, its scale and both matmuls, in one op
        report = ad.grad_check("pooled_attention", [(1, 3, 4), (1, 5, 4), (1, 5, 4)], seed=2,
                               attrs={"heads": 2})
        assert report.max_rel_err < 1e-4

    @pytest.mark.parametrize("kind,shapes,attrs", ad.GRADCHECK_SUITE)
    def test_all_ops_five_seeds(self, kind, shapes, attrs):
        for seed in range(5):
            report = ad.grad_check(kind, shapes, seed=seed, attrs=attrs)
            assert report.max_rel_err < 1e-4, (kind, seed, report.max_rel_err)

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
    def test_reshape_permute_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 3, 4))
        t = ad.tensor(x)
        back = ad.permute(ad.permute(t, (1, 2, 0)), (2, 0, 1))
        np.testing.assert_array_equal(back.data, x)
        again = ad.reshape(ad.reshape(t, (6, 4)), (2, 3, 4))
        np.testing.assert_array_equal(again.data, x)
