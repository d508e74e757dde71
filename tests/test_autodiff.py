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


class TestForwardValues:
    def test_matmul_identity(self):
        a = ad.tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = ad.tensor(np.eye(2))
        np.testing.assert_array_equal(ad.matmul(a, eye).data, a.data)

    def test_relu(self):
        out = ad.relu(ad.tensor([-1.0, 0.0, 2.5]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.5])

    def test_softmax_symmetry(self):
        out = ad.softmax(ad.tensor([0.0, 0.0]), axis=0)
        np.testing.assert_array_equal(out.data, [0.5, 0.5])

    def test_conv2d_ones(self):
        # 3x3 ones convolved with a 2x2 ones kernel: every window sums 4
        x = ad.tensor(np.ones((1, 1, 3, 3)))
        w = ad.tensor(np.ones((1, 1, 2, 2)))
        out = ad.conv2d(x, w, stride=(1, 1), padding=(0, 0))
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 4.0))

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
        x = rng.standard_normal((4, 6))
        a = ad.softmax(ad.tensor(x), axis=1).data
        b = ad.softmax(ad.tensor(x), axis=1).data
        np.testing.assert_array_equal(a, b)


class TestErrors:
    def test_unknown_kind(self):
        with pytest.raises(ad.UnknownOpError):
            ad.apply("frobnicate", (ad.tensor([1.0]),))

    def test_shape_mismatch_reports_both(self):
        with pytest.raises(ad.ShapeMismatch) as exc:
            ad.matmul(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((2, 3))))
        assert "expected" in str(exc.value)

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
        ad.backward(ad.sum_(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_product_rule(self):
        rng = np.random.default_rng(1)
        xv, yv = rng.standard_normal((2, 5))
        x = ad.tensor(xv, requires_grad=True)
        y = ad.tensor(yv, requires_grad=True)
        ad.backward(ad.sum_(ad.multiply(x, y)))
        np.testing.assert_array_equal(x.grad, yv)
        np.testing.assert_array_equal(y.grad, xv)

    def test_layer_norm_matches_finite_differences(self):
        # a plain sum of normalized values is identically zero (the
        # residuals cancel), so weight the sum to get a nontrivial loss
        rng = np.random.default_rng(7)
        xv = rng.standard_normal(4)
        wv = rng.standard_normal(4)
        x = ad.tensor(xv, requires_grad=True)
        ad.backward(ad.sum_(ad.multiply(ad.layer_norm(x), ad.tensor(wv))))

        def fn(arrs):
            v = arrs[0]
            mu = v.mean()
            var = ((v - mu) ** 2).mean()
            return float((((v - mu) / np.sqrt(var + 1e-5)) * wv).sum())

        oracle = finite_difference(fn, [xv], 0)
        assert max_rel_err(x.grad, oracle) < 1e-4

    def test_layer_norm_plain_sum_gradient_is_zero(self):
        rng = np.random.default_rng(8)
        x = ad.tensor(rng.standard_normal(4), requires_grad=True)
        ad.backward(ad.sum_(ad.layer_norm(x)))
        np.testing.assert_allclose(x.grad, 0.0, atol=1e-12)

    def test_gradient_map_keys_are_node_ids(self):
        x = ad.tensor([2.0, -1.0], requires_grad=True)
        y = ad.multiply(x, x)
        loss = ad.sum_(y)
        gmap = ad.backward(loss)
        assert set(gmap) >= {x.node_id, y.node_id, loss.node_id}
        np.testing.assert_array_equal(gmap[x.node_id].data, x.grad)

    def test_leaf_unreached_without_requires_grad(self):
        x = ad.tensor([1.0, 2.0], requires_grad=False)
        y = ad.tensor([3.0, 4.0], requires_grad=True)
        loss = ad.sum_(ad.multiply(x, y))
        ad.backward(loss)
        assert x.grad is None
        np.testing.assert_array_equal(y.grad, [1.0, 2.0])

    def test_constant_subgraph_not_recorded(self):
        a = ad.tensor([1.0])
        b = ad.tensor([2.0])
        out = ad.add(a, b)
        assert out.op is None and not out.requires_grad


class TestGradCheck:
    def test_relu_clean_inputs(self):
        assert ad.grad_check("relu", [(8,)], seed=1).max_rel_err < 1e-6

    def test_matmul_example(self):
        assert ad.grad_check("matmul", [(3, 4), (4, 2)], seed=1).max_rel_err < 1e-4

    def test_softmax_example(self):
        assert ad.grad_check("softmax", [(5,)], seed=2, attrs={"axis": 0}).max_rel_err < 1e-4

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
        # logit gaps are kept below ~37: beyond that the dominant entry
        # rounds to exactly 1.0 in float64 and the open interval is
        # unrepresentable
        rng = np.random.default_rng(seed)
        x = rng.uniform(-15, 15, size=(4, 7))
        out = ad.softmax(ad.tensor(x), axis=1).data
        assert np.all(out > 0.0) and np.all(out < 1.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_extreme_logits_stay_normalized(self):
        x = np.array([[700.0, -700.0, 0.0]])
        out = ad.softmax(ad.tensor(x), axis=1).data
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

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
