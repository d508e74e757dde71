import json
import re
import struct
import types
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from nascore import autodiff as ad
from nascore import dataset, models, training


# each variant at its smallest widths, to keep the tests fast
MICRO_SETTINGS = {
    "mini-mvit": {"embed_dims": (8, 16, 32)},
    "micro-r2plus1d": {"embed_dims": (4, 8, 8)},
    "micro-cnn-rnn": {"embed_dims": (4, 8), "hidden_size": 8},
}


def micro_config(variant, head="classify-8", frame_hw=(8, 8), seed=0):
    return models.default_config(variant, head, frame_hw, seed=seed, **MICRO_SETTINGS[variant])


def random_batch(rng, n, frame_hw=(8, 8)):
    return ad.tensor(rng.uniform(0.0, 1.0, size=(n, 16, *frame_hw)))


def forward_op_kinds(monkeypatch, variant, frame_hw=(24, 32)):
    """The op kinds, in call order, of one forward of ``variant``'s default
    model on two clips of ``frame_hw``."""
    kinds = []
    apply = ad.apply

    def spy(kind, inputs, attrs=None):
        kinds.append(kind)
        return apply(kind, inputs, attrs)

    monkeypatch.setattr(ad, "apply", spy)
    model = models.build_model(models.default_config(variant, "classify-8", frame_hw))
    model.forward(random_batch(np.random.default_rng(7), 2, frame_hw))
    return kinds


class TestBuildModel:
    def test_classify_head_width(self):
        model = models.build_model(models.default_config("mini-mvit", "classify-8", (32, 32)))
        assert model.params["head.w"].shape[1] == 8

    def test_classify_head_name_matches_table_width(self):
        width = len(dataset.ACTIVITY_TABLE)
        assert models.CLASSIFY_HEAD == f"classify-{width}"
        assert models.HEADS[models.CLASSIFY_HEAD] == width
        model = models.build_model(micro_config("micro-cnn-rnn", head=models.CLASSIFY_HEAD))
        assert model.params["head.w"].shape[1] == width

    def test_regress_head_width(self):
        model = models.build_model(models.default_config("mini-mvit", "regress-1", (32, 32)))
        assert model.params["head.w"].shape[1] == 1

    def test_deterministic_init(self):
        cfg = models.default_config("mini-mvit", "classify-8", (32, 24), seed=7)
        a = models.build_model(cfg)
        b = models.build_model(cfg)
        assert a.params.keys() == b.params.keys()
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)

    def test_invalid_configs(self):
        with pytest.raises(models.ConfigError, match="variant"):
            models.default_config("resnet", "classify-8", (8, 8))
        with pytest.raises(models.ConfigError, match="double"):
            models.build_model(models.MvitConfig("classify-8", (8, 8), embed_dims=(8, 24, 48)))
        with pytest.raises(models.ConfigError, match="heads"):
            models.build_model(
                models.MvitConfig("classify-8", (8, 8), embed_dims=(9, 18, 36), attention_heads=2)
            )

    # the type checks run before any value check, so a value of the wrong
    # type fails with a ConfigError naming its field, not a TypeError
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("seed", -1, "seed must be non-negative"),
            ("seed", "x", "seed must be an integer"),
            ("hidden_size", None, "hidden_size must be an integer"),
            ("mlp_ratio", "2", "mlp_ratio must be a finite number"),
            ("frame_hw", (8,), "frame_hw must be two positive integers"),
            ("embed_dims", (), "embed_dims must be one or more positive widths"),
            ("head", [], "head must be a string"),
        ],
    )
    def test_malformed_field_is_config_error(self, field, value, message):
        # in every variant whose config has the field
        having = [micro_config(v) for v in models.VARIANTS if hasattr(micro_config(v), field)]
        assert having
        for config in having:
            with pytest.raises(models.ConfigError, match=message):
                replace(config, **{field: value}).validate()


class TestVariantFields:
    # a valid value other than the default for every field some variant takes
    OTHER = {"patch_stride": (4, 4, 4), "embed_dims": (4, 8, 16), "blocks": (2, 1, 1),
             "attention_heads": 4, "kv_stride": (1, 1, 1), "stage_stride": (1, 1, 2),
             "mlp_ratio": 3.0, "hidden_size": 12}

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_every_field_of_a_variant_shapes_its_model(self, variant):
        # another value of any field the variant's config declares, beyond
        # the shared ones, changes its parameters or its logits
        default = models.default_config(variant, "classify-8", (24, 32))
        batch = random_batch(np.random.default_rng(8), 1, (24, 32))
        reference = models.build_model(default)
        want = reference.forward(batch).data
        shared = {f.name for f in fields(models.ModelConfig)}
        own = [f.name for f in fields(default) if f.name not in shared]
        assert own
        for key in own:
            assert self.OTHER[key] != getattr(default, key)
            changed = models.build_model(replace(default, **{key: self.OTHER[key]}))
            same_params = changed.params.keys() == reference.params.keys() and all(
                p.data.tobytes() == reference.params[name].data.tobytes()
                for name, p in changed.params.items()
            )
            same_logits = changed.forward(batch).data.tobytes() == want.tobytes()
            assert not (same_params and same_logits), key

    @pytest.mark.parametrize("variant", ["micro-r2plus1d", "micro-cnn-rnn"])
    def test_blocks_length_binds_only_mvit(self, variant):
        config = replace(micro_config(variant), embed_dims=(4, 8, 8, 8))
        config.validate()
        assert not hasattr(config, "blocks")
        with pytest.raises(models.ConfigError, match="blocks must give a count >= 0 per stage"):
            replace(micro_config("mini-mvit"), embed_dims=(8, 16)).validate()


class TestPatchify:
    def test_grid_arithmetic(self):
        rng = np.random.default_rng(0)
        frames = ad.tensor(rng.uniform(size=(2, 16, 32, 32)))
        w = ad.tensor(rng.standard_normal((2 * 4 * 4, 16)))
        b = ad.tensor(np.zeros((16,)))
        pos = ad.tensor(np.zeros((8, 8, 8, 16)))
        grid = models.patchify(frames, (2, 4, 4), w, b, pos)
        assert grid.shape == (2, 8, 8, 8, 16)

    def test_identity_embedding(self):
        rng = np.random.default_rng(1)
        pixels = rng.uniform(size=(1, 16, 4, 4))
        grid = models.patchify(
            ad.tensor(pixels),
            (1, 1, 1),
            ad.tensor(np.ones((1, 1))),
            ad.tensor(np.zeros((1,))),
            ad.tensor(np.zeros((16, 4, 4, 1))),
        )
        assert grid.shape == (1, 16, 4, 4, 1)
        np.testing.assert_array_equal(grid.data.reshape(1, 16, 4, 4), pixels)

    def test_ceil_mode_padding(self):
        frames = ad.tensor(np.ones((1, 16, 5, 6)))
        w = ad.tensor(np.ones((2 * 4 * 4, 3)))
        b, pos = ad.tensor(np.zeros((3,))), ad.tensor(np.zeros((8, 2, 2, 3)))
        grid = models.patchify(frames, (2, 4, 4), w, b, pos)
        assert grid.shape == (1, 8, 2, 2, 3)
        # each token sums its patch's pixels inside the 5x6 frame; the pad adds 0
        covered = np.array([[32.0, 16.0], [8.0, 4.0]])
        np.testing.assert_array_equal(grid.data, np.broadcast_to(covered[..., None], grid.shape))

    def test_stride_exceeds_input(self):
        # the config rejects a patch taller or wider than the frame before
        # any model is built or clip read, naming the stride and frame size
        for stride in ((2, 8, 4), (2, 4, 8)):
            config = models.MvitConfig(models.CLASSIFY_HEAD, (4, 6), patch_stride=stride)
            message = re.escape(f"patch stride {stride} exceeds frame_hw (4, 6)")
            with pytest.raises(models.ConfigError, match=message):
                config.validate()
        # a stride equal to the frame is one patch per axis
        models.MvitConfig(models.CLASSIFY_HEAD, (4, 6), patch_stride=(2, 4, 6)).validate()


class TestPoolingAttention:
    def make_block_params(self, rng, dim):
        params = {}
        for name in ("q", "k", "v", "proj"):
            params[f"blk.{name}.w"] = ad.tensor(
                rng.standard_normal((dim, dim)) * 0.1, requires_grad=True
            )
            params[f"blk.{name}.b"] = ad.tensor(np.zeros((dim,)))
        return params

    def test_unit_stride_keeps_extents(self):
        rng = np.random.default_rng(2)
        params = self.make_block_params(rng, 16)
        grid = ad.tensor(rng.standard_normal((1, 8, 8, 8, 16)))
        out = models.pooling_attention(params, "blk", grid, grid, 2, (1, 2, 2))
        assert out.shape[1:4] == (8, 8, 8)

    def test_query_stride_pools_grid(self):
        rng = np.random.default_rng(3)
        params = self.make_block_params(rng, 16)
        grid = ad.tensor(rng.standard_normal((1, 8, 8, 8, 16)))
        query = models._pool_grid(grid, (1, 2, 2))
        out = models.pooling_attention(params, "blk", grid, query, 2, (1, 4, 4))
        assert out.shape == (1, 8, 4, 4, 16)

    def test_zero_parameters_reduce_to_pooled_query(self):
        rng = np.random.default_rng(4)
        params = {}
        for name in ("q", "k", "v", "proj"):
            params[f"blk.{name}.w"] = ad.tensor(np.zeros((16, 16)))
            params[f"blk.{name}.b"] = ad.tensor(np.zeros((16,)))
        grid = ad.tensor(rng.standard_normal((2, 8, 8, 8, 16)))
        query = models._pool_grid(grid, (1, 2, 2))
        out = models.pooling_attention(params, "blk", grid, query, 2, (1, 4, 4))
        pooled_query = np.zeros((2, 8, 4, 4, 16))  # zero projection pools to zero
        np.testing.assert_array_equal(out.data, pooled_query)


def pool_reference(x, dims, stride):
    """Ceil-mode average pooling of (B, N, C) tokens on a 3-d grid, one
    window at a time; a window cut by the grid edge averages what it covers."""
    b, _, c = x.shape
    grid = x.reshape(b, *dims, c)
    outs = [-(-n // s) for n, s in zip(dims, stride)]
    out = np.empty((b, *outs, c))
    for cell in np.ndindex(*outs):
        window = tuple(slice(i * s, (i + 1) * s) for i, s in zip(cell, stride))
        out[(slice(None), *cell)] = grid[(slice(None), *window)].mean(axis=(1, 2, 3))
    return out.reshape(b, -1, c)


def mvit_block_reference(params, prefix, x, dims, heads, kv_stride, q_stride, dim_in, dim_out):
    """One mini-mvit block in MViT's order: project every input token, then
    pool Q and the transition skip by q_stride and K, V by q_stride *
    kv_stride."""
    def dense(name, rows):
        return rows @ params[f"{prefix}.{name}.w"].data + params[f"{prefix}.{name}.b"].data

    def norm(name, rows):
        xc = rows - rows.mean(axis=-1, keepdims=True)
        xhat = xc / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
        return xhat * params[f"{prefix}.{name}.g"].data + params[f"{prefix}.{name}.b"].data

    kv_pool = tuple(a * b for a, b in zip(q_stride, kv_stride))
    normed = norm("ln1", x)
    q = pool_reference(dense("q", normed), dims, q_stride)
    k = pool_reference(dense("k", normed), dims, kv_pool)
    v = pool_reference(dense("v", normed), dims, kv_pool)
    b, nq, c = q.shape
    d = c // heads

    def split(t):
        return t.reshape(b, -1, heads, d).transpose(0, 2, 1, 3)

    logits = split(q) @ split(k).transpose(0, 1, 3, 2) / np.sqrt(d)
    w = np.exp(logits - logits.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    ctx = (w @ split(v)).transpose(0, 2, 1, 3).reshape(b, nq, c)
    skip = x if dim_in == dim_out else dense("skip", normed)
    h = pool_reference(skip, dims, q_stride) + dense("proj", ctx + q)
    return h + dense("mlp2", np.maximum(dense("mlp1", norm("ln2", h)), 0.0))


class TestPoolBeforeProject:
    # 18, 19, 23 and 24 are not multiples of 8, so K/V windows are truncated;
    # at 19x23 the query windows are too, so pooling the query grid again
    # by kv_stride would average the K/V windows with other weights
    @pytest.mark.parametrize(
        "dims, q_stride, kv_stride, dim_in",
        [((8, 18, 24), (1, 1, 1), (1, 8, 8), 16), ((8, 19, 23), (1, 2, 2), (1, 4, 4), 8)],
    )
    def test_block_matches_project_then_pool(self, dims, q_stride, kv_stride, dim_in):
        rng = np.random.default_rng(12)
        dim, heads = 16, 2
        shapes = {"q": (dim_in, dim), "k": (dim_in, dim), "v": (dim_in, dim),
                  "skip": (dim_in, dim), "proj": (dim, dim), "mlp1": (dim, 32), "mlp2": (32, dim)}
        params = {}
        for name, shape in shapes.items():
            params[f"blk.{name}.w"] = ad.tensor(rng.standard_normal(shape) * 0.3)
            params[f"blk.{name}.b"] = ad.tensor(rng.standard_normal(shape[1]) * 0.5)
        for name, width in (("ln1", dim_in), ("ln2", dim)):
            params[f"blk.{name}.g"] = ad.tensor(1.0 + rng.standard_normal(width) * 0.2)
            params[f"blk.{name}.b"] = ad.tensor(rng.standard_normal(width) * 0.5)
        x = rng.standard_normal((2, int(np.prod(dims)), dim_in))
        grid = ad.tensor(x.reshape(2, *dims, dim_in))
        out = models._mvit_block(params, "blk", grid, heads, kv_stride, q_stride, dim_in, dim)
        ref = mvit_block_reference(params, "blk", x, dims, heads, kv_stride, q_stride, dim_in, dim)
        assert out.shape == (2, *(-(-n // s) for n, s in zip(dims, q_stride)), dim)
        np.testing.assert_allclose(out.data.reshape(ref.shape), ref, rtol=0, atol=1e-12)


class TestForward:
    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_batch_of_three_logits(self, variant):
        model = models.build_model(micro_config(variant))
        out = model.forward(random_batch(np.random.default_rng(0), 3))
        assert out.shape == (3, 8)

    def test_regress_output_width(self):
        model = models.build_model(micro_config("mini-mvit", head="regress-1"))
        out = model.forward(random_batch(np.random.default_rng(0), 2))
        assert out.shape == (2, 1)

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_identical_clips_identical_rows(self, variant):
        model = models.build_model(micro_config(variant))
        rng = np.random.default_rng(1)
        clip = rng.uniform(size=(1, 16, 8, 8))
        batch = ad.tensor(np.concatenate([clip, clip], axis=0))
        out = model.forward(batch).data
        np.testing.assert_array_equal(out[0], out[1])

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_swapping_clips_swaps_rows(self, variant):
        model = models.build_model(micro_config(variant))
        rng = np.random.default_rng(2)
        clips = rng.uniform(size=(2, 16, 8, 8))
        fwd = model.forward(ad.tensor(clips)).data
        rev = model.forward(ad.tensor(clips[::-1].copy())).data
        np.testing.assert_array_equal(fwd, rev[::-1])

    def test_geometry_mismatch(self):
        model = models.build_model(micro_config("mini-mvit"))
        with pytest.raises(models.GeometryError):
            model.forward(ad.tensor(np.zeros((1, 16, 12, 12))))

    def test_mvit_stage_extents_32x32(self):
        cfg = models.default_config("mini-mvit", "classify-8", (32, 32))
        model = models.build_model(cfg)
        capture = []
        model.forward(random_batch(np.random.default_rng(3), 1, (32, 32)), capture=capture)
        assert capture == [((8, 8, 8), 16), ((8, 4, 4), 32), ((8, 2, 2), 64)]

    @pytest.mark.parametrize("frame_hw,keys", [((72, 96), 72), ((24, 32), 8), ((32, 32), 8)])
    def test_mvit_kv_grid_is_the_same_in_every_stage(self, monkeypatch, frame_hw, keys):
        # the adaptive K/V stride shrinks by the query stride at each stage
        # transition: 8x3x3 keys at 72x96, 8x1x1 at 24x32 and 32x32
        cfg = models.default_config("mini-mvit", "classify-8", frame_hw)
        assert models.kv_stride_schedule(cfg) == [(1, 8, 8), (1, 4, 4), (1, 2, 2)]
        seen = []
        attention = ad.pooled_attention

        def spy(q, k, v, heads):
            seen.append(int(np.prod(k.shape[1:-1])))
            return attention(q, k, v, heads)

        monkeypatch.setattr(ad, "pooled_attention", spy)
        models.build_model(cfg).forward(random_batch(np.random.default_rng(6), 1, frame_hw))
        assert seen == [keys, keys, keys]

    @pytest.mark.parametrize("variant,convs", [("micro-r2plus1d", 6), ("micro-cnn-rnn", 2)])
    def test_conv_models_permute_only_their_features(self, monkeypatch, variant, convs):
        # conv3d takes and gives one channel-major (C, B, T, H, W) volume, so
        # the convs pass it on as it is; the one permute turns the pooled
        # features batch-first
        kinds = forward_op_kinds(monkeypatch, variant)
        assert kinds.count("permute") == 1
        assert kinds.count("conv3d") == convs
        assert kinds[:convs] == ["conv3d"] * convs

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_each_layer_is_one_op(self, monkeypatch, variant):
        # a dense layer is one linear, a norm one layer_norm, a conv with its
        # bias and ReLU one conv3d and the recurrence one gru, so un-fusing
        # any of them changes these counts
        kinds = forward_op_kinds(monkeypatch, variant)
        if variant == "mini-mvit":
            # patch embedding, 6 per block, 1 per transition skip, the head
            assert "relu" in kinds
            assert kinds.count("linear") == 1 + 3 * 6 + 2 + 1
            assert kinds.count("layer_norm") == 3 * 2 + 1
            assert len(kinds) == 52
        elif variant == "micro-r2plus1d":
            # only the head's ReLU stands alone
            assert kinds.count("relu") == 1 and kinds.count("linear") == 1
            assert len(kinds) == 10
        else:
            assert kinds.count("gru") == 1 and kinds.count("linear") == 4
            assert len(kinds) == 10

    @pytest.mark.parametrize("frame_hw", [(30, 30), (72, 96)])
    @pytest.mark.parametrize("variant", ["micro-r2plus1d", "micro-cnn-rnn"])
    def test_conv_models_run_ten_ops_at_every_geometry(self, monkeypatch, variant, frame_hw):
        # the volume goes from conv to conv as it is, so the one permute of
        # the pooled features is the only op that moves values
        kinds = forward_op_kinds(monkeypatch, variant, frame_hw)
        assert len(kinds) == 10
        assert set(kinds) <= {"conv3d", "mean", "permute", "linear", "gru", "relu"}
        assert kinds.count("permute") == 1

    # 30x30 pads the clip to the patch stride; 72x96 is the full geometry
    @pytest.mark.parametrize("frame_hw", [(24, 32), (30, 30), (72, 96)])
    def test_mvit_tokens_keep_their_grid_shape(self, monkeypatch, frame_hw):
        # the patch rows are cut outside the graph and every layer takes the
        # (B, T, H, W, C) grid as it is, so no op only moves values
        kinds = forward_op_kinds(monkeypatch, "mini-mvit", frame_hw)
        assert not {"reshape", "permute", "concat"} & set(kinds)
        assert len(kinds) == 52

    def test_multiscale_schedule_monotone(self):
        cfg = models.default_config("mini-mvit", "classify-8", (32, 24))
        capture = []
        models.build_model(cfg).forward(
            random_batch(np.random.default_rng(4), 1, (32, 24)), capture=capture
        )
        assert len(capture) == len(cfg.embed_dims)
        for (d0, c0), (d1, c1) in zip(capture, capture[1:]):
            assert int(np.prod(d1)) < int(np.prod(d0))
            assert c1 == 2 * c0

    def test_cnn_rnn_consumes_temporal_state(self):
        model = models.build_model(micro_config("micro-cnn-rnn"))
        moving = np.zeros((1, 16, 8, 8))
        for t in range(16):
            moving[0, t, t % 8, (2 * t) % 8] = 1.0
        frozen = np.repeat(moving[:, :1], 16, axis=1)
        out_moving = model.forward(ad.tensor(moving)).data
        out_frozen = model.forward(ad.tensor(frozen)).data
        assert not np.allclose(out_moving, out_frozen)


class _NeedsSpy:
    """Stands in for one autodiff._OPS entry and records, for every input
    whose ``attrs["needs"]`` entry is False, whether its vjp returned a
    gradient for it anyway."""

    def __init__(self, kind, op, seen):
        self.forward = op.forward

        def vjp(g, xs, out, attrs):
            grads = op.vjp(g, xs, out, attrs)
            for i, (grad, need) in enumerate(zip(grads, attrs["needs"])):
                if not need:
                    seen.append((kind, i, grad is not None))
            return grads

        self.vjp = vjp


class TestBackward:
    @pytest.mark.parametrize("head", [models.CLASSIFY_HEAD, "regress-1"])
    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_no_vjp_computes_a_gradient_nothing_needs(self, monkeypatch, variant, head):
        # backward drops the gradient of every input that needs none (the
        # clip, a loss target), so a vjp that returns one computed it in vain
        seen = []
        for kind, op in list(ad._OPS.items()):
            monkeypatch.setitem(ad._OPS, kind, _NeedsSpy(kind, op, seen))
        model = models.build_model(models.default_config(variant, head, (24, 32)))
        rng = np.random.default_rng(8)
        out = model.forward(random_batch(rng, 2, (24, 32)))
        if head == "regress-1":
            loss = training.loss_direct(out, [1.5, 4.0])
        else:
            loss = training.loss_indirect(out, [0, 5])
        gmap = ad.backward(loss)
        assert set(gmap) == {p.node_id for p in model.params.values()}
        assert seen, "no op input went without a gradient"
        assert [(kind, i) for kind, i, computed in seen if computed] == []

    def test_the_models_run_every_registered_op(self, monkeypatch):
        # the op set is exactly what the three models and their two losses
        # run: every kind is applied by some forward or loss at 24x32, and
        # its vjp runs in backward
        applied, walked = set(), set()
        apply = ad.apply

        def spy_apply(kind, inputs, attrs=None):
            applied.add(kind)
            return apply(kind, inputs, attrs)

        def spy_op(kind, op):
            def vjp(g, xs, out, attrs):
                walked.add(kind)
                return op.vjp(g, xs, out, attrs)

            return types.SimpleNamespace(forward=op.forward, vjp=vjp)

        monkeypatch.setattr(ad, "apply", spy_apply)
        for kind, op in list(ad._OPS.items()):
            monkeypatch.setitem(ad._OPS, kind, spy_op(kind, op))
        losses = {models.CLASSIFY_HEAD: lambda out: training.loss_indirect(out, [2, 7]),
                  "regress-1": lambda out: training.loss_direct(out, [0.5, 3.0])}
        rng = np.random.default_rng(9)
        for variant in models.VARIANTS:
            for head, loss in losses.items():
                model = models.build_model(models.default_config(variant, head, (24, 32)))
                ad.backward(loss(model.forward(random_batch(rng, 2, (24, 32)))))
        assert applied == walked == set(ad.OP_KINDS)


def checkpoint_parts(path):
    """The parsed JSON header and the f8 LE payload of a checkpoint file."""
    data = Path(path).read_bytes()
    magic = models.CHECKPOINT_MAGIC
    assert data.startswith(magic)
    (size,) = struct.unpack_from("<I", data, len(magic))
    start = len(magic) + 4
    return json.loads(data[start : start + size]), data[start + size :]


def expected_checkpoint_parts(model):
    """What checkpoint_parts reads from ``model``'s checkpoint: the header
    lists each parameter's name, shape and offset in values, and the payload
    holds the parameters back to back."""
    index, offset = [], 0
    for name, p in model.params.items():
        index.append({"name": name, "shape": list(p.shape), "offset": offset})
        offset += p.data.size
    header = {"config": asdict(model.config), "params": index, "variant": model.config.variant}
    header = json.loads(json.dumps(header))
    payload = np.concatenate([p.data.reshape(-1) for p in model.params.values()])
    return header, payload.astype("<f8").tobytes()


class TestCheckpoint:
    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_writes_magic_header_and_payload(self, tmp_path, variant):
        model = models.build_model(micro_config(variant, seed=11))
        path = models.save_checkpoint(model, tmp_path / "model.ckpt")
        assert checkpoint_parts(path) == expected_checkpoint_parts(model)
