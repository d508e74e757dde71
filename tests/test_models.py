import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nascore import autodiff as ad
from nascore import dataset, models


def micro_config(variant, head="classify-8", frame_hw=(8, 8), seed=0):
    if variant == "mini-mvit":
        return models.ModelConfig(
            variant, head, frame_hw, embed_dims=(8, 16, 32), attention_heads=2, seed=seed
        )
    if variant == "micro-r2plus1d":
        return models.ModelConfig(variant, head, frame_hw, embed_dims=(4, 8, 8), seed=seed)
    return models.ModelConfig(
        variant, head, frame_hw, embed_dims=(4, 8), blocks=(1, 1), hidden_size=8, seed=seed
    )


def random_batch(rng, n, frame_hw=(8, 8)):
    return ad.tensor(rng.uniform(0.0, 1.0, size=(n, 16, *frame_hw)))


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
            models.build_model(models.ModelConfig("resnet", "classify-8", (8, 8)))
        with pytest.raises(models.ConfigError, match="double"):
            models.build_model(
                models.ModelConfig("mini-mvit", "classify-8", (8, 8), embed_dims=(8, 24, 48))
            )
        with pytest.raises(models.ConfigError, match="heads"):
            models.build_model(
                models.ModelConfig(
                    "mini-mvit", "classify-8", (8, 8), embed_dims=(9, 18, 36), attention_heads=2
                )
            )


class TestPatchify:
    def test_grid_arithmetic(self):
        rng = np.random.default_rng(0)
        frames = ad.tensor(rng.uniform(size=(2, 16, 32, 32)))
        w = ad.tensor(rng.standard_normal((2 * 4 * 4, 16)))
        b = ad.zeros((16,))
        pos = ad.zeros((8, 8, 8, 16))
        grid = models.patchify(frames, (2, 4, 4), w, b, pos)
        assert grid.dims == (8, 8, 8)
        assert grid.tokens.shape == (2, 512, 16)

    def test_identity_embedding(self):
        rng = np.random.default_rng(1)
        pixels = rng.uniform(size=(1, 16, 4, 4))
        grid = models.patchify(
            ad.tensor(pixels),
            (1, 1, 1),
            ad.tensor(np.ones((1, 1))),
            ad.zeros((1,)),
            ad.zeros((16, 4, 4, 1)),
        )
        np.testing.assert_array_equal(grid.tokens.data.reshape(1, 16, 4, 4), pixels)

    def test_ceil_mode_padding(self):
        frames = ad.tensor(np.ones((1, 16, 5, 6)))
        w = ad.tensor(np.ones((2 * 4 * 4, 3)))
        grid = models.patchify(frames, (2, 4, 4), w, ad.zeros((3,)), ad.zeros((8, 2, 2, 3)))
        assert grid.dims == (8, 2, 2)

    def test_stride_exceeds_input(self):
        frames = ad.tensor(np.ones((1, 16, 4, 4)))
        w = ad.tensor(np.ones((2 * 8 * 8, 3)))
        with pytest.raises(models.GeometryError, match="exceeds"):
            models.patchify(frames, (2, 8, 8), w, ad.zeros((3,)), ad.zeros((8, 1, 1, 3)))


class TestPoolingAttention:
    def make_block_params(self, rng, dim):
        params = {}
        for name in ("q", "k", "v", "proj"):
            params[f"blk.{name}.w"] = ad.tensor(
                rng.standard_normal((dim, dim)) * 0.1, requires_grad=True
            )
            params[f"blk.{name}.b"] = ad.zeros((dim,))
        return params

    def test_unit_stride_keeps_extents(self):
        rng = np.random.default_rng(2)
        params = self.make_block_params(rng, 16)
        grid = models.TokenGrid(ad.tensor(rng.standard_normal((1, 512, 16))), (8, 8, 8))
        out = models.pooling_attention(params, "blk", grid, grid, 2, (1, 2, 2))
        assert out.dims == (8, 8, 8)

    def test_query_stride_pools_grid(self):
        rng = np.random.default_rng(3)
        params = self.make_block_params(rng, 16)
        grid = models.TokenGrid(ad.tensor(rng.standard_normal((1, 512, 16))), (8, 8, 8))
        query = models._pool_grid(grid, (1, 2, 2))
        out = models.pooling_attention(params, "blk", grid, query, 2, (1, 4, 4))
        assert out.dims == (8, 4, 4)
        assert out.tokens.shape == (1, 128, 16)

    def test_zero_parameters_reduce_to_pooled_query(self):
        rng = np.random.default_rng(4)
        params = {}
        for name in ("q", "k", "v", "proj"):
            params[f"blk.{name}.w"] = ad.zeros((16, 16))
            params[f"blk.{name}.b"] = ad.zeros((16,))
        grid = models.TokenGrid(ad.tensor(rng.standard_normal((2, 512, 16))), (8, 8, 8))
        query = models._pool_grid(grid, (1, 2, 2))
        out = models.pooling_attention(params, "blk", grid, query, 2, (1, 4, 4))
        pooled_query = np.zeros((2, 128, 16))  # zero projection pools to zero
        np.testing.assert_array_equal(out.tokens.data, pooled_query)


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
        grid = models.TokenGrid(ad.tensor(x), dims)
        out = models._mvit_block(params, "blk", grid, heads, kv_stride, q_stride, dim_in, dim)
        ref = mvit_block_reference(params, "blk", x, dims, heads, kv_stride, q_stride, dim_in, dim)
        assert out.dims == tuple(-(-n // s) for n, s in zip(dims, q_stride))
        np.testing.assert_allclose(out.tokens.data, ref, rtol=0, atol=1e-12)


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
        assert models.stage_schedule(cfg) == [
            ((8, 8, 8), 16),
            ((8, 4, 4), 32),
            ((8, 2, 2), 64),
        ]

    @pytest.mark.parametrize("frame_hw,keys", [((72, 96), 72), ((24, 32), 8), ((32, 32), 8)])
    def test_mvit_kv_grid_is_the_same_in_every_stage(self, monkeypatch, frame_hw, keys):
        # the adaptive K/V stride shrinks by the query stride at each stage
        # transition: 8x3x3 keys at 72x96, 8x1x1 at 24x32 and 32x32
        cfg = models.default_config("mini-mvit", "classify-8", frame_hw)
        assert models.kv_stride_schedule(cfg) == [(1, 8, 8), (1, 4, 4), (1, 2, 2)]
        seen = []
        attention = ad.pooled_attention

        def spy(q, k, v, heads):
            seen.append(k.shape[1])
            return attention(q, k, v, heads)

        monkeypatch.setattr(ad, "pooled_attention", spy)
        models.build_model(cfg).forward(random_batch(np.random.default_rng(6), 1, frame_hw))
        assert seen == [keys, keys, keys]

    def test_multiscale_schedule_monotone(self):
        cfg = models.default_config("mini-mvit", "classify-8", (32, 24))
        schedule = models.stage_schedule(cfg)
        for (d0, c0), (d1, c1) in zip(schedule, schedule[1:]):
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


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = models.build_model(micro_config("mini-mvit", seed=11))
        path = tmp_path / "model.ckpt"
        models.save_checkpoint(model, path)
        loaded = models.load_checkpoint(path)
        assert loaded.config == model.config
        assert loaded.params.keys() == model.params.keys()
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name].data, model.params[name].data)
        rng = np.random.default_rng(5)
        batch = random_batch(rng, 2)
        np.testing.assert_array_equal(
            model.forward(batch).data, loaded.forward(batch).data
        )

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(models.ConfigError):
            models.load_checkpoint(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "model.ckpt"
        models.save_checkpoint(models.build_model(micro_config("micro-cnn-rnn")), path)
        data = path.read_bytes()
        path.write_bytes(data[:-12])
        with pytest.raises(models.ConfigError, match="payload holds"):
            models.load_checkpoint(path)
        path.write_bytes(data[:20])
        with pytest.raises(models.ConfigError, match="unreadable checkpoint header"):
            models.load_checkpoint(path)

    def test_rejects_old_temporal_weight_shape(self, tmp_path):
        # r2plus1d once stored its temporal conv weights as (c, c, 3)
        model = models.build_model(micro_config("micro-r2plus1d"))
        old = {}
        for name, p in model.params.items():
            shape = p.shape[:-2] + p.shape[-1:] if ".temporal." in name else p.shape
            old[name] = ad.tensor(p.data.reshape(shape))
        path = tmp_path / "old.ckpt"
        models.save_checkpoint(models.Model(config=model.config, params=old), path)
        with pytest.raises(models.ConfigError) as exc:
            models.load_checkpoint(path)
        assert str(exc.value) == (
            f"{path}: parameter 'b0.temporal.w' has shape (4, 4, 3), expected (4, 4, 1, 3)"
        )

    def test_rejects_missing_and_unexpected_parameters(self, tmp_path):
        model = models.build_model(micro_config("micro-cnn-rnn"))
        path = tmp_path / "model.ckpt"
        params = dict(model.params)
        del params["head.b"]
        models.save_checkpoint(models.Model(config=model.config, params=params), path)
        with pytest.raises(models.ConfigError, match="'head.b' missing"):
            models.load_checkpoint(path)
        params["extra"] = ad.tensor(np.zeros(2))
        models.save_checkpoint(models.Model(config=model.config, params=params), path)
        with pytest.raises(models.ConfigError, match="unexpected parameter 'extra'"):
            models.load_checkpoint(path)


def checkpoint_bytes(model):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "m.ckpt"
        models.save_checkpoint(model, path)
        return path.read_bytes()


# every value is small, so no drawn config can ask for a large model
SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(-4, 4) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def checkpoint_files(draw):
    """A micro cnn-rnn checkpoint truncated or with one byte replaced, one
    whose header has config fields, config or index entries replaced by
    small JSON values, or arbitrary bytes after the magic or without it."""
    data = checkpoint_bytes(models.build_model(micro_config("micro-cnn-rnn")))
    kind = draw(st.sampled_from(["truncated", "byte", "header", "arbitrary"]))
    if kind == "truncated":
        return data[: draw(st.integers(0, len(data)))]
    if kind == "byte":
        out = bytearray(data)
        out[draw(st.integers(0, len(out) - 1))] = draw(st.integers(0, 255))
        return bytes(out)
    if kind == "arbitrary":
        prefix = draw(st.sampled_from([b"", models.CHECKPOINT_MAGIC]))
        return prefix + draw(st.binary(max_size=48))
    target = draw(st.sampled_from(["config field", "config", "index entry", "index"]))
    value = draw(SMALL_JSON)

    def edit(header):
        if target == "config field":
            header["config"][draw(st.sampled_from(sorted(header["config"])))] = value
        elif target == "config":
            header["config"] = value
        elif target == "index entry":
            header["params"][draw(st.integers(0, len(header["params"]) - 1))] = value
        else:
            header["params"] = value

    return with_header(data, edit)


def with_header(data, edit):
    """Checkpoint bytes ``data`` with ``edit`` applied to the parsed header."""
    (header_len,) = struct.unpack("<I", data[8:12])
    header = json.loads(data[12 : 12 + header_len])
    edit(header)
    encoded = json.dumps(header).encode()
    return data[:8] + struct.pack("<I", len(encoded)) + encoded + data[12 + header_len :]


class TestCheckpointFuzz:
    # values the fuzzer found ending in TypeError, ValueError or KeyError
    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("config", "seed", -1, "seed must be non-negative"),
            ("config", "seed", "x", "seed must be an integer"),
            ("config", "hidden_size", None, "hidden_size must be an integer"),
            ("config", "mlp_ratio", "2", "mlp_ratio must be a finite number"),
            ("config", "frame_hw", [8], "frame_hw must be two positive integers"),
            ("config", "embed_dims", [], "embed_dims must be one or more positive widths"),
            ("config", "head", [], "head must be a string"),
            ("params", 0, {"name": ["w"], "shape": [1], "offset": 0}, "unexpected parameter"),
            ("params", 0, {"name": "head.b", "shape": None, "offset": 0}, "unreadable checkpoint"),
            ("params", 0, {"name": "head.b", "shape": [8]}, "unreadable checkpoint header"),
            ("params", 0, None, "unreadable checkpoint header"),
        ],
    )
    def test_malformed_header_value_is_config_error(self, tmp_path, section, key, value, message):
        def edit(header):
            header[section][key] = value

        data = checkpoint_bytes(models.build_model(micro_config("micro-cnn-rnn")))
        path = tmp_path / "x.ckpt"
        path.write_bytes(with_header(data, edit))
        with pytest.raises(models.ConfigError, match=message):
            models.load_checkpoint(path)

    @given(checkpoint_files())
    @settings(max_examples=300, deadline=None)
    def test_any_bytes_load_or_raise_config_error(self, data):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "x.ckpt"
            path.write_bytes(data)
            try:
                model = models.load_checkpoint(path)
            except models.ConfigError:
                return
        assert models.build_model(model.config).params.keys() == model.params.keys()
