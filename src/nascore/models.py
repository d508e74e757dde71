"""Three micro-scale video models sharing one parameter/forward convention.

mini-mvit: strided patch embedding into a token grid, then three stages of
pooling attention; each stage transition halves the spatial grid and
doubles the channel width. micro-r2plus1d: factorized blocks of 2D spatial
convolution then 1D temporal convolution. micro-cnn-rnn: a shared 2D conv
encoder per frame feeding a gated recurrent cell.

All variants end in the same head, ReLU then dense. mini-mvit and
micro-r2plus1d feed it the mean over their token or space-time axes;
micro-cnn-rnn takes the spatial mean of each frame's features before its
recurrent cell and feeds the head the final hidden state.
Parameters live in a flat name -> Tensor dict; forward passes are pure
functions of (params, batch).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, asdict, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad

VARIANTS = ("mini-mvit", "micro-r2plus1d", "micro-cnn-rnn")
HEADS = {"classify-8": 8, "regress-1": 1}

N_FRAMES = 16


class ConfigError(ValueError):
    pass


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    variant: str
    head: str
    frame_hw: tuple
    patch_stride: tuple = (2, 4, 4)
    embed_dims: tuple = (16, 32, 64)
    blocks: tuple = (1, 1, 1)
    attention_heads: int = 2
    kv_stride: tuple = (1, 2, 2)
    stage_stride: tuple = (1, 2, 2)
    mlp_ratio: float = 2.0
    hidden_size: int = 32
    seed: int = 0

    def validate(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.head not in HEADS:
            raise ConfigError(f"unknown head {self.head!r}")
        if len(self.embed_dims) != len(self.blocks):
            raise ConfigError("embed_dims and blocks must list the same number of stages")
        if self.variant == "mini-mvit":
            if N_FRAMES % self.patch_stride[0] != 0:
                raise ConfigError(
                    f"temporal patch stride {self.patch_stride[0]} must divide {N_FRAMES}"
                )
            for i, dim in enumerate(self.embed_dims):
                if dim % self.attention_heads != 0:
                    raise ConfigError(
                        f"stage {i} dim {dim} not divisible by {self.attention_heads} heads"
                    )
            for a, b in zip(self.embed_dims, self.embed_dims[1:]):
                if b != 2 * a:
                    raise ConfigError(f"stage dims must double, got {self.embed_dims}")
        if self.hidden_size < 1:
            raise ConfigError("hidden_size must be positive")

    @property
    def head_width(self):
        return HEADS[self.head]


def default_config(variant, head, frame_hw, seed=0) -> ModelConfig:
    if variant == "mini-mvit":
        return ModelConfig(variant, head, tuple(frame_hw), seed=seed)
    if variant == "micro-r2plus1d":
        return ModelConfig(variant, head, tuple(frame_hw), embed_dims=(8, 16, 32), seed=seed)
    if variant == "micro-cnn-rnn":
        return ModelConfig(
            variant, head, tuple(frame_hw), embed_dims=(8, 16), blocks=(1, 1), seed=seed
        )
    raise ConfigError(f"unknown variant {variant!r}")


# --- initialization --------------------------------------------------------


class _Init:
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.params = {}

    def linear(self, name, fan_in, fan_out, bias=True):
        bound = math.sqrt(1.0 / fan_in)
        self.params[f"{name}.w"] = ad.tensor(
            self.rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad=True
        )
        if bias:
            self.params[f"{name}.b"] = ad.tensor(np.zeros(fan_out), requires_grad=True)

    def conv(self, name, shape):
        fan_in = int(np.prod(shape[1:]))
        bound = math.sqrt(1.0 / fan_in)
        self.params[f"{name}.w"] = ad.tensor(
            self.rng.uniform(-bound, bound, size=shape), requires_grad=True
        )
        bias_shape = (shape[0],) + (1,) * (len(shape) - 2)
        self.params[f"{name}.b"] = ad.tensor(np.zeros(bias_shape), requires_grad=True)

    def norm(self, name, dim):
        self.params[f"{name}.g"] = ad.tensor(np.ones(dim), requires_grad=True)
        self.params[f"{name}.b"] = ad.tensor(np.zeros(dim), requires_grad=True)

    def table(self, name, shape):
        self.params[name] = ad.tensor(
            self.rng.uniform(-0.02, 0.02, size=shape), requires_grad=True
        )


def _ceil_div(n, s):
    return -(-n // s)


def patch_grid_dims(config: ModelConfig):
    h, w = config.frame_hw
    pt, ph, pw = config.patch_stride
    return (N_FRAMES // pt, _ceil_div(h, ph), _ceil_div(w, pw))


def stage_schedule(config: ModelConfig):
    """(grid dims, channel width) at which each stage's blocks operate."""
    dims = patch_grid_dims(config)
    schedule = [(dims, config.embed_dims[0])]
    for dim in config.embed_dims[1:]:
        dims = tuple(_ceil_div(n, s) for n, s in zip(dims, config.stage_stride))
        schedule.append((dims, dim))
    return schedule


@dataclass
class TokenGrid:
    """Flattened token tensor (B, N, C) with its 3-d grid extents."""

    tokens: ad.Tensor
    dims: tuple

    def __post_init__(self):
        n = int(np.prod(self.dims))
        if self.tokens.shape[1] != n:
            raise GeometryError(
                f"token count {self.tokens.shape[1]} does not match grid {self.dims}"
            )


def build_model(config: ModelConfig) -> "Model":
    config.validate()
    init = _Init(config.seed)
    if config.variant == "mini-mvit":
        _init_mvit(init, config)
    elif config.variant == "micro-r2plus1d":
        _init_r2plus1d(init, config)
    else:
        _init_cnn_rnn(init, config)
    return Model(config=config, params=init.params)


def _init_mvit(init, config):
    pt, ph, pw = config.patch_stride
    c0 = config.embed_dims[0]
    init.linear("patch", pt * ph * pw, c0)
    init.table("pos", patch_grid_dims(config) + (c0,))
    dim_in = c0
    for s, (n_blocks, dim) in enumerate(zip(config.blocks, config.embed_dims)):
        for b in range(n_blocks):
            # the first block of stages 1+ is the transition (dim_in != dim)
            prefix = f"s{s}b{b}"
            init.norm(f"{prefix}.ln1", dim_in)
            for proj in ("q", "k", "v"):
                init.linear(f"{prefix}.{proj}", dim_in, dim)
            init.linear(f"{prefix}.proj", dim, dim)
            if dim_in != dim:
                init.linear(f"{prefix}.skip", dim_in, dim)
            init.norm(f"{prefix}.ln2", dim)
            hidden = int(round(config.mlp_ratio * dim))
            init.linear(f"{prefix}.mlp1", dim, hidden)
            init.linear(f"{prefix}.mlp2", hidden, dim)
            dim_in = dim
    init.norm("norm", dim_in)
    init.linear("head", dim_in, config.head_width)


def _init_r2plus1d(init, config):
    c_in = 1
    for i, c in enumerate(config.embed_dims):
        init.conv(f"b{i}.spatial", (c, c_in, 3, 3))
        init.conv(f"b{i}.temporal", (c, c, 3))
        c_in = c
    init.linear("head", c_in, config.head_width)


def _init_cnn_rnn(init, config):
    c_in = 1
    for i, c in enumerate(config.embed_dims):
        init.conv(f"enc{i}", (c, c_in, 3, 3))
        c_in = c
    feat = c_in
    hid = config.hidden_size
    for gate in ("z", "r", "n"):
        init.linear(f"gru.x{gate}", feat, hid)
        init.linear(f"gru.h{gate}", hid, hid, bias=False)
    init.linear("head", hid, config.head_width)


# --- shared pieces ---------------------------------------------------------


def _dense(params, name, x):
    return ad.add(ad.matmul(x, params[f"{name}.w"]), params[f"{name}.b"])


def _affine_norm(params, name, x):
    normed = ad.layer_norm(x)
    return ad.add(ad.multiply(normed, params[f"{name}.g"]), params[f"{name}.b"])


def _pool_tokens(tokens, dims, stride):
    """Average-pools a flattened (B, N, C) token tensor on its 3-d grid."""
    if all(s == 1 for s in stride):
        return tokens, tuple(dims)
    b, _, c = tokens.shape
    grid = ad.reshape(tokens, (b, *dims, c))
    pooled = ad.avg_pool(grid, stride)
    new_dims = tuple(_ceil_div(n, s) for n, s in zip(dims, stride))
    return ad.reshape(pooled, (b, int(np.prod(new_dims)), c)), new_dims


def patchify(frames, stride, weight, bias, pos_table) -> TokenGrid:
    """Strided linear patch embedding plus a learned positional table.

    frames: (B, T, H, W) with T divisible by the temporal stride; spatial
    extents are zero-padded up to stride multiples (ceil-mode grid).
    """
    b, t, h, w = frames.shape
    pt, ph, pw = stride
    if t % pt != 0:
        raise GeometryError(f"temporal stride {pt} must divide frame count {t}")
    if ph > h or pw > w:
        raise GeometryError(f"patch stride {stride} exceeds input extent {(t, h, w)}")
    gt, gh, gw = t // pt, _ceil_div(h, ph), _ceil_div(w, pw)
    x = frames
    if gh * ph != h:
        pad = ad.zeros((b, t, gh * ph - h, w))
        x = ad.concat([x, pad], axis=2)
    if gw * pw != w:
        pad = ad.zeros((b, t, gh * ph, gw * pw - w))
        x = ad.concat([x, pad], axis=3)
    x = ad.reshape(x, (b, gt, pt, gh, ph, gw, pw))
    x = ad.permute(x, (0, 1, 3, 5, 2, 4, 6))
    x = ad.reshape(x, (b, gt, gh, gw, pt * ph * pw))
    x = ad.add(ad.matmul(x, weight), bias)
    x = ad.add(x, pos_table)
    tokens = ad.reshape(x, (b, gt * gh * gw, weight.shape[1]))
    return TokenGrid(tokens=tokens, dims=(gt, gh, gw))


def pooling_attention(params, prefix, grid: TokenGrid, heads, kv_stride, q_stride):
    """Multi-head attention with average-pooled keys/values (and queries at
    stage transitions); the pooled query tensor is added back before the
    output projection."""
    x, dims = grid.tokens, grid.dims
    b, _, _ = x.shape
    dim_out = params[f"{prefix}.q.w"].shape[1]
    if dim_out % heads != 0:
        raise ConfigError(f"width {dim_out} not divisible by {heads} heads")
    d = dim_out // heads

    q, q_dims = _pool_tokens(_dense(params, f"{prefix}.q", x), dims, q_stride)
    k, _ = _pool_tokens(_dense(params, f"{prefix}.k", x), dims, kv_stride)
    v, _ = _pool_tokens(_dense(params, f"{prefix}.v", x), dims, kv_stride)

    def split(t):
        n = t.shape[1]
        return ad.permute(ad.reshape(t, (b, n, heads, d)), (0, 2, 1, 3))

    qh, kh, vh = split(q), split(k), split(v)
    scores = ad.scalar_multiply(
        ad.matmul(qh, ad.permute(kh, (0, 1, 3, 2))), 1.0 / math.sqrt(d)
    )
    weights = ad.softmax(scores, axis=3)
    ctx = ad.matmul(weights, vh)
    nq = q.shape[1]
    merged = ad.reshape(ad.permute(ctx, (0, 2, 1, 3)), (b, nq, dim_out))
    out = ad.add(merged, q)
    out = _dense(params, f"{prefix}.proj", out)
    return TokenGrid(tokens=out, dims=q_dims)


def _mvit_block(params, prefix, grid, config, q_stride, dim_in, dim_out):
    normed = _affine_norm(params, f"{prefix}.ln1", grid.tokens)
    attn = pooling_attention(
        params,
        prefix,
        TokenGrid(tokens=normed, dims=grid.dims),
        config.attention_heads,
        config.kv_stride,
        q_stride,
    )
    skip_src = grid.tokens if dim_in == dim_out else _dense(params, f"{prefix}.skip", normed)
    skip, _ = _pool_tokens(skip_src, grid.dims, q_stride)
    x = ad.add(skip, attn.tokens)
    h = _affine_norm(params, f"{prefix}.ln2", x)
    m = _dense(params, f"{prefix}.mlp2", ad.relu(_dense(params, f"{prefix}.mlp1", h)))
    return TokenGrid(tokens=ad.add(x, m), dims=attn.dims)


def _forward_mvit(params, x, config, capture):
    grid = patchify(
        x, config.patch_stride, params["patch.w"], params["patch.b"], params["pos"]
    )
    dim_in = config.embed_dims[0]
    for s, (n_blocks, dim) in enumerate(zip(config.blocks, config.embed_dims)):
        for bi in range(n_blocks):
            q_stride = config.stage_stride if (s > 0 and bi == 0) else (1, 1, 1)
            grid = _mvit_block(params, f"s{s}b{bi}", grid, config, q_stride, dim_in, dim)
            dim_in = dim
        if capture is not None:
            capture.append((grid.dims, dim_in))
    tokens = _affine_norm(params, "norm", grid.tokens)
    pooled = ad.mean(tokens, axes=(1,))
    return _dense(params, "head", ad.relu(pooled))


def _forward_r2plus1d(params, x, config, capture):
    b, t, h, w = x.shape
    cur = ad.reshape(x, (b * t, 1, h, w))
    c_in = 1
    temporal_strides = [1 if i == 0 else 2 for i in range(len(config.embed_dims))]
    for i, c in enumerate(config.embed_dims):
        cur = ad.relu(
            ad.add(
                ad.conv2d(cur, params[f"b{i}.spatial.w"], stride=(2, 2), padding=(1, 1)),
                params[f"b{i}.spatial.b"],
            )
        )
        h, w = cur.shape[2], cur.shape[3]
        cur = ad.reshape(cur, (b, t, c, h, w))
        cur = ad.reshape(ad.permute(cur, (0, 3, 4, 2, 1)), (b * h * w, c, t))
        cur = ad.relu(
            ad.add(
                ad.conv1d(cur, params[f"b{i}.temporal.w"], stride=temporal_strides[i], padding=1),
                params[f"b{i}.temporal.b"],
            )
        )
        t = cur.shape[2]
        cur = ad.permute(ad.reshape(cur, (b, h, w, c, t)), (0, 4, 3, 1, 2))
        if capture is not None:
            capture.append(((t, h, w), c))
        cur = ad.reshape(cur, (b * t, c, h, w))
        c_in = c
    cur = ad.reshape(cur, (b, t, c_in, h, w))
    pooled = ad.mean(cur, axes=(1, 3, 4))
    return _dense(params, "head", ad.relu(pooled))


def _forward_cnn_rnn(params, x, config, capture):
    b, t, h, w = x.shape
    cur = ad.reshape(x, (b * t, 1, h, w))
    for i in range(len(config.embed_dims)):
        cur = ad.relu(
            ad.add(
                ad.conv2d(cur, params[f"enc{i}.w"], stride=(2, 2), padding=(1, 1)),
                params[f"enc{i}.b"],
            )
        )
    feat_dim = cur.shape[1]
    feats = ad.reshape(ad.mean(cur, axes=(2, 3)), (b, t, feat_dim))
    hid = config.hidden_size
    h_state = ad.zeros((b, hid))
    one = ad.ones((b, hid))
    for step in range(t):
        xt = ad.reshape(
            ad.slice_(feats, (0, step, 0), (b, step + 1, feat_dim)), (b, feat_dim)
        )
        z = ad.sigmoid(
            ad.add(_dense(params, "gru.xz", xt), ad.matmul(h_state, params["gru.hz.w"]))
        )
        r = ad.sigmoid(
            ad.add(_dense(params, "gru.xr", xt), ad.matmul(h_state, params["gru.hr.w"]))
        )
        n = ad.tanh(
            ad.add(
                _dense(params, "gru.xn", xt),
                ad.matmul(ad.multiply(r, h_state), params["gru.hn.w"]),
            )
        )
        h_state = ad.add(ad.multiply(ad.subtract(one, z), n), ad.multiply(z, h_state))
    if capture is not None:
        capture.append(((t,), hid))
    return _dense(params, "head", ad.relu(h_state))


_FORWARDS = {
    "mini-mvit": _forward_mvit,
    "micro-r2plus1d": _forward_r2plus1d,
    "micro-cnn-rnn": _forward_cnn_rnn,
}


@dataclass
class Model:
    config: ModelConfig
    params: dict

    def forward(self, batch, capture=None):
        """batch: Tensor of shape (B, 16, H, W) matching the config geometry."""
        expected = (N_FRAMES, *self.config.frame_hw)
        if batch.shape[1:] != expected:
            raise GeometryError(f"expected batch of {expected} frames, got {batch.shape[1:]}")
        return _FORWARDS[self.config.variant](self.params, batch, self.config, capture)

    def replace_params(self, new_params):
        self.params = new_params


# --- checkpoints -----------------------------------------------------------

CHECKPOINT_MAGIC = b"NASCKPT1"


def save_checkpoint(model: Model, path):
    names = list(model.params)
    offset = 0
    index = []
    chunks = []
    for name in names:
        arr = model.params[name].data
        index.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size
        chunks.append(arr.reshape(-1))
    header = json.dumps(
        {"config": _config_to_dict(model.config), "params": index}, sort_keys=True
    ).encode()
    flat = np.concatenate(chunks) if chunks else np.zeros(0)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(flat.astype("<f8").tobytes())
    return Path(path)


def load_checkpoint(path) -> Model:
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ConfigError(f"{path}: not a checkpoint file")
        (header_len,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(header_len).decode())
        flat = np.frombuffer(fh.read(), dtype="<f8")
    config = _config_from_dict(header["config"])
    params = {}
    for item in header["params"]:
        size = int(np.prod(item["shape"])) if item["shape"] else 1
        arr = flat[item["offset"] : item["offset"] + size].reshape(item["shape"])
        params[item["name"]] = ad.tensor(arr, requires_grad=True)
    model = Model(config=config, params=params)
    model.config.validate()
    return model


_TUPLE_FIELDS = tuple(f.name for f in fields(ModelConfig) if f.type == "tuple")


def _config_to_dict(config: ModelConfig) -> dict:
    d = asdict(config)
    for key in _TUPLE_FIELDS:
        d[key] = list(d[key])
    return d


def _config_from_dict(d: dict) -> ModelConfig:
    kwargs = dict(d)
    for key in _TUPLE_FIELDS:
        kwargs[key] = tuple(kwargs[key])
    return ModelConfig(**kwargs)
