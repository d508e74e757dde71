"""Three micro-scale video models sharing one parameter/forward convention.

mini-mvit: strided patch embedding into a (B, T, H, W, C) token grid,
which keeps that shape to the head, then three stages of pooling
attention; each stage transition halves the spatial grid and doubles the
channel width. Keys and values are pooled by MViT's adaptive stride:
``kv_stride`` in the last stage, and ``stage_stride`` times more per axis
in each stage before it, so every block attends to the same K/V grid. Each
block pools its normalized input before the Q/K/V linears run, which
averaging makes the same function as projecting, then pooling.
micro-r2plus1d: R(2+1)D blocks, each 3D convolution factorized into a
1x3x3 spatial conv and a 3x1x1 temporal conv. micro-cnn-rnn: a 1x3x3 conv
encoder, so a 2D conv of each frame, feeding a gated recurrent cell.

Each layer is one autodiff op: a dense layer is ``linear``, a norm with
its gain and shift is ``layer_norm``, and every convolution, which these
models always follow by its bias and then ReLU, is ``conv3d``. The
recurrent cell is one ``gru`` over all frames, fed by one ``linear`` per
gate that projects every frame at once. The conv models pass one
channel-major (C, B, T, H, W) volume from the clip to their head, as
conv3d takes and gives it; only the head (r2plus1d) or the recurrent
cell's input (cnn-rnn) permutes the pooled features to batch-first.

All variants end in the same head, ReLU then dense. mini-mvit and
micro-r2plus1d feed it the mean over their token or space-time axes;
micro-cnn-rnn takes the spatial mean of each frame's features before its
recurrent cell and feeds the head the final hidden state.
Parameters live in a flat name -> Tensor dict; forward passes are pure
functions of (params, batch).

Each variant's frozen config class adds to ``ModelConfig``'s ``head``,
``frame_hw`` and ``seed`` exactly the fields its init and forward read;
``_VARIANTS`` maps a variant to its config class, init and forward.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, asdict, fields
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from .dataset import ACTIVITY_TABLE

# the classifier scores one logit per class of the activity table
CLASSIFY_HEAD = f"classify-{len(ACTIVITY_TABLE)}"
HEADS = {CLASSIFY_HEAD: len(ACTIVITY_TABLE), "regress-1": 1}

N_FRAMES = 16


class ConfigError(ValueError):
    pass


class GeometryError(ValueError):
    pass


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


widths = tuple  # the annotation of channel widths: one or more positive integers


def _int_tuple(raw):
    return tuple(int(v) for v in raw.split(","))


# each config field annotation by name: the parser of its text in a config
# file, and what it admits, by name and by test; every config's validate
# method checks each field's type before its value
FIELD_TYPES = {
    "str": (str, "a string", lambda v: isinstance(v, str)),
    "int": (int, "an integer", _is_int),
    "float": (float, "a finite number",
              lambda v: (_is_int(v) or isinstance(v, float)) and math.isfinite(v)),
    "tuple": (_int_tuple, "a tuple of integers",
              lambda v: isinstance(v, tuple) and all(_is_int(x) for x in v)),
    "widths": (_int_tuple, "one or more positive widths",
               lambda v: isinstance(v, tuple) and v and all(_is_int(x) and x > 0 for x in v)),
}


def check_field_types(config):
    """Raises ConfigError at the first field of ``config`` of a wrong type."""
    for f in fields(config):
        value = getattr(config, f.name)
        _, kind, admits = FIELD_TYPES[f.type]
        if not admits(value):
            raise ConfigError(f"{f.name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    """What every variant reads; a subclass names its ``variant``."""

    head: str
    frame_hw: tuple
    seed: int = 0

    def validate(self):
        check_field_types(self)
        if self.head not in HEADS:
            raise ConfigError(f"unknown head {self.head!r}")
        if len(self.frame_hw) != 2 or min(self.frame_hw) < 1:
            raise ConfigError(f"frame_hw must be two positive integers, got {self.frame_hw}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class MvitConfig(ModelConfig):
    variant: ClassVar[str] = "mini-mvit"
    patch_stride: tuple = (2, 4, 4)
    embed_dims: widths = (16, 32, 64)
    blocks: tuple = (1, 1, 1)
    attention_heads: int = 2
    # the last stage's K/V pooling stride; see kv_stride_schedule
    kv_stride: tuple = (1, 2, 2)
    stage_stride: tuple = (1, 2, 2)
    mlp_ratio: float = 2.0

    def validate(self):
        super().validate()
        for key in ("patch_stride", "kv_stride", "stage_stride"):
            value = getattr(self, key)
            if len(value) != 3 or any(v < 1 for v in value):
                raise ConfigError(f"{key} must be three positive integers, got {value}")
        if self.attention_heads < 1:
            raise ConfigError(
                f"attention_heads must be a positive integer, got {self.attention_heads}"
            )
        if len(self.blocks) != len(self.embed_dims) or min(self.blocks, default=0) < 0:
            raise ConfigError(f"blocks must give a count >= 0 per stage, got {self.blocks}")
        if N_FRAMES % self.patch_stride[0] != 0:
            raise ConfigError(
                f"temporal patch stride {self.patch_stride[0]} must divide {N_FRAMES}"
            )
        if any(s > n for s, n in zip(self.patch_stride[1:], self.frame_hw)):
            raise ConfigError(f"patch stride {self.patch_stride} exceeds frame_hw {self.frame_hw}")
        for i, dim in enumerate(self.embed_dims):
            if dim % self.attention_heads != 0:
                raise ConfigError(
                    f"stage {i} dim {dim} not divisible by {self.attention_heads} heads"
                )
        for a, b in zip(self.embed_dims, self.embed_dims[1:]):
            if b != 2 * a:
                raise ConfigError(f"stage dims must double, got {self.embed_dims}")
        if round(self.mlp_ratio * self.embed_dims[0]) < 1:
            raise ConfigError(f"mlp_ratio {self.mlp_ratio} leaves stage 0 no MLP width")


@dataclass(frozen=True)
class R2plus1dConfig(ModelConfig):
    variant: ClassVar[str] = "micro-r2plus1d"
    embed_dims: widths = (8, 16, 32)


@dataclass(frozen=True)
class CnnRnnConfig(ModelConfig):
    variant: ClassVar[str] = "micro-cnn-rnn"
    embed_dims: widths = (8, 16)
    hidden_size: int = 32

    def validate(self):
        super().validate()
        if self.hidden_size < 1:
            raise ConfigError("hidden_size must be positive")


def config_class(variant):
    """The config dataclass of ``variant``; its own fields are the settings it takes."""
    if variant not in _VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    return _VARIANTS[variant][0]


def default_config(variant, head, frame_hw, seed=0, **settings) -> ModelConfig:
    return config_class(variant)(head, tuple(frame_hw), seed=seed, **settings)


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
        # conv3d is channel-major, (O, B, OT, OH, OW), so the bias
        # broadcasts from (O, 1, 1, 1, 1)
        self.params[f"{name}.b"] = ad.tensor(np.zeros((shape[0], 1, 1, 1, 1)), requires_grad=True)

    def norm(self, name, dim):
        self.params[f"{name}.g"] = ad.tensor(np.ones(dim), requires_grad=True)
        self.params[f"{name}.b"] = ad.tensor(np.zeros(dim), requires_grad=True)

    def table(self, name, shape):
        self.params[name] = ad.tensor(
            self.rng.uniform(-0.02, 0.02, size=shape), requires_grad=True
        )


def _ceil_div(n, s):
    return -(-n // s)


def patch_grid_dims(config: MvitConfig):
    h, w = config.frame_hw
    pt, ph, pw = config.patch_stride
    return (N_FRAMES // pt, _ceil_div(h, ph), _ceil_div(w, pw))


def stage_schedule(config: MvitConfig):
    """(grid dims, channel width) at which each stage's blocks operate."""
    dims = patch_grid_dims(config)
    schedule = [(dims, config.embed_dims[0])]
    for dim in config.embed_dims[1:]:
        dims = tuple(_ceil_div(n, s) for n, s in zip(dims, config.stage_stride))
        schedule.append((dims, dim))
    return schedule


def kv_stride_schedule(config: MvitConfig):
    """The K/V pooling stride of each stage on its query grid: kv_stride *
    stage_stride ** (S-1-s) per axis for stage s of S. Each stage transition
    pools the queries by stage_stride, so every block attends to the same
    K/V grid (MViT's adaptive K/V stride)."""
    last = len(config.embed_dims) - 1
    return [
        tuple(k * q ** (last - s) for k, q in zip(config.kv_stride, config.stage_stride))
        for s in range(last + 1)
    ]


def build_model(config: ModelConfig) -> "Model":
    config.validate()
    init = _Init(config.seed)
    _VARIANTS[config.variant][1](init, config)
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
    init.linear("head", dim_in, HEADS[config.head])


def _init_r2plus1d(init, config):
    c_in = 1
    for i, c in enumerate(config.embed_dims):
        init.conv(f"b{i}.spatial", (c, c_in, 1, 3, 3))
        init.conv(f"b{i}.temporal", (c, c, 3, 1, 1))
        c_in = c
    init.linear("head", c_in, HEADS[config.head])


def _init_cnn_rnn(init, config):
    c_in = 1
    for i, c in enumerate(config.embed_dims):
        init.conv(f"enc{i}", (c, c_in, 1, 3, 3))
        c_in = c
    feat = c_in
    hid = config.hidden_size
    for gate in ("z", "r", "n"):
        init.linear(f"gru.x{gate}", feat, hid)
        init.linear(f"gru.h{gate}", hid, hid, bias=False)
    init.linear("head", hid, HEADS[config.head])


# --- shared pieces ---------------------------------------------------------


def _dense(params, name, x):
    return ad.linear(x, params[f"{name}.w"], params[f"{name}.b"])


def _conv_relu(params, name, x, stride, padding):
    return ad.conv3d(x, params[f"{name}.w"], params[f"{name}.b"], stride=stride, padding=padding)


def _affine_norm(params, name, x):
    return ad.layer_norm(x, params[f"{name}.g"], params[f"{name}.b"])


def _pool_grid(x, stride):
    """Average-pools a (B, T, H, W, C) token grid by ``stride`` (ceil mode)."""
    return x if all(s == 1 for s in stride) else ad.avg_pool(x, stride)


def patchify(frames, stride, weight, bias, pos_table):
    """Strided linear patch embedding plus a learned positional table: the
    (B, T', H', W', C) token grid. The clip needs no gradient, so its
    patch rows are cut in numpy, outside the graph.

    frames: (B, T, H, W), with the strides ``MvitConfig.validate`` admits;
    spatial extents are zero-padded up to stride multiples (ceil-mode grid).
    """
    b, t, h, w = frames.shape
    pt, ph, pw = stride
    gt, gh, gw = t // pt, _ceil_div(h, ph), _ceil_div(w, pw)
    padded = np.zeros((b, t, gh * ph, gw * pw))
    padded[:, :, :h, :w] = frames.data
    rows = padded.reshape(b, gt, pt, gh, ph, gw, pw).transpose(0, 1, 3, 5, 2, 4, 6)
    rows = ad.tensor(rows.reshape(b, gt, gh, gw, pt * ph * pw))
    return ad.add(ad.linear(rows, weight, bias), pos_table)


def pooling_attention(params, prefix, grid, query, heads, kv_pool):
    """Multi-head attention of ``query``, the block input ``grid`` pooled by
    the query stride, over keys and values pooled from ``grid`` once by
    ``kv_pool`` per axis, run as one fused ``pooled_attention`` op; the
    projected query tensor is added back before the output projection.

    The Q/K/V linears run on the pooled rows. Averaging commutes with an
    affine map, ceil-mode truncated windows included, so this is MViT's
    project-then-pool up to float summation order."""
    kv = _pool_grid(grid, kv_pool)
    q = _dense(params, f"{prefix}.q", query)
    k = _dense(params, f"{prefix}.k", kv)
    v = _dense(params, f"{prefix}.v", kv)
    out = ad.add(ad.pooled_attention(q, k, v, heads), q)
    return _dense(params, f"{prefix}.proj", out)


def _mvit_block(params, prefix, x, heads, kv_stride, q_stride, dim_in, dim_out):
    """``kv_stride`` is measured on the query grid, so keys and values are
    pooled from the input grid by q_stride * kv_stride."""
    normed = _affine_norm(params, f"{prefix}.ln1", x)
    query = _pool_grid(normed, q_stride)
    kv_pool = tuple(a * b for a, b in zip(q_stride, kv_stride))
    attn = pooling_attention(params, prefix, normed, query, heads, kv_pool)
    if dim_in == dim_out:
        skip = _pool_grid(x, q_stride)
    else:
        # a stage transition projects its skip from the queries' pooled rows
        skip = _dense(params, f"{prefix}.skip", query)
    x = ad.add(skip, attn)
    h = _affine_norm(params, f"{prefix}.ln2", x)
    m = _dense(params, f"{prefix}.mlp2", ad.relu(_dense(params, f"{prefix}.mlp1", h)))
    return ad.add(x, m)


def _forward_mvit(params, x, config, capture):
    x = patchify(x, config.patch_stride, params["patch.w"], params["patch.b"], params["pos"])
    dim_in = config.embed_dims[0]
    stages = zip(config.blocks, config.embed_dims, kv_stride_schedule(config))
    for s, (n_blocks, dim, kv_stride) in enumerate(stages):
        for bi in range(n_blocks):
            q_stride = config.stage_stride if (s > 0 and bi == 0) else (1, 1, 1)
            x = _mvit_block(
                params, f"s{s}b{bi}", x, config.attention_heads, kv_stride, q_stride, dim_in, dim
            )
            dim_in = dim
        if capture is not None:
            capture.append((x.shape[1:4], dim_in))
    pooled = ad.mean(_affine_norm(params, "norm", x), axes=(1, 2, 3))
    return _dense(params, "head", ad.relu(pooled))


def _clip_volume(x):
    """The (B, T, H, W) clip as the one-channel volume (1, B, T, H, W); it
    needs no gradient, so it enters the graph as a leaf."""
    return ad.tensor(x.data[None])


def _forward_r2plus1d(params, x, config, capture):
    cur = _clip_volume(x)
    for i in range(len(config.embed_dims)):
        cur = _conv_relu(params, f"b{i}.spatial", cur, stride=(1, 2, 2), padding=(0, 1, 1))
        s = 1 if i == 0 else 2
        cur = _conv_relu(params, f"b{i}.temporal", cur, stride=(s, 1, 1), padding=(1, 0, 0))
        if capture is not None:
            capture.append((cur.shape[2:], cur.shape[0]))
    pooled = ad.permute(ad.mean(cur, axes=(2, 3, 4)), (1, 0))
    return _dense(params, "head", ad.relu(pooled))


def _forward_cnn_rnn(params, x, config, capture):
    cur = _clip_volume(x)
    for i in range(len(config.embed_dims)):
        cur = _conv_relu(params, f"enc{i}", cur, stride=(1, 2, 2), padding=(0, 1, 1))
    # each frame's spatial mean, (C, B, T) -> (B, T, C)
    feats = ad.permute(ad.mean(cur, axes=(3, 4)), (1, 2, 0))
    # each gate's input projection runs over all T frames as one linear
    xz, xr, xn = (_dense(params, f"gru.x{gate}", feats) for gate in "zrn")
    h_state = ad.gru(xz, xr, xn, *(params[f"gru.h{gate}.w"] for gate in "zrn"))
    if capture is not None:
        capture.append(((x.shape[1],), config.hidden_size))
    return _dense(params, "head", ad.relu(h_state))


# each variant's config class, parameter initializer and forward pass
_VARIANTS = {
    MvitConfig.variant: (MvitConfig, _init_mvit, _forward_mvit),
    R2plus1dConfig.variant: (R2plus1dConfig, _init_r2plus1d, _forward_r2plus1d),
    CnnRnnConfig.variant: (CnnRnnConfig, _init_cnn_rnn, _forward_cnn_rnn),
}
VARIANTS = tuple(_VARIANTS)


@dataclass
class Model:
    config: ModelConfig
    params: dict

    def forward(self, batch, capture=None):
        """batch: Tensor of shape (B, 16, H, W) matching the config geometry."""
        expected = (N_FRAMES, *self.config.frame_hw)
        if batch.shape[1:] != expected:
            raise GeometryError(f"expected batch of {expected} frames, got {batch.shape[1:]}")
        return _VARIANTS[self.config.variant][2](self.params, batch, self.config, capture)

    def replace_params(self, new_params):
        self.params = new_params


# --- checkpoints -----------------------------------------------------------

CHECKPOINT_MAGIC = b"NASCKPT1"


def save_checkpoint(model: Model, path):
    """Writes the magic, a u32 LE header length, the JSON header ``{config,
    params: [{name, shape, offset}], variant}`` and the parameters as f8 LE
    values, back to back at those offsets. nascore never reads a checkpoint
    back."""
    index = []
    offset = 0
    for name, p in model.params.items():
        index.append({"name": name, "shape": list(p.shape), "offset": offset})
        offset += p.data.size
    header = {"config": asdict(model.config), "params": index, "variant": model.config.variant}
    header = json.dumps(header, sort_keys=True).encode()
    flat = np.concatenate([p.data.reshape(-1) for p in model.params.values()])
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(flat.astype("<f8").tobytes())
    return Path(path)
