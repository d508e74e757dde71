"""Thermal Video File (TVF) container.

Binary, little-endian: magic ``TVF1``, u32 frame count T, u32 H, u32 W,
u32 frames-per-second, u8 dtype code (0 = unsigned 16-bit), 3 reserved
zero bytes, then T*H*W u16 samples, frame-major and row-major within each
frame.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"TVF1"
DTYPE_U16 = 0
_HEADER = struct.Struct("<4sIIIIB3s")


class TvfError(ValueError):
    pass


@dataclass
class VideoClip:
    """T x H x W unsigned 16-bit thermal frames plus frame-rate metadata."""

    frames: np.ndarray
    fps: int = 6

    def __post_init__(self):
        if self.frames.ndim != 3:
            raise TvfError(f"frames must be TxHxW, got shape {self.frames.shape}")
        if self.frames.dtype != np.uint16:
            raise TvfError(f"frames must be uint16, got {self.frames.dtype}")

    @property
    def shape(self):
        return self.frames.shape


def write_clip(path, clip: VideoClip):
    t, h, w = clip.frames.shape
    header = _HEADER.pack(MAGIC, t, h, w, clip.fps, DTYPE_U16, b"\x00\x00\x00")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(clip.frames, dtype="<u2").tobytes())


def read_header(path):
    """Returns (T, H, W, fps) without loading pixel data."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
    return _parse_header(path, raw)


def _parse_header(path, raw):
    if len(raw) < _HEADER.size:
        raise TvfError(f"{path}: truncated header")
    magic, t, h, w, fps, dtype, reserved = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise TvfError(f"{path}: bad magic {magic!r}")
    if dtype != DTYPE_U16:
        raise TvfError(f"{path}: unsupported dtype code {dtype}")
    return t, h, w, fps


def read_clip(path) -> VideoClip:
    with open(path, "rb") as fh:
        t, h, w, fps = _parse_header(path, fh.read(_HEADER.size))
        data = np.fromfile(fh, dtype="<u2", count=t * h * w)
    if data.size != t * h * w:
        raise TvfError(f"{path}: expected {t * h * w} samples, found {data.size}")
    return VideoClip(frames=data.reshape(t, h, w).astype(np.uint16), fps=fps)


def read_frames(path, indices) -> np.ndarray:
    """Reads only the frames at ``indices`` (sorted unique), as one array."""
    indices = sorted(set(int(i) for i in indices))
    with open(path, "rb") as fh:
        t, h, w, _ = _parse_header(path, fh.read(_HEADER.size))
        if indices and (indices[0] < 0 or indices[-1] >= t):
            raise TvfError(f"{path}: frame index out of range 0..{t - 1}")
        frame_bytes = h * w * 2
        out = np.empty((len(indices), h, w), dtype=np.uint16)
        for row, idx in enumerate(indices):
            fh.seek(_HEADER.size + idx * frame_bytes)
            raw = fh.read(frame_bytes)
            if len(raw) != frame_bytes:
                raise TvfError(f"{path}: truncated at frame {idx}")
            out[row] = np.frombuffer(raw, dtype="<u2").reshape(h, w)
    return out


def clip_path(directory, video_id) -> Path:
    return Path(directory) / f"{video_id}.tvf"
