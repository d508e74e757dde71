"""Thermal Video File (TVF) container.

Binary, little-endian: magic ``TVF1``, u32 frame count T, u32 H, u32 W,
u32 frames-per-second, u8 dtype code (0 = unsigned 16-bit), 3 reserved
zero bytes, then T*H*W u16 samples, frame-major and row-major within each
frame.
"""

from __future__ import annotations

import os
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


def write_clip(path, clip: VideoClip):
    t, h, w = clip.frames.shape
    header = _HEADER.pack(MAGIC, t, h, w, clip.fps, DTYPE_U16, b"\x00\x00\x00")
    with open(path, "wb") as fh:
        fh.write(header)
        # the array's own buffer when it is already contiguous little-endian
        fh.write(np.ascontiguousarray(clip.frames, dtype="<u2").data)


def read_header(path):
    """Returns (T, H, W, fps) without loading pixel data."""
    with open(path, "rb") as fh:
        return _read_header(path, fh)[:4]


def _read_header(path, fh):
    """Parses the header at the start of the open file ``fh``. Returns
    (T, H, W, fps, bytes after the header); one frame must fit in those
    bytes, so no extents in a header can size an array past the file."""
    raw = fh.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise TvfError(f"{path}: truncated header")
    magic, t, h, w, fps, dtype, reserved = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise TvfError(f"{path}: bad magic {magic!r}")
    if dtype != DTYPE_U16:
        raise TvfError(f"{path}: unsupported dtype code {dtype}")
    held = os.fstat(fh.fileno()).st_size - _HEADER.size
    if not 0 < 2 * h * w <= held:
        raise TvfError(f"{path}: {h}x{w} frames do not fit in its {held} sample bytes")
    return t, h, w, fps, held


def read_frames(path, indices) -> np.ndarray:
    """Reads only the frames at ``indices`` (sorted unique), as one array."""
    indices = sorted(set(int(i) for i in indices))
    with open(path, "rb") as fh:
        t, h, w, _, held = _read_header(path, fh)
        if indices and (indices[0] < 0 or indices[-1] >= t):
            raise TvfError(f"{path}: frame index out of range 0..{t - 1}")
        frame_bytes = h * w * 2
        for idx in indices:
            if (idx + 1) * frame_bytes > held:
                raise TvfError(f"{path}: truncated at frame {idx}")
        out = np.empty((len(indices), h, w), dtype=np.uint16)
        for row, idx in enumerate(indices):
            fh.seek(_HEADER.size + idx * frame_bytes)
            out[row] = np.frombuffer(fh.read(frame_bytes), dtype="<u2").reshape(h, w)
    return out


def clip_path(directory, video_id) -> Path:
    return Path(directory) / f"{video_id}.tvf"
