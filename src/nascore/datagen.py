"""Deterministic synthesis of a labeled thermal-video corpus.

The planner reproduces a fixed activity-occurrence table exactly: 882
videos over 23 activity flags, of which 458 carry exactly one retained
label. The renderer draws each clip as a cool background with sensor
noise, a static warm patient ellipse, and per-activity caregiver blobs
moving along class-specific trajectories.

A clip is drawn in place on its int32 noise draw: one broadcast add of a
base frame (background plus static patient), the rolling patient's mask in
bounded frame chunks, and one indexed add per distinct blob center over all
frames that share it. Every term is an exact integer add that cannot
overflow int32, and integer adds commute, so neither the order of the
terms nor the grouping of frames changes a byte of the clip.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import tvf

N_ACTIVITIES = 23
N_OBSERVED = 14

# occurrence totals for the 14 observed activities (columns a01..a14)
BEFORE_COUNTS = (88, 63, 20, 11, 9, 34, 49, 85, 57, 73, 23, 54, 59, 55)
# kept single-label counts for the 8 activities that clear the threshold
AFTER_COUNTS = (65, 58, 68, 54, 60, 46, 57, 50)
# zero-based observed-column index of each retained class, in table order
RETAINED_COLUMNS = (0, 1, 7, 8, 9, 11, 12, 13)
NON_RETAINED_COLUMNS = (2, 3, 4, 5, 6, 10)

TOTAL_VIDEOS = 882
FRAME_COUNT_RANGE = (676, 820)
FPS = 6

DEFAULT_GEOMETRY = (72, 96)  # (H, W), a 4x downscale of the capture sensor
SMOKE_GEOMETRY = (24, 32)
SMOKE_PER_CLASS = 10

BACKGROUND_LEVEL = 12000
PATIENT_DELTA = 18000
AGENT_DELTA = 33000
NOISE_DELTA = 1311  # 2% of the u16 dynamic range
MAX_VALUE = 65535


class PlanError(ValueError):
    pass


class RenderError(ValueError):
    pass


def stable_seed(*parts) -> int:
    """Deterministic 63-bit seed from arbitrary parts (hash() is salted)."""
    text = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass(frozen=True)
class PlanEntry:
    video_id: str
    labels: tuple  # 23 ints in {0,1}
    frame_count: int
    seed: int

    @property
    def label_columns(self):
        return tuple(i for i, v in enumerate(self.labels) if v)


@dataclass
class CorpusPlan:
    entries: list
    seed: int


def greedy_pairs(counts):
    """Pairs off counts by repeatedly joining the two largest remainders.

    Raises PlanError when any remainder exceeds the sum of all others (no
    perfect pairing exists); also triggered by an odd total.
    """
    remaining = list(counts)
    pairs = []
    while sum(remaining) > 0:
        top = max(remaining)
        if top > sum(remaining) - top:
            raise PlanError(
                f"pairing infeasible: count {top} exceeds the sum of the others ({remaining})"
            )
        order = sorted(range(len(remaining)), key=lambda i: (-remaining[i], i))
        a, b = order[0], order[1]
        remaining[a] -= 1
        remaining[b] -= 1
        pairs.append((a, b))
    return pairs


def _flags(columns):
    labels = [0] * N_ACTIVITIES
    for c in columns:
        labels[c] = 1
    return tuple(labels)


def _plan(seed, id_format, label_rows) -> CorpusPlan:
    """One entry per label row, in order: its id is ``id_format`` of the
    row index, its frame count the next draw of the seed's generator."""
    rng = np.random.default_rng(seed)
    lo, hi = FRAME_COUNT_RANGE
    entries = []
    for idx, labels in enumerate(label_rows):
        video_id = id_format.format(idx)
        entries.append(
            PlanEntry(
                video_id=video_id,
                labels=labels,
                frame_count=int(rng.integers(lo, hi + 1)),
                seed=stable_seed(seed, video_id),
            )
        )
    return CorpusPlan(entries=entries, seed=seed)


def plan_corpus(seed: int) -> CorpusPlan:
    """Lays out the full 882-entry corpus; pure function of the seed."""
    label_rows = []
    for class_idx, col in enumerate(RETAINED_COLUMNS):
        label_rows.extend([_flags([col])] * AFTER_COUNTS[class_idx])

    excess = [BEFORE_COUNTS[col] - AFTER_COUNTS[i] for i, col in enumerate(RETAINED_COLUMNS)]
    for a, b in greedy_pairs(excess):
        label_rows.append(_flags([RETAINED_COLUMNS[a], RETAINED_COLUMNS[b]]))

    leftovers = [BEFORE_COUNTS[c] for c in NON_RETAINED_COLUMNS]
    for a, b in greedy_pairs(leftovers):
        label_rows.append(_flags([NON_RETAINED_COLUMNS[a], NON_RETAINED_COLUMNS[b]]))

    label_rows.extend([_flags([])] * (TOTAL_VIDEOS - len(label_rows)))
    assert len(label_rows) == TOTAL_VIDEOS
    return _plan(seed, "vid{:04d}", label_rows)


def plan_smoke(seed: int) -> CorpusPlan:
    """Small separable corpus: 10 single-label clips per retained class."""
    label_rows = [_flags([col]) for col in RETAINED_COLUMNS for _ in range(SMOKE_PER_CLASS)]
    return _plan(seed, "smoke{:03d}", label_rows)


# --- motion patterns -------------------------------------------------------


@dataclass(frozen=True)
class MotionPattern:
    kind: str
    dwell: tuple  # (y, x) center of activity in unit coordinates
    warmth: int  # blob amplitude over background, raw counts


# three kinds draw a fixed sweep whose midpoint is exactly their dwell:
# approach-retreat (y 0.08-0.48, x 0.06-0.34), brief-visit (y 0.92-0.62,
# x 0.08-0.50) and bedside-sweep's x (0.25-0.75)
MOTION_PATTERNS = (
    MotionPattern("bedside-dwell", (0.55, 0.22), 24000),
    MotionPattern("arm-reach", (0.42, 0.78), 26600),
    MotionPattern("corner-station", (0.14, 0.86), 29200),
    MotionPattern("two-agent", (0.85, 0.51), 31800),
    MotionPattern("patient-roll", (0.50, 0.80), 34400),
    MotionPattern("bedside-sweep", (0.30, 0.50), 37000),
    MotionPattern("approach-retreat", (0.28, 0.20), 39600),
    MotionPattern("brief-visit", (0.77, 0.29), 42200),
)

PATIENT_CENTER = (0.55, 0.50)
PATIENT_SEMI = (0.13, 0.24)
# samples per chunk of the rolling patient's float64 mask (2 MB), so no
# float temporary spans the whole clip
_MASK_CHUNK = 1 << 18


def _tri(u):
    """Triangle wave mapping phase to [0, 1]."""
    u = u % 1.0
    return np.where(u < 0.5, 2.0 * u, 2.0 - 2.0 * u)


def _stamp(radius_px, amplitude):
    r = max(int(radius_px), 1)
    yy, xx = np.mgrid[-2 * r : 2 * r + 1, -2 * r : 2 * r + 1]
    return (amplitude * np.exp(-(yy**2 + xx**2) / (2.0 * r * r))).astype(np.int32)


def _add_stamps(canvas, stamp, frames, ys, xs):
    """Adds the stamp centered at integer (ys[i], xs[i]) into canvas[frames[i]].

    Frames that share a center get one indexed add over all of them, so the
    loop runs once per distinct center, not once per frame. The adds are
    exact int32 sums far from overflow, and they commute, so every sample
    equals what a frame-by-frame loop would give.
    """
    if len(frames) == 0:  # a clip too short to reach a presence window
        return
    _, h, w = canvas.shape
    half = stamp.shape[0] // 2
    keys = ys * w + xs
    order = np.argsort(keys, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(keys[order])) + 1):
        cy, cx = ys[group[0]], xs[group[0]]
        y0, y1 = max(0, cy - half), min(h, cy + half + 1)
        x0, x1 = max(0, cx - half), min(w, cx + half + 1)
        # stamp row r lands on canvas row cy - half + r; likewise columns
        sy, sx = half - cy, half - cx
        canvas[frames[group], y0:y1, x0:x1] += stamp[y0 + sy : y1 + sy, x0 + sx : x1 + sx]


def _to_px(y, x, h, w):
    ys = np.clip(np.round(np.asarray(y) * (h - 1)).astype(int), 0, h - 1)
    xs = np.clip(np.round(np.asarray(x) * (w - 1)).astype(int), 0, w - 1)
    return ys, xs


def _agent_tracks(pattern, t_total, phase_rng):
    """Unit-coordinate (y, x) trajectories for each agent blob of a class.

    Returns a list of (y_array, x_array, size_scale, presence_mask).
    """
    t = np.arange(t_total, dtype=np.float64)
    ph = phase_rng.uniform(0.0, 1.0, size=4)
    k = pattern.kind
    if k == "bedside-dwell":
        y = pattern.dwell[0] + 0.015 * np.sin(2 * np.pi * (0.004 * t + ph[0]))
        x = pattern.dwell[1] + 0.015 * np.cos(2 * np.pi * (0.005 * t + ph[1]))
        return [(y, x, 1.0, None)]
    if k == "arm-reach":
        ay = pattern.dwell[0] + 0.01 * np.sin(2 * np.pi * (0.003 * t + ph[0]))
        ax = np.full_like(t, pattern.dwell[1])
        u = 0.25 + 0.45 * (0.5 + 0.5 * np.sin(2 * np.pi * (0.02 * t + ph[1])))
        ry = ay + u * (PATIENT_CENTER[0] - ay)
        rx = ax + u * (PATIENT_CENTER[1] - ax)
        return [(ay, ax, 1.0, None), (ry, rx, 0.5, None)]
    if k == "corner-station":
        y = pattern.dwell[0] + 0.008 * np.sin(2 * np.pi * (0.002 * t + ph[0]))
        x = pattern.dwell[1] + 0.008 * np.cos(2 * np.pi * (0.0025 * t + ph[1]))
        return [(y, x, 1.0, None)]
    if k == "two-agent":
        sway = 0.025 * np.sin(2 * np.pi * (0.007 * t + ph[0]))
        y = np.full_like(t, pattern.dwell[0])
        return [(y + sway, 0.40 + sway * 0.5, 1.0, None), (y - sway, 0.62 - sway * 0.5, 1.0, None)]
    if k == "patient-roll":
        y = pattern.dwell[0] + 0.01 * np.sin(2 * np.pi * (0.004 * t + ph[0]))
        x = np.full_like(t, pattern.dwell[1])
        return [(y, x, 1.0, None)]
    if k == "bedside-sweep":
        x = 0.25 + 0.5 * _tri(0.01 * t + ph[0])
        y = np.full_like(t, pattern.dwell[0])
        return [(y, x, 1.0, None)]
    if k == "approach-retreat":
        u = _tri(0.006 * t + ph[0])
        y = 0.08 + u * (0.48 - 0.08)
        x = 0.06 + u * (0.34 - 0.06)
        return [(y, x, 1.0, None)]
    if k == "brief-visit":
        present = (t >= 0.38 * t_total) & (t <= 0.62 * t_total)
        u = np.clip((t - 0.38 * t_total) / (0.12 * t_total), 0.0, 1.0)
        leave = np.clip((t - 0.50 * t_total) / (0.12 * t_total), 0.0, 1.0)
        prog = u - leave
        y = 0.92 + prog * (0.62 - 0.92)
        x = 0.08 + prog * (0.50 - 0.08)
        return [(y, x, 1.0, present)]
    raise RenderError(f"no trajectory for pattern kind {k!r}")


def _wanderer_track(column, t_total, phase_rng):
    """Generic roaming blob for observed activities without a class pattern."""
    t = np.arange(t_total, dtype=np.float64)
    ph = phase_rng.uniform(0.0, 1.0)
    cy = 0.20 + 0.10 * (column % 3)
    cx = 0.55 + 0.12 * (column % 2)
    rate = 0.008 + 0.001 * (column % 5)
    y = cy + 0.08 * np.sin(2 * np.pi * (rate * t + ph))
    x = cx + 0.08 * np.cos(2 * np.pi * (rate * t + ph))
    return [(y, x, 0.8, None)]


def render_clip(
    entry: PlanEntry, geometry=DEFAULT_GEOMETRY, seed=None, agent_scale=1.0
) -> tvf.VideoClip:
    """Draws the clip for one plan entry; deterministic in (entry, geometry, seed).

    agent_scale widens the caregiver blobs; the smoke corpus uses a bold
    scale so its classes separate quickly at micro training budgets.
    The noise draw is the canvas: the base frame, patient and blobs are
    added to it in place, then it is clipped in place and cast to uint16
    once. No float temporary spans the whole clip.
    """
    h, w = geometry
    # pixels map to unit coordinates as index / (extent - 1)
    if h < 2 or w < 2:
        raise RenderError(f"invalid geometry {geometry}: extents must be at least 2 pixels")
    seed = entry.seed if seed is None else seed
    t_total = entry.frame_count

    noise_rng = np.random.default_rng(seed)
    canvas = noise_rng.integers(-NOISE_DELTA, NOISE_DELTA + 1, size=(t_total, h, w), dtype=np.int32)
    phase_rng = np.random.default_rng(stable_seed(seed, "phases"))

    cols = entry.label_columns
    moving_patient = any(
        c in RETAINED_COLUMNS and MOTION_PATTERNS[RETAINED_COLUMNS.index(c)].kind == "patient-roll"
        for c in cols
    )

    # patient ellipse, static unless the roll pattern is active
    yy, xx = np.mgrid[0:h, 0:w]
    uy, ux = yy / (h - 1), xx / (w - 1)
    ry = ((uy - PATIENT_CENTER[0]) / PATIENT_SEMI[0]) ** 2
    base = np.full((h, w), BACKGROUND_LEVEL, dtype=np.int32)
    if moving_patient:
        # the roll's horizontal offset per frame, in unit coordinates
        dx = 0.06 * np.sin(2 * np.pi * (0.012 * np.arange(t_total) + phase_rng.uniform(0.0, 1.0)))
        step = max(1, _MASK_CHUNK // (h * w))
        for t0 in range(0, t_total, step):
            chunk = canvas[t0 : t0 + step]
            shift = dx[t0 : t0 + step, None, None]
            mask = ry + ((ux - PATIENT_CENTER[1] - shift) / PATIENT_SEMI[1]) ** 2 <= 1.0
            np.add(chunk, PATIENT_DELTA, out=chunk, where=mask)
    else:
        base[ry + ((ux - PATIENT_CENTER[1]) / PATIENT_SEMI[1]) ** 2 <= 1.0] += PATIENT_DELTA
    canvas += base

    base_radius = max(h, w) * 0.055 * agent_scale
    for c in cols:
        if c in RETAINED_COLUMNS:
            pattern = MOTION_PATTERNS[RETAINED_COLUMNS.index(c)]
            tracks = _agent_tracks(pattern, t_total, phase_rng)
            warmth = pattern.warmth
        elif c < N_OBSERVED:
            tracks = _wanderer_track(c, t_total, phase_rng)
            warmth = AGENT_DELTA
        else:
            continue
        for y, x, scale, present in tracks:
            stamp = _stamp(base_radius * scale, warmth)
            ys, xs = _to_px(y, x, h, w)
            shown = np.arange(t_total) if present is None else np.flatnonzero(present)
            _add_stamps(canvas, stamp, shown, ys[shown], xs[shown])

    frames = np.clip(canvas, 0, MAX_VALUE, out=canvas).astype(np.uint16)
    return tvf.VideoClip(frames=frames, fps=FPS)


MANIFEST_NAME = "labels.csv"
ACTIVITY_FIELDS = tuple(f"a{i + 1:02d}" for i in range(N_ACTIVITIES))


def write_manifest(plan: CorpusPlan, directory) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = directory / MANIFEST_NAME
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("video_id",) + ACTIVITY_FIELDS)
        for entry in plan.entries:
            writer.writerow((entry.video_id,) + entry.labels)
    return manifest


SMOKE_AGENT_SCALE = 3.0


def write_corpus(
    plan: CorpusPlan, directory, geometry=DEFAULT_GEOMETRY, seed=None, agent_scale=1.0
) -> Path:
    """Renders every entry to a TVF file and writes the label manifest.

    Returns the manifest path. Render seeds come from the plan entries
    unless ``seed`` is given, in which case they are re-derived from it.
    Each clip is freed once written, so at most one is in memory.
    ``tvf.write_out_dir`` writes the files: ``directory`` must be missing
    or empty, which is checked before any clip is rendered; ``labels.csv``
    comes last; and a failure leaves no file of this call behind.
    """

    def render_to(entry, path):
        render_seed = entry.seed if seed is None else stable_seed(seed, entry.video_id)
        clip = render_clip(entry, geometry=geometry, seed=render_seed, agent_scale=agent_scale)
        tvf.write_clip(path, clip)

    writers = {tvf.clip_path(directory, e.video_id).name: partial(render_to, e) for e in plan.entries}
    writers[MANIFEST_NAME] = lambda path: write_manifest(plan, path.parent)
    return tvf.write_out_dir(directory, writers)
