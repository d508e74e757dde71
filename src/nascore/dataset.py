"""Corpus ingestion: label reduction, the activity score table, the sampling window.

Reduction keeps activities whose total occurrence count clears a threshold
(50 by default) and keeps only videos carrying exactly one label. The
"exactly one" rule can be evaluated over all flags (``rule="before"``) or
only over the retained flags (``rule="after"``); the bundled synthetic
corpus is constructed so both give the same result.

``sample_indices`` defines the 16 frames each clip contributes. Frames
reach a model one way only: ``training.load_sampled_clips`` reads them as
raw u16 counts and ``training._batch_tensor`` divides by ``PIXEL_SCALE``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

from . import tvf
from .datagen import ACTIVITY_FIELDS, N_ACTIVITIES

OCCURRENCE_THRESHOLD = 50

SAMPLE_WINDOW = 672
SAMPLE_FRAMES = 16
FRAME_STEP = 42

PIXEL_SCALE = 65535.0


class ManifestError(ValueError):
    pass


class ReductionError(ValueError):
    pass


class TooShortClipError(ValueError):
    pass


@dataclass(frozen=True)
class Activity:
    class_index: int
    column: int  # zero-based activity column in the label manifest
    name: str
    average_nas: float


# the 8 activities retained at the default threshold, with the average
# workload score across each activity's subcategories
ACTIVITY_TABLE = (
    Activity(0, 0, "Present at bedside AND continuous observation", 12.07),
    Activity(1, 1, "Specific ICU therapies", 2.80),
    Activity(2, 7, "Processing of clinical data", 19.13),
    Activity(3, 8, "Support/interaction with relatives", 18.00),
    Activity(4, 9, "Mobilisation and positioning", 11.63),
    Activity(5, 11, "Hygiene procedure", 13.53),
    Activity(6, 12, "Medication", 5.60),
    Activity(7, 13, "Blood taking", 4.30),
)

_COLUMN_TO_ACTIVITY = {a.column: a for a in ACTIVITY_TABLE}


def avg_nas(class_index: int) -> float:
    if not 0 <= class_index < len(ACTIVITY_TABLE):
        raise IndexError(f"class index {class_index} out of range 0..{len(ACTIVITY_TABLE) - 1}")
    return ACTIVITY_TABLE[class_index].average_nas


NAS_VALUES = tuple(a.average_nas for a in ACTIVITY_TABLE)


@dataclass(frozen=True)
class LabelRecord:
    video_id: str
    flags: tuple  # 23 ints in {0,1}
    clip_path: Path


def load_labels(manifest_path) -> list:
    """Parses the corpus label manifest; clip paths resolve to sibling TVFs."""
    manifest_path = Path(manifest_path)
    expected_header = ["video_id", *ACTIVITY_FIELDS]
    records = []
    seen = set()
    with open(manifest_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected_header:
            raise ManifestError(f"{manifest_path}: bad header {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 1 + N_ACTIVITIES:
                raise ManifestError(
                    f"{manifest_path}:{lineno}: expected {1 + N_ACTIVITIES} columns, got {len(row)}"
                )
            video_id = row[0]
            if video_id in seen:
                raise ManifestError(f"{manifest_path}:{lineno}: duplicate video_id {video_id!r}")
            seen.add(video_id)
            flags = []
            for value in row[1:]:
                if value not in ("0", "1"):
                    raise ManifestError(
                        f"{manifest_path}:{lineno}: malformed flag {value!r} (must be 0 or 1)"
                    )
                flags.append(int(value))
            records.append(
                LabelRecord(
                    video_id=video_id,
                    flags=tuple(flags),
                    clip_path=tvf.clip_path(manifest_path.parent, video_id),
                )
            )
    return records


@dataclass(frozen=True)
class ManifestEntry:
    video_id: str
    class_index: int
    clip_path: Path


@dataclass
class Manifest:
    entries: list
    retained_columns: tuple
    total_before: int
    total_after: int = field(init=False)
    class_counts: tuple = field(init=False)

    def __post_init__(self):
        self.total_after = len(self.entries)
        counts = [0] * len(self.retained_columns)
        for e in self.entries:
            counts[e.class_index] += 1
        self.class_counts = tuple(counts)


def reduce_labels(records, rule="before", min_count=OCCURRENCE_THRESHOLD) -> Manifest:
    """Applies the label-reduction rule and assigns class indices.

    Retained activities are those with at least ``min_count`` occurrences
    over the whole corpus. ``rule`` picks where "exactly one label" is
    evaluated: "before" counts every flag, "after" only retained flags.
    Class indices follow manifest column order of the retained set.
    """
    if rule not in ("before", "after"):
        raise ValueError(f"rule must be 'before' or 'after', got {rule!r}")
    totals = [0] * N_ACTIVITIES
    for r in records:
        for i, v in enumerate(r.flags):
            totals[i] += v
    retained = tuple(i for i, n in enumerate(totals) if n >= min_count)
    column_to_class = {col: idx for idx, col in enumerate(retained)}

    entries = []
    for r in records:
        cols = [i for i, v in enumerate(r.flags) if v]
        scope = cols if rule == "before" else [c for c in cols if c in column_to_class]
        if len(scope) != 1 or scope[0] not in column_to_class:
            continue
        entries.append(
            ManifestEntry(
                video_id=r.video_id,
                class_index=column_to_class[scope[0]],
                clip_path=r.clip_path,
            )
        )
    if not entries:
        raise ReductionError(
            f"empty result: no video kept at threshold {min_count} (rule={rule!r})"
        )
    return Manifest(entries=entries, retained_columns=retained, total_before=len(records))


def sample_indices(frame_count: int) -> tuple:
    """The 16 frame indices: a centered 672-frame window, stepped by 42."""
    if frame_count < SAMPLE_WINDOW:
        raise TooShortClipError(
            f"clip has {frame_count} frames, sampling needs at least {SAMPLE_WINDOW}"
        )
    start = (frame_count - SAMPLE_WINDOW) // 2
    return tuple(start + FRAME_STEP * k for k in range(SAMPLE_FRAMES))


PREPARED_HEADER = ["video_id", "class_index", "avg_nas", "clip_path"]


def write_prepared_manifest(manifest: Manifest, out_path) -> Path:
    """Writes the training manifest; clip paths are stored relative to it.

    Requires every retained activity to be one of the 8 known classes so
    the average score column can be filled in.
    """
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    for col in manifest.retained_columns:
        if col not in _COLUMN_TO_ACTIVITY:
            raise ReductionError(
                f"retained column {ACTIVITY_FIELDS[col]} has no average score entry"
            )
    base = out_path.resolve().parent
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PREPARED_HEADER)
        for e in manifest.entries:
            activity = _COLUMN_TO_ACTIVITY[manifest.retained_columns[e.class_index]]
            rel = _relative_path(e.clip_path.resolve(), base)
            writer.writerow([e.video_id, e.class_index, f"{activity.average_nas:.2f}", rel])
    return out_path


def _relative_path(target: Path, base: Path) -> str:
    try:
        return target.relative_to(base).as_posix()
    except ValueError:
        import os

        return Path(os.path.relpath(target, base)).as_posix()


@dataclass(frozen=True)
class PreparedEntry:
    video_id: str
    class_index: int
    avg_nas: float
    clip_path: Path


def load_prepared_manifest(path) -> list:
    path = Path(path)
    base = path.resolve().parent
    entries = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != PREPARED_HEADER:
            raise ManifestError(f"{path}: bad header {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise ManifestError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
            entries.append(
                PreparedEntry(
                    video_id=row[0],
                    class_index=int(row[1]),
                    avg_nas=float(row[2]),
                    clip_path=(base / row[3]),
                )
            )
    if not entries:
        raise ManifestError(f"{path}: no entries")
    return entries
