"""Corpus ingestion: label reduction, the activity score table, the sampling window.

Reduction keeps activities whose total occurrence count clears a threshold
(50 by default) and keeps only videos carrying exactly one label. The
"exactly one" rule can be evaluated over all flags (``rule="before"``) or
only over the retained flags (``rule="after"``); the bundled synthetic
corpus is constructed so both give the same result.

``ACTIVITY_TABLE`` is the one class vocabulary: a class index is a
position in that table, never a position among the retained columns, so
``Manifest.class_counts`` holds one count per table class and a clip's
true score is ``avg_nas(class_index)``. A retained column with no table
entry is a ``ReductionError``; a prepared-manifest ``avg_nas`` that is not
its class's table score is a ``ManifestError``.

``sample_indices`` defines the 16 frames each clip contributes. Frames
reach a model one way only: ``training.load_sampled_clips`` reads them as
raw u16 counts and ``training._batch_tensor`` divides by ``PIXEL_SCALE``.
"""

from __future__ import annotations

import csv
import math
import os
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
    column: int  # zero-based activity column in the label manifest
    name: str
    average_nas: float


# the 8 activities retained at the default threshold, with the average
# workload score across each activity's subcategories
ACTIVITY_TABLE = (
    Activity(0, "Present at bedside AND continuous observation", 12.07),
    Activity(1, "Specific ICU therapies", 2.80),
    Activity(7, "Processing of clinical data", 19.13),
    Activity(8, "Support/interaction with relatives", 18.00),
    Activity(9, "Mobilisation and positioning", 11.63),
    Activity(11, "Hygiene procedure", 13.53),
    Activity(12, "Medication", 5.60),
    Activity(13, "Blood taking", 4.30),
)

_COLUMN_TO_CLASS = {a.column: i for i, a in enumerate(ACTIVITY_TABLE)}


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


def _table_rows(path, header):
    """Yields (line number, row) for each row after the header of the UTF-8
    CSV table at ``path``. The first row must equal ``header``, and every
    row has its width and a ``video_id``, its first field, that no earlier
    row has. A failed check, a row the csv module cannot parse, such as one
    with a field over its size limit, or bytes that are not UTF-8 raise
    ManifestError naming the file, and the line where there is one."""
    seen = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first != header:
                raise ManifestError(f"{path}: bad header {first}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise ManifestError(
                        f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}"
                    )
                if row[0] in seen:
                    raise ManifestError(f"{path}:{lineno}: duplicate video_id {row[0]!r}")
                seen.add(row[0])
                yield lineno, row
        except csv.Error as exc:
            raise ManifestError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ManifestError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_labels(manifest_path) -> list:
    """Parses the corpus label manifest; clip paths resolve to sibling TVFs."""
    manifest_path = Path(manifest_path)
    records = []
    for lineno, row in _table_rows(manifest_path, ["video_id", *ACTIVITY_FIELDS]):
        video_id = row[0]
        # the id names its clip file in the corpus directory
        if video_id in ("", ".", "..") or any(c in video_id for c in "/\\\0"):
            raise ManifestError(
                f"{manifest_path}:{lineno}: video_id {video_id!r} is not a file name"
            )
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
        counts = [0] * len(ACTIVITY_TABLE)
        for e in self.entries:
            counts[e.class_index] += 1
        self.class_counts = tuple(counts)


def reduce_labels(records, rule="before", min_count=OCCURRENCE_THRESHOLD) -> Manifest:
    """Applies the label-reduction rule and assigns class indices.

    Retained activities are those with at least ``min_count`` occurrences
    over the whole corpus. ``rule`` picks where "exactly one label" is
    evaluated: "before" counts every flag, "after" only retained flags.
    A video's class index is its column's position in ``ACTIVITY_TABLE``.
    """
    if rule not in ("before", "after"):
        raise ValueError(f"rule must be 'before' or 'after', got {rule!r}")
    if min_count < 1:
        # a column that never occurs would be retained
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    totals = [0] * N_ACTIVITIES
    for r in records:
        for i, v in enumerate(r.flags):
            totals[i] += v
    retained = tuple(i for i, n in enumerate(totals) if n >= min_count)
    for col in retained:
        if col not in _COLUMN_TO_CLASS:
            raise ReductionError(
                f"retained column {ACTIVITY_FIELDS[col]} has no average score entry"
            )

    entries = []
    for r in records:
        cols = [i for i, v in enumerate(r.flags) if v]
        scope = cols if rule == "before" else [c for c in cols if c in retained]
        if len(scope) != 1 or scope[0] not in retained:
            continue
        entries.append(
            ManifestEntry(
                video_id=r.video_id,
                class_index=_COLUMN_TO_CLASS[scope[0]],
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
    """Writes the training manifest; clip paths are stored relative to it."""
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    base = out_path.resolve().parent
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PREPARED_HEADER)
        for e in manifest.entries:
            rel = Path(os.path.relpath(e.clip_path.resolve(), base)).as_posix()
            writer.writerow([e.video_id, e.class_index, f"{avg_nas(e.class_index):.2f}", rel])
    return out_path


def load_prepared_manifest(path) -> list:
    path = Path(path)
    base = path.resolve().parent
    entries = []
    for lineno, (video_id, class_text, nas_text, clip) in _table_rows(path, PREPARED_HEADER):
        try:
            class_index = int(class_text)
        except ValueError:
            raise ManifestError(f"{path}:{lineno}: malformed class_index {class_text!r}")
        if not 0 <= class_index < len(ACTIVITY_TABLE):
            last = len(ACTIVITY_TABLE) - 1
            raise ManifestError(f"{path}:{lineno}: class_index {class_index} outside 0..{last}")
        # nan and inf parse as floats; they are malformed, not a score of another class
        try:
            avg = float(nas_text)
        except ValueError:
            avg = math.nan
        if not math.isfinite(avg):
            raise ManifestError(f"{path}:{lineno}: malformed avg_nas {nas_text!r}")
        expected = avg_nas(class_index)
        if avg != expected:
            raise ManifestError(
                f"{path}:{lineno}: avg_nas {nas_text} does not match class {class_index}"
                f" ({expected:.2f})"
            )
        entries.append(ManifestEntry(video_id, class_index, base / clip))
    if not entries:
        raise ManifestError(f"{path}: no entries")
    return entries
