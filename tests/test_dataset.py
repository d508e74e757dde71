import csv
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nascore import datagen, dataset, training, tvf


@pytest.fixture(scope="module")
def table_manifest(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    return datagen.write_manifest(datagen.plan_corpus(0), directory)


def write_rows(path, rows):
    header = "video_id," + ",".join(datagen.ACTIVITY_FIELDS)
    path.write_text("\n".join([header] + rows) + ("\n" if rows else "\n"))
    return path


def single_label_row(video_id, column):
    flags = ["0"] * 23
    flags[column] = "1"
    return ",".join([video_id] + flags)


def sampled_clip(directory, video_id, frames):
    """Writes one clip and reads its sampled frames the way training does."""
    path = tvf.clip_path(directory, video_id)
    tvf.write_clip(path, tvf.VideoClip(frames=frames))
    entry = dataset.ManifestEntry(video_id=video_id, class_index=0, clip_path=path)
    return training.load_sampled_clips([entry])


class TestLoadLabels:
    def test_table_corpus_has_882_records(self, table_manifest):
        records = dataset.load_labels(table_manifest)
        assert len(records) == 882
        assert all(len(r.flags) == 23 for r in records)

    def test_empty_data_section(self, tmp_path):
        path = write_rows(tmp_path / "labels.csv", [])
        assert dataset.load_labels(path) == []

    def test_malformed_flag_reports_line(self, tmp_path):
        row = single_label_row("v0", 0).replace("1", "2")
        path = write_rows(tmp_path / "labels.csv", [row])
        with pytest.raises(dataset.ManifestError, match=":2:"):
            dataset.load_labels(path)

    def test_wrong_column_count(self, tmp_path):
        path = write_rows(tmp_path / "labels.csv", ["v0,1,0"])
        with pytest.raises(dataset.ManifestError, match="columns"):
            dataset.load_labels(path)

    def test_duplicate_video_id(self, tmp_path):
        rows = [single_label_row("v0", 0), single_label_row("v0", 1)]
        path = write_rows(tmp_path / "labels.csv", rows)
        with pytest.raises(dataset.ManifestError, match="duplicate"):
            dataset.load_labels(path)

    # Python 3.10's csv module refuses a NUL itself; later versions pass it on
    @pytest.mark.parametrize("video_id", ["", ".", "..", "../../tmp/zz", "a/b", "a\\b", "a\0b"])
    def test_video_id_must_be_a_file_name(self, tmp_path, video_id):
        path = write_rows(tmp_path / "labels.csv", [single_label_row(video_id, 0)])
        with pytest.raises(dataset.ManifestError, match=re.escape(f"{path}:2: ")):
            dataset.load_labels(path)

    def test_oversized_field(self, tmp_path):
        row = single_label_row("v" * (csv.field_size_limit() + 1), 0)
        path = write_rows(tmp_path / "labels.csv", [row])
        with pytest.raises(dataset.ManifestError, match=":2: field larger than field limit"):
            dataset.load_labels(path)

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = write_rows(tmp_path / "labels.csv", [single_label_row("v0", 0)])
        path.write_bytes(path.read_bytes().replace(b"v0", b"v\xff"))
        with pytest.raises(dataset.ManifestError, match=re.escape(f"{path}: not UTF-8 text")):
            dataset.load_labels(path)


# one field over the csv module's size limit
OVERSIZED = "x" * (csv.field_size_limit() + 1)


@st.composite
def label_manifest_bytes(draw):
    """The header and up to 3 data rows, each well-formed or with one defect:
    a video id of dots, slashes, backslashes and NULs; a field of text that
    may hold commas, quotes or newlines; an oversized field; or a field of
    raw bytes that need not be UTF-8."""
    lines = [",".join(["video_id", *datagen.ACTIVITY_FIELDS]).encode()]
    for i in range(draw(st.integers(0, 3))):
        fields = [f"v{i}".encode()] + [b"0"] * 23
        fields[1 + draw(st.integers(0, 22))] = b"1"
        defect = draw(st.sampled_from(["none", "id", "text", "oversized", "bytes"]))
        at = draw(st.just(0) | st.integers(1, 23))
        if defect == "id":
            fields[0] = draw(st.text(alphabet="v./\\\0", max_size=4)).encode()
        elif defect == "text":
            fields[at] = draw(st.text(alphabet="v01,\"\n", max_size=6)).encode()
        elif defect == "oversized":
            fields[at] = OVERSIZED.encode()
        elif defect == "bytes":
            fields[at] = draw(st.binary(max_size=4))
        lines.append(b",".join(fields))
    return b"\n".join(lines) + b"\n"


class TestLoadLabelsFuzz:
    @given(label_manifest_bytes())
    @settings(max_examples=150, deadline=None)
    def test_any_bytes_parse_or_raise_manifest_error(self, data):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "labels.csv"
            path.write_bytes(data)
            try:
                records = dataset.load_labels(path)
            except dataset.ManifestError:
                return
        assert all(isinstance(r, dataset.LabelRecord) for r in records)
        # every clip path stays inside the corpus directory
        assert all(r.clip_path.parent == path.parent for r in records)


class TestReduceLabels:
    def test_table_corpus_counts(self, table_manifest):
        records = dataset.load_labels(table_manifest)
        manifest = dataset.reduce_labels(records)
        assert manifest.total_after == 458
        assert manifest.class_counts == (65, 58, 68, 54, 60, 46, 57, 50)
        assert manifest.total_before == 882
        assert manifest.retained_columns == datagen.RETAINED_COLUMNS

    def test_both_rules_agree_on_table_corpus(self, table_manifest):
        records = dataset.load_labels(table_manifest)
        before = dataset.reduce_labels(records, rule="before")
        after = dataset.reduce_labels(records, rule="after")
        assert [e.video_id for e in before.entries] == [e.video_id for e in after.entries]
        assert [e.class_index for e in before.entries] == [e.class_index for e in after.entries]

    def test_single_class_corpus(self, tmp_path):
        medication_col = 12
        rows = [single_label_row(f"v{i}", medication_col) for i in range(60)]
        records = dataset.load_labels(write_rows(tmp_path / "labels.csv", rows))
        manifest = dataset.reduce_labels(records)
        assert manifest.total_after == 60
        assert manifest.retained_columns == (medication_col,)
        # the class index is Medication's table position, not its rank
        # among the retained columns
        assert all(e.class_index == 6 for e in manifest.entries)
        assert manifest.class_counts == (0, 0, 0, 0, 0, 0, 60, 0)

    @pytest.mark.parametrize("min_count", [0, -3])
    def test_min_count_below_one_is_value_error(self, table_manifest, min_count):
        # at 0 or below, columns that never occur would be retained
        records = dataset.load_labels(table_manifest)
        with pytest.raises(ValueError, match="min_count must be >= 1"):
            dataset.reduce_labels(records, min_count=min_count)

    def test_all_multilabel_corpus_is_empty_result(self, tmp_path):
        flags = ["0"] * 23
        flags[0] = flags[1] = "1"
        rows = [",".join([f"v{i}"] + flags) for i in range(120)]
        records = dataset.load_labels(write_rows(tmp_path / "labels.csv", rows))
        with pytest.raises(dataset.ReductionError, match="empty result"):
            dataset.reduce_labels(records)

    def test_idempotent_on_own_output(self, tmp_path):
        # every kept class stays above the threshold, so a second pass
        # keeps every record
        rows = []
        for col, n in ((0, 55), (12, 60), (13, 52)):
            rows.extend(single_label_row(f"v{col}_{i}", col) for i in range(n))
        records = dataset.load_labels(write_rows(tmp_path / "labels.csv", rows))
        manifest = dataset.reduce_labels(records)
        kept_ids = {e.video_id for e in manifest.entries}
        kept_records = [r for r in records if r.video_id in kept_ids]
        again = dataset.reduce_labels(kept_records)
        assert again.total_after == manifest.total_after
        assert again.class_counts == manifest.class_counts

    def test_rerun_on_table_corpus_drops_only_subthreshold_classes(self, table_manifest):
        # after the first pass the Hygiene class holds 46 single-label
        # videos, under the 50 threshold, so a second pass at the same
        # threshold drops exactly that class
        records = dataset.load_labels(table_manifest)
        manifest = dataset.reduce_labels(records)
        kept_ids = {e.video_id for e in manifest.entries}
        kept_records = [r for r in records if r.video_id in kept_ids]
        again = dataset.reduce_labels(kept_records)
        assert again.total_after == 458 - 46
        assert 11 not in again.retained_columns
        # the exactly-one rule itself never drops a kept record: rerunning
        # with the threshold already met keeps everything
        relaxed = dataset.reduce_labels(kept_records, min_count=46)
        assert relaxed.total_after == 458

    def test_count_sum_matches_total(self, table_manifest):
        manifest = dataset.reduce_labels(dataset.load_labels(table_manifest))
        assert sum(manifest.class_counts) == manifest.total_after

    def test_rule_flag_differs_on_mixed_video(self, tmp_path):
        # one retained + one rare flag: dropped under "before", kept under "after"
        rows = [single_label_row(f"v{i}", 0) for i in range(50)]
        mixed = ["0"] * 23
        mixed[0] = mixed[2] = "1"
        rows.append(",".join(["vmix"] + mixed))
        records = dataset.load_labels(write_rows(tmp_path / "labels.csv", rows))
        before = dataset.reduce_labels(records, rule="before")
        after = dataset.reduce_labels(records, rule="after")
        assert before.total_after == 50
        assert after.total_after == 51


class TestActivityTable:
    def test_fixed_scores(self):
        assert dataset.avg_nas(2) == 19.13  # Processing of clinical data
        assert dataset.avg_nas(1) == 2.80  # Specific ICU therapies
        assert dataset.NAS_VALUES == (12.07, 2.80, 19.13, 18.00, 11.63, 13.53, 5.60, 4.30)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            dataset.avg_nas(8)
        with pytest.raises(IndexError):
            dataset.avg_nas(-1)

    def test_ordering_matches_retained_columns(self):
        assert tuple(a.column for a in dataset.ACTIVITY_TABLE) == datagen.RETAINED_COLUMNS


class TestSampleFrames:
    def test_window_starts(self):
        assert dataset.sample_indices(676)[:3] == (2, 44, 86)
        assert dataset.sample_indices(676)[-1] == 632
        assert dataset.sample_indices(672) == tuple(range(0, 672, 42))
        assert dataset.sample_indices(820)[0] == 74
        assert dataset.sample_indices(820)[-1] == 704

    def test_too_short(self):
        with pytest.raises(dataset.TooShortClipError):
            dataset.sample_indices(671)

    def test_step_is_constant(self):
        idx = dataset.sample_indices(700)
        assert len(idx) == 16
        assert all(b - a == 42 for a, b in zip(idx, idx[1:]))
        assert idx[-1] < 700

    def test_normalization_extremes(self, tmp_path):
        frames = np.zeros((680, 4, 4), dtype=np.uint16)
        frames[:, 0, 0] = 65535
        clips = sampled_clip(tmp_path, "c", frames)
        pixels = training._batch_tensor(clips, ["c"]).data[0]
        assert pixels[0, 0, 0] == 1.0
        assert pixels[0, 1, 1] == 0.0

    def test_invariant_to_unselected_frames(self, tmp_path):
        rng = np.random.default_rng(5)
        frames = rng.integers(0, 65536, size=(680, 4, 4)).astype(np.uint16)
        selected = set(dataset.sample_indices(680))
        mutated = frames.copy()
        for t in range(680):
            if t not in selected:
                mutated[t] = 0
        clips = {**sampled_clip(tmp_path, "a", frames), **sampled_clip(tmp_path, "b", mutated)}
        ref, got = training._batch_tensor(clips, ["a", "b"]).data
        np.testing.assert_array_equal(got, ref)

    def test_file_sampling_matches_full_read(self, tmp_path):
        rng = np.random.default_rng(6)
        frames = rng.integers(0, 65536, size=(690, 6, 8)).astype(np.uint16)
        clips = sampled_clip(tmp_path, "c", frames)
        full = tvf.read_frames(tvf.clip_path(tmp_path, "c"), range(690))
        expected = full[list(dataset.sample_indices(690))]
        assert clips["c"].dtype == np.uint16
        np.testing.assert_array_equal(clips["c"], expected)
        pixels = training._batch_tensor(clips, ["c"]).data[0]
        np.testing.assert_array_equal(pixels, expected / dataset.PIXEL_SCALE)


TABLE_SCORES = [f"{v:.2f}" for v in dataset.NAS_VALUES]


@st.composite
def manifest_rows(draw):
    """Up to 4 data rows, each well-formed or given one defect: another
    table score, one field of arbitrary text, or a row of arbitrary text."""
    rows = []
    for i in range(draw(st.integers(0, 4))):
        c = draw(st.integers(-1, 8))
        row = [f"v{i}", str(c), TABLE_SCORES[c % 8], f"v{i}.tvf"]
        defect = draw(st.sampled_from(["none", "none", "score", "field", "row"]))
        if defect == "score":
            row[2] = draw(st.sampled_from(TABLE_SCORES))
        elif defect == "field":
            row[draw(st.integers(0, 3))] = draw(st.text(max_size=8))
        elif defect == "row":
            row = draw(st.lists(st.text(max_size=8), max_size=6))
        rows.append(row)
    return rows


class TestPreparedManifest:
    def test_round_trip(self, tmp_path):
        rows = [single_label_row(f"v{i}", 12) for i in range(55)]
        records = dataset.load_labels(write_rows(tmp_path / "labels.csv", rows))
        manifest = dataset.reduce_labels(records)
        out = dataset.write_prepared_manifest(manifest, tmp_path / "prep.csv")
        entries = dataset.load_prepared_manifest(out)
        assert len(entries) == 55
        assert all(e.class_index == 6 for e in entries)
        assert all(dataset.avg_nas(e.class_index) == 5.60 for e in entries)
        assert entries[0].clip_path == tmp_path / "v0.tvf"

    @given(manifest_rows())
    @settings(max_examples=60, deadline=None)
    def test_any_rows_parse_or_raise_manifest_error(self, rows):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "prepared.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(dataset.PREPARED_HEADER)
                writer.writerows(rows)
            try:
                entries = dataset.load_prepared_manifest(path)
            except dataset.ManifestError:
                return
        assert all(0 <= e.class_index < len(dataset.ACTIVITY_TABLE) for e in entries)

    def test_oversized_field(self, tmp_path):
        path = tmp_path / "prepared.csv"
        path.write_text(",".join(dataset.PREPARED_HEADER) + f"\nv0,6,5.60,{OVERSIZED}\n")
        with pytest.raises(dataset.ManifestError, match=":2: field larger than field limit"):
            dataset.load_prepared_manifest(path)
