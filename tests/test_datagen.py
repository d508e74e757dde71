import numpy as np
import pytest

from nascore import datagen, dataset, tvf


class TestGreedyPairs:
    def test_retained_excess_consumes_all(self):
        pairs = datagen.greedy_pairs([23, 5, 17, 3, 13, 8, 2, 5])
        assert len(pairs) == 38
        used = [0] * 8
        for a, b in pairs:
            assert a != b
            used[a] += 1
            used[b] += 1
        assert used == [23, 5, 17, 3, 13, 8, 2, 5]

    def test_leftover_counts_consume_all(self):
        pairs = datagen.greedy_pairs([20, 11, 9, 34, 49, 23])
        assert len(pairs) == 73

    def test_infeasible_raises(self):
        with pytest.raises(datagen.PlanError):
            datagen.greedy_pairs([5, 1])

    def test_odd_total_raises(self):
        with pytest.raises(datagen.PlanError):
            datagen.greedy_pairs([2, 1])


@pytest.fixture(scope="module")
def plan():
    return datagen.plan_corpus(0)


class TestPlanCorpus:
    def test_total_entries(self, plan):
        assert len(plan.entries) == 882

    def test_occurrence_totals_match_before_column(self, plan):
        assert plan.occurrence_totals[:14] == datagen.BEFORE_COUNTS
        assert plan.occurrence_totals[14:] == (0,) * 9

    def test_single_label_counts_match_after_column(self, plan):
        assert plan.single_label_counts == datagen.AFTER_COUNTS
        singles = [
            e for e in plan.entries
            if len(e.label_columns) == 1 and e.label_columns[0] in datagen.RETAINED_COLUMNS
        ]
        assert len(singles) == 458

    def test_non_kept_labeled_entries_have_two_matched_flags(self, plan):
        retained = set(datagen.RETAINED_COLUMNS)
        for e in plan.entries:
            cols = e.label_columns
            if len(cols) in (0, 1):
                continue
            assert len(cols) == 2
            inside = sum(c in retained for c in cols)
            assert inside in (0, 2), f"{e.video_id} mixes retained and dropped labels"

    def test_frame_counts_in_range(self, plan):
        for e in plan.entries:
            assert 676 <= e.frame_count <= 820

    def test_pure_function_of_seed(self, plan):
        again = datagen.plan_corpus(0)
        assert again.entries == plan.entries
        other = datagen.plan_corpus(1)
        assert other.entries != plan.entries

    def test_smoke_plan(self):
        plan = datagen.plan_smoke(0)
        assert len(plan.entries) == 80
        per_class = {}
        for e in plan.entries:
            (col,) = e.label_columns
            per_class[col] = per_class.get(col, 0) + 1
        assert per_class == {c: 10 for c in datagen.RETAINED_COLUMNS}


class TestMotionPatterns:
    def test_eight_distinct_patterns(self):
        assert len(datagen.MOTION_PATTERNS) == 8
        sigs = [(p.agent_count, p.dwell, p.speed) for p in datagen.MOTION_PATTERNS]
        for i in range(8):
            for j in range(i + 1, 8):
                assert sigs[i] != sigs[j]

    def test_kinds_unique(self):
        kinds = [p.kind for p in datagen.MOTION_PATTERNS]
        assert len(set(kinds)) == 8


def make_entry(columns, frame_count=676, seed=99, video_id="t0"):
    labels = [0] * datagen.N_ACTIVITIES
    for c in columns:
        labels[c] = 1
    return datagen.PlanEntry(
        video_id=video_id, labels=tuple(labels), frame_count=frame_count, seed=seed
    )


GEOM = (24, 32)


class TestRenderClip:
    def test_deterministic(self):
        entry = make_entry([0])
        a = datagen.render_clip(entry, GEOM)
        b = datagen.render_clip(entry, GEOM)
        assert a.frames.tobytes() == b.frames.tobytes()

    def test_invalid_geometry(self):
        with pytest.raises(datagen.RenderError):
            datagen.render_clip(make_entry([0]), (0, 32))

    def test_zero_label_warm_mask_static(self):
        clip = datagen.render_clip(make_entry([]), GEOM)
        warm = clip.frames > 21000
        first = warm[0]
        assert np.all(warm == first[None])

    def test_mobilisation_moves_more_than_empty(self):
        # patient-roll class is column index 9; same seed shares the noise field
        still = datagen.render_clip(make_entry([]), GEOM)
        moving = datagen.render_clip(make_entry([9]), GEOM)
        diff = lambda c: np.mean(np.abs(np.diff(c.frames.astype(np.int64), axis=0)))
        assert diff(moving) > diff(still)

    def test_pixel_range_and_patient_warm(self):
        for cols in ([], [0], [1, 7], [9]):
            clip = datagen.render_clip(make_entry(cols), GEOM)
            assert clip.frames.min() >= 0 and clip.frames.max() <= 65535
            h, w = GEOM
            yy, xx = np.mgrid[0:h, 0:w]
            cy, cx = datagen.PATIENT_CENTER
            ry, rx = datagen.PATIENT_SEMI
            mask = ((yy / (h - 1) - cy) / ry) ** 2 + ((xx / (w - 1) - cx) / rx) ** 2 <= 1.0
            # allow for the rolled patient with a generous margin
            assert clip.frames[:, mask].mean() > clip.frames[:, ~mask].mean()


class TestWriteCorpus:
    def test_smoke_round_trip(self, tmp_path):
        plan = datagen.plan_smoke(3)
        manifest = datagen.write_corpus(plan, tmp_path, geometry=GEOM)
        lines = manifest.read_text().strip().split("\n")
        assert len(lines) == 81  # header + 80
        for entry in plan.entries:
            clip = tvf.read_clip(tvf.clip_path(tmp_path, entry.video_id))
            assert clip.shape == (entry.frame_count, *GEOM)
            assert clip.fps == datagen.FPS
            assert 676 <= clip.shape[0] <= 820

    def test_rewrite_byte_identical(self, tmp_path):
        plan = datagen.plan_smoke(3)
        sub = datagen.CorpusPlan(entries=plan.entries[:2], seed=plan.seed)
        datagen.write_corpus(sub, tmp_path / "a", geometry=GEOM)
        datagen.write_corpus(sub, tmp_path / "b", geometry=GEOM)
        for e in sub.entries:
            pa = tvf.clip_path(tmp_path / "a", e.video_id).read_bytes()
            pb = tvf.clip_path(tmp_path / "b", e.video_id).read_bytes()
            assert pa == pb


class TestTvf:
    def test_header_round_trip(self, tmp_path):
        frames = np.arange(2 * 3 * 4, dtype=np.uint16).reshape(2, 3, 4)
        path = tmp_path / "x.tvf"
        tvf.write_clip(path, tvf.VideoClip(frames=frames))
        assert tvf.read_header(path) == (2, 3, 4, 6)
        got = tvf.read_clip(path)
        np.testing.assert_array_equal(got.frames, frames)

    def test_read_frames_subset(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = rng.integers(0, 65536, size=(10, 4, 5)).astype(np.uint16)
        path = tmp_path / "y.tvf"
        tvf.write_clip(path, tvf.VideoClip(frames=frames))
        got = tvf.read_frames(path, [1, 4, 9])
        np.testing.assert_array_equal(got, frames[[1, 4, 9]])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "z.tvf"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(tvf.TvfError):
            tvf.read_header(path)

    def test_truncated_sampled_read(self, tmp_path):
        frames = np.zeros((700, 3, 4), dtype=np.uint16)
        path = tmp_path / "t.tvf"
        tvf.write_clip(path, tvf.VideoClip(frames=frames))
        data = path.read_bytes()
        header = len(data) - frames.nbytes
        path.write_bytes(data[: header + frames.nbytes // 2])
        # frames 0..349 survive; the first sampled frame past them is 350
        with pytest.raises(tvf.TvfError, match="truncated at frame 350"):
            tvf.read_frames(path, dataset.sample_indices(700))
