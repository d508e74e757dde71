import hashlib
import re
import struct
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        totals = tuple(map(sum, zip(*(e.labels for e in plan.entries))))
        assert totals[:14] == datagen.BEFORE_COUNTS
        assert totals[14:] == (0,) * 9

    def test_single_label_counts_match_after_column(self, plan):
        records = [dataset.LabelRecord(e.video_id, e.labels, None) for e in plan.entries]
        assert dataset.reduce_labels(records).class_counts == datagen.AFTER_COUNTS
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


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


class TestGoldenBytes:
    """The plan rows, labels.csv and prepared.csv of seed 0, byte for byte."""

    @pytest.mark.parametrize("planner, min_count, labels, rows, prepared", [
        (datagen.plan_corpus, 50,
         "e444214637061442f3a0d7c5733f3ea5a46a198a30e2cf8165ab00198ece5a28",
         "4bbce4c3cb9b5aad86339bc5c6b16747110d0ee6ada9c12541dc10d5441f7ff1",
         "c13cd6450edafad7ab6940e8c8f8447d945466db44ac792b08bd8db2127f52d6"),
        (datagen.plan_smoke, 1,
         "e939c2882d5276e5054153259f273b45a8903ac4bfa8f49b1786c552db29fca4",
         "15fea7697c182e0e78dc6916bcdadfd20a287e7923183be089ac855a7caeeb3b",
         "092c4c8ba1193ce6ec906b767ad4e1189045ccf94c6d80a6fb496e8f7d490981"),
    ], ids=["full", "smoke"])
    def test_digests(self, tmp_path, planner, min_count, labels, rows, prepared):
        plan = planner(0)
        text = "\n".join(f"{e.video_id},{e.frame_count},{e.seed}" for e in plan.entries)
        assert _sha256(text.encode()) == rows
        manifest = datagen.write_manifest(plan, tmp_path / "corpus")
        assert _sha256(manifest.read_bytes()) == labels
        reduced = dataset.reduce_labels(dataset.load_labels(manifest), min_count=min_count)
        out = dataset.write_prepared_manifest(reduced, tmp_path / "prepared.csv")
        assert _sha256(out.read_bytes()) == prepared


class TestMotionPatterns:
    def test_eight_distinct_patterns(self):
        assert len(datagen.MOTION_PATTERNS) == 8
        sigs = [(p.dwell, p.warmth) for p in datagen.MOTION_PATTERNS]
        for i in range(8):
            for j in range(i + 1, 8):
                assert sigs[i] != sigs[j]

    def test_kinds_unique(self):
        kinds = [p.kind for p in datagen.MOTION_PATTERNS]
        assert len(set(kinds)) == 8

    @pytest.mark.parametrize("kind,axes", [
        ("approach-retreat", (0, 1)), ("brief-visit", (0, 1)), ("bedside-sweep", (1,)),
    ])
    def test_sweep_midpoint_is_dwell(self, kind, axes):
        # these kinds draw a fixed sweep rather than a path around dwell; the
        # sweep's midpoint over a long clip is still the table's dwell
        (pattern,) = [p for p in datagen.MOTION_PATTERNS if p.kind == kind]
        track = datagen._agent_tracks(pattern, 2400, np.random.default_rng(5))[0]
        for axis in axes:
            coord = track[axis]
            assert abs((coord.min() + coord.max()) / 2 - pattern.dwell[axis]) < 0.01


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

    @pytest.mark.parametrize("geometry", [(1, 1), (1, 32), (24, 1)])
    def test_one_pixel_extent_is_render_error(self, geometry):
        # pixels map to unit coordinates as index / (extent - 1)
        with pytest.raises(datagen.RenderError, match="at least 2 pixels"):
            datagen.render_clip(make_entry([0]), geometry)

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


def _oracle_add_stamps(canvas, stamp, ys, xs):
    """Frame-by-frame stamp adds; a ``None`` center skips its frame."""
    t_total, h, w = canvas.shape
    half = stamp.shape[0] // 2
    for t in range(t_total):
        cy, cx = ys[t], xs[t]
        if cy is None:
            continue
        y0, y1 = cy - half, cy + half + 1
        x0, x1 = cx - half, cx + half + 1
        sy0, sx0 = max(0, -y0), max(0, -x0)
        sy1 = stamp.shape[0] - max(0, y1 - h)
        sx1 = stamp.shape[1] - max(0, x1 - w)
        if sy0 >= sy1 or sx0 >= sx1:
            continue
        canvas[t, max(0, y0) : min(h, y1), max(0, x0) : min(w, x1)] += stamp[sy0:sy1, sx0:sx1]


def _oracle_render(entry, geometry, agent_scale):
    """The renderer as a full background canvas, a patient mask per frame,
    a stamp add per frame and the noise added last."""
    h, w = geometry
    t_total = entry.frame_count
    noise_rng = np.random.default_rng(entry.seed)
    noise = noise_rng.integers(
        -datagen.NOISE_DELTA, datagen.NOISE_DELTA + 1, size=(t_total, h, w), dtype=np.int32
    )
    phase_rng = np.random.default_rng(datagen.stable_seed(entry.seed, "phases"))
    canvas = np.full((t_total, h, w), datagen.BACKGROUND_LEVEL, dtype=np.int32)
    cols = entry.label_columns
    retained = datagen.RETAINED_COLUMNS
    moving = any(
        c in retained and datagen.MOTION_PATTERNS[retained.index(c)].kind == "patient-roll"
        for c in cols
    )
    yy, xx = np.mgrid[0:h, 0:w]
    uy, ux = yy / (h - 1), xx / (w - 1)
    (cy, cx), (ry, rx) = datagen.PATIENT_CENTER, datagen.PATIENT_SEMI
    if moving:
        # the roll's phase is the first draw of the phase stream
        ph = phase_rng.uniform(0.0, 1.0)
        dx = 0.06 * np.sin(2 * np.pi * (0.012 * np.arange(t_total, dtype=np.float64) + ph))
        for t in range(t_total):
            mask = ((uy - cy) / ry) ** 2 + ((ux - cx - dx[t]) / rx) ** 2 <= 1.0
            canvas[t][mask] += datagen.PATIENT_DELTA
    else:
        mask = ((uy - cy) / ry) ** 2 + ((ux - cx) / rx) ** 2 <= 1.0
        canvas[:, mask] += datagen.PATIENT_DELTA
    base_radius = max(h, w) * 0.055 * agent_scale
    for c in cols:
        if c in retained:
            pattern = datagen.MOTION_PATTERNS[retained.index(c)]
            tracks = datagen._agent_tracks(pattern, t_total, phase_rng)
            warmth = pattern.warmth
        elif c < datagen.N_OBSERVED:
            tracks = datagen._wanderer_track(c, t_total, phase_rng)
            warmth = datagen.AGENT_DELTA
        else:
            continue
        for y, x, scale, present in tracks:
            stamp = datagen._stamp(base_radius * scale, warmth)
            ys, xs = datagen._to_px(y, x, h, w)
            if present is not None:
                ys = [yi if p else None for yi, p in zip(ys, present)]
            _oracle_add_stamps(canvas, stamp, ys, xs)
    canvas += noise
    return np.clip(canvas, 0, datagen.MAX_VALUE).astype(np.uint16)


ORACLE_COLUMNS = (
    [[c] for c in datagen.RETAINED_COLUMNS]  # the 8 motion patterns
    + [[0, 7], [1, 12], [9, 13]]  # paired clips, one with the rolling patient
    + [[2], [3, 10], [20], []]  # wanderers, an unplotted column, unlabelled
)


class TestRenderOracle:
    """render_clip draws in place with grouped adds; the bytes must equal
    the frame-by-frame oracle's, computed in this process."""

    @pytest.mark.parametrize("columns", ORACLE_COLUMNS, ids=str)
    def test_default_geometry(self, columns):
        entry = make_entry(columns, frame_count=150, seed=len(columns) * 31 + sum(columns))
        got = datagen.render_clip(entry, datagen.DEFAULT_GEOMETRY)
        want = _oracle_render(entry, datagen.DEFAULT_GEOMETRY, 1.0)
        assert got.frames.dtype == np.uint16
        assert got.frames.tobytes() == want.tobytes()

    @pytest.mark.parametrize("geometry", [(2, 2), (2, 200), (12, 16), (24, 32)], ids=str)
    @pytest.mark.parametrize("columns", ORACLE_COLUMNS, ids=str)
    def test_overhanging_stamps(self, columns, geometry):
        # at the smoke scale a stamp is wider than a 2-pixel axis
        entry = make_entry(columns, frame_count=60, seed=7 + sum(columns))
        got = datagen.render_clip(entry, geometry, agent_scale=datagen.SMOKE_AGENT_SCALE)
        want = _oracle_render(entry, geometry, datagen.SMOKE_AGENT_SCALE)
        assert got.frames.tobytes() == want.tobytes()

    @pytest.mark.parametrize("frame_count", [0, 1, 2])
    @pytest.mark.parametrize("columns", ORACLE_COLUMNS, ids=str)
    def test_tiny_clips(self, columns, frame_count):
        # a 1-frame clip has no frame inside brief-visit's presence window
        entry = make_entry(columns, frame_count=frame_count)
        got = datagen.render_clip(entry, (12, 16))
        assert got.frames.shape == (frame_count, 12, 16)
        assert got.frames.tobytes() == _oracle_render(entry, (12, 16), 1.0).tobytes()

    def test_frames_share_centers(self):
        # a slow pattern revisits centers across distant frames, so groups
        # hold many frames that are not adjacent
        entry = make_entry([0], frame_count=400)
        h, w = datagen.DEFAULT_GEOMETRY
        y, x, _, _ = datagen._agent_tracks(
            datagen.MOTION_PATTERNS[0], 400, np.random.default_rng(datagen.stable_seed(99, "phases"))
        )[0]
        ys, xs = datagen._to_px(y, x, h, w)
        assert len(set(zip(ys.tolist(), xs.tolist()))) < 400 // 10
        got = datagen.render_clip(entry, datagen.DEFAULT_GEOMETRY)
        assert got.frames.tobytes() == _oracle_render(entry, datagen.DEFAULT_GEOMETRY, 1.0).tobytes()


class TestWriteCorpus:
    def test_smoke_round_trip(self, tmp_path):
        plan = datagen.plan_smoke(3)
        manifest = datagen.write_corpus(plan, tmp_path, geometry=GEOM)
        lines = manifest.read_text().strip().split("\n")
        assert len(lines) == 81  # header + 80
        for entry in plan.entries:
            t, h, w, fps = tvf.read_header(tvf.clip_path(tmp_path, entry.video_id))
            assert (t, h, w) == (entry.frame_count, *GEOM)
            assert fps == datagen.FPS
            assert 676 <= t <= 820

    def test_rewrite_byte_identical(self, tmp_path):
        plan = datagen.plan_smoke(3)
        sub = datagen.CorpusPlan(entries=plan.entries[:2], seed=plan.seed)
        datagen.write_corpus(sub, tmp_path / "a", geometry=GEOM)
        datagen.write_corpus(sub, tmp_path / "b", geometry=GEOM)
        for e in sub.entries:
            pa = tvf.clip_path(tmp_path / "a", e.video_id).read_bytes()
            pb = tvf.clip_path(tmp_path / "b", e.video_id).read_bytes()
            assert pa == pb

    def test_previous_clip_is_freed_before_the_next_renders(self, tmp_path, monkeypatch):
        render = datagen.render_clip
        alive_at_render = []
        clips = []

        def tracked(*args, **kwargs):
            alive_at_render.append(sum(ref() is not None for ref in clips))
            clip = render(*args, **kwargs)
            clips.append(weakref.ref(clip))
            return clip

        monkeypatch.setattr(datagen, "render_clip", tracked)
        plan = datagen.plan_smoke(3)
        datagen.write_corpus(datagen.CorpusPlan(plan.entries[:3], plan.seed), tmp_path,
                             geometry=GEOM)
        assert alive_at_render == [0, 0, 0]
        assert all(ref() is None for ref in clips)

    def test_refuses_a_directory_holding_files(self, tmp_path, monkeypatch):
        # a failed write removes what it wrote, which would include the
        # clips of an older corpus it had overwritten
        plan = datagen.plan_smoke(3)
        sub = datagen.CorpusPlan(entries=plan.entries[:2], seed=plan.seed)
        datagen.write_corpus(sub, tmp_path, geometry=GEOM)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def no_render(*args, **kwargs):
            raise AssertionError("a clip was rendered")

        monkeypatch.setattr(datagen, "render_clip", no_render)
        with pytest.raises(FileExistsError, match=f"^{re.escape(str(tmp_path))}: not empty"):
            datagen.write_corpus(sub, tmp_path, geometry=GEOM)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestTvf:
    def test_header_round_trip(self, tmp_path):
        frames = np.arange(2 * 3 * 4, dtype=np.uint16).reshape(2, 3, 4)
        path = tmp_path / "x.tvf"
        tvf.write_clip(path, tvf.VideoClip(frames=frames))
        assert tvf.read_header(path) == (2, 3, 4, 6)
        np.testing.assert_array_equal(tvf.read_frames(path, range(2)), frames)

    def test_read_frames_subset(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = rng.integers(0, 65536, size=(10, 4, 5)).astype(np.uint16)
        path = tmp_path / "y.tvf"
        tvf.write_clip(path, tvf.VideoClip(frames=frames))
        got = tvf.read_frames(path, [1, 4, 9])
        np.testing.assert_array_equal(got, frames[[1, 4, 9]])

    def test_non_contiguous_frames(self, tmp_path):
        frames = np.arange(5 * 6 * 8, dtype=np.uint16).reshape(5, 6, 8)
        view = frames[:, ::2]
        assert not view.flags.c_contiguous
        path = tmp_path / "v.tvf"
        tvf.write_clip(path, tvf.VideoClip(frames=view))
        assert path.stat().st_size == tvf._HEADER.size + 5 * 3 * 8 * 2
        assert tvf.read_header(path) == (5, 3, 8, 6)
        np.testing.assert_array_equal(tvf.read_frames(path, range(5)), view)

    def test_contiguous_frames_size(self, tmp_path):
        frames = np.full((4, 3, 2), 0x1234, dtype=np.uint16)
        path = tmp_path / "c.tvf"
        tvf.write_clip(path, tvf.VideoClip(frames=frames))
        data = path.read_bytes()
        assert len(data) == tvf._HEADER.size + 4 * 3 * 2 * 2
        assert data[tvf._HEADER.size :] == b"\x34\x12" * 24  # little-endian samples

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


@st.composite
def tvf_bytes(draw):
    """A small clip's bytes truncated, with one byte replaced, or behind a
    header of any extents (up to 2**32 - 1 each); or arbitrary bytes."""
    kind = draw(st.sampled_from(["truncated", "byte", "header", "arbitrary"]))
    if kind == "arbitrary":
        return draw(st.binary(max_size=64))
    if kind == "header":
        t, h, w, fps = (draw(st.integers(0, 2**32 - 1)) for _ in range(4))
        dtype = draw(st.sampled_from([0, 0, 1, 255]))
        header = struct.pack("<4sIIIIB3s", tvf.MAGIC, t, h, w, fps, dtype, b"\x00" * 3)
        return header + draw(st.binary(max_size=64))
    frames = np.arange(3 * 2 * 4, dtype=np.uint16).reshape(3, 2, 4)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "c.tvf"
        tvf.write_clip(path, tvf.VideoClip(frames=frames))
        data = bytearray(path.read_bytes())
    if kind == "truncated":
        return bytes(data[: draw(st.integers(0, len(data)))])
    data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


class TestTvfFuzz:
    @given(tvf_bytes(), st.lists(st.integers(0, 20), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_any_bytes_parse_or_raise_tvf_error(self, data, indices):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "x.tvf"
            path.write_bytes(data)
            for read in (tvf.read_header, lambda p: tvf.read_frames(p, indices)):
                try:
                    read(path)
                except tvf.TvfError:
                    pass

    @pytest.mark.parametrize("t, h, w", [(2**32 - 1,) * 3, (0, 2**31, 2**31), (1, 0, 4)])
    def test_frames_larger_than_the_file(self, tmp_path, t, h, w):
        # once OverflowError, ValueError or MemoryError from sizing the arrays
        path = tmp_path / "big.tvf"
        path.write_bytes(struct.pack("<4sIIIIB3s", tvf.MAGIC, t, h, w, 6, 0, b"\x00" * 3) + b"\x01" * 8)
        for read in (tvf.read_header, lambda p: tvf.read_frames(p, [])):
            with pytest.raises(tvf.TvfError, match=f"{h}x{w} frames do not fit in its 8 sample bytes"):
                read(path)

    def test_clip_shorter_than_its_header(self, tmp_path):
        path = tmp_path / "short.tvf"
        path.write_bytes(struct.pack("<4sIIIIB3s", tvf.MAGIC, 2**32 - 1, 2, 2, 6, 0, b"\x00" * 3) + b"\x01" * 8)
        np.testing.assert_array_equal(tvf.read_frames(path, [0]), np.ones((1, 2, 2)) * 257)
        with pytest.raises(tvf.TvfError, match="truncated at frame 1"):
            tvf.read_frames(path, [0, 1, 2])
