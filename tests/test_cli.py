import contextlib
import csv
import io
import json
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nascore import cli, datagen, dataset, metrics, models, training, tvf


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def no_read(*args):
    raise AssertionError("a clip was read")


class TestSynth:
    def test_smoke_corpus(self, tmp_path):
        out = tmp_path / "corpus"
        assert run_cli("synth", "--out", out, "--seed", 0, "--smoke", "--geometry", "16x12") == 0
        clips = sorted(out.glob("*.tvf"))
        assert len(clips) == 80
        t, h, w, fps = tvf.read_header(clips[0])
        assert (h, w, fps) == (12, 16, 6)
        records = dataset.load_labels(out / "labels.csv")
        assert len(records) == 80

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("synth", "--seed", "0")
        assert exc.value.code == 2

    def test_bad_geometry(self, tmp_path):
        assert run_cli("synth", "--out", tmp_path / "x", "--geometry", "banana", "--smoke") == 1

    @pytest.mark.parametrize("geometry", ["1x1", "2x1", "1x24"])
    def test_one_pixel_extent_is_one_line_error(self, tmp_path, capsys, recwarn, geometry):
        # a 1-pixel axis would map its pixel to unit coordinate 0 / 0
        out = tmp_path / "x"
        assert run_cli("synth", "--out", out, "--geometry", geometry, "--smoke") == 1
        err = capsys.readouterr().err
        assert err == f"error: geometry extents must be at least 2 pixels, got {geometry!r}\n"
        assert not out.exists()
        assert not recwarn.list

    @pytest.mark.parametrize(
        "message, line",
        [
            ("Unable to allocate 29.1 TiB", "error: out of memory: Unable to allocate 29.1 TiB\n"),
            ("", "error: out of memory\n"),
        ],
    )
    def test_out_of_memory_is_one_line_error(self, tmp_path, capsys, monkeypatch, message, line):
        # a huge --geometry makes numpy raise MemoryError on the first clip;
        # the render is stubbed so no real allocation is attempted
        def fail(*args, **kwargs):
            raise MemoryError(message) if message else MemoryError()

        monkeypatch.setattr(datagen, "render_clip", fail)
        out = tmp_path / "x"
        assert run_cli("synth", "--out", out, "--geometry", "100000x100000", "--smoke") == 1
        assert capsys.readouterr().err == line
        assert not out.exists()

    def test_failure_removes_written_clips(self, tmp_path, monkeypatch):
        render = datagen.render_clip
        calls = []

        def fail_third(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise MemoryError("third clip")
            return render(*args, **kwargs)

        monkeypatch.setattr(datagen, "render_clip", fail_third)
        out = tmp_path / "existing"
        out.mkdir()
        assert run_cli("synth", "--out", out, "--geometry", "4x2", "--smoke") == 1
        assert out.is_dir() and not any(out.iterdir())

    def test_out_holding_files_is_refused_before_rendering(self, tmp_path, capsys, monkeypatch):
        # a failed rewrite of an older corpus would remove the clips it had
        # overwritten, while that corpus's labels.csv still lists them
        out = tmp_path / "corpus"
        assert run_cli("synth", "--out", out, "--seed", 0, "--geometry", "4x2", "--smoke") == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        render = datagen.render_clip
        calls = []

        def fail_fourth(*args, **kwargs):
            calls.append(1)
            if len(calls) == 4:
                raise MemoryError("fourth clip")
            return render(*args, **kwargs)

        monkeypatch.setattr(datagen, "render_clip", fail_fourth)
        assert run_cli("synth", "--out", out, "--seed", 1, "--geometry", "4x2", "--smoke") == 1
        assert capsys.readouterr().err == (
            f"error: {out}: not empty; output goes only in a new or empty directory\n"
        )
        assert calls == []
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("under", [True, False], ids=["under-a-file", "a-file"])
    def test_out_that_cannot_be_a_directory_fails_before_rendering(
        self, tmp_path, capsys, monkeypatch, under
    ):
        def no_render(*args, **kwargs):
            raise AssertionError("a clip was rendered")

        monkeypatch.setattr(datagen, "render_clip", no_render)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        out = blocker / "corpus" if under else blocker
        assert run_cli("synth", "--out", out, "--geometry", "4x2", "--smoke") == 1
        assert capsys.readouterr().err == f"error: {out}: {blocker} is not a directory\n"
        assert blocker.read_text() == "not a directory\n"


@pytest.fixture(scope="module")
def labels_only_corpus(tmp_path_factory):
    """Full Table-1 label manifest without pixel data (prep never reads clips)."""
    directory = tmp_path_factory.mktemp("labelsonly")
    datagen.write_manifest(datagen.plan_corpus(0), directory)
    return directory


class TestPrep:
    def test_table_corpus_counts(self, labels_only_corpus, tmp_path):
        out = tmp_path / "prepared.csv"
        assert run_cli("prep", "--corpus", labels_only_corpus, "--out", out) == 0
        entries = dataset.load_prepared_manifest(out)
        assert len(entries) == 458

    def test_rule_variants_identical(self, labels_only_corpus, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli("prep", "--corpus", labels_only_corpus, "--out", a, "--rule", "before")
        run_cli("prep", "--corpus", labels_only_corpus, "--out", b, "--rule", "after")
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize("min_count", [0, -3])
    def test_min_count_below_one_is_usage_error(self, labels_only_corpus, tmp_path, capsys,
                                                min_count):
        out = tmp_path / "prepared.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli("prep", "--corpus", labels_only_corpus, "--out", out,
                    "--min-count", min_count)
        assert exc.value.code == 2
        assert f"--min-count: must be >= 1, got {min_count}" in capsys.readouterr().err
        assert not out.exists()

    def test_class_index_is_table_position(self, labels_only_corpus, tmp_path, capsys):
        # at 60 occurrences columns a01, a02, a08 and a10 are retained; a class
        # index still names a table row, so each clip trains on and is scored
        # against its own activity's score
        out = tmp_path / "prepared.csv"
        assert run_cli("prep", "--corpus", labels_only_corpus, "--out", out,
                       "--min-count", 60) == 0
        assert "[65, 58, 68, 0, 60, 0, 0, 0]" in capsys.readouterr().out
        records = dataset.load_labels(labels_only_corpus / "labels.csv")
        flags = {r.video_id: r.flags for r in records}
        entries = dataset.load_prepared_manifest(out)
        for e in entries:
            column = dataset.ACTIVITY_TABLE[e.class_index].column
            assert [i for i, v in enumerate(flags[e.video_id]) if v] == [column]
        with open(out, newline="") as fh:
            targets = [float(row["avg_nas"]) for row in csv.DictReader(fh)]
        assert targets == [dataset.avg_nas(e.class_index) for e in entries]
        perfect = [
            {"video_id": e.video_id, "true_class": e.class_index, "score": score}
            for e, score in zip(entries, targets)
        ]
        preds = metrics.PredictionSet.from_records("direct", perfect)
        assert metrics.nas_mse(preds) == 0.0

    def test_retained_column_without_score_fails(self, labels_only_corpus, tmp_path, capsys):
        # at 40 occurrences a07 (49) is retained, and it has no table entry
        out = tmp_path / "prepared.csv"
        assert run_cli("prep", "--corpus", labels_only_corpus, "--out", out,
                       "--min-count", 40) == 1
        assert capsys.readouterr().err == "error: retained column a07 has no average score entry\n"
        assert not out.exists()

    @pytest.mark.parametrize("video_id", ["../../zz", "v" * (csv.field_size_limit() + 1)])
    def test_bad_label_row_fails_with_one_line(self, tmp_path, capsys, video_id):
        directory = tmp_path / "corpus"
        directory.mkdir()
        labels = directory / datagen.MANIFEST_NAME
        labels.write_text(
            ",".join(["video_id", *datagen.ACTIVITY_FIELDS]) + "\n"
            + ",".join([video_id, "1"] + ["0"] * (datagen.N_ACTIVITIES - 1)) + "\n"
        )
        out = tmp_path / "p.csv"
        assert run_cli("prep", "--corpus", directory, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {labels}:2: ") and err.count("\n") == 1
        assert not out.exists()

    def test_below_threshold_corpus_fails(self, tmp_path):
        directory = tmp_path / "corpus"
        datagen.write_manifest(datagen.plan_smoke(0), directory)
        code = run_cli("prep", "--corpus", directory, "--out", tmp_path / "p.csv")
        assert code == 1

    def test_out_that_exists_is_refused_before_reading_labels(self, tmp_path, capsys,
                                                              monkeypatch):
        # written over, the corpus's labels.csv would hold the prepared
        # manifest, and the next prep of the corpus would fail on its header
        corpus = tmp_path / "corpus"
        labels = datagen.write_manifest(datagen.plan_corpus(0), corpus)
        before = labels.read_bytes()
        with monkeypatch.context() as patch:
            patch.setattr(dataset, "load_labels", no_read)
            assert run_cli("prep", "--corpus", corpus, "--out", labels) == 1
        expected = f"error: {labels}: already exists; output goes only to a new file\n"
        assert capsys.readouterr().err == expected
        assert labels.read_bytes() == before
        assert run_cli("prep", "--corpus", corpus, "--out", tmp_path / "prepared.csv") == 0


@pytest.fixture(scope="module")
def mini_pipeline(tmp_path_factory):
    """A small rendered corpus plus a fast train config file."""
    root = tmp_path_factory.mktemp("pipeline")
    entries = []
    for idx, col in enumerate(datagen.RETAINED_COLUMNS * 2):
        labels = [0] * datagen.N_ACTIVITIES
        labels[col] = 1
        entries.append(
            datagen.PlanEntry(
                video_id=f"m{idx:02d}",
                labels=tuple(labels),
                frame_count=676,
                seed=datagen.stable_seed(7, idx),
            )
        )
    plan = datagen.CorpusPlan(entries=entries, seed=7)
    corpus = root / "corpus"
    datagen.write_corpus(plan, corpus, geometry=(8, 8))
    prepared = root / "prepared.csv"
    run_cli("prep", "--corpus", corpus, "--out", prepared, "--min-count", 1)
    config = root / "train.cfg"
    config.write_text("epochs = 1\nfolds = 2\n")
    return root, prepared, config


CONFIG_KEYS = sorted(
    {f.name for f in fields(training.TrainConfig)}
    | {f.name for variant in models.VARIANTS for f in fields(models.config_class(variant))}
)
# arbitrary lines, and key = value lines of config keys, unknown keys and
# values that do and do not parse
CONFIG_LINES = st.text(max_size=12) | st.builds(
    "{} = {}".format,
    st.sampled_from(CONFIG_KEYS) | st.text(max_size=6),
    st.text(max_size=8) | st.integers().map(str) | st.floats().map(str)
    | st.lists(st.integers(-3, 9), max_size=4).map(lambda v: ",".join(map(str, v))),
)


class TestTrain:
    def test_run_directory_and_config_echo(self, mini_pipeline, tmp_path):
        root, prepared, config = mini_pipeline
        out = tmp_path / "run"
        code = run_cli(
            "train", "--manifest", prepared, "--model", "mvit", "--method", "indirect",
            "--config", config, "--out", out, "--seed", 3,
        )
        assert code == 0
        echo = (out / "config.txt").read_text()
        assert "learning_rate = 3e-05" in echo
        assert "batch_size = 3" in echo
        assert "folds = 2" in echo and "epochs = 1" in echo
        assert (out / "predictions.json").exists()
        assert (out / "digest.txt").exists()

    def test_defaults_match_protocol(self):
        config = training.TrainConfig()
        assert config.learning_rate == 0.00003
        assert config.batch_size == 3
        assert config.epochs == 30
        assert config.folds == 5

    def test_rerun_same_seed_identical_predictions(self, mini_pipeline, tmp_path):
        root, prepared, config = mini_pipeline
        args = ["train", "--manifest", prepared, "--model", "cnnrnn", "--method", "direct",
                "--config", config, "--seed", 5]
        run_cli(*args, "--out", tmp_path / "r1")
        run_cli(*args, "--out", tmp_path / "r2")
        a = (tmp_path / "r1" / "predictions.json").read_bytes()
        b = (tmp_path / "r2" / "predictions.json").read_bytes()
        assert a == b

    def test_header_only_manifest_is_one_line_error(self, tmp_path, capsys):
        manifest = tmp_path / "prepared.csv"
        manifest.write_text(",".join(dataset.PREPARED_HEADER) + "\n")
        out = tmp_path / "run"
        code = run_cli("train", "--manifest", manifest, "--model", "mvit",
                       "--method", "indirect", "--out", out)
        assert code == 1
        assert capsys.readouterr().err == f"error: {manifest}: no entries\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["under-a-file", "a-file", "holding-a-run"])
    def test_out_that_cannot_be_a_directory_fails_before_training(
        self, mini_pipeline, tmp_path, capsys, monkeypatch, kind
    ):
        _, prepared, config = mini_pipeline

        def no_training(*args):
            raise AssertionError("a fold trained")

        monkeypatch.setattr(training, "train_fold", no_training)
        monkeypatch.setattr(tvf, "read_frames", no_read)
        blocker = tmp_path / "blocker"
        if kind == "holding-a-run":
            blocker.mkdir()
            kept = blocker / "predictions.json"
            out, error = blocker, "not empty; output goes only in a new or empty directory"
        else:
            kept = blocker
            out = blocker / "run" if kind == "under-a-file" else blocker
            error = f"{blocker} is not a directory"
        kept.write_text("not a directory\n")
        code = run_cli("train", "--manifest", prepared, "--model", "cnnrnn",
                       "--method", "indirect", "--config", config, "--out", out)
        assert code == 1
        assert capsys.readouterr().err == f"error: {out}: {error}\n"
        assert kept.read_text() == "not a directory\n"
        assert sorted(tmp_path.rglob("*")) == sorted({blocker, kept})

    def test_rerun_into_a_run_directory_is_refused(
        self, mini_pipeline, tmp_path, capsys, monkeypatch
    ):
        # a 3-fold run written over a 5-fold one would leave fold3.ckpt and
        # fold4.ckpt next to a 3-fold predictions.json
        _, prepared, _ = mini_pipeline
        out = tmp_path / "run"

        def train(folds):
            config = tmp_path / f"folds{folds}.cfg"
            config.write_text(f"epochs = 1\nfolds = {folds}\n")
            return run_cli("train", "--manifest", prepared, "--model", "cnnrnn",
                           "--method", "indirect", "--config", config, "--out", out)

        assert train(5) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        folds = [f"fold{k}.ckpt" for k in range(5)]
        assert sorted(first) == ["config.txt", "digest.txt", *folds, "predictions.json"]
        capsys.readouterr()
        monkeypatch.setattr(tvf, "read_frames", no_read)
        assert train(3) == 1
        expected = f"error: {out}: not empty; output goes only in a new or empty directory\n"
        assert capsys.readouterr().err == expected
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    def test_geometry_override_mismatch_leaves_no_run_directory(
        self, mini_pipeline, tmp_path, capsys, monkeypatch
    ):
        # frame_hw is the clips' frame size, so no config line sets it
        _, prepared, _ = mini_pipeline
        monkeypatch.setattr(tvf, "read_frames", no_read)
        config = tmp_path / "train.cfg"
        config.write_text("epochs = 1\nfolds = 2\nframe_hw = 12,12\n")
        out = tmp_path / "run"
        code = run_cli("train", "--manifest", prepared, "--model", "cnnrnn",
                       "--method", "indirect", "--config", config, "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        expected = f"error: {config}:3: frame_hw is not a config key; it is the clips' frame size\n"
        assert err == expected
        assert not out.exists()

    def test_mixed_geometry_is_one_line_error(self, mini_pipeline, tmp_path, capsys):
        _, prepared, config = mini_pipeline
        labels = [0] * datagen.N_ACTIVITIES
        labels[datagen.RETAINED_COLUMNS[0]] = 1
        odd = datagen.PlanEntry(video_id="odd", labels=tuple(labels), frame_count=676, seed=1)
        datagen.write_corpus(datagen.CorpusPlan(entries=[odd], seed=1), tmp_path / "odd",
                             geometry=(12, 12))
        odd_clip = tvf.clip_path(tmp_path / "odd", "odd")
        # the last row points at the odd clip; the other paths are made absolute
        header, *rows = (line.split(",") for line in prepared.read_text().splitlines())
        lines = [",".join(r[:3] + [str(prepared.parent / r[3])]) for r in rows[:-1]]
        lines.append(",".join(rows[-1][:3] + [str(odd_clip)]))
        manifest = tmp_path / "prepared.csv"
        manifest.write_text("\n".join([",".join(header), *lines]) + "\n")
        out = tmp_path / "run"
        code = run_cli("train", "--manifest", manifest, "--model", "cnnrnn",
                       "--method", "indirect", "--config", config, "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(odd_clip) in err and "12x12" in err and "8x8" in err
        assert not out.exists()

    def test_overflowing_run_is_one_line_error(self, mini_pipeline, tmp_path, capsys, recwarn):
        _, prepared, _ = mini_pipeline
        config = tmp_path / "train.cfg"
        config.write_text("learning_rate = 1e200\nepochs = 2\nfolds = 2\n")
        out = tmp_path / "run"
        code = run_cli("train", "--manifest", prepared, "--model", "cnnrnn",
                       "--method", "direct", "--config", config, "--out", out)
        assert code == 1
        assert capsys.readouterr().err == "error: non-finite values in conv3d output\n"
        assert [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)] == []
        assert not out.exists()

    @pytest.mark.parametrize("row,message", [
        ("b,x,12.07,b.tvf", "malformed class_index 'x'"),
        ("b,0,many,b.tvf", "malformed avg_nas 'many'"),
        ("b,0,nan,b.tvf", "malformed avg_nas 'nan'"),
        ("b,8,12.07,b.tvf", "class_index 8 outside 0..7"),
        ("b,-1,12.07,b.tvf", "class_index -1 outside 0..7"),
        ("a,1,2.80,a.tvf", "duplicate video_id 'a'"),
        ("b,0,5.60,b.tvf", "avg_nas 5.60 does not match class 0 (12.07)"),
    ])
    def test_bad_manifest_row_is_one_line_error(self, tmp_path, capsys, row, message):
        manifest = tmp_path / "prepared.csv"
        manifest.write_text(
            ",".join(dataset.PREPARED_HEADER) + "\n" + "a,0,12.07,a.tvf\n" + row + "\n"
        )
        out = tmp_path / "run"
        code = run_cli("train", "--manifest", manifest, "--model", "mvit",
                       "--method", "indirect", "--out", out)
        assert code == 1
        assert capsys.readouterr().err == f"error: {manifest}:3: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key,raw,kind", [
        ("blocks", "1,x,1", "tuple"),
        ("learning_rate", "fast", "float"),
        ("epochs", "abc", "int"),
    ])
    def test_bad_config_value_names_line_key_and_type(self, tmp_path, capsys, key, raw, kind):
        config = tmp_path / "train.cfg"
        config.write_text(f"folds = 2\n{key} = {raw}\n")
        out = tmp_path / "run"
        code = run_cli("train", "--manifest", tmp_path / "prepared.csv", "--model", "mvit",
                       "--method", "indirect", "--config", config, "--out", out)
        assert code == 1
        expected = f"error: {config}:2: bad value {raw!r} for {key} ({kind})\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

    @pytest.mark.parametrize("key,raw", [
        ("stage_stride", "1,0,2"),
        ("patch_stride", "2,4"),
        ("kv_stride", "2,2"),
        ("kv_stride", "0,2,2"),
    ])
    def test_bad_stride_fails_before_training(self, mini_pipeline, tmp_path, capsys, key, raw):
        _, prepared, _ = mini_pipeline
        config = tmp_path / "train.cfg"
        config.write_text(f"epochs = 1\nfolds = 2\n{key} = {raw}\n")
        out = tmp_path / "run"
        code = run_cli("train", "--manifest", prepared, "--model", "mvit",
                       "--method", "indirect", "--config", config, "--out", out)
        assert code == 1
        value = tuple(int(v) for v in raw.split(","))
        expected = f"error: {key} must be three positive integers, got {value}\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

    @pytest.mark.parametrize("heads", [0, -2])
    def test_bad_attention_heads_fails_before_training(
        self, mini_pipeline, tmp_path, capsys, heads
    ):
        _, prepared, _ = mini_pipeline
        config = tmp_path / "train.cfg"
        config.write_text(f"epochs = 1\nfolds = 2\nattention_heads = {heads}\n")
        out = tmp_path / "run"
        code = run_cli("train", "--manifest", prepared, "--model", "mvit",
                       "--method", "indirect", "--config", config, "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: attention_heads must be a positive integer, got {heads}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, raw, message", [
        ("learning_rate", "nan", "learning_rate must be a finite number, got nan"),
        ("learning_rate", "inf", "learning_rate must be a finite number, got inf"),
        ("beta1", "1", "beta1 must be in [0, 1), got 1.0"),
        ("beta1", "-0.1", "beta1 must be in [0, 1), got -0.1"),
        ("beta2", "2", "beta2 must be in [0, 1), got 2.0"),
        ("eps", "0", "eps must be > 0, got 0.0"),
        ("eps", "-1", "eps must be > 0, got -1.0"),
    ])
    def test_bad_adam_setting_fails_before_training(
        self, mini_pipeline, tmp_path, capsys, key, raw, message
    ):
        _, prepared, _ = mini_pipeline
        config = tmp_path / "train.cfg"
        config.write_text(f"epochs = 1\nfolds = 2\n{key} = {raw}\n")
        out = tmp_path / "run"
        code = run_cli("train", "--manifest", prepared, "--model", "cnnrnn",
                       "--method", "indirect", "--config", config, "--out", out)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_is_usage_error(self, mini_pipeline, tmp_path, capsys, jobs):
        _, prepared, config = mini_pipeline
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--manifest", prepared, "--model", "cnnrnn", "--method", "direct",
                    "--config", config, "--out", out, "--jobs", jobs)
        assert exc.value.code == 2
        assert f"--jobs: must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_config_is_one_line_error(self, tmp_path, capsys):
        config = tmp_path / "train.cfg"
        config.write_bytes(b"epochs = 1\xff\n")
        out = tmp_path / "run"
        code = run_cli("train", "--manifest", tmp_path / "prepared.csv", "--model", "mvit",
                       "--method", "indirect", "--config", config, "--out", out)
        assert code == 1
        assert capsys.readouterr().err == f"error: {config}: not UTF-8 text (invalid start byte)\n"
        assert not out.exists()

    def test_config_values_parse_by_field_type(self, tmp_path):
        config = tmp_path / "train.cfg"
        config.write_text("epochs = 4\nlearning_rate = 0.5\nmlp_ratio = 3\nembed_dims = 4,8\n")
        train, model = cli.read_config_file(config, {"variant": "mini-mvit", "method": "direct"})
        assert train == {"epochs": 4, "learning_rate": 0.5}
        assert model == {"mlp_ratio": 3.0, "embed_dims": (4, 8)}

    @given(variant=st.sampled_from(models.VARIANTS), method=st.sampled_from(training.METHODS),
           lines=st.lists(CONFIG_LINES, max_size=6), junk=st.just(b"") | st.binary(max_size=3),
           at=st.integers(0, 200))
    @settings(max_examples=300, deadline=None)
    def test_any_config_file_parses_or_is_one_line_error(self, variant, method, lines, junk,
                                                         at):
        text = "\n".join(lines).encode()
        fixed = {"variant": variant, "method": method, "seed": 0}
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "train.cfg"
            config.write_bytes(text[:at] + junk + text[at:])
            try:
                train, model = cli.read_config_file(config, fixed)
            except cli.CliError as exc:
                assert str(exc).startswith(f"{config}:") and "\n" not in str(exc)
                return
        assert set(train).isdisjoint(model)
        assert all(train[key] == value for key, value in fixed.items() if key in train)

    def test_key_given_twice_is_one_line_error(
        self, mini_pipeline, tmp_path, capsys, monkeypatch
    ):
        # the second line used to win silently: this one trained 0 epochs
        _, prepared, _ = mini_pipeline
        monkeypatch.setattr(tvf, "read_frames", no_read)
        config = tmp_path / "train.cfg"
        config.write_text("epochs = 1\nfolds = 2\n# again\nepochs = 0\n")
        out = tmp_path / "run"
        code = run_cli("train", "--manifest", prepared, "--model", "mvit",
                       "--method", "indirect", "--config", config, "--out", out)
        assert code == 1
        expected = f"error: {config}:4: epochs given twice (first on line 1)\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_more_folds_than_clips_fails_before_reading_clips(
        self, mini_pipeline, tmp_path, capsys, monkeypatch
    ):
        _, prepared, _ = mini_pipeline
        monkeypatch.setattr(tvf, "read_frames", no_read)
        config = tmp_path / "train.cfg"
        config.write_text("epochs = 1\nfolds = 100\n")
        out = tmp_path / "run"
        code = run_cli("train", "--manifest", prepared, "--model", "cnnrnn",
                       "--method", "direct", "--config", config, "--out", out)
        assert code == 1
        assert capsys.readouterr().err == "error: k=100 exceeds corpus size 16\n"
        assert not out.exists()

    @pytest.mark.parametrize("corpus_geometry, line, stride, frame_hw", [
        # mvit's default (2, 4, 4) patch on 2x3 frames
        ("3x2", "", "(2, 4, 4)", "(2, 3)"),
        (None, "patch_stride = 2,16,4\n", "(2, 16, 4)", "(8, 8)"),
    ])
    def test_patch_wider_than_frames_fails_before_reading_clips(
        self, mini_pipeline, tmp_path, capsys, monkeypatch, corpus_geometry, line, stride, frame_hw
    ):
        _, prepared, _ = mini_pipeline
        if corpus_geometry is not None:
            corpus, prepared = tmp_path / "corpus", tmp_path / "prepared.csv"
            assert run_cli("synth", "--out", corpus, "--seed", 0, "--smoke",
                           "--geometry", corpus_geometry) == 0
            assert run_cli("prep", "--corpus", corpus, "--out", prepared,
                           "--min-count", 1) == 0
        capsys.readouterr()
        monkeypatch.setattr(tvf, "read_frames", no_read)
        config = tmp_path / "train.cfg"
        config.write_text(f"epochs = 1\nfolds = 2\n{line}")
        out = tmp_path / "run"
        code = run_cli("train", "--manifest", prepared, "--model", "mvit",
                       "--method", "indirect", "--config", config, "--out", out)
        assert code == 1
        expected = f"error: patch stride {stride} exceeds frame_hw {frame_hw}\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

    @pytest.mark.parametrize("flags, line, flag", [
        (["--method", "indirect"], "method = direct", "method = indirect"),
        (["--method", "direct"], "variant = micro-r2plus1d", "variant = mini-mvit"),
        (["--method", "direct", "--seed", "5"], "seed = 3", "seed = 5"),
    ])
    def test_config_key_disagreeing_with_flag_is_one_line_error(
        self, mini_pipeline, tmp_path, capsys, flags, line, flag
    ):
        _, prepared, _ = mini_pipeline
        config = tmp_path / "train.cfg"
        config.write_text(f"epochs = 1\n{line}\n")
        out = tmp_path / "run"
        code = run_cli("train", "--manifest", prepared, "--model", "mvit", *flags,
                       "--config", config, "--out", out)
        assert code == 1
        expected = f"error: {config}:2: {line} disagrees with the command line, which gives {flag}\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_config_key_agreeing_with_flag_is_accepted(self, tmp_path):
        config = tmp_path / "train.cfg"
        config.write_text("method = direct\nvariant = mini-mvit\n")
        fixed = {"method": "direct", "variant": "mini-mvit"}
        train, _ = cli.read_config_file(config, fixed)
        assert train == fixed

    @pytest.mark.parametrize("model, method, head, needed", [
        ("cnnrnn", "indirect", "regress-1", "classify-8"),
        ("mvit", "direct", "classify-8", "regress-1"),
    ])
    def test_head_not_fitting_method_fails_before_reading_clips(
        self, mini_pipeline, tmp_path, capsys, monkeypatch, model, method, head, needed
    ):
        # the head is the method's, so no config line sets it
        _, prepared, _ = mini_pipeline
        monkeypatch.setattr(tvf, "read_frames", no_read)
        config = tmp_path / "train.cfg"
        config.write_text(f"epochs = 1\nfolds = 2\nhead = {head}\n")
        out = tmp_path / "run"
        code = run_cli("train", "--manifest", prepared, "--model", model,
                       "--method", method, "--config", config, "--out", out)
        assert code == 1
        expected = (f"error: {config}:3: head is not a config key; "
                    f"the {method} method trains {needed!r}\n")
        assert capsys.readouterr().err == expected
        assert not out.exists()

    @pytest.mark.parametrize("model, line", [
        ("mvit", "hidden_size = 16"),
        *[(model, line) for model in ("r2plus1d", "cnnrnn") for line in (
            "attention_heads = 4", "kv_stride = 1,1,1", "stage_stride = 1,1,1",
            "mlp_ratio = 4", "patch_stride = 1,2,2", "blocks = 2,2,2",
        )],
    ])
    def test_key_the_model_never_reads_fails_before_reading_clips(
        self, mini_pipeline, tmp_path, capsys, monkeypatch, model, line
    ):
        _, prepared, _ = mini_pipeline
        monkeypatch.setattr(tvf, "read_frames", no_read)
        config = tmp_path / "train.cfg"
        config.write_text(f"epochs = 1\nfolds = 2\n{line}\n")
        out = tmp_path / "run"
        code = run_cli("train", "--manifest", prepared, "--model", model,
                       "--method", "indirect", "--config", config, "--out", out)
        assert code == 1
        key = line.split(" = ")[0]
        expected = f"error: {config}:3: {cli.MODEL_NAMES[model]} has no config key {key!r}\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_r2plus1d_takes_two_stages_whatever_blocks_says(self, mini_pipeline, tmp_path):
        # blocks is mini-mvit's alone, so its three default stages do not
        # bind r2plus1d's embed_dims
        _, prepared, _ = mini_pipeline
        config = tmp_path / "train.cfg"
        config.write_text("epochs = 1\nfolds = 2\nembed_dims = 8,16\n")
        out = tmp_path / "run"
        code = run_cli("train", "--manifest", prepared, "--model", "r2plus1d",
                       "--method", "indirect", "--config", config, "--out", out)
        assert code == 0
        assert "embed_dims = 8,16\n" in (out / "config.txt").read_text()

    def test_unknown_model_is_usage_error(self, mini_pipeline, tmp_path):
        root, prepared, config = mini_pipeline
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--manifest", prepared, "--model", "alexnet",
                    "--method", "indirect", "--out", tmp_path / "r")
        assert exc.value.code == 2


def run_file(method="indirect", folds=None, drop=None, bad_class=None, record=None):
    """A schema-1 run payload of 2 folds x 8 records, with one defect applied;
    ``record`` holds values that replace those of fold 0's record 1."""
    records = [
        {"video_id": f"v{i}", "true_class": i % 8,
         **({"logits": [0.0] * 8} if method == "indirect" else {"score": 1.0})}
        for i in range(16)
    ]
    if drop is not None:
        del records[1][drop]
    records[1].update(record or {})
    if bad_class is not None:
        records[15]["true_class"] = bad_class
    if folds is None:
        folds = [{"fold_index": f, "loss_history": [1.0], "predictions": records[8 * f : 8 * f + 8]}
                 for f in range(2)]
    return {"schema": 1, "variant": "mini-mvit", "method": method, "train_config": {"seed": 0},
            "model_config": {}, "corpus_digest": "0" * 64, "folds": folds}


def slots(node):
    """The (container, key) of every value nested in the JSON value ``node``."""
    if isinstance(node, dict):
        items = list(node.items())
    else:
        items = list(enumerate(node)) if isinstance(node, list) else []
    for key, child in items:
        yield node, key
        yield from slots(child)


# values to put into a run file: Python's json writes NaN, Infinity and
# ints of any size, and reads them back
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=6) | st.integers() | st.floats()
    | st.sampled_from([2**53, 2**53 + 1, -2**70, 10**400, 1e308, -1e308, 5e-324]),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children, max_size=3)),
    max_leaves=6,
)


def strict_json(text):
    """``json.loads`` that refuses NaN, Infinity and -Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    return json.loads(text, parse_constant=refuse)


def quiet_cli(*argv):
    """Runs one CLI command; returns its exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


class TestEval:
    def make_run(self, mini_pipeline, tmp_path, name, model, method, manifest=None):
        root, prepared, config = mini_pipeline
        out = tmp_path / name
        run_cli("train", "--manifest", manifest or prepared, "--model", model,
                "--method", method, "--config", config, "--out", out, "--seed", 1)
        return out

    def test_single_run_report(self, mini_pipeline, tmp_path):
        run = self.make_run(mini_pipeline, tmp_path, "r1", "mvit", "indirect")
        out = tmp_path / "report.json"
        assert run_cli("eval", "--runs", run, "--out", out) == 0
        report = json.loads(out.read_text())
        assert list(report["indirect"]) == ["mini-mvit"]
        assert report["direct"] == {}
        row = report["indirect"]["mini-mvit"]
        assert set(row["per_fold"]["accuracy"]) <= {x / 8 for x in range(9)} or True
        assert len(row["per_fold"]["mse"]) == 2

    def test_mixed_digests_refused(self, mini_pipeline, tmp_path):
        root, prepared, config = mini_pipeline
        run1 = self.make_run(mini_pipeline, tmp_path, "ra", "mvit", "indirect")
        # second corpus with a different seed -> different digest
        entries = []
        for idx, col in enumerate(datagen.RETAINED_COLUMNS * 2):
            labels = [0] * datagen.N_ACTIVITIES
            labels[col] = 1
            entries.append(
                datagen.PlanEntry(
                    video_id=f"m{idx:02d}", labels=tuple(labels),
                    frame_count=676, seed=datagen.stable_seed(8, idx),
                )
            )
        other = datagen.CorpusPlan(entries=entries, seed=8)
        corpus2 = tmp_path / "corpus2"
        datagen.write_corpus(other, corpus2, geometry=(8, 8))
        prepared2 = tmp_path / "prepared2.csv"
        run_cli("prep", "--corpus", corpus2, "--out", prepared2, "--min-count", 1)
        run2 = self.make_run(mini_pipeline, tmp_path, "rb", "cnnrnn", "direct", manifest=prepared2)
        code = run_cli("eval", "--runs", run1, run2, "--out", tmp_path / "rep.json")
        assert code == 1

    @pytest.mark.parametrize("payload,message", [
        ({}, "missing key 'schema'"),
        ({"schema": 99, "variant": "mini-mvit"}, "unknown schema 99, expected 1"),
        ({**run_file(), "schema": True}, "unknown schema True, expected 1"),
        ({**run_file(), "schema": 1.0}, "unknown schema 1.0, expected 1"),
        ({"schema": 1, "variant": "mini-mvit"}, "missing key 'method'"),
        (run_file(folds="abc"), "folds is not a list"),
        (run_file(drop="true_class"), "fold 0 record 1: missing key 'true_class'"),
        (run_file(bad_class=9), "fold 1 record 7: true_class 9 outside 0..7"),
        (run_file(method="direct", drop="score"), "fold 0 record 1: score is not a number"),
        ({**run_file(), "train_config": "abc"}, "train_config is not an object"),
        ({**run_file(), "train_config": {}}, "train_config: missing key 'seed'"),
        ({**run_file(), "variant": {}}, "variant is not a string"),
        ({**run_file(), "corpus_digest": {}}, "corpus_digest is not a string"),
        ({**run_file(), "corpus_digest": 5}, "corpus_digest is not a string"),
        (run_file(record={"video_id": ["v1"]}), "fold 0 record 1: video_id is not a string"),
        (run_file(folds=[]), "no folds"),
        (run_file(folds=[{"fold_index": 0, "loss_history": [], "predictions": []}]),
         "fold 0: no predictions"),
        (run_file(folds=[{"fold_index": 0, "loss_history": [], "predictions": [
            {"video_id": "v0", "true_class": 3, "logits": [0.0] * 8}]}]),
         "fold 0: every true_class is 3; ROC AUC needs two classes"),
        ({**run_file(), "model_config": {"mlp_ratio": float("nan")}},
         "model_config holds a number that is not finite"),
    ], ids=["empty", "schema", "schema-true", "schema-float", "key", "folds", "true_class",
            "class_range", "score", "train_config", "seed", "variant", "digest-object",
            "digest-int", "video_id", "no-folds", "empty-fold", "one-class-fold", "config-nan"])
    def test_malformed_run_file_is_one_line_error(self, tmp_path, capsys, payload, message):
        run = tmp_path / "run"
        run.mkdir()
        (run / "predictions.json").write_text(json.dumps(payload))
        out = tmp_path / "report.json"
        assert run_cli("eval", "--runs", run, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {run / 'predictions.json'}: {message}\n"
        assert not out.exists()

    # Python's json reads NaN, Infinity and -Infinity as floats and an
    # integer of any size as an int; eval takes none of them for a number
    @pytest.mark.parametrize("method,key,text,message", [
        ("direct", "score", "NaN", "fold 0 record 2: score is not a number"),
        ("indirect", "logits", "[0.0, Infinity, 0, 0, 0, 0, 0, 0]",
         "fold 0 record 2: logits is not a list of 8 numbers"),
        ("indirect", "logits", "[0.0, -Infinity, 0, 0, 0, 0, 0, 0]",
         "fold 0 record 2: logits is not a list of 8 numbers"),
        ("direct", "score", "1" + "0" * 400, "fold 0 record 2: score is not a number"),
        # beyond training.MAX_MAGNITUDE: 2**70, and a float whose square overflows
        ("indirect", "logits", f"[0.0, {2**70}, 0, 0, 0, 0, 0, 0]",
         "fold 0 record 2: logits is not a list of 8 numbers"),
        ("direct", "score", "1e308", "fold 0 record 2: score is not a number"),
        ("direct", "score", str(2**53 + 1), "fold 0 record 2: score is not a number"),
    ], ids=["nan-score", "inf-logit", "minus-inf-logit", "huge-int-score", "big-int-logit",
            "1e308-score", "bound-plus-one-score"])
    def test_non_finite_number_is_one_line_error(self, tmp_path, capsys, method, key, text,
                                                 message):
        payload = run_file(method=method)
        payload["folds"][0]["predictions"][2][key] = "@"
        run = tmp_path / "run"
        run.mkdir()
        (run / "predictions.json").write_text(json.dumps(payload).replace('"@"', text))
        assert text in (run / "predictions.json").read_text()
        out = tmp_path / "report.json"
        assert run_cli("eval", "--runs", run, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {run / 'predictions.json'}: {message}\n"
        assert not out.exists()

    def test_score_at_the_magnitude_bound_is_scored(self, tmp_path):
        payload = run_file(method="direct", record={"score": 2**53})
        run = tmp_path / "run"
        run.mkdir()
        (run / "predictions.json").write_text(json.dumps(payload))
        out = tmp_path / "report.json"
        assert run_cli("eval", "--runs", run, "--out", out) == 0
        assert strict_json(out.read_text())["direct"]["mini-mvit"]["mse"] > 1e30

    def test_deeply_nested_run_file_is_one_line_error(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "predictions.json").write_text("[" * 100_000 + "]" * 100_000)
        out = tmp_path / "report.json"
        assert run_cli("eval", "--runs", run, "--out", out) == 1
        expected = f"error: {run / 'predictions.json'}: not JSON (nested too deeply)\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_mutated_run_file_gives_a_report_or_one_error_line(self, data):
        payload = run_file(method=data.draw(st.sampled_from(training.METHODS)))
        for _ in range(data.draw(st.integers(1, 3))):
            container, key = data.draw(st.sampled_from(list(slots(payload))))
            if data.draw(st.booleans()):
                del container[key]
            else:
                container[key] = data.draw(JSON_VALUES)
        with tempfile.TemporaryDirectory() as tmp:
            run, out = Path(tmp) / "run", Path(tmp) / "report.json"
            run.mkdir()
            (run / "predictions.json").write_text(json.dumps(payload))
            code, err = quiet_cli("eval", "--runs", run, "--out", out)
            if code == 0:
                strict_json(out.read_text())
            else:
                assert code == 1 and not out.exists()
                assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_utf8_run_file_is_one_line_error(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "predictions.json").write_bytes(b'{"a": "\xff"}')
        out = tmp_path / "report.json"
        assert run_cli("eval", "--runs", run, "--out", out) == 1
        expected = f"error: {run / 'predictions.json'}: not UTF-8 text (invalid start byte)\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_out_that_exists_is_refused_before_reading_runs(self, tmp_path, capsys,
                                                            monkeypatch):
        # written over, the run's predictions.json would hold the report,
        # and the next eval of the run would fail on its missing schema
        run = tmp_path / "run"
        run.mkdir()
        predictions = run / "predictions.json"
        predictions.write_text(json.dumps(run_file()))
        before = predictions.read_bytes()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "read_utf8", no_read)
            assert run_cli("eval", "--runs", run, "--out", predictions) == 1
        expected = f"error: {predictions}: already exists; output goes only to a new file\n"
        assert capsys.readouterr().err == expected
        assert predictions.read_bytes() == before
        assert run_cli("eval", "--runs", run, "--out", tmp_path / "report.json") == 0

    def test_duplicate_model_method_refused(self, mini_pipeline, tmp_path):
        run1 = self.make_run(mini_pipeline, tmp_path, "rc", "mvit", "indirect")
        code = run_cli("eval", "--runs", run1, run1, "--out", tmp_path / "rep.json")
        assert code == 1


class TestVerify:
    def test_prep_counts_suite_passes(self, capsys):
        assert run_cli("verify", "--suite", "prep-counts") == 0
        out = capsys.readouterr().out
        assert "458" in out and "6/6" in out

    def test_failing_check_exits_nonzero(self, monkeypatch, capsys):
        from nascore import verify as verify_mod

        def broken_suite():
            return [verify_mod.Check(name="always-broken", ok=False, detail="boom")]

        monkeypatch.setitem(verify_mod.SUITES, "prep-counts", broken_suite)
        assert run_cli("verify", "--suite", "prep-counts") == 1
        assert "always-broken" in capsys.readouterr().out
