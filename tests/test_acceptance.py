"""Acceptance criteria, one test per criterion.

Each test prints a `[criterion N] PASS/FAIL` line (visible with -s; the
per-test PASSED/FAILED lines of `pytest -v` mirror them). The smoke
pipeline fixture drives everything through the real CLI.

Run with: pytest tests/test_acceptance.py -v -s
"""

import json
import shutil
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nascore import autodiff as ad
from nascore import cli, datagen, dataset, metrics, models, training, tvf, verify


def criterion(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {number}] {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


MODELS = ("mvit", "r2plus1d", "cnnrnn")
METHODS = ("indirect", "direct")


@pytest.fixture(scope="session")
def smoke_pipeline(workdir):
    """synth --smoke -> prep -> 6 trainings -> eval, all through the CLI."""
    corpus = workdir / "smoke_corpus"
    assert run_cli("synth", "--out", corpus, "--seed", 0, "--smoke") == 0
    prepared = workdir / "smoke_prepared.csv"
    assert run_cli("prep", "--corpus", corpus, "--out", prepared, "--min-count", 1) == 0

    config = workdir / "smoke.cfg"
    config.write_text("learning_rate = 0.001\n")

    run_dirs = {}
    timings = {}
    for model in MODELS:
        for method in METHODS:
            out = workdir / f"run_{model}_{method}"
            jobs = 1 if (model, method) == ("mvit", "indirect") else 2
            t0 = time.time()
            rc = run_cli(
                "train", "--manifest", prepared, "--model", model, "--method", method,
                "--config", config, "--out", out, "--seed", 0, "--jobs", jobs,
            )
            timings[(model, method)] = time.time() - t0
            assert rc == 0, f"train {model}/{method} failed"
            run_dirs[(model, method)] = out

    report_path = workdir / "report.json"
    assert run_cli("eval", "--runs", *run_dirs.values(), "--out", report_path) == 0
    return SimpleNamespace(
        corpus=corpus,
        prepared=prepared,
        config=config,
        run_dirs=run_dirs,
        timings=timings,
        report_path=report_path,
    )


class TestCriterion1PreprocessingCounts:
    def test_synth_then_prep_reproduces_table(self, workdir):
        corpus = workdir / "full_corpus"
        prepared = workdir / "full_prepared.csv"
        t0 = time.time()
        assert run_cli("synth", "--out", corpus, "--seed", 0) == 0
        assert run_cli("prep", "--corpus", corpus, "--out", prepared) == 0
        elapsed = time.time() - t0

        records = dataset.load_labels(corpus / "labels.csv")
        totals = [0] * 14
        for r in records:
            for i in range(14):
                totals[i] += r.flags[i]
        entries = dataset.load_prepared_manifest(prepared)
        counts = [0] * 8
        for e in entries:
            counts[e.class_index] += 1

        plan = datagen.plan_corpus(0)
        header_roundtrip = all(
            tvf.read_header(tvf.clip_path(corpus, e.video_id))[:3]
            == (e.frame_count, 72, 96)
            and 676 <= e.frame_count <= 820
            for e in plan.entries
        )
        manifest_rows = len((corpus / "labels.csv").read_text().strip().split("\n"))
        shutil.rmtree(corpus)  # ~9 GB of clips, no longer needed

        ok = (
            len(records) == 882
            and manifest_rows == 883
            and tuple(totals) == (88, 63, 20, 11, 9, 34, 49, 85, 57, 73, 23, 54, 59, 55)
            and len(entries) == 458
            and tuple(counts) == (65, 58, 68, 54, 60, 46, 57, 50)
            and header_roundtrip
            and elapsed < 120.0
        )
        criterion(
            1,
            ok,
            f"882 videos, occurrence totals exact, 458 kept with per-class counts "
            f"{tuple(counts)}, headers round-trip, in {elapsed:.0f}s (< 120s)",
        )


class TestCriterion2GradientCorrectness:
    def test_all_ops_and_models_pass_fd_checks(self):
        t0 = time.time()
        checks = verify.gradcheck_suite(seeds=range(5))
        elapsed = time.time() - t0
        bad = [c for c in checks if not c.ok]
        ok = not bad and elapsed < 180.0
        criterion(
            2,
            ok,
            f"{len(checks)} checks (ops < 1e-4, models < 1e-3, 5 seeds) in "
            f"{elapsed:.0f}s (< 180s)" + (f"; failed: {[c.name for c in bad]}" if bad else ""),
        )


class TestCriterion3MetricOracles:
    def test_200_random_sets_match_oracles(self):
        checks = verify.metrics_oracle_suite(n_sets=200)
        bad = [c for c in checks if not c.ok]
        criterion(
            3,
            not bad,
            "macro F1 == confusion oracle (1e-12), pair AUC == trapezoid oracle (1e-9), "
            "accuracy exact on 200 seeded sets"
            + (f"; failed: {[c.name for c in bad]}" if bad else ""),
        )


class TestCriterion4OutputSpaces:
    def test_indirect_and_direct_score_spaces(self, smoke_pipeline):
        table = set(np.round(dataset.NAS_VALUES, 2))
        pred_path = smoke_pipeline.run_dirs[("mvit", "indirect")] / "predictions.json"
        run = training.ExperimentRun.from_json(pred_path.read_text())
        lookups = set()
        for fold in run.folds:
            preds = metrics.PredictionSet.from_records("indirect", fold["predictions"])
            predicted = metrics.argmax_classes(preds.logits)
            lookups.update(np.round(np.array(dataset.NAS_VALUES)[predicted], 2))
        in_table = lookups <= table

        classes = list(range(8)) * 3
        logits = np.zeros((len(classes), 8))
        for i, c in enumerate(classes):
            logits[i, c] = 9.0
        perfect = metrics.PredictionSet.from_records(
            "indirect",
            [
                {"video_id": f"p{i}", "true_class": c, "logits": list(logits[i])}
                for i, c in enumerate(classes)
            ],
        )
        perfect_mse = metrics.nas_mse(perfect)

        exact_direct = metrics.PredictionSet.from_records(
            "direct",
            [
                {"video_id": f"d{i}", "true_class": c, "score": dataset.NAS_VALUES[c]}
                for i, c in enumerate(classes)
            ],
        )
        direct_mse = metrics.nas_mse(exact_direct)

        ok = in_table and perfect_mse == 0.0 and direct_mse == 0.0
        criterion(
            4,
            ok,
            f"indirect lookups within the 8-value table ({sorted(lookups)}), "
            f"perfect indirect MSE == {perfect_mse}, exact direct MSE == {direct_mse}",
        )


class TestCriterion5MultiscaleShapes:
    def test_stage_grids_on_32x32(self):
        config = models.default_config("mini-mvit", "classify-8", (32, 32))
        model = models.build_model(config)
        capture = []
        rng = np.random.default_rng(0)
        model.forward(ad.tensor(rng.uniform(size=(1, 16, 32, 32))), capture=capture)
        c = config.embed_dims[0]
        expected = [((8, 8, 8), c), ((8, 4, 4), 2 * c), ((8, 2, 2), 4 * c)]
        ok = capture == expected
        criterion(5, ok, f"stage grids {capture} == {expected}")


class TestCriterion6FrameSampling:
    def test_window_starts_and_step(self):
        results = {}
        for t in (672, 676, 820):
            idx = dataset.sample_indices(t)
            results[t] = (
                idx[0],
                len(idx) == 16,
                all(b - a == 42 for a, b in zip(idx, idx[1:])),
                idx[-1] < t,
            )
        starts_ok = [results[t][0] for t in (672, 676, 820)] == [0, 2, 74]
        step_ok = all(v[1] and v[2] and v[3] for v in results.values())
        raises_ok = False
        try:
            dataset.sample_indices(671)
        except dataset.TooShortClipError:
            raises_ok = True
        ok = starts_ok and step_ok and raises_ok
        criterion(
            6,
            ok,
            "starts {672: 0, 676: 2, 820: 74}, 16 indices at step 42 below T, "
            "671 raises too-short-clip",
        )


class TestCriterion7TrainingSmoke:
    def test_learnability_and_six_row_report(self, smoke_pipeline):
        pred_path = smoke_pipeline.run_dirs[("mvit", "indirect")] / "predictions.json"
        run = training.ExperimentRun.from_json(pred_path.read_text())
        ratios = [f["loss_history"][-1] / f["loss_history"][0] for f in run.folds]
        records = [
            metrics.compute_fold_metrics(
                metrics.PredictionSet.from_records("indirect", f["predictions"])
            )
            for f in run.folds
        ]
        accuracy = float(np.mean([r["accuracy"] for r in records]))
        elapsed = smoke_pipeline.timings[("mvit", "indirect")]

        report = json.loads(smoke_pipeline.report_path.read_text())
        rows = len(report["indirect"]) + len(report["direct"])

        ok = (
            max(ratios) <= 0.5
            and accuracy >= 0.375
            and elapsed < 600.0
            and rows == 6
            and len(report["indirect"]) == 3
            and len(report["direct"]) == 3
        )
        criterion(
            7,
            ok,
            f"per-fold loss ratios {[round(r, 3) for r in ratios]} (<= 0.5), fold-averaged "
            f"val accuracy {accuracy:.3f} (>= 0.375), mvit run {elapsed:.0f}s single core "
            f"(< 600s), report rows {rows} (== 6)",
        )


class TestCriterion8Determinism:
    def test_pipeline_reruns_are_byte_identical(self, smoke_pipeline, workdir):
        rerun = workdir / "rerun"
        corpus2 = rerun / "smoke_corpus"
        assert run_cli("synth", "--out", corpus2, "--seed", 0, "--smoke") == 0
        labels_same = (corpus2 / "labels.csv").read_bytes() == (
            smoke_pipeline.corpus / "labels.csv"
        ).read_bytes()
        clips_same = all(
            (corpus2 / p.name).read_bytes() == p.read_bytes()
            for p in sorted(smoke_pipeline.corpus.glob("*.tvf"))
        )

        prepared2 = rerun / "smoke_prepared.csv"
        assert run_cli("prep", "--corpus", corpus2, "--out", prepared2, "--min-count", 1) == 0
        prepared_same = prepared2.read_bytes() == smoke_pipeline.prepared.read_bytes()

        # same seed, different directory and fold parallelism
        run2 = rerun / "run_mvit_indirect"
        assert (
            run_cli(
                "train", "--manifest", prepared2, "--model", "mvit", "--method", "indirect",
                "--config", smoke_pipeline.config, "--out", run2, "--seed", 0, "--jobs", 2,
            )
            == 0
        )
        preds_same = (run2 / "predictions.json").read_bytes() == (
            smoke_pipeline.run_dirs[("mvit", "indirect")] / "predictions.json"
        ).read_bytes()

        report2 = rerun / "report.json"
        rerun_dirs = [
            run2 if key == ("mvit", "indirect") else path
            for key, path in smoke_pipeline.run_dirs.items()
        ]
        assert run_cli("eval", "--runs", *rerun_dirs, "--out", report2) == 0
        report_same = report2.read_bytes() == smoke_pipeline.report_path.read_bytes()

        ok = labels_same and clips_same and prepared_same and preds_same and report_same
        criterion(
            8,
            ok,
            f"byte-identical on rerun: clips {clips_same}, labels {labels_same}, prepared "
            f"manifest {prepared_same}, predictions {preds_same}, report {report_same}",
        )
