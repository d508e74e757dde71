import math
from pathlib import Path

import numpy as np
import pytest

from nascore import autodiff as ad
from nascore import datagen, dataset, models, training


def fake_entries(counts):
    entries = []
    for cls, n in enumerate(counts):
        for i in range(n):
            entries.append(
                dataset.PreparedEntry(
                    video_id=f"c{cls}_{i}",
                    class_index=cls,
                    avg_nas=dataset.avg_nas(cls % 8),
                    clip_path=Path("unused.tvf"),
                )
            )
    return entries


class TestStratifiedKfold:
    def test_table_corpus_fold_sizes(self):
        entries = fake_entries([65, 58, 68, 54, 60, 46, 57, 50])
        splits = training.stratified_kfold(entries, 5, seed=0)
        sizes = sorted(len(s.val_ids) for s in splits)
        assert sizes == [91, 91, 92, 92, 92]

    def test_even_class_split(self):
        entries = fake_entries([50])
        splits = training.stratified_kfold(entries, 5, seed=1)
        assert all(len(s.val_ids) == 10 for s in splits)

    def test_per_class_balance(self):
        entries = fake_entries([65, 58, 68, 54, 60, 46, 57, 50])
        splits = training.stratified_kfold(entries, 5, seed=2)
        cls_of = {e.video_id: e.class_index for e in entries}
        for cls in range(8):
            per_fold = [sum(cls_of[v] == cls for v in s.val_ids) for s in splits]
            assert max(per_fold) - min(per_fold) <= 1

    def test_coverage_and_disjointness(self):
        entries = fake_entries([12, 9, 11])
        splits = training.stratified_kfold(entries, 4, seed=3)
        all_ids = {e.video_id for e in entries}
        seen = []
        for s in splits:
            assert set(s.train_ids).isdisjoint(s.val_ids)
            assert set(s.train_ids) | set(s.val_ids) == all_ids
            seen.extend(s.val_ids)
        assert sorted(seen) == sorted(all_ids)

    def test_small_class_degrades_with_warning(self):
        entries = fake_entries([10, 2])
        with pytest.warns(UserWarning, match="fewer than"):
            splits = training.stratified_kfold(entries, 4, seed=0)
        assert sum(len(s.val_ids) for s in splits) == 12

    def test_k_errors(self):
        entries = fake_entries([6])
        with pytest.raises(ValueError):
            training.stratified_kfold(entries, 1, seed=0)
        with pytest.raises(ValueError):
            training.stratified_kfold(entries, 7, seed=0)


class TestLosses:
    def test_uniform_logits_give_log8(self):
        loss = training.loss_indirect(ad.tensor(np.zeros((1, 8))), [3])
        assert abs(loss.item() - math.log(8)) < 1e-12

    def test_confident_logit_drives_loss_to_zero(self):
        logits = np.zeros((1, 8))
        logits[0, 2] = 50.0
        loss = training.loss_indirect(ad.tensor(logits), [2])
        assert loss.item() < 1e-12

    def test_batch_additivity(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((2, 8))
        both = training.loss_indirect(ad.tensor(logits), [1, 5]).item()
        one = training.loss_indirect(ad.tensor(logits[:1]), [1]).item()
        two = training.loss_indirect(ad.tensor(logits[1:]), [5]).item()
        assert abs(both - (one + two)) < 1e-12

    def test_class_out_of_range(self):
        with pytest.raises(ad.AutodiffError, match="out of range"):
            training.loss_indirect(ad.tensor(np.zeros((1, 8))), [8])

    def test_direct_loss_values(self):
        loss = training.loss_direct(ad.tensor([[1.0], [2.0]]), [0.0, 0.0])
        assert loss.item() == 5.0
        loss = training.loss_direct(ad.tensor([[3.3], [4.4]]), [3.3, 4.4])
        assert loss.item() == 0.0
        loss = training.loss_direct(ad.tensor([[4.30]]), [5.60])
        assert abs(loss.item() - 1.69) < 1e-12

    def test_direct_shape_mismatch(self):
        with pytest.raises(ad.ShapeMismatch):
            training.loss_direct(ad.tensor([[1.0], [2.0]]), [0.0])

    def test_direct_additivity_sum_reduction(self):
        rng = np.random.default_rng(1)
        preds = rng.standard_normal((5, 1))
        targets = rng.standard_normal(5)
        whole = training.loss_direct(ad.tensor(preds), targets).item()
        parts = sum(
            training.loss_direct(ad.tensor(preds[i : i + 1]), targets[i : i + 1]).item()
            for i in range(5)
        )
        assert abs(whole - parts) < 1e-9


class TestAdam:
    def params_of(self, value):
        return {"w": ad.tensor(np.full(3, value), requires_grad=True)}

    def test_first_step_magnitude(self):
        lr = 0.01
        params = self.params_of(1.0)
        grads = {"w": np.ones(3)}
        new, _ = training.adam_step(params, grads, training.AdamState(), lr)
        delta = new["w"].data - params["w"].data
        np.testing.assert_allclose(delta, -lr, rtol=1e-6)

    def test_zero_grad_zero_state_no_move(self):
        params = self.params_of(2.0)
        state = training.AdamState()
        new, state = training.adam_step(params, {"w": np.zeros(3)}, state, 0.1)
        np.testing.assert_array_equal(new["w"].data, params["w"].data)
        newer, _ = training.adam_step(new, {"w": np.zeros(3)}, state, 0.1)
        np.testing.assert_array_equal(newer["w"].data, params["w"].data)

    def test_zero_learning_rate_bit_identical(self):
        params = self.params_of(1.5)
        grads = {"w": np.array([0.3, -0.2, 0.9])}
        new, _ = training.adam_step(params, grads, training.AdamState(), 0.0)
        assert new["w"].data.tobytes() == params["w"].data.tobytes()

    def test_non_finite_grad_names_parameter(self):
        params = self.params_of(1.0)
        for g in ([1.0, np.nan, 0.0], [np.inf, -np.inf, 0.0]):
            with pytest.raises(training.NonFiniteGradError, match="'w'"):
                training.adam_step(params, {"w": np.array(g)}, training.AdamState(), 0.1)

    def test_missing_grad_treated_as_zero(self):
        params = self.params_of(4.0)
        new, _ = training.adam_step(params, {}, training.AdamState(), 0.1)
        np.testing.assert_array_equal(new["w"].data, params["w"].data)


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("tinycorpus")
    entries = []
    idx = 0
    for col in datagen.RETAINED_COLUMNS:
        for _ in range(2):
            labels = [0] * datagen.N_ACTIVITIES
            labels[col] = 1
            entries.append(
                datagen.PlanEntry(
                    video_id=f"t{idx:02d}",
                    labels=tuple(labels),
                    frame_count=676,
                    seed=datagen.stable_seed(42, f"t{idx:02d}"),
                )
            )
            idx += 1
    plan = datagen.CorpusPlan(entries=entries, seed=42)
    datagen.write_corpus(plan, directory, geometry=(8, 8))
    records = dataset.load_labels(directory / "labels.csv")
    manifest = dataset.reduce_labels(records, min_count=1)
    return dataset.write_prepared_manifest(manifest, directory / "prepared.csv")


def tiny_train_config(method="indirect", epochs=2, seed=0):
    return training.TrainConfig(
        method=method, variant="mini-mvit", learning_rate=1e-3,
        batch_size=3, epochs=epochs, folds=2, seed=seed,
    )


def tiny_model_config(head):
    return models.ModelConfig(
        "mini-mvit", head, (8, 8), embed_dims=(8, 16, 32), attention_heads=2
    )


class TestTrainFold:
    def test_zero_epochs_gives_initial_predictions(self, tiny_corpus):
        entries = dataset.load_prepared_manifest(tiny_corpus)
        entry_map = {e.video_id: e for e in entries}
        splits = training.stratified_kfold(entries, 2, seed=0)
        result = training.train_fold(
            splits[0], entry_map, tiny_model_config("classify-8"),
            tiny_train_config(epochs=0),
        )
        assert result.loss_history == []
        assert len(result.predictions) == len(splits[0].val_ids)

    def test_history_length_equals_epochs(self, tiny_corpus):
        entries = dataset.load_prepared_manifest(tiny_corpus)
        entry_map = {e.video_id: e for e in entries}
        splits = training.stratified_kfold(entries, 2, seed=0)
        result = training.train_fold(
            splits[0], entry_map, tiny_model_config("classify-8"),
            tiny_train_config(epochs=3),
        )
        assert len(result.loss_history) == 3


class TestRunExperiment:
    def test_coverage_and_shapes(self, tiny_corpus):
        run = training.run_experiment(
            tiny_corpus, tiny_train_config(), model_config=tiny_model_config("classify-8")
        )
        preds = [p for fold in run.folds for p in fold["predictions"]]
        entries = dataset.load_prepared_manifest(tiny_corpus)
        assert sorted(p["video_id"] for p in preds) == sorted(e.video_id for e in entries)
        assert all(len(p["logits"]) == 8 for p in preds)

    def test_direct_predictions_are_scalars(self, tiny_corpus):
        run = training.run_experiment(
            tiny_corpus,
            tiny_train_config(method="direct"),
            model_config=tiny_model_config("regress-1"),
        )
        preds = [p for fold in run.folds for p in fold["predictions"]]
        assert all(isinstance(p["score"], float) for p in preds)
        assert all("logits" not in p for p in preds)

    def test_same_seed_identical_serialization(self, tiny_corpus):
        kwargs = dict(model_config=tiny_model_config("classify-8"))
        a = training.run_experiment(tiny_corpus, tiny_train_config(seed=9), **kwargs)
        b = training.run_experiment(tiny_corpus, tiny_train_config(seed=9), **kwargs)
        assert a.to_json() == b.to_json()

    def test_parallel_folds_match_sequential(self, tiny_corpus):
        kwargs = dict(model_config=tiny_model_config("classify-8"))
        seq = training.run_experiment(tiny_corpus, tiny_train_config(seed=4), jobs=1, **kwargs)
        par = training.run_experiment(tiny_corpus, tiny_train_config(seed=4), jobs=2, **kwargs)
        assert seq.to_json() == par.to_json()

    def test_default_model_config_follows_method_and_first_clip(self, tiny_corpus):
        entries = dataset.load_prepared_manifest(tiny_corpus)
        for method, head in (("indirect", "classify-8"), ("direct", "regress-1")):
            got = training.default_model_config(tiny_train_config(method=method), entries)
            assert got == models.default_config("mini-mvit", head, (8, 8))

    def test_run_dir_artifacts(self, tiny_corpus, tmp_path):
        run_dir = tmp_path / "run"
        training.run_experiment(
            tiny_corpus, tiny_train_config(), model_config=tiny_model_config("classify-8"),
            run_dir=run_dir,
        )
        assert (run_dir / "predictions.json").exists()
        assert (run_dir / "fold0.ckpt").exists() and (run_dir / "fold1.ckpt").exists()
        loaded = models.load_checkpoint(run_dir / "fold0.ckpt")
        assert loaded.config.variant == "mini-mvit"
