import math
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from nascore import autodiff as ad
from nascore import datagen, dataset, models, training, tvf
from test_models import checkpoint_parts, expected_checkpoint_parts


def fake_entries(counts):
    entries = []
    for cls, n in enumerate(counts):
        for i in range(n):
            entries.append(
                dataset.ManifestEntry(
                    video_id=f"c{cls}_{i}",
                    class_index=cls,
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

    def test_class_smaller_than_k_keeps_per_class_balance(self):
        entries = fake_entries([10, 2])
        cls_of = {e.video_id: e.class_index for e in entries}
        for seed in range(5):
            splits = training.stratified_kfold(entries, 4, seed=seed)
            assert sorted(len(s.val_ids) for s in splits) == [3, 3, 3, 3]
            for cls in range(2):
                per_fold = [sum(cls_of[v] == cls for v in s.val_ids) for s in splits]
                assert max(per_fold) - min(per_fold) <= 1

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


def reference_adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-parameter Adam update that training.adam_step fuses; ``state``
    is a dict holding ``t`` and per-name moments ``m`` and ``v``."""
    state["t"] += 1
    t = state["t"]
    new_params = {}
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros(p.shape)
        elif not ad.all_finite(g):
            raise training.NonFiniteGradError(f"non-finite gradient for parameter {name!r}")
        m = state["m"].get(name, np.zeros(p.shape))
        v = state["v"].get(name, np.zeros(p.shape))
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        state["m"][name] = m
        state["v"][name] = v
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        new_params[name] = ad.tensor(
            p.data - lr * m_hat / (np.sqrt(v_hat) + eps), requires_grad=True
        )
    return new_params, state


class TestAdam:
    def params_of(self, value):
        return {"w": ad.tensor(np.full(3, value), requires_grad=True)}

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_fused_update_is_bit_identical_to_per_parameter(self, variant):
        model = models.build_model(models.default_config(variant, "classify-8", (24, 32)))
        rng = np.random.default_rng(5)
        missing = list(model.params)[len(model.params) // 2]
        fused, fused_state = model.params, training.AdamState()
        ref, ref_state = model.params, {"t": 0, "m": {}, "v": {}}
        for step in range(3):
            grads = {
                name: rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3)
                for name, p in model.params.items()
                if name != missing
            }
            fused, fused_state = training.adam_step(
                fused, grads, fused_state, 1e-3, 0.8, 0.99, 1e-7
            )
            ref, ref_state = reference_adam_step(ref, grads, ref_state, 1e-3, 0.8, 0.99, 1e-7)
            assert list(fused) == list(ref) == list(model.params)
            for name in ref:
                assert fused[name].shape == ref[name].shape, (step, name)
                assert fused[name].data.tobytes() == ref[name].data.tobytes(), (step, name)
                assert fused[name].requires_grad
        assert fused_state.t == 3
        assert fused[missing].data.tobytes() == model.params[missing].data.tobytes()

    def test_gradient_of_wrong_shape_names_parameter(self):
        params = {**self.params_of(1.0), "b": ad.tensor(np.zeros((2, 1)), requires_grad=True)}
        # numpy would broadcast (2,) against (2, 1) without a word
        grads = {"w": np.ones(3), "b": np.ones(2)}
        with pytest.raises(ValueError, match=r"'b' has shape \(2,\)"):
            training.adam_step(params, grads, training.AdamState(), 0.1)

    def test_changed_layout_names_parameter(self):
        state = training.AdamState()
        params = {
            "a": ad.tensor(np.ones(2), requires_grad=True),
            "b": ad.tensor(np.ones(3), requires_grad=True),
        }
        params, state = training.adam_step(params, {}, state, 0.1)
        other = {
            "a": params["a"],
            "b": ad.tensor(np.ones(4), requires_grad=True),
        }
        with pytest.raises(ValueError, match=r"'b' has shape \(4,\)"):
            training.adam_step(other, {}, state, 0.1)
        with pytest.raises(ValueError, match="'c' where the Adam state has 'b'"):
            training.adam_step({"a": params["a"], "c": params["b"]}, {}, state, 0.1)
        with pytest.raises(ValueError, match="'b' of the Adam state is missing"):
            training.adam_step({"a": params["a"]}, {}, state, 0.1)
        with pytest.raises(ValueError, match="'c' is not in the Adam state"):
            training.adam_step({**params, "c": params["b"]}, {}, state, 0.1)
        assert state.t == 1

    def test_non_finite_update_raises(self):
        params = {
            "a": ad.tensor(np.zeros(2), requires_grad=True),
            "w": ad.tensor(np.full(3, 1e308), requires_grad=True),
        }
        grads = {"a": np.ones(2), "w": np.full(3, -1.0)}
        # the step is about 1e308 and moves w past the largest float
        with pytest.raises(ad.NonFiniteError, match="updated parameter 'w'"):
            training.adam_step(params, grads, training.AdamState(), 1e308)

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
    return models.MvitConfig(head, (8, 8), embed_dims=(8, 16, 32), attention_heads=2)


def run_settings(model_config):
    """What a run records of its model: every field but the init seed."""
    settings = asdict(model_config)
    del settings["seed"]
    return settings


# a run at 8x8 with these overrides builds tiny_model_config
TINY_OVERRIDES = {"embed_dims": (8, 16, 32), "attention_heads": 2}


class TestTrainFold:
    def test_zero_epochs_gives_initial_predictions(self, tiny_corpus):
        entries = dataset.load_prepared_manifest(tiny_corpus)
        entry_map = {e.video_id: e for e in entries}
        splits = training.stratified_kfold(entries, 2, seed=0)
        record, model = training.train_fold(
            splits[0], entry_map, training.load_sampled_clips(entries),
            tiny_model_config("classify-8"),
            tiny_train_config(epochs=0),
        )
        assert record["fold_index"] == 0
        assert record["loss_history"] == []
        assert len(record["predictions"]) == len(splits[0].val_ids)
        assert model.config == tiny_model_config("classify-8")

    def test_history_length_equals_epochs(self, tiny_corpus):
        entries = dataset.load_prepared_manifest(tiny_corpus)
        entry_map = {e.video_id: e for e in entries}
        splits = training.stratified_kfold(entries, 2, seed=0)
        record, _ = training.train_fold(
            splits[0], entry_map, training.load_sampled_clips(entries),
            tiny_model_config("classify-8"),
            tiny_train_config(epochs=3),
        )
        assert len(record["loss_history"]) == 3


class TestRunExperiment:
    def test_coverage_and_shapes(self, tiny_corpus):
        run = training.run_experiment(
            tiny_corpus, tiny_train_config(), model_overrides=TINY_OVERRIDES
        )
        preds = [p for fold in run.folds for p in fold["predictions"]]
        entries = dataset.load_prepared_manifest(tiny_corpus)
        assert sorted(p["video_id"] for p in preds) == sorted(e.video_id for e in entries)
        assert all(len(p["logits"]) == 8 for p in preds)
        assert run.model_config == run_settings(tiny_model_config("classify-8"))

    def test_direct_predictions_are_scalars(self, tiny_corpus):
        run = training.run_experiment(
            tiny_corpus,
            tiny_train_config(method="direct"),
            model_overrides=TINY_OVERRIDES,
        )
        preds = [p for fold in run.folds for p in fold["predictions"]]
        assert all(isinstance(p["score"], float) for p in preds)
        assert all("logits" not in p for p in preds)

    def test_same_seed_identical_serialization(self, tiny_corpus):
        kwargs = dict(model_overrides=TINY_OVERRIDES)
        a = training.run_experiment(tiny_corpus, tiny_train_config(seed=9), **kwargs)
        b = training.run_experiment(tiny_corpus, tiny_train_config(seed=9), **kwargs)
        assert a.to_json() == b.to_json()

    def test_parallel_folds_match_sequential(self, tiny_corpus):
        kwargs = dict(model_overrides=TINY_OVERRIDES)
        seq = training.run_experiment(tiny_corpus, tiny_train_config(seed=4), jobs=1, **kwargs)
        par = training.run_experiment(tiny_corpus, tiny_train_config(seed=4), jobs=2, **kwargs)
        assert seq.to_json() == par.to_json()

    def test_clips_cross_to_each_worker_at_most_once(self, tiny_corpus, monkeypatch):
        # 4 folds on 2 workers: the clips go to the pool's initializer, not
        # with every fold's task
        pickled = []

        class CountingDict(dict):
            def __reduce_ex__(self, protocol):
                pickled.append(protocol)
                return dict, (dict(self),)

        load = training.load_sampled_clips
        monkeypatch.setattr(
            training, "load_sampled_clips", lambda entries: CountingDict(load(entries))
        )
        config = replace(tiny_train_config(epochs=0), folds=4)
        run = training.run_experiment(tiny_corpus, config, jobs=2, model_overrides=TINY_OVERRIDES)
        assert [fold["fold_index"] for fold in run.folds] == [0, 1, 2, 3]
        assert len(pickled) <= 2

    def test_pool_is_capped_at_the_fold_count(self, tiny_corpus, monkeypatch):
        asked = []

        class InlinePool:
            def __init__(self, max_workers, initializer, initargs):
                asked.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(training, "ProcessPoolExecutor", InlinePool)
        config = tiny_train_config(epochs=0)
        run = training.run_experiment(tiny_corpus, config, jobs=8, model_overrides=TINY_OVERRIDES)
        assert asked == [2]
        assert [f["fold_index"] for f in run.folds] == [0, 1]

    def test_each_clip_is_read_once(self, tiny_corpus, monkeypatch):
        read = tvf.read_frames
        paths = []

        def counted(path, indices):
            paths.append(Path(path).name)
            return read(path, indices)

        monkeypatch.setattr(tvf, "read_frames", counted)
        training.run_experiment(
            tiny_corpus, tiny_train_config(epochs=1), model_overrides=TINY_OVERRIDES
        )
        entries = dataset.load_prepared_manifest(tiny_corpus)
        assert sorted(paths) == sorted(e.clip_path.name for e in entries)

    # the keys each variant's config.txt lists after the train settings
    MODEL_ECHO = {
        "mini-mvit": ["head", "frame_hw", "patch_stride", "embed_dims", "blocks",
                      "attention_heads", "kv_stride", "stage_stride", "mlp_ratio"],
        "micro-r2plus1d": ["head", "frame_hw", "embed_dims"],
        "micro-cnn-rnn": ["head", "frame_hw", "embed_dims", "hidden_size"],
    }

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_config_echo_names_each_setting_once(self, tiny_corpus, tmp_path, variant):
        # every train setting, then the head, the frame size and only the
        # fields the variant takes: no second variant, no template seed
        config = replace(tiny_train_config(epochs=0, seed=3), variant=variant)
        run_dir = tmp_path / "run"
        run = training.run_experiment(tiny_corpus, config, run_dir=run_dir)
        lines = (run_dir / "config.txt").read_text().splitlines()
        assert lines[0] == "# effective run configuration"
        keys = [line.split(" = ")[0] for line in lines[1:]]
        train_keys = [f.name for f in fields(training.TrainConfig)]
        assert keys == train_keys + self.MODEL_ECHO[variant]
        assert "seed = 3" in lines and "frame_hw = 8,8" in lines
        assert list(run.model_config) == self.MODEL_ECHO[variant]

    def test_default_model_config_follows_method_and_first_clip(self, tiny_corpus):
        for method, head in (("indirect", "classify-8"), ("direct", "regress-1")):
            config = tiny_train_config(method=method, epochs=0)
            run = training.run_experiment(tiny_corpus, config)
            expected = models.default_config("mini-mvit", head, (8, 8))
            assert run.model_config == run_settings(expected)

    def test_run_dir_artifacts(self, tiny_corpus, tmp_path, monkeypatch):
        trained = {}
        real_save = models.save_checkpoint

        def save(model, path):
            trained[path.name] = model
            return real_save(model, path)

        monkeypatch.setattr(models, "save_checkpoint", save)
        run_dir = tmp_path / "run"
        run = training.run_experiment(
            tiny_corpus, tiny_train_config(), model_overrides=TINY_OVERRIDES, run_dir=run_dir,
        )
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "config.txt", "digest.txt", "fold0.ckpt", "fold1.ckpt", "predictions.json",
        ]
        assert (run_dir / "predictions.json").read_text() == run.to_json()
        assert (run_dir / "digest.txt").read_text() == training.corpus_digest(tiny_corpus) + "\n"
        echo = (run_dir / "config.txt").read_text().splitlines()
        assert "embed_dims = 8,16,32" in echo and "epochs = 2" in echo
        for k in (0, 1):
            model = trained[f".fold{k}.ckpt.tmp"]
            seed = datagen.stable_seed(0, k, "init")
            assert model.config == replace(tiny_model_config("classify-8"), seed=seed)
            parts = checkpoint_parts(run_dir / f"fold{k}.ckpt")
            assert parts == expected_checkpoint_parts(model)

    def test_failed_write_leaves_no_run_file(self, tiny_corpus, tmp_path, monkeypatch):
        saved = []
        real_save = models.save_checkpoint

        def save_then_fail(model, path):
            if "fold1" in path.name:
                raise OSError("disk full")
            saved.append(path)
            return real_save(model, path)

        monkeypatch.setattr(models, "save_checkpoint", save_then_fail)
        existing, fresh = tmp_path / "existing", tmp_path / "fresh"
        existing.mkdir()
        for run_dir in (existing, fresh):
            with pytest.raises(OSError, match="disk full"):
                training.run_experiment(
                    tiny_corpus, tiny_train_config(epochs=0), model_overrides=TINY_OVERRIDES,
                    run_dir=run_dir,
                )
        assert len(saved) == 2  # the first fold's checkpoint was written, each time
        assert list(existing.iterdir()) == []
        assert not fresh.exists()
