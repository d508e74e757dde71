"""The three benchmark workloads and the loop that measures them.

Each workload is closed-loop and single-process: one repetition of a fixed
unit of work runs after the previous one ends. ``setup`` builds the inputs
from the seed, ``repetition`` runs the unit and returns its timings, and
every output is checked while it is produced. The timings exclude the
checks themselves.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from nascore import autodiff, cli, datagen, dataset, models, training, tvf

import tracing

SETUPS = 5
PROTOCOL_CLIPS = sum(datagen.AFTER_COUNTS)
PROTOCOL = training.TrainConfig()
HEADS = {"indirect": "classify-8", "direct": "regress-1"}
# the smoke protocol's rate: the micro models train from scratch
LEARNING_RATE = 0.001


class Checks:
    """Counts correctness checks; ``failed`` lists what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed.append(what)
        return ok


def _finite(arr):
    return bool(np.isfinite(np.asarray(arr, dtype=np.float64)).all())


# A shared machine's speed drifts by tens of percent over tens of seconds as
# neighbours come and go, which swamps the differences a benchmark must see.
# So each timed segment is bracketed by a fixed probe (interpreter loop,
# small BLAS call, streaming pass past the L2 cache) and its time is also
# given in reference seconds: raw seconds x PROBE_REF_S / (mean of the two
# probes). PROBE_REF_S is about the probe's time on one quiet core of a
# 2.1 GHz x86-64 VM.
PROBE_REF_S = 0.01
_PROBE_SMALL = np.random.default_rng(0).random((128, 128))
_PROBE_LARGE = np.random.default_rng(1).random(1 << 18)


def probe_s():
    """Seconds taken by a fixed piece of work that no change to nascore touches."""
    t0 = time.perf_counter()
    for _ in range(12):
        acc = 0
        for i in range(10000):
            acc += i
        _PROBE_SMALL @ _PROBE_SMALL
        np.exp(_PROBE_LARGE).sum()
    return time.perf_counter() - t0


class Clock:
    """Times segments of work in raw and in reference seconds."""

    def __init__(self):
        self.probes = [probe_s()]

    def time(self, fn, *args):
        """Runs ``fn(*args)``; returns (its result, raw seconds, reference seconds)."""
        before = self.probes[-1]
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        self.probes.append(probe_s())
        return result, raw, raw * 2 * PROBE_REF_S / (before + self.probes[-1])


# --- fullgeom-steps ---------------------------------------------------------


def _protocol(rates, plan):
    """Hours and clip passes per second of the paper's protocol at ``rates``.

    Each of the 6 (model, method) pairs trains 5 folds for 30 epochs on 4/5
    of the 458 clips, then predicts the held-out fifth once per fold.
    """
    train_passes = PROTOCOL.epochs * (PROTOCOL.folds - 1) * PROTOCOL_CLIPS
    seconds = sum(
        len(HEADS) * (train_passes / rates[f"train_clips_per_s.{short}"]
                      + PROTOCOL_CLIPS / rates[f"predict_clips_per_s.{short}"])
        for short, *_ in plan
    )
    passes = len(HEADS) * len(plan) * (train_passes + PROTOCOL_CLIPS)
    return seconds / 3600.0, passes / seconds


@dataclass
class FullgeomSteps:
    """Adam steps and prediction batches for each model at full geometry.

    Each repetition rebuilds the three models from fixed seeds, so every
    repetition computes the same numbers and the losses must repeat bit for
    bit. ``plan`` is (model, method, train steps, prediction batches).
    """

    name = "fullgeom-steps"
    warmup = True
    geometry: tuple = datagen.DEFAULT_GEOMETRY
    plan: tuple = (("mvit", "indirect", 2, 2), ("r2plus1d", "direct", 2, 2), ("cnnrnn", "indirect", 4, 3))
    batch: int = 3

    def setup(self, work, seed, checks):
        full = datagen.plan_corpus(seed)
        # the first clip of each class block is single-label, so its class is known
        starts = np.cumsum((0,) + datagen.AFTER_COUNTS[:-1])
        picks = [int(starts[c]) for c in range(2 * self.batch)]
        sub = datagen.CorpusPlan(entries=[full.entries[i] for i in picks], seed=seed)
        datagen.write_corpus(sub, work, geometry=self.geometry)
        frames = []
        for entry in sub.entries:
            path = tvf.clip_path(work, entry.video_id)
            t, _, _, _ = tvf.read_header(path)
            frames.append(tvf.read_frames(path, dataset.sample_indices(t)))
        x = np.stack(frames).astype(np.float64) / dataset.PIXEL_SCALE
        classes = list(range(self.batch))
        return {
            "seed": seed,
            "train_x": autodiff.tensor(x[: self.batch]),
            "predict_x": autodiff.tensor(x[self.batch :]),
            "classes": classes,
            "scores": [dataset.avg_nas(c) for c in classes],
            "reference": None,
        }

    @staticmethod
    def _train(model, method, steps, state):
        """The inner loop of training.train_fold on one fixed batch."""
        adam = training.AdamState()
        results = []
        for _ in range(steps):
            out = model.forward(state["train_x"])
            if method == "indirect":
                loss = training.loss_indirect(out, state["classes"])
            else:
                loss = training.loss_direct(out, state["scores"])
            gmap = autodiff.backward(loss)
            grads = {
                name: gmap[p.node_id].data if p.node_id in gmap else None
                for name, p in model.params.items()
            }
            new_params, adam = training.adam_step(model.params, grads, adam, LEARNING_RATE)
            model.replace_params(new_params)
            results.append((loss.item(), [n for n, g in grads.items() if g is None]))
        return results

    @staticmethod
    def _predict(model, batches, state):
        return [model.forward(state["predict_x"]).data for _ in range(batches)]

    def repetition(self, state, checks, clock):
        figures = {"wall_s": 0.0, "raw.wall_s": 0.0}
        outputs = []
        for short, method, steps, predicts in self.plan:
            config = models.default_config(
                cli.MODEL_NAMES[short], HEADS[method], self.geometry,
                seed=datagen.stable_seed(state["seed"], short, "init"),
            )
            model = models.build_model(config)
            results, raw_t, ref_t = clock.time(self._train, model, method, steps, state)
            preds, raw_p, ref_p = clock.time(self._predict, model, predicts, state)
            for loss, missing in results:
                checks.check(math.isfinite(loss), f"{short}: loss {loss}")
                checks.check(not missing, f"{short}: no gradient for {missing}")
                outputs.append(loss)
            for pred in preds:
                checks.check(_finite(pred), f"{short}: prediction not finite")
                outputs.append(hashlib.sha256(pred.tobytes()).hexdigest())
            for prefix, train_s, predict_s in (("", ref_t, ref_p), ("raw.", raw_t, raw_p)):
                figures[f"{prefix}train_clips_per_s.{short}"] = steps * self.batch / train_s
                figures[f"{prefix}predict_clips_per_s.{short}"] = predicts * self.batch / predict_s
                figures[f"{prefix}wall_s"] += train_s + predict_s
        if state["reference"] is None:
            state["reference"] = outputs
        checks.check(outputs == state["reference"], "losses or predictions differ between repetitions")
        return figures

    def summarize(self, reps):
        medians = {k: median([r[k] for r in reps]) for k in reps[0]}
        hours, rate = _protocol(medians, self.plan)
        raw_hours, raw_rate = _protocol({k[4:]: v for k, v in medians.items() if k.startswith("raw.")}, self.plan)
        named = {k: v for k, v in medians.items() if "clips_per_s" in k and not k.startswith("raw.")}
        named.update({"protocol_h_est": hours, "raw.protocol_h_est": raw_hours,
                      "raw.clips_per_s": raw_rate, "raw.wall_s": medians["raw.wall_s"]})
        return {"clips_per_s": rate, "wall_s": medians["wall_s"]}, named


# --- smoke-cv -----------------------------------------------------------------


@dataclass
class SmokeCv:
    """5-fold training of all three models through the CLI, then eval."""

    name = "smoke-cv"
    warmup = False
    geometry: tuple = datagen.SMOKE_GEOMETRY
    folds: int = 5
    epochs: int = 1
    pairs: tuple = (("mvit", "indirect"), ("r2plus1d", "direct"), ("cnnrnn", "indirect"))

    def setup(self, work, seed, checks):
        corpus, prepared, config = work / "corpus", work / "prepared.csv", work / "smoke.cfg"
        h, w = self.geometry
        _cli(checks, "synth", "--out", corpus, "--seed", seed, "--smoke", "--geometry", f"{w}x{h}")
        _cli(checks, "prep", "--corpus", corpus, "--out", prepared, "--min-count", 1)
        config.write_text(
            f"learning_rate = {LEARNING_RATE}\nepochs = {self.epochs}\nfolds = {self.folds}\n"
        )
        n_clips = len(datagen.plan_smoke(seed).entries)
        return {"work": work, "seed": seed, "prepared": prepared, "config": config,
                "n_clips": n_clips, "reference": None, "rep": 0}

    def repetition(self, state, checks, clock):
        state["rep"] += 1
        out = state["work"] / f"rep{state['rep']}"
        run_dirs = [out / f"{short}_{method}" for short, method in self.pairs]
        commands = [
            ("train", "--manifest", state["prepared"], "--model", short, "--method", method,
             "--config", state["config"], "--out", run_dir, "--seed", state["seed"], "--jobs", 1)
            for (short, method), run_dir in zip(self.pairs, run_dirs)
        ]
        commands.append(("eval", "--runs", *run_dirs, "--out", out / "report.json"))
        raw = ref = 0.0
        for argv in commands:
            _, raw_s, ref_s = clock.time(_cli, checks, *argv)
            raw, ref = raw + raw_s, ref + ref_s

        payloads = [(d / "predictions.json").read_bytes() for d in run_dirs]
        for run_dir, payload in zip(run_dirs, payloads):
            run = training.ExperimentRun.from_json(payload.decode())
            preds = [p for fold in run.folds for p in fold["predictions"]]
            checks.check(len(preds) == state["n_clips"], f"{run_dir.name}: {len(preds)} predictions")
            values = [v for p in preds for v in p.get("logits", [p.get("score")])]
            losses = [v for fold in run.folds for v in fold["loss_history"]]
            checks.check(_finite(values) and _finite(losses), f"{run_dir.name}: non-finite output")
        report = json.loads((out / "report.json").read_text())
        for method in HEADS:
            trained = sorted(cli.MODEL_NAMES[s] for s, m in self.pairs if m == method)
            checks.check(sorted(report[method]) == trained, f"report.json {method} section")
        if state["reference"] is None:
            state["reference"] = payloads
        checks.check(payloads == state["reference"], "predictions.json differs between repetitions")
        shutil.rmtree(out)
        passes = len(self.pairs) * state["n_clips"] * (self.epochs * (self.folds - 1) + 1)
        return {"wall_s": ref, "clips_per_s": passes / ref, "raw.wall_s": raw, "raw.clips_per_s": passes / raw}

    def summarize(self, reps):
        medians = {k: median([r[k] for r in reps]) for k in reps[0]}
        named = {"cv_wall_s": medians["wall_s"], "raw.cv_wall_s": medians["raw.wall_s"],
                 "raw.clips_per_s": medians["raw.clips_per_s"]}
        return {"clips_per_s": medians["clips_per_s"], "wall_s": medians["wall_s"]}, named


def _cli(checks, *argv):
    """Runs one CLI command with its chatter captured; a non-zero exit is a failed check."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main([str(a) for a in argv])
    checks.check(code == 0, f"nascore {argv[0]} exited {code}: {buf.getvalue().strip()}")


# --- synth-io -------------------------------------------------------------------


@dataclass
class SynthIo:
    """Render and write a fixed slice of the full plan, prep, sample, delete.

    The slice and its frame counts come from the plan of seed 0, so every
    run does the same amount of work; the benchmark seed re-derives the
    render seeds, which set the noise and motion of every clip.
    """

    name = "synth-io"
    warmup = True
    geometry: tuple = datagen.DEFAULT_GEOMETRY
    # every 73rd entry of the 882-entry plan: single-label, paired and
    # unlabelled clips
    picks: tuple = tuple(range(0, datagen.TOTAL_VIDEOS, 73))

    def setup(self, work, seed, checks):
        plan = datagen.plan_corpus(0)
        labels = datagen.write_manifest(plan, work / "labels")
        sub = datagen.CorpusPlan(entries=[plan.entries[i] for i in self.picks], seed=0)
        return {"work": work, "seed": seed, "labels": labels, "sub": sub, "reference": None, "rep": 0}

    def _run(self, state, out):
        datagen.write_corpus(state["sub"], out, geometry=self.geometry, seed=state["seed"])
        manifest = dataset.reduce_labels(dataset.load_labels(state["labels"]))
        headers, sampled = [], []
        for entry in state["sub"].entries:
            path = tvf.clip_path(out, entry.video_id)
            header = tvf.read_header(path)
            headers.append(header)
            sampled.append(tvf.read_frames(path, dataset.sample_indices(header[0])))
        return manifest, headers, sampled

    def repetition(self, state, checks, clock):
        state["rep"] += 1
        out = state["work"] / f"rep{state['rep']}"
        sub = state["sub"]
        (manifest, headers, sampled), raw, ref = clock.time(self._run, state, out)

        h, w = self.geometry
        lo, hi = datagen.FRAME_COUNT_RANGE
        for entry, (t, th, tw, _), frames in zip(sub.entries, headers, sampled):
            checks.check((th, tw) == (h, w) and lo <= t <= hi and t == entry.frame_count,
                         f"{entry.video_id}: header {(t, th, tw)}")
            checks.check(frames.shape == (dataset.SAMPLE_FRAMES, h, w), f"{entry.video_id}: sampled {frames.shape}")
        checks.check(
            manifest.total_after == PROTOCOL_CLIPS and manifest.class_counts == datagen.AFTER_COUNTS,
            f"prep kept {manifest.total_after} clips {manifest.class_counts}",
        )
        digests = [
            hashlib.sha256(tvf.clip_path(out, e.video_id).read_bytes()).hexdigest()
            for e in sub.entries
        ]
        if state["reference"] is None:
            state["reference"] = digests
        checks.check(digests == state["reference"], "clip digests differ between repetitions")
        shutil.rmtree(out)
        n = len(sub.entries)
        return {"wall_s": ref, "clips_per_s": n / ref, "raw.wall_s": raw, "raw.clips_per_s": n / raw}

    def summarize(self, reps):
        medians = {k: median([r[k] for r in reps]) for k in reps[0]}
        named = {"synth_clips_per_s": medians["clips_per_s"],
                 "raw.synth_clips_per_s": medians["raw.clips_per_s"], "raw.wall_s": medians["raw.wall_s"]}
        return {"clips_per_s": medians["clips_per_s"], "wall_s": medians["wall_s"]}, named


WORKLOADS = {w.name: w for w in (FullgeomSteps, SmokeCv, SynthIo)}


def tiny(name):
    """A seconds-scale instance of a workload, for the benchmark's own tests."""
    if name == "fullgeom-steps":
        return FullgeomSteps(geometry=(24, 32), plan=(("mvit", "indirect", 1, 1),
                                                      ("r2plus1d", "direct", 1, 1),
                                                      ("cnnrnn", "indirect", 1, 1)))
    if name == "smoke-cv":
        return SmokeCv(geometry=(12, 16), folds=2)
    return SynthIo(geometry=(12, 16), picks=(0, 500))


# --- the measuring loop -----------------------------------------------------------


@dataclass
class Result:
    e2e: dict
    named: dict
    per_layer: dict
    checks: Checks
    samples: list  # each untraced repetition's figures
    setup_times: list  # (raw, reference) seconds of each set-up
    probes: list
    traced_reps: int
    tracer: tracing.Tracer = field(default=None, repr=False)


def measure(workload, seed, seconds, trace, work_root):
    """Set up ``SETUPS`` times, then repeat the workload for about ``seconds``.

    Repetitions continue while the next one is expected to end no more than
    half a repetition past ``seconds``; at least two run. With ``trace``,
    untraced and traced repetitions alternate, so per-layer figures and the
    tracing overhead come from the same run.
    """
    checks = Checks()
    clock = Clock()
    work_root = Path(work_root)
    work_root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        setup_times = []
        state = None
        for i in range(SETUPS):
            work = Path(tmp) / f"setup{i}"
            work.mkdir()
            state, raw, ref = clock.time(workload.setup, work, seed, checks)
            setup_times.append((raw, ref))
            if i:
                shutil.rmtree(Path(tmp) / f"setup{i - 1}")
        if workload.warmup:
            workload.repetition(state, checks, clock)

        tracer = tracing.Tracer(workload.name) if trace else None
        plain, plain_walls, traced_walls, layer_reps = [], [], [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            if tracer is not None and len(traced_walls) < len(plain):
                rep = len(traced_walls)
                with tracing.instrument(tracer, rep):
                    workload.repetition(state, checks, clock)
                traced_walls.append(time.perf_counter() - t0)
                layer_reps.append(tracer.rep_metrics(rep))
            else:
                plain.append(workload.repetition(state, checks, clock))
                plain_walls.append(time.perf_counter() - t0)
            done = len(plain) + len(traced_walls)
            elapsed = time.perf_counter() - start
            enough = len(plain) >= 2 if tracer is None else traced_walls
            if enough and elapsed + 0.5 * elapsed / done >= seconds:
                break

    e2e, named = workload.summarize(plain)
    e2e["setup_s"] = median([ref for _, ref in setup_times])
    named["raw.setup_s"] = median([raw for raw, _ in setup_times])
    named["probe_s"] = median(clock.probes)
    per_layer = {}
    if tracer is not None:
        per_layer = tracing.summarize(layer_reps)
        for name in per_layer:
            if tracing.is_count(name):
                checks.check(all(m[name] == per_layer[name] for m in layer_reps),
                             f"count {name} differs between traced repetitions")
        plain_wall = median(plain_walls)
        overhead = median(traced_walls) - plain_wall
        per_layer["trace.overhead_s"] = overhead
        per_layer["trace.overhead_frac"] = overhead / plain_wall
    return Result(e2e=e2e, named=named, per_layer=per_layer, checks=checks,
                  samples=plain, setup_times=setup_times, probes=clock.probes,
                  traced_reps=len(traced_walls), tracer=tracer)
