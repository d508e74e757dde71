"""Command-line pipeline: synth, prep, train, eval, verify.

Every command takes a single --seed; all internal randomness derives from
it by stable hashing, so reruns produce byte-identical primary outputs.
Exit codes: 0 success, 1 verification or data failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import autodiff, datagen, dataset, metrics, models, training, verify

MODEL_NAMES = {
    "mvit": "mini-mvit",
    "r2plus1d": "micro-r2plus1d",
    "cnnrnn": "micro-cnn-rnn",
}


class CliError(Exception):
    pass


def parse_geometry(text):
    """WIDTHxHEIGHT, e.g. 96x72; returns (H, W)."""
    try:
        w, h = text.lower().split("x")
        geometry = (int(h), int(w))
    except ValueError:
        raise CliError(f"bad geometry {text!r}, expected WIDTHxHEIGHT like 96x72")
    if geometry[0] <= 0 or geometry[1] <= 0:
        raise CliError(f"geometry extents must be positive, got {text!r}")
    return geometry


def cmd_synth(args):
    if args.smoke:
        plan = datagen.plan_smoke(args.seed)
        geometry = parse_geometry(args.geometry) if args.geometry else datagen.SMOKE_GEOMETRY
        agent_scale = datagen.SMOKE_AGENT_SCALE
    else:
        plan = datagen.plan_corpus(args.seed)
        geometry = parse_geometry(args.geometry) if args.geometry else datagen.DEFAULT_GEOMETRY
        agent_scale = 1.0
    manifest = datagen.write_corpus(plan, args.out, geometry=geometry, agent_scale=agent_scale)
    print(f"wrote {len(plan.entries)} clips at {geometry[0]}x{geometry[1]} (HxW) -> {manifest}")
    return 0


def cmd_prep(args):
    records = dataset.load_labels(Path(args.corpus) / datagen.MANIFEST_NAME)
    manifest = dataset.reduce_labels(records, rule=args.rule, min_count=args.min_count)
    out = dataset.write_prepared_manifest(manifest, args.out)
    counts = ", ".join(str(c) for c in manifest.class_counts)
    print(f"kept {manifest.total_after} of {manifest.total_before} videos [{counts}] -> {out}")
    return 0


# config keys map to the annotation of their dataclass field, which names
# the parser of their value
TRAIN_KEYS = {f.name: f.type for f in fields(training.TrainConfig)}
MODEL_KEYS = {f.name: f.type for f in fields(models.ModelConfig)}
_PARSERS = {
    "tuple": lambda raw: tuple(int(v) for v in raw.split(",")),
    "float": float,
    "int": int,
    "str": str,
}


def read_config_file(path):
    """key = value lines; # starts a comment."""
    train_overrides = {}
    model_overrides = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key in TRAIN_KEYS:
            overrides, kind = train_overrides, TRAIN_KEYS[key]
        elif key in MODEL_KEYS:
            overrides, kind = model_overrides, MODEL_KEYS[key]
        else:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            overrides[key] = _PARSERS[kind](raw)
        except ValueError:
            raise CliError(f"{path}:{lineno}: bad value {raw!r} for {key} ({kind})")
    return train_overrides, model_overrides


def write_config_echo(path, train_config, model_config):
    lines = ["# effective run configuration"]
    for section in (train_config, model_config):
        for f in fields(section):
            value = getattr(section, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{f.name} = {value}")
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_train(args):
    train_overrides, model_overrides = ({}, {})
    if args.config:
        train_overrides, model_overrides = read_config_file(args.config)
    train_overrides["variant"] = MODEL_NAMES[args.model]
    train_overrides["method"] = args.method
    if args.seed is not None:
        train_overrides["seed"] = args.seed
    config = replace(training.TrainConfig(), **train_overrides)
    config.validate()

    entries = dataset.load_prepared_manifest(args.manifest)
    model_config = training.default_model_config(config, entries)
    if model_overrides:
        model_config = replace(model_config, **model_overrides)
    model_config.validate()

    # run_experiment creates the run directory once every fold has trained,
    # so a run that fails leaves nothing behind
    out = Path(args.out)
    run = training.run_experiment(
        args.manifest, config, jobs=args.jobs, model_config=model_config, run_dir=out
    )
    write_config_echo(out / "config.txt", config, model_config)
    (out / "digest.txt").write_text(run.corpus_digest + "\n")
    n_preds = sum(len(f["predictions"]) for f in run.folds)
    print(f"trained {config.folds} folds ({n_preds} held-out predictions) -> {out}")
    return 0


def cmd_eval(args):
    results = {}
    provenance = {"runs": {}}
    digests = {}
    for run_dir in args.runs:
        pred_path = Path(run_dir) / "predictions.json"
        if not pred_path.exists():
            raise CliError(f"{run_dir}: no predictions.json (not a run directory?)")
        run = training.ExperimentRun.from_json(pred_path.read_text(), source=pred_path)
        key = (run.variant, run.method)
        if key in results:
            raise CliError(f"duplicate run for {run.variant}/{run.method}")
        digests[str(run_dir)] = run.corpus_digest
        fold_records = [
            metrics.compute_fold_metrics(
                metrics.PredictionSet.from_records(run.method, fold["predictions"])
            )
            for fold in run.folds
        ]
        results[key] = {
            "folds": fold_records,
            "average": metrics.aggregate_folds(fold_records),
        }
        provenance["runs"][f"{run.variant}/{run.method}"] = {
            "seed": run.train_config["seed"],
            "train_config": run.train_config,
            "model_config": run.model_config,
        }
    if len(set(digests.values())) > 1:
        listing = ", ".join(f"{d}: {v[:12]}" for d, v in sorted(digests.items()))
        raise CliError(f"incompatible runs, corpus digests differ ({listing})")
    provenance["corpus_digest"] = next(iter(digests.values()))
    path = metrics.emit_report(results, args.out, provenance=provenance)
    print(f"evaluated {len(results)} runs -> {path}")
    return 0


def cmd_verify(args):
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    checks = verify.run_suites(names)
    failed = 0
    for check in checks:
        mark = "ok " if check.ok else "FAIL"
        print(f"[{mark}] {check.name}: {check.detail}")
        failed += 0 if check.ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nascore",
        description="Synthetic thermal-video pipeline for nursing-workload score prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--geometry", help="frame size as WIDTHxHEIGHT (default 96x72, smoke 32x24)")
    p.add_argument("--smoke", action="store_true", help="emit the 80-clip separable corpus")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prep", help="reduce labels and emit the training manifest")
    p.add_argument("--corpus", required=True, help="corpus directory from synth")
    p.add_argument("--out", required=True, help="prepared manifest file")
    p.add_argument("--rule", choices=("before", "after"), default="before")
    p.add_argument("--min-count", type=int, default=dataset.OCCURRENCE_THRESHOLD)
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("train", help="train one (model, method) under k-fold cross-validation")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True, choices=sorted(MODEL_NAMES))
    p.add_argument("--method", required=True, choices=("indirect", "direct"))
    p.add_argument("--config", help="key = value overrides for train/model settings")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1, help="parallel fold workers")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="aggregate run directories into one report")
    p.add_argument("--runs", required=True, nargs="+", help="run directories from train")
    p.add_argument("--out", required=True, help="report file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run built-in verification suites")
    p.add_argument("--suite", choices=(*verify.SUITES, "all"), default="all")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        CliError,
        autodiff.AutodiffError,
        training.NonFiniteGradError,
        ValueError,  # the typed data, config and geometry errors all subclass it
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
