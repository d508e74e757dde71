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
    if geometry[0] < 2 or geometry[1] < 2:
        raise CliError(f"geometry extents must be at least 2 pixels, got {text!r}")
    return geometry


def positive_int(text):
    value = int(text)  # argparse reports a ValueError as a usage error
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


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


def read_utf8(path):
    """The text of the UTF-8 file at ``path``; other bytes raise a CliError
    naming the file, as the manifest readers do."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_config_file(path, fixed):
    """The train and the model settings of key = value lines; # starts a
    comment. Each key, given once, is a train setting or a field the
    variant's config class adds to ``models.ModelConfig``. A key of
    ``fixed``, set on the command line (variant and method among them),
    must have its value there."""
    variant, method = fixed["variant"], fixed["method"]
    # a dataclass lists the fields of its base class first
    own = fields(models.config_class(variant))[len(fields(models.ModelConfig)):]
    # a key's kind is the annotation of its dataclass field
    model_keys = {f.name: f.type for f in own}
    kinds = {f.name: f.type for f in fields(training.TrainConfig)} | model_keys
    # the shared fields a run derives; seed is a train key
    derived = {"head": f"the {method} method trains {training.METHOD_HEADS[method]!r}",
               "frame_hw": "it is the clips' frame size"}
    values, first_line = {}, {}
    for lineno, line in enumerate(read_utf8(path).splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise CliError(f"{path}:{lineno}: {key} given twice (first on line {first_line[key]})")
        if key in derived:
            raise CliError(f"{path}:{lineno}: {key} is not a config key; {derived[key]}")
        if key not in kinds:
            raise CliError(f"{path}:{lineno}: {variant} has no config key {key!r}")
        first_line[key] = lineno
        try:
            parse, _, _ = models.FIELD_TYPES[kinds[key]]
            values[key] = parse(raw)
        except ValueError:
            raise CliError(f"{path}:{lineno}: bad value {raw!r} for {key} ({kinds[key]})")
        if key in fixed and values[key] != fixed[key]:
            raise CliError(
                f"{path}:{lineno}: {key} = {raw} disagrees with the command line, "
                f"which gives {key} = {fixed[key]}"
            )
    train = {key: value for key, value in values.items() if key not in model_keys}
    return train, {key: value for key, value in values.items() if key in model_keys}


def cmd_train(args):
    flags = {"variant": MODEL_NAMES[args.model], "method": args.method}
    if args.seed is not None:
        flags["seed"] = args.seed
    train_overrides, model_overrides = (
        read_config_file(args.config, flags) if args.config else ({}, {})
    )
    train_overrides.update(flags)
    config = replace(training.TrainConfig(), **train_overrides)
    run = training.run_experiment(
        args.manifest, config, jobs=args.jobs, model_overrides=model_overrides, run_dir=args.out
    )
    n_preds = sum(len(f["predictions"]) for f in run.folds)
    print(f"trained {config.folds} folds ({n_preds} held-out predictions) -> {args.out}")
    return 0


def cmd_eval(args):
    results = {}
    provenance = {"runs": {}}
    digests = {}
    for run_dir in args.runs:
        pred_path = Path(run_dir) / "predictions.json"
        if not pred_path.exists():
            raise CliError(f"{run_dir}: no predictions.json (not a run directory?)")
        run = training.ExperimentRun.from_json(read_utf8(pred_path), source=pred_path)
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
    p.add_argument("--min-count", type=positive_int, default=dataset.OCCURRENCE_THRESHOLD)
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("train", help="train one (model, method) under k-fold cross-validation")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True, choices=sorted(MODEL_NAMES))
    p.add_argument("--method", required=True, choices=("indirect", "direct"))
    p.add_argument("--config", help="key = value overrides for train/model settings")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=positive_int, default=1,
                   help="parallel fold workers, at most one per fold")
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
    except MemoryError as exc:  # e.g. numpy cannot allocate a clip of a huge --geometry
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
