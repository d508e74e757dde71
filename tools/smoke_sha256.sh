#!/bin/sh
# Runs the README smoke pipeline from the source checkout SRC in the new work
# directory OUT and prints the sha256 of every deterministic output:
# report.json and each run's predictions.json, config.txt, digest.txt and
# fold<k>.ckpt, then one line for the smoke corpus: the sha256 of its
# labels.csv followed by every .tvf clip in name order. Two checkouts that
# print the same lines produce the same smoke outputs byte for byte. The
# last line, `numbers`, hashes only the numbers: the canonical JSON of a
# list of every run's `folds` (loss histories, logits, scores) in training
# order, then report.json's `indirect` and `direct` sections. A change to
# configs or provenance alone leaves it as it was. JOBS (default 1) is
# passed to `train --jobs`.
#
#   tools/smoke_sha256.sh SRC OUT [JOBS]
#
# At the default 30 epochs the six runs take a few minutes on two cores.
set -eu

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 SRC OUT [JOBS]" >&2
    exit 2
fi
if [ -e "$2" ]; then
    echo "$0: $2 already exists" >&2
    exit 2
fi
src=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
jobs=${3:-1}

nascore() {
    PYTHONPATH="$src/src" python -m nascore "$@" >/dev/null
}

# `python -m` puts the working directory first on sys.path, so every
# command runs in OUT, where no file can shadow a module numpy imports
cd "$out"
nascore synth --smoke --seed 0 --out "$out/corpus"
nascore prep --corpus "$out/corpus" --out "$out/prepared.csv" --min-count 1
printf 'learning_rate = 0.001\n' >"$out/smoke.cfg"
set --
for model in mvit r2plus1d cnnrnn; do
    for method in indirect direct; do
        run="$out/run_${model}_${method}"
        nascore train --manifest "$out/prepared.csv" --model "$model" --method "$method" \
            --config "$out/smoke.cfg" --out "$run" --seed 0 --jobs "$jobs"
        set -- "$@" "$run"
    done
done
nascore eval --runs "$@" --out "$out/report.json"

sha256sum report.json run_*/predictions.json run_*/config.txt run_*/digest.txt run_*/fold*.ckpt
cat corpus/labels.csv corpus/*.tvf | sha256sum | sed 's/ -$/ corpus/'
python - "$@" <<'EOF'
import hashlib
import json
import sys
from pathlib import Path

runs = [json.loads(Path(run, "predictions.json").read_text()) for run in sys.argv[1:]]
report = json.loads(Path("report.json").read_text())
numbers = [run["folds"] for run in runs] + [report["indirect"], report["direct"]]
canonical = json.dumps(numbers, sort_keys=True, separators=(",", ":")).encode()
print(f"{hashlib.sha256(canonical).hexdigest()}  numbers")
EOF
