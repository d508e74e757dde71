"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload fullgeom-steps --seed 1 --seconds 30 --trace 0

Run it from any directory of a source checkout; the package is imported
from the checkout's ``src/``. The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` (correctness checks) and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones). Lines before it give every metric by name and unit, the workload's
own figures and the run environment. A copy of the result, with the spans
of a traced run, goes to ``.perfbench_out/`` at the checkout root.
"""

import os

# pinned before numpy loads, so BLAS starts with one thread
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NASCORE_JOBS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def git_commit(root):
    """The checked-out commit read from ``.git``, or None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src):
    """sha256 over the package sources, to tell builds apart without git."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed, load_start):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    load_end = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "load_avg_start": load_start,
        "load_avg_end": load_end,
        "overloaded": max(load_start, load_end) > nproc,
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT / "src" / "nascore"),
        "seed": seed,
    }


def named_unit(name):
    if name.endswith("_h_est"):
        return "h"
    return "1/s" if "_per_s" in name else "s"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nascore" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'nascore'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import nascore
    import workloads

    if Path(nascore.__file__).resolve().parent != ROOT / "src" / "nascore":
        print(f"error: nascore imported from {nascore.__file__}, not this checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    load_start = os.getloadavg()[0]
    workload = workloads.WORKLOADS[args.workload]()
    result = workloads.measure(workload, args.seed, args.seconds, bool(args.trace),
                               ROOT / ".perfbench_work")
    result.e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = environment(args.seed, load_start)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        declared = spec["per_layer"]
        values = result.per_layer
    else:
        declared = spec["end_to_end"]
        values = result.e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    checks = result.checks

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(result.samples)} untraced, {result.traced_reps} traced")
    print("env " + json.dumps(env, sort_keys=True))
    if env["overloaded"]:
        print(f"WARNING: load average {max(env['load_avg_start'], env['load_avg_end']):.2f} "
              f"exceeds nproc {env['nproc']}; figures from this run are suspect")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for name, value in result.named.items():
        print(f"  {name:<40} {value:>14.6g} {named_unit(name)}")
    print(f"  {'failed_frac':<40} {len(checks.failed) / checks.attempted:>14.6g} "
          f"({len(checks.failed)} of {checks.attempted} checks)")
    for what in checks.failed[:20]:
        print(f"  FAILED: {what}")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if result.tracer is not None:
        result.tracer.write(out_dir / f"{stem}.spans.tsv.gz")
    line = {
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": metrics,
    }
    record = dict(line, workload=args.workload, named=result.named, env=env,
                  failed_checks=checks.failed, samples=result.samples,
                  setup_times=result.setup_times, probes=result.probes)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
