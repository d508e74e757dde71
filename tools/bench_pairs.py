#!/usr/bin/env python3
"""Alternating parent/change pairs of one perfbench workload.

    python3 tools/bench_pairs.py PARENT CHANGE WORKLOAD SEED... [--seconds S] [--record PATH]

Runs the benchmark command of BENCHMARK.json (``perfbench/run.py``),
untraced, from the checkout PARENT and from the checkout CHANGE once per
SEED: the parent first in odd-numbered pairs, the change first in even
ones. ``--seconds`` defaults to the parent's ``run_seconds``. For each
pair it prints every end-to-end metric of the parent's BENCHMARK.json,
the raw clip rate (``raw.clips_per_s``, or ``raw.synth_clips_per_s`` on
``synth-io``) and ``probe_s``, the machine-speed probe that reference
seconds divide by. Then, for each figure, each side's median and
quartiles, the number of pairs the change won (ties count for neither)
and whether that makes a gain: wins in at least nine pairs of ten, and
medians further apart than the parent's quartile distance. Each
end-to-end metric also gets ``worse_than_bound``: whether the change's
median is worse than the parent's by more than the metric's ``bound`` in
BENCHMARK.json, a fraction of the parent's median, which is the
condition on which the benchmark rejects a change. ``probe_s``
measures the machine, not the program, and ``failed`` counts failed
correctness checks, so neither gets a winner. The last line is the same
summary as one JSON object: the workload, seconds, seeds, each side's
commit and thread environment (``env.git_commit`` and ``env.threads`` of
its runs), and for each figure both sides' per-pair values, medians and
quartiles, the wins and gain verdict where the figure has a winner, and
``worse_than_bound`` where it has a bound.
``--record PATH`` also merges that object into the JSON file PATH under
the workload's name, creating the file if it does not exist, so one file
collects the pairs of several workloads.

Each run's figures come from the JSON copy of its result that run.py
writes to ``.perfbench_out/`` in its checkout; nothing else there is
read or written.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

RAW_RATES = ("raw.clips_per_s", "raw.synth_clips_per_s")


def run_once(checkout, command, workload, seed, seconds):
    """The figures of one untraced run.py invocation in ``checkout``, and
    the environment its record names."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: {' '.join(argv)} exited {proc.returncode}\n{proc.stderr}")
    out = checkout / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json"
    record = json.loads(out.read_text())
    figures = {name: m["value"] for name, m in record["metrics"].items()}
    named = record["named"]
    figures["raw.clips_per_s"] = next(named[k] for k in RAW_RATES if k in named)
    figures["probe_s"] = named["probe_s"]
    figures["failed"] = record["failed"]
    return figures, record["env"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(parent, change, better, bound=None):
    """The summary of one figure over paired runs: both sides' values,
    medians and quartiles; with ``better`` ("higher" or "lower") the
    change's wins and the gain verdict; with a ``bound`` too, whether the
    change's median is worse than the parent's by more than that fraction
    of it."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    summary = {
        "parent": parent, "change": change,
        "parent_median": pm, "parent_quartiles": [p1, p3],
        "change_median": cm, "change_quartiles": [c1, c3],
    }
    if better is None:
        return summary
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = wins >= math.ceil(0.9 * len(parent)) and sign * (cm - pm) > p3 - p1
    summary.update(wins=wins, gain=gain)
    if bound is not None:
        summary["worse_than_bound"] = sign * (pm - cm) > bound * abs(pm)
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("workload")
    parser.add_argument("seeds", type=int, nargs="+", metavar="SEED")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--record", type=Path, metavar="PATH")
    args = parser.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better.update({"raw.clips_per_s": "higher", "probe_s": None, "failed": None})
    names = list(better)

    sides = {"parent": [], "change": []}
    commits, threads = {}, {}
    for pair, seed in enumerate(args.seeds, start=1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        figures = {}
        for side in order:
            checkout = getattr(args, side).resolve()
            figures[side], env = run_once(checkout, spec["command"], args.workload, seed, seconds)
            commits[side], threads[side] = env["git_commit"], env["threads"]
            sides[side].append(figures[side])
        print(f"pair {pair}  seed {seed}  {order[0]} first{'parent':>11} {'change':>12}")
        for name in names:
            print(f"  {name:<20} {figures['parent'][name]:>12.6g} {figures['change'][name]:>12.6g}")
        sys.stdout.flush()

    n = len(args.seeds)
    print(f"\n{args.workload}: {n} pairs of {seconds:g} s runs")
    print(f"  {'metric':<20} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
          f"  change won  gain  worse than bound")
    summary = {}
    for name in names:
        parent = [f[name] for f in sides["parent"]]
        change = [f[name] for f in sides["change"]]
        s = summary[name] = compare(parent, change, better[name], bounds.get(name))
        (p1, p3), (c1, c3) = s["parent_quartiles"], s["change_quartiles"]
        row = (f"  {name:<20} {s['parent_median']:>12.6g} [{p1:>9.6g}, {p3:>9.6g}]"
               f" {s['change_median']:>12.6g} [{c1:>9.6g}, {c3:>9.6g}]")
        if "wins" in s:
            row += f"  {s['wins']:>4}/{n:<5}  {'yes' if s['gain'] else 'no':<4}"
        if "worse_than_bound" in s:
            row += f"  {'YES' if s['worse_than_bound'] else 'no'}"
        print(row)
    result = {"workload": args.workload, "seconds": seconds, "seeds": args.seeds,
              "commits": commits, "threads": threads, "metrics": summary}
    print(json.dumps(result))
    if args.record:
        recorded = json.loads(args.record.read_text()) if args.record.exists() else {}
        recorded[args.workload] = result
        args.record.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
