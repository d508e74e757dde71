"""Tests of the benchmark itself, at seconds-scale workload sizes.

Run from the repository root:  python -m pytest perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from nascore import autodiff, models  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) and n[0].isalnum() for n in names)
    assert len(set(names)) == len(names)
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)


def test_declared_metrics_match_what_the_benchmark_reports():
    assert [m["name"] for m in SPEC["per_layer"]] == tracing.per_layer_names()
    assert [m["unit"] for m in SPEC["per_layer"]] == [tracing.unit_of(n) for n in tracing.per_layer_names()]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _originals():
    return [(owner, attr, value) for owner, attr, value in tracing.traced_targets()], dict(autodiff._OPS)


def _assert_restored(originals):
    targets, ops = originals
    for owner, attr, value in targets:
        assert owner.__dict__[attr] is value, f"{attr} not restored"
    assert autodiff._OPS == ops and all(autodiff._OPS[k] is v for k, v in ops.items())


def test_instrument_restores_attributes_when_the_repetition_raises():
    originals = _originals()
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracing.Tracer("t"), 0):
            assert models.Model.__dict__["forward"] is not originals[0][-1][2]
            raise RuntimeError("boom")
    _assert_restored(originals)


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def traced_pair(request, tmp_path_factory):
    """Two traced tiny runs of one workload, with the attributes seen before them."""
    originals = _originals()
    work = tmp_path_factory.mktemp("bench")
    results = [
        workloads.measure(workloads.tiny(request.param), 3, 0.01, True, work) for _ in range(2)
    ]
    return request.param, originals, results


def test_tiny_workload_passes_every_check(traced_pair):
    _, _, results = traced_pair
    declared = {m["name"] for m in SPEC["end_to_end"]} - {"peak_rss_mb"}
    for result in results:
        assert result.checks.attempted > 0
        assert result.checks.failed == []
        assert set(result.e2e) == declared
        assert all(v > 0 for v in result.e2e.values())


def test_traced_run_restores_wrapped_attributes(traced_pair):
    _, originals, _ = traced_pair
    _assert_restored(originals)


def test_traced_run_reports_every_layer_metric_and_counts_repeat(traced_pair):
    name, _, (first, second) = traced_pair
    assert list(first.per_layer) == tracing.per_layer_names()
    counts = [n for n in first.per_layer if tracing.is_count(n)]
    assert counts and all(first.per_layer[n] == second.per_layer[n] for n in counts)
    layers_used = {n.split(".", 1)[1] for n in first.per_layer if n.startswith("self_s.") and first.per_layer[n] > 0}
    if name == "synth-io":
        assert "autodiff" not in layers_used and {"datagen", "tvf", "dataset"} <= layers_used
    else:
        assert {"autodiff", "models", "training"} <= layers_used


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth-io", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
