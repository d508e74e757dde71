import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench_pairs():
    """tools/bench_pairs.py, loaded by path: tools/ is not a package."""
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchPairs:
    # the change's values are the parent's times ``factor``; BENCHMARK.json
    # bounds wall_s and clips_per_s at 25%, peak_rss_mb at 10%
    @pytest.mark.parametrize("metric, factor, flagged", [
        ("wall_s", 1.26, True),
        ("wall_s", 1.24, False),
        ("peak_rss_mb", 1.11, True),
        ("peak_rss_mb", 1.09, False),
        ("clips_per_s", 0.74, True),
        ("clips_per_s", 0.76, False),
    ])
    def test_worse_than_bound(self, bench_pairs, metric, factor, flagged):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        (declared,) = [m for m in spec["end_to_end"] if m["name"] == metric]
        parent = [90.0, 100.0, 110.0]
        summary = bench_pairs.compare(parent, [v * factor for v in parent],
                                      declared["better"], declared["bound"])
        assert summary["worse_than_bound"] is flagged
        assert summary["wins"] == 0 and summary["gain"] is False

    def test_figures_without_bound_or_winner(self, bench_pairs):
        raw = bench_pairs.compare([1.0, 2.0], [3.0, 4.0], "higher")
        assert raw["wins"] == 2 and "worse_than_bound" not in raw
        probe = bench_pairs.compare([1.0, 2.0], [3.0, 4.0], None)
        assert "wins" not in probe and "worse_than_bound" not in probe
