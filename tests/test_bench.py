"""The ``tools/bench.py`` regression gate, on stub scenarios (no
simulation): which run is kept, and which scenarios the baseline floor
fails or skips."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location(
        "bench", REPO_ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stub(rates):
    """A scenario function returning the next rate of ``rates`` per call."""
    it = iter(rates)

    def fn(quick, seed):
        return {"name": "stub", "events_per_sec": next(it), "wall_s": 1.0}

    return fn


def _baseline(tmp_path, **floors):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(
        {name: {"events_per_sec": rate} for name, rate in floors.items()}))
    return path


class TestRunScenario:
    def test_keeps_lower_median_run_with_spread(self, bench):
        kept, runs = bench.run_scenario("stub", _stub([30, 10, 40, 20]),
                                        quick=True, seed=1, repeat=4)
        assert [r["events_per_sec"] for r in runs] == [30, 10, 40, 20]
        assert [r["rep"] for r in runs] == [0, 1, 2, 3]
        # Sorted 10, 20, 30, 40: the lower median is the run at 20.
        assert kept["events_per_sec"] == 20
        assert (kept["rate_min"], kept["rate_median"],
                kept["rate_max"]) == (10, 20, 40)
        assert "rep" not in kept

    def test_odd_repeat_keeps_the_middle_run(self, bench):
        kept, _ = bench.run_scenario("stub", _stub([5, 9, 7]),
                                     quick=True, seed=1, repeat=3)
        assert kept["events_per_sec"] == kept["rate_median"] == 7


class TestCheckBaseline:
    def test_floor_is_baseline_times_one_minus_tolerance(self, bench,
                                                         tmp_path):
        path = _baseline(tmp_path, fattree_perm=1000)
        at_floor = [{"name": "fattree_perm", "events_per_sec": 750.0}]
        below = [{"name": "fattree_perm", "events_per_sec": 749.0}]
        assert bench.check_baseline(at_floor, path, 0.25) == 0
        assert bench.check_baseline(below, path, 0.25) == 1
        assert bench.check_baseline(below, path, 0.30) == 0

    def test_counts_every_regressed_scenario(self, bench, tmp_path):
        path = _baseline(tmp_path, fattree_perm=1000, event_loop=1000)
        results = [{"name": "fattree_perm", "events_per_sec": 1.0},
                   {"name": "event_loop", "events_per_sec": 1.0}]
        assert bench.check_baseline(results, path, 0.25) == 2

    def test_skips_non_core_and_unlisted_scenarios(self, bench, tmp_path):
        assert "topo_build" not in bench.S.CORE_SCENARIOS
        path = _baseline(tmp_path, topo_build=1000)
        results = [
            {"name": "topo_build", "events_per_sec": 1.0},    # not core
            {"name": "two_dc_mixed", "events_per_sec": 1.0},  # no floor
        ]
        assert "two_dc_mixed" in bench.S.CORE_SCENARIOS
        assert bench.check_baseline(results, path, 0.25) == 0
