"""Tests of the benchmark's own metric rules (no simulation runs).

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run, stats  # noqa: E402


def flow(flow_id, size=1000, done=True, aborted=False, fct=10.0,
         slowdown=2.0, retx=0, parity=0):
    return {
        "flow_id": flow_id, "size_bytes": size, "done": done,
        "aborted": aborted, "fct": fct if done else None,
        "slowdown": slowdown if done else None, "retransmissions": retx,
        "timeouts": 0, "bytes_acked": size, "data_pkts_sent": 1 + retx,
        "parity_pkts_sent": parity,
    }


class TestTailPercentile:
    @pytest.mark.parametrize("n, pct", [
        (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
        (200, 95.0), (1000, 99.0), (1999, 99.0), (2000, 99.5),
        (10000, 99.9),
    ])
    def test_highest_percentile_with_ten_beyond(self, n, pct):
        assert stats.tail_percentile(n) == pct
        assert stats.samples_beyond(n, pct) >= stats.MIN_BEYOND

    def test_next_rung_has_fewer_than_ten_beyond(self):
        for n in (40, 100, 1000, 2000):
            pct = stats.tail_percentile(n)
            higher = [p for p in stats.TAIL_LADDER if p > pct]
            assert stats.samples_beyond(n, higher[0]) < stats.MIN_BEYOND

    def test_too_few_samples_has_no_tail(self):
        assert stats.tail_percentile(19) is None
        with pytest.raises(ValueError):
            stats.summarize([1.0] * 19)

    def test_summary_reports_percentile_and_count(self):
        s = stats.summarize([float(i) for i in range(1, 101)])
        assert (s["tail_pct"], s["count"]) == (90.0, 100)
        assert s["p50"] == pytest.approx(50.5)
        assert s["tail"] == pytest.approx(90.1)

    def test_percentile_matches_linear_interpolation(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert stats.percentile(values, 50) == 3.0
        assert stats.percentile(values, 90) == pytest.approx(4.6)


class TestFailureAccounting:
    def test_unfinished_and_aborted_flows_fail(self):
        flows = [flow(1), flow(2, done=False), flow(3, done=False,
                                                    aborted=True)]
        assert stats.failed_count(flows) == 2
        assert [f["flow_id"] for f in stats.completed(flows)] == [1]

    def test_unfinished_flow_never_reaches_fct_stats(self):
        flows = [flow(i, fct=1.0, slowdown=1.0) for i in range(1, 40)]
        flows.append(flow(99, done=False))
        record = {"flows": flows, "wall_s": 1.0, "cpu_s": 1.0,
                  "setup_s": 0.5, "rss_kb": 1024}
        metrics, notes = run.end_to_end([record], simulated=False)
        assert notes["flows_failed_frac"] == pytest.approx(1 / 40)
        assert notes["fct_flows"] == 39
        assert metrics["fct_tail_ms"]["value"] == 1.0
        assert metrics["fct_tail_slowdown"]["value"] == 1.0


class TestGoodput:
    def test_excludes_parity_and_retransmitted_bytes(self):
        plain = [flow(1, size=1_000_000)]
        costly = [flow(1, size=1_000_000, retx=50, parity=20)]
        assert stats.goodput_mbps(plain, 1.0) == pytest.approx(8.0)
        assert stats.goodput_mbps(costly, 1.0) == pytest.approx(8.0)

    def test_excludes_unfinished_flows(self):
        flows = [flow(1, size=1_000_000), flow(2, size=5_000_000,
                                                done=False)]
        assert stats.goodput_mbps(flows, 2.0) == pytest.approx(4.0)

    def test_cpu_per_gb(self):
        flows = [flow(1, size=500_000_000)]
        assert stats.cpu_s_per_gb(3.0, flows) == pytest.approx(6.0)


class TestMetricNames:
    def test_every_metric_has_a_valid_name_and_unit(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            stats.check_metrics(
                {name: {"value": 1.0, "unit": unit}
                 for name, unit in table.items()})

    @pytest.mark.parametrize("name, unit", [
        ("bad name", "s"), ("-lead", "s"), ("ok", ""), ("ok", None),
        ("ok", "way/too/long/a/unit"),
    ])
    def test_malformed_metrics_are_rejected(self, name, unit):
        with pytest.raises(ValueError):
            stats.check_metrics({name: {"value": 1.0, "unit": unit}})

    def test_non_finite_value_is_rejected(self):
        with pytest.raises(ValueError):
            stats.check_metrics({"x": {"value": float("nan"), "unit": "s"}})

    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
            == run.END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
            == run.PER_LAYER
        assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_digest_ignores_order_and_sees_changes():
    a = [flow(1, fct=1.0), flow(2, fct=2.0)]
    keys = ("flow_id", "fct")
    assert stats.flow_digest(a, keys, (5,)) == \
        stats.flow_digest(list(reversed(a)), keys, (5,))
    assert stats.flow_digest(a, keys, (5,)) != stats.flow_digest(a, keys, (6,))
    b = [flow(1, fct=1.0), flow(2, fct=2.5)]
    assert stats.flow_digest(a, keys) != stats.flow_digest(b, keys)
