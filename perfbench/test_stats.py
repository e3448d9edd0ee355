#!/usr/bin/env python3
"""Self-tests of the benchmark's own statistics and output format.

    python3 perfbench/test_stats.py
"""

import json
import math
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import stats  # noqa: E402


class TailRuleTest(unittest.TestCase):
    def test_samples_beyond_nearest_rank(self):
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.samples_beyond(999, 99), 9)
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(10000, 99.9), 10)

    def test_tail_needs_ten_samples_beyond(self):
        values = list(range(1, 1001))
        self.assertEqual(stats.tail(values, 99), 990)
        with self.assertRaises(ValueError):
            stats.tail(values[:-1], 99)
        with self.assertRaises(ValueError):
            stats.tail(list(range(99)), 90)

    def test_percentile_is_a_sample(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        self.assertEqual(stats.percentile(values, 50), 3.0)
        self.assertEqual(stats.percentile(values, 100), 5.0)
        self.assertEqual(stats.percentile(values, 1), 1.0)
        self.assertEqual(stats.median([2.0, 1.0]), 1.0)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_timing_reports_sample_count(self):
        t = stats.timing([float(v) for v in range(200)], 95)
        self.assertEqual(t["samples"], 200)
        self.assertEqual(t["beyond_tail"], 10)
        self.assertEqual(t["tail"], 189.0)


class RatioTest(unittest.TestCase):
    def test_ratio_carries_base(self):
        r = stats.ratio(3, 4)
        self.assertEqual(r, {"value": 0.75, "num": 3.0, "den": 4.0})

    def test_zero_base_is_kept(self):
        r = stats.ratio(0, 0)
        self.assertEqual(r["value"], 0.0)
        self.assertEqual(r["den"], 0.0)


class MetricNameTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ("setup_s", "query.p50_ms", "segdiff.store_hit-ratio",
                     "9lives", "a" * 64):
            self.assertEqual(stats.check_metric_name(name), name)

    def test_invalid_names(self):
        for name in ("", "_x", ".x", "a b", "a/b", "café", "a" * 65,
                     None, 3):
            with self.assertRaises(ValueError):
                stats.check_metric_name(name)


class ResultLineTest(unittest.TestCase):
    METRICS = {"query_p50_ms": (1.2034567890123, "ms"),
               "queries_per_s": (812.5, "1/s"),
               "storage.pool_hit_ratio": (0.97, "ratio"),
               "trace.overhead_pct": (0.01, "%")}

    def test_round_trip(self):
        line = stats.result_line(True, 1000, 2, self.METRICS)
        self.assertNotIn("\n", line)
        data = stats.parse_result_line(line)
        self.assertEqual(sorted(data), sorted(stats.RESULT_KEYS))
        self.assertEqual(data["attempted"], 1000)
        self.assertEqual(data["failed"], 2)
        for name, (value, unit) in self.METRICS.items():
            self.assertEqual(data["metrics"][name],
                             {"value": value, "unit": unit})
        self.assertEqual(stats.result_line(
            data["correct"], data["attempted"], data["failed"],
            {k: (v["value"], v["unit"]) for k, v in data["metrics"].items()}),
            line)

    def test_rejects_bad_results(self):
        with self.assertRaises(ValueError):
            stats.result_line(True, 0, 0, self.METRICS)
        with self.assertRaises(ValueError):
            stats.result_line(True, 5, 6, self.METRICS)
        with self.assertRaises(ValueError):
            stats.result_line(True, 5, 0, {"x": (math.nan, "ms")})
        with self.assertRaises(ValueError):
            stats.result_line(True, 5, 0, {"x": (1.0, "m s")})
        with self.assertRaises(ValueError):
            stats.parse_result_line(json.dumps(
                {"correct": True, "attempted": 1, "failed": 0,
                 "metrics": {}, "extra": 1}))


class SpanSummaryTest(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time(self):
        spans = [
            {"id": 0, "parent": -1, "op": 7, "name": "query",
             "start_ns": 0, "end_ns": 100},
            {"id": 1, "parent": 0, "op": 7, "name": "scan",
             "start_ns": 10, "end_ns": 30},
            {"id": 2, "parent": 0, "op": 7, "name": "scan",
             "start_ns": 20, "end_ns": 50},
            {"id": 3, "parent": -1, "op": 8, "name": "query",
             "start_ns": 200, "end_ns": 210},
        ]
        summary = stats.span_summary(spans)
        self.assertEqual(summary["query"]["count"], 2)
        self.assertEqual(summary["query"]["total_ns"], 110)
        self.assertEqual(summary["query"]["self_ns"], 70)
        self.assertEqual(summary["query"]["by_op"], {7: 100, 8: 10})
        self.assertEqual(summary["scan"]["self_ns"], 50)


class MetricSetTest(unittest.TestCase):
    """run.py reports exactly the metrics BENCHMARK.json names."""

    @staticmethod
    def fake_record(workload):
        counters = {name: 2.0 for name in (
            "ingest.observations", "ingest.seconds",
            "store.file_bytes", "store.index_bytes", "observations",
            "peak_rss_mib", "replay.observations", "replay.segments",
            "replay.feature_rows", "wal.syncs", "wal.bytes",
            "pool.searches", "trace.span_cost_ns",
            "timed.seconds", "search.count", "vfs.syncs")}
        return {"workload": workload, "attempted": 10, "failed": 0,
                "counters": counters,
                "samples": {"query_ms": [1.0] * 20000,
                            "append_us": [1.0] * 20000,
                            "setup_s": [1.0, 2.0, 3.0],
                            "timed.start_ns": [0.0], "timed.end_ns": [9.0]}}

    def test_metric_names_match_benchmark_json(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        spans = [{"id": 0, "parent": -1, "op": 0, "name": "query.search",
                  "start_ns": 0, "end_ns": 5}]
        for workload in run.TAIL_PCT:
            record = self.fake_record(workload)
            e2e, _ = run.end_to_end(record)
            self.assertEqual(sorted(e2e),
                             sorted(m["name"] for m in bench["end_to_end"]))
            layer, _ = run.per_layer(record, spans)
            self.assertEqual(sorted(layer),
                             sorted(m["name"] for m in bench["per_layer"]))
            for metrics, listed in ((e2e, bench["end_to_end"]),
                                    (layer, bench["per_layer"])):
                for m in listed:
                    self.assertEqual(metrics[m["name"]][1], m["unit"])
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]),
                         sorted(run.TAIL_PCT))

    def test_overhead_counts_only_spans_in_the_timed_phase(self):
        record = self.fake_record("store_query")
        record["counters"]["trace.span_cost_ns"] = 10.0
        record["counters"]["timed.seconds"] = 1e-6
        record["samples"]["timed.start_ns"] = [100.0, 500.0]
        record["samples"]["timed.end_ns"] = [200.0, 600.0]
        spans = [{"id": i, "parent": -1, "op": 0, "name": "query.search",
                  "start_ns": start, "end_ns": start + 1}
                 for i, start in enumerate((50, 100, 150, 200, 550, 700))]
        _, detail = run.per_layer(record, spans)
        self.assertEqual(detail["trace.timed_spans"], 3)
        overhead = detail["trace.overhead_pct"]
        self.assertEqual((overhead["num"], overhead["den"]), (3000.0, 1000.0))


if __name__ == "__main__":
    unittest.main()
