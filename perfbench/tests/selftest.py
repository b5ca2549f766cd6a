#!/usr/bin/env python3
"""Fast self-test of the benchmark harness.

    python3 perfbench/tests/selftest.py

Checks the guards and the metric derivations of perfbench/run.py on synthetic
records, then runs the `smoke` workload of rcons_bench end to end (building
the harness first if needed) and checks its pinned verdicts, counts and
levels, untraced and traced. Finally checks that run.py refuses to run, and
prints no result, in a directory without the repository's sources.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402  (the harness under test)

GOOD_BUILD = {"build_type": "Release", "cxx_flags": "-O3 -DNDEBUG", "ndebug": True,
              "dcheck": False, "sanitizer": False, "optimized": True}


def check_task(**fields):
    task = {"kind": "check", "spec": "type=Sn(2) n=2", "strategy": "sequential-dfs",
            "threads_used": 1, "clean": True, "check_s": 1.0, "visited": 100,
            "transitions": 400, "orbit_skipped": 0, "store_nodes": 101,
            "store_value_bytes": 2 * 2**20, "store_encodes": 401, "store_canonical_hits": 0,
            "dedup_cache_probes": 0, "dedup_cache_hits": 0, "probe_total": 30,
            "probe_ops": 20, "max_probe": 5, "rehashes": 3, "cas_retries": 0,
            "migration_stripes": 8}
    task.update(fields)
    return task


def record(tasks, **fields):
    rec = {"workload": "smoke", "nproc": 4, "hardware_concurrency": 4,
           "build": dict(GOOD_BUILD), "setup_s": 0.001, "wall_s": 3.0,
           "peak_rss_mb": 10.0, "attempted": len(tasks), "failed": 0,
           "trace_dropped": 0, "failures": [], "tasks": tasks}
    rec.update(fields)
    return rec


def span(name, tid, ts, dur):
    return {"name": name, "ph": "X", "pid": 1, "tid": tid, "ts": ts, "dur": dur}


class GuardTest(unittest.TestCase):
    def test_release_build_passes(self):
        self.assertEqual(run.build_problems(GOOD_BUILD), [])

    def test_unfit_builds_are_refused(self):
        for flag, value in (("ndebug", False), ("dcheck", True), ("sanitizer", True),
                            ("optimized", False)):
            with self.subTest(flag=flag):
                self.assertEqual(len(run.build_problems({**GOOD_BUILD, flag: value})), 1)

    def test_oversubscribed_check_is_flagged(self):
        rec = record([check_task(threads_used=4), check_task(threads_used=8)])
        self.assertEqual(len(run.thread_problems(rec)), 1)
        self.assertEqual(run.thread_problems(record([check_task(threads_used=4)])), [])


class MetricTest(unittest.TestCase):
    def test_end_to_end(self):
        rec = record([check_task(visited=300, check_s=1.0),
                      check_task(visited=100, check_s=1.0)])
        metrics = run.end_to_end(rec)
        self.assertEqual(set(metrics), set(run.END_TO_END_UNITS))
        self.assertEqual(metrics["states_per_s"], 200.0)
        self.assertEqual(metrics["wall_s"], 3.0)

    def test_per_layer_attributes_spans_to_checks(self):
        escalated = check_task(strategy="parallel-bfs", threads_used=2, check_s=2.0,
                               visited=1000, metrics={"check.probe_visited": 200,
                                                      "engine.expected_states": 200,
                                                      "engine.steals": 3})
        small = check_task(visited=50, check_s=0.5, minimize_s=0.1, minimize_replays=7,
                           original_events=10, final_events=4, replay_s=0.01,
                           replay_steps=4)
        classified = {"kind": "classify", "type": "Tn(4)", "discerning_s": 0.2,
                      "recording_s": 0.1, "discerning": "4", "recording": "2"}
        trace = {"traceEvents": [
            span("probe", 0, 0, 500_000), span("explore", 0, 500_000, 1_500_000),
            span("check", 0, 0, 2_000_000),
            span("probe", 0, 3_000_000, 250_000), span("check", 0, 3_000_000, 500_000),
            span("worker", 1, 500_000, 1_000_000), span("expand_batch", 1, 500_000, 900_000),
            span("worker", 2, 500_000, 1_000_000), span("expand_batch", 2, 500_000, 700_000),
            span("steal", 2, 1_400_000, 100_000),
            {"name": "auto_select", "ph": "i", "pid": 1, "tid": 0, "ts": 500_000},
        ]}
        layers = run.per_layer(record([escalated, small, classified]), trace)
        self.assertEqual(set(layers) | {"obs.trace_overhead_frac"}, set(run.PER_LAYER_UNITS))
        self.assertAlmostEqual(layers["check.probe_s"], 0.75)
        self.assertAlmostEqual(layers["engine.explore_s"], 1.5)
        self.assertEqual(layers["check.probe_visited"], 250)
        self.assertAlmostEqual(layers["check.probe_waste_frac"], 0.25)
        self.assertAlmostEqual(layers["sim.dfs_states_per_s"], 250 / 0.75)
        self.assertAlmostEqual(layers["engine.worker_busy_frac"], 0.8)
        self.assertAlmostEqual(layers["engine.worker_busy_spread"], 0.2)
        self.assertAlmostEqual(layers["engine.steal_s"], 0.1)
        self.assertEqual(layers["engine.steals"], 3)
        self.assertAlmostEqual(layers["engine.presize_ratio"], 0.2)
        self.assertAlmostEqual(layers["check.minimize_kept_frac"], 0.4)
        self.assertEqual(layers["replay.steps"], 4)
        self.assertEqual(layers["hierarchy.types_classified"], 1)
        self.assertAlmostEqual(layers["store.value_mb"], 2.0)
        self.assertAlmostEqual(layers["mem.unattributed_mb"], 8.0)

    def test_per_layer_rejects_a_trace_missing_checks(self):
        with self.assertRaises(run.BenchError):
            run.per_layer(record([check_task()]), {"traceEvents": []})


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def test_smoke_workload_matches_its_pins(self):
        rec = run.execute(self.binary, "smoke", seed=1)
        self.assertEqual(rec["failures"], [])
        self.assertEqual((rec["attempted"], rec["failed"]), (5, 0))
        kinds = [task["kind"] for task in rec["tasks"]]
        self.assertEqual(kinds, ["check", "check", "classify"])
        self.assertGreater(run.end_to_end(rec)["states_per_s"], 0)

    def test_traced_smoke_reports_every_layer(self):
        trace_path = run.BUILD_DIR / "trace-selftest.json"
        rec = run.execute(self.binary, "smoke", seed=1, trace_path=trace_path)
        self.assertEqual(rec["failed"], 0)
        with open(trace_path, encoding="utf-8") as handle:
            layers = run.per_layer(rec, json.load(handle))
        trace_path.unlink()
        self.assertGreater(layers["check.probe_s"], 0)
        self.assertGreater(layers["replay.steps"], 0)
        self.assertGreater(layers["check.minimize_replays"], 0)
        self.assertEqual(layers["hierarchy.types_classified"], 1)

    def test_refuses_to_run_without_sources(self):
        bare = run.BUILD_DIR / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                   "paper-table", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"], cwd=bare, capture_output=True,
                                  text=True, check=False, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
