#!/usr/bin/env python3
"""The repository benchmark: spec-to-verdict time, throughput, peak RSS and
set-up time of the rcons model checker on the workloads prove-sym and
paper-table (BENCHMARK.json), plus a traced mode that reports per-layer
metrics. prove-plain runs the same way by hand but is not in BENCHMARK.json.

    python3 perfbench/run.py --workload prove-sym --seed 1 --seconds 50 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file). The first call configures and builds perfbench/ (an optimized
build of src/ plus the rcons_bench harness) under .bench_build/. Each workload
execution is a fresh rcons_bench process; executions repeat until --seconds
have passed (at least MIN_EXECUTIONS), and every metric is the median over
executions.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced executions (an obs::Session installed in every CheckRequest) and prints
the per-layer metrics, including the tracing overhead. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Exit status: 0 when a result was printed; 1 when the build fails, a guard
refuses the build or the thread count, or an execution fails (nothing is
printed to stdout then); 2 on bad usage.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("prove-plain", "prove-sym", "paper-table")
MIN_EXECUTIONS = 3
BUILD_JOBS = 4
EXECUTION_TIMEOUT_S = 120

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "rcons_bench"

END_TO_END_UNITS = {
    "wall_s": "s",
    "states_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "check.call_s": "s",
    "check.probe_s": "s",
    "check.probe_visited": "count",
    "check.probe_waste_frac": "frac",
    "check.minimize_s": "s",
    "check.minimize_replays": "count",
    "check.minimize_kept_frac": "frac",
    "engine.explore_s": "s",
    "engine.worker_busy_frac": "frac",
    "engine.worker_busy_spread": "s",
    "engine.steal_s": "s",
    "engine.steals": "count",
    "engine.stolen_items": "count",
    "engine.useful_frac": "frac",
    "engine.dedup_cache_hit_rate": "frac",
    "engine.avg_probe_length": "slots",
    "engine.max_probe_length": "slots",
    "engine.cas_retries": "count",
    "engine.migration_stripes": "count",
    "engine.table_rehashes": "count",
    "engine.presize_ratio": "ratio",
    "engine.orbit_skipped": "count",
    "store.canonical_hit_rate": "frac",
    "store.encodes_per_state": "ratio",
    "store.bytes_per_node": "B",
    "store.value_mb": "MB",
    "mem.unattributed_mb": "MB",
    "sim.dfs_states_per_s": "1/s",
    "sim.replay_s": "s",
    "replay.steps": "count",
    "hierarchy.discerning_s": "s",
    "hierarchy.recording_s": "s",
    "hierarchy.types_classified": "count",
    "obs.trace_overhead_frac": "frac",
}


class BenchError(Exception):
    """A failure that must stop the run without printing a result."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    if not (ROOT / "src").is_dir():
        raise BenchError(f"no rcons sources at {ROOT / 'src'}; run from a full checkout")
    jobs = str(max(1, min(BUILD_JOBS, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            log(done.stdout)
            raise BenchError(f"build step failed: {' '.join(step)}")
    return BINARY


def build_problems(build_info):
    """Reasons the build must not report numbers (empty when it may)."""
    problems = []
    if not build_info.get("ndebug"):
        problems.append("NDEBUG is not defined (Debug build)")
    if build_info.get("dcheck"):
        problems.append("RCONS_DCHECK contracts are compiled in")
    if build_info.get("sanitizer"):
        problems.append("built with a sanitizer")
    if not build_info.get("optimized"):
        problems.append("built without optimization")
    return problems


def thread_problems(record):
    """Checks whose threads_used exceeds the CPUs this process may use."""
    nproc = record["nproc"]
    return [f"{task['spec']}: threads_used {task['threads_used']} > nproc {nproc}"
            for task in record["tasks"]
            if task["kind"] == "check" and task["threads_used"] > nproc]


def execute(binary, workload, seed, trace_path=None):
    """Runs one workload execution in a fresh process; returns its record."""
    command = [str(binary), "--workload", workload, "--seed", str(seed)]
    if trace_path is not None:
        command += ["--trace-out", str(trace_path)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False,
                              timeout=EXECUTION_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: execution exceeded {EXECUTION_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{workload}: rcons_bench exited with {done.returncode}")
    record = json.loads(done.stdout)
    problems = build_problems(record["build"]) + thread_problems(record)
    if problems:
        raise BenchError("refusing to report: " + "; ".join(problems))
    return record


def checks(record):
    return [task for task in record["tasks"] if task["kind"] == "check"]


def ratio(num, den):
    return num / den if den else 0.0


def counter(task, name):
    """A registry counter from a traced check's CheckReport.metrics snapshot."""
    return task.get("metrics", {}).get(name, 0)


def end_to_end(record):
    """The end-to-end metrics of one untraced execution."""
    tasks = checks(record)
    return {
        "wall_s": record["wall_s"],
        "states_per_s": ratio(sum(t["visited"] for t in tasks),
                              sum(t["check_s"] for t in tasks)),
        "peak_rss_mb": record["peak_rss_mb"],
        "setup_s": record["setup_s"],
    }


def span_totals(trace):
    """Sums the program's spans from a Chrome trace: per-check probe/explore
    seconds on the coordinating lane (in check order), and per-worker-lane
    worker / expand_batch / steal seconds."""
    events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    lane0 = sorted((e for e in events if e["tid"] == 0), key=lambda e: e["ts"])
    per_check = []
    for event in lane0:
        if event["name"] == "check":
            per_check.append({"start": event["ts"], "probe": 0.0, "explore": 0.0})
    for event in lane0:
        if event["name"] not in ("probe", "explore"):
            continue
        # The latest check that started no later than the span: adjacent
        # checks can share a microsecond boundary.
        for check in reversed(per_check):
            if check["start"] <= event["ts"]:
                check[event["name"]] += event["dur"] / 1e6
                break
    workers = {}
    for event in events:
        if event["tid"] == 0 or event["name"] not in ("worker", "expand_batch", "steal"):
            continue
        lane = workers.setdefault(event["tid"], {"worker": 0.0, "expand_batch": 0.0,
                                                 "steal": 0.0})
        lane[event["name"]] += event["dur"] / 1e6
    return per_check, workers


def per_layer(record, trace):
    """The per-layer metrics of one traced execution (tracing overhead aside)."""
    tasks = checks(record)
    spans, workers = span_totals(trace)
    if len(spans) != len(tasks):
        raise BenchError(f"trace has {len(spans)} check spans for {len(tasks)} checks")
    escalated = [(t, s) for t, s in zip(tasks, spans) if t["strategy"] == "parallel-bfs"]
    probe_visited = sum(counter(t, "check.probe_visited") if t["strategy"] == "parallel-bfs"
                        else t["visited"] for t in tasks)
    probe_s = sum(s["probe"] for s in spans)
    refuted = [t for t in tasks if "minimize_s" in t]
    classified = [t for t in record["tasks"] if t["kind"] == "classify"]
    busy = [lane["expand_batch"] for lane in workers.values()]
    value_mb = max((t["store_value_bytes"] for t in tasks), default=0) / 2**20

    def total(key):
        return sum(t[key] for t in tasks)

    return {
        "check.call_s": total("check_s"),
        "check.probe_s": probe_s,
        "check.probe_visited": probe_visited,
        "check.probe_waste_frac": ratio(sum(s["probe"] for _, s in escalated),
                                        sum(t["check_s"] for t, _ in escalated)),
        "check.minimize_s": sum(t["minimize_s"] for t in refuted),
        "check.minimize_replays": sum(t["minimize_replays"] for t in refuted),
        "check.minimize_kept_frac": ratio(sum(t["final_events"] for t in refuted),
                                          sum(t["original_events"] for t in refuted)),
        "engine.explore_s": sum(s["explore"] for s in spans),
        "engine.worker_busy_frac": ratio(sum(busy),
                                         sum(lane["worker"] for lane in workers.values())),
        "engine.worker_busy_spread": max(busy) - min(busy) if busy else 0.0,
        "engine.steal_s": sum(lane["steal"] for lane in workers.values()),
        "engine.steals": sum(counter(t, "engine.steals") for t in tasks),
        "engine.stolen_items": sum(counter(t, "engine.stolen_items") for t in tasks),
        "engine.useful_frac": ratio(total("visited"), total("transitions")),
        "engine.dedup_cache_hit_rate": ratio(total("dedup_cache_hits"),
                                             total("dedup_cache_probes")),
        "engine.avg_probe_length": ratio(total("probe_total"), total("probe_ops")),
        "engine.max_probe_length": max((t["max_probe"] for t in tasks), default=0),
        "engine.cas_retries": total("cas_retries"),
        "engine.migration_stripes": total("migration_stripes"),
        "engine.table_rehashes": total("rehashes"),
        "engine.presize_ratio": ratio(sum(counter(t, "engine.expected_states")
                                          for t, _ in escalated),
                                      sum(t["visited"] for t, _ in escalated)),
        "engine.orbit_skipped": total("orbit_skipped"),
        "store.canonical_hit_rate": ratio(total("store_canonical_hits"),
                                          total("store_encodes")),
        "store.encodes_per_state": ratio(total("store_encodes"), total("visited")),
        "store.bytes_per_node": ratio(total("store_value_bytes"), total("store_nodes")),
        "store.value_mb": value_mb,
        "mem.unattributed_mb": record["peak_rss_mb"] - value_mb,
        "sim.dfs_states_per_s": ratio(probe_visited, probe_s),
        "sim.replay_s": sum(t["replay_s"] for t in refuted),
        "replay.steps": sum(t.get("replay_steps", 0) for t in refuted),
        "hierarchy.discerning_s": sum(t["discerning_s"] for t in classified),
        "hierarchy.recording_s": sum(t["recording_s"] for t in classified),
        "hierarchy.types_classified": len(classified),
    }


def medians(rows):
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run(workload, seed, seconds, trace):
    binary = build()
    trace_path = BUILD_DIR / f"trace-{workload}.json"
    untraced, traced, records = [], [], []
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or len(untraced) < MIN_EXECUTIONS:
        record = execute(binary, workload, seed)
        records.append(record)
        untraced.append(end_to_end(record))
        if trace:
            record = execute(binary, workload, seed, trace_path)
            if record["trace_dropped"]:
                raise BenchError(f"tracer dropped {record['trace_dropped']} events")
            with open(trace_path, encoding="utf-8") as handle:
                layers = per_layer(record, json.load(handle))
            # Paired with the untraced execution just before it, so drift in
            # machine speed between the two cancels.
            layers["obs.trace_overhead_frac"] = record["wall_s"] / untraced[-1]["wall_s"] - 1
            records.append(record)
            traced.append(layers)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    for failure in sorted({f for r in records for f in r["failures"]}):
        log(f"MISMATCH {failure}")
    first = records[0]
    print(f"workload {workload}  seed {seed}  executions {len(untraced)} untraced"
          f" + {len(traced)} traced  threads {first['threads']}  nproc {first['nproc']}"
          f"  hardware_concurrency {first['hardware_concurrency']}"
          f"  build {first['build']['build_type']} ({first['build']['cxx_flags'].strip()})")
    e2e = medians(untraced)
    for name, unit in END_TO_END_UNITS.items():
        q1, q3 = quartiles([row[name] for row in untraced])
        print(f"  {name:<28} {e2e[name]:>16.6g} {unit:<6} median; q1 {q1:.6g} q3 {q3:.6g}")
    print(f"  {'checks_attempted':<28} {attempted:>16} count")
    print(f"  {'checks_failed':<28} {failed:>16} count")

    if trace:
        metrics = medians(traced)
        units = PER_LAYER_UNITS
        print(f"  per-layer (median of {len(traced)} traced executions):")
        for name, unit in units.items():
            print(f"  {name:<28} {metrics[name]:>16.6g} {unit}")
    else:
        metrics, units = e2e, END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        log(f"run.py: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
