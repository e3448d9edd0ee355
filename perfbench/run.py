#!/usr/bin/env python3
"""End-to-end benchmark of segdiff: builds, runs and reports one workload.

    python3 perfbench/run.py --workload store_query --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a source tree. The first run configures and builds
perfbench/ (and with it src/) as a Release build in .bench_build/. The
workload runs as its own process, from the seed alone; its correctness
gates fail the run with a non-zero exit. Untraced (--trace 0) the last
line printed holds every end-to-end metric; traced (--trace 1) it holds
every per-layer metric, derived from the spans the run recorded. The
line before it is the run record: seed, workload parameters, sample
counts, ratio bases, and the machine and build fingerprint. See
perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import stats  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# The tail percentile of each timing, fixed per workload: the highest
# that keeps >= 10 samples beyond it at the workload's sample count and
# reads steadily from run to run (see README.md).
TAIL_PCT = {
    "store_query": {"query": 99, "append": 99},
    "transect_sweep": {"query": 95, "append": 99},
}


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds the benchmark binary; returns its path."""
    for required in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("%s is missing: run from the root of a segdiff source tree"
                 % required, 2)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        steps = [["cmake", "--build", BUILD_DIR, "-j", jobs]]
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                             "-B", BUILD_DIR,
                             "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path)
            if done.returncode != 0:
                fail("build failed; see " + log_path)
    return os.path.join(BUILD_DIR, "perfbench")


def cpu_fingerprint():
    model, flags = "unknown", []
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and model == "unknown":
                    model = value.strip()
                elif key.strip() == "flags" and not flags:
                    present = set(value.split())
                    flags = [f for f in ("avx2", "sse4_2") if f in present]
    except OSError:
        pass
    return model, flags


def source_digest():
    """SHA-256 over src/ and perfbench/ sources: the build's identity when
    the tree is not a git checkout."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def fingerprint(record):
    model, flags = cpu_fingerprint()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu_flags": flags,
        "kernel": platform.release(),
        "compiler": record["compiler"],
        "build_type": record["build_type"],
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def end_to_end(record):
    """Every end-to-end metric: name -> (value, unit), plus the sample
    count and base behind each."""
    s, c = record["samples"], record["counters"]
    pct = TAIL_PCT[record["workload"]]
    query = stats.timing(s["query_ms"], pct["query"])
    append = stats.timing(s["append_us"], pct["append"])
    qps = stats.ratio(len(s["query_ms"]), sum(s["query_ms"]) * 1e-3)
    ingest = stats.ratio(c["ingest.observations"], c["ingest.seconds"])
    size = stats.ratio(c["store.file_bytes"], c["observations"])
    metrics = {
        "setup_s": (stats.median(s["setup_s"]), "s"),
        "queries_per_s": (qps["value"], "1/s"),
        "query_p50_ms": (query["p50"], "ms"),
        "query_tail_ms": (query["tail"], "ms"),
        "ingest_obs_per_s": (ingest["value"], "1/s"),
        "append_p50_us": (append["p50"], "us"),
        "append_tail_us": (append["tail"], "us"),
        "bytes_per_obs": (size["value"], "B"),
        "peak_rss_mib": (c["peak_rss_mib"], "MiB"),
    }
    detail = {"setup_s": {"samples": len(s["setup_s"])},
              "query_ms": query, "append_us": append,
              "queries_per_s": qps, "ingest_obs_per_s": ingest,
              "bytes_per_obs": size,
              "error_rate": stats.ratio(record["failed"],
                                        record["attempted"])}
    return metrics, detail


def per_layer(record, spans):
    """Every per-layer metric from the counters and the span summary."""
    c = record["counters"]
    sp = stats.span_summary(spans)

    def total_ns(name):
        return sp.get(name, {}).get("total_ns", 0)

    def mean_ms(name):
        entry = sp.get(name, {"total_ns": 0, "count": 0})
        return stats.ratio(entry["total_ns"] * 1e-6, entry["count"])

    def per_op_median_ms(name):
        by_op = sp.get(name, {}).get("by_op", {})
        return {"value": stats.median(list(by_op.values())) * 1e-6
                if by_op else 0.0, "ops": len(by_op)}

    searches = c.get("search.count", 0)
    seg = stats.ratio(total_ns("segment.replay"), c["replay.observations"])
    feat = stats.ratio(total_ns("feature.replay"), c["replay.segments"])
    seg_per_obs = stats.ratio(c["replay.segments"], c["replay.observations"])
    ingest_ns = stats.ratio(total_ns("storage.append") +
                            total_ns("segdiff.flush"),
                            c["ingest.observations"])
    append_self = dict(ingest_ns, value=ingest_ns["value"] - seg["value"] -
                       feat["value"] * seg_per_obs["value"])
    efficiency = stats.ratio(
        total_ns("segdiff.store_acquire") + total_ns("segdiff.store_search"),
        total_ns("drill.fanout") * c.get("drill.workers", 0))
    search_ns = sp.get("query.search", {"total_ns": 0, "count": 0})
    pool = c.get("pool.hits", 0) + c.get("pool.misses", 0)
    rows = c.get("scan.rows_scanned", 0)
    pages = c.get("scan.pages_scanned", 0) + c.get("scan.pages_pruned", 0)
    lru = c.get("lru.hits", 0) + c.get("lru.opens", 0)
    windows = list(zip(record["samples"]["timed.start_ns"],
                       record["samples"]["timed.end_ns"]))
    timed_spans = sum(1 for span in spans
                      if any(lo <= span["start_ns"] < hi
                             for lo, hi in windows))
    overhead = stats.ratio(100.0 * timed_spans * c["trace.span_cost_ns"],
                           c["timed.seconds"] * 1e9)
    entries = {
        "ts.smooth_ms": (per_op_median_ms("ts.smooth"), "ms"),
        "segment.ns_per_obs": (seg, "ns"),
        "feature.ns_per_segment": (feat, "ns"),
        "feature.rows_per_segment": (
            stats.ratio(c["replay.feature_rows"], c["replay.segments"]),
            "count"),
        "storage.append_self_ns_per_obs": (append_self, "ns"),
        "storage.wal_fsyncs_per_obs": (
            stats.ratio(c["wal.syncs"], c["ingest.observations"]), "count"),
        "storage.wal_bytes_per_obs": (
            stats.ratio(c["wal.bytes"], c["ingest.observations"]), "B"),
        "storage.syncs_per_obs": (
            stats.ratio(c["vfs.syncs"], c["ingest.observations"]), "count"),
        "storage.pool_hit_ratio": (
            stats.ratio(c.get("pool.hits", 0), pool), "ratio"),
        "storage.pool_misses_per_query": (
            stats.ratio(c.get("pool.misses", 0), c["pool.searches"]),
            "count"),
        "index.entries_per_query": (
            stats.ratio(c.get("scan.index_entries", 0), searches), "count"),
        "index.bytes_per_obs": (
            stats.ratio(c["store.index_bytes"], c["observations"]), "B"),
        "query.range_queries_per_search": (
            stats.ratio(c.get("search.range_queries", 0), searches),
            "count"),
        "query.rows_scanned_per_query": (stats.ratio(rows, searches),
                                         "count"),
        "query.pages_pruned_ratio": (
            stats.ratio(c.get("scan.pages_pruned", 0), pages), "ratio"),
        "query.heap_fetches_per_query": (
            stats.ratio(c.get("scan.heap_fetches", 0), searches), "count"),
        "query.match_ratio": (
            stats.ratio(c.get("scan.rows_matched", 0), rows), "ratio"),
        "query.search_ms": (
            stats.ratio(search_ns["total_ns"] * 1e-6 -
                        c.get("search.admission_wait_ms", 0),
                        search_ns["count"]), "ms"),
        "query.parallel_speedup": (
            stats.ratio(c.get("speedup.serial_seconds", 0),
                        c.get("speedup.parallel_seconds", 0)), "ratio"),
        "common.admission_wait_ms": (
            stats.ratio(c.get("search.admission_wait_ms", 0), searches),
            "ms"),
        "segdiff.episodes_ms": (mean_ms("segdiff.episodes"), "ms"),
        "segdiff.store_acquire_ms": (mean_ms("segdiff.store_acquire"), "ms"),
        "segdiff.store_search_ms": (mean_ms("segdiff.store_search"), "ms"),
        "segdiff.store_hit_ratio": (
            stats.ratio(c.get("lru.hits", 0), lru), "ratio"),
        "segdiff.store_opens_per_query": (
            stats.ratio(c.get("lru.opens", 0), searches), "count"),
        "segdiff.evictions_per_tick": (
            stats.ratio(c.get("tick.evictions", 0), c.get("ticks", 0)),
            "count"),
        "segdiff.flush_all_ms": (mean_ms("segdiff.flush"), "ms"),
        "segdiff.fanout_efficiency": (efficiency, "ratio"),
        "trace.overhead_pct": (overhead, "%"),
    }
    metrics = {name: (entry["value"], unit)
               for name, (entry, unit) in entries.items()}
    detail = {name: entry for name, (entry, _) in entries.items()}
    detail["trace.spans"] = len(spans)
    detail["trace.timed_spans"] = timed_spans
    detail["trace.span_cost_ns"] = c["trace.span_cost_ns"]
    return metrics, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL_PCT))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    binary = build()
    # Flush what the build and earlier runs left dirty in the page cache,
    # so the kernel's write-back of it does not compete with the
    # workload's fsyncs.
    os.sync()
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    results = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    work_dir = os.path.join(BUILD_ROOT, "work", "%s-%d" % (tag, os.getpid()))
    record_path = os.path.join(results, tag + ".raw.json")
    spans_path = os.path.join(results, tag + ".spans.jsonl")
    for stale in (record_path, spans_path):
        if os.path.exists(stale):
            os.remove(stale)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--work-dir", work_dir,
               "--record", record_path, "--spans", spans_path]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    try:
        with open(record_path) as f:
            record = json.load(f)
    except (OSError, ValueError) as e:
        fail("no run record (exit code %d): %s" % (done.returncode, e))
    if not record["correct"] or done.returncode != 0:
        fail("%s failed (exit code %d): %s" % (
            args.workload, done.returncode, record["error"]))

    if args.trace:
        with open(spans_path) as f:
            spans = [json.loads(line) for line in f]
        metrics, detail = per_layer(record, spans)
    else:
        metrics, detail = end_to_end(record)
    run_record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "params": record["params"], "gates": record["gates"],
        "counters": record["counters"],
        "error": record["error"], "fingerprint": fingerprint(record),
        "metrics": detail,
    }
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(run_record, f, indent=1)
    print(json.dumps({"run_record": run_record}))
    print(stats.result_line(True, record["attempted"], record["failed"],
                            metrics))


if __name__ == "__main__":
    main()
