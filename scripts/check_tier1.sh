#!/usr/bin/env bash
# Tier-1 verification in one command:
#   1. configure + build + full ctest suite (the CI gate from ROADMAP.md),
#      then a --quick smoke of the scan/parallel/micro benches (proves
#      the bench binaries still run end to end; no perf assertions)
#   2. a governance smoke: N concurrent pathological corner queries with
#      a 50 ms deadline through segdiff_cli — every one must reach a
#      terminal status (deadline-exceeded or success), proving a slow
#      query cannot wedge the store
#   3. a WAL recovery smoke: kill -9 a CLI ingest mid-append, then prove
#      the store reopens with everything it had acknowledged before the
#      crash and passes a full checksum + log scrub; plus a fixed-seed
#      chaos smoke (25 fault cycles, SEGDIFF_FAULT_SEED=20080325), an
#      ENOSPC smoke (full disk => read-only degraded mode, searches
#      still served), and a fixed-seed transect chaos smoke (crash
#      mid-rebalance, bitrot isolation + repair, eviction-error
#      surfacing)
#   4. an AddressSanitizer build running the streaming-ingest, storage,
#      SegDiff and Exh store suites (the subsystems that serialize/restore
#      raw state blobs through the shared FeatureStore lifecycle), the
#      transect shard suite (the shard-manifest decoder's rejections),
#      the scan-kernel and columnar suites (the selection-bitmap compare
#      over its fixed-size batch buffers, and the column decoders), and
#      the zone-map and query suites (ZoneMap::Deserialize decodes
#      catalog bytes, and zone pruning is what kAuto's scan relies on),
#      the integration and SQL suites (the compact → columnar → index-free
#      workflow end to end, and the SQL engine's access-path choice)
#      plus the `faults` and `governance` ctest groups (crash-recovery,
#      fault injection, and cancellation — the error paths that exercise
#      partially-initialized and partially-released state)
#   5. a ThreadSanitizer build running the `concurrency` ctest group
#      (snapshot reads racing WAL-backed ingest, admission control,
#      cooperative cancellation, sharded scatter-gather fan-out racing
#      LRU store eviction)
#
# Usage: scripts/check_tier1.sh [--no-asan]   (skips both sanitizer runs)
# Exits non-zero on the first failing step.
#
# SEGDIFF_FAULT_SEED varies the crash-matrix and chaos fault schedules
# (see tests/fault_injection_test.cc, tests/chaos_test.cc);
# SEGDIFF_CHAOS_CYCLES scales the chaos sweep. Unset keeps the
# deterministic defaults.

set -euo pipefail
cd "$(dirname "$0")/.."

RUN_ASAN=1
if [[ "${1:-}" == "--no-asan" ]]; then
  RUN_ASAN=0
fi

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1: configure + build =="
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"

echo "== tier-1: ctest =="
(cd build && ctest --output-on-failure -j "${JOBS}")

echo "== tier-1: bench smoke (--quick) =="
(cd build && ./bench/bench_scan --quick && \
 ./bench/bench_parallel --quick && \
 ./bench/bench_governance --quick && \
 ./bench/bench_checksum --quick && \
 ./bench/bench_shard --quick && \
 ./bench/bench_micro --quick \
   --benchmark_filter='BM_ScanKernelBatch|BM_PredicateMatch|BM_DecodeFOR|BM_DecodeXor')

echo "== tier-1: chaos smoke (fixed-seed fault cycles + ENOSPC) =="
# A reduced fixed-seed slice of the chaos sweep (the full 200-cycle run
# rides in ctest above): every injected fault must end in resume, loud
# refusal, or repair — never silent data loss. Then the ENOSPC smoke:
# a full disk must flip the store into read-only degraded mode that
# still serves searches.
(cd build && \
 SEGDIFF_FAULT_SEED=20080325 SEGDIFF_CHAOS_CYCLES=25 ./tests/chaos_test \
   --gtest_filter='ChaosTest.SeededFaultCycleSweep' && \
 ./tests/chaos_test \
   --gtest_filter='ChaosTest.DiskFullFlipsDegradedReadOnlyMode')

echo "== tier-1: transect chaos smoke (crash-mid-rebalance + bitrot) =="
# A reduced fixed-seed slice of the transect-level sweeps (the full run
# rides in ctest above): every crashed rebalance must recover to exactly
# one authoritative layout with all acknowledged data searchable, and
# bit-flipped sensor stores must be isolated, reported, and repaired.
(cd build && \
 SEGDIFF_FAULT_SEED=20080325 SEGDIFF_CHAOS_CYCLES=10 \
   ./tests/transect_chaos_test)

echo "== tier-1: compression smoke (compact to columnar, ratio + scrub) =="
CMP_WORK="build/compression_smoke"
rm -rf "${CMP_WORK}"; mkdir -p "${CMP_WORK}"
./build/tools/segdiff_cli generate --out "${CMP_WORK}/data.csv" --days 20
./build/tools/segdiff_cli build --csv "${CMP_WORK}/data.csv" \
  --db "${CMP_WORK}/row.db" --eps 0.05
./build/tools/segdiff_cli compact --db "${CMP_WORK}/row.db" \
  --out "${CMP_WORK}/col.db"
CMP_STATS="$(./build/tools/segdiff_cli stats --db "${CMP_WORK}/col.db")"
echo "${CMP_STATS}"
# Every feature table must land in columnar segments at >= 2x
# compression (sensor-shaped features sit on a decimal grid, so FOR /
# delta packing must beat raw doubles by at least this much).
BEST_RATIO="$(echo "${CMP_STATS}" | sed -n 's/.*(\([0-9.]*\)x)$/\1/p' \
  | sort -g | tail -1)"
if [[ -z "${BEST_RATIO}" ]]; then
  echo "compression smoke: compacted store reports no columnar segments"
  exit 1
fi
if ! awk -v r="${BEST_RATIO}" 'BEGIN { exit (r + 0 >= 2.0) ? 0 : 1 }'; then
  echo "compression smoke: best table ratio ${BEST_RATIO}x < 2.0x floor"
  exit 1
fi
# The compacted store must also pass a full checksum scrub: compressed
# payloads ride the same per-page CRC32C trailers as row pages.
./build/tools/segdiff_cli verify --db "${CMP_WORK}/col.db" --scrub
# Columnar tables carry no B+-tree: the compacted store reports zero
# index bytes, refuses an explicit index scan with a clean error, and
# serves the pruned sequential scan (--mode auto).
if ! echo "${CMP_STATS}" | grep -Eq '^  index bytes: +0$'; then
  echo "compression smoke: compacted store still reports index bytes"
  exit 1
fi
CMP_RC=0
./build/tools/segdiff_cli search --db "${CMP_WORK}/col.db" --t-hours 1 \
  --v -3 --mode index > "${CMP_WORK}/index.out" 2>&1 || CMP_RC=$?
if [[ "${CMP_RC}" == 0 ]] || ! grep -q \
    "index scan requested but indexes were not built" "${CMP_WORK}/index.out"
then
  echo "compression smoke: --mode index on the compacted store exited" \
       "${CMP_RC} without the clean refusal:"
  cat "${CMP_WORK}/index.out"
  exit 1
fi
./build/tools/segdiff_cli search --db "${CMP_WORK}/col.db" --t-hours 1 \
  --v -3 --mode auto > /dev/null
echo "compression smoke: columnar ratio ${BEST_RATIO}x, scrub clean," \
     "index-free (--mode index refused, --mode auto served)"
rm -rf "${CMP_WORK}"

echo "== tier-1: governance smoke (concurrent 50ms-deadline searches) =="
GOV_WORK="build/governance_smoke"
rm -rf "${GOV_WORK}"; mkdir -p "${GOV_WORK}"
./build/tools/segdiff_cli generate --out "${GOV_WORK}/data.csv" --days 20
./build/tools/segdiff_cli build --csv "${GOV_WORK}/data.csv" \
  --db "${GOV_WORK}/store.db" --eps 0.05
# 8 concurrent pathological corner queries (max T, near-zero |V| => the
# widest parallelogram overlap) under a 50 ms deadline. Each must reach
# a terminal state: exit 0 (finished in time) or exit 1 with
# DEADLINE_EXCEEDED. Anything else — a hang (caught by timeout) or a
# crash — fails the gate.
GOV_PIDS=()
for i in $(seq 1 8); do
  timeout 30 ./build/tools/segdiff_cli search --db "${GOV_WORK}/store.db" \
    --t-hours 8 --v -0.01 --timeout-ms 50 --stats \
    > "${GOV_WORK}/q${i}.out" 2>&1 &
  GOV_PIDS+=("$!")
done
GOV_FAIL=0
for pid in "${GOV_PIDS[@]}"; do
  rc=0; wait "${pid}" || rc=$?
  if [[ "${rc}" != 0 && "${rc}" != 1 ]]; then
    echo "governance smoke: query exited ${rc} (hang or crash)"
    GOV_FAIL=1
  fi
done
if [[ "${GOV_FAIL}" != 0 ]]; then
  cat "${GOV_WORK}"/q*.out
  exit 1
fi
echo "governance smoke: all 8 concurrent deadline queries terminal"
rm -rf "${GOV_WORK}"

echo "== tier-1: WAL recovery smoke (kill -9 mid-ingest, reopen, scrub) =="
WAL_WORK="build/wal_smoke"
rm -rf "${WAL_WORK}"; mkdir -p "${WAL_WORK}"
./build/tools/segdiff_cli generate --out "${WAL_WORK}/base.csv" --days 10
./build/tools/segdiff_cli generate --out "${WAL_WORK}/tail.csv" --days 20 \
  --start-day 11
./build/tools/segdiff_cli build --csv "${WAL_WORK}/base.csv" \
  --db "${WAL_WORK}/store.db" --eps 0.05 --wal-window-ms 1
BASE_SEGMENTS="$(./build/tools/segdiff_cli stats --db "${WAL_WORK}/store.db" \
  | awk '/segments:/ {print $2}')"
# Pull the power mid-append. Wherever the kill lands — before the open,
# mid-group-commit, or after completion — the store must reopen, keep
# every observation it held at build time, and scrub clean.
./build/tools/segdiff_cli append --csv "${WAL_WORK}/tail.csv" \
  --db "${WAL_WORK}/store.db" --wal-window-ms 1 \
  > "${WAL_WORK}/append.out" 2>&1 &
WAL_PID="$!"
sleep 2
kill -9 "${WAL_PID}" 2>/dev/null || true
wait "${WAL_PID}" 2>/dev/null || true
# stats reopens the store, which replays the log tail (recovery).
WAL_STATS="$(./build/tools/segdiff_cli stats --db "${WAL_WORK}/store.db")"
echo "${WAL_STATS}"
AFTER_SEGMENTS="$(echo "${WAL_STATS}" | awk '/segments:/ {print $2}')"
if [[ -z "${AFTER_SEGMENTS}" || "${AFTER_SEGMENTS}" -lt "${BASE_SEGMENTS}" ]]
then
  echo "wal smoke: segments dropped from ${BASE_SEGMENTS} to" \
       "${AFTER_SEGMENTS:-none} across the crash"
  exit 1
fi
./build/tools/segdiff_cli verify --db "${WAL_WORK}/store.db" --scrub
echo "wal smoke: recovered (${BASE_SEGMENTS} -> ${AFTER_SEGMENTS} segments)," \
     "scrub clean"
rm -rf "${WAL_WORK}"

if [[ "${RUN_ASAN}" == "1" ]]; then
  echo "== asan: configure + build (streaming + storage + query + fault suites) =="
  cmake -B build-asan -S . -DSEGDIFF_SANITIZE=address >/dev/null
  cmake --build build-asan -j "${JOBS}" --target \
    streaming_ingest_test storage_test segdiff_index_test exh_naive_test \
    transect_shard_test scan_kernel_test columnar_test zone_map_test \
    query_test fault_injection_test chaos_test transect_chaos_test \
    governance_test integration_test sql_test
  echo "== asan: run =="
  (cd build-asan && ctest --output-on-failure -j "${JOBS}" \
    -R 'StreamingIngestTest|ExhStreamingTest|StorageTest|SegDiffIndexTest|ExhTest|TransectShardTest|ScanKernelTest|ScanDifferentialTest|ColumnarDifferentialTest|ColumnEncodingTest|ZoneMapTest|ZoneCanMatchTest|ZoneMapStoreTest|^QueryTest|PredicateTest|IntegrationTest|EngineTest|LexerTest|ParserTest|ParserFuzzTest')
  echo "== asan: fault + governance groups (ctest -L) =="
  (cd build-asan && ctest --output-on-failure -j "${JOBS}" \
    -L 'faults|governance')

  echo "== tsan: configure + build (concurrency + faults + governance) =="
  cmake -B build-tsan -S . -DSEGDIFF_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target \
    thread_pool_test buffer_pool_concurrency_test parallel_query_test \
    transect_shard_test fault_injection_test chaos_test \
    transect_chaos_test governance_test
  echo "== tsan: run =="
  # -L takes a regex: one pass over the threading suites plus the
  # fault-injection and governance groups (snapshot reads racing
  # WAL-backed ingest, admission control, cooperative cancellation).
  (cd build-tsan && ctest --output-on-failure -j "${JOBS}" \
    -L 'concurrency|faults|governance')
fi

echo "== check_tier1: all green =="
