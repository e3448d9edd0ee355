// transect_sweep: a sensor deployment larger than the store cache.
//
// kSensors sensors with kHistoryDays of history each, loaded by
// IngestAllSensors on kThreads threads, kSensorsPerShard per shard, at
// most kMaxOpenStores stores open (sensors = 8x the cache), each store
// with a small pool. Every tick appends the next hour to every sensor,
// flushes them all, then runs kCellsPerTick fan-out searches over the
// grid on kThreads workers. The store cache misses on every sensor, so
// every reopened store starts with a cold pool: store open, eviction
// checkpoint and fan-out dominate; per-store scan work is small.
//
// A run repeats one pass: set up the transect afresh, then kTicksPerPass
// ticks. Every pass does the same work on the same data, so how fast
// the program runs changes how many passes fit in --seconds, but not
// the size of the stores the ticks and searches see.
//
// The stores live in memory (MemVfs). Each store open and close writes,
// syncs and truncates its files, so on a disk the fan-outs would time
// the disk and the other users of it, not the program.

#include "harness.h"
#include "segdiff/episodes.h"
#include "segdiff/transect_index.h"

namespace perfbench {
namespace {

constexpr int kSensors = 64;
constexpr int kSensorsPerShard = 8;
constexpr size_t kMaxOpenStores = 8;
constexpr size_t kPoolPages = 256;
constexpr int kHistoryDays = 6;
constexpr size_t kTickObservations = 12;
constexpr size_t kCellsPerTick = 16;
/// 128 fan-outs per pass, enough to gate every grid cell in the first.
constexpr size_t kTicksPerPass = 8;
/// setup_s is the median of at least this many set-ups, and their 384
/// fan-outs keep >= 10 samples beyond the p95 tail.
constexpr int kMinPasses = 3;
constexpr size_t kThreads = 4;

using segdiff::SearchOptions;
using segdiff::TransectHit;
using segdiff::TransectIndex;
using segdiff::TransectSearchStats;

segdiff::Result<std::vector<TransectHit>> FanOut(
    TransectIndex* transect, const Cell& cell, size_t threads,
    TransectSearchStats* stats) {
  SearchOptions options;
  options.mode = segdiff::QueryMode::kAuto;
  options.num_threads = threads;
  return cell.drop ? transect->SearchDrops(cell.T, cell.V, options, stats)
                   : transect->SearchJumps(cell.T, cell.V, options, stats);
}

void AddLruDelta(Record* record, const char* prefix,
                 const segdiff::StoreLruStats& before,
                 const segdiff::StoreLruStats& after) {
  const std::string p = prefix;
  record->Add(p + ".hits", after.hits - before.hits);
  record->Add(p + ".opens", after.opens - before.opens);
  record->Add(p + ".evictions", after.evictions - before.evictions);
}

/// One timed set-up: generate + smooth every sensor's series (history
/// and the pass's ticks), open a fresh transect and load the histories.
std::unique_ptr<TransectIndex> SetUp(uint64_t seed, const std::string& dir,
                                     const segdiff::TransectOptions& options,
                                     std::vector<Series>* full, Record* record,
                                     Tracer* tracer, uint64_t op) {
  const size_t history = static_cast<size_t>(kHistoryDays) * 288;
  const int64_t start = NowNs();
  Tracer::Scope setup(tracer, "setup", op);
  std::vector<Series> histories;
  for (int k = 0; k < kSensors; ++k) {
    (*full)[k] = MakeSensorSeries(SensorSeed(seed, k), kHistoryDays + 1,
                                  tracer, op);
    auto prefix = Series::FromSamples(std::vector<segdiff::Sample>(
        (*full)[k].samples().begin(),
        (*full)[k].samples().begin() + static_cast<std::ptrdiff_t>(history)));
    Require(prefix.status(), "history");
    histories.push_back(std::move(*prefix));
  }
  auto opened = TransectIndex::Open(dir, kSensors, options);
  Require(opened.status(), "open transect");
  std::unique_ptr<TransectIndex> transect = std::move(*opened);
  {
    Tracer::Scope span(tracer, "storage.ingest_all", op);
    Require(transect->IngestAllSensors(histories, kThreads), "ingest");
  }
  record->Sample("setup_s", SecondsSince(start));
  return transect;
}

/// One tick: the next hour of every sensor, FlushAllPending, then
/// kCellsPerTick fan-outs starting at grid cell `*next_cell`. The first
/// fan-out of each cell in the run is gated against the serial fan-out.
void Tick(TransectIndex* transect, const std::vector<Series>& full,
          size_t first, const std::vector<Cell>& grid, size_t* next_cell,
          std::vector<bool>* cell_gated, Record* record, Tracer* tracer,
          uint64_t op) {
  std::vector<double>& append_us = record->Samples("append_us");
  std::vector<double>& query_ms = record->Samples("query_ms");
  const segdiff::StoreLruStats lru_tick = transect->store_stats();
  const int64_t ingest_start = NowNs();
  {
    Tracer::Scope span(tracer, "storage.append", op);
    for (int k = 0; k < kSensors; ++k) {
      for (size_t i = first; i < first + kTickObservations; ++i) {
        ++record->attempted;
        const int64_t t0 = NowNs();
        const Status status =
            transect->AppendSensorObservation(k, full[k][i].t, full[k][i].v);
        append_us.push_back((NowNs() - t0) * 1e-3);
        Require(status, "append");
      }
    }
  }
  {
    Tracer::Scope span(tracer, "segdiff.flush", op);
    ++record->attempted;
    Require(transect->FlushAllPending(), "flush all");
  }
  record->Add("ingest.seconds", SecondsSince(ingest_start));
  record->Add("ingest.observations", kSensors * kTickObservations);

  for (size_t q = 0; q < kCellsPerTick; ++q, ++*next_cell) {
    const size_t c = *next_cell % grid.size();
    ++record->attempted;
    TransectSearchStats stats;
    const segdiff::StoreLruStats lru_before = transect->store_stats();
    const int64_t t0 = NowNs();
    segdiff::Result<std::vector<TransectHit>> hits = [&] {
      Tracer::Scope span(tracer, "query.search", op);
      return FanOut(transect, grid[c], kThreads, &stats);
    }();
    const double ms = (NowNs() - t0) * 1e-6;
    AddLruDelta(record, "lru", lru_before, transect->store_stats());
    if (!hits.ok() || stats.partial || stats.truncated ||
        stats.sensors_failed != 0 || stats.sensors_skipped != 0) {
      ++record->failed;
      continue;
    }
    query_ms.push_back(ms);
    AddSearchStats(record, stats);
    if ((*cell_gated)[c]) continue;

    // Gate on the cell's first fan-out: the serial fan-out over the same
    // data returns the same hits, with no sensor failed or skipped.
    TransectSearchStats serial_stats;
    const int64_t s0 = NowNs();
    auto serial = [&] {
      Tracer::Scope span(tracer, "query.serial_fanout", op);
      return FanOut(transect, grid[c], 1, &serial_stats);
    }();
    record->Add("speedup.serial_seconds", SecondsSince(s0));
    record->Add("speedup.parallel_seconds", ms * 1e-3);
    Require(serial.status(), "serial fan-out");
    if (*serial != *hits || serial_stats.sensors_failed != 0 ||
        serial_stats.sensors_skipped != 0) {
      throw GateFailure("fan-out of " + CellName(grid[c]) +
                        " differs from the serial fan-out");
    }
    (*cell_gated)[c] = true;
    record->Gate("fanout_equals_serial_cells", 1);
  }
  AddLruDelta(record, "tick", lru_tick, transect->store_stats());
  record->Add("ticks", 1);
}

}  // namespace

void RunTransectSweep(const Args& args, Record* record, Tracer* tracer) {
  const std::string dir = args.work_dir + "/transect_sweep";
  record->Param("sensors", kSensors);
  record->Param("sensors_per_shard", kSensorsPerShard);
  record->Param("max_open_stores", kMaxOpenStores);
  record->Param("buffer_pool_pages", kPoolPages);
  record->Param("history_days", kHistoryDays);
  record->Param("tick_observations", kTickObservations);
  record->Param("cells_per_tick", kCellsPerTick);
  record->Param("ticks_per_pass", kTicksPerPass);
  record->Param("num_threads", kThreads);

  MemVfs memory;
  CountingVfs vfs(&memory);
  segdiff::TransectOptions options;
  options.store = StoreOptions(&vfs, kPoolPages);
  options.sensors_per_shard = kSensorsPerShard;
  options.max_open_stores = kMaxOpenStores;

  const size_t history = static_cast<size_t>(kHistoryDays) * 288;
  const std::vector<Cell> grid = Grid(true, true);
  std::vector<bool> cell_gated(grid.size(), false);
  std::vector<Series> full(kSensors);
  std::unique_ptr<TransectIndex> transect;
  uint64_t op = 0;
  double timed_seconds = 0.0;
  int pass = 0;
  for (; pass < kMinPasses || timed_seconds < args.seconds; ++pass) {
    transect.reset();
    memory.Clear();
    StartMeasuredPhase();
    transect = SetUp(args.seed, dir, options, &full, record, tracer, op++);
    EndMeasuredPhase(record);
    if (pass == 0) {
      CheckSeriesComposition(SensorSeed(args.seed, 0), kHistoryDays + 1,
                             full[0]);
    }

    const CountingVfs::Totals vfs_before = vfs.totals();
    StartMeasuredPhase();
    const int64_t pass_start = NowNs();
    size_t next_cell = 0;
    for (size_t tick = 0; tick < kTicksPerPass; ++tick) {
      Tick(transect.get(), full, history + tick * kTickObservations, grid,
           &next_cell, &cell_gated, record, tracer, op++);
    }
    timed_seconds += SecondsSince(pass_start);
    record->TimedWindow(pass_start);
    EndMeasuredPhase(record);
    AddVfsDelta(record, vfs, vfs_before);
  }
  record->Set("passes", pass);

  if (tracer->enabled()) {
    // Serial drill-down over every sensor for one cell, after a fan-out
    // of the same cell: store acquire, then that store's own search.
    const Cell cell = grid[0];
    {
      Tracer::Scope span(tracer, "drill.fanout", ++op);
      TransectSearchStats stats;
      Require(FanOut(transect.get(), cell, kThreads, &stats).status(),
              "drill fan-out");
    }
    record->Set("drill.workers", kThreads);
    for (int k = 0; k < kSensors; ++k) {
      segdiff::Result<segdiff::StoreLru::Handle> handle = [&] {
        Tracer::Scope span(tracer, "segdiff.store_acquire", op);
        return transect->sensor(k);
      }();
      Require(handle.status(), "acquire sensor");
      const segdiff::BufferPoolStats pool_before =
          (*handle)->db()->buffer_pool()->stats();
      segdiff::Result<std::vector<segdiff::PairId>> pairs = [&] {
        Tracer::Scope span(tracer, "segdiff.store_search", op);
        SearchOptions single;
        single.mode = segdiff::QueryMode::kAuto;
        return Search(handle->get(), cell, single, nullptr);
      }();
      Require(pairs.status(), "drill search");
      AddPoolDelta(record, pool_before,
                   (*handle)->db()->buffer_pool()->stats());
      record->Add("pool.searches", 1);
      Tracer::Scope span(tracer, "segdiff.episodes", op);
      segdiff::CoalesceEpisodes(*pairs);
    }
    for (int k = 0; k < kSensors; ++k) {
      ReplaySegmentAndExtract(full[k], record, tracer, op);
    }
  }

  // The last pass's stores, as every pass leaves them.
  Require(transect->Checkpoint(), "checkpoint");
  auto sizes = transect->GetSizes();
  Require(sizes.status(), "sizes");
  record->Set("store.file_bytes", static_cast<double>(sizes->file_bytes));
  record->Set("store.index_bytes", static_cast<double>(sizes->index_bytes));
  const size_t per_sensor = history + kTicksPerPass * kTickObservations;
  record->Set("observations", static_cast<double>(kSensors * per_sensor));
}

}  // namespace perfbench
