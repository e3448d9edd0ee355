// store_query: the analyst's read path on one warm, compacted store.
//
// One sensor, kDays of data, built by appending every observation and
// flushing (the calls IngestSeries makes, each append timed), compacted
// to columnar and reopened. A run has kRounds rounds, each on the data of
// another sensor seed. The store fits its default pool, so after the
// gate pass no query misses the pool: ingest, WAL, store cache and pool
// misses are absent from the timed loop. One closed-loop client cycles
// through the query grid (kAuto, 4 threads) and coalesces each result
// into episodes.

#include "harness.h"
#include "segdiff/episodes.h"
#include "segdiff/naive.h"
#include "segdiff/verify.h"

namespace perfbench {
namespace {

constexpr int kDays = 90;
constexpr size_t kPoolPages = 4096;
/// Each round sets up a fresh store from its own sensor seed (timed as
/// setup_s), checks and warms it, then queries it for --seconds /
/// kRounds. How long a search takes depends on the data, so a run that
/// measures several sensors varies less from seed to seed. Spreading the
/// set-ups over the run keeps a slow stretch of the disk from landing on
/// all of them.
constexpr int kRounds = 5;
constexpr size_t kThreads = 4;
/// Enough samples that the p99 tail has >= 10 beyond it.
constexpr size_t kMinQueries = 1200;

using segdiff::PairId;
using segdiff::SearchOptions;
using segdiff::SearchStats;
using segdiff::SegDiffIndex;

/// Theorem 1 on one cell: every true event is covered and every
/// returned pair holds an event within V +- 2 eps.
void CheckTheorem1(const Series& series, const Cell& cell,
                   const std::vector<PairId>& pairs) {
  segdiff::NaiveSearcher naive(series);
  const auto events = cell.drop ? naive.SearchDrops(cell.T, cell.V)
                                : naive.SearchJumps(cell.T, cell.V);
  const segdiff::CoverageReport coverage =
      segdiff::CheckCoverage(events, pairs);
  if (!coverage.AllCovered()) {
    throw GateFailure("Theorem 1 coverage fails on " + CellName(cell) + ": " +
                      std::to_string(coverage.events - coverage.covered) +
                      " of " + std::to_string(coverage.events) +
                      " events missed");
  }
  auto violations = segdiff::FindToleranceViolations(
      series, pairs, cell.T, cell.V, segdiff::PaperDefaults::kEps,
      cell.drop ? segdiff::SearchKind::kDrop : segdiff::SearchKind::kJump);
  Require(violations.status(), "tolerance check");
  if (!violations->empty()) {
    throw GateFailure("Theorem 1 tolerance fails on " + CellName(cell) +
                      ": " + std::to_string(violations->size()) + " pairs");
  }
}

/// One timed set-up: generate + smooth, build the row store by
/// appending every observation and flushing (each append timed),
/// compact it to columnar and open the result. The row store stays on
/// disk for the reference searches.
std::unique_ptr<SegDiffIndex> SetUp(uint64_t seed, const std::string& row_path,
                                    const std::string& col_path,
                                    const segdiff::SegDiffOptions& options,
                                    Record* record, Tracer* tracer,
                                    uint64_t op, Series* series) {
  RemoveStore(row_path);
  RemoveStore(col_path);
  const int64_t start = NowNs();
  Tracer::Scope setup(tracer, "setup", op);
  *series = MakeSensorSeries(seed, kDays, tracer, op);
  {
    std::unique_ptr<SegDiffIndex> row = OpenStore(row_path, options);
    std::vector<double>& append_us = record->Samples("append_us");
    const int64_t ingest_start = NowNs();
    {
      Tracer::Scope span(tracer, "storage.append", op);
      for (const segdiff::Sample& sample : *series) {
        const int64_t t0 = NowNs();
        Require(row->AppendObservation(sample.t, sample.v), "append");
        append_us.push_back((NowNs() - t0) * 1e-3);
      }
    }
    {
      Tracer::Scope span(tracer, "segdiff.flush", op);
      Require(row->FlushPending(), "flush");
    }
    record->Add("ingest.seconds", SecondsSince(ingest_start));
    record->Add("ingest.observations", static_cast<double>(series->size()));
    record->attempted += series->size() + 1;
    Tracer::Scope span(tracer, "storage.compact", op);
    Require(row->Compact(col_path), "compact");
  }
  std::unique_ptr<SegDiffIndex> store;
  {
    Tracer::Scope span(tracer, "storage.open", op);
    store = OpenStore(col_path, options);
  }
  record->Sample("setup_s", SecondsSince(start));
  return store;
}

}  // namespace

void RunStoreQuery(const Args& args, Record* record, Tracer* tracer) {
  const std::string row_path = args.work_dir + "/store_query_row.db";
  const std::string col_path = args.work_dir + "/store_query.db";
  record->Param("days", kDays);
  record->Param("buffer_pool_pages", kPoolPages);
  record->Param("rounds", kRounds);
  record->Param("num_threads", kThreads);

  CountingVfs vfs(segdiff::Vfs::Default());
  const segdiff::SegDiffOptions options = StoreOptions(&vfs, kPoolPages);
  const std::vector<Cell> grid = Grid(true, true);
  SearchOptions query;
  query.mode = segdiff::QueryMode::kAuto;
  query.num_threads = kThreads;
  std::vector<double>& query_ms = record->Samples("query_ms");
  uint64_t answers_checked = 0;
  Series series;
  std::unique_ptr<SegDiffIndex> store;
  uint64_t op = 0;
  for (int round = 0; round < kRounds; ++round) {
    const uint64_t seed = SensorSeed(args.seed, round);
    store.reset();
    StartMeasuredPhase();
    store = SetUp(seed, row_path, col_path, options, record, tracer, op++,
                  &series);
    EndMeasuredPhase(record);

    // Gates, outside setup_s. The benchmark's series is the documented
    // composition; every cell's reference (seq scan, one thread, row
    // store) satisfies Theorem 1; the compacted store answers each cell
    // exactly like its reference. The last pass also warms the pool.
    if (round == 0) CheckSeriesComposition(seed, kDays, series);
    std::vector<std::vector<PairId>> reference;
    {
      std::unique_ptr<SegDiffIndex> row =
          OpenStore(row_path, StoreOptions(nullptr, kPoolPages));
      SearchOptions seq;
      seq.mode = segdiff::QueryMode::kSeqScan;
      seq.num_threads = 1;
      for (const Cell& cell : grid) {
        auto pairs = Search(row.get(), cell, seq, nullptr);
        Require(pairs.status(), "reference search");
        CheckTheorem1(series, cell, *pairs);
        reference.push_back(std::move(*pairs));
      }
      record->Gate("theorem1_reference_cells", grid.size());
    }
    RemoveStore(row_path);
    for (size_t i = 0; i < grid.size(); ++i) {
      auto pairs = Search(store.get(), grid[i], query, nullptr);
      Require(pairs.status(), "gate search");
      if (*pairs != reference[i]) {
        throw GateFailure("compacted store answers " + CellName(grid[i]) +
                          " differently from the row-store reference");
      }
    }
    record->Gate("compacted_equals_reference_cells", grid.size());

    // Timed closed loop: search + CoalesceEpisodes per call.
    const segdiff::BufferPoolStats pool_before =
        store->db()->buffer_pool()->stats();
    const size_t round_queries = (round + 1) * kMinQueries / kRounds;
    StartMeasuredPhase();
    const int64_t loop_start = NowNs();
    for (size_t i = 0; SecondsSince(loop_start) < args.seconds / kRounds ||
                       query_ms.size() < round_queries;
         ++i) {
      const size_t c = i % grid.size();
      ++op;
      ++record->attempted;
      SearchStats stats;
      const int64_t t0 = NowNs();
      segdiff::Result<std::vector<PairId>> pairs = [&] {
        Tracer::Scope span(tracer, "query.search", op);
        return Search(store.get(), grid[c], query, &stats);
      }();
      size_t episodes = 0;
      if (pairs.ok()) {
        Tracer::Scope span(tracer, "segdiff.episodes", op);
        episodes = segdiff::CoalesceEpisodes(*pairs).size();
      }
      const double ms = (NowNs() - t0) * 1e-6;
      if (!pairs.ok() || stats.partial || stats.truncated) {
        ++record->failed;
        continue;
      }
      if (*pairs != reference[c] || (episodes == 0) != pairs->empty()) {
        throw GateFailure("timed search answers " + CellName(grid[c]) +
                          " differently from its reference");
      }
      ++answers_checked;
      query_ms.push_back(ms);
      AddSearchStats(record, stats);
    }
    record->TimedWindow(loop_start);
    EndMeasuredPhase(record);
    AddPoolDelta(record, pool_before, store->db()->buffer_pool()->stats());

    Require(store->Checkpoint(), "checkpoint");
    record->Add("observations", static_cast<double>(series.size()));
    record->Add("store.file_bytes", static_cast<double>(FileBytes(col_path)));
    record->Add("store.index_bytes",
                static_cast<double>(store->GetSizes().index_bytes));
  }
  AddVfsDelta(record, vfs, {});
  record->Gate("timed_answers_equal_reference", answers_checked);
  record->Add("pool.searches", static_cast<double>(query_ms.size()));

  if (tracer->enabled()) {
    TimeGridAtOneAndN(store.get(), grid, kThreads, record);
    ReplaySegmentAndExtract(series, record, tracer, ++op);
  }

  store.reset();
  RemoveStore(col_path);
}

}  // namespace perfbench
