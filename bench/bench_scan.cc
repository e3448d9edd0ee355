// Zone-map pruning + batched-kernel ablation for sequential scans.
//
// Three execution modes run the same rare-event conjunction
// (dt <= T AND dv <= V, < 1% selectivity) over the same drop2-shaped
// feature table:
//   row    row-at-a-time Predicate::Matches     (the pre-zone-map path)
//   batch  selection-bitmap kernel, no pruning  (kernel contribution)
//   full   kernel + zone-map page pruning       (the default fast path)
// The workload models the paper's drop queries: matching rows are
// temporally clustered (a cold event spans consecutive segments, hence
// consecutive heap pages), so most pages' per-page [min, max] dv ranges
// exclude V entirely and the zone maps skip them wholesale.
//
// Results land in BENCH_scan.json: per-mode wall seconds, rows/s,
// pages scanned vs pruned, and the speedup of each layer over the
// row-at-a-time baseline — the acceptance target is >= 2x end to end.
//
//   bench_scan [--quick]    (--quick: small store + 1 rep, smoke only)
// Env: SEGDIFF_BENCH_SCAN_ROWS, SEGDIFF_BENCH_QUERY_REPS.

#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "benchutil/report.h"
#include "benchutil/workload.h"
#include "common/env.h"
#include "common/logging.h"
#include "common/random.h"
#include "query/executor.h"
#include "storage/db.h"

namespace segdiff {
namespace {

constexpr double kT = 3600.0;  // dt bound: 1 h
constexpr double kV = -3.0;    // dv bound: -3 degC

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ModeResult {
  const char* name;
  double seconds = 0.0;
  uint64_t matched = 0;
  ScanStats stats;
};

int RunBench(bool quick) {
  const uint64_t rows = static_cast<uint64_t>(GetEnvInt64(
      "SEGDIFF_BENCH_SCAN_ROWS", quick ? 50 * 1000 : 1000 * 1000));
  const int reps = quick ? 1
                         : static_cast<int>(GetEnvInt64(
                               "SEGDIFF_BENCH_QUERY_REPS", 3));

  const std::string path = BenchDbPath("scan");
  DatabaseOptions options;
  options.buffer_pool_pages = 32768;  // keep the whole store warm
  auto db = Database::Open(path, options);
  SEGDIFF_CHECK(db.ok()) << db.status().ToString();

  // drop2-shaped schema: [dt1, dv1, dt2, dv2, t_d, t_c, t_b].
  std::vector<Column> columns;
  for (const char* name : {"dt1", "dv1", "dt2", "dv2", "t_d", "t_c", "t_b"}) {
    columns.push_back(Column{name, ColumnType::kDouble});
  }
  auto schema = TableSchema::Create(std::move(columns));
  SEGDIFF_CHECK(schema.ok());
  auto table_or = (*db)->CreateTable("drop2", std::move(schema).value());
  SEGDIFF_CHECK(table_or.ok()) << table_or.status().ToString();
  Table* table = *table_or;

  // 0.5% of rows form one contiguous event band whose dv falls below V;
  // everything else is background noise well above it. Contiguity is the
  // realistic part: a cold event's feature rows are extracted from
  // consecutive segment pairs and land on consecutive heap pages. The
  // data is sensor-shaped, like what the extractor actually emits:
  // durations in whole seconds, temperature deltas on a 0.01 degC grid,
  // and monotone event times — the decimal/monotone structure the
  // columnar FOR/delta encodings are built for.
  auto q0 = [](double v) { return std::round(v); };  // whole seconds
  auto q2 = [](double v) {                           // 0.01-unit grid
    double r = std::round(v * 100.0) / 100.0;
    if (r == 0.0) r = 0.0;  // never emit -0.0 (off the decimal grid)
    return r;
  };
  const uint64_t event_rows = std::max<uint64_t>(rows / 200, 1);
  const uint64_t event_start = rows / 2;
  Rng rng(20080325);
  std::vector<double> row_buf(7, 0.0);
  uint64_t expected_matches = 0;
  double t_base = 0.0;
  for (uint64_t i = 0; i < rows; ++i) {
    const bool event = i >= event_start && i < event_start + event_rows;
    row_buf[0] = q0(event ? rng.Uniform(600.0, 3000.0)     // dt1 <= T
                          : rng.Uniform(0.0, 8.0 * 3600.0));
    row_buf[1] = q2(event ? rng.Uniform(-8.0, -3.2)        // dv1 <= V
                          : rng.Uniform(-2.0, 2.0));
    row_buf[2] = q0(rng.Uniform(0.0, 8.0 * 3600.0));
    row_buf[3] = q2(rng.Uniform(-2.0, 2.0));
    t_base += rng.Uniform(30.0, 90.0);
    row_buf[4] = q0(t_base);                                // t_d monotone
    row_buf[5] = q0(t_base + rng.Uniform(0.0, 600.0));      // t_c
    row_buf[6] = q0(t_base + rng.Uniform(600.0, 1200.0));   // t_b
    expected_matches += event ? 1 : 0;
    SEGDIFF_CHECK_OK(table->InsertDoubles(row_buf).status());
  }

  Predicate predicate;
  predicate.And(0, CmpOp::kLe, kT).And(1, CmpOp::kLe, kV);

  const uint64_t pages = table->heap_meta().page_count;
  const double selectivity =
      static_cast<double>(expected_matches) / static_cast<double>(rows);
  std::cout << "workload: " << rows << " rows over " << pages
            << " heap pages, " << expected_matches << " matches ("
            << Fmt(selectivity * 100.0, 3) << "% selectivity)\n";

  struct Mode {
    const char* name;
    SeqScanOptions options;
  };
  const Mode modes[] = {
      {"row", SeqScanOptions{/*batch=*/false, /*prune=*/false}},
      {"batch", SeqScanOptions{/*batch=*/true, /*prune=*/false}},
      {"full", SeqScanOptions{/*batch=*/true, /*prune=*/true}},
  };

  std::vector<ModeResult> results;
  for (const Mode& mode : modes) {
    ModeResult result;
    result.name = mode.name;
    for (int r = 0; r < reps; ++r) {
      uint64_t matched = 0;
      ScanStats stats;
      auto count = [&matched](const char*, RecordId) -> Status {
        ++matched;
        return Status::OK();
      };
      const double start = NowSeconds();
      SEGDIFF_CHECK_OK(
          SeqScan(*table, predicate, count, &stats, mode.options));
      const double seconds = NowSeconds() - start;
      SEGDIFF_CHECK(matched == expected_matches)
          << mode.name << ": " << matched << " != " << expected_matches;
      if (r == 0 || seconds < result.seconds) {
        result.seconds = seconds;
        result.matched = matched;
        result.stats = stats;
      }
    }
    results.push_back(result);
  }

  const double row_seconds = results[0].seconds;
  PrintBanner(std::cout,
              "Sequential-scan ablation: row vs kernel vs kernel+pruning "
              "(warm cache, best of " +
                  std::to_string(reps) + ")");
  TablePrinter printer({"mode", "wall ms", "rows/s", "pages scanned",
                        "pages pruned", "speedup"});
  JsonValue rows_json = JsonValue::Array();
  for (const ModeResult& result : results) {
    const double rows_per_s =
        result.seconds > 0.0 ? static_cast<double>(rows) / result.seconds
                             : 0.0;
    const double speedup =
        result.seconds > 0.0 ? row_seconds / result.seconds : 0.0;
    printer.AddRow({result.name, Fmt(result.seconds * 1e3, 2),
                    Fmt(rows_per_s / 1e6, 2) + "M",
                    std::to_string(result.stats.pages_scanned),
                    std::to_string(result.stats.pages_pruned),
                    Fmt(speedup, 2) + "x"});
    JsonValue row = JsonValue::Object();
    row.Set("mode", result.name);
    row.Set("seconds", result.seconds);
    row.Set("rows_per_s", rows_per_s);
    row.Set("rows_matched", static_cast<int64_t>(result.matched));
    row.Set("pages_scanned",
            static_cast<int64_t>(result.stats.pages_scanned));
    row.Set("pages_pruned", static_cast<int64_t>(result.stats.pages_pruned));
    row.Set("speedup_vs_row", speedup);
    rows_json.Append(std::move(row));
  }
  printer.Print(std::cout);

  const double kernel_speedup =
      results[1].seconds > 0.0 ? row_seconds / results[1].seconds : 0.0;
  const double pruning_speedup =
      results[2].seconds > 0.0 ? results[1].seconds / results[2].seconds
                               : 0.0;
  const double total_speedup =
      results[2].seconds > 0.0 ? row_seconds / results[2].seconds : 0.0;
  std::cout << "kernel contribution:  " << Fmt(kernel_speedup, 2)
            << "x (row -> batch)\n"
            << "pruning contribution: " << Fmt(pruning_speedup, 2)
            << "x (batch -> full)\n"
            << "total:                " << Fmt(total_speedup, 2)
            << "x (target >= 2x at < 1% selectivity)\n";

  // ------------------------------------------------------------------
  // Columnar section: compact the store (row pages -> compressed
  // columnar segments) and measure the full-selectivity count scan —
  // the shape the related work's standing queries reduce to — against
  // the row format. Count-only scans (null callback) on both sides so
  // the comparison is decode throughput, not callback overhead.
  SEGDIFF_CHECK_OK((*db)->Checkpoint());
  const uint64_t row_bytes = (*db)->pager()->FileSizeBytes();
  const std::string columnar_path = BenchDbPath("scan_columnar");
  SEGDIFF_CHECK_OK((*db)->CompactInto(columnar_path));
  auto cdb = Database::Open(columnar_path, DatabaseOptions{options});
  SEGDIFF_CHECK(cdb.ok()) << cdb.status().ToString();
  auto ctable_or = (*cdb)->GetTable("drop2");
  SEGDIFF_CHECK(ctable_or.ok());
  Table* ctable = *ctable_or;
  const uint64_t columnar_bytes = (*cdb)->pager()->FileSizeBytes();
  const double size_ratio =
      row_bytes > 0
          ? static_cast<double>(columnar_bytes) / static_cast<double>(row_bytes)
          : 0.0;

  Predicate full_predicate;
  full_predicate.And(0, CmpOp::kGe, -1.0);  // matches every row

  const SeqScanOptions fast{/*batch=*/true, /*prune=*/true};
  auto count_scan = [&](const Table& t, const Predicate& p) {
    double best = 0.0;
    uint64_t matched = 0;
    {  // warm the buffer pool so both formats are timed from cache
      ScanStats warm;
      SEGDIFF_CHECK_OK(SeqScan(t, p, RowCallback(), &warm, fast));
    }
    for (int r = 0; r < reps; ++r) {
      ScanStats stats;
      const double start = NowSeconds();
      SEGDIFF_CHECK_OK(SeqScan(t, p, RowCallback(), &stats, fast));
      const double seconds = NowSeconds() - start;
      if (r == 0 || seconds < best) best = seconds;
      matched = stats.rows_matched;
    }
    return std::make_pair(best, matched);
  };

  const auto [row_full_s, row_full_matched] = count_scan(*table, predicate);
  SEGDIFF_CHECK(row_full_matched == expected_matches);
  const auto [row_all_s, row_all_matched] = count_scan(*table, full_predicate);
  SEGDIFF_CHECK(row_all_matched == rows);
  const auto [col_full_s, col_full_matched] = count_scan(*ctable, predicate);
  SEGDIFF_CHECK(col_full_matched == expected_matches)
      << "columnar rare-event count diverged: " << col_full_matched;
  const auto [col_all_s, col_all_matched] = count_scan(*ctable, full_predicate);
  SEGDIFF_CHECK(col_all_matched == rows)
      << "columnar full count diverged: " << col_all_matched;

  const double columnar_speedup =
      col_all_s > 0.0 ? row_all_s / col_all_s : 0.0;
  const double columnar_rare_speedup =
      col_full_s > 0.0 ? row_full_s / col_full_s : 0.0;
  PrintBanner(std::cout,
              "Columnar vs row format (count-only scans, best of " +
                  std::to_string(reps) + ")");
  TablePrinter cprinter({"workload", "row ms", "columnar ms", "speedup"});
  cprinter.AddRow({"full selectivity", Fmt(row_all_s * 1e3, 2),
                   Fmt(col_all_s * 1e3, 2), Fmt(columnar_speedup, 2) + "x"});
  cprinter.AddRow({"rare event (<1%)", Fmt(row_full_s * 1e3, 2),
                   Fmt(col_full_s * 1e3, 2),
                   Fmt(columnar_rare_speedup, 2) + "x"});
  cprinter.Print(std::cout);
  std::cout << "store size: " << row_bytes << " -> " << columnar_bytes
            << " bytes (" << Fmt(size_ratio, 3)
            << "x, target <= 0.5x)\n"
            << "columnar full-selectivity speedup: "
            << Fmt(columnar_speedup, 2) << "x (target >= 3x)\n";

  JsonValue root = JsonValue::Object();
  root.Set("bench", "scan");
  root.Set("rows", static_cast<int64_t>(rows));
  root.Set("pages", static_cast<int64_t>(pages));
  root.Set("selectivity", selectivity);
  root.Set("reps", static_cast<int64_t>(reps));
  root.Set("kernel_speedup", kernel_speedup);
  root.Set("pruning_speedup", pruning_speedup);
  root.Set("total_speedup", total_speedup);
  root.Set("results", std::move(rows_json));
  JsonValue columnar_json = JsonValue::Object();
  columnar_json.Set("row_bytes", static_cast<int64_t>(row_bytes));
  columnar_json.Set("columnar_bytes", static_cast<int64_t>(columnar_bytes));
  columnar_json.Set("size_ratio", size_ratio);
  columnar_json.Set("full_selectivity_row_seconds", row_all_s);
  columnar_json.Set("full_selectivity_columnar_seconds", col_all_s);
  columnar_json.Set("full_selectivity_speedup", columnar_speedup);
  columnar_json.Set("rare_event_row_seconds", row_full_s);
  columnar_json.Set("rare_event_columnar_seconds", col_full_s);
  columnar_json.Set("rare_event_speedup", columnar_rare_speedup);
  root.Set("columnar", std::move(columnar_json));
  const std::string json_path = BenchReportPath("BENCH_scan.json");
  if (WriteJsonFile(json_path, root)) {
    std::cout << "wrote " << json_path << "\n";
  } else {
    std::cout << "failed to write " << json_path << "\n";
  }

  db->reset();  // close before removing the file
  cdb->reset();
  RemoveBenchDb(path);
  RemoveBenchDb(columnar_path);
  return 0;
}

}  // namespace
}  // namespace segdiff

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    quick |= std::string(argv[i]) == "--quick";
  }
  return segdiff::RunBench(quick);
}
