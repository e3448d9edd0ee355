// Ablations of the paper's design decisions (not figures in the paper,
// but the knobs its Sections 4-5 argue for):
//   A. Corner reduction: storage with frontier corners vs all 4 corners,
//      and our queryable row layout (2k+3 cols) vs the paper's c2 = k+4.
//   B. Self pairs: rows added by within-segment event coverage.
//   C. Segmentation algorithm: sliding-window vs bottom-up r.
//   D/E. Access paths: per-corner sequential scans vs index scans across
//      the query space (the paper's Figures 10-11 crossover). kAuto is
//      the sequential scan, so it gets no column of its own.

#include <functional>
#include <iostream>

#include "benchutil/report.h"
#include "benchutil/workload.h"
#include "common/logging.h"
#include "feature/extractor.h"
#include "feature/schema.h"
#include "segdiff/segdiff_index.h"
#include "segment/bottom_up.h"
#include "ts/smoothing.h"
#include "segment/sliding_window.h"

namespace segdiff {
namespace {

int RunBench() {
  const WorkloadConfig config = WorkloadConfig::FromEnv();
  auto series_or = MakeSmoothedBenchSeries(config);
  SEGDIFF_CHECK(series_or.ok()) << series_or.status().ToString();
  const Series& series = *series_or;
  const double eps = PaperDefaults::kEps;
  const double w = PaperDefaults::kWindowS;
  std::cout << "workload: " << series.size() << " observations, eps=" << eps
            << ", w=" << w / 3600 << "h\n";

  // --- A: corner reduction storage accounting ---------------------------
  auto pla = SegmentSeriesWithTolerance(series, eps);
  SEGDIFF_CHECK(pla.ok());
  ExtractorOptions ex_options;
  ex_options.eps = eps;
  ex_options.window_s = w;
  ExtractorStats stats;
  uint64_t cols_ours = 0;
  uint64_t cols_paper = 0;
  uint64_t rows = 0;
  SEGDIFF_CHECK_OK(ExtractFeatures(
      *pla, ex_options,
      [&](const PairFeatures& row) {
        cols_ours += FeatureColumns(row.corners.count);
        cols_paper += PaperFeatureColumns(row.corners.count);
        ++rows;
        return Status::OK();
      },
      &stats));
  // All-4-corner strawman: every emitted row keeps 4 corners.
  const uint64_t cols_all4 = rows * FeatureColumns(4);
  PrintBanner(std::cout, "A: corner-reduction storage (columns x rows)");
  TablePrinter a({"scheme", "double columns", "vs all-4-corners"});
  a.AddRow({"all 4 corners", std::to_string(cols_all4), "1.00"});
  a.AddRow({"frontier corners, our layout (2k+3)", std::to_string(cols_ours),
            Fmt(static_cast<double>(cols_ours) / cols_all4, 2)});
  a.AddRow({"frontier corners, paper layout (k+4)",
            std::to_string(cols_paper),
            Fmt(static_cast<double>(cols_paper) / cols_all4, 2)});
  a.Print(std::cout);

  // --- B: self pairs -----------------------------------------------------
  ExtractorOptions no_self = ex_options;
  no_self.include_self_pairs = false;
  ExtractorStats no_self_stats;
  uint64_t rows_no_self = 0;
  SEGDIFF_CHECK_OK(ExtractFeatures(
      *pla, no_self,
      [&](const PairFeatures&) {
        ++rows_no_self;
        return Status::OK();
      },
      &no_self_stats));
  PrintBanner(std::cout, "B: self-pair coverage cost");
  std::cout << "rows with self pairs:    " << rows << "\n"
            << "rows without self pairs: " << rows_no_self << " ("
            << Fmt(100.0 * (rows - rows_no_self) / rows, 1)
            << "% of rows buy within-segment no-miss coverage)\n";

  // --- C: segmentation algorithm -----------------------------------------
  PrintBanner(std::cout, "C: sliding-window (online) vs bottom-up (offline)");
  TablePrinter c({"eps", "sliding-window r", "bottom-up r"});
  for (double e : {0.1, 0.2, 0.4}) {
    auto sliding = SegmentSeriesWithTolerance(series, e);
    SegmentationOptions bu;
    bu.max_error = e / 2.0;
    auto bottom_up = BottomUpSegment(series, bu);
    SEGDIFF_CHECK(sliding.ok());
    SEGDIFF_CHECK(bottom_up.ok());
    c.AddRow({Fmt(e, 1), Fmt(sliding->CompressionRate(series.size()), 2),
              Fmt(bottom_up->CompressionRate(series.size()), 2)});
  }
  c.Print(std::cout);

  // --- F: preprocessing (the paper smooths "with robust weights") --------
  {
    auto raw = MakeBenchSeries(config);
    SEGDIFF_CHECK(raw.ok());
    auto hampel_only = HampelFilter(raw->series, HampelOptions{});
    SEGDIFF_CHECK(hampel_only.ok());
    PrintBanner(std::cout,
                "F: preprocessing ablation (compression rate at eps=0.2)");
    TablePrinter f({"preprocessing", "segments", "r"});
    auto add = [&](const char* label, const Series& series) {
      auto segmented = SegmentSeriesWithTolerance(series, eps);
      SEGDIFF_CHECK(segmented.ok());
      f.AddRow({label, std::to_string(segmented->size()),
                Fmt(segmented->CompressionRate(series.size()), 2)});
    };
    add("raw", raw->series);
    add("hampel only", *hampel_only);
    add("hampel + robust loess (paper)", series);
    f.Print(std::cout);
    std::cout << "robust smoothing is what makes piecewise-linear "
                 "compression effective on noisy sensor data.\n";
  }

  // --- D + E: query execution --------------------------------------------
  const std::string path = BenchDbPath("ablation_segdiff");
  SegDiffOptions options;
  options.eps = eps;
  options.window_s = w;
  auto index = SegDiffIndex::Open(path, options);
  SEGDIFF_CHECK(index.ok());
  SEGDIFF_CHECK_OK((*index)->IngestSeries(series));

  PrintBanner(std::cout,
              "D/E: per-corner seq scans vs index "
              "(warm cache, drop search)");
  TablePrinter d({"T (h)", "V", "per-query seq ms", "index ms"});
  for (double Th : {0.25, 1.0, 8.0}) {
    for (double V : {-1.0, -6.0, -12.0}) {
      const double T = Th * kHourSeconds;
      auto timed = [&](const SearchOptions& mode) {
        double best = 1e18;
        for (int rep = 0; rep < 4; ++rep) {  // first run warms the cache
          SearchStats st;
          SEGDIFF_CHECK((*index)->SearchDrops(T, V, mode, &st).ok());
          if (rep > 0) {
            best = std::min(best, st.seconds * 1e3);
          }
        }
        return best;
      };
      SearchOptions seq;
      SearchOptions idx;
      idx.mode = QueryMode::kIndexScan;
      d.AddRow({Fmt(Th, 2), Fmt(V, 0), Fmt(timed(seq), 3),
                Fmt(timed(idx), 3)});
    }
  }
  d.Print(std::cout);
  RemoveBenchDb(path);
  return 0;
}

}  // namespace
}  // namespace segdiff

int main() { return segdiff::RunBench(); }
