// Facade-level tests for SegDiffIndex: ingest, search modes, reopen,
// sizes, option validation.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "segdiff/segdiff_index.h"
#include "ts/generator.h"
#include "ts/smoothing.h"

namespace segdiff {
namespace {

class SegDiffIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("segdiff_index");
    RemoveTestStore(path_);
    CadGeneratorOptions gen;
    gen.num_days = 5;
    gen.cad_events_per_day = 1.0;
    auto data = GenerateCadSeries(gen);
    ASSERT_TRUE(data.ok());
    series_ = std::move(data->series);
  }
  void TearDown() override { RemoveTestStore(path_); }

  std::unique_ptr<SegDiffIndex> Build(const SegDiffOptions& options) {
    auto index = SegDiffIndex::Open(path_, options);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    Status ingest = (*index)->IngestSeries(series_);
    EXPECT_TRUE(ingest.ok()) << ingest.ToString();
    return std::move(index).value();
  }

  std::string path_;
  Series series_;
};

TEST_F(SegDiffIndexTest, OptionValidation) {
  SegDiffOptions options;
  options.eps = -0.1;
  EXPECT_TRUE(SegDiffIndex::Open(path_, options).status().IsInvalidArgument());
  options = {};
  options.window_s = 0.0;
  EXPECT_TRUE(SegDiffIndex::Open(path_, options).status().IsInvalidArgument());
}

TEST_F(SegDiffIndexTest, SearchValidation) {
  SegDiffOptions options;
  options.window_s = 4 * 3600.0;
  auto index = Build(options);
  EXPECT_TRUE(index->SearchDrops(3600, 3.0).status().IsInvalidArgument());
  EXPECT_TRUE(index->SearchDrops(-1, -3.0).status().IsInvalidArgument());
  EXPECT_TRUE(index->SearchDrops(0, -3.0).status().IsInvalidArgument());
  EXPECT_TRUE(
      index->SearchDrops(5 * 3600.0, -3.0).status().IsInvalidArgument());
  EXPECT_TRUE(index->SearchJumps(3600, -3.0).status().IsInvalidArgument());
  // Index scan on an index-less store is rejected.
  RemoveTestStore(path_);
  SegDiffOptions no_index;
  no_index.build_indexes = false;
  auto bare = Build(no_index);
  SearchOptions search;
  search.mode = QueryMode::kIndexScan;
  EXPECT_TRUE(
      bare->SearchDrops(3600, -3.0, search).status().IsInvalidArgument());
}

TEST_F(SegDiffIndexTest, AllQueryModesAgree) {
  auto index = Build(SegDiffOptions{});
  for (double T : {900.0, 3600.0, 4 * 3600.0}) {
    for (double V : {-1.0, -3.0, -8.0}) {
      SearchOptions seq;
      seq.mode = QueryMode::kSeqScan;
      auto seq_result = index->SearchDrops(T, V, seq);
      ASSERT_TRUE(seq_result.ok());

      SearchOptions idx;
      idx.mode = QueryMode::kIndexScan;
      auto idx_result = index->SearchDrops(T, V, idx);
      ASSERT_TRUE(idx_result.ok());

      SearchOptions automatic;
      automatic.mode = QueryMode::kAuto;
      auto auto_result = index->SearchDrops(T, V, automatic);
      ASSERT_TRUE(auto_result.ok());

      ASSERT_EQ(seq_result->size(), idx_result->size())
          << "T=" << T << " V=" << V;
      ASSERT_EQ(seq_result->size(), auto_result->size());
      for (size_t i = 0; i < seq_result->size(); ++i) {
        EXPECT_EQ((*seq_result)[i], (*idx_result)[i]);
        EXPECT_EQ((*seq_result)[i], (*auto_result)[i]);
      }
    }
  }
}

// kAuto is the zone-map-pruned sequential scan: on an indexed row store
// and on its compacted columnar copy it walks no index entry and returns
// exactly the kSeqScan pairs. The store is `segdiff_cli generate --days
// 6` + `build --smooth --eps 0.2`; its T=0.25h V=-1 cell matches only
// 41 index entries, the case where an index walk looks cheapest.
TEST_F(SegDiffIndexTest, AutoModeIsThePrunedSeqScan) {
  CadGeneratorOptions gen;
  gen.num_days = 6;
  auto data = GenerateCadSeries(gen);
  ASSERT_TRUE(data.ok());
  auto filtered = HampelFilter(data->series, HampelOptions{});
  ASSERT_TRUE(filtered.ok());
  LoessOptions loess;
  loess.bandwidth_s = 1500.0;
  loess.robust_iterations = 1;
  auto smoothed = RobustLoess(*filtered, loess);
  ASSERT_TRUE(smoothed.ok());
  series_ = std::move(smoothed).value();
  SegDiffOptions options;
  options.eps = 0.2;
  auto row = Build(options);
  const std::string compact_path = UniqueTestPath("segdiff_index_compact");
  RemoveTestStore(compact_path);
  ASSERT_TRUE(row->Compact(compact_path).ok());
  auto compacted = SegDiffIndex::Open(compact_path, options);
  ASSERT_TRUE(compacted.ok());

  SearchOptions seq;
  seq.mode = QueryMode::kSeqScan;
  SearchOptions automatic;
  automatic.mode = QueryMode::kAuto;
  for (SegDiffIndex* store : {row.get(), compacted->get()}) {
    for (double T : {900.0, 3600.0, 8 * 3600.0}) {
      for (double V : {-1.0, -6.0, 1.0}) {
        SCOPED_TRACE("T=" + std::to_string(T) + " V=" + std::to_string(V));
        auto search = [&](const SearchOptions& mode, SearchStats* stats) {
          return V < 0 ? store->SearchDrops(T, V, mode, stats)
                       : store->SearchJumps(T, V, mode, stats);
        };
        SearchStats seq_stats;
        SearchStats auto_stats;
        auto want = search(seq, &seq_stats);
        auto got = search(automatic, &auto_stats);
        ASSERT_TRUE(want.ok());
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(auto_stats.scan.index_entries_scanned, 0u);
        EXPECT_EQ(auto_stats.scan.rows_scanned, seq_stats.scan.rows_scanned);
        EXPECT_EQ(*got, *want);
      }
    }
  }
  compacted->reset();
  RemoveTestStore(compact_path);
}

TEST_F(SegDiffIndexTest, JumpModesAgree) {
  auto index = Build(SegDiffOptions{});
  for (double V : {1.0, 3.0}) {
    SearchOptions seq;
    auto seq_result = index->SearchJumps(3600, V, seq);
    ASSERT_TRUE(seq_result.ok());
    SearchOptions idx;
    idx.mode = QueryMode::kIndexScan;
    auto idx_result = index->SearchJumps(3600, V, idx);
    ASSERT_TRUE(idx_result.ok());
    ASSERT_EQ(seq_result->size(), idx_result->size());
    for (size_t i = 0; i < seq_result->size(); ++i) {
      EXPECT_EQ((*seq_result)[i], (*idx_result)[i]);
    }
  }
}

TEST_F(SegDiffIndexTest, ResultsAreDedupedSortedAndResolved) {
  auto index = Build(SegDiffOptions{});
  auto results = index->SearchDrops(3600, -3.0);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  for (size_t i = 0; i < results->size(); ++i) {
    const PairId& pair = (*results)[i];
    EXPECT_LE(pair.t_d, pair.t_c);
    EXPECT_LE(pair.t_b, pair.t_a);
    EXPECT_LT(pair.t_b, pair.t_a);  // t_a resolved (nonzero span)
    EXPECT_LE(pair.t_c, pair.t_a);
    if (i > 0) {
      const PairId& prev = (*results)[i - 1];
      EXPECT_TRUE(prev.t_d < pair.t_d ||
                  (prev.t_d == pair.t_d &&
                   (prev.t_c < pair.t_c ||
                    (prev.t_c == pair.t_c && prev.t_b < pair.t_b))))
          << "not strictly sorted/deduped at " << i;
    }
  }
}

TEST_F(SegDiffIndexTest, StatsArePopulated) {
  auto index = Build(SegDiffOptions{});
  SearchStats stats;
  auto results = index->SearchDrops(3600, -3.0, {}, &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(stats.pairs_returned, results->size());
  EXPECT_GT(stats.queries_issued, 0u);
  EXPECT_GT(stats.scan.rows_scanned, 0u);
  EXPECT_GT(stats.seconds, 0.0);

  SearchOptions idx;
  idx.mode = QueryMode::kIndexScan;
  SearchStats idx_stats;
  ASSERT_TRUE(index->SearchDrops(3600, -3.0, idx, &idx_stats).ok());
  EXPECT_GT(idx_stats.scan.index_entries_scanned, 0u);
  EXPECT_EQ(idx_stats.scan.rows_scanned, 0u);
}

TEST_F(SegDiffIndexTest, SizesAccounting) {
  auto index = Build(SegDiffOptions{});
  const SegDiffSizes sizes = index->GetSizes();
  EXPECT_GT(sizes.feature_rows, 0u);
  EXPECT_GT(sizes.feature_bytes, 0u);
  EXPECT_GT(sizes.index_bytes, 0u);
  EXPECT_GT(sizes.segment_dir_bytes, 0u);
  EXPECT_GE(sizes.file_bytes,
            sizes.feature_bytes + sizes.index_bytes + sizes.segment_dir_bytes);
  EXPECT_GT(index->num_segments(), 0u);
  EXPECT_EQ(index->num_observations(), series_.size());
  // Extractor stats flowed through.
  EXPECT_EQ(index->extractor_stats().segments_in, index->num_segments());
}

TEST_F(SegDiffIndexTest, NoIndexStoreIsSmaller) {
  auto with_index = Build(SegDiffOptions{});
  const uint64_t with_bytes = with_index->GetSizes().file_bytes;
  with_index.reset();
  RemoveTestStore(path_);
  SegDiffOptions options;
  options.build_indexes = false;
  auto without_index = Build(options);
  const SegDiffSizes sizes = without_index->GetSizes();
  EXPECT_EQ(sizes.index_bytes, 0u);
  EXPECT_LT(sizes.file_bytes, with_bytes);
}

TEST_F(SegDiffIndexTest, DropCachesPreservesResults) {
  auto index = Build(SegDiffOptions{});
  auto warm = index->SearchDrops(3600, -3.0);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(index->DropCaches().ok());
  auto cold = index->SearchDrops(3600, -3.0);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(warm->size(), cold->size());
  for (size_t i = 0; i < warm->size(); ++i) {
    EXPECT_EQ((*warm)[i], (*cold)[i]);
  }
}

TEST_F(SegDiffIndexTest, ReopenedStoreAnswersQueries) {
  std::vector<PairId> expected;
  {
    auto index = Build(SegDiffOptions{});
    auto results = index->SearchDrops(3600, -3.0);
    ASSERT_TRUE(results.ok());
    expected = *results;
    ASSERT_TRUE(index->Checkpoint().ok());
  }
  auto reopened = SegDiffIndex::Open(path_, SegDiffOptions{});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto results = (*reopened)->SearchDrops(3600, -3.0);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*results)[i], expected[i]);
  }
  // Index path also works after reopen.
  SearchOptions idx;
  idx.mode = QueryMode::kIndexScan;
  auto idx_results = (*reopened)->SearchDrops(3600, -3.0, idx);
  ASSERT_TRUE(idx_results.ok());
  EXPECT_EQ(idx_results->size(), expected.size());
}

TEST_F(SegDiffIndexTest, LineQueryAloneDetectsMidEdgeIntersection) {
  // One long falling segment: samples (0, 0) and (100, -10) only. The
  // self pair's stored frontier is (0, -eps) -> (100, -10 - eps). For
  // T = 50, V = -3 NEITHER corner passes the point query (corner 1 has
  // dv = -eps > V; corner 2 has dt = 100 > T), so only the line query
  // (edge value at T is about -5.2 <= V) can return the pair.
  RemoveTestStore(path_);
  Series ramp;
  ASSERT_TRUE(ramp.Append({0, 0}).ok());
  ASSERT_TRUE(ramp.Append({100, -10}).ok());
  SegDiffOptions options;
  options.eps = 0.2;
  options.window_s = 200.0;
  auto index = SegDiffIndex::Open(path_, options);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE((*index)->IngestSeries(ramp).ok());
  for (QueryMode mode : {QueryMode::kSeqScan, QueryMode::kIndexScan}) {
    SearchOptions search;
    search.mode = mode;
    auto results = (*index)->SearchDrops(50.0, -3.0, search);
    ASSERT_TRUE(results.ok());
    ASSERT_EQ(results->size(), 1u) << "mode " << static_cast<int>(mode);
    EXPECT_DOUBLE_EQ((*results)[0].t_d, 0.0);
    EXPECT_DOUBLE_EQ((*results)[0].t_a, 100.0);
  }
  // Sanity: with V = -11 nothing (not even the line query) fires.
  auto none = (*index)->SearchDrops(50.0, -11.0);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST_F(SegDiffIndexTest, IncrementalIngestMatchesSearchability) {
  // Ingest in two chunks; later chunk's events are still found.
  auto index = SegDiffIndex::Open(path_, SegDiffOptions{});
  ASSERT_TRUE(index.ok());
  const size_t half = series_.size() / 2;
  Series first;
  Series second;
  for (size_t i = 0; i < series_.size(); ++i) {
    ASSERT_TRUE((i < half ? first : second).Append(series_[i]).ok());
  }
  ASSERT_TRUE((*index)->IngestSeries(first).ok());
  const uint64_t rows_after_first = (*index)->GetSizes().feature_rows;
  ASSERT_TRUE((*index)->IngestSeries(second).ok());
  EXPECT_GT((*index)->GetSizes().feature_rows, rows_after_first);
  auto results = (*index)->SearchDrops(3600, -3.0);
  ASSERT_TRUE(results.ok());
  // Events exist in both halves (one CAD event per day).
  bool in_first = false;
  bool in_second = false;
  const double split_t = series_[half].t;
  for (const PairId& pair : *results) {
    if (pair.t_a < split_t) in_first = true;
    if (pair.t_b > split_t) in_second = true;
  }
  EXPECT_TRUE(in_first);
  EXPECT_TRUE(in_second);
}

}  // namespace
}  // namespace segdiff
