// Tests for the Exh baseline and the naive oracle: Exh must return
// exactly the naive events (it stores every within-window sampled pair).

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "segdiff/exh_index.h"
#include "segdiff/naive.h"
#include "ts/generator.h"

namespace segdiff {
namespace {

class ExhTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("segdiff_exh");
    RemoveTestStore(path_);
    CadGeneratorOptions gen;
    gen.num_days = 2;
    gen.cad_events_per_day = 1.0;
    auto data = GenerateCadSeries(gen);
    ASSERT_TRUE(data.ok());
    series_ = std::move(data->series);
  }
  void TearDown() override { RemoveTestStore(path_); }

  std::string path_;
  Series series_;
};

TEST_F(ExhTest, RowCountMatchesPairCount) {
  ExhOptions options;
  options.window_s = 3600.0;  // 12 samples of history per observation
  auto exh = ExhIndex::Open(path_, options);
  ASSERT_TRUE(exh.ok());
  ASSERT_TRUE((*exh)->IngestSeries(series_).ok());
  // Count expected pairs directly.
  uint64_t expected = 0;
  for (size_t i = 0; i < series_.size(); ++i) {
    for (size_t j = i + 1; j < series_.size(); ++j) {
      if (series_[j].t - series_[i].t > options.window_s) break;
      ++expected;
    }
  }
  EXPECT_EQ((*exh)->GetSizes().feature_rows, expected);
}

TEST_F(ExhTest, MatchesNaiveExactly) {
  ExhOptions options;
  options.window_s = 2 * 3600.0;
  auto exh = ExhIndex::Open(path_, options);
  ASSERT_TRUE(exh.ok());
  ASSERT_TRUE((*exh)->IngestSeries(series_).ok());
  NaiveSearcher naive(series_);
  for (double T : {900.0, 3600.0, 2 * 3600.0}) {
    for (double V : {-1.0, -3.0, -6.0}) {
      auto events = (*exh)->SearchDrops(T, V);
      ASSERT_TRUE(events.ok());
      auto expected = naive.SearchDrops(T, V);
      ASSERT_EQ(events->size(), expected.size()) << "T=" << T << " V=" << V;
      // Both sorted by (t_start, t_end): compare elementwise.
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_DOUBLE_EQ((*events)[i].t_start, expected[i].t_start);
        EXPECT_DOUBLE_EQ((*events)[i].t_end, expected[i].t_end);
        EXPECT_DOUBLE_EQ((*events)[i].dv, expected[i].dv);
      }
    }
    for (double V : {1.0, 3.0}) {
      auto events = (*exh)->SearchJumps(T, V);
      ASSERT_TRUE(events.ok());
      auto expected = naive.SearchJumps(T, V);
      EXPECT_EQ(events->size(), expected.size());
    }
  }
}

TEST_F(ExhTest, IndexAndSeqScanAgree) {
  ExhOptions options;
  options.window_s = 3600.0;
  auto exh = ExhIndex::Open(path_, options);
  ASSERT_TRUE((*exh)->IngestSeries(series_).ok());
  SearchOptions seq;
  seq.mode = QueryMode::kSeqScan;
  SearchOptions idx;
  idx.mode = QueryMode::kIndexScan;
  auto a = (*exh)->SearchDrops(1800, -2.0, seq);
  auto b = (*exh)->SearchDrops(1800, -2.0, idx);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_DOUBLE_EQ((*a)[i].t_start, (*b)[i].t_start);
    EXPECT_DOUBLE_EQ((*a)[i].t_end, (*b)[i].t_end);
  }
}

// kAuto walks no index entry on an indexed Exh store and returns exactly
// the kSeqScan events, in selective and dense cells alike.
TEST_F(ExhTest, AutoModeIsThePrunedSeqScan) {
  ExhOptions options;
  options.window_s = 3600.0;
  auto exh = ExhIndex::Open(path_, options);
  ASSERT_TRUE(exh.ok());
  ASSERT_TRUE((*exh)->IngestSeries(series_).ok());
  SearchOptions seq;
  seq.mode = QueryMode::kSeqScan;
  SearchOptions automatic;
  automatic.mode = QueryMode::kAuto;
  for (double T : {300.0, 900.0, 3600.0}) {
    for (double V : {-1.0, -3.0}) {
      SCOPED_TRACE("T=" + std::to_string(T) + " V=" + std::to_string(V));
      SearchStats seq_stats;
      SearchStats auto_stats;
      auto want = (*exh)->SearchDrops(T, V, seq, &seq_stats);
      auto got = (*exh)->SearchDrops(T, V, automatic, &auto_stats);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(auto_stats.scan.index_entries_scanned, 0u);
      EXPECT_EQ(auto_stats.scan.rows_scanned, seq_stats.scan.rows_scanned);
      ASSERT_EQ(got->size(), want->size());
      for (size_t i = 0; i < want->size(); ++i) {
        EXPECT_EQ((*got)[i].t_start, (*want)[i].t_start);
        EXPECT_EQ((*got)[i].t_end, (*want)[i].t_end);
        EXPECT_EQ((*got)[i].dv, (*want)[i].dv);
      }
    }
  }
}

TEST_F(ExhTest, Validation) {
  ExhOptions bad;
  bad.window_s = 0;
  EXPECT_TRUE(ExhIndex::Open(path_, bad).status().IsInvalidArgument());
  ExhOptions options;
  options.window_s = 3600.0;
  options.build_index = false;
  auto exh = ExhIndex::Open(path_, options);
  ASSERT_TRUE(exh.ok());
  ASSERT_TRUE((*exh)->IngestSeries(series_).ok());
  EXPECT_TRUE((*exh)->SearchDrops(600, 1.0).status().IsInvalidArgument());
  EXPECT_TRUE((*exh)->SearchJumps(600, -1.0).status().IsInvalidArgument());
  EXPECT_TRUE((*exh)->SearchDrops(0, -1.0).status().IsInvalidArgument());
  EXPECT_TRUE(
      (*exh)->SearchDrops(7200.0, -1.0).status().IsInvalidArgument());
  SearchOptions idx;
  idx.mode = QueryMode::kIndexScan;
  EXPECT_TRUE(
      (*exh)->SearchDrops(600, -1.0, idx).status().IsInvalidArgument());
  // kAuto is the sequential scan, with or without an index.
  SearchOptions automatic;
  automatic.mode = QueryMode::kAuto;
  EXPECT_TRUE((*exh)->SearchDrops(600, -1.0, automatic).ok());
}

TEST_F(ExhTest, ChunkedIngestMatchesOneShot) {
  // Regression: the pair window used to reset on every IngestSeries
  // call, silently dropping every pair that straddles a chunk boundary.
  ExhOptions options;
  options.window_s = 3600.0;
  auto whole = ExhIndex::Open(path_, options);
  ASSERT_TRUE(whole.ok());
  ASSERT_TRUE((*whole)->IngestSeries(series_).ok());

  const std::string chunked_path =
      UniqueTestPath("segdiff_exh_chunked");
  RemoveTestStore(chunked_path);
  auto chunked = ExhIndex::Open(chunked_path, options);
  ASSERT_TRUE(chunked.ok());
  // Uneven chunks, including a chunk much shorter than the window.
  const size_t cuts[] = {3, series_.size() / 3, series_.size() / 3 + 5,
                         series_.size()};
  size_t start = 0;
  for (const size_t end : cuts) {
    Series chunk;
    for (size_t i = start; i < end; ++i) {
      ASSERT_TRUE(chunk.Append(series_[i]).ok());
    }
    ASSERT_TRUE((*chunked)->IngestSeries(chunk).ok());
    start = end;
  }

  EXPECT_EQ((*chunked)->GetSizes().feature_rows,
            (*whole)->GetSizes().feature_rows);
  auto a = (*whole)->SearchDrops(1800.0, -2.0);
  auto b = (*chunked)->SearchDrops(1800.0, -2.0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_DOUBLE_EQ((*a)[i].t_start, (*b)[i].t_start);
    EXPECT_DOUBLE_EQ((*a)[i].t_end, (*b)[i].t_end);
    EXPECT_DOUBLE_EQ((*a)[i].dv, (*b)[i].dv);
  }

  // Re-sending an already-ingested timestamp is rejected, not silently
  // double-counted.
  Series stale;
  ASSERT_TRUE(stale.Append(series_[series_.size() - 1]).ok());
  EXPECT_TRUE((*chunked)->IngestSeries(stale).IsInvalidArgument());
  RemoveTestStore(chunked_path);
}

TEST_F(ExhTest, ColdCachePreservesResults) {
  ExhOptions options;
  options.window_s = 3600.0;
  auto exh = ExhIndex::Open(path_, options);
  ASSERT_TRUE((*exh)->IngestSeries(series_).ok());
  auto warm = (*exh)->SearchDrops(1800, -2.0);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE((*exh)->DropCaches().ok());
  auto cold = (*exh)->SearchDrops(1800, -2.0);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(warm->size(), cold->size());
}

TEST(NaiveTest, TinySeriesByHand) {
  Series series;
  ASSERT_TRUE(series.Append({0, 10}).ok());
  ASSERT_TRUE(series.Append({10, 6}).ok());   // drop 4 over 10
  ASSERT_TRUE(series.Append({20, 9}).ok());   // jump 3 over 10
  ASSERT_TRUE(series.Append({30, 2}).ok());   // drop 7 over 10
  NaiveSearcher naive(series);
  // Drops of >= 4 within 10s: (0,10) and (20,30).
  auto drops = naive.SearchDrops(10, -4.0);
  ASSERT_EQ(drops.size(), 2u);
  EXPECT_DOUBLE_EQ(drops[0].t_start, 0);
  EXPECT_DOUBLE_EQ(drops[1].t_start, 20);
  // Within 30s: also (0,30) with -8 and (10,30) with -4.
  drops = naive.SearchDrops(30, -4.0);
  EXPECT_EQ(drops.size(), 4u);
  // Jumps of >= 3 within 10s: (10,20).
  auto jumps = naive.SearchJumps(10, 3.0);
  ASSERT_EQ(jumps.size(), 1u);
  EXPECT_DOUBLE_EQ(jumps[0].t_start, 10);
  EXPECT_DOUBLE_EQ(jumps[0].dv, 3.0);
}

}  // namespace
}  // namespace segdiff
