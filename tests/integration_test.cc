// End-to-end integration: the full production workflow on a realistic
// feed — packet loss and spike anomalies, outage splitting, robust
// smoothing, one store fed chunk by chunk, searches on every access
// path, Theorem-1 verification against the oracle, episode drill-down,
// checkpoint + reopen, compaction, and SQL introspection of the store.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "query/predicate.h"
#include "segdiff/episodes.h"
#include "segdiff/naive.h"
#include "segdiff/segdiff_index.h"
#include "segdiff/verify.h"
#include "sql/engine.h"
#include "ts/generator.h"
#include "ts/resample.h"
#include "ts/smoothing.h"

namespace segdiff {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("segdiff_integration");
    compact_path_ = UniqueTestPath("segdiff_integration_compact");
    RemoveTestStore(path_);
    RemoveTestStore(compact_path_);
  }
  void TearDown() override {
    RemoveTestStore(path_);
    RemoveTestStore(compact_path_);
  }
  std::string path_;
  std::string compact_path_;
};

TEST_F(IntegrationTest, FullWorkflow) {
  // 1. A dirty feed: 8 days, 2% packet loss, occasional spikes.
  CadGeneratorOptions gen;
  gen.num_days = 8;
  gen.cad_events_per_day = 0.8;
  gen.missing_probability = 0.02;
  gen.spike_probability = 0.002;
  auto data = GenerateCadSeries(gen);
  ASSERT_TRUE(data.ok());

  // 2. Split at outages, de-spike and smooth each chunk.
  const auto chunks = SplitAtGaps(data->series, 1800.0);
  ASSERT_FALSE(chunks.empty());
  std::vector<Series> cleaned;
  Series indexed_concat;  // what the store actually saw, for the oracle
  for (const Series& chunk : chunks) {
    if (chunk.size() < 10) {
      continue;  // too short to smooth/segment meaningfully
    }
    auto filtered = HampelFilter(chunk, HampelOptions{});
    ASSERT_TRUE(filtered.ok());
    LoessOptions loess;
    loess.bandwidth_s = 1500.0;
    auto smoothed = RobustLoess(*filtered, loess);
    ASSERT_TRUE(smoothed.ok());
    for (const Sample& sample : *smoothed) {
      ASSERT_TRUE(indexed_concat.Append(sample).ok());
    }
    cleaned.push_back(std::move(smoothed).value());
  }
  ASSERT_GE(indexed_concat.size(), 8u * 250u);

  // 3. One store, fed chunk by chunk (streaming, online).
  SegDiffOptions options;
  options.eps = 0.2;
  options.window_s = 6 * 3600.0;
  auto store = SegDiffIndex::Open(path_, options);
  ASSERT_TRUE(store.ok());
  for (const Series& chunk : cleaned) {
    ASSERT_TRUE((*store)->IngestSeries(chunk).ok());
  }
  EXPECT_EQ((*store)->num_observations(), indexed_concat.size());

  // 4. Search on every access path; results agree and uphold Theorem 1
  //    against the oracle over exactly what was indexed.
  const double T = 3600.0;
  const double V = -3.0;
  SearchOptions seq;
  SearchOptions idx;
  idx.mode = QueryMode::kIndexScan;
  auto drops_seq = (*store)->SearchDrops(T, V, seq);
  auto drops_idx = (*store)->SearchDrops(T, V, idx);
  ASSERT_TRUE(drops_seq.ok());
  ASSERT_TRUE(drops_idx.ok());
  ASSERT_EQ(drops_seq->size(), drops_idx->size());
  ASSERT_FALSE(drops_seq->empty());

  NaiveSearcher oracle(indexed_concat);
  const auto true_events = oracle.SearchDrops(T, V);
  EXPECT_TRUE(CheckCoverage(true_events, *drops_seq).AllCovered());
  auto violations = FindToleranceViolations(indexed_concat, *drops_seq, T, V,
                                            options.eps, SearchKind::kDrop);
  ASSERT_TRUE(violations.ok());
  EXPECT_TRUE(violations->empty());

  // 5. Drill down: coalesce into episodes and refine the steepest event
  //    of the strongest episode.
  const auto episodes = CoalesceEpisodes(*drops_seq, 1800.0);
  ASSERT_FALSE(episodes.empty());
  EXPECT_LT(episodes.size(), drops_seq->size());
  auto refined = RefineDrop(
      indexed_concat,
      PairId{episodes[0].t_begin, episodes[0].t_end, episodes[0].t_begin,
             episodes[0].t_end},
      T);
  ASSERT_TRUE(refined.ok());
  ASSERT_TRUE(refined->feasible);
  EXPECT_LE(refined->dv, V + 2 * options.eps + 1e-9);

  // 6. Durability: checkpoint, reopen, identical answers.
  ASSERT_TRUE((*store)->Checkpoint().ok());
  const uint64_t rows_before = (*store)->GetSizes().feature_rows;
  store->reset();
  auto reopened = SegDiffIndex::Open(path_, options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->GetSizes().feature_rows, rows_before);
  auto drops_reopened = (*reopened)->SearchDrops(T, V, seq);
  ASSERT_TRUE(drops_reopened.ok());
  ASSERT_EQ(drops_reopened->size(), drops_seq->size());
  for (size_t i = 0; i < drops_seq->size(); ++i) {
    EXPECT_EQ((*drops_reopened)[i], (*drops_seq)[i]);
  }

  // 7. Compaction shrinks the file (extent slack, and the B+-trees the
  //    columnar copy no longer carries) and preserves answers. The
  //    compacted store has no index to scan.
  ASSERT_TRUE((*reopened)->Compact(compact_path_).ok());
  auto compacted = SegDiffIndex::Open(compact_path_, options);
  ASSERT_TRUE(compacted.ok());
  EXPECT_LE((*compacted)->GetSizes().file_bytes,
            (*reopened)->GetSizes().file_bytes);
  EXPECT_EQ((*compacted)->GetSizes().index_bytes, 0u);
  EXPECT_TRUE(
      (*compacted)->SearchDrops(T, V, idx).status().IsInvalidArgument());
  auto drops_compacted = (*compacted)->SearchDrops(T, V, seq);
  ASSERT_TRUE(drops_compacted.ok());
  EXPECT_EQ(*drops_compacted, *drops_seq);

  // 8. SQL introspection agrees with the library's own accounting.
  sql::Engine engine((*compacted)->db());
  auto counts = engine.Execute(
      "SELECT COUNT(*) FROM segments");
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ(static_cast<uint64_t>(counts->rows[0][0].i),
            (*compacted)->num_segments());
  uint64_t feature_rows = 0;
  for (const char* table :
       {"drop1", "drop2", "drop3", "jump1", "jump2", "jump3"}) {
    auto one = engine.Execute(std::string("SELECT COUNT(*) FROM ") + table);
    ASSERT_TRUE(one.ok()) << table;
    feature_rows += static_cast<uint64_t>(one->rows[0][0].i);
  }
  EXPECT_EQ(feature_rows, (*compacted)->GetSizes().feature_rows);
  // The paper's point query, written as SQL against both stores: the
  // row store walks its index, the columnar copy scans, same count.
  const char* point_query =
      "SELECT COUNT(*) FROM drop1 WHERE dt1 <= 3600 AND dv1 <= -3";
  auto sql_drops = engine.Execute(point_query);
  ASSERT_TRUE(sql_drops.ok());
  EXPECT_EQ(sql_drops->access_path, "seq_scan");
  sql::Engine row_engine((*reopened)->db());
  auto row_drops = row_engine.Execute(point_query);
  ASSERT_TRUE(row_drops.ok());
  EXPECT_NE(row_drops->access_path.find("index_scan"), std::string::npos);
  EXPECT_EQ(sql_drops->rows[0][0].i, row_drops->rows[0][0].i);
}

TEST_F(IntegrationTest, JumpWorkflowAndWindowBounds) {
  CadGeneratorOptions gen;
  gen.num_days = 4;
  auto data = GenerateCadSeries(gen);
  ASSERT_TRUE(data.ok());
  SegDiffOptions options;
  options.eps = 0.3;
  options.window_s = 3 * 3600.0;
  auto store = SegDiffIndex::Open(path_, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->IngestSeries(data->series).ok());

  // Morning warm-up produces jumps; verify against the oracle.
  NaiveSearcher oracle(data->series);
  for (double T : {1800.0, 2.5 * 3600.0}) {
    auto jumps = (*store)->SearchJumps(T, 2.0);
    ASSERT_TRUE(jumps.ok());
    EXPECT_TRUE(
        CheckCoverage(oracle.SearchJumps(T, 2.0), *jumps).AllCovered());
  }
  // T beyond w is rejected, exactly at w accepted.
  EXPECT_TRUE((*store)
                  ->SearchJumps(3 * 3600.0 + 1, 2.0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE((*store)->SearchJumps(3 * 3600.0, 2.0).ok());
}

}  // namespace
}  // namespace segdiff
