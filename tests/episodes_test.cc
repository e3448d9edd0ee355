// Tests for episode coalescing and event refinement, including an
// end-to-end drill-down over a search result.

#include <gtest/gtest.h>

#include "test_paths.h"

#include "segdiff/episodes.h"
#include "segdiff/segdiff_index.h"
#include "segdiff/verify.h"
#include "ts/generator.h"

namespace segdiff {
namespace {

TEST(EpisodesTest, EmptyInput) {
  EXPECT_TRUE(CoalesceEpisodes({}).empty());
}

TEST(EpisodesTest, MergesOverlapsKeepsGaps) {
  std::vector<PairId> pairs = {
      {0, 10, 20, 30},     // span [0, 30]
      {25, 28, 35, 40},    // overlaps -> extends to 40
      {100, 110, 115, 120} // separate episode
  };
  auto episodes = CoalesceEpisodes(pairs);
  ASSERT_EQ(episodes.size(), 2u);
  EXPECT_DOUBLE_EQ(episodes[0].t_begin, 0);
  EXPECT_DOUBLE_EQ(episodes[0].t_end, 40);
  EXPECT_EQ(episodes[0].pair_count, 2u);
  EXPECT_DOUBLE_EQ(episodes[1].t_begin, 100);
  EXPECT_EQ(episodes[1].pair_count, 1u);
}

TEST(EpisodesTest, GapParameterBridges) {
  std::vector<PairId> pairs = {{0, 5, 8, 10}, {15, 18, 20, 25}};
  EXPECT_EQ(CoalesceEpisodes(pairs, 0.0).size(), 2u);
  EXPECT_EQ(CoalesceEpisodes(pairs, 5.0).size(), 1u);
}

TEST(EpisodesTest, UnsortedInputHandled) {
  std::vector<PairId> pairs = {{100, 110, 115, 120}, {0, 10, 20, 30}};
  auto episodes = CoalesceEpisodes(pairs);
  ASSERT_EQ(episodes.size(), 2u);
  EXPECT_LT(episodes[0].t_begin, episodes[1].t_begin);
}

TEST(EpisodesTest, ContainedPairDoesNotShrinkEpisode) {
  std::vector<PairId> pairs = {
      {0, 10, 90, 100},  // long span
      {20, 25, 30, 35},  // contained
      {50, 55, 60, 65},  // contained
  };
  auto episodes = CoalesceEpisodes(pairs);
  ASSERT_EQ(episodes.size(), 1u);
  EXPECT_DOUBLE_EQ(episodes[0].t_end, 100);
  EXPECT_EQ(episodes[0].pair_count, 3u);
}

TEST(RefineTest, FindsSteepestDropArg) {
  // Fall of slope -1 over [10, 20], flat elsewhere.
  Series series;
  ASSERT_TRUE(series.Append({0, 10}).ok());
  ASSERT_TRUE(series.Append({10, 10}).ok());
  ASSERT_TRUE(series.Append({20, 0}).ok());
  ASSERT_TRUE(series.Append({30, 0}).ok());
  PairId pair{0, 30, 0, 30};
  auto refined = RefineDrop(series, pair, 30.0);
  ASSERT_TRUE(refined.ok());
  ASSERT_TRUE(refined->feasible);
  EXPECT_NEAR(refined->dv, -10.0, 1e-9);
  // The steepest drop spans the falling ramp.
  EXPECT_LE(refined->t_start, 10.0);
  EXPECT_GE(refined->t_end, 20.0);
  EXPECT_LE(refined->t_end - refined->t_start, 30.0);

  // Constrained T picks a sub-ramp of exactly T.
  auto tight = RefineDrop(series, pair, 5.0);
  ASSERT_TRUE(tight.ok());
  EXPECT_NEAR(tight->dv, -5.0, 1e-9);
  EXPECT_NEAR(tight->t_end - tight->t_start, 5.0, 1e-9);
}

TEST(RefineTest, JumpMirrors) {
  Series series;
  ASSERT_TRUE(series.Append({0, 0}).ok());
  ASSERT_TRUE(series.Append({10, 7}).ok());
  PairId pair{0, 10, 0, 10};
  auto refined = RefineJump(series, pair, 10.0);
  ASSERT_TRUE(refined.ok());
  ASSERT_TRUE(refined->feasible);
  EXPECT_NEAR(refined->dv, 7.0, 1e-9);
}

TEST(RefineTest, InfeasibleReported) {
  Series series;
  ASSERT_TRUE(series.Append({0, 0}).ok());
  ASSERT_TRUE(series.Append({100, 5}).ok());
  PairId pair{0, 10, 90, 100};
  auto refined = RefineDrop(series, pair, 5.0);  // 80s gap > T
  ASSERT_TRUE(refined.ok());
  EXPECT_FALSE(refined->feasible);
}

TEST(RefineTest, EndToEndDrillDown) {
  CadGeneratorOptions gen;
  gen.num_days = 3;
  gen.cad_events_per_day = 1.0;
  auto data = GenerateCadSeries(gen);
  ASSERT_TRUE(data.ok());
  const std::string path = UniqueTestPath("segdiff_episodes_e2e");
  RemoveTestStore(path);
  SegDiffOptions options;
  options.window_s = 4 * 3600.0;
  auto index = SegDiffIndex::Open(path, options);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE((*index)->IngestSeries(data->series).ok());
  auto pairs = (*index)->SearchDrops(3600.0, -3.0);
  ASSERT_TRUE(pairs.ok());
  ASSERT_FALSE(pairs->empty());

  // Coalescing drastically reduces the result count and episode count
  // is at most the injected event count plus a small margin.
  auto episodes = CoalesceEpisodes(*pairs, 1800.0);
  EXPECT_LT(episodes.size(), pairs->size());
  EXPECT_LE(episodes.size(), data->drops.size() + 3);

  // Refinement inside every returned pair confirms Lemma 5 numerically:
  // the best event is within 2 eps of the threshold.
  for (const PairId& pair : *pairs) {
    auto refined = RefineDrop(data->series, pair, 3600.0);
    ASSERT_TRUE(refined.ok());
    ASSERT_TRUE(refined->feasible);
    EXPECT_LE(refined->dv, -3.0 + 2 * options.eps + 1e-9);
    EXPECT_GE(refined->t_start, pair.t_d - 1e-9);
    EXPECT_LE(refined->t_end, pair.t_a + 1e-9);
  }
  RemoveTestStore(path);
}

}  // namespace
}  // namespace segdiff
