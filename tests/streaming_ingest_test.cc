// Streaming-ingest contract tests: observation-at-a-time ingest is
// byte-identical to one-shot batch ingest (any chunking, one final
// flush), and ingest state survives close/reopen so appending resumes
// exactly where it left off. Stores written before ingest state was
// persisted are refused and left untouched.

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "common/coding.h"
#include "segdiff/exh_index.h"
#include "segdiff/segdiff_index.h"
#include "storage/db.h"
#include "ts/generator.h"

namespace segdiff {
namespace {

Series MakeSeries(int num_days, uint64_t seed = 20080325) {
  CadGeneratorOptions gen;
  gen.num_days = num_days;
  gen.cad_events_per_day = 1.0;
  gen.seed = seed;
  auto data = GenerateCadSeries(gen);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return std::move(data->series);
}

/// Raw records of one table, in heap (= insertion) order.
std::vector<std::string> TableRecords(Database* db, const std::string& name) {
  std::vector<std::string> records;
  auto table = db->GetTable(name);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  const size_t bytes = (*table)->schema().num_columns() * 8;
  Status scan = (*table)->Scan(
      [&](const char* record, RecordId, bool* keep_going) -> Status {
        *keep_going = true;
        records.emplace_back(record, bytes);
        return Status::OK();
      });
  EXPECT_TRUE(scan.ok()) << scan.ToString();
  return records;
}

/// Strips the ingest-state blob `key` through a raw database handle,
/// leaving tables and catalog only: the layout of a store written before
/// ingest state was persisted.
void EraseIngestState(const std::string& path, const std::string& key) {
  DatabaseOptions options;
  options.create_if_missing = false;
  auto raw = Database::Open(path, options);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_TRUE((*raw)->EraseMeta(key).value_or(false));
  ASSERT_TRUE((*raw)->Checkpoint().ok());
}

/// Asserts that `refused` is the NotSupported refusal of a store without
/// its ingest-state blob `key`, naming the file.
void ExpectNoIngestStateRefusal(const Status& refused, const std::string& path,
                                const std::string& key) {
  ASSERT_TRUE(refused.IsNotSupported()) << refused.ToString();
  const std::string message(refused.message());
  EXPECT_NE(message.find(path), std::string::npos) << message;
  EXPECT_NE(message.find("no '" + key + "' ingest-state blob"),
            std::string::npos)
      << message;
}

const char* const kSegDiffTables[] = {"segments", "drop1", "drop2", "drop3",
                                      "jump1",    "jump2", "jump3"};

/// Every SegDiff table of `actual` byte-identical to `expected`.
void ExpectSameTables(SegDiffIndex* actual, SegDiffIndex* expected) {
  for (const char* name : kSegDiffTables) {
    const std::vector<std::string> a = TableRecords(actual->db(), name);
    const std::vector<std::string> e = TableRecords(expected->db(), name);
    ASSERT_EQ(a.size(), e.size()) << "row count mismatch in " << name;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], e[i]) << "record " << i << " differs in " << name;
    }
  }
  EXPECT_EQ(actual->num_observations(), expected->num_observations());
  EXPECT_EQ(actual->num_segments(), expected->num_segments());
  const SegDiffSizes sa = actual->GetSizes();
  const SegDiffSizes se = expected->GetSizes();
  EXPECT_EQ(sa.feature_rows, se.feature_rows);
  EXPECT_EQ(sa.feature_bytes, se.feature_bytes);
}

void ExpectSameSearches(SegDiffIndex* actual, SegDiffIndex* expected) {
  for (const double T : {1800.0, 3600.0, 2 * 3600.0}) {
    auto a = actual->SearchDrops(T, -3.0);
    auto e = expected->SearchDrops(T, -3.0);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    EXPECT_EQ(*a, *e) << "drop results differ at T=" << T;
  }
}

class StreamingIngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    batch_path_ = UniqueTestPath("streaming", "_batch.db");
    stream_path_ = UniqueTestPath("streaming", "_stream.db");
    RemoveTestStore(batch_path_);
    RemoveTestStore(stream_path_);
    series_ = MakeSeries(4);
  }
  void TearDown() override {
    RemoveTestStore(batch_path_);
    RemoveTestStore(stream_path_);
  }

  std::unique_ptr<SegDiffIndex> OpenStore(const std::string& path,
                                          const SegDiffOptions& options) {
    auto store = SegDiffIndex::Open(path, options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return std::move(store).value();
  }

  /// The oracle: one-shot batch ingest of the whole series.
  std::unique_ptr<SegDiffIndex> BuildBatch(const SegDiffOptions& options) {
    auto store = OpenStore(batch_path_, options);
    Status ingest = store->IngestSeries(series_);
    EXPECT_TRUE(ingest.ok()) << ingest.ToString();
    return store;
  }

  std::string batch_path_;
  std::string stream_path_;
  Series series_;
};

TEST_F(StreamingIngestTest, ObservationAtATimeMatchesBatch) {
  SegDiffOptions options;
  auto batch = BuildBatch(options);
  auto stream = OpenStore(stream_path_, options);
  for (const Sample& sample : series_) {
    ASSERT_TRUE(stream->AppendObservation(sample.t, sample.v).ok());
  }
  ASSERT_TRUE(stream->FlushPending().ok());
  ExpectSameTables(stream.get(), batch.get());
  ExpectSameSearches(stream.get(), batch.get());
}

TEST_F(StreamingIngestTest, SearchableMidStreamWithoutFlush) {
  SegDiffOptions options;
  auto stream = OpenStore(stream_path_, options);
  // Append without ever flushing: everything but the open trailing
  // segment is already searchable, and no error surfaces mid-stream.
  for (size_t i = 0; i < series_.size() / 2; ++i) {
    ASSERT_TRUE(stream->AppendObservation(series_[i].t, series_[i].v).ok());
  }
  auto hits = stream->SearchDrops(3600.0, -3.0);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_GT(stream->num_segments(), 0u);
}

TEST_F(StreamingIngestTest, RandomChunksMatchBatch) {
  SegDiffOptions options;
  auto batch = BuildBatch(options);
  // Property: ANY chunking with one final flush is byte-identical to the
  // one-shot batch. Deterministic seed so failures reproduce.
  std::mt19937 rng(20080325);
  std::uniform_int_distribution<size_t> chunk_len(1, 97);
  auto stream = OpenStore(stream_path_, options);
  size_t pos = 0;
  while (pos < series_.size()) {
    const size_t len = std::min(chunk_len(rng), series_.size() - pos);
    if (len == 1) {
      ASSERT_TRUE(
          stream->AppendObservation(series_[pos].t, series_[pos].v).ok());
    } else {
      Series chunk;
      for (size_t i = pos; i < pos + len; ++i) {
        ASSERT_TRUE(chunk.Append(series_[i]).ok());
      }
      // AppendSeries (unlike IngestSeries) does not flush, so chunk
      // boundaries leave no trace in the segmentation.
      ASSERT_TRUE(stream->AppendSeries(chunk).ok());
    }
    pos += len;
  }
  ASSERT_TRUE(stream->FlushPending().ok());
  ExpectSameTables(stream.get(), batch.get());
  ExpectSameSearches(stream.get(), batch.get());
}

TEST_F(StreamingIngestTest, ChunkedIngestSeriesKeepsApproximationTight) {
  // IngestSeries flushes per call; the flushed boundary must still chain
  // segments contiguously (anchor = previous endpoint), keeping the
  // piecewise approximation gap-free across chunks.
  SegDiffOptions options;
  auto stream = OpenStore(stream_path_, options);
  const size_t half = series_.size() / 2;
  Series first, second;
  for (size_t i = 0; i < series_.size(); ++i) {
    ASSERT_TRUE((i < half ? first : second).Append(series_[i]).ok());
  }
  ASSERT_TRUE(stream->IngestSeries(first).ok());
  ASSERT_TRUE(stream->IngestSeries(second).ok());
  const std::vector<std::string> segments =
      TableRecords(stream->db(), "segments");
  ASSERT_GT(segments.size(), 1u);
  for (size_t i = 1; i < segments.size(); ++i) {
    const double prev_end_t = DecodeDouble(segments[i - 1].data() + 16);
    const double start_t = DecodeDouble(segments[i].data());
    EXPECT_EQ(prev_end_t, start_t) << "gap before segment " << i;
  }
}

TEST_F(StreamingIngestTest, ReopenResumesAppending) {
  SegDiffOptions options;
  auto batch = BuildBatch(options);
  const size_t half = series_.size() / 2;
  {
    auto stream = OpenStore(stream_path_, options);
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(stream->AppendObservation(series_[i].t, series_[i].v).ok());
    }
    ASSERT_TRUE(stream->Checkpoint().ok());
  }
  // Reopen with DEFAULT options: eps/window/collect flags come from the
  // store, and the open segment + pair window resume mid-flight.
  SegDiffOptions reopen;
  reopen.create_if_missing = false;
  auto stream = OpenStore(stream_path_, reopen);
  EXPECT_EQ(stream->num_observations(), half);
  for (size_t i = half; i < series_.size(); ++i) {
    ASSERT_TRUE(stream->AppendObservation(series_[i].t, series_[i].v).ok());
  }
  ASSERT_TRUE(stream->FlushPending().ok());
  ExpectSameTables(stream.get(), batch.get());
  ExpectSameSearches(stream.get(), batch.get());
}

TEST_F(StreamingIngestTest, DestructorPersistsIngestState) {
  SegDiffOptions options;
  auto batch = BuildBatch(options);
  const size_t half = series_.size() / 2;
  {
    auto stream = OpenStore(stream_path_, options);
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(stream->AppendObservation(series_[i].t, series_[i].v).ok());
    }
    // No explicit Checkpoint: destruction alone must persist the state.
  }
  SegDiffOptions reopen;
  reopen.create_if_missing = false;
  auto stream = OpenStore(stream_path_, reopen);
  EXPECT_EQ(stream->num_observations(), half);
  for (size_t i = half; i < series_.size(); ++i) {
    ASSERT_TRUE(stream->AppendObservation(series_[i].t, series_[i].v).ok());
  }
  ASSERT_TRUE(stream->FlushPending().ok());
  ExpectSameTables(stream.get(), batch.get());
}

TEST_F(StreamingIngestTest, ReopenAdoptsPersistedBuildParameters) {
  SegDiffOptions build;
  build.eps = 0.5;
  build.window_s = 4 * 3600.0;
  build.collect_jumps = false;
  build.build_indexes = false;
  {
    auto stream = OpenStore(stream_path_, build);
    ASSERT_TRUE(stream->IngestSeries(series_).ok());
  }
  SegDiffOptions reopen;  // defaults everywhere
  reopen.create_if_missing = false;
  auto stream = OpenStore(stream_path_, reopen);
  EXPECT_DOUBLE_EQ(stream->options().eps, 0.5);
  EXPECT_DOUBLE_EQ(stream->options().window_s, 4 * 3600.0);
  EXPECT_FALSE(stream->options().collect_jumps);
  EXPECT_TRUE(stream->options().collect_drops);
  EXPECT_FALSE(stream->options().build_indexes);
  // An index scan must be rejected, proving the adopted build_indexes
  // (not the passed default true) governs the search path.
  SearchOptions search;
  search.mode = QueryMode::kIndexScan;
  EXPECT_TRUE(
      stream->SearchDrops(3600.0, -3.0, search).status().IsInvalidArgument());
}

TEST_F(StreamingIngestTest, StoreWithoutIngestStateIsRefused) {
  {
    auto stream = OpenStore(stream_path_, SegDiffOptions{});
    Series first;
    for (size_t i = 0; i < series_.size() / 2; ++i) {
      ASSERT_TRUE(first.Append(series_[i]).ok());
    }
    ASSERT_TRUE(stream->IngestSeries(first).ok());
    // The store handle persists its state on destruction, so the blob is
    // stripped afterwards.
  }
  EraseIngestState(stream_path_, "segdiff.ingest");
  const std::string before = FileBytes(stream_path_);
  SegDiffOptions reopen;
  reopen.create_if_missing = false;
  auto refused = SegDiffIndex::Open(stream_path_, reopen);
  ExpectNoIngestStateRefusal(refused.status(), stream_path_,
                             "segdiff.ingest");
  EXPECT_EQ(FileBytes(stream_path_), before);
}

TEST_F(StreamingIngestTest, StaleTimestampRejected) {
  SegDiffOptions options;
  auto stream = OpenStore(stream_path_, options);
  ASSERT_TRUE(stream->AppendObservation(1000.0, 12.0).ok());
  ASSERT_TRUE(stream->AppendObservation(1300.0, 12.1).ok());
  EXPECT_TRUE(stream->AppendObservation(1300.0, 12.2).IsInvalidArgument());
  EXPECT_TRUE(stream->AppendObservation(900.0, 12.2).IsInvalidArgument());
}

TEST_F(StreamingIngestTest, IngestStateSurvivesCompaction) {
  SegDiffOptions options;
  const size_t half = series_.size() / 2;
  {
    auto stream = OpenStore(stream_path_, options);
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(stream->AppendObservation(series_[i].t, series_[i].v).ok());
    }
    // Deliberately no Checkpoint first: Compact() itself must save the
    // ingest state, so the compacted store is a consistent resume point
    // even when compaction races ahead of any explicit checkpoint.
    ASSERT_TRUE(stream->Compact(batch_path_ + ".compact").ok());
  }
  SegDiffOptions reopen;
  reopen.create_if_missing = false;
  auto compacted = OpenStore(batch_path_ + ".compact", reopen);
  EXPECT_EQ(compacted->num_observations(), half);
  ASSERT_TRUE(
      compacted->AppendObservation(series_[half].t, series_[half].v).ok());
  compacted.reset();  // closing writes the log; remove the store after
  RemoveTestStore(batch_path_ + ".compact");
}

TEST_F(StreamingIngestTest, CorruptIngestStateFailsOpenCleanly) {
  SegDiffOptions options;
  {
    auto stream = OpenStore(stream_path_, options);
    for (size_t i = 0; i < series_.size() / 2; ++i) {
      ASSERT_TRUE(stream->AppendObservation(series_[i].t, series_[i].v).ok());
    }
  }
  const std::string garbage = "garbage";
  {
    DatabaseOptions raw_options;
    raw_options.create_if_missing = false;
    auto raw = Database::Open(stream_path_, raw_options);
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    (*raw)->PutMeta("segdiff.ingest", garbage);
    ASSERT_TRUE((*raw)->Checkpoint().ok());
  }
  SegDiffOptions reopen;
  reopen.create_if_missing = false;
  // The corruption surfaces as a clean error — no crash in the
  // partially-built index's destructor...
  auto failed = SegDiffIndex::Open(stream_path_, reopen);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsCorruption()) << failed.status().ToString();
  // ...and the failed open left the store byte-for-byte alone: the bad
  // blob is still there to diagnose, not silently replaced by a default
  // state that would mask the corruption on the next open.
  DatabaseOptions raw_options;
  raw_options.create_if_missing = false;
  auto raw = Database::Open(stream_path_, raw_options);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  auto blob = (*raw)->GetMeta("segdiff.ingest");
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  EXPECT_EQ(*blob, garbage);
}

// ---------------------------------------------------------------------
// Exh baseline: same streaming + resume contract, one table.

class ExhStreamingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    batch_path_ = UniqueTestPath("exh_streaming", "_batch.db");
    stream_path_ = UniqueTestPath("exh_streaming", "_stream.db");
    RemoveTestStore(batch_path_);
    RemoveTestStore(stream_path_);
    series_ = MakeSeries(2);
  }
  void TearDown() override {
    RemoveTestStore(batch_path_);
    RemoveTestStore(stream_path_);
  }

  std::unique_ptr<ExhIndex> OpenStore(const std::string& path,
                                      const ExhOptions& options) {
    auto store = ExhIndex::Open(path, options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return std::move(store).value();
  }

  void ExpectSameExhTables(ExhIndex* actual, ExhIndex* expected) {
    const std::vector<std::string> a = TableRecords(actual->db(), "exh");
    const std::vector<std::string> e = TableRecords(expected->db(), "exh");
    ASSERT_EQ(a.size(), e.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], e[i]) << "exh record " << i << " differs";
    }
    EXPECT_EQ(actual->num_observations(), expected->num_observations());
  }

  std::string batch_path_;
  std::string stream_path_;
  Series series_;
};

TEST_F(ExhStreamingTest, ObservationAtATimeMatchesBatch) {
  ExhOptions options;
  options.window_s = 3600.0;  // keep the O(n * n_w) table small
  auto batch = OpenStore(batch_path_, options);
  ASSERT_TRUE(batch->IngestSeries(series_).ok());
  auto stream = OpenStore(stream_path_, options);
  for (const Sample& sample : series_) {
    ASSERT_TRUE(stream->AppendObservation(sample.t, sample.v).ok());
  }
  ASSERT_TRUE(stream->FlushPending().ok());  // no-op, but part of the API
  ExpectSameExhTables(stream.get(), batch.get());
}

TEST_F(ExhStreamingTest, ReopenResumesAppending) {
  ExhOptions options;
  options.window_s = 3600.0;
  auto batch = OpenStore(batch_path_, options);
  ASSERT_TRUE(batch->IngestSeries(series_).ok());
  const size_t half = series_.size() / 2;
  {
    auto stream = OpenStore(stream_path_, options);
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(stream->AppendObservation(series_[i].t, series_[i].v).ok());
    }
    // Destructor persists the window.
  }
  ExhOptions reopen;  // window_s adopted from the store
  auto stream = OpenStore(stream_path_, reopen);
  EXPECT_EQ(stream->num_observations(), half);
  EXPECT_DOUBLE_EQ(stream->options().window_s, 3600.0);
  for (size_t i = half; i < series_.size(); ++i) {
    ASSERT_TRUE(stream->AppendObservation(series_[i].t, series_[i].v).ok());
  }
  ExpectSameExhTables(stream.get(), batch.get());
}

TEST_F(ExhStreamingTest, CorruptIngestStateFailsOpenCleanly) {
  ExhOptions options;
  options.window_s = 3600.0;
  {
    auto stream = OpenStore(stream_path_, options);
    for (size_t i = 0; i < series_.size() / 2; ++i) {
      ASSERT_TRUE(stream->AppendObservation(series_[i].t, series_[i].v).ok());
    }
  }
  const std::string garbage = "garbage";
  {
    DatabaseOptions raw_options;
    raw_options.create_if_missing = false;
    auto raw = Database::Open(stream_path_, raw_options);
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    (*raw)->PutMeta("exh.ingest", garbage);
    ASSERT_TRUE((*raw)->Checkpoint().ok());
  }
  auto failed = ExhIndex::Open(stream_path_, options);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsCorruption()) << failed.status().ToString();
  // The failed open neither crashed nor replaced the bad blob with a
  // default (empty-window) state.
  DatabaseOptions raw_options;
  raw_options.create_if_missing = false;
  auto raw = Database::Open(stream_path_, raw_options);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  auto blob = (*raw)->GetMeta("exh.ingest");
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  EXPECT_EQ(*blob, garbage);
}

TEST_F(ExhStreamingTest, StoreWithoutIngestStateIsRefused) {
  ExhOptions options;
  options.window_s = 3600.0;
  {
    auto stream = OpenStore(stream_path_, options);
    for (size_t i = 0; i < series_.size() / 2; ++i) {
      ASSERT_TRUE(stream->AppendObservation(series_[i].t, series_[i].v).ok());
    }
  }
  EraseIngestState(stream_path_, "exh.ingest");
  const std::string before = FileBytes(stream_path_);
  auto refused = ExhIndex::Open(stream_path_, options);
  ExpectNoIngestStateRefusal(refused.status(), stream_path_, "exh.ingest");
  EXPECT_EQ(FileBytes(stream_path_), before);
}

}  // namespace
}  // namespace segdiff
