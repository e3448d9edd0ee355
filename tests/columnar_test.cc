// Row-vs-columnar differential suite.
//
// The columnar format's contract (DESIGN.md §12): every decode
// reproduces the exact bit pattern that was encoded, so a query over a
// compacted (columnar) store returns byte-identical records — in the
// same order — as the same query over the original row store, with
// ScanStats that account for every row either scanned or pruned.
// Corruption detection survives compression: a damaged chain page fails
// the scan even when segment-level pruning would skip its rows.
//
// Layers under test, bottom-up: the encoders (bit-exact roundtrip over
// adversarial doubles), ColumnStore append/reopen (catalog v3), the
// rule that no index addresses a columnar row, and the executor's
// columnar path (serial, parallel, count-only, and SQL end-to-end)
// against the row format as the oracle.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "common/random.h"
#include "common/thread_pool.h"
#include "common/vfs.h"
#include "query/executor.h"
#include "query/scan_kernel.h"
#include "sql/engine.h"
#include "storage/column_page.h"
#include "storage/db.h"
#include "storage/record.h"

namespace segdiff {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Encoder roundtrip: bit-exact over every value class.

/// Encodes `cols` column vectors as one segment and decodes every column
/// back, comparing bit patterns (so NaN payloads and -0.0 count).
void ExpectRoundTrip(const std::vector<std::vector<double>>& cols) {
  const size_t num_columns = cols.size();
  const size_t rows = cols[0].size();
  std::vector<char> records(rows * num_columns * 8);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < num_columns; ++c) {
      std::memcpy(&records[(r * num_columns + c) * 8], &cols[c][r], 8);
    }
  }
  const std::string blob =
      EncodeColumnSegment(records.data(), num_columns, rows);
  ASSERT_FALSE(blob.empty());

  // Parse the blob the way ColumnSegmentHandle does: 16-byte header,
  // then 32-byte directory entries, then payloads.
  ASSERT_GE(blob.size(), 16 + 32 * num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    const char* e = blob.data() + 16 + 32 * c;
    ColumnDirEntry dir;
    dir.encoding = static_cast<ColumnEncoding>(e[0]);
    dir.scale_log10 = static_cast<uint8_t>(e[1]);
    std::memcpy(&dir.bit_width, e + 2, 2);
    std::memcpy(&dir.payload_bytes, e + 4, 4);
    std::memcpy(&dir.base, e + 8, 8);
    std::memcpy(&dir.min, e + 16, 8);
    std::memcpy(&dir.max, e + 24, 8);
    // Payload offset: sum of the previous columns' payloads.
    uint64_t offset = 16 + 32 * num_columns;
    for (size_t p = 0; p < c; ++p) {
      uint32_t bytes = 0;
      std::memcpy(&bytes, blob.data() + 16 + 32 * p + 4, 4);
      offset += bytes;
    }
    // Cursors load whole words, so like ColumnSegmentHandle hand them
    // the payload followed by 8 readable bytes of slack.
    ASSERT_LE(offset + dir.payload_bytes, blob.size());
    std::string payload(blob.data() + offset, dir.payload_bytes);
    payload.append(8, '\0');
    ColumnCursor cursor(&dir, payload.data(), rows);
    std::vector<double> decoded(rows);
    cursor.Decode(rows, decoded.data());
    for (size_t r = 0; r < rows; ++r) {
      uint64_t want = 0, got = 0;
      std::memcpy(&want, &cols[c][r], 8);
      std::memcpy(&got, &decoded[r], 8);
      ASSERT_EQ(got, want)
          << "column " << c << " row " << r << " ("
          << ColumnEncodingName(dir.encoding) << "): " << cols[c][r]
          << " decoded as " << decoded[r];
    }
  }
}

TEST(ColumnEncodingTest, DecimalGridColumnsRoundTripExactly) {
  std::vector<double> seconds, centi;
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    seconds.push_back(std::round(rng.Uniform(0.0, 1e6)));
    centi.push_back(std::round(rng.Uniform(-500.0, 500.0) * 100.0) / 100.0);
  }
  ExpectRoundTrip({seconds, centi});
}

TEST(ColumnEncodingTest, MonotoneTimesRoundTripExactly) {
  std::vector<double> t;
  double base = 1.2e9;
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    base += std::round(rng.Uniform(1.0, 120.0));
    t.push_back(base);
  }
  ExpectRoundTrip({t});
}

TEST(ColumnEncodingTest, AdversarialDoublesRoundTripExactly) {
  // NaN (two payloads), infinities, -0.0, denormals, random mantissas:
  // nothing on a decimal grid, so the encoder must fall back to
  // xor/raw — and still be bit-exact.
  std::vector<double> values = {0.0,  -0.0, kNaN, -kNaN, kInf, -kInf,
                                5e-324, -5e-324, 1.0 + 1e-15};
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    values.push_back(rng.Uniform(-1.0, 1.0) * 1e300);
  }
  ExpectRoundTrip({values});
}

TEST(ColumnEncodingTest, SingleRowAndConstantColumns) {
  ExpectRoundTrip({{42.0}, {kNaN}, {-0.0}});
  ExpectRoundTrip({std::vector<double>(300, 7.5),
                   std::vector<double>(300, kNaN)});
}

TEST(ColumnEncodingTest, CompressesSensorShapedData) {
  const size_t rows = 4096;
  std::vector<char> records(rows * 2 * 8);
  Rng rng(4);
  double t = 0.0;
  for (size_t r = 0; r < rows; ++r) {
    t += std::round(rng.Uniform(30.0, 90.0));
    double dv = std::round(rng.Uniform(-8.0, 8.0) * 100.0) / 100.0;
    if (dv == 0.0) dv = 0.0;  // -0.0 is off the decimal grid by design
    std::memcpy(&records[r * 16], &t, 8);
    std::memcpy(&records[r * 16 + 8], &dv, 8);
  }
  const std::string blob = EncodeColumnSegment(records.data(), 2, rows);
  EXPECT_LT(blob.size(), records.size() / 2)
      << "sensor-shaped data must compress at least 2x";
}

// ---------------------------------------------------------------------------
// Differential fixture: the same rows in a row store and its compacted
// (columnar) twin; every query must agree byte for byte.

class ColumnarDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    row_path_ = UniqueTestPath("columnar", "_row.db");
    col_path_ = UniqueTestPath("columnar", "_col.db");
    RemoveTestStore(row_path_);
    RemoveTestStore(col_path_);
  }
  void TearDown() override {
    row_db_.reset();
    col_db_.reset();
    RemoveTestStore(row_path_);
    RemoveTestStore(col_path_);
  }

  /// Builds the row store from `rows`, compacts it into the columnar
  /// twin, and opens both. The row store keeps its original row format
  /// (CompactOptions{.columnar = false}) so it stays the oracle.
  void Build(const std::vector<std::vector<double>>& rows,
             const std::vector<std::string>& columns = {"dt", "dv"}) {
    auto db = Database::Open(row_path_, DatabaseOptions{});
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto schema = DoubleSchema(columns);
    ASSERT_TRUE(schema.ok());
    auto table = (*db)->CreateTable("f", *schema);
    ASSERT_TRUE(table.ok());
    for (const std::vector<double>& row : rows) {
      ASSERT_TRUE((*table)->InsertDoubles(row).ok());
    }
    ASSERT_TRUE((*table)->EnsureZoneMap().ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    ASSERT_TRUE((*db)->CompactInto(col_path_).ok());
    row_db_ = std::move(db).value();

    DatabaseOptions reopen;
    reopen.create_if_missing = false;
    auto col = Database::Open(col_path_, reopen);
    ASSERT_TRUE(col.ok()) << col.status().ToString();
    col_db_ = std::move(col).value();

    auto row_table = row_db_->GetTable("f");
    auto col_table = col_db_->GetTable("f");
    ASSERT_TRUE(row_table.ok());
    ASSERT_TRUE(col_table.ok());
    row_table_ = *row_table;
    col_table_ = *col_table;
    if (!rows.empty()) {
      ASSERT_NE(col_table_->columnar(), nullptr)
          << "compaction did not convert to columnar";
      EXPECT_EQ(col_table_->columnar()->row_count(), rows.size());
      EXPECT_EQ(col_table_->heap_meta().record_count, 0u);
    }
    ASSERT_TRUE(col_table_->EnsureZoneMap().ok());
  }

  /// All matching records (raw bytes, scan order) plus stats.
  static std::vector<std::string> Matches(const Table& table,
                                          const Predicate& predicate,
                                          const SeqScanOptions& options,
                                          ScanStats* stats) {
    std::vector<std::string> out;
    const size_t bytes = table.schema().num_columns() * 8;
    Status status = SeqScan(
        table, predicate,
        [&](const char* record, RecordId) {
          out.emplace_back(record, bytes);
          return Status::OK();
        },
        stats, options);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return out;
  }

  /// Differential check of one predicate across both stores and every
  /// execution strategy (row-at-a-time, batch, batch+prune, parallel,
  /// count-only). The row store's plain batch scan is the oracle.
  void ExpectSameResults(const Predicate& predicate) {
    const SeqScanOptions kStrategies[] = {
        SeqScanOptions{/*batch=*/false, /*prune=*/false},
        SeqScanOptions{/*batch=*/true, /*prune=*/false},
        SeqScanOptions{/*batch=*/true, /*prune=*/true},
    };
    ScanStats oracle_stats;
    const std::vector<std::string> oracle =
        Matches(*row_table_, predicate, kStrategies[1], &oracle_stats);

    for (const SeqScanOptions& options : kStrategies) {
      for (Table* table : {row_table_, col_table_}) {
        const char* label = table == row_table_ ? "row" : "columnar";
        ScanStats stats;
        const std::vector<std::string> got =
            Matches(*table, predicate, options, &stats);
        ASSERT_EQ(got.size(), oracle.size())
            << label << " batch=" << options.batch
            << " prune=" << options.prune;
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], oracle[i])
              << label << " record " << i << " differs (batch="
              << options.batch << " prune=" << options.prune << ")";
        }
        EXPECT_EQ(stats.rows_matched, oracle_stats.rows_matched) << label;
        // Every row is accounted for: scanned or pruned, never dropped.
        EXPECT_EQ(stats.rows_scanned + stats.rows_pruned,
                  row_table_->row_count())
            << label << " prune=" << options.prune;

        // A count-only scan (null callback) of the same strategy agrees
        // with the materializing scan's stats exactly.
        ScanStats count_stats;
        ASSERT_TRUE(
            SeqScan(*table, predicate, nullptr, &count_stats, options).ok());
        EXPECT_EQ(count_stats.rows_matched, stats.rows_matched) << label;
        EXPECT_EQ(count_stats.rows_scanned, stats.rows_scanned) << label;
        EXPECT_EQ(count_stats.rows_pruned, stats.rows_pruned) << label;
        EXPECT_EQ(count_stats.pages_scanned, stats.pages_scanned) << label;
        EXPECT_EQ(count_stats.pages_pruned, stats.pages_pruned) << label;
      }
    }

    // Parallel == serial on the columnar store, for every partitioning.
    ThreadPool pool(3);
    const size_t bytes = col_table_->schema().num_columns() * 8;
    for (const size_t partitions : {2u, 4u, 7u}) {
      std::vector<std::vector<std::string>> outs(partitions);
      ScanStats parallel_stats;
      ASSERT_TRUE(ParallelSeqScan(
                      *col_table_, predicate, &pool, partitions,
                      [&outs, bytes](size_t p) -> RowCallback {
                        auto* sink = &outs[p];
                        return [sink, bytes](const char* record, RecordId) {
                          sink->emplace_back(record, bytes);
                          return Status::OK();
                        };
                      },
                      &parallel_stats)
                      .ok());
      std::vector<std::string> merged;
      for (const auto& part : outs) {
        merged.insert(merged.end(), part.begin(), part.end());
      }
      ASSERT_EQ(merged, oracle) << partitions << " partitions";
      EXPECT_EQ(parallel_stats.rows_matched, oracle_stats.rows_matched);
    }
  }

  std::string row_path_, col_path_;
  std::unique_ptr<Database> row_db_, col_db_;
  Table* row_table_ = nullptr;
  Table* col_table_ = nullptr;
};

std::vector<std::vector<double>> SensorRows(size_t n, uint64_t seed = 11) {
  std::vector<std::vector<double>> rows;
  Rng rng(seed);
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    t += std::round(rng.Uniform(30.0, 90.0));
    rows.push_back(
        {t, std::round(rng.Uniform(-8.0, 8.0) * 100.0) / 100.0});
  }
  return rows;
}

TEST_F(ColumnarDifferentialTest, IdenticalResultsAcrossFormats) {
  Build(SensorRows(10000));
  for (const double bound : {-7.9, -3.0, 0.0, 3.0, 1e9}) {
    Predicate predicate;
    predicate.And(1, CmpOp::kLe, bound);
    ExpectSameResults(predicate);
  }
  Predicate conjunction;
  conjunction.And(0, CmpOp::kLe, 200000.0).And(1, CmpOp::kGe, 2.0);
  ExpectSameResults(conjunction);
  Predicate nothing;  // empty predicate: full scan
  ExpectSameResults(nothing);
}

TEST_F(ColumnarDifferentialTest, NanColumnsNeverMatchInEitherFormat) {
  // Every 7th dv is NaN; NaN fails every ordered comparison, in the
  // bitmap kernels and in the columnar decode path alike.
  std::vector<std::vector<double>> rows = SensorRows(5000, 13);
  for (size_t i = 0; i < rows.size(); i += 7) {
    rows[i][1] = kNaN;
  }
  Build(rows);
  ASSERT_NE(col_table_->columnar(), nullptr);
  EXPECT_NE(col_table_->columnar()->meta().segments[0].nan_mask & 2u, 0u)
      << "segment directory lost the NaN mask";
  for (const double bound : {-3.0, 0.0, 1e18}) {
    Predicate predicate;
    predicate.And(1, CmpOp::kLe, bound);
    ExpectSameResults(predicate);
    Predicate ge;
    ge.And(1, CmpOp::kGe, -bound);
    ExpectSameResults(ge);
  }
}

TEST_F(ColumnarDifferentialTest, SegmentBoundaryRowCounts) {
  // Exactly one full segment, a multiple, and one-past: the final short
  // (or single-row) segment must decode like any other.
  for (const size_t n :
       {ColumnStore::kMaxSegmentRows, 2 * ColumnStore::kMaxSegmentRows,
        ColumnStore::kMaxSegmentRows + 1, size_t{1}, size_t{1023}}) {
    SetUp();  // fresh paths per size
    Build(SensorRows(n, 17 + n));
    Predicate all;
    Predicate half;
    half.And(1, CmpOp::kLe, 0.0);
    ExpectSameResults(all);
    ExpectSameResults(half);
    TearDown();
  }
}

TEST_F(ColumnarDifferentialTest, EmptyTableCompactsAndScansClean) {
  Build({});
  Predicate predicate;
  predicate.And(0, CmpOp::kLe, 1.0);
  ScanStats stats;
  ASSERT_TRUE(SeqScan(*col_table_, predicate, nullptr, &stats).ok());
  EXPECT_EQ(stats.rows_scanned, 0u);
  EXPECT_EQ(stats.rows_matched, 0u);
  const Table::FormatBreakdown breakdown = col_table_->GetFormatBreakdown();
  EXPECT_EQ(breakdown.columnar_segments, 0u);
  EXPECT_EQ(breakdown.row_pages, 0u) << "empty table must own no heap pages";
}

TEST_F(ColumnarDifferentialTest, PrunedSegmentsAccountAllRows) {
  Build(SensorRows(12000, 19));
  Predicate impossible;
  impossible.And(0, CmpOp::kGt, 1e18);
  ScanStats stats;
  ASSERT_TRUE(SeqScan(*col_table_, impossible, nullptr, &stats).ok());
  const ColumnStore* store = col_table_->columnar();
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(stats.pages_pruned, store->page_count());
  EXPECT_EQ(stats.rows_pruned, store->row_count());
  EXPECT_EQ(stats.pages_scanned, 0u);
  EXPECT_EQ(stats.rows_matched, 0u);

  // And EXPLAIN's survey agrees with what the scan just did.
  const ColumnarSurvey survey =
      SurveyColumnarSegments(*store, impossible.conditions());
  EXPECT_EQ(survey.segments_surviving, 0u);
  EXPECT_EQ(survey.segments_total, store->segment_count());
}

TEST_F(ColumnarDifferentialTest, ColumnarRowsAreReadByScansOnly) {
  Build(SensorRows(9000, 23));
  // Scans return the same payloads in the same order from both formats.
  const size_t bytes = row_table_->schema().num_columns() * 8;
  std::vector<std::string> row_records, col_records;
  auto collect = [bytes](std::vector<std::string>* out) {
    return [out, bytes](const char* record, RecordId, bool* keep_going) {
      *keep_going = true;
      out->emplace_back(record, bytes);
      return Status::OK();
    };
  };
  ASSERT_TRUE(row_table_->Scan(collect(&row_records)).ok());
  ASSERT_TRUE(col_table_->Scan(collect(&col_records)).ok());
  EXPECT_EQ(row_records, col_records);

  // No index ever addresses a columnar row: compaction copied none, and
  // the columnar table refuses a new one.
  EXPECT_TRUE(col_table_->indexes().empty());
  EXPECT_TRUE(
      col_table_->CreateIndex("ix", {"dt"}).status().IsNotSupported());
  EXPECT_TRUE(col_table_->indexes().empty());

  // A store compacted before that rule still carries B+-trees over its
  // columnar rows. Model one by attaching a tree to the columnar table:
  // index scans refuse it, and SQL scans the table instead.
  auto donor_schema = DoubleSchema({"dt"});
  ASSERT_TRUE(donor_schema.ok());
  auto donor = col_db_->CreateTable("donor", *donor_schema);
  ASSERT_TRUE(donor.ok());
  auto tree = (*donor)->CreateIndex("ix", {"dt"});
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(col_table_->AttachIndex("ix", {0}, (*tree)->meta_page()).ok());
  IndexScanSpec spec;
  spec.index = *tree;
  spec.lower = IndexKey::LowerBound({-1e300});
  EXPECT_TRUE(IndexScan(*col_table_, spec, Predicate::True(),
                        [](const char*, RecordId) { return Status::OK(); })
                  .IsNotSupported());
  const char* query = "SELECT count(*) FROM f WHERE dt <= 100000";
  sql::Engine row_engine(row_db_.get());
  sql::Engine col_engine(col_db_.get());
  auto from_col = col_engine.Execute(query);
  auto from_row = row_engine.Execute(query);
  ASSERT_TRUE(from_col.ok()) << from_col.status().ToString();
  ASSERT_TRUE(from_row.ok());
  EXPECT_EQ(from_col->access_path, "seq_scan");
  EXPECT_EQ(from_col->rows[0][0].i, from_row->rows[0][0].i);
}

TEST_F(ColumnarDifferentialTest, SqlEndToEndAgreesAcrossFormats) {
  Build(SensorRows(8000, 29));
  sql::Engine row_engine(row_db_.get());
  sql::Engine col_engine(col_db_.get());
  const char* kQueries[] = {
      "SELECT count(*) FROM f",
      "SELECT count(*) FROM f WHERE dv <= -3",
      "SELECT min(dv) FROM f WHERE dt <= 100000",
      "SELECT sum(dv) FROM f WHERE dv >= 2 AND dt <= 300000",
      "SELECT * FROM f WHERE dv <= -7.5 ORDER BY dt LIMIT 17",
  };
  // The stats comment line reports physical page counts, which
  // legitimately differ across formats; everything else must match.
  auto strip_stats = [](std::string text) {
    std::string out;
    size_t pos = 0;
    while (pos < text.size()) {
      const size_t eol = text.find('\n', pos);
      const size_t end = eol == std::string::npos ? text.size() : eol + 1;
      if (text.compare(pos, 9, "-- pages ") != 0) {
        out.append(text, pos, end - pos);
      }
      pos = end;
    }
    return out;
  };
  for (const char* query : kQueries) {
    auto row_result = row_engine.Execute(query);
    auto col_result = col_engine.Execute(query);
    ASSERT_TRUE(row_result.ok()) << query;
    ASSERT_TRUE(col_result.ok()) << query;
    EXPECT_EQ(strip_stats(sql::FormatResult(*row_result)),
              strip_stats(sql::FormatResult(*col_result)))
        << query;
  }
}

TEST_F(ColumnarDifferentialTest, ReopenRestoresSegmentDirectory) {
  Build(SensorRows(6000, 31));
  const ColumnStoreMeta before = col_table_->columnar()->meta();
  ASSERT_TRUE(col_db_->Checkpoint().ok());
  col_db_.reset();

  DatabaseOptions options;
  options.create_if_missing = false;
  auto reopened = Database::Open(col_path_, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto table = (*reopened)->GetTable("f");
  ASSERT_TRUE(table.ok());
  const ColumnStore* store = (*table)->columnar();
  ASSERT_NE(store, nullptr) << "catalog v3 lost the segment directory";
  const ColumnStoreMeta& after = store->meta();
  ASSERT_EQ(after.segments.size(), before.segments.size());
  EXPECT_EQ(after.row_count, before.row_count);
  EXPECT_EQ(after.page_count, before.page_count);
  EXPECT_EQ(after.encoded_bytes, before.encoded_bytes);
  for (size_t s = 0; s < after.segments.size(); ++s) {
    EXPECT_EQ(after.segments[s].first_page, before.segments[s].first_page);
    EXPECT_EQ(after.segments[s].rows, before.segments[s].rows);
    EXPECT_EQ(after.segments[s].nan_mask, before.segments[s].nan_mask);
    EXPECT_EQ(after.segments[s].min, before.segments[s].min);
    EXPECT_EQ(after.segments[s].max, before.segments[s].max);
  }
  ASSERT_TRUE((*table)->EnsureZoneMap().ok());
  ScanStats stats;
  ASSERT_TRUE(SeqScan(**table, Predicate{}, nullptr, &stats).ok());
  EXPECT_EQ(stats.rows_matched, before.row_count);
  col_db_ = std::move(reopened).value();
  col_table_ = *table;
}

// The PR 4 contract, re-proved on columnar pages: segment pruning must
// not mask corruption. A pruned segment's pages are still fetched — and
// checksum-verified — before the prune decision; only the decode is
// skipped. A flipped byte therefore fails the scan even under a
// predicate no row could ever match.
TEST_F(ColumnarDifferentialTest, PrunedCorruptColumnarPageStillDetected) {
  Build(SensorRows(10000, 37));
  const ColumnStore* store = col_table_->columnar();
  ASSERT_NE(store, nullptr);
  ASSERT_GE(store->segment_count(), 2u);
  const PageId victim = store->meta().segments[1].first_page;
  ASSERT_TRUE(col_db_->Checkpoint().ok());
  col_db_.reset();

  // Flip one byte inside the victim page's payload.
  {
    auto file = Vfs::Default()->OpenFile(col_path_, /*create=*/false);
    ASSERT_TRUE(file.ok());
    char b = 0;
    ASSERT_TRUE((*file)->Read(victim * kPageSize + 300, 1, &b).ok());
    b ^= 0x20;
    ASSERT_TRUE((*file)->Write(victim * kPageSize + 300, &b, 1).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }

  DatabaseOptions options;
  options.create_if_missing = false;
  auto db = Database::Open(col_path_, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  (*db)->Abandon();  // keep the evidence on disk
  auto table = (*db)->GetTable("f");
  ASSERT_TRUE(table.ok());

  Predicate impossible;
  impossible.And(0, CmpOp::kGt, 1e18);  // every segment prunes
  Status status = SeqScan(**table, impossible, nullptr, nullptr);
  ASSERT_TRUE(status.IsCorruption())
      << "pruned columnar scan masked a corrupt page: " << status.ToString();
  EXPECT_NE(
      std::string(status.message()).find("page " + std::to_string(victim)),
      std::string::npos)
      << status.ToString();
  col_db_ = std::move(db).value();
}

}  // namespace
}  // namespace segdiff
