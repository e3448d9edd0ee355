// Zone-map unit tests: incremental maintenance (NaN semantics included),
// serialization, pruning decisions (ZoneCanMatch), and persistence
// through checkpoint/reopen/compaction — plus the rebuild of a map
// dropped at open.

#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "common/coding.h"
#include "common/random.h"
#include "query/executor.h"
#include "query/predicate.h"
#include "query/scan_kernel.h"
#include "storage/db.h"
#include "storage/zone_map.h"

namespace segdiff {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Encodes one two-column record.
void Encode2(char* buf, double a, double b) {
  EncodeDouble(buf, a);
  EncodeDouble(buf + 8, b);
}

TEST(ZoneMapTest, OnAppendTracksBoundsPerPage) {
  ZoneMap map(2);
  char rec[16];
  Encode2(rec, 1.0, -5.0);
  map.OnAppend(RecordId{3, 0}, rec);
  Encode2(rec, 4.0, 2.0);
  map.OnAppend(RecordId{3, 1}, rec);
  Encode2(rec, 100.0, 0.0);
  map.OnAppend(RecordId{7, 0}, rec);  // next heap page

  ASSERT_EQ(map.zone_count(), 2u);
  EXPECT_EQ(map.total_rows(), 3u);
  const size_t z0 = map.FindZone(3);
  const size_t z1 = map.FindZone(7);
  ASSERT_NE(z0, ZoneMap::kNoZone);
  ASSERT_NE(z1, ZoneMap::kNoZone);
  EXPECT_EQ(map.FindZone(99), ZoneMap::kNoZone);
  EXPECT_EQ(map.zone(z0).rows, 2u);
  EXPECT_EQ(map.zone(z1).rows, 1u);
  EXPECT_DOUBLE_EQ(map.Min(z0, 0), 1.0);
  EXPECT_DOUBLE_EQ(map.Max(z0, 0), 4.0);
  EXPECT_DOUBLE_EQ(map.Min(z0, 1), -5.0);
  EXPECT_DOUBLE_EQ(map.Max(z0, 1), 2.0);
  EXPECT_DOUBLE_EQ(map.Min(z1, 0), 100.0);
  EXPECT_DOUBLE_EQ(map.Max(z1, 0), 100.0);
  EXPECT_FALSE(map.HasNan(z0, 0));
  EXPECT_FALSE(map.HasNan(z1, 0));
}

TEST(ZoneMapTest, NanCellsAreExcludedFromBoundsButFlagged) {
  ZoneMap map(2);
  char rec[16];
  Encode2(rec, 1.0, kNaN);
  map.OnAppend(RecordId{1, 0}, rec);
  Encode2(rec, 2.0, kNaN);
  map.OnAppend(RecordId{1, 1}, rec);

  const size_t z = map.FindZone(1);
  ASSERT_NE(z, ZoneMap::kNoZone);
  // Column 0: clean bounds, no flag.
  EXPECT_FALSE(map.HasNan(z, 0));
  EXPECT_DOUBLE_EQ(map.Min(z, 0), 1.0);
  EXPECT_DOUBLE_EQ(map.Max(z, 0), 2.0);
  // Column 1: every cell NaN -> empty (inverted) bounds + the flag.
  EXPECT_TRUE(map.HasNan(z, 1));
  EXPECT_GT(map.Min(z, 1), map.Max(z, 1));
}

TEST(ZoneMapTest, SerializeRoundTrip) {
  ZoneMap map(3);
  char rec[24];
  Rng rng(11);
  for (uint64_t page = 2; page < 6; ++page) {
    for (uint16_t slot = 0; slot < 17; ++slot) {
      EncodeDouble(rec, rng.Uniform(-1e6, 1e6));
      EncodeDouble(rec + 8, slot == 3 ? kNaN : rng.Uniform(-10, 10));
      EncodeDouble(rec + 16, static_cast<double>(page));
      map.OnAppend(RecordId{page, slot}, rec);
    }
  }
  const std::string blob = map.Serialize();
  auto restored = ZoneMap::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->Serialize(), blob);
  EXPECT_EQ(restored->zone_count(), map.zone_count());
  EXPECT_EQ(restored->total_rows(), map.total_rows());
  for (size_t z = 0; z < map.zone_count(); ++z) {
    EXPECT_EQ(restored->zone(z).page, map.zone(z).page);
    EXPECT_EQ(restored->zone(z).rows, map.zone(z).rows);
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(restored->Min(z, c), map.Min(z, c));
      EXPECT_DOUBLE_EQ(restored->Max(z, c), map.Max(z, c));
      EXPECT_EQ(restored->HasNan(z, c), map.HasNan(z, c));
    }
  }
}

TEST(ZoneMapTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(ZoneMap::Deserialize("").ok());
  EXPECT_FALSE(ZoneMap::Deserialize("not a zone map").ok());
  ZoneMap map(2);
  char rec[16];
  Encode2(rec, 1.0, 2.0);
  map.OnAppend(RecordId{1, 0}, rec);
  std::string blob = map.Serialize();
  EXPECT_TRUE(ZoneMap::Deserialize(blob).ok());
  // Truncation and magic damage are both detected.
  EXPECT_FALSE(ZoneMap::Deserialize(blob.substr(0, blob.size() - 3)).ok());
  std::string bad_magic = blob;
  bad_magic[0] = static_cast<char>(bad_magic[0] + 1);
  EXPECT_FALSE(ZoneMap::Deserialize(bad_magic).ok());
}

TEST(ZoneMapTest, SupportsSchema) {
  auto doubles = DoubleSchema({"a", "b"});
  ASSERT_TRUE(doubles.ok());
  EXPECT_TRUE(ZoneMap::SupportsSchema(*doubles));
  auto mixed = TableSchema::Create(
      {Column{"a", ColumnType::kDouble}, Column{"n", ColumnType::kInt64}});
  ASSERT_TRUE(mixed.ok());
  EXPECT_FALSE(ZoneMap::SupportsSchema(*mixed));
}

class ZoneCanMatchTest : public ::testing::Test {
 protected:
  /// One zone on page 1 with column 0 in [10, 20] and column 1 all-NaN,
  /// plus a second clean zone well away from the first.
  void SetUp() override {
    map_ = std::make_unique<ZoneMap>(2);
    char rec[16];
    Encode2(rec, 10.0, kNaN);
    map_->OnAppend(RecordId{1, 0}, rec);
    Encode2(rec, 20.0, kNaN);
    map_->OnAppend(RecordId{1, 1}, rec);
    Encode2(rec, 100.0, 5.0);
    map_->OnAppend(RecordId{2, 0}, rec);
    zone_ = map_->FindZone(1);
    clean_zone_ = map_->FindZone(2);
  }

  bool CanMatch(size_t zone, CmpOp op, double value, size_t col = 0) {
    return ZoneCanMatch(*map_, zone, {{col, op, value}});
  }

  std::unique_ptr<ZoneMap> map_;
  size_t zone_ = ZoneMap::kNoZone;
  size_t clean_zone_ = ZoneMap::kNoZone;
};

TEST_F(ZoneCanMatchTest, RangeDecisions) {
  // Column 0 spans [10, 20].
  EXPECT_TRUE(CanMatch(zone_, CmpOp::kLe, 10.0));
  EXPECT_FALSE(CanMatch(zone_, CmpOp::kLt, 10.0));
  EXPECT_FALSE(CanMatch(zone_, CmpOp::kLe, 9.0));
  EXPECT_TRUE(CanMatch(zone_, CmpOp::kGe, 20.0));
  EXPECT_FALSE(CanMatch(zone_, CmpOp::kGt, 20.0));
  EXPECT_TRUE(CanMatch(zone_, CmpOp::kEq, 15.0));
  EXPECT_FALSE(CanMatch(zone_, CmpOp::kEq, 25.0));
  // Conjunction: each condition must be satisfiable.
  EXPECT_FALSE(ZoneCanMatch(
      *map_, zone_,
      {{0, CmpOp::kGe, 15.0}, {0, CmpOp::kLe, 5.0}}));
}

TEST_F(ZoneCanMatchTest, AllNanColumnIsPrunable) {
  // Column 1 of zone_ holds only NaN cells: no comparison can match,
  // and the inverted bounds + nan bit prove it.
  EXPECT_FALSE(CanMatch(zone_, CmpOp::kLe, 1e30, /*col=*/1));
  EXPECT_FALSE(CanMatch(zone_, CmpOp::kGe, -1e30, /*col=*/1));
  // The clean zone's column 1 is a real value.
  EXPECT_TRUE(CanMatch(clean_zone_, CmpOp::kEq, 5.0, /*col=*/1));
}

TEST_F(ZoneCanMatchTest, NanQueryValueMatchesNothing) {
  // EvalCondition's ordered comparisons reject NaN query values, so
  // pruning every page is exact, not an approximation.
  EXPECT_FALSE(CanMatch(zone_, CmpOp::kLe, kNaN));
  EXPECT_FALSE(CanMatch(clean_zone_, CmpOp::kGe, kNaN));
}

TEST_F(ZoneCanMatchTest, SurveyCountsSurvivors) {
  const ZoneSurvey all = SurveyZones(*map_, {});
  EXPECT_EQ(all.zones_total, 2u);
  EXPECT_EQ(all.zones_surviving, 2u);
  const ZoneSurvey some =
      SurveyZones(*map_, {{0, CmpOp::kLe, 50.0}});
  EXPECT_EQ(some.zones_total, 2u);
  EXPECT_EQ(some.zones_surviving, 1u);
}

class ZoneMapStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("segdiff_zone_store");
    RemoveTestStore(path_);
  }
  void TearDown() override { RemoveTestStore(path_); }

  std::unique_ptr<Database> OpenDb() {
    auto db = Database::Open(path_, DatabaseOptions{});
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db).value();
  }

  /// 3000 rows over several pages; a handful carry NaN cells.
  void Fill(Table* table) {
    Rng rng(17);
    for (int i = 0; i < 3000; ++i) {
      const double dv = i % 701 == 0 ? kNaN : rng.Uniform(-10, 10);
      ASSERT_TRUE(
          table->InsertDoubles({rng.Uniform(0, 100), dv, double(i)}).ok());
    }
  }

  std::set<double> Query(Table* table) {
    Predicate predicate;
    predicate.And(0, CmpOp::kLe, 20.0).And(1, CmpOp::kLe, -6.0);
    std::set<double> tags;
    ScanStats stats;
    Status status = SeqScan(*table, predicate,
                            [&](const char* record, RecordId) {
                              tags.insert(DecodeDoubleColumn(record, 2));
                              return Status::OK();
                            },
                            &stats);
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(stats.rows_scanned + stats.rows_pruned, table->row_count());
    return tags;
  }

  std::string path_;
};

TEST_F(ZoneMapStoreTest, SurvivesReopenByteIdentical) {
  std::string serialized;
  std::set<double> expect;
  {
    auto db = OpenDb();
    auto schema = DoubleSchema({"dt", "dv", "tag"});
    auto table = db->CreateTable("f", *schema);
    ASSERT_TRUE(table.ok());
    Fill(*table);
    ASSERT_NE((*table)->zone_map(), nullptr);
    serialized = (*table)->zone_map()->Serialize();
    expect = Query(*table);
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  auto db = OpenDb();
  auto table = db->GetTable("f");
  ASSERT_TRUE(table.ok());
  ASSERT_NE((*table)->zone_map(), nullptr) << "blob not restored";
  EXPECT_EQ((*table)->zone_map()->Serialize(), serialized);
  EXPECT_EQ(Query(*table), expect);
}

TEST_F(ZoneMapStoreTest, LegacyStoreRebuildsOnDemand) {
  auto db = OpenDb();
  auto schema = DoubleSchema({"dt", "dv", "tag"});
  auto table_or = db->CreateTable("f", *schema);
  ASSERT_TRUE(table_or.ok());
  Table* table = *table_or;
  Fill(table);
  const std::string incremental = table->zone_map()->Serialize();
  const std::set<double> expect = Query(table);

  // A table whose map was dropped at open (blob absent, unparsable or
  // inconsistent with its heap after a crash) has none: scans still
  // answer correctly (pruning off), and EnsureZoneMap rebuilds a map
  // identical to the incrementally-maintained one.
  table->DetachZoneMap();
  ASSERT_EQ(table->zone_map(), nullptr);
  EXPECT_EQ(Query(table), expect);
  ASSERT_TRUE(table->EnsureZoneMap().ok());
  ASSERT_NE(table->zone_map(), nullptr);
  EXPECT_EQ(table->zone_map()->Serialize(), incremental);
  EXPECT_EQ(Query(table), expect);
}

TEST_F(ZoneMapStoreTest, AttachRejectsInconsistentMaps) {
  auto db = OpenDb();
  auto schema = DoubleSchema({"dt", "dv", "tag"});
  auto table_or = db->CreateTable("f", *schema);
  ASSERT_TRUE(table_or.ok());
  Table* table = *table_or;
  Fill(table);
  // Wrong arity.
  EXPECT_FALSE(table->AttachZoneMap(ZoneMap(2)));
  // Right arity, wrong row count (stale snapshot).
  ZoneMap stale(3);
  char rec[24];
  EncodeDouble(rec, 1.0);
  EncodeDouble(rec + 8, 1.0);
  EncodeDouble(rec + 16, 1.0);
  stale.OnAppend(RecordId{2, 0}, rec);
  EXPECT_FALSE(table->AttachZoneMap(std::move(stale)));
  // The rejected attaches left the good incremental map in place.
  ASSERT_NE(table->zone_map(), nullptr);
  EXPECT_EQ(table->zone_map()->total_rows(), table->row_count());
}

TEST_F(ZoneMapStoreTest, SurvivesCompaction) {
  const std::string compact_path = path_ + ".compact";
  RemoveTestStore(compact_path);
  std::set<double> expect;
  {
    auto db = OpenDb();
    auto schema = DoubleSchema({"dt", "dv", "tag"});
    auto table = db->CreateTable("f", *schema);
    ASSERT_TRUE(table.ok());
    Fill(*table);
    expect = Query(*table);
    ASSERT_TRUE(db->CompactInto(compact_path).ok());
  }
  auto compacted = Database::Open(compact_path, DatabaseOptions{});
  ASSERT_TRUE(compacted.ok());
  auto table = (*compacted)->GetTable("f");
  ASSERT_TRUE(table.ok());
  // Compaction converts the rows to columnar segments: the zone map
  // covers only the (now empty) row-format heap tail, and the segment
  // directory carries equivalent zone statistics for pruning.
  ASSERT_NE((*table)->columnar(), nullptr);
  EXPECT_EQ((*table)->columnar()->row_count(), (*table)->row_count());
  ASSERT_NE((*table)->zone_map(), nullptr);
  EXPECT_EQ((*table)->zone_map()->total_rows(),
            (*table)->heap_meta().record_count);
  const ColumnarSurvey all = SurveyColumnarSegments(
      *(*table)->columnar(), std::vector<ColumnCondition>{});
  EXPECT_EQ(all.segments_total, (*table)->columnar()->segment_count());
  EXPECT_EQ(all.segments_surviving, all.segments_total);
  // A predicate outside every segment's range prunes everything.
  std::vector<ColumnCondition> impossible{{0, CmpOp::kGt, 1e18}};
  const ColumnarSurvey none =
      SurveyColumnarSegments(*(*table)->columnar(), impossible);
  EXPECT_EQ(none.segments_surviving, 0u);
  EXPECT_EQ(Query(*table), expect);
  compacted->reset();
  RemoveTestStore(compact_path);
}

TEST_F(ZoneMapStoreTest, DeleteWhereRebuildsTheMap) {
  auto db = OpenDb();
  auto schema = DoubleSchema({"dt", "dv", "tag"});
  auto table_or = db->CreateTable("f", *schema);
  ASSERT_TRUE(table_or.ok());
  Table* table = *table_or;
  Fill(table);
  Predicate doomed;
  doomed.And(0, CmpOp::kGt, 50.0);
  auto removed = table->DeleteWhere(doomed);
  ASSERT_TRUE(removed.ok());
  ASSERT_GT(*removed, 0u);
  ASSERT_NE(table->zone_map(), nullptr);
  EXPECT_EQ(table->zone_map()->total_rows(), table->row_count());
  // The survivor map agrees with a from-scratch rebuild.
  const std::string after_delete = table->zone_map()->Serialize();
  table->DetachZoneMap();
  ASSERT_TRUE(table->EnsureZoneMap().ok());
  EXPECT_EQ(table->zone_map()->Serialize(), after_delete);
}

}  // namespace
}  // namespace segdiff
