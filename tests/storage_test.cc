// Tests for the minidb substrate: pager, buffer pool, records, heap
// files, tables, catalog, and database reopen.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "common/random.h"
#include "storage/buffer_pool.h"
#include "storage/db.h"
#include "storage/heap_file.h"
#include "storage/pager.h"
#include "storage/record.h"

namespace segdiff {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("segdiff_storage");
    RemoveTestStore(path_);
  }
  void TearDown() override { RemoveTestStore(path_); }
  std::string path_;
};

TEST_F(StorageTest, PagerCreatesAndReopens) {
  {
    auto pager = Pager::Open(path_, /*create=*/true);
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    EXPECT_EQ((*pager)->page_count(), 1u);  // header only
    auto page = (*pager)->AllocatePage();
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(*page, 1u);
    char buf[kPageSize] = {};
    buf[0] = 'x';
    ASSERT_TRUE((*pager)->WritePage(*page, buf).ok());
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  {
    auto pager = Pager::Open(path_, /*create=*/false);
    ASSERT_TRUE(pager.ok());
    EXPECT_EQ((*pager)->page_count(), 2u);
    char buf[kPageSize];
    ASSERT_TRUE((*pager)->ReadPage(1, buf).ok());
    EXPECT_EQ(buf[0], 'x');
    EXPECT_EQ((*pager)->FileSizeBytes(), 2 * kPageSize);
  }
}

TEST_F(StorageTest, PagerRejectsOutOfBounds) {
  auto pager = Pager::Open(path_, true);
  ASSERT_TRUE(pager.ok());
  char buf[kPageSize];
  EXPECT_TRUE((*pager)->ReadPage(5, buf).IsInvalidArgument());
  EXPECT_TRUE((*pager)->WritePage(5, buf).IsInvalidArgument());
}

TEST_F(StorageTest, PagerMissingFileFails) {
  auto pager = Pager::Open(path_, /*create=*/false);
  EXPECT_TRUE(pager.status().IsIOError());
}

TEST_F(StorageTest, PagerDetectsCorruptHeader) {
  {
    FILE* f = std::fopen(path_.c_str(), "wb");
    std::string garbage(kPageSize, 'z');
    std::fwrite(garbage.data(), 1, garbage.size(), f);
    std::fclose(f);
  }
  auto pager = Pager::Open(path_, false);
  EXPECT_TRUE(pager.status().IsCorruption());
}

TEST_F(StorageTest, RecordIdPackRoundTrip) {
  RecordId id{123456, 789};
  RecordId back = RecordId::Unpack(id.Pack());
  EXPECT_EQ(back, id);
}

TEST_F(StorageTest, BufferPoolCachesAndEvicts) {
  auto pager = Pager::Open(path_, true);
  ASSERT_TRUE(pager.ok());
  BufferPool pool(pager->get(), /*capacity_pages=*/4);
  std::vector<PageId> pages;
  for (int i = 0; i < 8; ++i) {
    auto handle = pool.AllocatePinned();
    ASSERT_TRUE(handle.ok());
    handle->data()[0] = static_cast<char>('a' + i);
    handle->MarkDirty();
    pages.push_back(handle->page_id());
  }
  // All 8 pages readable even though only 4 fit (evictions wrote back).
  for (int i = 0; i < 8; ++i) {
    auto handle = pool.Fetch(pages[i]);
    ASSERT_TRUE(handle.ok());
    EXPECT_EQ(handle->data()[0], static_cast<char>('a' + i));
  }
  EXPECT_GT(pool.stats().evictions, 0u);
  EXPECT_GT(pool.stats().dirty_writebacks, 0u);
}

TEST_F(StorageTest, BufferPoolHitMissAccounting) {
  auto pager = Pager::Open(path_, true);
  BufferPool pool(pager->get(), 8);
  auto handle = pool.AllocatePinned();
  ASSERT_TRUE(handle.ok());
  const PageId id = handle->page_id();
  handle->Release();
  const uint64_t misses_before = pool.stats().misses;
  for (int i = 0; i < 5; ++i) {
    auto again = pool.Fetch(id);
    ASSERT_TRUE(again.ok());
  }
  EXPECT_EQ(pool.stats().misses, misses_before);
  EXPECT_GE(pool.stats().hits, 5u);
}

TEST_F(StorageTest, BufferPoolDropAllForcesColdReads) {
  auto pager = Pager::Open(path_, true);
  BufferPool pool(pager->get(), 8);
  PageId id;
  {
    auto handle = pool.AllocatePinned();
    ASSERT_TRUE(handle.ok());
    handle->data()[7] = 42;
    handle->MarkDirty();
    id = handle->page_id();
  }
  ASSERT_TRUE(pool.DropAll().ok());
  EXPECT_EQ(pool.cached_pages(), 0u);
  const uint64_t misses_before = pool.stats().misses;
  auto handle = pool.Fetch(id);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->data()[7], 42);  // survived the flush
  EXPECT_EQ(pool.stats().misses, misses_before + 1);
}

TEST_F(StorageTest, BufferPoolRefusesDropWithPins) {
  auto pager = Pager::Open(path_, true);
  BufferPool pool(pager->get(), 8);
  auto handle = pool.AllocatePinned();
  ASSERT_TRUE(handle.ok());
  EXPECT_TRUE(pool.DropAll().IsInternal());
  handle->Release();
  EXPECT_TRUE(pool.DropAll().ok());
}

TEST_F(StorageTest, BufferPoolExhaustsWhenAllPinned) {
  auto pager = Pager::Open(path_, true);
  BufferPool pool(pager->get(), 2);
  auto h1 = pool.AllocatePinned();
  auto h2 = pool.AllocatePinned();
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  auto h3 = pool.AllocatePinned();
  EXPECT_TRUE(h3.status().IsInternal());
}

TEST_F(StorageTest, SchemaValidation) {
  EXPECT_TRUE(DoubleSchema({}).status().IsInvalidArgument());
  EXPECT_TRUE(DoubleSchema({"a", "a"}).status().IsInvalidArgument());
  EXPECT_TRUE(
      TableSchema::Create({Column{"", ColumnType::kDouble}})
          .status()
          .IsInvalidArgument());
  auto schema = DoubleSchema({"x", "y"});
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->RowBytes(), 16u);
  EXPECT_EQ(schema->ColumnIndex("y").value(), 1u);
  EXPECT_TRUE(schema->ColumnIndex("z").status().IsNotFound());
}

TEST_F(StorageTest, RowEncodeDecodeRoundTrip) {
  auto schema = TableSchema::Create({Column{"d", ColumnType::kDouble},
                                     Column{"i", ColumnType::kInt64}});
  ASSERT_TRUE(schema.ok());
  Row row = {Value::Double(-3.25), Value::Int64(-42)};
  char buf[16];
  ASSERT_TRUE(EncodeRow(*schema, row, buf).ok());
  Row back = DecodeRow(*schema, buf);
  EXPECT_DOUBLE_EQ(back[0].d, -3.25);
  EXPECT_EQ(back[1].i, -42);
  EXPECT_DOUBLE_EQ(DecodeDoubleColumn(buf, 0), -3.25);

  // Arity and type mismatches rejected.
  Row short_row = {Value::Double(1)};
  EXPECT_TRUE(EncodeRow(*schema, short_row, buf).IsInvalidArgument());
  Row wrong_type = {Value::Int64(1), Value::Int64(2)};
  EXPECT_TRUE(EncodeRow(*schema, wrong_type, buf).IsInvalidArgument());
}

TEST_F(StorageTest, HeapFileAppendScanAcrossPages) {
  auto pager = Pager::Open(path_, true);
  BufferPool pool(pager->get(), 16);
  auto heap = HeapFile::Create(&pool, /*record_bytes=*/64);
  ASSERT_TRUE(heap.ok());
  const int n = 1000;  // ~8 pages at 127 records/page
  for (int i = 0; i < n; ++i) {
    char record[64] = {};
    std::snprintf(record, sizeof(record), "rec-%d", i);
    ASSERT_TRUE(heap->Append(record).ok());
  }
  EXPECT_EQ(heap->meta().record_count, static_cast<uint64_t>(n));
  EXPECT_GT(heap->meta().page_count, 4u);
  int seen = 0;
  ASSERT_TRUE(heap->Scan([&](const char* record, RecordId, bool* keep) {
                    *keep = true;
                    char expect[64];
                    std::snprintf(expect, sizeof(expect), "rec-%d", seen);
                    EXPECT_STREQ(record, expect);
                    ++seen;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(seen, n);
}

TEST_F(StorageTest, HeapFileReadRecordById) {
  auto pager = Pager::Open(path_, true);
  BufferPool pool(pager->get(), 16);
  auto heap = HeapFile::Create(&pool, 16);
  ASSERT_TRUE(heap.ok());
  std::vector<RecordId> ids;
  for (int i = 0; i < 2000; ++i) {
    char record[16];
    std::snprintf(record, sizeof(record), "%d", i);
    auto id = heap->Append(record);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  char buf[16];
  ASSERT_TRUE(heap->ReadRecord(ids[1537], buf).ok());
  EXPECT_STREQ(buf, "1537");
  // Slot out of range.
  EXPECT_TRUE(
      heap->ReadRecord(RecordId{ids[0].page, 60000}, buf).IsNotFound());
}

TEST_F(StorageTest, HeapFileScanEarlyStop) {
  auto pager = Pager::Open(path_, true);
  BufferPool pool(pager->get(), 16);
  auto heap = HeapFile::Create(&pool, 8);
  for (int i = 0; i < 100; ++i) {
    char record[8] = {};
    ASSERT_TRUE(heap->Append(record).ok());
  }
  int visits = 0;
  ASSERT_TRUE(heap->Scan([&](const char*, RecordId, bool* keep) {
                    *keep = ++visits < 10;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(visits, 10);
}

TEST_F(StorageTest, HeapFileRejectsOversizeRecord) {
  auto pager = Pager::Open(path_, true);
  BufferPool pool(pager->get(), 4);
  EXPECT_TRUE(
      HeapFile::Create(&pool, kPageSize).status().IsInvalidArgument());
  EXPECT_TRUE(HeapFile::Create(&pool, 0).status().IsInvalidArgument());
}

TEST_F(StorageTest, TableInsertScanAndIndexes) {
  DatabaseOptions options;
  auto db = Database::Open(path_, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto schema = DoubleSchema({"a", "b", "c"});
  ASSERT_TRUE(schema.ok());
  auto table = (*db)->CreateTable("t", *schema);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->CreateIndex("ab", {"a", "b"}).ok());

  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE((*table)
                    ->InsertDoubles({rng.Uniform(0, 10), rng.Uniform(-5, 5),
                                     static_cast<double>(i)})
                    .ok());
  }
  EXPECT_EQ((*table)->row_count(), 500u);
  EXPECT_GT((*table)->DataSizeBytes(), 0u);
  EXPECT_GT((*table)->IndexSizeBytes(), 0u);
  auto index = (*table)->GetIndex("ab");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->entry_count(), 500u);
  EXPECT_TRUE((*index)->CheckInvariants().ok());
  EXPECT_TRUE((*table)->GetIndex("zz").status().IsNotFound());
  EXPECT_TRUE((*table)->CreateIndex("ab", {"a"}).status().IsAlreadyExists());
  EXPECT_TRUE(
      (*table)->CreateIndex("bad", {"nope"}).status().IsNotFound());
  EXPECT_TRUE((*table)->CreateIndex("none", {}).status().IsInvalidArgument());
}

TEST_F(StorageTest, IndexBackfillOnLateCreation) {
  DatabaseOptions options;
  auto db = Database::Open(path_, options);
  auto schema = DoubleSchema({"x"});
  auto table = (*db)->CreateTable("t", *schema);
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*table)->InsertDoubles({static_cast<double>(i)}).ok());
  }
  auto index = (*table)->CreateIndex("x", {"x"});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->entry_count(), 100u);
  EXPECT_TRUE((*index)->CheckInvariants().ok());
}

TEST_F(StorageTest, DatabaseReopenRestoresEverything) {
  {
    auto db = Database::Open(path_, DatabaseOptions{});
    ASSERT_TRUE(db.ok());
    auto schema = DoubleSchema({"k", "v"});
    auto table = (*db)->CreateTable("kv", *schema);
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)->CreateIndex("k", {"k"}).ok());
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(
          (*table)->InsertDoubles({static_cast<double>(i), i * 2.0}).ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  {
    DatabaseOptions options;
    options.create_if_missing = false;
    auto db = Database::Open(path_, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto table = (*db)->GetTable("kv");
    ASSERT_TRUE(table.ok());
    EXPECT_EQ((*table)->row_count(), 300u);
    EXPECT_EQ((*table)->schema().num_columns(), 2u);
    auto index = (*table)->GetIndex("k");
    ASSERT_TRUE(index.ok());
    EXPECT_EQ((*index)->entry_count(), 300u);
    EXPECT_TRUE((*index)->CheckInvariants().ok());
    // Contents survived.
    int count = 0;
    ASSERT_TRUE((*table)
                    ->Scan([&](const char* record, RecordId, bool* keep) {
                      *keep = true;
                      EXPECT_DOUBLE_EQ(DecodeDoubleColumn(record, 1),
                                       DecodeDoubleColumn(record, 0) * 2.0);
                      ++count;
                      return Status::OK();
                    })
                    .ok());
    EXPECT_EQ(count, 300);
    // Appending after reopen also works at the table level.
    ASSERT_TRUE((*table)->InsertDoubles({1000.0, 2000.0}).ok());
    EXPECT_EQ((*table)->row_count(), 301u);
  }
}

TEST_F(StorageTest, MetaBlobsPersistAcrossReopen) {
  {
    auto db = Database::Open(path_, DatabaseOptions{});
    ASSERT_TRUE(db.ok());
    EXPECT_TRUE((*db)->GetMeta("absent").status().IsNotFound());
    (*db)->PutMeta("engine.state", std::string("\x01\x00\x7f""abc", 6));
    (*db)->PutMeta("other", "tiny");
    (*db)->PutMeta("other", "overwritten");  // last write wins
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  {
    DatabaseOptions options;
    options.create_if_missing = false;
    auto db = Database::Open(path_, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto blob = (*db)->GetMeta("engine.state");
    ASSERT_TRUE(blob.ok());
    EXPECT_EQ(*blob, std::string("\x01\x00\x7f""abc", 6));
    auto other = (*db)->GetMeta("other");
    ASSERT_TRUE(other.ok());
    EXPECT_EQ(*other, "overwritten");
    EXPECT_TRUE((*db)->EraseMeta("other").value_or(false));
    // Already gone: erase reports "did not exist" (value_or(true) would
    // also catch an unexpected WAL error).
    EXPECT_FALSE((*db)->EraseMeta("other").value_or(true));
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  {
    DatabaseOptions options;
    options.create_if_missing = false;
    auto db = Database::Open(path_, options);
    ASSERT_TRUE(db.ok());
    EXPECT_TRUE((*db)->GetMeta("other").status().IsNotFound());
    EXPECT_TRUE((*db)->GetMeta("engine.state").ok());
  }
}

TEST_F(StorageTest, MetaBlobSpillsAcrossCatalogPages) {
  // A blob much larger than one page forces the catalog chain to spill;
  // it must round-trip bit-exactly alongside table metadata.
  std::string big(3 * kPageSize + 123, '\0');
  Rng rng(42);
  for (char& c : big) {
    c = static_cast<char>(rng.NextU64() & 0xff);
  }
  {
    auto db = Database::Open(path_, DatabaseOptions{});
    ASSERT_TRUE(db.ok());
    auto schema = DoubleSchema({"x"});
    ASSERT_TRUE((*db)->CreateTable("t", *schema).ok());
    (*db)->PutMeta("big", big);
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  {
    DatabaseOptions options;
    options.create_if_missing = false;
    auto db = Database::Open(path_, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto blob = (*db)->GetMeta("big");
    ASSERT_TRUE(blob.ok());
    EXPECT_EQ(*blob, big);
    EXPECT_TRUE((*db)->GetTable("t").ok());
  }
}

TEST_F(StorageTest, MetaBlobsSurviveCompaction) {
  const std::string compact_path = path_ + ".compact";
  RemoveTestStore(compact_path);
  {
    auto db = Database::Open(path_, DatabaseOptions{});
    ASSERT_TRUE(db.ok());
    auto schema = DoubleSchema({"x"});
    auto table = (*db)->CreateTable("t", *schema);
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)->InsertDoubles({1.0}).ok());
    (*db)->PutMeta("engine.state", "resume-here");
    ASSERT_TRUE((*db)->CompactInto(compact_path).ok());
  }
  {
    DatabaseOptions options;
    options.create_if_missing = false;
    auto db = Database::Open(compact_path, options);
    ASSERT_TRUE(db.ok());
    auto blob = (*db)->GetMeta("engine.state");
    ASSERT_TRUE(blob.ok());
    EXPECT_EQ(*blob, "resume-here");
  }
  RemoveTestStore(compact_path);
}

TEST_F(StorageTest, DatabaseDuplicateTableRejected) {
  auto db = Database::Open(path_, DatabaseOptions{});
  auto schema = DoubleSchema({"x"});
  ASSERT_TRUE((*db)->CreateTable("t", *schema).ok());
  EXPECT_TRUE((*db)->CreateTable("t", *schema).status().IsAlreadyExists());
  EXPECT_TRUE((*db)->GetTable("missing").status().IsNotFound());
}

TEST_F(StorageTest, DatabaseDropCachesKeepsData) {
  auto db = Database::Open(path_, DatabaseOptions{});
  auto schema = DoubleSchema({"x"});
  auto table = (*db)->CreateTable("t", *schema);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE((*table)->InsertDoubles({static_cast<double>(i)}).ok());
  }
  ASSERT_TRUE((*db)->DropCaches().ok());
  EXPECT_EQ((*db)->buffer_pool()->cached_pages(), 0u);
  double sum = 0;
  ASSERT_TRUE((*table)
                  ->Scan([&](const char* record, RecordId, bool* keep) {
                    *keep = true;
                    sum += DecodeDoubleColumn(record, 0);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_DOUBLE_EQ(sum, 4999.0 * 5000.0 / 2.0);
}

TEST_F(StorageTest, DeleteWhereRewritesHeapAndIndexes) {
  auto db = Database::Open(path_, DatabaseOptions{});
  auto schema = DoubleSchema({"k", "v"});
  auto table = (*db)->CreateTable("t", *schema);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->CreateIndex("k", {"k"}).ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        (*table)->InsertDoubles({static_cast<double>(i % 10), i * 1.0}).ok());
  }
  // Delete every row with k < 3 (300 rows).
  Predicate predicate;
  predicate.And(0, CmpOp::kLt, 3.0);
  auto removed = (*table)->DeleteWhere(predicate);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(*removed, 300u);
  EXPECT_EQ((*table)->row_count(), 700u);
  // Survivors all have k >= 3; index rebuilt consistently.
  auto index = (*table)->GetIndex("k");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->entry_count(), 700u);
  EXPECT_TRUE((*index)->CheckInvariants().ok());
  ASSERT_TRUE((*table)
                  ->Scan([&](const char* record, RecordId, bool* keep) {
                    *keep = true;
                    EXPECT_GE(DecodeDoubleColumn(record, 0), 3.0);
                    return Status::OK();
                  })
                  .ok());
  // Deletions survive checkpoint + reopen.
  ASSERT_TRUE((*db)->Checkpoint().ok());
  db->reset();
  auto reopened = Database::Open(path_, DatabaseOptions{});
  ASSERT_TRUE(reopened.ok());
  auto again = (*reopened)->GetTable("t");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->row_count(), 700u);
  auto reopened_index = (*again)->GetIndex("k");
  ASSERT_TRUE(reopened_index.ok());
  EXPECT_EQ((*reopened_index)->entry_count(), 700u);
}

TEST_F(StorageTest, DeleteWhereMatchingNothingOrEverything) {
  auto db = Database::Open(path_, DatabaseOptions{});
  auto schema = DoubleSchema({"x"});
  auto table = (*db)->CreateTable("t", *schema);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*table)->InsertDoubles({static_cast<double>(i)}).ok());
  }
  Predicate none;
  none.And(0, CmpOp::kLt, -1.0);
  EXPECT_EQ(*(*table)->DeleteWhere(none), 0u);
  EXPECT_EQ((*table)->row_count(), 50u);
  EXPECT_EQ(*(*table)->DeleteWhere(Predicate::True()), 50u);
  EXPECT_EQ((*table)->row_count(), 0u);
  // Table keeps working after full truncation.
  ASSERT_TRUE((*table)->InsertDoubles({7.0}).ok());
  EXPECT_EQ((*table)->row_count(), 1u);
}

TEST_F(StorageTest, InMemoryDatabase) {
  auto db = Database::Open(":memory:", DatabaseOptions{});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto schema = DoubleSchema({"x"});
  auto table = (*db)->CreateTable("t", *schema);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->CreateIndex("x", {"x"}).ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE((*table)->InsertDoubles({static_cast<double>(i)}).ok());
  }
  EXPECT_EQ((*table)->row_count(), 2000u);
  ASSERT_TRUE((*db)->DropCaches().ok());  // survives pool eviction
  double sum = 0;
  ASSERT_TRUE((*table)
                  ->Scan([&](const char* record, RecordId, bool* keep) {
                    *keep = true;
                    sum += DecodeDoubleColumn(record, 0);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_DOUBLE_EQ(sum, 1999.0 * 2000.0 / 2.0);
  // :memory: cannot be opened without create.
  DatabaseOptions no_create;
  no_create.create_if_missing = false;
  EXPECT_TRUE(
      Database::Open(":memory:", no_create).status().IsInvalidArgument());
}

TEST_F(StorageTest, CompactReclaimsDeleteGarbage) {
  const std::string compact_path =
      UniqueTestPath("segdiff_storage_compact");
  const std::string row_path = UniqueTestPath("segdiff_storage_compact_row");
  RemoveTestStore(compact_path);
  {
    auto db = Database::Open(path_, DatabaseOptions{});
    auto schema = DoubleSchema({"k", "v"});
    auto table = (*db)->CreateTable("t", *schema);
    ASSERT_TRUE((*table)->CreateIndex("k", {"k"}).ok());
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE((*table)
                      ->InsertDoubles({static_cast<double>(i % 7), i * 1.0})
                      .ok());
    }
    // Churn: two delete rewrites leave dead pages behind.
    Predicate p1;
    p1.And(0, CmpOp::kLt, 2.0);
    ASSERT_TRUE((*table)->DeleteWhere(p1).ok());
    Predicate p2;
    p2.And(0, CmpOp::kGe, 6.0);
    ASSERT_TRUE((*table)->DeleteWhere(p2).ok());
    const uint64_t live_rows = (*table)->row_count();
    ASSERT_TRUE((*db)->Checkpoint().ok());
    const uint64_t bloated = (*db)->pager()->FileSizeBytes();

    ASSERT_TRUE((*db)->CompactInto(compact_path).ok());
    auto compacted = Database::Open(compact_path, DatabaseOptions{});
    ASSERT_TRUE(compacted.ok());
    EXPECT_LT((*compacted)->pager()->FileSizeBytes(), bloated);
    auto copy = (*compacted)->GetTable("t");
    ASSERT_TRUE(copy.ok());
    EXPECT_EQ((*copy)->row_count(), live_rows);
    // The table went columnar, so its index was not copied.
    ASSERT_NE((*copy)->columnar(), nullptr);
    EXPECT_TRUE((*copy)->GetIndex("k").status().IsNotFound());
    EXPECT_EQ((*compacted)->SizeStats().index_bytes, 0u);
    // Source is untouched.
    auto original = (*db)->GetTable("t");
    EXPECT_EQ((*original)->row_count(), live_rows);
    // Compacting onto a non-empty target is rejected.
    EXPECT_TRUE((*db)->CompactInto(compact_path).IsInvalidArgument());

    // A row-format copy keeps (and rebuilds) its index.
    RemoveTestStore(row_path);
    ASSERT_TRUE(
        (*db)->CompactInto(row_path, CompactOptions{.columnar = false}).ok());
    auto row_copy = Database::Open(row_path, DatabaseOptions{});
    ASSERT_TRUE(row_copy.ok());
    auto row_table = (*row_copy)->GetTable("t");
    ASSERT_TRUE(row_table.ok());
    EXPECT_EQ((*row_table)->columnar(), nullptr);
    EXPECT_EQ((*row_table)->row_count(), live_rows);
    auto index = (*row_table)->GetIndex("k");
    ASSERT_TRUE(index.ok());
    EXPECT_EQ((*index)->entry_count(), live_rows);
    EXPECT_TRUE((*index)->CheckInvariants().ok());
  }
  RemoveTestStore(compact_path);
  RemoveTestStore(row_path);
}

TEST_F(StorageTest, SizeStatsSeparateDataAndIndex) {
  auto db = Database::Open(path_, DatabaseOptions{});
  auto schema = DoubleSchema({"x"});
  auto table = (*db)->CreateTable("t", *schema);
  ASSERT_TRUE((*table)->CreateIndex("x", {"x"}).ok());
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE((*table)->InsertDoubles({static_cast<double>(i)}).ok());
  }
  const DatabaseSizeStats stats = (*db)->SizeStats();
  EXPECT_GT(stats.data_bytes, 0u);
  EXPECT_GT(stats.index_bytes, 0u);
  EXPECT_GE(stats.file_bytes, stats.data_bytes + stats.index_bytes);
}

}  // namespace
}  // namespace segdiff
