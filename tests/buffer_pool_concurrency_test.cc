// Concurrency stress for the sharded buffer pool: many threads fetching
// random pages through a pool smaller than the working set. Checks that
// no pin is lost (DropAll succeeds after the storm), hit + miss counts
// add up, page contents stay intact, and concurrent dirtying flushes
// correctly. Run under SEGDIFF_SANITIZE=thread to verify data-race
// freedom; the `concurrency` ctest label selects these suites.

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "storage/buffer_pool.h"
#include "storage/pager.h"

namespace segdiff {
namespace {

constexpr size_t kNumPages = 64;
constexpr size_t kPoolPages = 32;  // half the working set -> evictions
constexpr size_t kNumThreads = 8;
constexpr size_t kFetchesPerThread = 2000;

/// Thread-local xorshift so threads share no RNG state.
uint64_t NextRand(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return *state = x;
}

// Only the payload (kPageCapacity bytes) belongs to the caller; the
// trailer is the pager's checksum.
void StampPage(char* data, PageId id) {
  std::memset(data, static_cast<int>(id & 0x7f), kPageSize);
  std::memcpy(data, &id, sizeof(id));
}

bool CheckPage(const char* data, PageId id) {
  PageId stored;
  std::memcpy(&stored, data, sizeof(stored));
  if (stored != id) return false;
  for (size_t i = sizeof(stored); i < kPageCapacity; ++i) {
    if (data[i] != static_cast<char>(id & 0x7f)) return false;
  }
  return true;
}

class BufferPoolConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("segdiff_bp_concurrency");
    RemoveTestStore(path_);
    auto pager = Pager::Open(path_, /*create=*/true);
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    pager_ = std::move(pager).value();
    char buf[kPageSize];
    for (size_t i = 0; i < kNumPages; ++i) {
      auto id = pager_->AllocatePage();
      ASSERT_TRUE(id.ok());
      pages_.push_back(*id);
      StampPage(buf, *id);
      ASSERT_TRUE(pager_->WritePage(*id, buf).ok());
    }
  }
  void TearDown() override {
    pager_.reset();
    RemoveTestStore(path_);
  }

  std::string path_;
  std::unique_ptr<Pager> pager_;
  std::vector<PageId> pages_;
};

TEST_F(BufferPoolConcurrencyTest, RandomReadStorm) {
  BufferPool pool(pager_.get(), kPoolPages);
  EXPECT_GT(pool.num_shards(), 1u);  // 32 pages stripe into 2 shards
  std::vector<std::thread> threads;
  std::vector<int> bad_reads(kNumThreads, 0);
  for (size_t t = 0; t < kNumThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t rng = 0x9e3779b97f4a7c15ull + t;
      for (size_t i = 0; i < kFetchesPerThread; ++i) {
        const PageId id = pages_[NextRand(&rng) % kNumPages];
        auto handle = pool.Fetch(id);
        if (!handle.ok() || !CheckPage(handle->data(), id)) {
          ++bad_reads[t];
          continue;
        }
        if (i % 7 == 0) {
          // Hold a second pin concurrently; both release on scope exit.
          const PageId other = pages_[NextRand(&rng) % kNumPages];
          auto second = pool.Fetch(other);
          if (!second.ok() || !CheckPage(second->data(), other)) {
            ++bad_reads[t];
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (size_t t = 0; t < kNumThreads; ++t) {
    EXPECT_EQ(bad_reads[t], 0) << "thread " << t;
  }
  // Every fetch was either a hit or a miss; nothing double-counted.
  // Each iteration does one fetch plus an extra one every 7th.
  const BufferPoolStats stats = pool.stats();
  const uint64_t expected =
      kNumThreads * (kFetchesPerThread + (kFetchesPerThread + 6) / 7);
  EXPECT_EQ(stats.hits + stats.misses, expected);
  EXPECT_GT(stats.misses, 0u);  // pool smaller than working set
  EXPECT_LE(pool.cached_pages(), pool.capacity());
  // No lost pins: DropAll fails if any frame is still pinned.
  ASSERT_TRUE(pool.DropAll().ok());
  EXPECT_EQ(pool.cached_pages(), 0u);
}

TEST_F(BufferPoolConcurrencyTest, ConcurrentWritersFlushCleanly) {
  // Each thread owns a disjoint page slice, so page data is never
  // written concurrently; only the pool's internal state is contended.
  BufferPool pool(pager_.get(), kPoolPages);
  const size_t per_thread = kNumPages / kNumThreads;
  std::vector<std::thread> threads;
  std::vector<int> failures(kNumThreads, 0);
  for (size_t t = 0; t < kNumThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < 50; ++round) {
        for (size_t k = 0; k < per_thread; ++k) {
          const PageId id = pages_[t * per_thread + k];
          auto handle = pool.Fetch(id);
          if (!handle.ok()) {
            ++failures[t];
            continue;
          }
          handle->data()[kPageCapacity - 1] = static_cast<char>(round);
          handle->MarkDirty();
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (size_t t = 0; t < kNumThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
  ASSERT_TRUE(pool.DropAll().ok());  // flushes every surviving dirty frame
  // All pages carry the final round stamp, whether it reached disk via
  // eviction writeback or the final flush.
  for (const PageId id : pages_) {
    auto handle = pool.Fetch(id);
    ASSERT_TRUE(handle.ok());
    EXPECT_EQ(handle->data()[kPageCapacity - 1], static_cast<char>(49))
        << "page " << id;
  }
}

TEST_F(BufferPoolConcurrencyTest, SmallPoolsStaySingleShard) {
  BufferPool small(pager_.get(), 4);
  EXPECT_EQ(small.num_shards(), 1u);
  BufferPool large(pager_.get(), 4096);
  EXPECT_EQ(large.num_shards(), BufferPool::kMaxShards);
}

}  // namespace
}  // namespace segdiff
