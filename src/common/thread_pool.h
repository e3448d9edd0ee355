// Fixed-size worker pool for intra-query parallelism.
//
// The pool is created once with N workers and destroyed deterministically:
// the destructor stops intake, drains queued tasks, and joins every
// worker. ParallelFor is the primary API — it dynamically load-balances
// iterations over the workers *and* the calling thread, so it completes
// even when every worker is busy (nested ParallelFor from a worker
// thread is therefore safe, if rarely useful).

#ifndef SEGDIFF_COMMON_THREAD_POOL_H_
#define SEGDIFF_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/governance.h"
#include "common/status.h"

namespace segdiff {

/// First-error-wins capture for fan-out work: every worker Records its
/// Status, and only the first non-OK one (by completion order) is kept.
/// This is the single error-propagation idiom for pool fan-outs —
/// ParallelFor is built on it, and ad-hoc fan-outs (Submit + Wait) should
/// use it too rather than hand-rolling a mutex + Status pair.
class FirstErrorCollector {
 public:
  /// Keeps `status` if it is the first non-OK status recorded.
  void Record(Status status) {
    if (status.ok()) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (first_.ok()) {
      first_ = std::move(status);
    }
  }

  bool failed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return !first_.ok();
  }

  /// OK if nothing failed, else the first recorded error.
  Status status() const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_;
  }

 private:
  mutable std::mutex mu_;
  Status first_;
};

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Enqueues `task` for execution by some worker.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  /// Invokes `fn(i)` for every i in [0, n), spread across the workers and
  /// the calling thread. Blocks until all iterations finish. On error the
  /// remaining iterations are skipped and the first error (by completion
  /// order) is returned.
  Status ParallelFor(size_t n, const std::function<Status(size_t)>& fn);

  /// Governed variant: additionally checks `ctx` (may be null) before
  /// every iteration claim, so a cancelled or expired query stops
  /// fanning out new iterations immediately — already-running iterations
  /// still finish (they observe the same context at their own page-level
  /// check points and unwind through their Status path).
  Status ParallelFor(size_t n, const QueryContext* ctx,
                     const std::function<Status(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable task_ready_;   ///< workers wait here for tasks
  std::condition_variable all_idle_;     ///< Wait() waits here
  std::deque<std::function<void()>> tasks_;
  size_t in_flight_ = 0;  ///< tasks dequeued but not yet finished
  bool stop_ = false;
};

/// A lazily created pool shared by an object's concurrent fan-outs (one
/// per store or transect). Each fan-out leases it for its duration; the
/// pool is sized `num_threads - 1` workers, since the calling thread
/// participates in every ParallelFor. Resizing destroys the pool
/// (joining its workers), so it only happens while nobody holds a
/// lease; concurrent users asking for another width share whatever
/// exists — ParallelFor spreads over the workers there are, so only the
/// parallelism degree differs, never the results.
class SharedPool {
 public:
  /// RAII use of the pool: releasing (destruction) drops the user count.
  /// An empty lease (serial work) holds no pool.
  class Lease {
   public:
    Lease() = default;
    ~Lease() { Release(); }
    Lease(Lease&& other) noexcept
        : owner_(other.owner_), pool_(other.pool_) {
      other.owner_ = nullptr;
      other.pool_ = nullptr;
    }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        Release();
        owner_ = other.owner_;
        pool_ = other.pool_;
        other.owner_ = nullptr;
        other.pool_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    /// The leased pool; null for an empty lease.
    ThreadPool* get() const { return pool_; }
    void Release();

   private:
    friend class SharedPool;
    Lease(SharedPool* owner, ThreadPool* pool) : owner_(owner), pool_(pool) {}

    SharedPool* owner_ = nullptr;
    ThreadPool* pool_ = nullptr;
  };

  /// Leases the pool for a `num_threads`-wide fan-out, creating or
  /// resizing it as needed. `num_threads` <= 1 returns an empty lease.
  Lease Acquire(size_t num_threads);

 private:
  std::mutex mu_;  ///< guards pool_ + users_
  std::unique_ptr<ThreadPool> pool_;
  size_t users_ = 0;  ///< leases currently held
};

/// Fan-out with ordered result collection: invokes `fn(i, &(*out)[i])`
/// for every i in [0, n), each iteration writing only its own
/// pre-allocated slot — so no aggregation lock is needed and the
/// collected results are in index order no matter which worker finished
/// first (deterministic merges fold `*out` front to back afterwards).
/// With a null `pool` the iterations run serially on the calling thread
/// (same slots, same order); `ctx` may be null for ungoverned fan-outs.
/// On error the first failure (by completion order) is returned and
/// `*out` slots of unfinished iterations keep their default-constructed
/// value — callers must not use `*out` after a failure.
template <typename T, typename Fn>
Status ParallelMap(ThreadPool* pool, size_t n, const QueryContext* ctx,
                   std::vector<T>* out, const Fn& fn) {
  out->clear();
  out->resize(n);
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      if (ctx != nullptr) {
        Status status = ctx->Check();
        if (!status.ok()) {
          return status;
        }
      }
      Status status = fn(i, &(*out)[i]);
      if (!status.ok()) {
        return status;
      }
    }
    return Status::OK();
  }
  return pool->ParallelFor(
      n, ctx, [&](size_t i) -> Status { return fn(i, &(*out)[i]); });
}

}  // namespace segdiff

#endif  // SEGDIFF_COMMON_THREAD_POOL_H_
