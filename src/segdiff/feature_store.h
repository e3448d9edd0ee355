// FeatureStore: the storage substrate both index kinds share.
//
// SegDiffIndex (segment -> feature pipeline) and ExhIndex (exhaustive
// pair table) are each a set of feature tables in one minidb store,
// searched by range queries. Everything about the store itself lives
// here, written once: the open/abandon lifecycle, WAL replay, the
// append/flush shells, checkpoint/compact/repair/drop-cache, the worker
// pool, and the governed search shell. An index supplies its schema and
// tables (OpenImpl), its per-observation pipeline step (IngestStep /
// FlushStep), its ingest-state blob, and its result decoding.
//
// Ingest contract. Both index kinds ingest a live feed one
// AppendObservation(t, v) call per arriving sample. The pipeline is a
// pure function of the observation sequence, so any chunking of the
// same feed — one observation at a time, arbitrary chunks via
// AppendSeries, or whole series via IngestSeries — produces
// byte-identical feature tables, provided pending state is flushed at
// the same point.
//
//   AppendObservation   never forces a segment boundary; features for
//                       the open trailing window become searchable only
//                       once the window closes naturally or is flushed.
//   FlushPending        finalizes the open trailing state so everything
//                       appended so far is searchable. Appending may
//                       continue afterwards; for SegDiff the next
//                       segment is anchored at the flushed endpoint, so
//                       the approximation stays contiguous.
//   IngestSeries        batch convenience: AppendSeries + FlushPending,
//                       preserving the historical one-shot contract.
//
// Stores persist their pending state (open segment, pair windows) into
// the catalog on Checkpoint/close, so a reopened store resumes
// appending exactly where it left off.
//
// Durability (WAL-backed stores): AppendObservation logs the
// observation to the write-ahead log before touching any table, and
// FlushPending closes the group-commit window — once FlushPending
// returns OK, every observation appended so far survives a crash
// (acknowledged means durable). Recovery replays the logged
// observations through the same pipeline, so a crash between flushes
// loses at most the tail after the last group commit. Appends and
// flushes may run concurrently with searches: each search reads a
// point-in-time snapshot taken on an append boundary.

#ifndef SEGDIFF_SEGDIFF_FEATURE_STORE_H_
#define SEGDIFF_SEGDIFF_FEATURE_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/admission.h"
#include "common/governance.h"
#include "common/result.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "query/executor.h"
#include "storage/db.h"
#include "ts/series.h"

namespace segdiff {

/// Storage configuration every feature store shares; SegDiffOptions and
/// ExhOptions extend it with their build parameters.
struct StoreOptions {
  size_t buffer_pool_pages = 4096;
  /// Simulated storage read latency (cold-cache experiments); 0 = off.
  uint64_t sim_seq_read_ns = 0;
  uint64_t sim_random_read_ns = 0;
  /// File system the store's IO goes through (nullptr = default POSIX
  /// Vfs; non-owning). Fault-injection tests substitute their own.
  Vfs* vfs = nullptr;
  /// Verify page checksums on read (see DatabaseOptions).
  bool verify_checksums = true;
  /// Write-ahead logging: every appended observation is redo-logged and
  /// group-committed, so a crash loses at most the tail after the last
  /// group commit. false reverts to checkpoint-only durability (an
  /// unclean shutdown loses everything since the last Checkpoint).
  bool wal = true;
  /// Group-commit window in milliseconds; 0 = fsync every append; -1 =
  /// the SEGDIFF_WAL_GROUP_COMMIT_MS environment variable (default 1).
  int64_t wal_group_commit_ms = -1;
  /// Admission-control limits for this store's query entry points
  /// (defaults auto-size to the machine; see AdmissionOptions).
  AdmissionOptions admission;
};

/// How a search executes its range queries.
enum class QueryMode : unsigned char {
  kSeqScan = 0,   ///< paper's "sequential scan"
  kIndexScan = 1, ///< paper's "using indexes"
  kAuto = 2,      ///< the store chooses: today the zone-map-pruned
                  ///< sequential scan, which never walks an index
};

/// Per-search knobs.
struct SearchOptions {
  QueryMode mode = QueryMode::kSeqScan;
  /// Intra-query parallelism. 0 or 1 executes everything serially on the
  /// calling thread, preserving the paper's single-threaded semantics.
  /// >= 2 runs the search's independent range queries concurrently on a
  /// worker pool (Exh's single range scan is instead partitioned across
  /// the workers by heap page). Results and SearchStats are identical to
  /// the serial path; only wall-clock time changes. Requests > 1 are
  /// clamped to the store's AdmissionOptions::max_threads_per_query.
  size_t num_threads = 0;

  // Governance (see DESIGN.md §11). All default to "ungoverned".

  /// Relative deadline: the search fails with DeadlineExceeded within
  /// one page of work once `deadline_ms` ms have elapsed. 0 = none.
  uint64_t deadline_ms = 0;
  /// Absolute deadline, combined (earlier wins) with `deadline_ms`.
  /// Lets a driver spread one budget across several searches
  /// (TransectIndex::SearchAll).
  Deadline deadline;
  /// Cooperative cancel: obtain from a CancellationSource and Cancel()
  /// from any thread; the search fails with Status::Cancelled within one
  /// page of work.
  CancellationToken cancel;
  /// Cap on result-set memory. On breach the search returns the pairs
  /// found so far with SearchStats::truncated set — or, when the caller
  /// passed no SearchStats out-param (nowhere to surface the flag),
  /// fails with ResourceExhausted instead. Never silent. 0 = unlimited.
  uint64_t max_result_bytes = 0;
  /// Admission scheduling class (see QueryPriority).
  QueryPriority priority = QueryPriority::kNormal;
};

/// Execution report for one search.
struct SearchStats {
  ScanStats scan;
  uint64_t queries_issued = 0;
  uint64_t pairs_returned = 0;
  double seconds = 0.0;
  /// Observation count frozen with the search's snapshot: the search
  /// sees exactly the features derived from the first
  /// `snapshot_observations` observations, no matter how much ingest
  /// runs concurrently (differential tests key on this).
  uint64_t snapshot_observations = 0;
  /// The result set was cut short by SearchOptions::max_result_bytes;
  /// pairs_returned counts only what was kept.
  bool truncated = false;
  /// The store has quarantined (checksum-failed) pages in the searched
  /// range: the scan routed around them, so pairs whose feature rows
  /// lived there are missing. scan.pages_quarantined/rows_quarantined
  /// size the hole. Only possible when the caller passed a SearchStats
  /// out-param — without one there is nowhere to surface the flag, and
  /// the search fails with a quarantined-range Corruption error instead.
  /// Never set together with a clean bill: partial == false means the
  /// result is complete over the snapshot.
  bool partial = false;
  /// High-water mark of result-set bytes across all of the search's
  /// threads (tracked even without a budget).
  uint64_t result_bytes_peak = 0;
  /// Time spent queued in admission control before executing.
  double admission_wait_ms = 0.0;
};

/// Rewrites a Corruption status coming out of a table scan into a
/// "quarantined range" error naming the store object (`what`), keeping
/// the underlying page diagnosis and adding remediation advice. Every
/// other status passes through unchanged. Used by the search paths so a
/// checksum-failed page surfaces as a clear, actionable error — never as
/// a partial result set.
Status QuarantineScanError(Status status, const std::string& what);

class FeatureStore {
 public:
  virtual ~FeatureStore() = default;

  FeatureStore(const FeatureStore&) = delete;
  FeatureStore& operator=(const FeatureStore&) = delete;

  /// Feeds the next observation; time stamps must be strictly increasing
  /// across the entire lifetime of the store (including across reopens).
  /// In WAL mode the observation is logged before any page is touched
  /// and acknowledged durable at the next group commit; a log failure
  /// fails the append with nothing applied. Safe to call concurrently
  /// with searches (which read snapshots); appends are serialized.
  Status AppendObservation(double t, double v);

  /// AppendObservation, for callers holding a Sample.
  Status AppendSample(const Sample& sample) {
    return AppendObservation(sample.t, sample.v);
  }

  /// Streams every sample of `series` through AppendObservation without
  /// flushing: the natural call for one chunk of a continuing feed.
  Status AppendSeries(const Series& series);

  /// Finalizes pending ingest state (e.g. the open trailing segment) so
  /// all appended data is searchable — and, in WAL mode, durable: the
  /// group-commit window closes before this returns (acknowledged means
  /// durable), and a grown log may be auto-checkpointed. Idempotent;
  /// appending may resume.
  Status FlushPending();

  /// Batch ingest: AppendSeries + FlushPending. May be called repeatedly
  /// with later series chunks (time stamps must keep increasing).
  virtual Status IngestSeries(const Series& series);

  /// Saves ingest state, then persists everything (catalog, pages,
  /// header).
  Status Checkpoint();

  /// Checkpoint then evict the buffer pool: cold-cache experiments.
  Status DropCaches();

  /// Saves ingest state, then rewrites the store into a fresh file at
  /// `destination_path` (Database::CompactInto). Prefer this over
  /// db()->CompactInto(): it guarantees the compacted store's ingest
  /// blob is consistent with its tables, so it reopens as a valid
  /// resume point. The copy is columnar and index-free: it reopens
  /// index-less, and kIndexScan on it is refused.
  Status Compact(const std::string& destination_path);

  /// Salvages everything still readable into a fresh store at
  /// `destination_path` (Database::Repair): corrupt pages and segments
  /// are skipped and accounted in `report`, and surviving rows are
  /// copied as Compact copies them. The source store is not modified.
  /// The copied ingest blob reflects the current pipeline state, so the
  /// repaired store reopens as a valid resume point.
  Status Repair(const std::string& destination_path, RepairReport* report);

  /// Observations consumed over the store's lifetime.
  uint64_t num_observations() const { return observations_; }
  Database* db() { return db_.get(); }

  /// The store's admission gate: governance counters for --stats, plus
  /// direct access for tests and front-ends (e.g. to hold slots or
  /// inspect queue depth). Searches are admitted through it implicitly.
  AdmissionController* admission_controller() { return &admission_; }

 protected:
  /// `ingest_state_key` names the catalog meta blob holding the index's
  /// resumable ingest state (a string literal).
  FeatureStore(const StoreOptions& options, const char* ingest_state_key);

  /// Opens the database at `path`, runs OpenImpl, then replays the WAL's
  /// recovered backlog. A store whose tables hold rows but which has no
  /// ingest-state blob (written before ingest state was persisted) is
  /// refused with NotSupported before OpenImpl can touch it; a fresh
  /// store, or one torn while its tables were being created, has no
  /// rows and opens. A failed open must not mutate the store: the
  /// database handle is abandoned (it neither checkpoints nor flushes
  /// on close) and CloseStore will not save the default or partial
  /// ingest state over the persisted blob — the files stay as they
  /// were, recovery still possible.
  Status OpenStore(const std::string& path, const StoreOptions& options,
                   bool create_if_missing);

  /// The close step every derived destructor runs first (a base
  /// destructor cannot reach the derived state): saves ingest state, for
  /// fully opened stores only, before db_'s destructor checkpoints the
  /// catalog.
  void CloseStore();

  /// Writes EncodeIngestState() into the catalog meta blob (persisted at
  /// the next checkpoint). Callers hold ingest_mu_ or are single-owner.
  void SaveIngestState();

  /// Everything a search's run step reads. Lives on the search's stack
  /// frame; `ctx` points at `budget`.
  struct SearchScope {
    explicit SearchScope(const SearchOptions& options);
    SearchScope(const SearchScope&) = delete;
    SearchScope& operator=(const SearchScope&) = delete;

    Stopwatch stopwatch;
    MemoryBudget budget;
    QueryContext ctx;
    AdmissionController::Ticket ticket;
    /// Intra-query parallelism after admission clamping; the lease
    /// holds a pool exactly when it is >= 2.
    size_t num_threads = 0;
    SharedPool::Lease lease;
    /// The point-in-time view every scan of the search reads.
    DatabaseSnapshot snapshot;
    /// With a stats out-param the search degrades gracefully over
    /// quarantined pages (routing around them, flagging the result
    /// partial) and over a memory-budget breach (truncating); without
    /// one there is nowhere to surface the flags, so both stay errors.
    bool allow_partial = false;
    bool truncated = false;
    SearchStats local;
  };

  /// The governed search shell: validates T against the store's window,
  /// admits, builds the QueryContext and budget, clamps the thread count
  /// and leases the pool, and freezes the snapshot on an append
  /// boundary. Then `run(scope, &rows)` plans and executes the range
  /// queries (keeping what it collected on a budget breach), and
  /// `finish(&rows)` post-processes them; a finish failure fails the
  /// search. Applies the truncation contract, fills SearchStats, and
  /// records the outcome with admission control.
  template <typename Row, typename Run, typename Finish>
  Result<std::vector<Row>> GovernedSearch(double T, double window_s,
                                          const SearchOptions& options,
                                          SearchStats* stats, const Run& run,
                                          const Finish& finish) {
    SearchScope scope(options);
    SEGDIFF_RETURN_IF_ERROR(BeginSearch(T, window_s, options, stats, &scope));
    std::vector<Row> rows;
    Status status = run(scope, &rows);
    scope.lease.Release();
    SEGDIFF_RETURN_IF_ERROR(SettleRun(std::move(status), &scope));
    status = finish(&rows);
    if (!status.ok()) {
      admission_.RecordOutcome(status, scope.budget.peak(), false);
      return status;
    }
    EndSearch(rows.size(), &scope, stats);
    return rows;
  }

  /// Builds the index's schema and tables on the opened database and
  /// restores its ingest state and pipeline.
  virtual Status OpenImpl() = 0;
  /// One observation through the index's pipeline. Runs under
  /// ingest_mu_ after the WAL append; InvalidArgument means the
  /// observation was rejected (replay skips it as already absorbed).
  virtual Status IngestStep(double t, double v) = 0;
  /// Finalizes the pipeline's open trailing state (FlushPending and a
  /// replayed flush record). Stores that materialize eagerly need none.
  virtual Status FlushStep() { return Status::OK(); }
  /// The resumable ingest state, serialized.
  virtual std::string EncodeIngestState() const = 0;
  /// Runs under ingest_mu_ before DropCaches evicts the pool.
  virtual void OnDropCaches() {}

  std::unique_ptr<Database> db_;
  /// Serializes writers (appends, flushes, checkpoints) against each
  /// other and against snapshot creation, so searches can run fully
  /// concurrently with ingest. Lock order: ingest_mu_ before lazy_mu_.
  std::mutex ingest_mu_;
  /// Serializes the lazy first-search initialisation (zone-map builds,
  /// index-specific caches).
  std::mutex lazy_mu_;
  uint64_t observations_ = 0;

 private:
  /// The NotSupported check OpenStore runs before OpenImpl. Reads only
  /// the catalog's in-memory row counts and meta blobs.
  Status RequireIngestState() const;
  /// Replays the WAL's recovered observation backlog through the
  /// pipeline (under Wal::Suspend): every acknowledged observation a
  /// crash interrupted lands back in the feature tables.
  Status DrainRecoveredOps();
  Status BeginSearch(double T, double window_s, const SearchOptions& options,
                     SearchStats* stats, SearchScope* scope);
  /// OK when the search goes on (possibly truncated); otherwise records
  /// the failed outcome and returns it.
  Status SettleRun(Status run, SearchScope* scope);
  void EndSearch(size_t rows, SearchScope* scope, SearchStats* stats);

  const char* ingest_state_key_;
  AdmissionController admission_;
  SharedPool pool_;  ///< parallel-search workers
  /// Set only when OpenStore fully succeeded (see CloseStore).
  bool opened_ = false;
};

}  // namespace segdiff

#endif  // SEGDIFF_SEGDIFF_FEATURE_STORE_H_
