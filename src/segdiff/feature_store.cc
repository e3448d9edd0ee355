#include "segdiff/feature_store.h"

#include <utility>

#include "storage/wal.h"

namespace segdiff {

Status QuarantineScanError(Status status, const std::string& what) {
  if (status.ok() || !status.IsCorruption()) {
    return status;
  }
  return Status::Corruption(
      "quarantined range: " + what + " has unreadable pages [" +
      std::string(status.message()) +
      "]; run `segdiff_cli verify --scrub` to map the damage, then "
      "rebuild or compact from a healthy replica");
}

FeatureStore::FeatureStore(const StoreOptions& options,
                           const char* ingest_state_key)
    : ingest_state_key_(ingest_state_key), admission_(options.admission) {}

Status FeatureStore::OpenStore(const std::string& path,
                               const StoreOptions& options,
                               bool create_if_missing) {
  Status status = [&]() -> Status {
    DatabaseOptions db_options;
    db_options.buffer_pool_pages = options.buffer_pool_pages;
    db_options.create_if_missing = create_if_missing;
    db_options.sim_seq_read_ns = options.sim_seq_read_ns;
    db_options.sim_random_read_ns = options.sim_random_read_ns;
    db_options.vfs = options.vfs;
    db_options.verify_checksums = options.verify_checksums;
    db_options.wal = options.wal;
    db_options.wal_group_commit_ms = options.wal_group_commit_ms;
    // Feature stores log the observation stream, not the rows it fans
    // out into: one kObservation record redoes the whole pipeline step
    // (every row and index insert it derives) on replay.
    db_options.wal_observation_log = true;
    SEGDIFF_ASSIGN_OR_RETURN(db_, Database::Open(path, db_options));
    SEGDIFF_RETURN_IF_ERROR(RequireIngestState());
    SEGDIFF_RETURN_IF_ERROR(OpenImpl());
    return DrainRecoveredOps();
  }();
  if (!status.ok()) {
    if (db_ != nullptr) {
      db_->Abandon();
    }
    return status;
  }
  opened_ = true;
  return Status::OK();
}

Status FeatureStore::RequireIngestState() const {
  Status blob = db_->GetMeta(ingest_state_key_).status();
  if (!blob.IsNotFound()) {
    return blob;  // present (OK), or a lookup error
  }
  uint64_t rows = 0;
  for (const auto& table : db_->tables()) {
    rows += table->row_count();
  }
  if (rows == 0) {
    return Status::OK();  // fresh, or torn while its tables were created
  }
  return Status::NotSupported(
      db_->pager()->path() + ": store holds " + std::to_string(rows) +
      " rows but no '" + ingest_state_key_ +
      "' ingest-state blob (written before ingest state was persisted); "
      "such stores are no longer supported, only stores that persist "
      "their ingest state open");
}

Status FeatureStore::DrainRecoveredOps() {
  if (!db_->HasRecoveredOps()) {
    return Status::OK();
  }
  std::vector<WalRecord> ops = db_->TakeRecoveredOps();
  // Replay through the normal pipeline, suspended so nothing is logged
  // twice. The restored ingest-state blob is checkpoint-consistent with
  // the tables (SaveIngestState never WAL-logs it), so the backlog
  // normally applies in full. An observation the pipeline refused live
  // was still logged — the strictly-increasing-timestamp check runs
  // after the WAL append — so replay refuses it again and skips it,
  // exactly as the live append did.
  Wal::Suspend suspend(db_->wal());
  for (const WalRecord& op : ops) {
    if (op.type == WalRecordType::kFlush) {
      SEGDIFF_RETURN_IF_ERROR(FlushStep());
      continue;
    }
    SEGDIFF_ASSIGN_OR_RETURN(WalObservation obs,
                             DecodeWalObservation(op.payload));
    Status status = IngestStep(obs.t, obs.v);
    if (status.IsInvalidArgument()) {
      continue;  // already absorbed before the crash
    }
    SEGDIFF_RETURN_IF_ERROR(status);
    ++observations_;
  }
  return Status::OK();
}

void FeatureStore::CloseStore() {
  // Only a fully opened store saves state: after a failed open the
  // pipeline is default or partially restored, and writing it back
  // would destroy the persisted resume point (and mask the corruption).
  if (opened_) {
    SaveIngestState();  // db_'s destructor checkpoints the catalog
    opened_ = false;
  }
}

void FeatureStore::SaveIngestState() {
  std::string blob = EncodeIngestState();
  // Suspended: the blob must reach the catalog only via Checkpoint,
  // which flushes the tables it describes in the same operation. A
  // kPutMeta WAL record would let recovery restore a pipeline state
  // newer than the checkpointed tables and then skip re-deriving (via
  // DrainRecoveredOps) exactly the rows that reverted with the data
  // file. The state is redundant with the observation log, so losing
  // the un-checkpointed blob costs nothing.
  Wal::Suspend suspend(db_->wal());
  // Suspended appends are no-ops, so this PutMeta cannot fail.
  (void)db_->PutMeta(ingest_state_key_, std::move(blob));
}

Status FeatureStore::AppendObservation(double t, double v) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  Status status = [&]() -> Status {
    if (db_->degraded()) {
      // Fail fast with the recorded reason instead of tearing further
      // state; searches keep running off the durable prefix.
      return Status::NoSpace("store is degraded (read-only): " +
                             db_->GetHealth().degraded_reason);
    }
    if (db_->wal() != nullptr) {
      // WAL-before-data: the redo record is in the log (buffered for the
      // next group commit) before the pipeline touches any page.
      SEGDIFF_RETURN_IF_ERROR(db_->wal()->AppendObservation(t, v).status());
    }
    SEGDIFF_RETURN_IF_ERROR(IngestStep(t, v));
    ++observations_;
    return Status::OK();
  }();
  if (!status.ok()) {
    // A no-space failure flips the store into degraded read-only mode;
    // the observation was not acknowledged and will not be partially
    // visible (WAL-before-data keeps replay consistent).
    db_->NoteStorageFailure(status);
  }
  return status;
}

Status FeatureStore::AppendSeries(const Series& series) {
  for (const Sample& sample : series) {
    SEGDIFF_RETURN_IF_ERROR(AppendObservation(sample.t, sample.v));
  }
  return Status::OK();
}

Status FeatureStore::FlushPending() {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  Status status = [&]() -> Status {
    Wal* wal = db_->wal();
    if (wal != nullptr) {
      SEGDIFF_RETURN_IF_ERROR(wal->AppendFlushMarker().status());
    }
    SEGDIFF_RETURN_IF_ERROR(FlushStep());
    if (wal != nullptr) {
      // Acknowledged means durable: everything appended so far survives a
      // crash from here on. State is saved first so an auto-checkpoint
      // (which truncates the log) leaves a consistent resume point.
      SaveIngestState();
      SEGDIFF_RETURN_IF_ERROR(wal->Sync());
      SEGDIFF_RETURN_IF_ERROR(db_->MaybeAutoCheckpoint());
    }
    return Status::OK();
  }();
  if (!status.ok()) {
    db_->NoteStorageFailure(status);
  }
  return status;
}

Status FeatureStore::IngestSeries(const Series& series) {
  SEGDIFF_RETURN_IF_ERROR(AppendSeries(series));
  return FlushPending();
}

Status FeatureStore::Checkpoint() {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  SaveIngestState();
  return db_->Checkpoint();
}

Status FeatureStore::Compact(const std::string& destination_path) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  SaveIngestState();  // the copied ingest blob must reflect the tables
  return db_->CompactInto(destination_path);
}

Status FeatureStore::Repair(const std::string& destination_path,
                            RepairReport* report) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  // Best-effort: on a degraded store PutMeta is gated, so the copied
  // blob is the last one saved — the WAL backlog (already replayed at
  // Open) covers the difference.
  SaveIngestState();
  return db_->Repair(destination_path, report);
}

Status FeatureStore::DropCaches() {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  OnDropCaches();
  SaveIngestState();
  return db_->DropCaches();
}

FeatureStore::SearchScope::SearchScope(const SearchOptions& options)
    : budget(options.max_result_bytes) {
  // One context shared by every thread of the search, one budget
  // charged by result growth.
  ctx.cancel = options.cancel;
  ctx.deadline = options.deadline_ms > 0
                     ? Deadline::Earlier(options.deadline,
                                         Deadline::AfterMillis(
                                             options.deadline_ms))
                     : options.deadline;
  ctx.budget = &budget;
}

Status FeatureStore::BeginSearch(double T, double window_s,
                                 const SearchOptions& options,
                                 SearchStats* stats, SearchScope* scope) {
  if (!(T > 0.0)) {
    return Status::InvalidArgument("T must be positive");
  }
  if (T > window_s) {
    return Status::InvalidArgument(
        "T exceeds the configured window w; rebuild with a larger window");
  }
  // One admission slot held for the query's whole execution.
  Stopwatch admission_watch;
  Result<AdmissionController::Ticket> ticket =
      admission_.Admit(scope->ctx, options.priority);
  if (!ticket.ok()) {
    admission_.RecordOutcome(ticket.status(), 0, false);
    return ticket.status();
  }
  scope->ticket = std::move(ticket).value();
  scope->local.admission_wait_ms = admission_watch.ElapsedMillis();

  // 0/1 stays serial (paper semantics); explicit parallelism is clamped
  // by the store's per-query worker limit.
  scope->num_threads = options.num_threads <= 1
                           ? options.num_threads
                           : admission_.ClampThreads(options.num_threads);
  scope->lease = pool_.Acquire(scope->num_threads);

  // Freeze the view this search reads: taken between ingest operations
  // (under ingest_mu_), so it is a consistent cut of every table, and
  // the search needs no further coordination with concurrent appends.
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    scope->snapshot = db_->CreateSnapshot();
    scope->local.snapshot_observations = observations_;
  }
  scope->allow_partial = stats != nullptr;
  return Status::OK();
}

Status FeatureStore::SettleRun(Status run, SearchScope* scope) {
  if (run.ok()) {
    return run;
  }
  const bool breached = run.IsResourceExhausted() && scope->budget.breached();
  if (breached && scope->allow_partial) {
    // Budget breach degrades gracefully: keep the rows collected so far
    // and flag the cut. Without a stats out-param there is nowhere to
    // surface the flag, so fail instead — never a silent cut.
    scope->truncated = true;
    return Status::OK();
  }
  admission_.RecordOutcome(run, scope->budget.peak(), breached);
  return run;
}

void FeatureStore::EndSearch(size_t rows, SearchScope* scope,
                             SearchStats* stats) {
  SearchStats& local = scope->local;
  local.pairs_returned = rows;
  local.truncated = scope->truncated;
  local.partial = local.scan.pages_quarantined > 0 ||
                  local.scan.rows_quarantined > 0;
  local.result_bytes_peak = scope->budget.peak();
  local.seconds = scope->stopwatch.ElapsedSeconds();
  admission_.RecordOutcome(Status::OK(), scope->budget.peak(),
                           scope->truncated);
  if (stats != nullptr) {
    *stats = local;
  }
}

}  // namespace segdiff
