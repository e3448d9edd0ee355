#include "storage/db.h"

#include <cstring>
#include <map>
#include <utility>

#include "common/env.h"
#include "common/logging.h"

namespace segdiff {
namespace {

bool IsLogicalRecord(WalRecordType type) {
  return type != WalRecordType::kUndoImage;
}

}  // namespace

Result<std::unique_ptr<Database>> Database::Open(
    const std::string& path, const DatabaseOptions& options) {
  std::unique_ptr<Database> db(new Database());
  SEGDIFF_ASSIGN_OR_RETURN(
      db->pager_, Pager::Open(path, options.create_if_missing, options.vfs));
  db->pager_->SetSimulatedReadLatency(options.sim_seq_read_ns,
                                      options.sim_random_read_ns);
  db->pager_->set_verify_checksums(options.verify_checksums);
  db->pool_ =
      std::make_unique<BufferPool>(db->pager_.get(), options.buffer_pool_pages);
  db->wal_auto_checkpoint_bytes_ = options.wal_auto_checkpoint_bytes;

  // Fresh file: materialize the catalog root page (page 1).
  const bool fresh = db->pager_->page_count() == 1;
  if (fresh) {
    SEGDIFF_ASSIGN_OR_RETURN(PageHandle root, db->pool_->AllocatePinned());
    if (root.page_id() != 1) {
      return Status::Internal("catalog root allocated at unexpected page");
    }
  }

  // WAL is forced off where it cannot work: anonymous stores vanish
  // with the process. replay_wal=false (read-only inspection) skips the
  // log entirely.
  const bool wal_enabled =
      options.wal && options.replay_wal && path != ":memory:";
  std::vector<WalRecord> recovered;
  if (wal_enabled) {
    WalOptions wal_options;
    wal_options.group_commit_ms =
        options.wal_group_commit_ms >= 0
            ? options.wal_group_commit_ms
            : GetEnvInt64("SEGDIFF_WAL_GROUP_COMMIT_MS", 1);
    SEGDIFF_ASSIGN_OR_RETURN(
        db->wal_, Wal::Open(db->pager_->vfs(), path, wal_options,
                            db->pager_->applied_lsn() + 1));
    db->wal_->set_logs_rows(!options.wal_observation_log);
    db->pool_->set_wal(db->wal_.get());
    recovered = db->wal_->TakeRecoveredRecords();
    if (fresh && !recovered.empty()) {
      // A fresh database cannot have a tail to replay — every logical
      // record postdates the first CreateTable checkpoint. This log
      // belongs to a deleted store that shared the path (the database
      // file was removed, its sidecar survived); replaying it would
      // resurrect foreign data, so discard it.
      recovered.clear();
      SEGDIFF_RETURN_IF_ERROR(db->wal_->Reset(1));
    }
    db->recovered_count_ = recovered.size();
  }

  bool has_logical = false;
  for (const WalRecord& record : recovered) {
    has_logical = has_logical || IsLogicalRecord(record.type);
  }
  if (!recovered.empty()) {
    // Undo rollback: every page written to the data file since the last
    // completed checkpoint (a steal or a checkpoint flush the crash
    // interrupted) carries an undo image of its prior bytes; applying
    // the OLDEST image per page restores the page's content as of that
    // checkpoint, so the logical replay below re-runs against an exact
    // checkpoint state — required when a crash preserves unsynced
    // writes (kill -9, power loss after the page cache drained).
    // Applied in the pool only (nothing is written until a checkpoint
    // or a steal), keeping a failed Open side-effect-free, and before
    // ReadCatalog so patched catalog pages are read patched. PinFresh
    // skips the disk read, so an image also heals a page torn by the
    // crash. Images of pages past the checkpoint's page count are
    // dropped: those pages postdate the checkpoint and replay
    // re-creates them from scratch.
    std::map<uint64_t, std::string> oldest;
    for (WalRecord& record : recovered) {
      if (record.type != WalRecordType::kUndoImage) continue;
      SEGDIFF_ASSIGN_OR_RETURN(WalUndoImage image,
                               DecodeWalUndoImage(record.payload));
      if (image.page_id < db->pager_->page_count() &&
          image.image.size() == kPageCapacity &&
          oldest.find(image.page_id) == oldest.end()) {
        oldest[image.page_id] = std::move(image.image);
      }
    }
    for (const auto& [page_id, image] : oldest) {
      SEGDIFF_ASSIGN_OR_RETURN(PageHandle page, db->pool_->PinFresh(page_id));
      std::memcpy(page.data(), image.data(), kPageCapacity);
      page.MarkDirty();
    }
  }

  SEGDIFF_ASSIGN_OR_RETURN(CatalogData catalog, ReadCatalog(db->pool_.get()));
  db->meta_ = std::move(catalog.blobs);
  for (TableMeta& meta : catalog.tables) {
    SEGDIFF_ASSIGN_OR_RETURN(
        std::unique_ptr<Table> table,
        Table::Attach(db->pool_.get(), meta.name, std::move(meta.schema),
                      meta.heap, std::move(meta.columnar)));
    for (IndexMeta& index : meta.indexes) {
      SEGDIFF_RETURN_IF_ERROR(table->AttachIndex(
          index.name, std::move(index.key_columns), index.meta_page));
    }
    // Zone maps are derived data persisted under a reserved blob key;
    // a blob that fails to parse or disagrees with the heap (e.g. a
    // crash persisted pages the map never saw) is simply dropped —
    // pruning stays off until Table::EnsureZoneMap rebuilds it.
    auto blob = db->meta_.find(kZoneMapBlobPrefix + table->name());
    if (blob != db->meta_.end()) {
      Result<ZoneMap> map = ZoneMap::Deserialize(blob->second);
      if (map.ok()) {
        table->AttachZoneMap(std::move(map).value());
      }
    }
    db->tables_.push_back(std::move(table));
  }
  // The reserved blobs never live in meta_; Checkpoint regenerates them
  // from the attached tables (and CompactInto must not copy stale ones).
  for (auto it = db->meta_.begin(); it != db->meta_.end();) {
    it = it->first.rfind(kZoneMapBlobPrefix, 0) == 0 ? db->meta_.erase(it)
                                                     : ++it;
  }

  if (has_logical) {
    SEGDIFF_RETURN_IF_ERROR(db->ReplayWal(std::move(recovered)));
  }
  db->opened_ = true;
  return db;
}

Status Database::ReplayWal(std::vector<WalRecord> records) {
  // Replay re-runs the original mutations through the normal code
  // paths, suspended so nothing is logged twice. Everything lands in
  // the buffer pool only; the file advances at the next checkpoint.
  Wal::Suspend suspend(wal_.get());
  for (WalRecord& record : records) {
    switch (record.type) {
      case WalRecordType::kPutMeta: {
        SEGDIFF_ASSIGN_OR_RETURN(WalMetaUpdate update,
                                 DecodeWalPutMeta(record.payload));
        meta_[std::move(update.name)] = std::move(update.blob);
        break;
      }
      case WalRecordType::kEraseMeta: {
        SEGDIFF_ASSIGN_OR_RETURN(std::string name,
                                 DecodeWalEraseMeta(record.payload));
        meta_.erase(name);
        break;
      }
      case WalRecordType::kRowAppend: {
        SEGDIFF_ASSIGN_OR_RETURN(WalRowAppend append,
                                 DecodeWalRowAppend(record.payload));
        Result<Table*> table = GetTable(append.table);
        if (!table.ok()) {
          return Status::Corruption(
              "WAL row-append references unknown table '" + append.table +
              "' (checkpoint missing after CreateTable?)");
        }
        if (append.row.size() != (*table)->schema().RowBytes()) {
          return Status::Corruption("WAL row size mismatch for table '" +
                                    append.table + "'");
        }
        const uint64_t have = (*table)->row_count();
        if (append.ordinal < have) {
          break;  // already present — idempotent replay skips it
        }
        if (append.ordinal > have) {
          return Status::Corruption(
              "WAL row-append gap for table '" + append.table + "': log has " +
              "ordinal " + std::to_string(append.ordinal) + ", table has " +
              std::to_string(have) + " rows");
        }
        SEGDIFF_RETURN_IF_ERROR(
            (*table)->InsertEncoded(append.row.data()).status());
        break;
      }
      case WalRecordType::kObservation:
      case WalRecordType::kFlush:
        // Engine records: their redo semantics live in the owning
        // SegDiff/Exh index, which drains them right after attach.
        recovered_ops_.push_back(std::move(record));
        break;
      case WalRecordType::kUndoImage:
        // Already applied: Open rolled every imaged page back to its
        // checkpoint-era content before the catalog was read.
        break;
    }
  }
  return Status::OK();
}

std::vector<WalRecord> Database::TakeRecoveredOps() {
  return std::move(recovered_ops_);
}

Database::~Database() {
  if (pool_ != nullptr && (!opened_ || abandoned_)) {
    // Never flush state of a handle that was not successfully opened or
    // was explicitly abandoned — it could overwrite a store recovery
    // can still salvage (e.g. checkpoint an empty catalog over it).
    pool_->set_abandoned();
  }
  if (!opened_ || closed_ || abandoned_) {
    return;  // wal_'s destructor still stops the flusher thread
  }
  Status status = Close();
  if (!status.ok()) {
    SEGDIFF_LOG(Error) << "close failed: " << status.ToString();
  }
}

Status Database::Close() {
  if (closed_ || abandoned_ || pager_ == nullptr || pool_ == nullptr) {
    return Status::OK();
  }
  closed_ = true;
  if (degraded()) {
    // Degraded close: nothing more can be made durable, and a failing
    // checkpoint could tear the file further. Leave the data file at
    // its last checkpoint plus the intact WAL — exactly the state crash
    // recovery replays — and report success: everything acknowledged is
    // already durable.
    pool_->set_abandoned();
    if (wal_ != nullptr) {
      wal_->Close();  // best-effort; the sticky flush error is expected
    }
    return Status::OK();
  }
  Status status = Checkpoint();
  if (wal_ != nullptr) {
    Status wal_status = wal_->Close();
    if (status.ok()) {
      status = wal_status;
    }
  }
  return status;
}

void Database::Abandon() {
  abandoned_ = true;
  if (pool_ != nullptr) {
    pool_->set_abandoned();
  }
}

Result<Table*> Database::CreateTable(const std::string& name,
                                     TableSchema schema) {
  if (degraded()) {
    return DegradedError();
  }
  for (const auto& table : tables_) {
    if (table->name() == name) {
      return Status::AlreadyExists("table exists: " + name);
    }
  }
  SEGDIFF_ASSIGN_OR_RETURN(
      std::unique_ptr<Table> table,
      Table::Create(pool_.get(), name, std::move(schema)));
  tables_.push_back(std::move(table));
  if (wal_ != nullptr) {
    // Redo records reference tables by name; make the (cheap, empty)
    // table durable before any row is logged against it.
    Status status = Checkpoint();
    if (!status.ok()) {
      tables_.pop_back();
      return status;
    }
  }
  return tables_.back().get();
}

Result<Table*> Database::GetTable(const std::string& name) const {
  for (const auto& table : tables_) {
    if (table->name() == name) {
      return table.get();
    }
  }
  return Status::NotFound("no such table: " + name);
}

Status Database::PutMeta(const std::string& name, std::string blob) {
  if (degraded()) {
    return DegradedError();
  }
  if (wal_ != nullptr) {
    // Log-before-apply: if the record cannot be logged (sticky flush
    // failure), refuse the update instead of applying state that could
    // be acknowledged but lost.
    Status status = wal_->AppendPutMeta(name, blob).status();
    if (!status.ok()) {
      NoteStorageFailure(status);
      return status;
    }
  }
  meta_[name] = std::move(blob);
  return Status::OK();
}

Result<std::string> Database::GetMeta(const std::string& name) const {
  auto it = meta_.find(name);
  if (it == meta_.end()) {
    return Status::NotFound("no such meta blob: " + name);
  }
  return it->second;
}

Result<bool> Database::EraseMeta(const std::string& name) {
  if (degraded()) {
    return DegradedError();
  }
  if (wal_ != nullptr) {
    Status status = wal_->AppendEraseMeta(name).status();
    if (!status.ok()) {
      NoteStorageFailure(status);
      return status;
    }
  }
  return meta_.erase(name) != 0;
}

Status Database::Checkpoint() {
  if (degraded()) {
    return DegradedError();
  }
  Status status = CheckpointImpl();
  if (!status.ok()) {
    NoteStorageFailure(status);
  }
  return status;
}

Status Database::CheckpointImpl() {
  // Fuzzy checkpoint: the WAL tail is forced durable first, so the
  // applied LSN recorded below can never run ahead of the log.
  if (wal_ != nullptr) {
    SEGDIFF_RETURN_IF_ERROR(wal_->Sync());
  }
  CatalogData catalog;
  catalog.tables.reserve(tables_.size());
  for (const auto& table : tables_) {
    TableMeta meta;
    meta.name = table->name();
    meta.schema = table->schema();
    meta.heap = table->heap_meta();
    if (table->columnar() != nullptr) {
      meta.columnar = table->columnar()->meta();
    }
    for (const TableIndex& index : table->indexes()) {
      IndexMeta index_meta;
      index_meta.name = index.name;
      index_meta.key_columns = index.key_columns;
      index_meta.meta_page = index.tree->meta_page();
      meta.indexes.push_back(std::move(index_meta));
    }
    catalog.tables.push_back(std::move(meta));
  }
  catalog.blobs = meta_;
  for (const auto& table : tables_) {
    if (table->zone_map() != nullptr) {
      catalog.blobs[kZoneMapBlobPrefix + table->name()] =
          table->zone_map()->Serialize();
    }
  }
  SEGDIFF_RETURN_IF_ERROR(WriteCatalog(pool_.get(), catalog));
  SEGDIFF_RETURN_IF_ERROR(pool_->FlushAll());
  // The applied LSN advances — and the log truncates — only when the
  // recovered engine backlog has been drained; otherwise the un-replayed
  // observations must stay in the log for the next engine open.
  const bool advance = wal_ != nullptr && recovered_ops_.empty();
  uint64_t applied = 0;
  if (advance) {
    // Captured AFTER the flush: FlushAll (and any steal inside
    // WriteCatalog) appends undo images, and the next generation must
    // start exactly one past the last assigned LSN or the first frame
    // written after the reset would look gapped to the scanner.
    applied = wal_->last_lsn();
    SEGDIFF_RETURN_IF_ERROR(wal_->EnsureDurable(applied));
    pager_->set_applied_lsn(applied);
  }
  SEGDIFF_RETURN_IF_ERROR(pager_->Sync());
  if (advance) {
    SEGDIFF_RETURN_IF_ERROR(wal_->Reset(applied + 1));
  }
  return Status::OK();
}

Status Database::MaybeAutoCheckpoint() {
  if (degraded()) {
    // Degraded stores keep serving; the engines call this opportunistically
    // and must not see the (already-reported) failure again here.
    return Status::OK();
  }
  if (wal_ == nullptr || wal_->SizeBytes() < wal_auto_checkpoint_bytes_) {
    return Status::OK();
  }
  return Checkpoint();
}

void Database::NoteStorageFailure(const Status& status) {
  if (status.ok() || !status.IsNoSpace()) {
    return;
  }
  std::lock_guard<std::mutex> lock(health_mu_);
  if (!degraded_.load(std::memory_order_relaxed)) {
    degraded_reason_ = status.ToString();
    degraded_.store(true, std::memory_order_release);
  }
}

Status Database::DegradedError() const {
  std::lock_guard<std::mutex> lock(health_mu_);
  return Status::NoSpace("store is degraded (read-only): " +
                         degraded_reason_);
}

StoreHealth Database::GetHealth() const {
  StoreHealth health;
  health.degraded = degraded();
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    health.degraded_reason = degraded_reason_;
  }
  if (pager_ != nullptr) {
    health.quarantined_pages = pager_->quarantined_count();
  }
  if (wal_ != nullptr) {
    health.wal_trimmed_tail_bytes = wal_->trimmed_tail_bytes();
  }
  if (pool_ != nullptr) {
    health.pool_read_failures = pool_->stats().read_failures;
  }
  return health;
}

DatabaseSnapshot Database::CreateSnapshot() {
  DatabaseSnapshot snapshot;
  snapshot.pool_snap_ = pool_->CreateSnapshot();
  for (const auto& table : tables_) {
    TableSnapshotView view;
    view.heap_meta = table->heap_meta();
    if (table->zone_map() != nullptr) {
      view.zone_map = std::make_shared<ZoneMap>(*table->zone_map());
    }
    snapshot.tables_[table->name()] = std::move(view);
  }
  return snapshot;
}

Status Database::CompactInto(const std::string& destination_path,
                             const CompactOptions& compact_options) {
  return CopyInto(destination_path, compact_options, /*salvage=*/false,
                  nullptr);
}

Status Database::Repair(const std::string& destination_path,
                        RepairReport* report) {
  if (report == nullptr) {
    return Status::InvalidArgument("Repair requires a report");
  }
  *report = RepairReport{};
  return CopyInto(destination_path, CompactOptions(), /*salvage=*/true,
                  report);
}

Status Database::CopyInto(const std::string& destination_path,
                          const CompactOptions& compact_options, bool salvage,
                          RepairReport* report) {
  DatabaseOptions options;
  options.buffer_pool_pages = pool_->capacity();
  options.create_if_missing = true;
  // The fresh store inherits this database's Vfs (fault-injection tests
  // compact through the injected file system too) and is always written
  // in the current format. It runs checkpoint-only: the bulk rewrite is
  // made durable by the single Checkpoint at the end, and logging every
  // copied row would only double the IO.
  options.vfs = pager_->vfs();
  options.verify_checksums = pager_->verify_checksums();
  options.wal = false;
  SEGDIFF_ASSIGN_OR_RETURN(std::unique_ptr<Database> fresh,
                           Database::Open(destination_path, options));
  if (!fresh->tables_.empty()) {
    return Status::InvalidArgument("compaction target is not empty: " +
                                   destination_path);
  }
  for (const auto& table : tables_) {
    SEGDIFF_ASSIGN_OR_RETURN(Table * copy,
                             fresh->CreateTable(table->name(),
                                                table->schema()));
    // Repair reads through the salvage scan (skips corrupt pages and
    // segments, accounting them); compaction reads strictly (any
    // corruption fails the copy — compacting must not silently drop).
    Table::SalvageStats salvage_stats;
    auto scan = [&](const HeapFile::ScanFn& fn) -> Status {
      return salvage ? table->ScanSalvage(fn, &salvage_stats)
                     : table->Scan(fn);
    };
    // Columnar tables carry no B+-tree: kAuto never reads one, and an
    // index scan over columnar rows ran up to 350x slower than the
    // pruned sequential scan (DESIGN §12). Only tables that stay in row
    // format keep their index definitions.
    if (compact_options.columnar &&
        ZoneMap::SupportsSchema(table->schema())) {
      // Row→columnar conversion: buffer encoded records segment by
      // segment and re-encode each chunk compressed. The final partial
      // chunk is columnar too — the copy's heap starts empty, ready for
      // fresh row-format appends.
      const size_t row_bytes = table->schema().RowBytes();
      std::vector<char> chunk;
      chunk.reserve(ColumnStore::kMaxSegmentRows * row_bytes);
      size_t chunk_rows = 0;
      SEGDIFF_RETURN_IF_ERROR(scan(
          [&](const char* record, RecordId, bool* keep_going) -> Status {
            *keep_going = true;
            chunk.insert(chunk.end(), record, record + row_bytes);
            if (++chunk_rows == ColumnStore::kMaxSegmentRows) {
              SEGDIFF_RETURN_IF_ERROR(
                  copy->AppendColumnarSegment(chunk.data(), chunk_rows));
              chunk.clear();
              chunk_rows = 0;
            }
            return Status::OK();
          }));
      if (chunk_rows > 0) {
        SEGDIFF_RETURN_IF_ERROR(
            copy->AppendColumnarSegment(chunk.data(), chunk_rows));
      }
    } else {
      SEGDIFF_RETURN_IF_ERROR(scan(
          [&](const char* record, RecordId, bool* keep_going) -> Status {
            *keep_going = true;
            Row row = DecodeRow(table->schema(), record);
            return copy->Insert(row).status();
          }));
      for (const TableIndex& index : table->indexes()) {
        std::vector<std::string> columns;
        for (size_t column : index.key_columns) {
          columns.push_back(table->schema().column(column).name);
        }
        SEGDIFF_RETURN_IF_ERROR(
            copy->CreateIndex(index.name, columns).status());
      }
    }
    if (report != nullptr) {
      ++report->tables;
      report->rows_salvaged += copy->row_count();
      report->pages_skipped += salvage_stats.pages_skipped;
      report->segments_skipped += salvage_stats.segments_skipped;
      report->rows_lost += salvage_stats.rows_lost;
    }
  }
  fresh->meta_ = meta_;  // ingest state etc. survives compaction
  return fresh->Close();
}

WalInfo Database::GetWalInfo() const {
  WalInfo info;
  info.applied_lsn = pager_ != nullptr ? pager_->applied_lsn() : 0;
  info.recovered_records = recovered_count_;
  if (wal_ == nullptr) {
    return info;
  }
  info.enabled = true;
  info.size_bytes = wal_->SizeBytes();
  info.last_lsn = wal_->last_lsn();
  info.durable_lsn = wal_->durable_lsn();
  info.trimmed_tail_bytes = wal_->trimmed_tail_bytes();
  info.group_commit_ms = wal_->group_commit_ms();
  info.stats = wal_->stats();
  return info;
}

Result<ScrubReport> Database::Scrub() {
  // Flush so the on-disk image matches the logical state being scrubbed
  // (dirty cached pages would otherwise mask or fake on-disk damage).
  SEGDIFF_RETURN_IF_ERROR(pool_->FlushAll());
  return pager_->Scrub();
}

Status Database::DropCaches() {
  SEGDIFF_RETURN_IF_ERROR(Checkpoint());
  return pool_->DropAll();
}

DatabaseSizeStats Database::SizeStats() const {
  DatabaseSizeStats stats;
  for (const auto& table : tables_) {
    stats.data_bytes += table->DataSizeBytes();
    stats.index_bytes += table->IndexSizeBytes();
  }
  stats.file_bytes = pager_->FileSizeBytes();
  return stats;
}

}  // namespace segdiff
