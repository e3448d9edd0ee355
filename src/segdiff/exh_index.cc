#include "segdiff/exh_index.h"

#include <algorithm>
#include <limits>

#include "common/bytes.h"
#include "query/predicate.h"

namespace segdiff {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Catalog meta blob holding the resumable ingest state.
constexpr char kIngestStateKey[] = "exh.ingest";
constexpr uint32_t kIngestStateMagic = 0x4558494E;  // "EXIN"
constexpr uint32_t kIngestStateVersion = 1;

ExhEvent DecodeEvent(const char* record) {
  ExhEvent event;
  event.dv = DecodeDoubleColumn(record, 1);
  event.t_start = DecodeDoubleColumn(record, 2);
  event.t_end = event.t_start + DecodeDoubleColumn(record, 0);
  return event;
}

}  // namespace

ExhIndex::ExhIndex(const ExhOptions& options)
    : FeatureStore(options, kIngestStateKey), options_(options) {}

Result<std::unique_ptr<ExhIndex>> ExhIndex::Open(const std::string& path,
                                                 const ExhOptions& options) {
  if (options.window_s <= 0.0) {
    return Status::InvalidArgument("window_s must be positive");
  }
  std::unique_ptr<ExhIndex> index(new ExhIndex(options));
  SEGDIFF_RETURN_IF_ERROR(
      index->OpenStore(path, options, /*create_if_missing=*/true));
  return index;
}

ExhIndex::~ExhIndex() { CloseStore(); }

Status ExhIndex::OpenImpl() {
  if (db_->tables().empty()) {
    SEGDIFF_ASSIGN_OR_RETURN(TableSchema schema,
                             DoubleSchema({"dt", "dv", "t"}));
    SEGDIFF_ASSIGN_OR_RETURN(table_, db_->CreateTable("exh", schema));
    if (options_.build_index) {
      SEGDIFF_RETURN_IF_ERROR(
          table_->CreateIndex("ptdv", {"dt", "dv"}).status());
    }
  } else {
    SEGDIFF_ASSIGN_OR_RETURN(table_, db_->GetTable("exh"));
    options_.build_index = !table_->indexes().empty();
  }
  return RestoreIngestState();
}

Status ExhIndex::IngestStep(double t, double v) {
  // window_ persists across calls (and reopens): an append boundary
  // must not lose the pairs between the retained tail and this
  // observation.
  if (!window_.empty() && t <= window_.back().t) {
    return Status::InvalidArgument(
        "chunked ingest requires strictly increasing time stamps");
  }
  while (!window_.empty() && t - window_.front().t > options_.window_s) {
    window_.pop_front();
  }
  for (const Sample& earlier : window_) {
    SEGDIFF_RETURN_IF_ERROR(
        table_->InsertDoubles({t - earlier.t, v - earlier.v, earlier.t})
            .status());
  }
  window_.push_back(Sample{t, v});
  return Status::OK();
}

std::string ExhIndex::EncodeIngestState() const {
  ByteWriter w;
  w.U32(kIngestStateMagic);
  w.U32(kIngestStateVersion);
  w.F64(options_.window_s);
  w.U64(observations_);
  w.U32(static_cast<uint32_t>(window_.size()));
  for (const Sample& sample : window_) {
    w.F64(sample.t);
    w.F64(sample.v);
  }
  return w.Take();
}

Status ExhIndex::RestoreIngestState() {
  auto blob = db_->GetMeta(kIngestStateKey);
  if (!blob.ok()) {
    // Fresh store (OpenStore refused any filled store without a blob).
    return blob.status().IsNotFound() ? Status::OK() : blob.status();
  }
  ByteReader r(*blob);
  SEGDIFF_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  SEGDIFF_ASSIGN_OR_RETURN(uint32_t version, r.U32());
  if (magic != kIngestStateMagic || version != kIngestStateVersion) {
    return Status::Corruption("bad exh ingest-state blob");
  }
  // The window length is a property of the store, not of this Open call.
  SEGDIFF_ASSIGN_OR_RETURN(options_.window_s, r.F64());
  SEGDIFF_ASSIGN_OR_RETURN(observations_, r.U64());
  SEGDIFF_ASSIGN_OR_RETURN(uint32_t count, r.U32());
  window_.clear();
  for (uint32_t i = 0; i < count; ++i) {
    Sample sample;
    SEGDIFF_ASSIGN_OR_RETURN(sample.t, r.F64());
    SEGDIFF_ASSIGN_OR_RETURN(sample.v, r.F64());
    if (!window_.empty() && sample.t <= window_.back().t) {
      return Status::Corruption("exh ingest-state window out of order");
    }
    window_.push_back(sample);
  }
  return Status::OK();
}

Result<std::vector<ExhEvent>> ExhIndex::SearchDrops(
    double T, double V, const SearchOptions& options, SearchStats* stats) {
  if (!(V < 0.0)) {
    return Status::InvalidArgument("drop search requires V < 0");
  }
  return Search(true, T, V, options, stats);
}

Result<std::vector<ExhEvent>> ExhIndex::SearchJumps(
    double T, double V, const SearchOptions& options, SearchStats* stats) {
  if (!(V > 0.0)) {
    return Status::InvalidArgument("jump search requires V > 0");
  }
  return Search(false, T, V, options, stats);
}

Result<std::vector<ExhEvent>> ExhIndex::Search(bool drop, double T, double V,
                                               const SearchOptions& options,
                                               SearchStats* stats) {
  return GovernedSearch<ExhEvent>(
      T, options_.window_s, options, stats,
      [&](SearchScope& scope, std::vector<ExhEvent>* events) {
        return SearchScan(drop, T, V, options, scope, events);
      },
      [](std::vector<ExhEvent>* events) {
        std::sort(events->begin(), events->end(),
                  [](const ExhEvent& a, const ExhEvent& b) {
                    if (a.t_start != b.t_start) return a.t_start < b.t_start;
                    return a.t_end < b.t_end;
                  });
        return Status::OK();
      });
}

Status ExhIndex::SearchScan(bool drop, double T, double V,
                            const SearchOptions& options, SearchScope& scope,
                            std::vector<ExhEvent>* events) {
  // Zone maps feed the pruned sequential scan; a map dropped at open is
  // rebuilt here, once. The attach mutates the live table, so writers
  // are excluded too (ingest_mu_ before lazy_mu_) — the map becomes
  // visible to later snapshots; this search's (earlier) snapshot scans
  // unpruned, which is correct, just slower.
  {
    std::lock_guard<std::mutex> ingest_lock(ingest_mu_);
    std::lock_guard<std::mutex> lock(lazy_mu_);
    SEGDIFF_RETURN_IF_ERROR(QuarantineScanError(table_->EnsureZoneMap(),
                                                "the exh pair table"));
  }

  ++scope.local.queries_issued;
  MemoryBudget* budget = scope.ctx.budget;
  if (options.mode != QueryMode::kIndexScan) {
    // kAuto runs the zone-map-pruned sequential scan too. Partitioned
    // across the pool when there is one; events are re-sorted
    // afterwards, so collection order is irrelevant.
    Predicate predicate;
    predicate.And(0, CmpOp::kLe, T);
    predicate.And(1, drop ? CmpOp::kLe : CmpOp::kGe, V);
    SeqScanOptions scan_options;
    scan_options.context = &scope.ctx;
    scan_options.snapshot = &scope.snapshot;
    scan_options.skip_quarantined = scope.allow_partial;
    return QuarantineScanError(
        CollectSeqScan(*table_, predicate, scope.lease.get(),
                       scope.num_threads, budget, DecodeEvent, events,
                       &scope.local.scan, scan_options),
        "the exh pair table");
  }
  if (!options_.build_index) {
    return Status::InvalidArgument(
        "index scan requested but the index was not built");
  }
  SEGDIFF_ASSIGN_OR_RETURN(BPlusTree * tree, table_->GetIndex("ptdv"));
  IndexScanSpec spec;
  spec.context = &scope.ctx;
  spec.snapshot = &scope.snapshot;
  spec.skip_quarantined = scope.allow_partial;
  spec.index = tree;
  spec.lower = IndexKey::LowerBound({-kInf, -kInf});
  spec.key_continue = [T](const IndexKey& key) { return key.vals[0] <= T; };
  spec.key_filter = [drop, V](const IndexKey& key) {
    return drop ? key.vals[1] <= V : key.vals[1] >= V;
  };
  return QuarantineScanError(
      IndexScan(*table_, spec, Predicate::True(),
                CollectRows(events, budget, DecodeEvent), &scope.local.scan),
      "the exh pair table");
}

ExhSizes ExhIndex::GetSizes() const {
  ExhSizes sizes;
  sizes.feature_bytes = table_->DataSizeBytes();
  sizes.feature_rows = table_->row_count();
  sizes.index_bytes = table_->IndexSizeBytes();
  sizes.file_bytes = db_->SizeStats().file_bytes;
  return sizes;
}

}  // namespace segdiff
