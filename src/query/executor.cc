#include "query/executor.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <vector>

#include "common/coding.h"
#include "query/scan_kernel.h"
#include "storage/snapshot.h"

namespace segdiff {
namespace {

/// The zone map a scan should prune with: the frozen copy when reading
/// a snapshot (the live map keeps moving under concurrent ingest), the
/// table's live map otherwise.
const ZoneMap* ResolveZoneMap(const Table& table,
                              const SeqScanOptions& options) {
  if (options.snapshot != nullptr) {
    const TableSnapshotView* view = options.snapshot->TableView(table.name());
    return view != nullptr ? view->zone_map.get() : nullptr;
  }
  return table.zone_map();
}

/// Per-scan (per-partition, under ParallelSeqScan) page evaluator.
/// Both modes walk identical pages and count identically, so serial,
/// parallel, batched, and row-at-a-time scans all agree on
/// rows_scanned + rows_pruned and pages_scanned + pages_pruned —
/// and the columnar segment path counts segment pages/rows under the
/// same fields, so totals also agree across storage formats.
class PageEvaluator {
 public:
  PageEvaluator(const Table& table, const Predicate& predicate,
                const SeqScanOptions& options, const RowCallback& callback)
      : predicate_(predicate),
        callback_(callback),
        record_bytes_(table.schema().RowBytes()),
        batch_(options.batch),
        skip_quarantined_(options.skip_quarantined),
        prune_(options.prune && !predicate.conditions().empty()),
        zone_map_(options.prune && !predicate.conditions().empty()
                      ? ResolveZoneMap(table, options)
                      : nullptr),
        ctx_(options.context) {}

  Status Evaluate(PageId page, const char* records, uint16_t count,
                  bool* keep_going) {
    *keep_going = true;
    // Page-granular cancellation point: the scan stops within one page
    // of a cancel, and the non-OK return unwinds the pin held by the
    // page-data walk. The deadline's clock read is amortized over
    // kDeadlineCheckPageInterval pages (first page included, so an
    // already-expired deadline fails before any work) — a relaxed
    // atomic load per page is all the always-on cost.
    if (ctx_ != nullptr) {
      if (ctx_->cancel.cancelled()) {
        return Status::Cancelled("query cancelled by caller");
      }
      if (++pages_since_deadline_check_ >= kDeadlineCheckPageInterval) {
        pages_since_deadline_check_ = 0;
        if (ctx_->deadline.expired()) {
          return Status::DeadlineExceeded("query deadline exceeded");
        }
      }
    }
    if (zone_map_ != nullptr) {
      const size_t zone = zone_map_->FindZone(page);
      // Prune only when the zone covers exactly the rows the page holds;
      // a mismatch (e.g. a crash persisted appends the checkpointed map
      // never saw) falls back to evaluating the whole page.
      if (zone != ZoneMap::kNoZone &&
          zone_map_->zone(zone).rows == count &&
          !ZoneCanMatch(*zone_map_, zone, predicate_.conditions())) {
        ++stats_.pages_pruned;
        stats_.rows_pruned += count;
        return Status::OK();
      }
    }
    ++stats_.pages_scanned;
    return batch_ ? EvaluateBatch(page, records, count)
                  : EvaluateRows(page, records, count);
  }

  /// Evaluates one compressed columnar segment. The segment's pages are
  /// always fetched — and checksum-verified — by opening the handle,
  /// before any prune decision, matching the heap path's "pruning saves
  /// the decode, not the IO" contract (and keeping corruption detection
  /// in force for pruned segments).
  Status EvaluateSegment(const ColumnStore& store, size_t seg_idx) {
    const ColumnSegmentInfo& info = store.meta().segments[seg_idx];
    if (ctx_ != nullptr) {
      if (ctx_->cancel.cancelled()) {
        return Status::Cancelled("query cancelled by caller");
      }
      pages_since_deadline_check_ += info.pages;
      if (pages_since_deadline_check_ >= kDeadlineCheckPageInterval) {
        pages_since_deadline_check_ = 0;
        if (ctx_->deadline.expired()) {
          return Status::DeadlineExceeded("query deadline exceeded");
        }
      }
    }
    Result<ColumnSegmentHandle> opened = store.OpenSegment(seg_idx);
    if (!opened.ok()) {
      if (skip_quarantined_ && opened.status().IsCorruption()) {
        // Opening verified (and quarantined) the segment's pages; the
        // whole segment is routed around and the result flagged partial.
        NoteQuarantined(info.pages, info.rows);
        return Status::OK();
      }
      return opened.status();
    }
    ColumnSegmentHandle handle = std::move(opened).value();
    if (prune_ && !SegmentCanMatch(info, predicate_.conditions())) {
      stats_.pages_pruned += info.pages;
      stats_.rows_pruned += info.rows;
      return Status::OK();
    }
    stats_.pages_scanned += info.pages;
    stats_.rows_scanned += info.rows;
    const size_t ncols = handle.num_columns();
    // Rows must be materialized when something consumes whole records
    // (callback or residual) or in the row-at-a-time ablation mode;
    // count-only scans decode just the predicate's columns.
    const bool need_rows =
        static_cast<bool>(callback_) || predicate_.residual() || !batch_;
    std::vector<size_t> wanted;
    if (need_rows) {
      for (size_t c = 0; c < ncols; ++c) {
        wanted.push_back(c);
      }
    } else {
      for (const ColumnCondition& cond : predicate_.conditions()) {
        if (std::find(wanted.begin(), wanted.end(), cond.column) ==
            wanted.end()) {
          wanted.push_back(cond.column);
        }
      }
    }
    SEGDIFF_ASSIGN_OR_RETURN(ColumnDecoder decoder,
                             ColumnDecoder::Create(&handle, wanted));
    if (row_buf_.size() < record_bytes_) {
      row_buf_.resize(record_bytes_);
    }
    size_t count;
    while ((count = decoder.NextBatch()) > 0) {
      SEGDIFF_RETURN_IF_ERROR(batch_
                                  ? SegmentBatch(decoder, info, ncols, count,
                                                 need_rows)
                                  : SegmentRows(decoder, info, ncols, count));
    }
    return Status::OK();
  }

  const ScanStats& stats() const { return stats_; }

  /// Records a routed-around corrupt range (the heap skipper and the
  /// segment path above both funnel here, so one stats object carries
  /// the partial-result evidence).
  void NoteQuarantined(uint64_t pages, uint64_t rows) {
    stats_.pages_quarantined += pages;
    stats_.rows_quarantined += rows;
  }

  /// The heap-page skipper for this scan, or nullptr when quarantine
  /// routing is off. Valid as long as the evaluator lives.
  const CorruptPageSkipper* heap_skipper() {
    if (!skip_quarantined_) {
      return nullptr;
    }
    if (!skipper_.on_skip) {
      skipper_.on_skip = [this](PageId page, uint64_t lost) {
        NoteQuarantined(page != kInvalidPageId ? 1 : 0, lost);
      };
    }
    return &skipper_;
  }

 private:
  /// Rebuilds the encoded record for batch row `i` from the decoded
  /// columns (bit-exact: the cursors reproduce the stored bit patterns).
  const char* MaterializeRow(const ColumnDecoder& decoder, size_t ncols,
                             size_t i) {
    for (size_t c = 0; c < ncols; ++c) {
      EncodeDouble(row_buf_.data() + 8 * c, decoder.column(c)[i]);
    }
    return row_buf_.data();
  }

  /// Vectorized evaluation of one decoded batch: selection bitmap over
  /// contiguous columns, then residual/emit only for surviving rows.
  /// Count-only scans (no callback, no residual) never materialize —
  /// just popcount the bitmap.
  Status SegmentBatch(const ColumnDecoder& decoder,
                      const ColumnSegmentInfo& info, size_t ncols,
                      size_t count, bool need_rows) {
    InitSelectionBitmap(count, bitmap_);
    for (const ColumnCondition& cond : predicate_.conditions()) {
      AndCompare(decoder.column(cond.column), count, cond.op, cond.value,
                 bitmap_);
    }
    if (!need_rows) {
      for (size_t w = 0; w * 64 < count; ++w) {
        stats_.rows_matched += static_cast<uint64_t>(std::popcount(bitmap_[w]));
      }
      return Status::OK();
    }
    const auto& residual = predicate_.residual();
    for (size_t w = 0; w * 64 < count; ++w) {
      uint64_t word = bitmap_[w];
      while (word != 0) {
        const size_t i = w * 64 + static_cast<size_t>(std::countr_zero(word));
        word &= word - 1;
        const char* record = MaterializeRow(decoder, ncols, i);
        if (!residual || residual(record)) {
          ++stats_.rows_matched;
          if (callback_) {
            const uint32_t row =
                static_cast<uint32_t>(decoder.batch_start() + i);
            SEGDIFF_RETURN_IF_ERROR(
                callback_(record, RecordId{info.first_page, row}));
          }
          SEGDIFF_RETURN_IF_ERROR(CheckBetweenEmits());
        }
      }
    }
    return Status::OK();
  }

  /// Row-at-a-time ablation path over a decoded batch.
  Status SegmentRows(const ColumnDecoder& decoder,
                     const ColumnSegmentInfo& info, size_t ncols,
                     size_t count) {
    for (size_t i = 0; i < count; ++i) {
      const char* record = MaterializeRow(decoder, ncols, i);
      if (predicate_.Matches(record)) {
        ++stats_.rows_matched;
        if (callback_) {
          const uint32_t row = static_cast<uint32_t>(decoder.batch_start() + i);
          SEGDIFF_RETURN_IF_ERROR(
              callback_(record, RecordId{info.first_page, row}));
        }
        SEGDIFF_RETURN_IF_ERROR(CheckBetweenEmits());
      }
    }
    return Status::OK();
  }
  Status EvaluateRows(PageId page, const char* records, uint16_t count) {
    for (uint16_t slot = 0; slot < count; ++slot) {
      const char* record = records + static_cast<size_t>(slot) * record_bytes_;
      ++stats_.rows_scanned;
      if (predicate_.Matches(record)) {
        ++stats_.rows_matched;
        if (callback_) {
          SEGDIFF_RETURN_IF_ERROR(callback_(record, RecordId{page, slot}));
        }
        SEGDIFF_RETURN_IF_ERROR(CheckBetweenEmits());
      }
    }
    return Status::OK();
  }

  Status EvaluateBatch(PageId page, const char* records, uint16_t count) {
    const std::vector<ColumnCondition>& conditions = predicate_.conditions();
    ScanKernel(records, record_bytes_, count, conditions.data(),
               conditions.size(), bitmap_);
    stats_.rows_scanned += count;
    const auto& residual = predicate_.residual();
    for (size_t w = 0; w * 64 < count; ++w) {
      uint64_t word = bitmap_[w];
      while (word != 0) {
        const size_t slot = w * 64 + static_cast<size_t>(std::countr_zero(word));
        word &= word - 1;
        const char* record = records + slot * record_bytes_;
        if (!residual || residual(record)) {
          ++stats_.rows_matched;
          if (callback_) {
            SEGDIFF_RETURN_IF_ERROR(callback_(
                record, RecordId{page, static_cast<uint16_t>(slot)}));
          }
          SEGDIFF_RETURN_IF_ERROR(CheckBetweenEmits());
        }
      }
    }
    return Status::OK();
  }

  /// Extra check points inside the residual/emit loop, for pages where
  /// the row callback itself is the expensive part (corner-query overlap
  /// tests): every kGovernanceCheckInterval emitted rows.
  Status CheckBetweenEmits() {
    if (ctx_ != nullptr && ++emits_since_check_ >= kGovernanceCheckInterval) {
      emits_since_check_ = 0;
      return ctx_->Check();
    }
    return Status::OK();
  }

  const Predicate& predicate_;
  const RowCallback& callback_;
  const size_t record_bytes_;
  const bool batch_;
  const bool skip_quarantined_;
  CorruptPageSkipper skipper_;  ///< lazily armed by heap_skipper()
  const bool prune_;
  const ZoneMap* zone_map_;
  const QueryContext* ctx_;
  uint64_t emits_since_check_ = 0;
  // Starts at the interval so page 0 performs a deadline check.
  uint64_t pages_since_deadline_check_ = kDeadlineCheckPageInterval - 1;
  ScanStats stats_;
  std::vector<char> row_buf_;  ///< columnar row materialization scratch
  uint64_t bitmap_[kBatchBitmapWords];
};

}  // namespace

Status SeqScan(const Table& table, const Predicate& predicate,
               const RowCallback& callback, ScanStats* stats,
               const SeqScanOptions& options) {
  PageEvaluator evaluator(table, predicate, options, callback);
  Status status = Status::OK();
  // Columnar segments hold the oldest rows; scanning them first keeps
  // the visit order identical to the row-format scan of the same data.
  const ColumnStore* columnar = table.columnar();
  if (columnar != nullptr) {
    for (size_t s = 0; s < columnar->segment_count() && status.ok(); ++s) {
      status = evaluator.EvaluateSegment(*columnar, s);
    }
  }
  if (status.ok()) {
    status = table.ScanPageData(
        [&](PageId page, const char* records, uint16_t count,
            bool* keep_going) -> Status {
          return evaluator.Evaluate(page, records, count, keep_going);
        },
        options.snapshot, evaluator.heap_skipper());
  }
  if (stats != nullptr) {
    stats->Add(evaluator.stats());
  }
  return status;
}

namespace {

/// One contiguous slice of a parallel scan: a run of columnar segments
/// followed by a run of heap pages (segments always precede the heap in
/// scan order, so every contiguous slice has this shape).
struct ScanPartition {
  size_t seg_begin = 0;
  size_t seg_end = 0;  ///< exclusive
  std::vector<PageId> pages;
  size_t heap_first = 0;  ///< heap index of pages[0] (tail-count math)
};

}  // namespace

Status ParallelSeqScan(const Table& table, const Predicate& predicate,
                       ThreadPool* pool, size_t num_partitions,
                       const PartitionSinkFactory& make_sink,
                       ScanStats* stats, const SeqScanOptions& options) {
  if (pool == nullptr || num_partitions <= 1) {
    // Degenerate case: one partition is just a serial scan.
    return SeqScan(table, predicate, make_sink(0), stats, options);
  }
  // Chain resolution happens once, up front; with quarantine routing a
  // broken chain's unreachable remainder is accounted here (no
  // partition would ever visit those pages).
  ScanStats collect_stats;
  CorruptPageSkipper collect_skipper;
  collect_skipper.on_skip = [&](PageId page, uint64_t lost) {
    collect_stats.pages_quarantined += page != kInvalidPageId ? 1 : 0;
    collect_stats.rows_quarantined += lost;
  };
  SEGDIFF_ASSIGN_OR_RETURN(
      std::vector<PageId> pages,
      table.HeapPageIds(options.snapshot,
                        options.skip_quarantined ? &collect_skipper : nullptr));
  const ColumnStore* columnar = table.columnar();
  const size_t num_segments =
      columnar != nullptr ? columnar->segment_count() : 0;

  // Weighted work units in scan order: each segment counts its page
  // span, each heap page counts 1, so partitions balance by IO volume
  // rather than unit count. Runs stay contiguous to keep each worker's
  // reads sequential.
  const size_t num_units = num_segments + pages.size();
  uint64_t total_weight = pages.size();
  for (size_t s = 0; s < num_segments; ++s) {
    total_weight += std::max<uint32_t>(columnar->meta().segments[s].pages, 1);
  }
  num_partitions = std::min(num_partitions, std::max<size_t>(num_units, 1));
  std::vector<ScanPartition> partitions(num_partitions);
  {
    size_t p = 0;
    uint64_t taken = 0;
    // Greedy prefix split: move to the next partition once this one's
    // cumulative weight reaches its proportional share. A single heavy
    // unit can skip partitions, leaving them (correctly) empty.
    auto advance = [&](uint64_t weight, size_t next_seg) {
      taken += weight;
      while (p + 1 < num_partitions &&
             taken * num_partitions >= (p + 1) * total_weight) {
        ++p;
        partitions[p].seg_begin = partitions[p].seg_end = next_seg;
      }
    };
    for (size_t s = 0; s < num_segments; ++s) {
      partitions[p].seg_end = s + 1;
      advance(std::max<uint32_t>(columnar->meta().segments[s].pages, 1),
              s + 1);
    }
    for (size_t i = 0; i < pages.size(); ++i) {
      if (partitions[p].pages.empty()) {
        partitions[p].heap_first = i;
      }
      partitions[p].pages.push_back(pages[i]);
      advance(1, num_segments);
    }
  }
  std::vector<RowCallback> sinks(num_partitions);
  for (size_t p = 0; p < num_partitions; ++p) {
    sinks[p] = make_sink(p);
  }
  std::vector<ScanStats> partition_stats(num_partitions);
  const Status scan_status = pool->ParallelFor(
      num_partitions, options.context, [&](size_t p) -> Status {
        const ScanPartition& part = partitions[p];
        PageEvaluator evaluator(table, predicate, options, sinks[p]);
        Status status = Status::OK();
        for (size_t s = part.seg_begin; s < part.seg_end && status.ok();
             ++s) {
          status = evaluator.EvaluateSegment(*columnar, s);
        }
        if (status.ok()) {
          status = table.ScanPagesData(
              part.pages, part.heap_first,
              [&](PageId page, const char* records, uint16_t count,
                  bool* keep_going) -> Status {
                return evaluator.Evaluate(page, records, count, keep_going);
              },
              options.snapshot, evaluator.heap_skipper());
        }
        partition_stats[p] = evaluator.stats();
        return status;
      });
  // Merged also on failure, as the serial scan does: a budget-truncated
  // scan still reports what every partition examined and matched.
  if (stats != nullptr) {
    stats->Add(collect_stats);
    for (const ScanStats& local : partition_stats) {
      stats->Add(local);
    }
  }
  return scan_status;
}

Status IndexScan(const Table& table, const IndexScanSpec& spec,
                 const Predicate& residual, const RowCallback& callback,
                 ScanStats* stats) {
  if (spec.index == nullptr) {
    return Status::InvalidArgument("index scan without index");
  }
  if (table.columnar() != nullptr) {
    return Status::NotSupported("index scan over columnar table " +
                                table.name());
  }
  ScanStats local;
  std::vector<char> record(table.schema().RowBytes());
  const PoolSnapshot* pool_snap =
      spec.snapshot != nullptr ? spec.snapshot->pool_snapshot() : nullptr;
  SEGDIFF_ASSIGN_OR_RETURN(BPlusTree::Iterator it,
                           spec.index->Seek(spec.lower, pool_snap));
  while (it.Valid()) {
    const IndexKey& key = it.key();
    ++local.index_entries_scanned;
    // Governance check amortised over the range walk; leaf pins are
    // RAII, so the early return releases the current leaf cleanly.
    if (spec.context != nullptr &&
        local.index_entries_scanned % kGovernanceCheckInterval == 1) {
      SEGDIFF_RETURN_IF_ERROR(spec.context->Check());
    }
    if (spec.key_continue && !spec.key_continue(key)) {
      break;
    }
    if (!spec.key_filter || spec.key_filter(key)) {
      ++local.heap_fetches;
      Status fetched = table.ReadRecord(RecordId::Unpack(key.rid),
                                        record.data(), spec.snapshot);
      if (!fetched.ok()) {
        if (spec.skip_quarantined && fetched.IsCorruption()) {
          // Candidate's page is quarantined: drop the row, flag partial.
          ++local.rows_quarantined;
          SEGDIFF_RETURN_IF_ERROR(it.Next());
          continue;
        }
        return fetched;
      }
      if (residual.Matches(record.data())) {
        ++local.rows_matched;
        SEGDIFF_RETURN_IF_ERROR(
            callback(record.data(), RecordId::Unpack(key.rid)));
      }
    }
    SEGDIFF_RETURN_IF_ERROR(it.Next());
  }
  if (stats != nullptr) {
    stats->Add(local);
  }
  return Status::OK();
}

}  // namespace segdiff
