// Batched predicate evaluation and zone-map pruning tests.
//
// The batched sequential scan evaluates one heap page (or one decoded
// columnar batch) at a time: each ColumnCondition is applied to a
// contiguous run of column values by one portable, branch-free compare
// loop that ANDs a selection bitmap, and only rows whose bit survives
// reach the residual std::function / row callback. A heap page first
// gathers each condition's column out of its fixed-width records; a
// columnar batch is already contiguous.
//
// Semantics match EvalCondition exactly: all comparisons are ordered,
// so a NaN cell (or a NaN bound) never matches.

#ifndef SEGDIFF_QUERY_SCAN_KERNEL_H_
#define SEGDIFF_QUERY_SCAN_KERNEL_H_

#include <cstddef>
#include <cstdint>

#include "common/result.h"
#include "query/predicate.h"
#include "storage/column_page.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "storage/zone_map.h"

namespace segdiff {

/// Most records one heap page can hold (the 1-column case); batch
/// buffers are sized for it so any page fits one batch.
inline constexpr size_t kMaxBatchRows =
    (kPageCapacity - HeapFile::kHeaderBytes) / 8;
inline constexpr size_t kBatchBitmapWords = (kMaxBatchRows + 63) / 64;

/// Sets the low `count` bits of `bitmap` (ceil(count/64) words); bits at
/// and above `count` stay zero so callers can walk whole words.
void InitSelectionBitmap(size_t count, uint64_t* bitmap);

/// ANDs `bitmap` with `vals[i] op bound` over `count` contiguous values
/// (bit i = value i). Comparisons are ordered: NaN never matches. Bits
/// at and above `count` in the last word come out zero; words past
/// ceil(count/64) are not touched.
void AndCompare(const double* vals, size_t count, CmpOp op, double bound,
                uint64_t* bitmap);

/// Heap-page entry point: fills `bitmap` (ceil(count/64) words; bit i =
/// record i matches every condition) for `count` fixed-width records
/// starting at `records`, by gathering each condition's column and
/// running AndCompare over it. Bits at and above `count` are zero.
/// `count` must not exceed kMaxBatchRows and every condition's column
/// must lie within the record.
void ScanKernel(const char* records, size_t record_bytes, size_t count,
                const ColumnCondition* conditions, size_t num_conditions,
                uint64_t* bitmap);

/// True when some value inside zone `zone_idx` could satisfy every
/// condition. Sound with NaN-bearing pages: zone bounds exclude NaN
/// cells, and a NaN cell never matches a condition, so bounds over the
/// non-NaN values are sufficient evidence to prune. A bound that is
/// itself NaN (polluted stats) disables pruning on that column.
bool ZoneCanMatch(const ZoneMap& zone_map, size_t zone_idx,
                  const std::vector<ColumnCondition>& conditions);

/// Page-level pruning survey: how many zones survive `conditions`
/// (SQL EXPLAIN prints it).
struct ZoneSurvey {
  uint64_t zones_total = 0;
  uint64_t zones_surviving = 0;
};
ZoneSurvey SurveyZones(const ZoneMap& zone_map,
                       const std::vector<ColumnCondition>& conditions);

// ---------------------------------------------------------------------
// Columnar scan path: decode one column batch at a time and run
// AndCompare over the contiguous values.

/// Rows per decode batch. A multiple of 64 (whole bitmap words) that
/// fits the kBatchBitmapWords bitmap buffers the evaluators already
/// carry, and divides ColumnStore::kMaxSegmentRows so only a segment's
/// final batch is short.
inline constexpr size_t kColumnBatchRows = 1024;
static_assert(kColumnBatchRows % 64 == 0);
static_assert(kColumnBatchRows / 64 <= kBatchBitmapWords);
static_assert(ColumnStore::kMaxSegmentRows % kColumnBatchRows == 0);

/// Segment-level pruning test over the directory's zone statistics —
/// the columnar counterpart of ZoneCanMatch, with identical NaN rules.
/// Pruned segments must still have their pages fetched (and therefore
/// checksum-verified); opening the segment handle does exactly that.
bool SegmentCanMatch(const ColumnSegmentInfo& info,
                     const std::vector<ColumnCondition>& conditions);

/// Pruning survey over a table's columnar segments, from catalog
/// statistics alone (no IO): the segment counterpart of SurveyZones.
struct ColumnarSurvey {
  uint64_t segments_total = 0;
  uint64_t segments_surviving = 0;
};
ColumnarSurvey SurveyColumnarSegments(
    const ColumnStore& store, const std::vector<ColumnCondition>& conditions);

/// Streams one columnar segment in kColumnBatchRows batches, decoding
/// only the requested columns into 64-byte-aligned buffers that feed
/// AndCompare (and, for materialization, row reconstruction).
class ColumnDecoder {
 public:
  /// `handle` must outlive the decoder. `columns` are table column
  /// indices; payloads for exactly these columns are assembled.
  static Result<ColumnDecoder> Create(ColumnSegmentHandle* handle,
                                      const std::vector<size_t>& columns);

  /// Decodes the next batch of every requested column; returns the batch
  /// row count, 0 when the segment is exhausted.
  size_t NextBatch();

  /// Row index (within the segment) of the current batch's first row.
  size_t batch_start() const { return batch_start_; }

  /// The current batch of table column `col` (64-byte aligned). `col`
  /// must be one of the requested columns.
  const double* column(size_t col) const {
    return buffers_[slot_of_[col]].vals;
  }

 private:
  struct alignas(64) Batch {
    double vals[kColumnBatchRows];
  };

  ColumnDecoder() = default;

  ColumnSegmentHandle* handle_ = nullptr;
  std::vector<size_t> columns_;
  std::vector<ColumnCursor> cursors_;
  std::vector<Batch> buffers_;
  uint8_t slot_of_[ZoneMap::kMaxColumns] = {};
  size_t next_row_ = 0;
  size_t batch_start_ = 0;
};

}  // namespace segdiff

#endif  // SEGDIFF_QUERY_SCAN_KERNEL_H_
