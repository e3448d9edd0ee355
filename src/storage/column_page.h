// Compressed columnar segments for kDouble feature tables.
//
// A columnar segment holds up to kMaxSegmentRows rows of an all-double
// table in column-major compressed form. Each column is encoded with
// whichever of these schemes is smallest while staying bit-exact:
//
//   kForPacked    frame-of-reference: values quantize exactly onto a
//                 decimal grid (v * 10^s integral), stored as bit-packed
//                 offsets from the column minimum. Segment times and
//                 time spans land here (sample cadence => a coarse grid).
//   kDeltaPacked  delta encoding on the same quantized integers; wins
//                 when the column is monotone or slowly varying (the
//                 segment directory's time columns).
//   kXor          Gorilla-style XOR of consecutive IEEE-754 bit
//                 patterns with leading-zero/significant-bit headers;
//                 handles arbitrary doubles (including NaN payloads,
//                 infinities and -0.0) bit-exactly.
//   kRaw          verbatim little-endian doubles; the fallback when XOR
//                 expands (adversarially random mantissas).
//
// Every decode reproduces the exact bit pattern that was encoded, so
// row-format and columnar scans return byte-identical records.
//
// The segment header carries per-column zone statistics (min/max over
// non-NaN values plus a per-column NaN mask), computed at encode time,
// so scans prune whole segments without decoding them. Segments are
// laid out over ordinary pager pages (16-byte chain header + payload),
// which keeps the pager's CRC32C trailers — and therefore
// `verify --scrub` and the fault matrix — in force for columnar data.
//
// The write path stays on the row format: segments are only produced by
// CompactInto-style conversion of sealed row pages, and appends after
// conversion land in the table's row-format heap tail.

#ifndef SEGDIFF_STORAGE_COLUMN_PAGE_H_
#define SEGDIFF_STORAGE_COLUMN_PAGE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace segdiff {

enum class ColumnEncoding : uint8_t {
  kRaw = 0,
  kForPacked = 1,
  kDeltaPacked = 2,
  kXor = 3,
};

/// Name for --stats output ("raw", "for", "delta", "xor").
const char* ColumnEncodingName(ColumnEncoding encoding);

/// Persistent directory entry for one segment (catalog v3). Carries the
/// segment's zone statistics so scans prune and EXPLAIN surveys without
/// touching the segment's pages (the same stats live in the segment
/// header; these are the catalog's copy).
struct ColumnSegmentInfo {
  PageId first_page = kInvalidPageId;
  uint32_t rows = 0;
  uint32_t pages = 0;
  uint64_t encoded_bytes = 0;
  uint32_t nan_mask = 0;    ///< bit c set: column c holds at least one NaN
  std::vector<double> min;  ///< per column, over non-NaN values
  std::vector<double> max;  ///< min[c] > max[c] when column c is all-NaN
};

/// Persistent position of a table's columnar portion.
struct ColumnStoreMeta {
  std::vector<ColumnSegmentInfo> segments;
  uint64_t row_count = 0;
  uint64_t page_count = 0;
  uint64_t encoded_bytes = 0;
};

/// Parsed per-column header of one segment.
struct ColumnDirEntry {
  ColumnEncoding encoding = ColumnEncoding::kRaw;
  uint8_t scale_log10 = 0;   ///< values were scaled by 10^s before packing
  uint16_t bit_width = 0;    ///< packed width (kForPacked/kDeltaPacked)
  uint32_t payload_bytes = 0;
  int64_t base = 0;          ///< frame of reference / first delta value
  double min = 0.0;          ///< over non-NaN values; min > max when none
  double max = 0.0;
  uint64_t payload_offset = 0;  ///< from blob start (computed at parse)
};

/// Encodes `rows` row-major fixed-width records (`num_columns` doubles
/// each) into one segment blob. `rows` must be in [1, kMaxSegmentRows].
std::string EncodeColumnSegment(const char* records, size_t num_columns,
                                size_t rows);

/// Sequential decoder over one encoded column. Decode advances the
/// cursor; total Decode counts must not exceed the segment's rows.
/// Decoding loads whole 64-bit words, so `payload` must stay readable
/// for 8 bytes past the column's `payload_bytes`.
class ColumnCursor {
 public:
  ColumnCursor() = default;
  ColumnCursor(const ColumnDirEntry* dir, const char* payload, size_t rows);

  /// Decodes the next `n` values into `out`.
  void Decode(size_t n, double* out);

  size_t position() const { return pos_; }

 private:
  void DecodePacked(size_t n, double* out);
  void DecodeXor(size_t n, double* out);

  const ColumnDirEntry* dir_ = nullptr;
  const char* payload_ = nullptr;
  size_t rows_ = 0;
  size_t pos_ = 0;        ///< values consumed so far
  uint64_t bit_pos_ = 0;  ///< packed/xor read position in bits
  int64_t prev_int_ = 0;  ///< running value (delta encoding)
  uint64_t prev_bits_ = 0;  ///< previous IEEE bit pattern (xor encoding)
};

/// Parsed view over one segment whose pages have been fetched (and
/// therefore checksum-verified) through the buffer pool. Column payloads
/// are assembled lazily: a scan that only touches the predicate's
/// columns never copies — or decodes — the others.
class ColumnSegmentHandle {
 public:
  static Result<ColumnSegmentHandle> Open(BufferPool* pool,
                                          const ColumnSegmentInfo& info);

  size_t rows() const { return rows_; }
  size_t num_columns() const { return dir_.size(); }
  uint32_t nan_mask() const { return nan_mask_; }
  bool has_nan(size_t c) const { return (nan_mask_ >> c) & 1u; }
  const ColumnDirEntry& column(size_t c) const { return dir_[c]; }
  PageId first_page() const { return info_.first_page; }
  const ColumnSegmentInfo& info() const { return info_; }

  /// Cursor over column `c` (assembles the payload on first use).
  Result<ColumnCursor> OpenColumn(size_t c);

  /// Decodes all rows of column `c` into `out` (rows() doubles).
  Status DecodeColumn(size_t c, double* out);

 private:
  ColumnSegmentHandle() = default;

  /// Contiguous bytes of column `c`'s payload, assembled into this
  /// handle's scratch on first use (copying only that column's encoded
  /// bytes — a fraction of the logical column size).
  Result<const char*> ColumnPayload(size_t c);

  BufferPool* pool_ = nullptr;
  ColumnSegmentInfo info_;
  std::vector<PageId> pages_;  ///< chain in order (all checksum-verified)
  std::vector<uint16_t> page_bytes_;  ///< payload bytes per chain page
  size_t rows_ = 0;
  uint32_t nan_mask_ = 0;
  std::vector<ColumnDirEntry> dir_;
  std::string header_buf_;                ///< copied header bytes
  std::vector<std::string> col_scratch_;  ///< per-column assembled payloads
};

/// A table's columnar portion: an ordered list of immutable segments,
/// read only by scans (no index addresses a columnar row). Scans report
/// a row as RecordId{segment.first_page, row index within the segment}.
class ColumnStore {
 public:
  /// Upper bound on rows per segment. Large enough to amortize headers
  /// and give the bit-packed encodings long runs; small enough that one
  /// decoded segment (all columns) stays cache-friendly. Must stay below
  /// 2^20 so the row index fits RecordId::Pack's slot field.
  static constexpr size_t kMaxSegmentRows = 4096;

  /// Fresh, empty columnar portion.
  ColumnStore(BufferPool* pool, size_t num_columns);

  /// Attaches to segments recorded in the catalog.
  ColumnStore(BufferPool* pool, size_t num_columns, ColumnStoreMeta meta);

  const ColumnStoreMeta& meta() const { return meta_; }
  size_t num_columns() const { return num_columns_; }
  size_t segment_count() const { return meta_.segments.size(); }
  uint64_t row_count() const { return meta_.row_count; }
  uint64_t page_count() const { return meta_.page_count; }
  uint64_t encoded_bytes() const { return meta_.encoded_bytes; }
  /// Bytes the same rows occupy in the row format.
  uint64_t LogicalBytes() const {
    return meta_.row_count * num_columns_ * 8;
  }

  /// Encodes `rows` row-major records as one segment and appends it.
  Status AppendSegment(const char* records, size_t rows);

  /// Opens segment `idx` for scanning (fetches + verifies its pages).
  Result<ColumnSegmentHandle> OpenSegment(size_t idx) const;

 private:
  BufferPool* pool_;
  size_t num_columns_;
  ColumnStoreMeta meta_;
};

}  // namespace segdiff

#endif  // SEGDIFF_STORAGE_COLUMN_PAGE_H_
