#include "query/scan_kernel.h"

#include <algorithm>
#include <cmath>
#include <functional>

namespace segdiff {
namespace {

// Strided gather of one column into a contiguous buffer: the only part
// of the heap-page path that touches the record layout; AndCompare then
// runs over plain doubles.
void GatherColumn(const char* records, size_t record_bytes, size_t count,
                  size_t column, double* vals) {
  const char* cell = records + 8 * column;
  for (size_t i = 0; i < count; ++i) {
    vals[i] = DecodeDoubleColumn(cell, 0);
    cell += record_bytes;
  }
}

// Packs 64 0/1 bytes into one word (bit i = byte i). Per group of 8
// bytes, the multiply moves byte j's low bit to bit 56 + j; no two
// partial products meet in that top byte, so it is exact.
uint64_t PackBits(const uint8_t* hit) {
  uint64_t word = 0;
  for (size_t g = 0; g < 8; ++g) {
    uint64_t bytes = 0;
    for (size_t j = 0; j < 8; ++j) {
      bytes |= static_cast<uint64_t>(hit[8 * g + j]) << (8 * j);
    }
    word |= ((bytes * 0x0102040810204080ull) >> 56) << (8 * g);
  }
  return word;
}

// The compare loop, one 64-value bitmap word at a time: compare into 0/1
// bytes, then pack. Unlike shifting each result into the word, the byte
// loop vectorizes in an optimized build, and columnar scans, whose time
// goes mostly to decode and this compare, depend on that. `cmp` is a
// std:: comparison functor, so every comparison is ordered (NaN
// compares false).
template <typename Cmp>
void AndCompareWith(Cmp cmp, const double* vals, size_t count, double bound,
                    uint64_t* bitmap) {
  for (size_t base = 0; base < count; base += 64) {
    const size_t limit = std::min<size_t>(64, count - base);
    uint8_t hit[64] = {};
    for (size_t b = 0; b < limit; ++b) {
      hit[b] = cmp(vals[base + b], bound);
    }
    bitmap[base / 64] &= PackBits(hit);
  }
}

bool RangeCanMatch(const ColumnCondition& cond, double lo, double hi) {
  switch (cond.op) {
    case CmpOp::kLt:
      return lo < cond.value;
    case CmpOp::kLe:
      return lo <= cond.value;
    case CmpOp::kGt:
      return hi > cond.value;
    case CmpOp::kGe:
      return hi >= cond.value;
    case CmpOp::kEq:
      return lo <= cond.value && cond.value <= hi;
  }
  return true;
}

}  // namespace

void InitSelectionBitmap(size_t count, uint64_t* bitmap) {
  const size_t words = (count + 63) / 64;
  for (size_t w = 0; w < words; ++w) {
    bitmap[w] = ~uint64_t{0};
  }
  if (count % 64 != 0) {
    bitmap[words - 1] = ~uint64_t{0} >> (64 - count % 64);
  }
}

void AndCompare(const double* vals, size_t count, CmpOp op, double bound,
                uint64_t* bitmap) {
  switch (op) {
    case CmpOp::kLt:
      return AndCompareWith(std::less<>(), vals, count, bound, bitmap);
    case CmpOp::kLe:
      return AndCompareWith(std::less_equal<>(), vals, count, bound, bitmap);
    case CmpOp::kGt:
      return AndCompareWith(std::greater<>(), vals, count, bound, bitmap);
    case CmpOp::kGe:
      return AndCompareWith(std::greater_equal<>(), vals, count, bound,
                            bitmap);
    case CmpOp::kEq:
      return AndCompareWith(std::equal_to<>(), vals, count, bound, bitmap);
  }
}

void ScanKernel(const char* records, size_t record_bytes, size_t count,
                const ColumnCondition* conditions, size_t num_conditions,
                uint64_t* bitmap) {
  InitSelectionBitmap(count, bitmap);
  double vals[kMaxBatchRows];
  for (size_t c = 0; c < num_conditions; ++c) {
    const ColumnCondition& cond = conditions[c];
    GatherColumn(records, record_bytes, count, cond.column, vals);
    AndCompare(vals, count, cond.op, cond.value, bitmap);
  }
}

bool ZoneCanMatch(const ZoneMap& zone_map, size_t zone_idx,
                  const std::vector<ColumnCondition>& conditions) {
  for (const ColumnCondition& cond : conditions) {
    if (cond.column >= zone_map.num_columns()) {
      continue;  // no evidence about this column; cannot prune on it
    }
    const double lo = zone_map.Min(zone_idx, cond.column);
    const double hi = zone_map.Max(zone_idx, cond.column);
    if (std::isnan(lo) || std::isnan(hi)) {
      continue;  // polluted bounds must never justify a skip
    }
    if (lo > hi) {
      // No non-NaN value was observed. With the NaN bit set, every cell
      // of this column is NaN and fails any comparison — the page
      // cannot match. Without it the zone is inconsistent; do not prune.
      if (zone_map.HasNan(zone_idx, cond.column)) {
        return false;
      }
      continue;
    }
    if (!RangeCanMatch(cond, lo, hi)) {
      return false;
    }
  }
  return true;
}

ZoneSurvey SurveyZones(const ZoneMap& zone_map,
                       const std::vector<ColumnCondition>& conditions) {
  ZoneSurvey survey;
  survey.zones_total = zone_map.zone_count();
  for (size_t z = 0; z < zone_map.zone_count(); ++z) {
    if (ZoneCanMatch(zone_map, z, conditions)) {
      ++survey.zones_surviving;
    }
  }
  return survey;
}

bool SegmentCanMatch(const ColumnSegmentInfo& info,
                     const std::vector<ColumnCondition>& conditions) {
  for (const ColumnCondition& cond : conditions) {
    if (cond.column >= info.min.size()) {
      continue;  // no evidence about this column; cannot prune on it
    }
    const double lo = info.min[cond.column];
    const double hi = info.max[cond.column];
    if (std::isnan(lo) || std::isnan(hi)) {
      continue;  // polluted bounds must never justify a skip
    }
    if (lo > hi) {
      // No non-NaN value in this column. With the NaN bit set every
      // cell is NaN and fails any comparison — the segment cannot
      // match. Without it the stats are inconsistent; do not prune.
      if ((info.nan_mask >> cond.column) & 1u) {
        return false;
      }
      continue;
    }
    if (!RangeCanMatch(cond, lo, hi)) {
      return false;
    }
  }
  return true;
}

ColumnarSurvey SurveyColumnarSegments(
    const ColumnStore& store,
    const std::vector<ColumnCondition>& conditions) {
  ColumnarSurvey survey;
  survey.segments_total = store.segment_count();
  for (const ColumnSegmentInfo& info : store.meta().segments) {
    if (SegmentCanMatch(info, conditions)) {
      ++survey.segments_surviving;
    }
  }
  return survey;
}

Result<ColumnDecoder> ColumnDecoder::Create(
    ColumnSegmentHandle* handle, const std::vector<size_t>& columns) {
  ColumnDecoder decoder;
  decoder.handle_ = handle;
  decoder.columns_ = columns;
  decoder.buffers_.resize(columns.size());
  decoder.cursors_.reserve(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    const size_t col = columns[i];
    if (col >= handle->num_columns() || col >= ZoneMap::kMaxColumns) {
      return Status::InvalidArgument("decoder column out of range");
    }
    decoder.slot_of_[col] = static_cast<uint8_t>(i);
    SEGDIFF_ASSIGN_OR_RETURN(ColumnCursor cursor, handle->OpenColumn(col));
    decoder.cursors_.push_back(cursor);
  }
  return decoder;
}

size_t ColumnDecoder::NextBatch() {
  const size_t rows = handle_->rows();
  if (next_row_ >= rows) {
    return 0;
  }
  const size_t count = std::min(kColumnBatchRows, rows - next_row_);
  for (size_t i = 0; i < cursors_.size(); ++i) {
    cursors_[i].Decode(count, buffers_[i].vals);
  }
  batch_start_ = next_row_;
  next_row_ += count;
  return count;
}

}  // namespace segdiff
