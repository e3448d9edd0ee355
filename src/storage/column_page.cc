#include "storage/column_page.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/coding.h"

namespace segdiff {
namespace {

// Segment blob layout (little-endian):
//   [0..3]   magic "CSG1"
//   [4..5]   version (1)
//   [6..7]   number of columns
//   [8..11]  rows
//   [12..15] NaN mask (bit c set => column c holds at least one NaN)
//   then one 32-byte directory entry per column:
//     +0  encoding   +1 scale_log10   +2 bit_width (u16)
//     +4  payload_bytes (u32)         +8 base (i64)
//     +16 min (f64)                   +24 max (f64)
//   then the column payloads, in column order.
constexpr uint32_t kSegmentMagic = 0x31475343;  // "CSG1"
constexpr uint16_t kSegmentVersion = 1;
constexpr size_t kSegmentHeaderBytes = 16;
constexpr size_t kDirEntryBytes = 32;

// Chain pages mirror the heap-file header shape so scrub/debug tooling
// sees one chain layout: [0..7] next page, [8..9] payload bytes in this
// page, [10] page-kind marker, [11..15] reserved.
constexpr size_t kChainHeaderBytes = 16;
constexpr uint8_t kColumnPageKind = 0xC1;
constexpr size_t kPagePayloadBytes = kPageCapacity - kChainHeaderBytes;

// Decode reads whole 64-bit words, so every payload buffer handed to a
// cursor must stay readable for this many bytes past its end; the
// scratch buffers that assemble payloads append the slack explicitly.
constexpr size_t kPayloadSlackBytes = 8;

constexpr double kPow10[] = {1.0, 10.0, 100.0, 1000.0, 10000.0};
constexpr unsigned kMaxScaleLog10 = 4;

// Quantized magnitudes are capped well below 2^53 so every integer is
// exactly representable and deltas cannot overflow.
constexpr double kMaxQuantized = 9.0e15;

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

unsigned BitWidth(uint64_t v) {
  return v == 0 ? 0u : 64u - static_cast<unsigned>(std::countl_zero(v));
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t z) {
  return static_cast<int64_t>(z >> 1) ^ -static_cast<int64_t>(z & 1);
}

uint64_t LoadWord(const char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

/// Reads `bits` (1..64) starting at bit `pos`. Requires
/// kPayloadSlackBytes of readable memory past the payload's last byte.
inline uint64_t ReadBitsAt(const char* payload, uint64_t pos,
                           unsigned bits) {
  const size_t byte = pos >> 3;
  const unsigned off = pos & 7;
  uint64_t w = LoadWord(payload + byte) >> off;
  const unsigned avail = 64 - off;
  if (bits > avail) {
    w |= static_cast<uint64_t>(static_cast<uint8_t>(payload[byte + 8]))
         << avail;
  }
  return bits == 64 ? w : (w & ((1ull << bits) - 1));
}

/// Append-only bit stream over a std::string.
class BitWriter {
 public:
  explicit BitWriter(std::string* out) : out_(out) {}

  /// Appends the low `bits` bits of `v` (high bits must be zero).
  void Put(uint64_t v, unsigned bits) {
    if (bits == 0) {
      return;
    }
    acc_ |= v << used_;
    if (used_ + bits >= 64) {
      FlushWord();
      const unsigned consumed = 64 - used_;
      acc_ = consumed < 64 ? (v >> consumed) : 0;
      used_ = used_ + bits - 64;
    } else {
      used_ += bits;
    }
  }

  /// Flushes the trailing partial word; the writer is spent afterwards.
  void Finish() {
    char buf[8];
    EncodeFixed64(buf, acc_);
    out_->append(buf, (used_ + 7) / 8);
    acc_ = 0;
    used_ = 0;
  }

 private:
  void FlushWord() {
    char buf[8];
    EncodeFixed64(buf, acc_);
    out_->append(buf, 8);
  }

  std::string* out_;
  uint64_t acc_ = 0;
  unsigned used_ = 0;  ///< bits pending in acc_
};

/// Chosen encoding for one column plus everything the directory needs.
struct ColumnPlan {
  ColumnEncoding encoding = ColumnEncoding::kRaw;
  uint8_t scale_log10 = 0;
  uint16_t bit_width = 0;
  int64_t base = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  bool has_nan = false;
  std::string payload;
};

/// True when every value lands exactly on the 10^-s decimal grid, i.e.
/// round-tripping through llround(v * 10^s) reproduces the bit pattern.
/// Rejects NaN/inf, -0.0 and anything past kMaxQuantized.
bool TryQuantize(const uint64_t* bits, size_t rows, unsigned s,
                 std::vector<int64_t>* xs) {
  const double scale = kPow10[s];
  for (size_t i = 0; i < rows; ++i) {
    const double v = BitsToDouble(bits[i]);
    if (!std::isfinite(v)) {
      return false;
    }
    const double scaled = v * scale;
    if (!(std::fabs(scaled) < kMaxQuantized)) {
      return false;
    }
    const int64_t x = std::llround(scaled);
    const double back =
        s == 0 ? static_cast<double>(x) : static_cast<double>(x) / scale;
    if (DoubleBits(back) != bits[i]) {
      return false;
    }
    (*xs)[i] = x;
  }
  return true;
}

void EncodeXorPayload(const uint64_t* bits, size_t rows,
                      std::string* payload) {
  BitWriter bw(payload);
  bw.Put(bits[0], 64);
  uint64_t prev = bits[0];
  for (size_t i = 1; i < rows; ++i) {
    const uint64_t x = prev ^ bits[i];
    prev = bits[i];
    if (x == 0) {
      bw.Put(0, 1);
      continue;
    }
    const unsigned lz = static_cast<unsigned>(std::countl_zero(x));
    const unsigned tz = static_cast<unsigned>(std::countr_zero(x));
    const unsigned sig = 64 - lz - tz;
    bw.Put(1, 1);
    bw.Put(lz, 6);
    bw.Put(sig - 1, 6);
    bw.Put(x >> tz, sig);
  }
  bw.Finish();
}

ColumnPlan PlanColumn(const uint64_t* bits, size_t rows) {
  ColumnPlan plan;
  for (size_t i = 0; i < rows; ++i) {
    const double v = BitsToDouble(bits[i]);
    if (std::isnan(v)) {
      plan.has_nan = true;
    } else {
      plan.min = std::min(plan.min, v);
      plan.max = std::max(plan.max, v);
    }
  }

  std::vector<int64_t> xs(rows);
  bool quantized = false;
  unsigned scale = 0;
  if (!plan.has_nan) {
    for (unsigned s = 0; s <= kMaxScaleLog10 && !quantized; ++s) {
      if (TryQuantize(bits, rows, s, &xs)) {
        quantized = true;
        scale = s;
      }
    }
  }

  if (quantized) {
    int64_t min_x = xs[0];
    int64_t max_x = xs[0];
    uint64_t max_zig = 0;
    for (size_t i = 0; i < rows; ++i) {
      min_x = std::min(min_x, xs[i]);
      max_x = std::max(max_x, xs[i]);
      if (i > 0) {
        max_zig = std::max(max_zig, ZigZag(xs[i] - xs[i - 1]));
      }
    }
    const unsigned wf =
        BitWidth(static_cast<uint64_t>(max_x) - static_cast<uint64_t>(min_x));
    const unsigned wd = BitWidth(max_zig);
    const uint64_t for_bytes = (rows * wf + 7) / 8;
    const uint64_t delta_bytes = ((rows - 1) * wd + 7) / 8;
    plan.scale_log10 = static_cast<uint8_t>(scale);
    if (for_bytes <= delta_bytes) {
      plan.encoding = ColumnEncoding::kForPacked;
      plan.bit_width = static_cast<uint16_t>(wf);
      plan.base = min_x;
      BitWriter bw(&plan.payload);
      for (size_t i = 0; i < rows; ++i) {
        bw.Put(static_cast<uint64_t>(xs[i]) - static_cast<uint64_t>(min_x),
               wf);
      }
      bw.Finish();
    } else {
      plan.encoding = ColumnEncoding::kDeltaPacked;
      plan.bit_width = static_cast<uint16_t>(wd);
      plan.base = xs[0];
      BitWriter bw(&plan.payload);
      for (size_t i = 1; i < rows; ++i) {
        bw.Put(ZigZag(xs[i] - xs[i - 1]), wd);
      }
      bw.Finish();
    }
    return plan;
  }

  EncodeXorPayload(bits, rows, &plan.payload);
  if (plan.payload.size() >= rows * 8) {
    plan.encoding = ColumnEncoding::kRaw;
    plan.payload.clear();
    plan.payload.reserve(rows * 8);
    char buf[8];
    for (size_t i = 0; i < rows; ++i) {
      EncodeFixed64(buf, bits[i]);
      plan.payload.append(buf, 8);
    }
  } else {
    plan.encoding = ColumnEncoding::kXor;
  }
  return plan;
}

ColumnDirEntry DirFromPlan(const ColumnPlan& plan) {
  ColumnDirEntry dir;
  dir.encoding = plan.encoding;
  dir.scale_log10 = plan.scale_log10;
  dir.bit_width = plan.bit_width;
  dir.payload_bytes = static_cast<uint32_t>(plan.payload.size());
  dir.base = plan.base;
  dir.min = plan.min;
  dir.max = plan.max;
  return dir;
}

/// Decodes the plan's payload and compares every bit pattern against the
/// source. The encodings are verified constructions, so this never fires
/// in practice — but conversion is the one place a latent encoder bug
/// could silently change query results, so every segment buys the check
/// once at encode time.
bool PlanRoundTrips(const ColumnPlan& plan, const uint64_t* bits,
                    size_t rows) {
  ColumnDirEntry dir = DirFromPlan(plan);
  std::string payload = plan.payload;
  payload.append(kPayloadSlackBytes, '\0');
  ColumnCursor cursor(&dir, payload.data(), rows);
  std::vector<double> decoded(rows);
  cursor.Decode(rows, decoded.data());
  for (size_t i = 0; i < rows; ++i) {
    if (DoubleBits(decoded[i]) != bits[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

const char* ColumnEncodingName(ColumnEncoding encoding) {
  switch (encoding) {
    case ColumnEncoding::kRaw:
      return "raw";
    case ColumnEncoding::kForPacked:
      return "for";
    case ColumnEncoding::kDeltaPacked:
      return "delta";
    case ColumnEncoding::kXor:
      return "xor";
  }
  return "unknown";
}

std::string EncodeColumnSegment(const char* records, size_t num_columns,
                                size_t rows) {
  std::vector<uint64_t> bits(rows);
  std::vector<ColumnPlan> plans;
  plans.reserve(num_columns);
  uint32_t nan_mask = 0;
  for (size_t c = 0; c < num_columns; ++c) {
    for (size_t i = 0; i < rows; ++i) {
      bits[i] = DecodeFixed64(records + (i * num_columns + c) * 8);
    }
    ColumnPlan plan = PlanColumn(bits.data(), rows);
    if (!PlanRoundTrips(plan, bits.data(), rows)) {
      plan.encoding = ColumnEncoding::kRaw;
      plan.bit_width = 0;
      plan.payload.clear();
      char buf[8];
      for (size_t i = 0; i < rows; ++i) {
        EncodeFixed64(buf, bits[i]);
        plan.payload.append(buf, 8);
      }
    }
    if (plan.has_nan) {
      nan_mask |= 1u << c;
    }
    plans.push_back(std::move(plan));
  }

  std::string blob;
  size_t total = kSegmentHeaderBytes + num_columns * kDirEntryBytes;
  for (const ColumnPlan& plan : plans) {
    total += plan.payload.size();
  }
  blob.reserve(total);
  blob.resize(kSegmentHeaderBytes + num_columns * kDirEntryBytes);
  char* h = blob.data();
  EncodeFixed32(h, kSegmentMagic);
  EncodeFixed16(h + 4, kSegmentVersion);
  EncodeFixed16(h + 6, static_cast<uint16_t>(num_columns));
  EncodeFixed32(h + 8, static_cast<uint32_t>(rows));
  EncodeFixed32(h + 12, nan_mask);
  for (size_t c = 0; c < num_columns; ++c) {
    char* e = h + kSegmentHeaderBytes + c * kDirEntryBytes;
    const ColumnPlan& plan = plans[c];
    e[0] = static_cast<char>(plan.encoding);
    e[1] = static_cast<char>(plan.scale_log10);
    EncodeFixed16(e + 2, plan.bit_width);
    EncodeFixed32(e + 4, static_cast<uint32_t>(plan.payload.size()));
    EncodeFixed64(e + 8, static_cast<uint64_t>(plan.base));
    EncodeDouble(e + 16, plan.min);
    EncodeDouble(e + 24, plan.max);
  }
  for (const ColumnPlan& plan : plans) {
    blob.append(plan.payload);
  }
  return blob;
}

ColumnCursor::ColumnCursor(const ColumnDirEntry* dir, const char* payload,
                           size_t rows)
    : dir_(dir), payload_(payload), rows_(rows) {}

void ColumnCursor::Decode(size_t n, double* out) {
  if (n == 0) {
    return;
  }
  switch (dir_->encoding) {
    case ColumnEncoding::kRaw:
      for (size_t i = 0; i < n; ++i) {
        out[i] = BitsToDouble(DecodeFixed64(payload_ + (pos_ + i) * 8));
      }
      pos_ += n;
      return;
    case ColumnEncoding::kForPacked:
    case ColumnEncoding::kDeltaPacked:
      DecodePacked(n, out);
      pos_ += n;
      return;
    case ColumnEncoding::kXor:
      DecodeXor(n, out);
      pos_ += n;
      return;
  }
}

void ColumnCursor::DecodePacked(size_t n, double* out) {
  const unsigned w = dir_->bit_width;
  const unsigned s = dir_->scale_log10;
  const double scale = kPow10[s];
  uint64_t pos = bit_pos_;
  if (dir_->encoding == ColumnEncoding::kForPacked) {
    const int64_t base = dir_->base;
    for (size_t i = 0; i < n; ++i) {
      uint64_t d = 0;
      if (w != 0) {
        d = ReadBitsAt(payload_, pos, w);
        pos += w;
      }
      const int64_t x = base + static_cast<int64_t>(d);
      out[i] = s == 0 ? static_cast<double>(x)
                      : static_cast<double>(x) / scale;
    }
  } else {
    int64_t cur = prev_int_;
    size_t i = 0;
    if (pos_ == 0) {
      cur = dir_->base;
      out[i++] = s == 0 ? static_cast<double>(cur)
                        : static_cast<double>(cur) / scale;
    }
    for (; i < n; ++i) {
      uint64_t z = 0;
      if (w != 0) {
        z = ReadBitsAt(payload_, pos, w);
        pos += w;
      }
      cur += UnZigZag(z);
      out[i] = s == 0 ? static_cast<double>(cur)
                      : static_cast<double>(cur) / scale;
    }
    prev_int_ = cur;
  }
  bit_pos_ = pos;
}

void ColumnCursor::DecodeXor(size_t n, double* out) {
  uint64_t pos = bit_pos_;
  uint64_t prev = prev_bits_;
  size_t i = 0;
  if (pos_ == 0) {
    prev = ReadBitsAt(payload_, pos, 64);
    pos += 64;
    out[i++] = BitsToDouble(prev);
  }
  for (; i < n; ++i) {
    const uint64_t changed = ReadBitsAt(payload_, pos, 1);
    pos += 1;
    if (changed) {
      const unsigned lz =
          static_cast<unsigned>(ReadBitsAt(payload_, pos, 6));
      const unsigned sig =
          static_cast<unsigned>(ReadBitsAt(payload_, pos + 6, 6)) + 1;
      const uint64_t sig_bits = ReadBitsAt(payload_, pos + 12, sig);
      pos += 12 + sig;
      prev ^= sig_bits << (64 - lz - sig);
    }
    out[i] = BitsToDouble(prev);
  }
  bit_pos_ = pos;
  prev_bits_ = prev;
}

Result<ColumnSegmentHandle> ColumnSegmentHandle::Open(
    BufferPool* pool, const ColumnSegmentInfo& info) {
  ColumnSegmentHandle handle;
  handle.pool_ = pool;
  handle.info_ = info;
  handle.pages_.reserve(info.pages);
  handle.page_bytes_.reserve(info.pages);

  // Walk the chain, fetching every page through the pool so each one is
  // checksum-verified — including pages a pruned scan never decodes.
  uint64_t payload_total = 0;
  PageId current = info.first_page;
  while (current != kInvalidPageId) {
    if (handle.pages_.size() >= info.pages) {
      return Status::Corruption("columnar chain longer than directory");
    }
    SEGDIFF_ASSIGN_OR_RETURN(PageHandle page, pool->Fetch(current));
    const char* d = page.data();
    if (static_cast<uint8_t>(d[10]) != kColumnPageKind) {
      return Status::Corruption("columnar chain links to non-columnar page " +
                                std::to_string(current));
    }
    const uint16_t bytes = DecodeFixed16(d + 8);
    if (bytes == 0 || bytes > kPagePayloadBytes) {
      return Status::Corruption("columnar page has invalid payload size");
    }
    if (handle.pages_.empty()) {
      if (bytes < kSegmentHeaderBytes) {
        return Status::Corruption("columnar segment header truncated");
      }
      const char* h = d + kChainHeaderBytes;
      if (DecodeFixed32(h) != kSegmentMagic) {
        return Status::Corruption("bad columnar segment magic");
      }
      if (DecodeFixed16(h + 4) != kSegmentVersion) {
        return Status::Corruption("unsupported columnar segment version");
      }
      const size_t num_columns = DecodeFixed16(h + 6);
      handle.rows_ = DecodeFixed32(h + 8);
      handle.nan_mask_ = DecodeFixed32(h + 12);
      if (num_columns == 0 || num_columns > 32 ||
          handle.rows_ == 0 || handle.rows_ > ColumnStore::kMaxSegmentRows ||
          handle.rows_ != info.rows) {
        return Status::Corruption("columnar segment header invalid");
      }
      const size_t header_bytes =
          kSegmentHeaderBytes + num_columns * kDirEntryBytes;
      if (bytes < header_bytes) {
        return Status::Corruption("columnar segment directory truncated");
      }
      handle.header_buf_.assign(h, header_bytes);
      handle.dir_.resize(num_columns);
      handle.col_scratch_.resize(num_columns);
      uint64_t offset = header_bytes;
      for (size_t c = 0; c < num_columns; ++c) {
        const char* e =
            handle.header_buf_.data() + kSegmentHeaderBytes +
            c * kDirEntryBytes;
        ColumnDirEntry& dir = handle.dir_[c];
        const uint8_t enc = static_cast<uint8_t>(e[0]);
        if (enc > static_cast<uint8_t>(ColumnEncoding::kXor)) {
          return Status::Corruption("unknown column encoding");
        }
        dir.encoding = static_cast<ColumnEncoding>(enc);
        dir.scale_log10 = static_cast<uint8_t>(e[1]);
        if (dir.scale_log10 > kMaxScaleLog10) {
          return Status::Corruption("column scale out of range");
        }
        dir.bit_width = DecodeFixed16(e + 2);
        if (dir.bit_width > 64) {
          return Status::Corruption("column bit width out of range");
        }
        dir.payload_bytes = DecodeFixed32(e + 4);
        dir.base = static_cast<int64_t>(DecodeFixed64(e + 8));
        dir.min = DecodeDouble(e + 16);
        dir.max = DecodeDouble(e + 24);
        dir.payload_offset = offset;
        offset += dir.payload_bytes;
      }
      if (offset != info.encoded_bytes) {
        return Status::Corruption(
            "columnar segment size disagrees with directory");
      }
    }
    handle.pages_.push_back(current);
    handle.page_bytes_.push_back(bytes);
    payload_total += bytes;
    current = DecodeFixed64(d);
  }
  if (handle.pages_.size() != info.pages ||
      payload_total != info.encoded_bytes) {
    return Status::Corruption("columnar chain shorter than directory");
  }
  return handle;
}

Result<const char*> ColumnSegmentHandle::ColumnPayload(size_t c) {
  const ColumnDirEntry& dir = dir_[c];
  std::string& scratch = col_scratch_[c];
  if (dir.payload_bytes == 0) {
    // Constant column (bit width 0): the cursor never reads the payload,
    // but hand back slack so word loads stay in bounds regardless.
    if (scratch.empty()) {
      scratch.assign(kPayloadSlackBytes, '\0');
    }
    return scratch.data();
  }
  if (!scratch.empty()) {
    return scratch.data();
  }
  scratch.reserve(dir.payload_bytes + kPayloadSlackBytes);
  const uint64_t begin = dir.payload_offset;
  const uint64_t end = begin + dir.payload_bytes;
  uint64_t page_start = 0;
  for (size_t i = 0; i < pages_.size(); ++i) {
    const uint64_t page_end = page_start + page_bytes_[i];
    if (page_end > begin && page_start < end) {
      SEGDIFF_ASSIGN_OR_RETURN(PageHandle page, pool_->Fetch(pages_[i]));
      const uint64_t lo = std::max(begin, page_start);
      const uint64_t hi = std::min(end, page_end);
      scratch.append(
          page.data() + kChainHeaderBytes + (lo - page_start), hi - lo);
    }
    if (page_end >= end) {
      break;
    }
    page_start = page_end;
  }
  if (scratch.size() != dir.payload_bytes) {
    return Status::Corruption("columnar payload extends past its chain");
  }
  scratch.append(kPayloadSlackBytes, '\0');
  return scratch.data();
}

Result<ColumnCursor> ColumnSegmentHandle::OpenColumn(size_t c) {
  if (c >= dir_.size()) {
    return Status::InvalidArgument("column index out of range");
  }
  SEGDIFF_ASSIGN_OR_RETURN(const char* payload, ColumnPayload(c));
  return ColumnCursor(&dir_[c], payload, rows_);
}

Status ColumnSegmentHandle::DecodeColumn(size_t c, double* out) {
  SEGDIFF_ASSIGN_OR_RETURN(ColumnCursor cursor, OpenColumn(c));
  cursor.Decode(rows_, out);
  return Status::OK();
}

ColumnStore::ColumnStore(BufferPool* pool, size_t num_columns)
    : pool_(pool), num_columns_(num_columns) {}

ColumnStore::ColumnStore(BufferPool* pool, size_t num_columns,
                         ColumnStoreMeta meta)
    : pool_(pool), num_columns_(num_columns), meta_(std::move(meta)) {}

Status ColumnStore::AppendSegment(const char* records, size_t rows) {
  if (rows == 0 || rows > kMaxSegmentRows) {
    return Status::InvalidArgument("columnar segment row count invalid");
  }
  const std::string blob = EncodeColumnSegment(records, num_columns_, rows);

  ColumnSegmentInfo info;
  info.rows = static_cast<uint32_t>(rows);
  info.encoded_bytes = blob.size();
  // Lift the zone statistics the encoder computed out of the blob header
  // into the directory entry, where pruning reads them for free.
  info.nan_mask = DecodeFixed32(blob.data() + 12);
  info.min.resize(num_columns_);
  info.max.resize(num_columns_);
  for (size_t c = 0; c < num_columns_; ++c) {
    const char* e = blob.data() + kSegmentHeaderBytes + c * kDirEntryBytes;
    info.min[c] = DecodeDouble(e + 16);
    info.max[c] = DecodeDouble(e + 24);
  }
  const char* src = blob.data();
  size_t remaining = blob.size();
  PageHandle prev;
  while (remaining > 0) {
    // Single-page allocations, no extents: segments are written in one
    // burst per table (compaction-time conversion), so the chain lands
    // sequential anyway, and a compacted store carries no extent slack.
    SEGDIFF_ASSIGN_OR_RETURN(PageHandle page, pool_->AllocatePinned());
    const PageId id = page.page_id();
    const size_t take = std::min(remaining, kPagePayloadBytes);
    char* d = page.data();
    EncodeFixed64(d, kInvalidPageId);
    EncodeFixed16(d + 8, static_cast<uint16_t>(take));
    d[10] = static_cast<char>(kColumnPageKind);
    std::memcpy(d + kChainHeaderBytes, src, take);
    page.MarkDirty();
    if (prev.valid()) {
      EncodeFixed64(prev.data(), id);
      prev.MarkDirty();
    } else {
      info.first_page = id;
    }
    prev = std::move(page);
    src += take;
    remaining -= take;
    ++info.pages;
  }

  meta_.segments.push_back(info);
  meta_.row_count += rows;
  meta_.page_count += info.pages;
  meta_.encoded_bytes += info.encoded_bytes;
  return Status::OK();
}

Result<ColumnSegmentHandle> ColumnStore::OpenSegment(size_t idx) const {
  if (idx >= meta_.segments.size()) {
    return Status::InvalidArgument("columnar segment index out of range");
  }
  return ColumnSegmentHandle::Open(pool_, meta_.segments[idx]);
}

}  // namespace segdiff
