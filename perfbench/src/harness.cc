#include "harness.h"

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "feature/extractor.h"
#include "segment/sliding_window.h"
#include "ts/smoothing.h"

namespace perfbench {

using segdiff::Result;

void Require(const Status& status, const std::string& what) {
  if (!status.ok()) throw GateFailure(what + ": " + status.ToString());
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) { return (NowNs() - start_ns) * 1e-9; }

namespace {
thread_local int64_t tls_open_span = -1;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}
}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t op)
    : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  saved_parent_ = tls_open_span;
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  index_ = static_cast<int64_t>(tracer_->spans_.size());
  tracer_->spans_.push_back({name, saved_parent_, op, NowNs(), 0});
  tls_open_span = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  const int64_t end = NowNs();
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_[static_cast<size_t>(index_)].end_ns = end;
  tls_open_span = saved_parent_;
}

double SpanCostNs() {
  constexpr int kSpans = 100000;
  Tracer scratch(true);
  const int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    Tracer::Scope outer(&scratch, "outer", i);
  }
  return static_cast<double>(NowNs() - start) / kSpans;
}

Status Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << ",\"name\":" << JsonString(s.name)
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  out.flush();
  if (!out) return Status::IOError("cannot write spans to " + path);
  return Status::OK();
}

namespace {
class CountingFile : public segdiff::RandomAccessFile {
 public:
  /// `wal_syncs` and `wal_bytes` are null for a file that is not a log.
  CountingFile(std::unique_ptr<segdiff::RandomAccessFile> base,
               std::atomic<uint64_t>* syncs, std::atomic<uint64_t>* wal_syncs,
               std::atomic<uint64_t>* wal_bytes)
      : base_(std::move(base)),
        syncs_(syncs),
        wal_syncs_(wal_syncs),
        wal_bytes_(wal_bytes) {}

  Status Read(uint64_t offset, size_t n, char* buf) override {
    return base_->Read(offset, n, buf);
  }
  Status Write(uint64_t offset, const char* buf, size_t n) override {
    if (wal_bytes_ != nullptr) {
      wal_bytes_->fetch_add(n, std::memory_order_relaxed);
    }
    return base_->Write(offset, buf, n);
  }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Status Sync() override {
    syncs_->fetch_add(1, std::memory_order_relaxed);
    if (wal_syncs_ != nullptr) {
      wal_syncs_->fetch_add(1, std::memory_order_relaxed);
    }
    return base_->Sync();
  }
  Result<uint64_t> Size() override { return base_->Size(); }

 private:
  std::unique_ptr<segdiff::RandomAccessFile> base_;
  std::atomic<uint64_t>* syncs_;
  std::atomic<uint64_t>* wal_syncs_;
  std::atomic<uint64_t>* wal_bytes_;
};

bool IsWal(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".wal") == 0;
}
}  // namespace

Result<std::unique_ptr<segdiff::RandomAccessFile>> CountingVfs::OpenFile(
    const std::string& path, bool create) {
  SEGDIFF_ASSIGN_OR_RETURN(auto file, base_->OpenFile(path, create));
  const bool wal = IsWal(path);
  return std::unique_ptr<segdiff::RandomAccessFile>(
      new CountingFile(std::move(file), &syncs_, wal ? &wal_syncs_ : nullptr,
                       wal ? &wal_bytes_ : nullptr));
}
CountingVfs::Totals CountingVfs::totals() const {
  return {syncs_.load(), wal_syncs_.load(), wal_bytes_.load()};
}
Status CountingVfs::SyncDir(const std::string& path) {
  syncs_.fetch_add(1, std::memory_order_relaxed);
  return base_->SyncDir(path);
}
Status CountingVfs::MakeDir(const std::string& path) {
  return base_->MakeDir(path);
}
bool CountingVfs::FileExists(const std::string& path) {
  return base_->FileExists(path);
}
Status CountingVfs::RemoveFile(const std::string& path) {
  return base_->RemoveFile(path);
}
Status CountingVfs::Rename(const std::string& from, const std::string& to) {
  return base_->Rename(from, to);
}
Result<std::vector<std::string>> CountingVfs::ListDir(
    const std::string& path) {
  return base_->ListDir(path);
}
Status CountingVfs::RemoveDir(const std::string& path) {
  return base_->RemoveDir(path);
}

void Record::Gate(const std::string& name, uint64_t checked) {
  gates_[name] += checked;
}

void Record::TimedWindow(int64_t start_ns) {
  const int64_t end_ns = NowNs();
  Sample("timed.start_ns", static_cast<double>(start_ns));
  Sample("timed.end_ns", static_cast<double>(end_ns));
  Add("timed.seconds", (end_ns - start_ns) * 1e-9);
}

Status Record::Write(const std::string& path, const Args& args, bool correct,
                     const std::string& error) const {
  std::ofstream out(path);
  out << "{\"workload\":" << JsonString(args.workload)
      << ",\"seed\":" << args.seed << ",\"seconds\":" << JsonNumber(args.seconds)
      << ",\"trace\":" << (args.trace ? "true" : "false")
      << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
      << ",\"compiler\":" << JsonString(PERFBENCH_COMPILER)
      << ",\"correct\":" << (correct ? "true" : "false")
      << ",\"error\":" << JsonString(error)
      << ",\"attempted\":" << attempted.load()
      << ",\"failed\":" << failed.load() << ",\"params\":{";
  const char* sep = "";
  for (const auto& [name, value] : params_) {
    out << sep << JsonString(name) << ":" << JsonNumber(value);
    sep = ",";
  }
  out << "},\"counters\":{";
  sep = "";
  for (const auto& [name, value] : counters_) {
    out << sep << JsonString(name) << ":" << JsonNumber(value);
    sep = ",";
  }
  out << "},\"gates\":{";
  sep = "";
  for (const auto& [name, checked] : gates_) {
    out << sep << JsonString(name) << ":" << checked;
    sep = ",";
  }
  out << "},\"samples\":{";
  sep = "";
  for (const auto& [name, values] : samples_) {
    out << sep << JsonString(name) << ":[";
    const char* vsep = "";
    for (double v : values) {
      out << vsep << JsonNumber(v);
      vsep = ",";
    }
    out << "]";
    sep = ",";
  }
  out << "}}\n";
  out.flush();
  if (!out) return Status::IOError("cannot write run record to " + path);
  return Status::OK();
}

std::vector<Cell> Grid(bool drops, bool jumps) {
  static constexpr double kTHours[] = {1, 2, 4, 6, 8};
  static constexpr double kVDegrees[] = {1, 2, 4, 6, 9, 12};
  std::vector<Cell> grid;
  for (int kind = 0; kind < 2; ++kind) {
    const bool drop = kind == 0;
    if ((drop && !drops) || (!drop && !jumps)) continue;
    for (double t : kTHours) {
      for (double v : kVDegrees) {
        grid.push_back({t * segdiff::kHourSeconds, drop ? -v : v, drop});
      }
    }
  }
  return grid;
}

std::string CellName(const Cell& cell) {
  std::ostringstream out;
  out << (cell.drop ? "drop" : "jump") << " T=" << cell.T / 3600.0
      << "h V=" << cell.V;
  return out.str();
}

segdiff::SegDiffOptions StoreOptions(segdiff::Vfs* vfs, size_t pool_pages) {
  segdiff::SegDiffOptions options;
  options.eps = segdiff::PaperDefaults::kEps;
  options.window_s = segdiff::PaperDefaults::kWindowS;
  options.build_indexes = true;
  options.buffer_pool_pages = pool_pages;
  options.sim_seq_read_ns = 0;
  options.sim_random_read_ns = 0;
  options.verify_checksums = true;
  options.wal = true;
  options.wal_group_commit_ms = 1;
  options.vfs = vfs;
  return options;
}

uint64_t SensorSeed(uint64_t run_seed, int sensor) {
  // SplitMix64 finalizer over (seed, sensor): distinct, well-mixed seeds.
  uint64_t z = run_seed * 0x9E3779B97F4A7C15ull +
               static_cast<uint64_t>(sensor + 1) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {
segdiff::WorkloadConfig SensorConfig(uint64_t seed, int days) {
  segdiff::WorkloadConfig config;
  config.seed = seed;
  config.num_days = days;
  return config;
}
}  // namespace

Series MakeSensorSeries(uint64_t seed, int days, Tracer* tracer,
                        uint64_t op) {
  const segdiff::WorkloadConfig config = SensorConfig(seed, days);
  Result<segdiff::CadSeries> raw = segdiff::MakeBenchSeries(config);
  Require(raw.status(), "generate");
  Tracer::Scope smooth(tracer, "ts.smooth", op);
  Result<Series> filtered =
      segdiff::HampelFilter(raw->series, segdiff::HampelOptions{});
  Require(filtered.status(), "Hampel filter");
  segdiff::LoessOptions loess;
  loess.bandwidth_s = config.loess_bandwidth_s;
  loess.robust_iterations = 1;
  Result<Series> smoothed = segdiff::RobustLoess(*filtered, loess);
  Require(smoothed.status(), "robust LOESS");
  return std::move(*smoothed);
}

void CheckSeriesComposition(uint64_t seed, int days, const Series& series) {
  Result<Series> reference =
      segdiff::MakeSmoothedBenchSeries(SensorConfig(seed, days));
  Require(reference.status(), "MakeSmoothedBenchSeries");
  if (reference->samples() != series.samples()) {
    throw GateFailure(
        "benchmark series differs from MakeSmoothedBenchSeries output");
  }
}

std::unique_ptr<segdiff::SegDiffIndex> OpenStore(
    const std::string& path, const segdiff::SegDiffOptions& options) {
  auto store = segdiff::SegDiffIndex::Open(path, options);
  Require(store.status(), "open " + path);
  return std::move(*store);
}

Result<std::vector<segdiff::PairId>> Search(
    segdiff::SegDiffIndex* store, const Cell& cell,
    const segdiff::SearchOptions& options, segdiff::SearchStats* stats) {
  return cell.drop ? store->SearchDrops(cell.T, cell.V, options, stats)
                   : store->SearchJumps(cell.T, cell.V, options, stats);
}

void TimeGridAtOneAndN(segdiff::SegDiffIndex* store,
                       const std::vector<Cell>& grid, size_t threads,
                       Record* record) {
  for (size_t n : {size_t{1}, threads}) {
    segdiff::SearchOptions options;
    options.mode = segdiff::QueryMode::kAuto;
    options.num_threads = n;
    const int64_t start = NowNs();
    for (const Cell& cell : grid) {
      Require(Search(store, cell, options, nullptr).status(), "grid search");
    }
    record->Add(n == 1 ? "speedup.serial_seconds" : "speedup.parallel_seconds",
                SecondsSince(start));
  }
}

void AddSearchStats(Record* record, const segdiff::SearchStats& stats) {
  record->Add("search.count", 1);
  record->Add("search.range_queries", stats.queries_issued);
  record->Add("search.admission_wait_ms", stats.admission_wait_ms);
  record->Add("scan.rows_scanned", stats.scan.rows_scanned);
  record->Add("scan.rows_matched", stats.scan.rows_matched);
  record->Add("scan.pages_scanned", stats.scan.pages_scanned);
  record->Add("scan.pages_pruned", stats.scan.pages_pruned);
  record->Add("scan.index_entries", stats.scan.index_entries_scanned);
  record->Add("scan.heap_fetches", stats.scan.heap_fetches);
}

void ReplaySegmentAndExtract(const Series& series, Record* record,
                             Tracer* tracer, uint64_t op) {
  std::vector<segdiff::DataSegment> segments;
  segdiff::SegmentationOptions seg_options;
  seg_options.max_error = segdiff::PaperDefaults::kEps / 2.0;
  {
    Tracer::Scope span(tracer, "segment.replay", op);
    segdiff::SlidingWindowSegmenter segmenter(
        seg_options, [&](const segdiff::DataSegment& segment) {
          segments.push_back(segment);
          return Status::OK();
        });
    for (const segdiff::Sample& sample : series) {
      Require(segmenter.Add(sample), "segmenter replay");
    }
    Require(segmenter.Finish(), "segmenter replay");
  }
  record->Add("replay.observations", static_cast<double>(series.size()));

  segdiff::ExtractorOptions ext_options;
  ext_options.eps = segdiff::PaperDefaults::kEps;
  ext_options.window_s = segdiff::PaperDefaults::kWindowS;
  uint64_t rows = 0;
  {
    Tracer::Scope span(tracer, "feature.replay", op);
    segdiff::FeatureExtractor extractor(
        ext_options, [&rows](const segdiff::PairFeatures&) {
          ++rows;
          return Status::OK();
        });
    for (const segdiff::DataSegment& segment : segments) {
      Require(extractor.AddSegment(segment), "extractor replay");
    }
    if (extractor.stats().rows_emitted != rows) {
      throw GateFailure("ExtractorStats.rows_emitted disagrees with the sink");
    }
  }
  record->Add("replay.segments", static_cast<double>(segments.size()));
  record->Add("replay.feature_rows", static_cast<double>(rows));
}

void AddPoolDelta(Record* record, const segdiff::BufferPoolStats& before,
                  const segdiff::BufferPoolStats& after) {
  record->Add("pool.hits", after.hits - before.hits);
  record->Add("pool.misses", after.misses - before.misses);
}

void AddVfsDelta(Record* record, const CountingVfs& vfs,
                 const CountingVfs::Totals& before) {
  const CountingVfs::Totals now = vfs.totals();
  record->Add("vfs.syncs", now.syncs - before.syncs);
  record->Add("wal.syncs", now.wal_syncs - before.wal_syncs);
  record->Add("wal.bytes", now.wal_bytes - before.wal_bytes);
}

int64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(size);
}

void RemoveStore(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".wal", ec);
}

void StartMeasuredPhase() {
  malloc_trim(0);
  // "5" resets the resident high-water mark (Linux 4.0 and later).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw GateFailure("cannot reset the resident high-water mark");
}

void EndMeasuredPhase(Record* record) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      record->Max("peak_rss_mib", std::atof(line.c_str() + 6) / 1024.0);
      return;
    }
  }
  throw GateFailure("no VmHWM in /proc/self/status");
}

}  // namespace perfbench
