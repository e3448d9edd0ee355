// Shared machinery of the end-to-end benchmark: command-line arguments,
// the run record the workloads fill in, the in-memory span recorder,
// an IO-counting file system, and the data and query grid every
// workload draws from.
//
// The benchmark binary only measures and checks. It writes raw samples,
// counters and spans to files; perfbench/run.py turns them into the
// reported metrics.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchutil/workload.h"
#include "common/status.h"
#include "common/vfs.h"
#include "segdiff/segdiff_index.h"
#include "ts/series.h"

namespace perfbench {

using segdiff::Series;
using segdiff::Status;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;     ///< scratch directory for store files
  std::string record_path;  ///< raw run record (JSON) written at exit
  std::string spans_path;   ///< span dump (JSON lines), traced runs only
};

/// A run that produced a wrong answer. Aborts the workload; main()
/// writes the record with correct = false and exits non-zero.
class GateFailure : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Throws GateFailure (prefixed with `what`) unless `status` is OK. For
/// calls whose failure leaves nothing to measure.
void Require(const Status& status, const std::string& what);

int64_t NowNs();

/// In-memory span recorder. Each span has a name, start, end, the span
/// open on the same thread when it began (its parent), and the id of
/// the operation it belongs to. Disabled, a Scope reads no clock.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t parent;  ///< index of the parent span, -1 for a root
    uint64_t op;
    int64_t start_ns;
    int64_t end_ns;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int64_t index_ = -1;
    int64_t saved_parent_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Writes every span as one JSON object per line.
  Status WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Forwards to `base`, counting every sync of a file or directory, and
/// the bytes written to and the syncs of write-ahead logs (*.wal).
/// Unlike GetWalInfo().stats the counts outlive the store, so they cover
/// stores the transect's cache has closed.
class CountingVfs : public segdiff::Vfs {
 public:
  struct Totals {
    uint64_t syncs = 0;
    uint64_t wal_syncs = 0;
    uint64_t wal_bytes = 0;
  };

  explicit CountingVfs(segdiff::Vfs* base) : base_(base) {}

  Totals totals() const;

  segdiff::Result<std::unique_ptr<segdiff::RandomAccessFile>> OpenFile(
      const std::string& path, bool create) override;
  Status SyncDir(const std::string& path) override;
  Status MakeDir(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Status RemoveFile(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  segdiff::Result<std::vector<std::string>> ListDir(
      const std::string& path) override;
  Status RemoveDir(const std::string& path) override;

 private:
  segdiff::Vfs* const base_;
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> wal_syncs_{0};
  std::atomic<uint64_t> wal_bytes_{0};
};

/// A file system in memory. Each file is an anonymous memory file
/// (memfd) named by its path and shared by every handle open on it, so
/// file reads, writes, truncates and syncs make the same system calls as
/// on disk but never wait for a device.
/// Its pages are not mapped into the process and do not count in its
/// resident set. Directories exist once made; a file needs no parent.
class MemVfs : public segdiff::Vfs {
 public:
  struct File;

  MemVfs();
  ~MemVfs() override;

  /// Forgets every file and directory. Open handles keep their bytes.
  void Clear();

  segdiff::Result<std::unique_ptr<segdiff::RandomAccessFile>> OpenFile(
      const std::string& path, bool create) override;
  Status SyncDir(const std::string& path) override;
  Status MakeDir(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Status RemoveFile(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  segdiff::Result<std::vector<std::string>> ListDir(
      const std::string& path) override;
  Status RemoveDir(const std::string& path) override;

 private:
  std::mutex mu_;
  std::map<std::string, std::shared_ptr<File>> files_;
  std::set<std::string> dirs_;
};

/// Raw results of one run: timing samples, counters and parameters,
/// written as JSON for run.py.
class Record {
 public:
  void Param(const std::string& name, double value) { params_[name] = value; }
  void Sample(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  std::vector<double>& Samples(const std::string& name) {
    return samples_[name];
  }
  void Add(const std::string& name, double delta) { counters_[name] += delta; }
  void Set(const std::string& name, double value) { counters_[name] = value; }
  void Max(const std::string& name, double value) {
    counters_[name] = std::max(counters_[name], value);
  }
  /// One correctness gate: `checked` answers compared, all equal.
  void Gate(const std::string& name, uint64_t checked);
  /// Marks [start_ns, now) as timed. Seconds and spans of the timed
  /// phase are counted over these windows.
  void TimedWindow(int64_t start_ns);

  /// Operations (searches, appends, flushes) and how many of them
  /// failed, were partial or were truncated.
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};

  Status Write(const std::string& path, const Args& args, bool correct,
               const std::string& error) const;

 private:
  std::map<std::string, double> params_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> counters_;
  std::map<std::string, uint64_t> gates_;
};

/// The paper's Section 6.4 query grid: T in {1,2,4,6,8} h and
/// |V| in {1,2,4,6,9,12} degC, as drops (V < 0) and jumps (V > 0).
struct Cell {
  double T = 0.0;
  double V = 0.0;
  bool drop = true;
};
std::vector<Cell> Grid(bool drops, bool jumps);
std::string CellName(const Cell& cell);

/// Fixed store policy shared by every workload: eps = 0.2, w = 8 h,
/// indexes built, WAL on with a 1 ms group-commit window and a 16 MiB
/// auto-checkpoint, checksums verified, no simulated read latency.
segdiff::SegDiffOptions StoreOptions(segdiff::Vfs* vfs, size_t pool_pages);

/// Per-sensor data seed derived from the run seed.
uint64_t SensorSeed(uint64_t run_seed, int sensor);

/// Generate -> Hampel -> robust LOESS, the composition of
/// segdiff::MakeSmoothedBenchSeries with the smoothing under its own
/// "ts.smooth" span.
Series MakeSensorSeries(uint64_t seed, int days, Tracer* tracer, uint64_t op);

/// Checks once that MakeSensorSeries equals MakeSmoothedBenchSeries.
void CheckSeriesComposition(uint64_t seed, int days, const Series& series);

/// Opens (creating if missing) the store at `path`; throws GateFailure
/// if it cannot.
std::unique_ptr<segdiff::SegDiffIndex> OpenStore(
    const std::string& path, const segdiff::SegDiffOptions& options);

segdiff::Result<std::vector<segdiff::PairId>> Search(
    segdiff::SegDiffIndex* store, const Cell& cell,
    const segdiff::SearchOptions& options, segdiff::SearchStats* stats);

/// Searches every cell of `grid` (kAuto) once on one thread, then once
/// on `threads`, adding both wall times to the counters
/// "speedup.serial_seconds" and "speedup.parallel_seconds".
void TimeGridAtOneAndN(segdiff::SegDiffIndex* store,
                       const std::vector<Cell>& grid, size_t threads,
                       Record* record);

/// Folds the search counters every workload reports into `record`.
void AddSearchStats(Record* record, const segdiff::SearchStats& stats);

/// Replays `series` through the segmenter alone, then its segments
/// through the feature extractor into a counting sink, each under its
/// own span, and adds the counts to `record`.
void ReplaySegmentAndExtract(const Series& series, Record* record,
                             Tracer* tracer, uint64_t op);

/// Adds the buffer-pool counter delta (after - before) to `record`.
void AddPoolDelta(Record* record, const segdiff::BufferPoolStats& before,
                  const segdiff::BufferPoolStats& after);

/// Adds the file-system counter delta (now - before) to `record`.
void AddVfsDelta(Record* record, const CountingVfs& vfs,
                 const CountingVfs::Totals& before);

int64_t FileBytes(const std::string& path);
void RemoveStore(const std::string& path);
/// Starts a phase whose memory counts: returns freed heap to the OS and
/// resets the kernel's resident high-water mark (VmHWM) to the current
/// resident set, so what the benchmark's own checks used before is left
/// out.
void StartMeasuredPhase();
/// Raises the counter "peak_rss_mib" to the high-water mark of the
/// phase begun by the last StartMeasuredPhase().
void EndMeasuredPhase(Record* record);

/// Nanoseconds one span costs the recorder, measured on a scratch one.
double SpanCostNs();

/// Steady-clock seconds since `start_ns`.
double SecondsSince(int64_t start_ns);

void RunStoreQuery(const Args& args, Record* record, Tracer* tracer);
void RunTransectSweep(const Args& args, Record* record, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
