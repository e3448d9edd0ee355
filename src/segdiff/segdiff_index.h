// SegDiffIndex: the paper's framework end to end.
//
// Ingest: series -> sliding-window segmentation (max error eps/2)
//         -> Algorithm 1 feature extraction -> minidb feature tables.
// Search: drop/jump queries (T, V) -> point + line range queries
//         (Section 4.4) over the feature tables, by sequential scan or
//         B+-tree index scan -> deduplicated segment-pair results.
//
// Storage layout (one minidb file):
//   segments                 (t_s, v_s, t_e, v_e)     the segment directory
//   drop1|drop2|drop3        feature rows with 1/2/3 stored corners
//   jump1|jump2|jump3        likewise for jump search
// A k-corner feature row is [dt1, dv1, ..., dtk, dvk, t_d, t_c, t_b]
// (t_a is re-derived from the segment directory). Indexes per Section
// 4.4: a (dt_j, dv_j) B+-tree per corner (point queries) and a
// (dt_j, dv_j, dt_{j+1}, dv_{j+1}) B+-tree per frontier edge (line
// queries) — 9 indexes per search kind.

#ifndef SEGDIFF_SEGDIFF_SEGDIFF_INDEX_H_
#define SEGDIFF_SEGDIFF_SEGDIFF_INDEX_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "feature/extractor.h"
#include "segdiff/feature_store.h"
#include "segment/sliding_window.h"
#include "ts/series.h"

namespace segdiff {

/// Build-time configuration of a SegDiff store.
struct SegDiffOptions : StoreOptions {
  double eps = 0.2;            ///< user error tolerance (degrees C in the paper)
  double window_s = 28800.0;   ///< w: longest supported T (8 h default)
  bool collect_drops = true;
  bool collect_jumps = true;
  bool build_indexes = true;   ///< build the Section 4.4 B+-trees
  bool create_if_missing = true;  ///< false: only open an existing store
};

/// Space usage (paper Section 6 metrics).
struct SegDiffSizes {
  uint64_t feature_bytes = 0;   ///< heap pages of the 6 feature tables
  uint64_t feature_rows = 0;
  uint64_t index_bytes = 0;     ///< B+-tree pages over feature tables
  uint64_t segment_dir_bytes = 0;
  uint64_t file_bytes = 0;      ///< whole database file
};

class SegDiffIndex : public FeatureStore {
 public:
  /// Creates (or opens) the store backing file at `path`. Reopened
  /// stores resume appending exactly where ingest left off: the open
  /// segment, the extractor's pair window, and the build parameters
  /// (eps, window, collected kinds) are persisted in the store and
  /// restored here — persisted build parameters take precedence over
  /// the corresponding fields of `options`. A store whose tables hold
  /// rows but has no ingest-state blob (written before state persistence
  /// existed) is refused with NotSupported and left untouched.
  ///
  /// Appends feed the streaming pipeline (segmenter -> segment
  /// directory + extractor -> feature tables). Features of the open
  /// trailing segment become searchable when the segment closes —
  /// naturally or via FlushPending(), which continues the next segment
  /// anchored at the flushed endpoint so the approximation stays
  /// contiguous.
  static Result<std::unique_ptr<SegDiffIndex>> Open(
      const std::string& path, const SegDiffOptions& options);

  ~SegDiffIndex() override;

  /// Segments and extracts `series`, appending features; equivalent to
  /// AppendSeries + FlushPending. May be called repeatedly with later
  /// series chunks (time stamps must keep increasing); each call
  /// finalizes its own trailing segment, and the next chunk continues
  /// from the finalized endpoint.
  Status IngestSeries(const Series& series) override;

  /// Drop search: all segment pairs whose parallelogram indicates an
  /// event with 0 < dt <= T and dv <= V (V < 0). Sorted, deduplicated.
  Result<std::vector<PairId>> SearchDrops(double T, double V,
                                          const SearchOptions& options = {},
                                          SearchStats* stats = nullptr);

  /// Jump search (V > 0), symmetric.
  Result<std::vector<PairId>> SearchJumps(double T, double V,
                                          const SearchOptions& options = {},
                                          SearchStats* stats = nullptr);

  SegDiffSizes GetSizes() const;
  const ExtractorStats& extractor_stats() const;
  uint64_t num_segments() const;
  const SegDiffOptions& options() const { return options_; }

 private:
  explicit SegDiffIndex(const SegDiffOptions& options);

  /// Tables, restored state, and the streaming pipeline.
  Status OpenImpl() override;
  Status IngestStep(double t, double v) override;
  Status FlushStep() override;
  std::string EncodeIngestState() const override;
  /// Forces the segment directory to be re-read through the cold pool.
  void OnDropCaches() override;
  Status InitTables();
  Status WriteFeatureRow(const PairFeatures& row);
  /// One completed segment from the segmenter: segment directory row +
  /// in-memory directory + extractor.
  Status OnSegment(const DataSegment& segment);
  /// Restores ingest state on reopen from the meta blob, adopting the
  /// persisted build parameters; a fresh store has none.
  Status RestoreIngestState();
  Result<std::vector<PairId>> Search(SearchKind kind, double T, double V,
                                     const SearchOptions& options,
                                     SearchStats* stats);
  /// Plans and runs the range-query tasks against the scope's snapshot,
  /// appending raw (un-deduped) matches to `results`. On a memory-budget
  /// breach, whatever the tasks collected stays in `results` for the
  /// shell's truncation path. With `scope.allow_partial` the scans route
  /// around quarantined pages (counting them in `scope.local.scan`)
  /// instead of failing; the shell sets SearchStats::partial from those
  /// counters.
  Status SearchImpl(SearchKind kind, double T, double V,
                    const SearchOptions& options, SearchScope& scope,
                    std::vector<PairId>* results);
  /// Dedupes the union of all queries on (t_d, t_c, t_b) and
  /// materializes t_a from the segment directory.
  Status FinishPairs(std::vector<PairId>* results);
  Status EnsureSegmentDirectory();
  /// Builds any missing zone maps for the kind's feature tables (maps
  /// dropped at open); live tables maintain theirs incrementally.
  /// Must run before a search fans out to worker threads.
  Status EnsureZoneMaps(SearchKind kind);

  SegDiffOptions options_;
  Table* segments_table_ = nullptr;
  Table* feature_tables_[2][3] = {{nullptr, nullptr, nullptr},
                                  {nullptr, nullptr, nullptr}};

  std::unique_ptr<FeatureExtractor> extractor_;
  std::unique_ptr<SlidingWindowSegmenter> segmenter_;
  /// Restored state parked between RestoreIngestState and pipeline
  /// construction in OpenImpl (the pipeline needs the adopted options).
  std::unique_ptr<ExtractorState> restored_extractor_;
  std::unique_ptr<SegmenterState> restored_segmenter_;

  /// t_start -> t_end of every segment, for materializing t_a. Guarded
  /// by lazy_mu_: ingest keeps appending to it while searches resolve
  /// t_a from it.
  std::unordered_map<double, double> segment_dir_;
  bool segment_dir_fresh_ = false;

  std::vector<double> row_buf_;
};

}  // namespace segdiff

#endif  // SEGDIFF_SEGDIFF_SEGDIFF_INDEX_H_
