// Exh: the paper's exhaustive baseline.
//
// Stores one row (dt, dv, t_anchor) for EVERY ordered pair of sampled
// observations whose gap is within the window w, in one table with an
// optional (dt, dv) B+-tree. A drop search is the single range query
// dt <= T AND dv <= V. Space is O(n * n_w) — the cost the paper's
// SegDiff design eliminates.

#ifndef SEGDIFF_SEGDIFF_EXH_INDEX_H_
#define SEGDIFF_SEGDIFF_EXH_INDEX_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "segdiff/feature_store.h"
#include "ts/series.h"

namespace segdiff {

struct ExhOptions : StoreOptions {
  double window_s = 28800.0;  ///< w (same default as SegDiff)
  bool build_index = true;
};

/// One matching event (pair of sampled observations).
struct ExhEvent {
  double t_start = 0.0;
  double t_end = 0.0;
  double dv = 0.0;
};

struct ExhSizes {
  uint64_t feature_bytes = 0;
  uint64_t feature_rows = 0;
  uint64_t index_bytes = 0;
  uint64_t file_bytes = 0;
};

class ExhIndex : public FeatureStore {
 public:
  /// Opens (creating if missing) the Exh store at `path`. Reopened
  /// stores resume appending: the trailing sample window and the build
  /// window are persisted in the store and restored here, persisted
  /// parameters taking precedence over `options`. A store whose pair
  /// table holds rows but has no ingest-state blob (written before state
  /// persistence) is refused with NotSupported and left untouched.
  ///
  /// Appends insert a (dt, dv, t) row for every retained earlier sample
  /// within the window: rows are immediately searchable, so FlushPending
  /// only enforces the durability boundary. Chunked ingest carries the
  /// trailing window across calls, so chunked and one-shot ingest
  /// produce identical tables.
  static Result<std::unique_ptr<ExhIndex>> Open(const std::string& path,
                                                const ExhOptions& options);

  ~ExhIndex() override;

  Result<std::vector<ExhEvent>> SearchDrops(double T, double V,
                                            const SearchOptions& options = {},
                                            SearchStats* stats = nullptr);
  Result<std::vector<ExhEvent>> SearchJumps(double T, double V,
                                            const SearchOptions& options = {},
                                            SearchStats* stats = nullptr);

  ExhSizes GetSizes() const;
  const ExhOptions& options() const { return options_; }

 private:
  explicit ExhIndex(const ExhOptions& options);

  Status OpenImpl() override;
  Status IngestStep(double t, double v) override;
  std::string EncodeIngestState() const override;
  /// Restores ingest state on reopen from the meta blob, adopting the
  /// persisted build window; a fresh store has none.
  Status RestoreIngestState();
  /// The single range query dt <= T AND dv <=/>= V, planned and run
  /// against the search's snapshot.
  Result<std::vector<ExhEvent>> Search(bool drop, double T, double V,
                                       const SearchOptions& options,
                                       SearchStats* stats);
  Status SearchScan(bool drop, double T, double V,
                    const SearchOptions& options, SearchScope& scope,
                    std::vector<ExhEvent>* events);

  ExhOptions options_;
  Table* table_ = nullptr;
  /// Trailing `window_s` of already-ingested samples, so pairs spanning
  /// chunk boundaries are not dropped on the next IngestSeries call.
  std::deque<Sample> window_;
};

}  // namespace segdiff

#endif  // SEGDIFF_SEGDIFF_EXH_INDEX_H_
