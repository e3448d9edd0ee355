// Access-path planner.
//
// The paper evaluates sequential scan and index access separately and
// observes the crossover: index access loses once a query matches a
// large fraction of rows (random heap fetches dominate). The planner
// prices both sides from per-query statistics and picks the cheaper.

#ifndef SEGDIFF_QUERY_PLANNER_H_
#define SEGDIFF_QUERY_PLANNER_H_

#include <cstdint>

namespace segdiff {

class ColumnStore;
class Predicate;
struct TableSnapshotView;

enum class AccessPath : unsigned char { kSeqScan, kIndexScan };

struct PlanChoice {
  AccessPath path = AccessPath::kSeqScan;
  double estimated_selectivity = 1.0;
};

/// Zone-map-derived statistics for the cost model. The page counts come
/// from a per-query zone survey (SurveyZones), so the sequential side
/// is priced at what the pruned scan will actually read; the fractions
/// estimate the index side from real per-column ranges instead of a
/// single leading-column guess.
struct TableStatsView {
  uint64_t row_count = 0;
  uint64_t pages_total = 0;
  /// Pages whose zone ranges intersect the query (<= pages_total).
  uint64_t pages_after_pruning = 0;
  /// Estimated fraction of index entries the range walk visits
  /// (selectivity of the leading key column's bound).
  double index_entry_fraction = 1.0;
  /// Estimated fraction of rows surviving every key-column bound — each
  /// one costs a random heap fetch on the index path.
  double heap_fetch_fraction = 1.0;
  /// Multiplier on the random-fetch cost for this table's row mix. A
  /// random fetch into a compressed columnar segment decodes a whole
  /// segment (amortized by the store's one-segment cache, but still far
  /// pricier than a heap page read); callers set this to the
  /// row-weighted mean of 1.0 (heap rows) and kColumnarFetchCostScale
  /// (columnar rows).
  double random_fetch_cost_scale = 1.0;
};

/// Relative cost of one random fetch that lands in a columnar segment
/// versus one that lands in a row-format heap page.
inline constexpr double kColumnarFetchCostScale = 4.0;

/// Cost-based choice: pruned-sequential page cost vs index entry walk +
/// random heap fetches. Malformed statistics (NaN or out-of-range
/// fractions) fall back to the always-correct sequential scan.
/// estimated_selectivity reports the index-entry fraction.
PlanChoice ChooseAccessPath(const TableStatsView& stats, bool index_available);

/// Plans one range query (the conjunction `predicate`, whose leading
/// condition bounds the index's leading key column) against a table as
/// frozen in `view`, plus its immutable columnar segments (`columnar`,
/// may be null). Surveys the zone map and the segment directory for the
/// pages the pruned scan would read, merges the per-column global
/// ranges across both formats for the selectivity estimates, and
/// prices the two paths with ChooseAccessPath. A table with neither
/// statistic plans a sequential scan.
PlanChoice PlanRangeQuery(const TableSnapshotView& view,
                          const ColumnStore* columnar,
                          const Predicate& predicate, bool index_available);

}  // namespace segdiff

#endif  // SEGDIFF_QUERY_PLANNER_H_
