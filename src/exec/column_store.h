// ColumnStore — the SoA (structure-of-arrays) mirror of a Dataset.
//
// Every UTK operator bottoms out in millions of per-record score and
// dominance evaluations. A Record keeps its attributes in a heap-allocated
// std::vector, so AoS hot loops chase one pointer per record and defeat
// vectorization. The ColumnStore lays the same catalog out as one
// contiguous Scalar array per dimension, indexed by the records' stable
// ids: column d holds attrs[d] of record 0, 1, 2, ... back to back. The
// batched kernels in exec/kernels.h sweep these columns with simple
// contiguous loops the compiler auto-vectorizes.
//
// Build patterns:
//   * once per catalog (Engine),
//   * gathered over a candidate band (RSA/JAA refinement), where row j
//     mirrors data[ids[j]], and
//   * incrementally (LiveEngine): SetRow extends or overwrites a row in
//     O(dim), keeping the store in lockstep with an epoch-versioned
//     catalog — tombstoned rows simply keep their last attributes, exactly
//     like the live engine's Dataset does.
//
// The store never owns record ids or liveness; callers index it with the
// same ids/rows they would use on the mirrored Dataset.
// Zonemaps: owned stores additionally keep per-block min/max for every
// column (kZoneRows rows per block, aligned with the top-k scan's block
// size), so threshold-driven scans can skip whole blocks. Borrowed views
// reuse the segment footer's per-column min/max as one coarse block when
// the storage tier hands them over (see Borrow). ZoneUpperBound() turns a
// block's entries into a conservative score upper bound; maintenance on
// SetRow is widen-only (see RebuildZonemaps).
#ifndef UTK_EXEC_COLUMN_STORE_H_
#define UTK_EXEC_COLUMN_STORE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"

namespace utk {

class ColumnStore {
 public:
  /// Per-block, per-column attribute bounds backing the skip decisions.
  struct ZoneEntry {
    Scalar min;
    Scalar max;
  };
  /// Rows per zonemap block on owned stores. Must match the top-k scan's
  /// scoring block so a skipped block is exactly one scan block.
  static constexpr int32_t kZoneRows = 1024;

  ColumnStore() = default;

  /// Full mirror: row i holds data[i].attrs (the repo invariant
  /// data[i].id == i makes rows stable-id indexable).
  explicit ColumnStore(const Dataset& data);

  /// Gathered mirror: row j holds data[ids[j]].attrs. Used for candidate
  /// bands, whose few hundred rows are scored thousands of times during
  /// refinement.
  ColumnStore(const Dataset& data, std::span<const int32_t> ids);

  /// Borrowed zero-copy view: column d aliases cols[d], an external
  /// contiguous array of `n` Scalars the caller keeps alive and immutable
  /// for the view's lifetime. The storage tier builds these directly over
  /// the column blocks of an mmap'd segment, so a cold open serves batched
  /// kernels without copying a byte. Borrowed stores are read-only: SetRow
  /// asserts, Clear() drops the borrow.
  static ColumnStore Borrow(std::vector<const Scalar*> cols, int dim,
                            int32_t n);

  /// Borrowed view that additionally carries one whole-column {min, max}
  /// per dimension — the segment footer's zonemaps — as a single coarse
  /// zone block, so threshold scans over a mapped segment can skip the
  /// whole store when it cannot beat the running top-k.
  static ColumnStore Borrow(std::vector<const Scalar*> cols, int dim,
                            int32_t n, std::vector<ZoneEntry> col_zones);

  /// True when the columns alias external memory (see Borrow).
  bool borrowed() const { return !borrowed_.empty(); }

  int dim() const { return dim_; }
  int32_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Contiguous column d (length size()).
  const Scalar* col(int d) const {
    return borrowed_.empty() ? cols_[d].data() : borrowed_[d];
  }
  Scalar at(int32_t row, int d) const { return col(d)[row]; }

  /// Writes `attrs` at `row`, growing the store by exactly one row when
  /// row == size(). First write on an empty store fixes dim(). This is the
  /// live-update maintenance hook: inserts append or overwrite tombstoned
  /// rows in O(dim) without touching the other columns' prefixes. Owned
  /// stores only — a borrowed view's memory belongs to the segment.
  void SetRow(int32_t row, const Vec& attrs);

  void Clear();

  /// True when the store carries zonemap metadata (owned stores always do;
  /// borrowed views only via the footer-carrying Borrow overload).
  bool has_zonemaps() const { return !zones_.empty(); }
  /// Rows per zone block: kZoneRows on owned stores, size() on a
  /// footer-backed borrowed view (one coarse block).
  int32_t zone_rows() const { return zone_rows_; }
  /// Zone entry for `block` of column d (testing/inspection).
  ZoneEntry zone(int d, int32_t block) const { return zones_[d][block]; }

  /// Conservative upper bound on ScoreRange over rows [begin, end): no row
  /// in the range can score above the returned value under weights w.
  /// Computed from the covering zone blocks in the exact accumulation
  /// order of the scalar kernel (ub = max(last); ub += w[i] * (max(col i)
  /// - min(last)) per dimension), so IEEE rounding monotonicity makes the
  /// bound sound for non-negative weights — any negative weight, a store
  /// without zonemaps, or an empty range returns nullopt (no skipping).
  std::optional<Scalar> ZoneUpperBound(const Vec& w, int32_t begin,
                                       int32_t end) const;

  /// Recomputes the zonemaps from the current column contents. SetRow
  /// maintenance is widen-only — an overwrite that shrinks a value leaves
  /// its block's bounds loose (still sound, just less skippy) — so
  /// long-lived mutable stores may retighten after churn.
  void RebuildZonemaps();

 private:
  int dim_ = 0;
  int32_t n_ = 0;
  int32_t zone_rows_ = 0;  ///< rows per zone block; 0 = no zonemaps
  std::vector<std::vector<Scalar>> cols_;  ///< one contiguous array per dim
  std::vector<const Scalar*> borrowed_;    ///< non-empty in borrowed mode
  std::vector<std::vector<ZoneEntry>> zones_;  ///< [dim][block], optional
};

}  // namespace utk

#endif  // UTK_EXEC_COLUMN_STORE_H_
