// Public API types for the UTK query (Section 3.1).
//
// UTK1: the minimal set of records that can appear in the top-k set for some
//       weight vector in region R.
// UTK2: a partitioning of R where each cell carries the exact top-k set that
//       holds everywhere inside it.
#ifndef UTK_CORE_UTK_H_
#define UTK_CORE_UTK_H_

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "geometry/region.h"

namespace utk {

/// UTK1 output: record ids, sorted ascending, plus execution stats.
struct Utk1Result {
  std::vector<int32_t> ids;
  QueryStats stats;
};

/// One cell of the UTK2 partitioning of R.
struct Utk2Cell {
  HalfspaceRows bounds;  ///< H-representation of the cell, one row each
  Vec witness;                    ///< an interior point of the cell
  std::vector<int32_t> topk;      ///< record ids of the exact top-k set
};

/// UTK2 output: the common global arrangement (Section 5).
struct Utk2Result {
  std::vector<Utk2Cell> cells;
  QueryStats stats;

  /// Union of the top-k sets over all cells (equals the UTK1 answer).
  std::vector<int32_t> AllRecords() const;
  /// Number of *distinct* top-k sets across the cells (the paper's Fig. 12(d)
  /// metric; adjacent cells produced by different anchors may repeat a set).
  int64_t NumDistinctTopkSets() const;

  /// Sorts cells into the one canonical order every producer emits: by top-k
  /// set, then witness, then constraint count (all lexicographic). Cells of
  /// one result partition R, so witnesses are distinct interior points and
  /// the order is a deterministic function of the partition — recursion
  /// order washes out. Every Utk2Result handed
  /// to a caller must be canonical; the differential harness asserts it
  /// instead of re-sorting.
  void Canonicalize();
  /// True iff the cells are already in canonical order.
  bool IsCanonical() const;
};

}  // namespace utk

#endif  // UTK_CORE_UTK_H_
