// r-skyband computation (Section 4.1): the filtering step shared by RSA and
// JAA. Adapted BBS over the R-tree with
//   * r-dominance instead of classic dominance, and
//   * a max-heap keyed by score at the pivot vector of R, which guides the
//     search to likely r-skyband members first.
//
// Correctness of the popping order: records come off the heap in decreasing
// pivot score. If q r-dominated an earlier-popped p, then S(q) >= S(p) on all
// of R with equality at the interior pivot, which forces S(q) == S(p) on all
// of R (an affine function that is non-negative on R and zero at an interior
// point is identically zero) — i.e. q does not r-dominate p. Hence all
// r-dominators of a record are already confirmed when it pops, which is also
// how the r-dominance graph is obtained for free.
//
// Over a box R the BBS also keeps a score bound (DESIGN.md §2): tau, the
// k-th largest min_R S among the records of the leaves expanded so far. A
// node or record whose max_R S falls below tau by more than a margin is
// beaten everywhere in R by k records and is never pushed. It would have
// been rejected anyway, so the band, its order and its dominator lists are
// those of the plain BBS; only heap_pops and rdom_tests shrink.
#ifndef UTK_SKYLINE_RSKYBAND_H_
#define UTK_SKYLINE_RSKYBAND_H_

// Columnar execution: ComputeRSkyband takes an optional ColumnStore
// (exec/column_store.h) mirroring `data`. When present — and it is for
// every engine-owned catalog — leaf scans score through the batched
// ScoreBatch kernel and box-region r-dominance tests run through the
// allocation-free BoxGapEvaluator, both bit-for-bit equal to the AoS
// scalar path (tests/test_exec.cc). cols == nullptr keeps the original
// AoS loops, which the SoA-vs-AoS ablation benchmark compares against.

#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "exec/column_store.h"
#include "geometry/region.h"
#include "index/rtree.h"

namespace utk {

/// Output of the filtering step.
struct RSkybandResult {
  /// Record ids of r-skyband members, in decreasing pivot-score order with
  /// ties by ascending id — a total order fixed by the records alone, so
  /// two trees over the same records (a bulk-loaded one and an
  /// incrementally maintained one) yield the same band, and monotonically
  /// renumbered ids yield the same band renumbered.
  std::vector<int32_t> ids;
  /// dominators[i] = indices (into `ids`) of members that r-dominate ids[i].
  std::vector<std::vector<int>> dominators;
  /// The pivot vector of R used as the heap key.
  Vec pivot;
};

/// Computes the r-skyband of `data` w.r.t. region `r` and parameter `k`.
/// `cols`, when non-null, must mirror `data` row-for-row (stable ids).
RSkybandResult ComputeRSkyband(const Dataset& data, const RTree& tree,
                               const ConvexRegion& r, int k,
                               QueryStats* stats = nullptr,
                               const ColumnStore* cols = nullptr);

/// Brute-force oracle (O(n^2) r-dominance tests), for tests.
std::vector<int32_t> RSkybandBruteForce(const Dataset& data,
                                        const ConvexRegion& r, int k);

}  // namespace utk

#endif  // UTK_SKYLINE_RSKYBAND_H_
